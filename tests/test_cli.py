"""CLI contract: config validation, exit codes, artifacts, reproducibility."""

import collections
import copy
import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import erlangshot
from erlangshot import cli, closedform, csvformat, master, simulate, specfun
from erlangshot.cli import main, parse_config, write_csv
from erlangshot.noise import ErlangJumpLaw, stream
from erlangshot.quadrature import trapezoid_cdf
from erlangshot.simulate import interp_cdf, sample_linear_shot_noise_exact


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _wave_cfg(**over):
    cfg = {
        "schema_version": 1,
        "m_values": [1, 2],
        "beta_values": [1.0],
        "gamma": 1.0,
        "xi_lo": -10.0,
        "xi_hi": 36.0,
        "n_xi": 3001,
        "seed": 0,
    }
    cfg.update(over)
    return cfg


def test_wave_files_join_one_formatted_grid_with_their_own_density(tmp_path):
    # the grid is formatted once per run; every file pairs it with its own
    # (m, beta) profile, over more than one block of rows
    cfg = _wave_cfg(beta_values=[0.5, 1.0], xi_lo=-12.0, xi_hi=38.0, n_xi=5001)
    out = tmp_path / "out"
    assert main(["wave", "--config", _write(tmp_path, "w.json", cfg), "--out", str(out)]) == 0
    parsed = parse_config("wave", cfg)
    nodes = parsed.grid.nodes()
    for m in (1, 2):
        for b in (0.5, 1.0):
            dens = parsed.waves[(m, b)].profile(nodes)
            lines = ["xi,density"] + [f"{format(float(x), '.17g')},{format(float(y), '.17g')}"
                                      for x, y in zip(nodes, dens)]
            assert (out / f"wave_m{m}_beta{b:g}.csv").read_bytes() == ("\n".join(lines)
                                                                      + "\n").encode()


def test_wave_analytic_run(tmp_path):
    cfg = _write(tmp_path, "w.json", _wave_cfg())
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["C1"] == pytest.approx(1.781072417990198, rel=1e-9)
    assert report["metrics"]["C2"] == pytest.approx(4.841456788992367, rel=1e-9)
    assert report["metrics"]["C2_over_C1"] == pytest.approx(np.e, rel=1e-9)
    assert abs(report["metrics"]["mass_m1_beta1"] - 1.0) < 1e-6
    body = (out / "wave_m1_beta1.csv").read_text()
    assert body.splitlines()[0] == "xi,density"
    assert (out / "config_echo.json").exists()


def test_wave_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, "w.json", _wave_cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["wave", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["wave", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("wave_m1_beta1.csv", "wave_m2_beta1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_wave_invalid_gamma_exits_2(tmp_path):
    cfg = _write(tmp_path, "w.json", _wave_cfg(gamma=-1.0))
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # nothing written on invalid config


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path, "w.json", _wave_cfg(extra_knob=3))
    assert main(["wave", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_schema_version(tmp_path):
    cfg = _write(tmp_path, "w.json", _wave_cfg(schema_version=99))
    assert main(["wave", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def _verify_master_cfg(**over):
    cfg = {
        "schema_version": 1,
        "m_values": [1, 2, 3, 4],
        "grid_sizes": [513, 1025, 2049, 4097],
        "gamma": 0.7,
        "lambda": 0.8,
        "x_lo": -8.0,
        "x_hi": 10.0,
        "drift": {"kind": "linear_restoring", "alpha": 0.6},
        "sigma": 0.3,
        "n_test_densities": 2,
        "seed": 1,
    }
    cfg.update(over)
    return cfg


def test_verify_master_run(tmp_path):
    cfg = _write(tmp_path, "vm.json", _verify_master_cfg())
    out = tmp_path / "out"
    assert main(["verify-master", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for m in (1, 2, 3, 4):
        assert report["metrics"][f"order_m{m}"] >= 1.7
    assert report["metrics"]["m1_direct_form_gap"] < 1e-10


def test_verify_master_tanh_drift(tmp_path):
    # the tanh-repulsive drift: m = 1, 2 fit second order and m = 3, whose
    # ladder is coarsened, about fourth
    cfg = _verify_master_cfg(m_values=[1, 2, 3], drift={"kind": "tanh", "beta": 0.5})
    out = tmp_path / "out"
    assert main(["verify-master", "--config", _write(tmp_path, "vm.json", cfg),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert [round(metrics[f"order_m{m}"]) for m in (1, 2, 3)] == [2, 2, 4]


def test_verify_master_runs_each_coarsened_size_once(tmp_path, monkeypatch):
    # at m = 3 the sizes 513 and 514 both coarsen to 257: it runs once, so
    # the order fit's three finest points hold three distinct spacings
    runs = []
    real = master.generator_gap

    def counted(P, model):
        runs.append((model.jumps.m, P.spec.n))
        return real(P, model)

    monkeypatch.setattr(master, "generator_gap", counted)
    cfg = _write(tmp_path, "vm.json",
                 _verify_master_cfg(m_values=[1, 3], grid_sizes=[257, 513, 514, 1025, 2049]))
    out = tmp_path / "out"
    assert main(["verify-master", "--config", cfg, "--out", str(out)]) == 0
    assert runs == [(1, n) for n in (257, 513, 514, 1025, 2049)] + [
        (3, n) for n in (129, 257, 513, 1025)]
    rows = np.loadtxt(out / "generator_gaps.csv", delimiter=",", skiprows=1)
    assert [(m, h) for m, h, _ in rows] == [(m, 18.0 / (n - 1)) for m, n in runs]


def test_verify_master_single_grid_exits_2(tmp_path):
    cfg = _write(
        tmp_path,
        "vm.json",
        {
            "schema_version": 1,
            "m_values": [1],
            "grid_sizes": [513],
            "gamma": 0.7,
            "lambda": 0.8,
            "x_lo": -6.0,
            "x_hi": 10.0,
            "seed": 1,
        },
    )
    assert main(["verify-master", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def _stationary_cfg(**over):
    cfg = {
        "schema_version": 1,
        "m": 2,
        "alpha": 1.0,
        "lambda": 2.0,
        "gamma": 1.0,
        "grid": {"x_lo": 1e-4, "x_hi": 40.0, "n": 2001},
        "sim": {"dt": 0.01, "t_end": 15.0, "n_paths": 30000, "record_stride": 100},
        "n_bins": 60,
        "seed": 2,
    }
    cfg.update(over)
    return cfg


def test_stationary_run(tmp_path):
    cfg = _write(tmp_path, "s.json", _stationary_cfg())
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["analytic_mean"] == pytest.approx(4.0, rel=1e-8)
    assert report["metrics"]["ks"] < 0.02
    assert (out / "analytic_density.csv").exists()
    assert (out / "mc_histogram.csv").exists()


def test_stationary_m1_csv_matches_gamma_law(tmp_path):
    # at (m=1, alpha=1, lambda=2, gamma=1) the emitted density is the
    # Gamma(2, 1) law x e^{-x}, pointwise to 1e-8
    cfg = _stationary_cfg(m=1)
    cfg["sim"] = {"dt": 0.02, "t_end": 8.0, "n_paths": 5000, "record_stride": 50}
    path = _write(tmp_path, "s.json", cfg)
    out = tmp_path / "out"
    assert main(["stationary", "--config", path, "--out", str(out)]) in (0, 1)
    body = (out / "analytic_density.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in line.split(",")] for line in body])
    x, dens = data[:, 0], data[:, 1]
    assert np.max(np.abs(dens - x * np.exp(-x))) < 1e-8


def test_stationary_draws_the_exact_sampler(tmp_path):
    # the command's sample is the exact sampler's at the config seed and
    # horizon: same mean bit for bit, counted as paths with no steps
    cfg = _stationary_cfg()
    cfg["sim"] = {"dt": 0.05, "t_end": 10.0, "n_paths": 6000, "record_stride": 50}
    out = tmp_path / "out"
    assert main(["stationary", "--config", _write(tmp_path, "s.json", cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    sample = sample_linear_shot_noise_exact(1.0, 2.0, 1.0, 2, 0.0, 10.0, 6000, 2)
    assert report["metrics"]["mc_mean"] == float(sample.values.mean())
    assert report["counters"] == {"paths": 6000, "steps": 0, "jumps": int(sample.jump_counts.sum()),
                                  "tile_values": sample.tile_values}
    # lambda * t_end = 20 jumps per sample
    assert 6000 * 19 < report["counters"]["jumps"] < 6000 * 21


def test_stationary_result_ignores_step_keys(tmp_path):
    # dt and record_stride are validated but do not change the result
    bodies = []
    for i, sim in enumerate([
        {"dt": 0.05, "t_end": 10.0, "n_paths": 3000, "record_stride": 50},
        {"dt": 0.5, "t_end": 10.0, "n_paths": 3000, "record_stride": 1},
    ]):
        cfg = _stationary_cfg(sim=sim, grid={"x_lo": 1e-4, "x_hi": 40.0, "n": 401})
        out = tmp_path / f"o{i}"
        path = _write(tmp_path, f"s{i}.json", cfg)
        assert main(["stationary", "--config", path, "--out", str(out)]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        bodies.append(((out / "mc_histogram.csv").read_bytes(), report["metrics"]))
    assert bodies[0] == bodies[1]


def test_stationary_lambda_zero_degenerate(tmp_path):
    cfg = _write(tmp_path, "s.json", _stationary_cfg(**{"lambda": 0.0}))
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_stationary_failed_tolerance_exits_1(tmp_path):
    # starved sampling cannot meet the KS tolerance: executed-but-failed
    cfg = _stationary_cfg()
    cfg["sim"] = {"dt": 0.05, "t_end": 0.5, "n_paths": 300, "record_stride": 10}
    path = _write(tmp_path, "s.json", cfg)
    out = tmp_path / "o"
    assert main(["stationary", "--config", path, "--out", str(out)]) == 1
    assert (out / "report.json").exists()


def _transient_cfg(**over):
    cfg = {
        "schema_version": 1,
        "alpha": 1.0,
        "lambda": 2.0,
        "gamma": 1.0,
        "x0": 0.5,
        "times": [0.3, 0.7],
        "u_values": [1.0],
        "t_u": 1.0,
        "n_samples": 30000,
        "seed": 3,
    }
    cfg.update(over)
    return cfg


def test_transient_run(tmp_path):
    cfg = _write(tmp_path, "t.json", _transient_cfg())
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["mass_t1"] == pytest.approx(1.0, abs=1e-4)
    assert report["metrics"]["ks_t1"] < 0.02
    assert (out / "density_t1.csv").exists()


def test_transient_counts_one_pathwise_sample(tmp_path, monkeypatch):
    # one exact sample read at every time: n paths and the jumps of one
    # draw up to max(times, t_u) = 1.0, not of a fresh draw per time
    n, lam, t_max = 30000, 2.0, 1.0
    calls = []

    def counted(*args):
        calls.append(args[5])
        return sample_linear_shot_noise_exact(*args)

    monkeypatch.setattr(simulate, "sample_linear_shot_noise_exact", counted)
    cfg = _write(tmp_path, "t.json", _transient_cfg())
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [[0.3, 0.7, 1.0]]
    counters = json.loads((out / "report.json").read_text())["counters"]
    assert set(counters) == {"paths", "steps", "jumps", "tile_values"}
    assert counters["paths"] == n and counters["steps"] == 0
    assert abs(counters["jumps"] - lam * t_max * n) < 5 * np.sqrt(lam * t_max * n)


def test_transient_times_are_sorted_and_deduplicated(tmp_path):
    # repeated and unsorted times, one of them t_u: each reads its own row
    # of the one sample, so equal times report equal metrics
    cfg = _write(tmp_path, "t.json", _transient_cfg(times=[0.7, 0.3, 0.7], t_u=0.3))
    out = tmp_path / "out"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["ks_t1"] == metrics["ks_t3"] != metrics["ks_t2"]
    assert (out / "density_t1.csv").read_bytes() == (out / "density_t3.csv").read_bytes()


def test_transient_t_zero_exits_2(tmp_path):
    cfg = _write(tmp_path, "t.json", _transient_cfg(times=[0.0, 0.5]))
    assert main(["transient", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def _tanh_cfg(**over):
    cfg = {
        "schema_version": 1,
        "alpha": 1.0,
        "lambda": 1.0,
        "gamma": 2.0,
        "beta": 0.5,
        "t": 1.0,
        "sim": {"dt": 0.002, "t_end": 1.0, "n_paths": 50000, "record_stride": 500},
        "seed": 4,
    }
    cfg.update(over)
    return cfg


def test_tanh_run(tmp_path):
    cfg = _write(tmp_path, "th.json", _tanh_cfg())
    out = tmp_path / "out"
    assert main(["tanh", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["transient_mass"] == pytest.approx(1.0, abs=1e-4)
    assert report["metrics"]["transient_ks"] < 0.02


def test_every_sample_stream_carries_the_run_seed(tmp_path, monkeypatch):
    # each key a run passes to simulate.stream holds that run's seed, so runs
    # at neighbouring seeds share no draw, and a tanh run's X and Y samples
    # read disjoint streams
    keys = {}
    sampler = [None]

    def recorded(seed, stream_id):
        keys.setdefault(sampler[0], []).append((seed, stream_id))
        return stream(seed, stream_id)

    def tagged(name):
        inner = getattr(simulate, name)

        def run(*args):
            sampler[0] = name
            return inner(*args)
        return run

    monkeypatch.setattr(simulate, "stream", recorded)
    for name in ("sample_linear_shot_noise_exact", "sample_tanh_exact", "sample_ou_tanh_exact"):
        monkeypatch.setattr(simulate, name, tagged(name))
    for command, cfg in (("transient", _transient_cfg(n_samples=2000)),
                         ("tanh", _small_tanh_cfg())):
        for seed in (6, 7):
            keys.clear()
            args = ["--config", _write(tmp_path, "c.json", cfg), "--seed", str(seed)]
            assert main([command, *args, "--out", str(tmp_path / f"{command}{seed}")]) in (0, 1)
            assert keys and all(s == seed for run in keys.values() for s, _ in run)
            if command == "tanh":
                assert set(keys) == {"sample_tanh_exact", "sample_ou_tanh_exact"}
                assert not set(keys["sample_tanh_exact"]) & set(keys["sample_ou_tanh_exact"])


def test_tanh_runs_no_euler_path(tmp_path, monkeypatch):
    # tanh, stationary, transient and the wave swarm draw from exact samplers
    # or the swarm: no Euler path simulator is reached
    def no_euler(*args, **kwargs):
        raise AssertionError("an Euler path simulator was called")

    for name in ("simulate_paths", "simulate_tanh", "simulate_ou_tanh"):
        monkeypatch.setattr(simulate, name, no_euler)
    cfg = _tanh_cfg(t=0.5, sim={"dt": 0.01, "t_end": 0.5, "n_paths": 16384})
    cfg["stationary_sim"] = {"dt": 0.02, "t_end": 5.0, "n_paths": 16384}
    out = tmp_path / "out"
    assert main(["tanh", "--config", _write(tmp_path, "th.json", cfg), "--out", str(out)]) == 0
    counters = json.loads((out / "report.json").read_text())["counters"]
    assert counters["paths"] == 2 * 16384 and counters["steps"] == 0
    sim = {"dt": 0.05, "t_end": 5.0, "n_paths": 2000, "record_stride": 10}
    grid = {"x_lo": 1e-4, "x_hi": 40.0, "n": 401}
    swarm = {"n_agents": 50, "t_end": 1.0, "record_stride": 10}
    for command, cfg in (
        ("stationary", _stationary_cfg(sim=sim, grid=grid)),
        ("transient", _transient_cfg(n_samples=2000)),
        ("wave", _wave_cfg(m_values=[1], swarm=swarm)),
    ):
        out = tmp_path / command
        path = _write(tmp_path, f"{command}.json", cfg)
        assert main([command, "--config", path, "--out", str(out)]) in (0, 1)
        assert (out / "report.json").exists()


def test_tanh_computes_each_density_grid_once(tmp_path, monkeypatch):
    # one chirp-z cosine sum per law: the mass and the CDF come from the
    # tabulated density, not from fresh evaluations
    calls = []
    real = closedform._cosine_sum_grid

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(closedform, "_cosine_sum_grid", counted)
    out = tmp_path / "out"
    cfg = _write(tmp_path, "th.json", _small_tanh_cfg())
    assert main(["tanh", "--config", cfg, "--out", str(out)]) in (0, 1)
    assert len(calls) == 2


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_bindings_resolve():
    # the benchmark's tracer replaces each of these owner attributes; one
    # that is renamed or removed would make a traced run raise KeyError
    targets = _tracer()._targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_tracer_counts_a_real_swarm_run():
    # the tracer reads result fields of simulate_swarm; one that vanished
    # would make a traced run raise AttributeError
    sim = simulate.SimConfig(dt=0.01, t_end=0.1, n_paths=1, seed=1)
    series = simulate.simulate_swarm(20, 1, 1.0, 1.0, sim)
    counts = collections.Counter()
    _tracer()._count_swarm(counts, series, 20, 1, 1.0, 1.0, sim)
    assert counts == {"simulate.agent_steps": 20 * 10, "simulate.majorant_retries": 0}


def test_every_public_name_resolves():
    # a deleted function left in __all__ breaks `from module import *`
    modules = [erlangshot] + [importlib.import_module(f"erlangshot.{info.name}")
                              for info in pkgutil.iter_modules(erlangshot.__path__)]
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_tanh_beta_above_gamma_exits_2(tmp_path):
    cfg = _write(tmp_path, "th.json", _tanh_cfg(beta=2.5))
    assert main(["tanh", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_verify_specfun_run(tmp_path):
    cfg = _write(tmp_path, "sf.json", {"schema_version": 1, "n_samples": 100, "seed": 5})
    out = tmp_path / "out"
    assert main(["verify-specfun", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(report["flags"].values())
    assert report["metrics"]["max_err_kummer_u"] < 1e-8


def test_verify_specfun_calls_the_array_kernels_once_per_batch(tmp_path, monkeypatch):
    # every kernel takes whole parameter columns, _SPECFUN_BATCH draws at a
    # time, not one call per draw; whittaker_w0's own kummer_u call is not
    # the sweep's
    names = ("log_gamma", "digamma", "bessel_i", "bessel_k", "erlang_survival",
             "kummer_u", "whittaker_w0", "kummer_1f1")
    calls = collections.Counter()
    depth = [0]
    for name in names:
        def counted(*args, _fn=getattr(specfun, name), _name=name):
            if depth[0] == 0:
                calls[_name] += 1
            depth[0] += 1
            try:
                return _fn(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(specfun, name, counted)
    n = 300
    cfg = _write(tmp_path, "sf.json", {"schema_version": 1, "n_samples": n, "seed": 5})
    assert main(["verify-specfun", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert set(calls) == set(names)
    assert max(calls.values()) <= math.ceil(n / cli._SPECFUN_BATCH)


def test_seed_override(tmp_path):
    cfg = _write(tmp_path, "w.json", _wave_cfg(m_values=[1]))
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out), "--seed", "42"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 42


def test_missing_config_file(tmp_path):
    assert main(["wave", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def _small_tanh_cfg(**over):
    cfg = _tanh_cfg(t=0.5)
    cfg["sim"] = {"dt": 0.05, "t_end": 0.5, "n_paths": 500, "record_stride": 5}
    cfg["stationary_sim"] = {"dt": 0.05, "t_end": 2.0, "n_paths": 400, "record_stride": 10}
    cfg.update(over)
    return cfg


def _bad_sim(cfg, block, **over):
    cfg[block] = dict(cfg[block], **over)
    return cfg


# 1F1's terminating polynomial would have degree about 1e300: these
# configs once hung inside TransientLaw.total_mass
_TRANSIENT_HANGS = [_transient_cfg(alpha=1e-300), _transient_cfg(**{"lambda": 1e300})]

# valid key by key, but the rate, gamma^m, or the drift or diffusion term
# overflows on the finest grid: these once raised after --out existed
_MASTER_BASE = {key: v for key, v in _verify_master_cfg(grid_sizes=[257, 513, 1025, 2049]).items()
                if key not in ("drift", "sigma")}
_MASTER_OVERFLOWS = [dict(_MASTER_BASE, **over) for over in (
    {"sigma": 1e200}, {"lambda": 1e308}, {"gamma": 1e300},
    {"drift": {"kind": "constant", "k": 1e308}},
    {"drift": {"kind": "linear_restoring", "alpha": 1e308}},
    {"drift": {"kind": "tanh", "beta": 1e308}},
)]
# the drift is about 0 at the centre of the span but overflows at the test
# densities' centres (0.38 to 0.62 of it): this passed a validation that
# probed one centred density, then raised after --out existed
_MASTER_OFF_CENTRE = dict(_MASTER_BASE, m_values=[1, 2], x_lo=-1e5, x_hi=1e5, sigma=0.0,
                          drift={"kind": "linear_restoring", "alpha": 1.7e303})


@pytest.mark.parametrize(
    "command,cfg,argv",
    [
        ("stationary", _bad_sim(_stationary_cfg(), "sim", dt=-0.1), []),
        ("stationary", _stationary_cfg(sim=[0.01, 15.0]), []),
        # t_end/dt = 3.33: the run would stop at t = 0.9
        ("stationary", _bad_sim(_stationary_cfg(), "sim", dt=0.3, t_end=1.0), []),
        ("tanh", _bad_sim(_small_tanh_cfg(), "stationary_sim", dt=0.3, t_end=1.0), []),
        ("tanh", _bad_sim(_small_tanh_cfg(), "stationary_sim", n_paths=0), []),
        # the law would be evaluated at t = 0.5 against paths stopped at 1.0
        ("tanh", _bad_sim(_small_tanh_cfg(), "sim", t_end=1.0), []),
        ("wave", _wave_cfg(swarm={"n_agents": 10, "dt": 0.3, "t_end": 1.0}), []),
        ("wave", _wave_cfg(seed=2**64), []),
        ("wave", _wave_cfg(seed=-1), []),
        ("wave", _wave_cfg(), ["--seed", "-1"]),
        ("wave", _wave_cfg(), ["--seed", str(2**64)]),
        # one 50-unit step records t = 0 and 50 only: too few for the speed fit
        ("wave", _wave_cfg(swarm={"n_agents": 10, "dt": 50.0, "t_end": 50.0}), []),
        # valid key by key, but the m=2 speed overflows at gamma/beta = 1e-9
        ("wave", _wave_cfg(m_values=[2], gamma=1e-9), []),
        # lambda t = 2e6 jumps per exact path: a 4096-path chunk would not fit
        ("transient", _transient_cfg(times=[0.3, 1e6]), []),
        *(("transient", cfg, []) for cfg in _TRANSIENT_HANGS),
        ("transient", _transient_cfg(times=[0.3, float("inf")]), []),
        ("transient", _transient_cfg(t_u=float("inf")), []),
        # lambda t = 1200 jumps per exact path, past the bound of 1000
        ("transient", _transient_cfg(times=[600.0]), []),
        # a bool is not an integer: this once ran and reported order_mTrue
        ("verify-master", _verify_master_cfg(m_values=[True]), []),
        # m = 4 coarsens every size to 65: four equal grids, no order to fit
        ("verify-master", _verify_master_cfg(m_values=[4], grid_sizes=[65, 129, 193, 257]), []),
        # a repeated size is not a refinement: three distinct grids
        ("verify-master", _verify_master_cfg(grid_sizes=[513, 513, 1025, 2049]), []),
        # lambda t_end = 1200 jumps per exact tanh path, past the bound of 1000
        ("tanh", _bad_sim(_small_tanh_cfg(), "stationary_sim", dt=1.0, t_end=1200.0), []),
        ("tanh", _tanh_cfg(**{"lambda": 1000.5}), []),
        # finite but huge: the spans overflow, the stationary grid cannot
        # resolve the law, the transient atom swallows its grid spacing
        ("verify-master", _verify_master_cfg(x_lo=-1e308, x_hi=1e308), []),
        ("verify-master", _verify_master_cfg(x_lo=-1e307, x_hi=1e307), []),
        ("stationary", _stationary_cfg(grid={"x_lo": 1e-4, "x_hi": 1e308, "n": 2001}), []),
        ("stationary", _stationary_cfg(gamma=1e300), []),
        ("wave", _wave_cfg(xi_lo=-1e308, xi_hi=1e308), []),
        ("transient", _transient_cfg(x0=1e308), []),
        # lambda / alpha below 1, where the law is unbounded at 0 like
        # x^(lambda/alpha - 1); m = 2 grids of 9 and 16 nodes, with no node
        # past the stencil margin of 8 at each end
        ("stationary", _stationary_cfg(m=1, **{"lambda": 0.5}), []),
        ("stationary", _stationary_cfg(grid={"x_lo": 1e-4, "x_hi": 8.0, "n": 9}), []),
        ("stationary", _stationary_cfg(grid={"x_lo": 1e-4, "x_hi": 15.0, "n": 16}), []),
        ("stationary", _stationary_cfg(m=2, **{"lambda": 0.5}), []),
        *(("stationary", _stationary_cfg(m=m, **{"lambda": 0.99}), []) for m in (1, 2)),
        # n_workers is retired: an unknown key whatever its value (1 below)
        *((command, _bad_sim(cfg, block, n_workers=n), [])
          for command, cfg, block in (
              ("stationary", _stationary_cfg(), "sim"),
              ("tanh", _small_tanh_cfg(), "stationary_sim"),
              ("wave", _wave_cfg(swarm={"n_agents": 10}), "swarm"))
          for n in (0, 65)),
        # one rate at a time at 1e-300 or 1e300: the mean lambda m / (alpha
        # gamma) lies off the grid, or lambda t_end passes 1000 jumps per path
        *(("stationary", _stationary_cfg(m=m, **{key: v}), [])
          for m in (1, 2) for key in ("alpha", "lambda", "gamma") for v in (1e-300, 1e300)),
        # 1.5e11 jumps per path: rejected before the sampler allocates them
        ("stationary", _stationary_cfg(alpha=1e-10, **{"lambda": 1e10}), []),
        # n_paths lambda t_end = 9e-296 expected jumps: no path jumps, and the
        # sample, all zeros, has no histogram (this once failed after --out)
        ("stationary", _stationary_cfg(alpha=1e-300, **{"lambda": 2e-300}), []),
        # the m = 1 law is still about 1e-4 at x_hi = 12: the grid truncates
        # its mass (this once raised NormalizationError after --out)
        ("stationary", _stationary_cfg(m=1, grid={"x_lo": 1e-4, "x_hi": 12.0, "n": 2001}), []),
        *((command, _bad_sim(cfg, block, n_workers=1), [])
          for command, cfg, block in (
              ("stationary", _stationary_cfg(), "sim"),
              ("tanh", _small_tanh_cfg(), "sim"),
              ("tanh", _small_tanh_cfg(), "stationary_sim"),
              ("wave", _wave_cfg(swarm={"n_agents": 10}), "swarm"))),
        # sizes past 2**24 entries of one array: these once failed after
        # --out existed, or ran out of memory
        ("stationary", _stationary_cfg(n_bins=10**15), []),
        ("stationary", _stationary_cfg(grid={"x_lo": 1e-4, "x_hi": 40.0, "n": 10**15}), []),
        ("stationary", _bad_sim(_stationary_cfg(), "sim", n_paths=10**15), []),
        ("transient", _transient_cfg(n_samples=10**15), []),
        # (len(times) + 1) * n_samples = 2**24 + 3 sample values
        ("transient", _transient_cfg(times=[0.3, 0.7], n_samples=2**24 // 3 + 1), []),
        ("wave", _wave_cfg(n_xi=10**15), []),
        ("wave", _wave_cfg(swarm={"n_agents": 10**15}), []),
        # 2.8e11 recorded times of 10 agents (record_steps() would not fit)
        ("wave", _wave_cfg(swarm={"n_agents": 10, "dt": 1e-12}), []),
        ("verify-master", _verify_master_cfg(grid_sizes=[513, 1025, 2049, 10**15]), []),
        ("verify-specfun", {"schema_version": 1, "n_samples": 10**15, "seed": 5}, []),
        # the tanh laws' cosine inversions need more than 2**20 frequency
        # nodes (5e8 at gamma - beta = 1e-7, 29 GiB), or the tilt mass
        # overflows at gamma = 1e300; the first two once failed after
        # tanh_transient_density.csv was written
        ("tanh", _small_tanh_cfg(alpha=1e-300), []),
        ("tanh", _small_tanh_cfg(alpha=1e300), []),
        ("tanh", _tanh_cfg(gamma=1e-300, beta=1e-301), []),
        ("tanh", _tanh_cfg(gamma=1e300), []),
        ("tanh", _tanh_cfg(gamma=2.0, beta=1.9999999), []),
        ("tanh", _bad_sim(_tanh_cfg(t=1e-300), "sim", dt=1e-300, t_end=1e-300), []),
        *(("verify-master", cfg, []) for cfg in _MASTER_OVERFLOWS),
        # beta values that share the :g tag beta1, or a repeated m, name the
        # same files and metrics twice (this once overwrote them and exited 0)
        ("wave", _wave_cfg(beta_values=[1.0, 1.0000001]), []),
        ("wave", _wave_cfg(m_values=[1, 1]), []),
        # at beta 30 each agent expects C1 gamma t_end = 1e12 jumps: 10 agents
        # once ran for 33 s, and at beta 100 did not finish in 30 s
        ("wave", _wave_cfg(m_values=[1], beta_values=[30.0], swarm={
            "n_agents": 10, "dt": 0.1, "t_end": 1.8, "record_stride": 1}), []),
        # xi spacing 2e268: every node but the first sees a zero profile (this
        # once ran, failed its mass flags and passed its mean flags)
        ("wave", _wave_cfg(xi_lo=-10.0, xi_hi=1e271, n_xi=501), []),
        # e^-s 1F1(31.5, 2, s), the transformed 1F1(-29.5, 2, -s), overflows
        # from s = 599 on, short of the asymptotic range s > 900
        ("transient", _transient_cfg(x0=0.0, times=[3.0], **{"lambda": 30.5}), []),
        ("verify-master", _MASTER_OFF_CENTRE, []),
        # a repeated m once ran its ladder twice, wrote its rows twice and exited 0
        ("verify-master", _verify_master_cfg(m_values=[1, 1], grid_sizes=[257, 513, 1025, 2049]),
         []),
        # a repeated size once wrote the m = 1 row of 2049 twice and exited 0
        ("verify-master", _verify_master_cfg(m_values=[1, 3],
                                             grid_sizes=[257, 513, 514, 1025, 2049, 2049]), []),
    ],
)
def test_invalid_config_exits_2_and_writes_nothing(tmp_path, command, cfg, argv):
    path = _write(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    args = [command, "--config", path, "--out", str(out), *argv]
    if cfg in _TRANSIENT_HANGS:
        # a regression to the hang must fail here, not freeze the suite:
        # run the command in a child with a timeout
        src = Path(erlangshot.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "erlangshot.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    else:
        assert main(args) == 2
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("cfg", [*_MASTER_OVERFLOWS, _MASTER_OFF_CENTRE])
def test_verify_master_overflow_exits_2_with_one_error_and_no_warning(tmp_path, capsys, cfg,
                                                                      seed):
    # the check evaluates the generators with floating-point errors ignored
    out = tmp_path / "out"
    args = ["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "--seed", str(seed)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify-master", *args]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lam", [1e-17, 1e-300])
def test_tanh_with_a_vanishing_jump_rate_writes_a_report(tmp_path, lam):
    # below lambda / alpha of about 1e-16 the OU law's index nu rounds to 1/2,
    # and its Bessel-K prefactor's log Gamma(1/2 - nu) once raised after both
    # CSVs were written
    cfg = _write(tmp_path, "th.json", _small_tanh_cfg(**{"lambda": lam}))
    out = tmp_path / "out"
    assert main(["tanh", "--config", cfg, "--out", str(out)]) in (0, 1)
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert np.isfinite(metrics["stationary_ks_jump_only"])


def test_transient_past_500_series_terms_runs(tmp_path):
    # 1F1(-19.5, 2, -s) takes 501 series terms at s = 358.6, short of the
    # asymptotic range s > 400: this once exited 2, and before that ran with
    # a law of mass 0.55
    cfg = _transient_cfg(x0=0.0, times=[3.0], n_samples=20000, **{"lambda": 20.5})
    out = tmp_path / "out"
    assert main(["transient", "--config", _write(tmp_path, "t.json", cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(report["flags"].values())
    assert report["metrics"]["mass_t1"] == pytest.approx(1.0, abs=1e-6)


def test_transient_at_a_large_time_is_the_stationary_law(tmp_path):
    # lambda t = 800: e^{-lambda t} underflows, yet the law is the Gamma law
    cfg = _transient_cfg(times=[400.0], n_samples=20000)
    out = tmp_path / "out"
    assert main(["transient", "--config", _write(tmp_path, "t.json", cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["mass_t1"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("x0", [3e10, 1e14])
def test_transient_with_a_far_atom_runs(tmp_path, x0):
    # the mass integral once took the density at x = atom + z, which gives
    # z back only to the spacing of doubles near the atom, and failed to
    # converge after --out existed
    cfg = _transient_cfg(x0=x0, times=[0.5])
    out = tmp_path / "out"
    assert main(["transient", "--config", _write(tmp_path, "t.json", cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["mass_t1"] == pytest.approx(1.0, abs=1e-6)
    # the tabulated density, which the CDF and ks_t1 integrate, is taken at
    # each distance z past the atom, not at x - atom: near an atom at 6e13
    # that is z rounded to the doubles' spacing of 0.008
    law = closedform.TransientLaw(1.0, 2.0, 1.0, x0)
    z = np.linspace(0.0, law.z_max(), 4001)
    dens = np.loadtxt(out / "density_t1.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(dens, law.continuous_density(z, 0.5, from_atom=True))


def test_wave_m2_far_tails_run_without_traceback(tmp_path):
    # z = e^{-beta xi} / (beta C) overflows left of xi = -709 and underflows
    # right of xi = 745, where kummer_u once raised after --out existed; the
    # spacing 1 is the coarsest that resolves the profile's scale 1 / gamma
    cfg = _wave_cfg(m_values=[2], xi_lo=-1000.0, xi_hi=1000.0, n_xi=2001)
    out = tmp_path / "out"
    code = main(["wave", "--config", _write(tmp_path, "w.json", cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    dens = np.loadtxt(out / "wave_m2_beta1.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.isfinite(dens)) and np.all(dens >= 0) and dens.max() > 0


@pytest.mark.parametrize("t_end,code", [(1.6, 2), (1.8, (0, 1))])
def test_wave_swarm_needs_ten_times_in_the_speed_window(tmp_path, capsys, t_end, code):
    # dt 0.1: t_end 1.6 records 9 times in [0.8, 1.6], too few for the
    # speed fit; t_end 1.8 records 10 in [0.9, 1.8] and runs
    cfg = _wave_cfg(m_values=[1], n_xi=501, swarm={"n_agents": 10, "dt": 0.1, "t_end": t_end,
                                                   "record_stride": 1})
    out = tmp_path / "out"
    got = main(["wave", "--config", _write(tmp_path, "w.json", cfg), "--out", str(out)])
    if code == 2:
        assert got == 2 and not out.exists()
        assert "fewer than 10" in capsys.readouterr().err
    else:
        assert got in code and (out / "report.json").exists()


def test_cli_import_loads_no_scipy():
    # start-up cost: the runtime is numpy-only, scipy a test dependency
    src = Path(erlangshot.__file__).resolve().parents[1]
    code = (
        "import sys, erlangshot.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_largest_seed_runs(tmp_path):
    # the largest seed keys every stream of the run
    path = _write(tmp_path, "t.json", _transient_cfg(times=[0.7], n_samples=2000))
    out = tmp_path / "out"
    assert main(["transient", "--config", path, "--out", str(out), "--seed", str(2**64 - 1)]) in (0, 1)
    assert json.loads((out / "report.json").read_text())["seed"] == 2**64 - 1


def test_report_keys_and_engine_counters(tmp_path):
    keys = {"command", "parameters", "seed", "metrics", "flags", "counters", "timings",
            "environment", "passed", "wall_time_s"}
    cfg = _small_tanh_cfg()
    out = tmp_path / "tanh"
    assert main(["tanh", "--config", _write(tmp_path, "t.json", cfg), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert set(report) == keys
    timings = report["timings"]
    assert set(timings) == {"validate", "run", "write", "draw_wait"}
    assert all(v >= 0 for v in timings.values())
    # the samplers' wait for their helper thread's draws is part of the run
    assert 0 < timings["draw_wait"] <= timings["run"]
    assert set(report["environment"]) == {"python", "numpy", "nproc"}
    assert report["environment"]["nproc"] >= 1
    assert set(report["metrics"]) == {
        "transient_mass", "transient_ks", "stationary_ks", "stationary_ks_jump_only"}
    counters = report["counters"]
    assert set(counters) == {"paths", "steps", "jumps", "tile_values"}
    assert counters["paths"] == 500 + 400
    # both runs are exact samplers: no time steps
    assert counters["steps"] == 0
    # lambda = 1 over horizons 0.5 and 2.0: about 250 + 800 jumps
    assert 900 < counters["jumps"] < 1200
    # the larger of the two samples' largest tiles, each sample one tile
    # of its paths by its largest jump count plus one
    tiles = [simulate.sample_tanh_exact(1.0, 2.0, 0.5, 0.5, 500, 4).tile_values,
             simulate.sample_ou_tanh_exact(1.0, 1.0, 2.0, 0.5, 2.0, 400, 4).tile_values]
    assert counters["tile_values"] == max(tiles)
    assert 500 < tiles[0] < 500 * 10 and 400 < tiles[1] < 400 * 15

    out = tmp_path / "wave"
    cfg = _wave_cfg(m_values=[1], n_xi=501)
    assert main(["wave", "--config", _write(tmp_path, "w.json", cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == keys
    assert report["counters"] == {}
    assert report["timings"]["draw_wait"] == 0

    # verify-master: ladders [257, 513, 1025, 2049] (m = 1) and [129, 257,
    # 513, 1025] (m = 3), each grid's 3 densities in one stack
    out = tmp_path / "vm"
    cfg = _verify_master_cfg(m_values=[1, 3], grid_sizes=[257, 513, 1025, 2049],
                             n_test_densities=3)
    assert main(["verify-master", "--config", _write(tmp_path, "vm.json", cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == keys
    assert report["counters"] == {"densities": 3 * 8, "generator_stacks": 8,
                                  "grid_points": 3 * (257 + 513 + 1025 + 2049 + 129 + 257 + 513 + 1025)}


def test_report_swarm_counters(tmp_path):
    swarm = {"n_agents": 50, "dt": 0.01, "t_end": 1.0, "record_stride": 2}
    cfg = _wave_cfg(m_values=[1, 2], n_xi=501, swarm=swarm)
    out = tmp_path / "wave"
    assert main(["wave", "--config", _write(tmp_path, "w.json", cfg), "--out", str(out)]) in (0, 1)
    counters = json.loads((out / "report.json").read_text())["counters"]
    assert set(counters) == {"agents", "agent_steps", "proposals", "jumps"}
    assert counters["agents"] == 2 * 50
    assert counters["agent_steps"] == 2 * 50 * 100
    assert 0 < counters["jumps"] <= counters["proposals"]


def test_write_csv_matches_per_value_format(tmp_path):
    # the table-wide printf form writes the bytes of formatting each value
    # with format(float(v), ".17g"), special values and integer columns included
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300,
                        -1e300, 0.1, 1.0 / 3.0, 2.0**53 + 1, 123456789.0, -7.25e-12])
    rng = np.random.default_rng(3)
    cols = [
        np.concatenate([special, rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)]),
        np.arange(514),
        np.concatenate([rng.integers(-(2**40), 2**40, 513), [2**63 - 1]]),
    ]
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], cols)
    lines = ["a,b,c"] + [",".join(format(float(v), ".17g") for v in row) for row in zip(*cols)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    write_csv(path, ["x"], [np.array([])])
    assert path.read_bytes() == b"x\n"


def _format_sweep_values():
    """Over 2e5 doubles that stress a %.17g formatter."""
    rng = np.random.default_rng(16)
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    # exact ties: M 2^-d with M odd and M 5^d of 18 digits has 18 significant
    # digits ending in 5; and odd multiples of 2^-25 ... 2^-80
    ties = []
    for d in range(2, 26):
        lo, hi = -(-10**17 // 5**d), min(10**18 // 5**d, 2**53)
        ties.append((rng.integers(lo // 2, hi // 2, 200) * 2 + 1) * 2.0**-d)
    assert all(_is_17_digit_tie(v) for t in ties for v in t[:5])
    odd = np.arange(1, 2**7, 2)
    ties += [odd * 2.0**-e for e in range(25, 81)]
    ties = np.concatenate(ties)
    integers = np.concatenate([rng.integers(0, 2**63, 20000, dtype=np.int64).astype(float),
                               2.0 ** np.arange(64), 2.0 ** np.arange(64) - 1])
    values = np.concatenate([
        rng.integers(0, 2**64, 120000, dtype=np.uint64).view(np.float64),  # both signs
        [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)],
        rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64),  # subnormals
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        integers,
        rng.standard_normal(20000) * 10.0 ** rng.integers(-40, 40, 20000),
    ])
    return np.concatenate([values, -values[values.size // 2:]])


def test_write_csv_is_byte_identical_to_format_on_a_sweep(tmp_path):
    # the vectorised writer against format(float(v), ".17g") cell by cell, on
    # 1-, 2- and 3-column tables of one shuffled sweep (blocks of rows included)
    values = _format_sweep_values()
    assert values.size >= 200000
    parts = np.array_split(np.random.default_rng(7).permutation(values), 3)
    for n_cols, part in enumerate(parts, start=1):
        cols = [part[j : part.size - part.size % n_cols : n_cols] for j in range(n_cols)]
        path = tmp_path / f"sweep{n_cols}.csv"
        write_csv(path, [f"c{j}" for j in range(n_cols)], cols)
        lines = [",".join(f"c{j}" for j in range(n_cols))]
        lines += [",".join(format(float(v), ".17g") for v in row) for row in zip(*cols)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _is_17_digit_tie(v):
    """Whether the exact decimal value of v has 18 significant digits, the
    last a 5: rounding it to 17 digits is a tie."""
    digits = Decimal(v).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_power_of_ten_tables_match_exact_fractions():
    # hi is 10^p correctly rounded, lo the remainder correctly rounded, and
    # _AT_LEAST the smallest double not below 10^p
    for i, (hi, lo, at) in enumerate(zip(csvformat._HI, csvformat._LO, csvformat._AT_LEAST)):
        exact = Fraction(10) ** (csvformat._P_MIN + i)
        assert float(exact) == hi
        assert float(exact - Fraction(float(hi))) == lo
        assert Fraction(float(at)) >= exact > Fraction(float(np.nextafter(at, 0.0)))


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # rows are formatted and written a block at a time: at 10^6 rows x 2 the
    # traced peak stays under a bound fixed whatever the row count (a whole
    # table of %.17g text would be about 40 MB)
    x = np.linspace(-12.0, 38.0, 1_000_000)
    cols = [x, np.exp(-np.abs(x))]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["x", "y"], cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with open(tmp_path / "big.csv", "rb") as f:
        assert sum(1 for _ in f) == 1_000_001


def test_write_csv_rejects_a_header_of_another_length_and_no_columns(tmp_path):
    path = tmp_path / "t.csv"
    x = np.arange(3.0)
    with pytest.raises(ValueError, match="2 names for 1 columns"):
        write_csv(path, ["a", "b"], [x])
    with pytest.raises(ValueError, match="1 names for 2 columns"):
        write_csv(path, ["a"], [x, csvformat.cells(x)])
    with pytest.raises(ValueError, match="at least one column"):
        write_csv(path, [], [])
    assert not path.exists()


@pytest.mark.parametrize("n_rows", [4095, 4096, 4097, 3 * 4096 + 7])
def test_write_csv_joins_a_formatted_column_in_any_position(tmp_path, n_rows):
    # a column formatted once by csvformat.cells, first, middle or last in
    # tables of 1 to 3 columns, with fallback cells (and -0.0) at the edges
    # of the row blocks; the same Cells is joined into every table
    assert cli._CSV_BLOCK_ROWS == 4096
    rng = np.random.default_rng(n_rows)
    formatted = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-200, 200, n_rows)
    edges = np.array([e + d for e in range(0, n_rows + 1, 4096) for d in (-2, -1, 0, 1)
                      if 0 <= e + d < n_rows] + [n_rows - 1])
    formatted[edges] = np.resize([np.nan, -np.inf, 5e-324, -0.0, 2.0**-25], edges.size)
    columns = [formatted, rng.standard_normal(n_rows),
               rng.integers(-(10**6), 10**6, n_rows) * 2.0**-25]
    texts = [[format(float(v), ".17g") for v in c] for c in columns]
    shared = csvformat.cells(formatted)
    path = tmp_path / "t.csv"
    for n_cols in (1, 2, 3):
        for pos in range(n_cols):
            order = list(range(1, n_cols))
            order.insert(pos, 0)
            write_csv(path, [f"c{j}" for j in order],
                      [shared if j == 0 else columns[j] for j in order])
            lines = [",".join(f"c{j}" for j in order)]
            lines += [",".join(texts[j][i] for j in order) for i in range(n_rows)]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_stationary_residual_is_that_of_the_csv_density(tmp_path, monkeypatch):
    # validation tabulates the m = 2 law once, on the run's own grid, and the
    # reported residual is that of the density the CSV holds, bit for bit
    real = closedform.stationary_ou_m2
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closedform, "stationary_ou_m2", counted)
    cfg = _stationary_cfg(sim={"dt": 0.05, "t_end": 10.0, "n_paths": 3000})
    record = parse_config("stationary", cfg)
    assert len(calls) == 1
    # a whole run evaluates the law once, in its validation: ks is taken
    # against the same table
    calls.clear()
    out = tmp_path / "out"
    assert main(["stationary", "--config", _write(tmp_path, "s.json", cfg), "--out", str(out)]) == 0
    assert len(calls) == 1
    x, dens = np.loadtxt(out / "analytic_density.csv", delimiter=",", skiprows=1).T
    spec = master.GridSpec(1e-4, 40.0, 2001)
    assert np.array_equal(x, spec.nodes()) and np.array_equal(dens, record.density)
    model = master.ModelSpec(master.LinearRestoring(1.0), 0.0, master.ConstantRate(2.0),
                             ErlangJumpLaw(2, 1.0))
    want = master.stationary_residual(master.GridFunction(spec, dens), model)
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["stationary_residual"] == want == record.residual


@pytest.mark.parametrize("m,bound", [(1, 1e-4), (2, 1e-5)])
def test_stationary_ks_reference_is_near_the_law(m, bound):
    # ks compares the sample with the trapezoid CDF of the table, linear
    # between nodes; on the README grid it stays near the law's CDF on 4
    # times as many points, so ks is within that bound of ks against the
    # law.  X = Gamma(2 + K, 1) with K = 0 (m = 1) or Poisson(2) (m = 2),
    # whose CDF for integer shapes is a finite sum.  The m = 1 law rises
    # like x from 0, where linear interpolation errs by h^2 / 8 = 5e-5
    record = parse_config("stationary", _stationary_cfg(m=m))
    x = record.grid.nodes()
    ref = interp_cdf(x, trapezoid_cdf(record.density, x))
    fine = np.linspace(x[0], x[-1], 8001)
    # the Gamma(n, 1) CDF is P(Poisson(x) >= n)
    j = np.arange(62)
    log_fact = np.array([math.lgamma(i + 1.0) for i in j])
    poisson_below = np.cumsum(np.exp(j[:, None] * np.log(fine) - fine - log_fact[:, None]), axis=0)
    k = j[:60]
    weights = np.exp(k * np.log(2.0) - 2.0 - log_fact[:60]) if m == 2 else k == 0
    law = weights @ (1.0 - poisson_below[k + 1])
    assert np.abs(ref(fine) - law).max() <= bound


def test_stationary_law_is_evaluated_without_warnings(tmp_path, capsys):
    # at lambda / alpha = 200 the Bessel-I form takes the log of I_199,
    # which underflows to 0 near x_lo; validation's errstate silences that,
    # and a second evaluation of the law in the run once printed a
    # RuntimeWarning.  t_end 5 falls short of stationarity: exit 1 is fine
    cfg = {"schema_version": 1, "m": 2, "alpha": 1.0, "lambda": 200.0, "gamma": 1.0,
           "grid": {"x_lo": 1e-4, "x_hi": 640.0, "n": 2001},
           "sim": {"dt": 0.5, "t_end": 5.0, "n_paths": 100}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stationary", "--config", _write(tmp_path, "s.json", cfg),
                     "--out", str(out)]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("lam", [1.0, 1.02])
def test_stationary_runs_where_the_law_does_not_vanish_at_0(tmp_path, m, lam):
    # at lambda / alpha = 1 the law is gamma e^(-gamma x) (m = 1) or starts at
    # gamma / e (m = 2), and at 1.02 it still rises like x^0.02 from 0: the
    # residual is taken on the run's grid all the same (these once exited 2)
    cfg = _stationary_cfg(m=m, seed=7, **{"lambda": lam})
    cfg["sim"] = {"dt": 0.02, "t_end": 20.0, "n_paths": 16384}
    out = tmp_path / "out"
    assert main(["stationary", "--config", _write(tmp_path, "s.json", cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert math.isfinite(metrics["stationary_residual"])


def test_stationary_grid_inside_the_stencil_margin_exits_2(tmp_path, capsys):
    # 9 nodes, spacing 1: every other check passes, and the m = 2 residual
    # has no node left past its margin of 8 at each end
    cfg = _stationary_cfg(grid={"x_lo": 1e-4, "x_hi": 8.0, "n": 9})
    out = tmp_path / "out"
    assert main(["stationary", "--config", _write(tmp_path, "s.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stencil margin" in err and "zero-size" not in err
    assert not out.exists()


# one small valid config per command; every block and tag a table names is present
_SMALL = {
    "wave": _wave_cfg(m_values=[1], n_xi=501,
                      swarm={"n_agents": 10, "dt": 0.1, "t_end": 1.8, "record_stride": 1}),
    "verify-master": _verify_master_cfg(),
    "stationary": _stationary_cfg(),
    "transient": _transient_cfg(),
    "tanh": _small_tanh_cfg(),
    "verify-specfun": {"schema_version": 1, "n_samples": 100, "seed": 5},
}


def _numeric_keys(table, path=()):
    """(key path, is a list) of every real or integer field of a table, nested
    blocks included.  Each step of a path is (key,), or (key, tag) for a
    tagged block switched to that tag."""
    for f in table.fields:
        if isinstance(f.kind, cli._Table):
            yield from _numeric_keys(f.kind, path + ((f.name,),))
        elif isinstance(f.kind, dict):
            for tag, sub in f.kind.items():
                yield from _numeric_keys(sub, path + ((f.name, tag),))
        else:
            yield path + ((f.name,),), isinstance(f.kind, list)


def _with_value(cfg, path, in_list, value):
    cfg = copy.deepcopy(cfg)
    block = cfg
    for key, *tag in path[:-1]:
        if tag:
            block[key] = {"kind": tag[0]}
        block = block[key]
    block[path[-1][0]] = [value] if in_list else value
    return cfg


_BAD_NUMBERS = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
                "true": True, "str": "1"}
_BAD_NUMBER_CASES = [
    pytest.param(command, _with_value(cfg, path, in_list, value),
                 id="-".join([command, ".".join(map(":".join, path)), name]))
    for command, cfg in _SMALL.items()
    for path, in_list in _numeric_keys(cli._COMMANDS[command][0])
    for name, value in _BAD_NUMBERS.items()
]


@pytest.mark.parametrize("command,cfg", list(_SMALL.items()))
def test_small_configs_parse(command, cfg):
    assert parse_config(command, cfg).seed == cfg["seed"]
    # a --seed override is validated as the config's seed and replaces it
    assert parse_config(command, cfg, seed=2**64 - 1).seed == 2**64 - 1
    for bad in (-1, 2**64, True, 1.5):
        with pytest.raises(cli.ConfigError):
            parse_config(command, cfg, seed=bad)


@pytest.mark.parametrize("command,cfg", _BAD_NUMBER_CASES)
def test_non_finite_or_non_numeric_field_exits_2(tmp_path, capsys, command, cfg):
    # every real and integer field, list elements and nested blocks included,
    # rejects NaN, the infinities, a bool and a string with one error line
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _readme_configs():
    """(command, config) of each json block under a '### <command>' heading."""
    lines = iter((Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines())
    command, found = None, []
    for line in lines:
        if line.startswith("### "):
            command = line[4:].strip()
        elif line == "```json":
            body = itertools.takewhile(lambda body_line: body_line != "```", lines)
            found.append((command, json.loads("\n".join(body))))
    return found


def test_readme_configs_parse():
    configs = _readme_configs()
    assert [command for command, _ in configs] == [
        "wave", "verify-master", "stationary", "transient", "tanh"]
    for command, cfg in configs:
        parse_config(command, cfg)


def _one_density(rng, x, x_lo, x_hi):
    """One test density as verify-master once drew it: three bumps, each
    drawing its centre, width and height in turn as Python floats."""
    span = x_hi - x_lo
    dens = np.zeros_like(x)
    for _ in range(3):
        c = x_lo + span * (0.38 + 0.24 * rng.random())
        w = span * (0.014 + 0.011 * rng.random())
        a = 0.5 + rng.random()
        dens += a * np.exp(-((x - c) ** 2) / (2 * w**2))
    return dens


@pytest.mark.parametrize("k", [1, 2, 17])
def test_random_bump_stack_is_k_sequential_draws(k):
    x = np.linspace(-8.0, 10.0, 1025)
    rng = stream(3, 2)
    want = np.array([_one_density(rng, x, -8.0, 10.0) for _ in range(k + 1)])
    rng = stream(3, 2)
    got = np.concatenate([cli._random_bumps(rng, x, -8.0, 10.0, k),
                          cli._random_bumps(rng, x, -8.0, 10.0, 1)])
    assert np.array_equal(got, want)


def test_verify_master_split_stacks_write_the_same_bytes(tmp_path, monkeypatch):
    # stacks of every size down to one density per call give the same gaps
    cfg = _write(tmp_path, "vm.json", _verify_master_cfg(
        m_values=[1, 2, 3], grid_sizes=[257, 513, 1025, 2049], n_test_densities=5))
    runs = {}
    for cap in (cli._STACK_POINTS, 3 * 513, 1):
        monkeypatch.setattr(cli, "_STACK_POINTS", cap)
        out = tmp_path / f"cap{cap}"
        assert main(["verify-master", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        runs[cap] = ((out / "generator_gaps.csv").read_bytes(), report["metrics"],
                     report["counters"])
    (body, metrics, counters), *others = runs.values()
    assert counters["generator_stacks"] == 12
    assert runs[1][2]["generator_stacks"] == 60
    for other_body, other_metrics, other_counters in others:
        assert other_body == body and other_metrics == metrics
        assert other_counters["densities"] == counters["densities"] == 60
        assert other_counters["grid_points"] == counters["grid_points"]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_verify_master_validates_with_the_gaps_it_reports(tmp_path, seed):
    # the check computes every ladder at the run's seed; the run writes those
    # rows, bit for bit
    cfg = _verify_master_cfg(grid_sizes=[257, 513, 1025, 2049], n_test_densities=3, seed=1)
    ladders = parse_config("verify-master", cfg, seed=seed).ladders
    want = [(float(m).hex(), h.hex(), g.hex()) for m, hs, gaps in ladders
            for h, g in zip(hs, gaps)]
    out = tmp_path / "out"
    assert main(["verify-master", "--config", _write(tmp_path, "vm.json", cfg), "--out", str(out),
                 "--seed", str(seed)]) == 0
    header, *lines = (out / "generator_gaps.csv").read_text().splitlines()
    assert header == "m,h,max_gap"
    assert [tuple(float(v).hex() for v in line.split(",")) for line in lines] == want


# the README verify-master config's generator_gaps.csv digest and metrics, as
# one density per generator call wrote them (numpy 2.4.6, x86-64)
_VERIFY_MASTER_PINNED = {
    0: ("1db85e3a8332e413f6c1709e0e5cc59ef1e1161d0c19097f22334562afa44c21",
        {"order_m1": 2.000353536158959, "order_m2": 1.998751670125863,
         "order_m3": 3.7440227137609456, "order_m4": 3.4269615200345447,
         "m1_direct_form_gap": 2.220446049250313e-16}),
    1: ("f91cfa0cef765e717013c8271d9c097dd95be82fd637324baa6d7c54ef734fc1",
        {"order_m1": 2.00090591313879, "order_m2": 1.9984359550359696,
         "order_m3": 3.5706956761767423, "order_m4": 3.0029412271452536,
         "m1_direct_form_gap": 2.220446049250313e-16}),
}


@pytest.mark.parametrize("seed", sorted(_VERIFY_MASTER_PINNED))
def test_verify_master_readme_config_is_pinned(tmp_path, seed):
    cfg = _verify_master_cfg(grid_sizes=[513, 1025, 2049, 4097, 8193], n_test_densities=3,
                             seed=seed)
    out = tmp_path / "out"
    assert main(["verify-master", "--config", _write(tmp_path, "vm.json", cfg),
                 "--out", str(out)]) == 0
    digest, metrics = _VERIFY_MASTER_PINNED[seed]
    assert hashlib.sha256((out / "generator_gaps.csv").read_bytes()).hexdigest() == digest
    assert json.loads((out / "report.json").read_text())["metrics"] == metrics


def test_verify_master_memory_does_not_grow_with_test_densities(tmp_path):
    # a stack holds at most _STACK_POINTS values, so four full stacks per
    # grid peak where one does (a single stack of 4 x 31 rows of 8193 would
    # peak about four times higher)
    per_stack = cli._STACK_POINTS // 8193
    peaks = []
    for k in (per_stack, 4 * per_stack):
        cfg = _write(tmp_path, f"vm{k}.json", _verify_master_cfg(
            m_values=[1], grid_sizes=[1025, 2049, 4097, 8193], n_test_densities=k))
        tracemalloc.start()
        try:
            assert main(["verify-master", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_report_json_is_strict_and_a_non_finite_metric_fails(tmp_path):
    # at gamma 1e10 the bare Bessel-K mixture is a spike the y grid cannot
    # resolve, and stationary_ks_jump_only is NaN: report.json writes null and
    # the metrics_finite flag fails the run (it once wrote a bare NaN, exit 0)
    cfg = _write(tmp_path, "th.json", _small_tanh_cfg(gamma=1e10, seed=0))
    out = tmp_path / "out"
    with np.errstate(invalid="ignore"):
        assert main(["tanh", "--config", cfg, "--out", str(out)]) == 1

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["metrics"]["stationary_ks_jump_only"] is None
    assert report["flags"]["metrics_finite"] is False and report["passed"] is False
    assert all(math.isfinite(v) for k, v in report["metrics"].items()
               if k != "stationary_ks_jump_only")


def test_wave_mean_flag_needs_the_mass(tmp_path):
    # far right of the wave the profile is 0 at every node: mass 0 fails, and
    # the mean, 0 as well, no longer passes on a profile that is not there
    cfg = _write(tmp_path, "w.json", _wave_cfg(xi_lo=1000.0, xi_hi=1010.0, n_xi=1001))
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    for m in (1, 2):
        assert report["metrics"][f"mass_m{m}_beta1"] == 0.0
        assert report["metrics"][f"mean_m{m}_beta1"] == 0.0
        assert not report["flags"][f"mass_m{m}_beta1_within_1e-6"]
        assert not report["flags"][f"mean_m{m}_beta1_within_1e-5"]
