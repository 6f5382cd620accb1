"""CLI contract: config validation, exit codes, artifacts, reproducibility."""

import collections
import copy
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
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import erlangshot
from erlangshot import cli, closedform, csvformat, simulate, specfun
from erlangshot.cli import main, parse_config, write_csv
from erlangshot.simulate import sample_linear_shot_noise_exact


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
    cfg = _write(tmp_path, "w.json", _wave_cfg(m_values=[1]))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["wave", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["wave", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "wave_m1_beta1.csv").read_bytes() == (out2 / "wave_m1_beta1.csv").read_bytes()


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
    assert report["counters"] == {
        "paths": 6000, "steps": 0, "jumps": int(sample.jump_counts.sum())}
    # lambda * t_end = 20 jumps per sample
    assert 6000 * 19 < report["counters"]["jumps"] < 6000 * 21


def test_stationary_result_ignores_step_keys(tmp_path):
    # dt, record_stride and n_workers are validated but do not change the result
    bodies = []
    for i, sim in enumerate([
        {"dt": 0.05, "t_end": 10.0, "n_paths": 3000, "record_stride": 50},
        {"dt": 0.5, "t_end": 10.0, "n_paths": 3000, "record_stride": 1, "n_workers": 4},
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
    assert set(counters) == {"paths", "steps", "jumps"}
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
    # Bessel I, K and the Erlang survival function take whole parameter
    # columns, _SPECFUN_BATCH draws at a time, not one call per draw
    calls = collections.Counter()
    for name in ("bessel_i", "bessel_k", "erlang_survival"):
        def counted(*args, _fn=getattr(specfun, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(specfun, name, counted)
    n = 300
    cfg = _write(tmp_path, "sf.json", {"schema_version": 1, "n_samples": n, "seed": 5})
    assert main(["verify-specfun", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert set(calls) == {"bessel_i", "bessel_k", "erlang_survival"}
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
        # lambda / alpha at or barely above 1: the law stays above the
        # residual's boundary gate down to x = 1e-300
        *(("stationary", _stationary_cfg(m=m, **{"lambda": lam}), [])
          for m in (1, 2) for lam in (0.5, 1.0, 1.02)),
        # schema 1 keeps n_workers, range-checked though no run reads it
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
    z = np.linspace(0.0, cli._transient_z_max(1.0, 2.0, 1.0), 4001)
    dens = np.loadtxt(out / "density_t1.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(dens, law.continuous_density(z, 0.5, from_atom=True))


def test_wave_m2_far_tails_run_without_traceback(tmp_path):
    # z = e^{-beta xi} / (beta C) overflows left of xi = -709 and underflows
    # right of xi = 745, where kummer_u once raised after --out existed
    cfg = _wave_cfg(m_values=[2], xi_lo=-1000.0, xi_hi=1000.0, n_xi=501)
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


def test_wave_thinning_error_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    def unresolved(*args, **kwargs):
        raise simulate.ThinningError("swarm step still unresolved after 24 halvings")

    monkeypatch.setattr(simulate, "simulate_swarm", unresolved)
    swarm = {"n_agents": 10, "dt": 0.01, "t_end": 1.0, "record_stride": 2}
    cfg = _wave_cfg(m_values=[1], n_xi=501, swarm=swarm)
    out = tmp_path / "out"
    assert main(["wave", "--config", _write(tmp_path, "w.json", cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: swarm step still unresolved after 24 halvings\n"
    assert not (out / "report.json").exists()


def test_cli_import_loads_neither_scipy_signal_nor_stats():
    # start-up cost: a fresh interpreter importing the CLI must not pull in
    # the two heaviest scipy subpackages
    src = Path(erlangshot.__file__).resolve().parents[1]
    code = (
        "import sys, erlangshot.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'])))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy_integrate_optimize_sparse_or_linalg():
    # start-up cost: quadrature is numpy-only, so the CLI needs only
    # scipy.special and scipy.fft
    src = Path(erlangshot.__file__).resolve().parents[1]
    code = (
        "import sys, erlangshot.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'integrate'], ['scipy', 'optimize'], ['scipy', 'sparse'], "
        "['scipy', 'linalg'])))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


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
    # derived seeds of secondary runs wrap instead of overflowing the key
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
    assert set(report["timings"]) == {"validate", "run", "write"}
    assert all(v >= 0 for v in report["timings"].values())
    assert set(report["environment"]) == {"python", "numpy", "nproc"}
    assert report["environment"]["nproc"] >= 1
    assert set(report["metrics"]) == {
        "transient_mass", "transient_ks", "stationary_ks", "stationary_ks_jump_only"}
    counters = report["counters"]
    assert set(counters) == {"paths", "steps", "jumps"}
    assert counters["paths"] == 500 + 400
    # both runs are exact samplers: no time steps
    assert counters["steps"] == 0
    # lambda = 1 over horizons 0.5 and 2.0: about 250 + 800 jumps
    assert 900 < counters["jumps"] < 1200

    out = tmp_path / "wave"
    cfg = _wave_cfg(m_values=[1], n_xi=501)
    assert main(["wave", "--config", _write(tmp_path, "w.json", cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == keys
    assert report["counters"] == {}


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


def test_stationary_residual_edges_come_from_one_call_each(monkeypatch):
    # at grid x_hi = 12 the law is about 1e-4, so the right edge of the
    # residual grid lies further out: the first of 12, 22, 32, ... (each the
    # previous plus 10 / gamma) where it clears 1e-13, as one point-by-point
    # probe finds it; validation evaluates the law once per edge
    cfg = _stationary_cfg(grid={"x_lo": 1e-4, "x_hi": 12.0, "n": 2001})
    real = closedform.stationary_ou_m2
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closedform, "stationary_ou_m2", counted)
    spec = parse_config("stationary", cfg).residual_grid
    assert len(calls) == 2
    x_hi = 12.0
    while real(1.0, 2.0, 1.0, x_hi) > 1e-13:
        x_hi += 10.0
    assert x_hi > 12.0
    assert (spec.x_hi, spec.n) == (x_hi, 4001)


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
