"""Reproducible experiment runner.

Each subcommand loads a JSON config, validates it against the owning
module's preconditions (unknown keys are errors), runs one experiment, and
writes an output directory containing the echoed config, a ``report.json``
with named metrics and pass/fail flags, and CSV artifacts.  Exit codes:
0 when every tolerance was met, 1 when the run executed but a tolerance
failed, 2 for an invalid configuration (nothing is written).

Invocation:
    erlangshot <subcommand> --config cfg.json --out outdir [--seed N]
with subcommand one of wave, verify-master, stationary, transient, tanh,
verify-specfun.  Reals in CSVs carry 17 significant digits so re-running
with the same config and seed reproduces byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import closedform, master, oracles, simulate, specfun
from .master import (
    ConstantDiffusion,
    ConstantDrift,
    ConstantRate,
    GridFunction,
    GridSpec,
    LinearRestoring,
    ModelSpec,
    TanhRepulsive,
    ZeroDiffusion,
    ZeroDrift,
)
from .noise import ErlangJumpLaw
from .quadrature import cumulative_trapezoid, simpson
from .simulate import SimConfig, interp_cdf

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _check_keys(block, allowed, where):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _get(block, key, kind, where, default=None, required=False, pred=None, what=""):
    if key not in block:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    val = block[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(f"key '{key}' in {where} must be {kind.__name__}")
    if pred is not None and not pred(val):
        raise ConfigError(f"key '{key}' in {where} is out of range{': ' + what if what else ''}")
    return val


def _require_schema(cfg):
    v = _get(cfg, "schema_version", int, "config", required=True)
    if v != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {v} (expected {SCHEMA_VERSION})")


def _check_seed(value, where):
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise ConfigError(f"{where} must be an integer in [0, 2**64)")
    return value


def _derived_seed(seed, offset):
    """Seed of a secondary Monte Carlo run; wraps so every accepted seed runs."""
    return (seed + offset) % 2**64


def _sim_config(block, where, seed=0):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(block, {"dt", "t_end", "n_paths", "record_stride", "n_workers"}, where)
    try:
        return SimConfig(
            dt=_get(block, "dt", float, where, required=True, pred=lambda v: v > 0),
            t_end=_get(block, "t_end", float, where, required=True, pred=lambda v: v > 0),
            n_paths=_get(block, "n_paths", int, where, required=True, pred=lambda v: v >= 1),
            seed=seed,
            record_stride=_get(block, "record_stride", int, where, default=1, pred=lambda v: v >= 1),
            n_workers=_get(block, "n_workers", int, where, default=1, pred=lambda v: 1 <= v <= 64),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def write_csv(path, header, columns):
    """Write equal-length columns as CSV, every value as a float with 17
    significant digits, formatted by one printf-style call over the table."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    n, k = table.shape
    row = ",".join(["%.17g"] * k) + "\n"
    body = row * n % tuple(table.ravel().tolist())
    Path(path).write_text(",".join(header) + "\n" + body)


def _environment():
    """Interpreter and library versions and usable CPUs of this process."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
    }


class RunReport:
    """Named metrics, pass/fail flags, and provenance for one run.

    ``timings`` holds the seconds spent validating the config, running the
    experiment, and writing output files (the config echo and every CSV;
    CSVs written during the run count under ``write``, not ``run``)."""

    def __init__(self, command, parameters, seed):
        self.command = command
        self.parameters = parameters
        self.seed = seed
        self.metrics = {}
        self.flags = {}
        self.counters = {}
        self.timings = {"validate": 0.0, "run": 0.0, "write": 0.0}
        self._t0 = time.perf_counter()

    def write_csv(self, path, header, columns):
        """Write a CSV artifact, timed under ``write``."""
        start = time.perf_counter()
        write_csv(path, header, columns)
        self.timings["write"] += time.perf_counter() - start

    def metric(self, name, value):
        self.metrics[name] = float(value)

    def _add_counters(self, **counts):
        for name, n in counts.items():
            self.counters[name] = self.counters.get(name, 0) + n

    def count_paths(self, sim, batch):
        """Add a path simulation's engine counters: paths, path-steps, jumps."""
        self._add_counters(
            paths=sim.n_paths,
            steps=sim.n_paths * sim.n_steps,
            jumps=int(batch.jump_counts.sum()),
        )

    def count_exact(self, sample):
        """Add an exact sampler's counters: samples as paths, no steps, jumps."""
        self._add_counters(paths=len(sample), steps=0, jumps=int(sample.jump_counts.sum()))

    def count_swarm(self, sim, series):
        """Add a swarm run's counters: agents, agent-steps (sub-steps
        included), thinning proposals, accepted jumps, majorant retries."""
        self._add_counters(
            agents=series.n_agents,
            agent_steps=series.n_agents * (sim.n_steps + series.majorant_retries),
            proposals=series.proposals,
            jumps=series.jumps,
            majorant_retries=series.majorant_retries,
        )

    def flag(self, name, ok):
        self.flags[name] = bool(ok)

    @property
    def passed(self):
        return all(self.flags.values())

    def write(self, out_dir):
        body = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "metrics": self.metrics,
            "flags": self.flags,
            "counters": self.counters,
            "timings": self.timings,
            "environment": _environment(),
            "passed": self.passed,
            "wall_time_s": time.perf_counter() - self._t0,
        }
        (Path(out_dir) / "report.json").write_text(json.dumps(body, indent=2) + "\n")


# ---------------------------------------------------------------------------
# wave


# trailing fraction of the swarm run that the speed is fitted over
_SPEED_WINDOW = 0.5


def _validate_wave(cfg):
    _require_schema(cfg)
    _check_keys(
        cfg,
        {"schema_version", "m_values", "beta_values", "gamma", "xi_lo", "xi_hi",
         "n_xi", "seed", "swarm"},
        "wave config",
    )
    m_values = cfg.get("m_values")
    if (
        not isinstance(m_values, list)
        or not m_values
        or any(not isinstance(m, int) or isinstance(m, bool) or m not in (1, 2) for m in m_values)
    ):
        raise ConfigError("m_values must be a non-empty list drawn from {1, 2}")
    beta_values = cfg.get("beta_values")
    if (
        not isinstance(beta_values, list)
        or not beta_values
        or any(not isinstance(b, (int, float)) or isinstance(b, bool) or b <= 0 for b in beta_values)
    ):
        raise ConfigError("beta_values must be a non-empty list of positive reals")
    _get(cfg, "gamma", float, "wave config", required=True, pred=lambda v: v > 0)
    _get(cfg, "xi_lo", float, "wave config", required=True)
    _get(cfg, "xi_hi", float, "wave config", required=True)
    if not cfg["xi_lo"] < cfg["xi_hi"]:
        raise ConfigError("xi_lo must be below xi_hi")
    _get(cfg, "n_xi", int, "wave config", required=True, pred=lambda v: v >= 101)
    for m in m_values:
        for b in beta_values:
            sol = _wave_solution(m, float(b), float(cfg["gamma"]))
            if not all(np.isfinite(v) and v > 0 for v in (sol.speed, sol.norm)):
                raise ConfigError(
                    f"the m={m}, beta={b:g} wave has no finite positive speed and norm "
                    f"at gamma={cfg['gamma']:g}"
                )
    if "swarm" in cfg:
        blk = cfg["swarm"]
        if not isinstance(blk, dict):
            raise ConfigError("swarm block must be an object")
        _check_keys(blk, {"n_agents", "dt", "t_end", "record_stride", "n_workers"}, "swarm block")
        _get(blk, "n_agents", int, "swarm block", required=True, pred=lambda v: v >= 2)
        _get(blk, "dt", float, "swarm block", default=0.002, pred=lambda v: v > 0)
        _get(blk, "t_end", float, "swarm block", default=14.0, pred=lambda v: v > 0)
        _get(blk, "record_stride", int, "swarm block", default=50, pred=lambda v: v >= 1)
        _get(blk, "n_workers", int, "swarm block", default=1, pred=lambda v: 1 <= v <= 64)
        sim = _swarm_config(blk)
        # the recorded times that simulate.estimate_speed fits over
        times = sim.record_steps() * sim.dt
        need = simulate.MIN_SPEED_FIT_TIMES
        if np.count_nonzero(times >= times[-1] * (1.0 - _SPEED_WINDOW)) < need:
            raise ConfigError(
                f"swarm block records fewer than {need} times in the trailing "
                f"{_SPEED_WINDOW:g} of t_end; lower dt or record_stride"
            )


def _wave_solution(m, beta, gamma):
    with np.errstate(over="ignore", under="ignore"):
        if m == 1:
            return closedform.gumbel_wave(beta, gamma)
        return closedform.whittaker_wave(beta, gamma)


def _swarm_config(blk, seed=0):
    try:
        return SimConfig(
            dt=float(blk.get("dt", 0.002)),
            t_end=float(blk.get("t_end", 14.0)),
            n_paths=1,
            seed=seed,
            record_stride=int(blk.get("record_stride", 50)),
            n_workers=int(blk.get("n_workers", 1)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid swarm block: {exc}") from exc


def _run_wave(cfg, out_dir, seed, report):
    gamma = float(cfg["gamma"])
    betas = [float(b) for b in cfg["beta_values"]]
    xi = np.linspace(float(cfg["xi_lo"]), float(cfg["xi_hi"]), int(cfg["n_xi"]))
    single_beta = len(betas) == 1
    speeds = {}
    for m in cfg["m_values"]:
        for b in betas:
            sol = _wave_solution(m, b, gamma)
            speeds[(m, b)] = sol
            dens = sol.profile(xi)
            report.write_csv(
                Path(out_dir) / f"wave_m{m}_beta{b:g}.csv", ["xi", "density"], [xi, dens]
            )
            mass = simpson(dens, xi)
            mean = simpson(xi * dens, xi)
            tag = f"_beta{b:g}"
            report.metric(f"C{m}{tag}", sol.speed)
            report.metric(f"mass_m{m}{tag}", mass)
            report.metric(f"mean_m{m}{tag}", mean)
            if single_beta:
                report.metric(f"C{m}", sol.speed)
            report.flag(f"mass_m{m}{tag}_within_1e-6", abs(mass - 1.0) <= 1e-6)
            report.flag(f"mean_m{m}{tag}_within_1e-5", abs(mean) <= 1e-5)
    for b in betas:
        if 2 in cfg["m_values"]:
            # the speed ratio is always reported when the m=2 wave runs,
            # computing the m=1 speed from its closed form if need be
            c1 = speeds[(1, b)].speed if (1, b) in speeds else closedform.gumbel_wave(b, gamma).speed
            ratio = speeds[(2, b)].speed / c1
            report.metric(f"C2_over_C1_beta{b:g}", ratio)
            if single_beta:
                report.metric("C2_over_C1", ratio)
            report.flag(f"speed_ratio_beta{b:g}_gt_2", ratio > 2.0)
    if "swarm" in cfg:
        blk = cfg["swarm"]
        sim = _swarm_config(blk, seed)
        for m in cfg["m_values"]:
            for b in betas:
                series = simulate.simulate_swarm(int(blk["n_agents"]), m, gamma, b, sim)
                report.count_swarm(sim, series)
                fitted = simulate.estimate_speed(series, _SPEED_WINDOW)
                sol = speeds[(m, b)]
                rel = abs(fitted / sol.speed - 1.0)
                centered = series.centered_tail_positions(0.25)
                gx, gc = sol.cdf_grid()
                ks = simulate.ks_distance(centered, interp_cdf(gx, gc))
                tag = f"_m{m}_beta{b:g}"
                report.metric(f"fitted_speed{tag}", fitted)
                report.metric(f"speed_rel_err{tag}", rel)
                report.metric(f"ks_centered{tag}", ks)
                report.flag(f"speed{tag}_within_5pct", rel < 0.05)
                report.flag(f"ks_centered{tag}_below_0.05", ks < 0.05)
                report.write_csv(
                    Path(out_dir) / f"swarm_barycenter_m{m}_beta{b:g}.csv",
                    ["t", "barycenter"],
                    [series.times, series.barycenter],
                )


# ---------------------------------------------------------------------------
# verify-master


_DRIFT_KINDS = {"zero", "constant", "linear_restoring", "tanh"}


def _drift_from_config(blk, where):
    if not isinstance(blk, dict):
        raise ConfigError(f"{where} must be an object")
    kind = blk.get("kind")
    if kind not in _DRIFT_KINDS:
        raise ConfigError(f"{where}.kind must be one of {sorted(_DRIFT_KINDS)}")
    if kind == "zero":
        _check_keys(blk, {"kind"}, where)
        return ZeroDrift()
    if kind == "constant":
        _check_keys(blk, {"kind", "k"}, where)
        return ConstantDrift(_get(blk, "k", float, where, required=True))
    if kind == "linear_restoring":
        _check_keys(blk, {"kind", "alpha"}, where)
        return LinearRestoring(_get(blk, "alpha", float, where, required=True, pred=lambda v: v > 0))
    _check_keys(blk, {"kind", "beta"}, where)
    return TanhRepulsive(_get(blk, "beta", float, where, required=True, pred=lambda v: v > 0))


def _validate_verify_master(cfg):
    _require_schema(cfg)
    _check_keys(
        cfg,
        {"schema_version", "m_values", "grid_sizes", "gamma", "lambda", "x_lo",
         "x_hi", "drift", "sigma", "n_test_densities", "seed"},
        "verify-master config",
    )
    m_values = cfg.get("m_values")
    if not isinstance(m_values, list) or not m_values or any(
        not isinstance(m, int) or m < 1 or m > 4 for m in m_values
    ):
        raise ConfigError("m_values must be a non-empty list of integers in 1..4")
    sizes = cfg.get("grid_sizes")
    if not isinstance(sizes, list) or any(not isinstance(n, int) or n < 65 for n in sizes):
        raise ConfigError("grid_sizes must be a list of integers >= 65")
    if len(sizes) < 4:
        raise ConfigError("need at least 4 grid refinements to fit a convergence order")
    _get(cfg, "gamma", float, "verify-master config", required=True, pred=lambda v: v > 0)
    _get(cfg, "lambda", float, "verify-master config", required=True, pred=lambda v: v >= 0)
    _get(cfg, "x_lo", float, "verify-master config", required=True)
    _get(cfg, "x_hi", float, "verify-master config", required=True)
    if not cfg["x_lo"] < cfg["x_hi"]:
        raise ConfigError("x_lo must be below x_hi")
    _drift_from_config(cfg.get("drift", {"kind": "zero"}), "drift")
    _get(cfg, "sigma", float, "verify-master config", default=0.0, pred=lambda v: v >= 0)
    _get(cfg, "n_test_densities", int, "verify-master config", default=3, pred=lambda v: v >= 1)


def _random_bumps(rng, x, x_lo, x_hi):
    """Random mixture of Gaussian bumps supported well inside the grid."""
    span = x_hi - x_lo
    dens = np.zeros_like(x)
    for _ in range(3):
        c = x_lo + span * (0.38 + 0.24 * rng.random())
        w = span * (0.014 + 0.011 * rng.random())
        a = 0.5 + rng.random()
        dens += a * np.exp(-((x - c) ** 2) / (2 * w**2))
    return dens


def _run_verify_master(cfg, out_dir, seed, report):
    gamma = float(cfg["gamma"])
    lam = float(cfg["lambda"])
    drift = _drift_from_config(cfg.get("drift", {"kind": "zero"}), "drift")
    sigma = float(cfg.get("sigma", 0.0))
    diffusion = ConstantDiffusion(sigma) if sigma > 0 else ZeroDiffusion()
    x_lo, x_hi = float(cfg["x_lo"]), float(cfg["x_hi"])
    sizes = sorted(cfg["grid_sizes"])
    n_dens = int(cfg.get("n_test_densities", 3))
    rows = []
    for m in cfg["m_values"]:
        model = ModelSpec(drift, diffusion, ConstantRate(lam), ErlangJumpLaw(m, gamma))
        # m-fold stencil composition amplifies rounding like h^{-m}; coarsen
        # the ladder with m so truncation stays the dominant signal
        divisor = {1: 1, 2: 1, 3: 2, 4: 4}[m]
        m_sizes = [max(65, (n - 1) // divisor + 1) for n in sizes]
        gaps = []
        for n in m_sizes:
            spec = GridSpec(x_lo, x_hi, n)
            x = spec.nodes()
            gap = 0.0
            dens_rng = np.random.default_rng(seed + 1000 * m)
            for _ in range(n_dens):
                P = GridFunction(spec, _random_bumps(dens_rng, x, x_lo, x_hi))
                gap = max(gap, master.generator_gap(P, model))
            gaps.append(gap)
        hs = [(x_hi - x_lo) / (n - 1) for n in m_sizes]
        order = master.fit_convergence_order(hs, gaps)
        report.metric(f"order_m{m}", order)
        report.flag(f"order_m{m}_ge_1.7", order >= 1.7)
        for h, g in zip(hs, gaps):
            rows.append((m, h, g))
    # m=1 zero-drift reduction: the differential route must equal the plain
    # divergence of the rate term to rounding
    spec = GridSpec(x_lo, x_hi, sizes[-1])
    x = spec.nodes()
    P = GridFunction(spec, _random_bumps(np.random.default_rng(seed), x, x_lo, x_hi))
    model1 = ModelSpec(ZeroDrift(), ZeroDiffusion(), ConstantRate(lam), ErlangJumpLaw(1, gamma))
    lhs = master.differential_generator(P, model1).values
    lamP = lam * P.values
    direct = np.zeros_like(lamP)
    direct[2:-2] = -(-lamP[4:] + 8 * lamP[3:-1] - 8 * lamP[1:-3] + lamP[:-4]) / (12 * spec.h)
    k = master.interior_margin(1)
    gap1 = float(np.max(np.abs(lhs[k:-k] - direct[k:-k])))
    scale = max(1.0, float(np.max(np.abs(direct))))
    report.metric("m1_direct_form_gap", gap1)
    report.flag("m1_direct_form_matches", gap1 <= 1e-12 * scale)
    report.write_csv(
        Path(out_dir) / "generator_gaps.csv",
        ["m", "h", "max_gap"],
        [np.array([r[0] for r in rows], dtype=float),
         np.array([r[1] for r in rows]),
         np.array([r[2] for r in rows])],
    )


# ---------------------------------------------------------------------------
# stationary


def _validate_stationary(cfg):
    _require_schema(cfg)
    _check_keys(
        cfg,
        {"schema_version", "m", "alpha", "lambda", "gamma", "grid", "sim",
         "n_bins", "seed"},
        "stationary config",
    )
    m = _get(cfg, "m", int, "stationary config", required=True)
    if m not in (1, 2):
        raise ConfigError("m must be 1 or 2 for the stationary comparison")
    _get(cfg, "alpha", float, "stationary config", required=True, pred=lambda v: v > 0)
    lam = _get(cfg, "lambda", float, "stationary config", required=True, pred=lambda v: v >= 0)
    if lam == 0:
        raise ConfigError(
            "lambda = 0 is degenerate: with pure decay the stationary mass collapses at 0"
        )
    _get(cfg, "gamma", float, "stationary config", required=True, pred=lambda v: v > 0)
    grid = cfg.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("grid block is required")
    _check_keys(grid, {"x_lo", "x_hi", "n"}, "grid block")
    _get(grid, "x_lo", float, "grid block", required=True, pred=lambda v: v > 0)
    _get(grid, "x_hi", float, "grid block", required=True)
    if not grid["x_lo"] < grid["x_hi"]:
        raise ConfigError("grid.x_lo must be below grid.x_hi")
    _get(grid, "n", int, "grid block", required=True, pred=lambda v: v >= 9)
    if "sim" not in cfg:
        raise ConfigError("sim block is required")
    _sim_config(cfg["sim"], "sim block")
    _get(cfg, "n_bins", int, "stationary config", default=80, pred=lambda v: v >= 5)


def _stationary_residual_metric(m, alpha, lam, gamma, x_hi, model):
    """Differential-form residual of the analytic law on its own grid.

    The density decays only like x^{lam/alpha - 1} toward the origin, so
    the left edge is probed down until the boundary value clears the decay
    gate of the residual machinery.
    """
    density = closedform.stationary_ou_m1 if m == 1 else closedform.stationary_ou_m2
    x_lo = 1e-4
    while x_lo > 1e-300 and density(alpha, lam, gamma, x_lo) > 1e-13:
        x_lo *= 1e-2
    while density(alpha, lam, gamma, x_hi) > 1e-13:
        x_hi += 10.0 / gamma
    spec = GridSpec(x_lo, x_hi, 4001)
    gf = GridFunction(spec, density(alpha, lam, gamma, spec.nodes()))
    return master.stationary_residual(gf, model)


def _run_stationary(cfg, out_dir, seed, report):
    m = int(cfg["m"])
    alpha, lam, gamma = float(cfg["alpha"]), float(cfg["lambda"]), float(cfg["gamma"])
    grid = GridSpec(float(cfg["grid"]["x_lo"]), float(cfg["grid"]["x_hi"]), int(cfg["grid"]["n"]))
    sim = _sim_config(cfg["sim"], "sim block", seed)
    x = grid.nodes()
    if m == 1:
        dens = closedform.stationary_m1(
            lambda s: alpha * s, lambda s: np.full_like(np.asarray(s, float), lam), gamma, grid
        ).values
    else:
        dens = closedform.stationary_ou_m2(alpha, lam, gamma, x)
    report.write_csv(Path(out_dir) / "analytic_density.csv", ["x", "density"], [x, dens])

    # sigma = 0 and linear drift: the state at t_end is drawn exactly from
    # the explicit shot-noise solution; sim.dt does not enter
    sample = simulate.sample_linear_shot_noise_exact(
        alpha, lam, gamma, m, 0.0, sim.t_end, sim.n_paths, seed
    )
    report.count_exact(sample)
    final = sample.values
    hist = simulate.empirical_density(final, int(cfg.get("n_bins", 80)))
    report.write_csv(
        Path(out_dir) / "mc_histogram.csv",
        ["bin_lo", "bin_hi", "mass"],
        [hist.bin_edges[:-1], hist.bin_edges[1:], hist.masses],
    )

    fine = np.linspace(grid.x_lo, grid.x_hi, 8001)
    fine_dens = (
        np.interp(fine, x, dens)
        if m == 1
        else closedform.stationary_ou_m2(alpha, lam, gamma, fine)
    )
    cum = cumulative_trapezoid(fine_dens, fine)
    cum /= cum[-1]
    ks = simulate.ks_distance(final, interp_cdf(fine, cum))
    mc_mean = float(final.mean())
    se = float(final.std(ddof=1) / np.sqrt(len(final)))
    analytic_mean = closedform.cumulant(1, m, gamma, lam, lambda s: alpha * s)
    model = ModelSpec(
        LinearRestoring(alpha), ZeroDiffusion(), ConstantRate(lam), ErlangJumpLaw(m, gamma)
    )
    resid = _stationary_residual_metric(m, alpha, lam, gamma, grid.x_hi, model)
    report.metric("ks", ks)
    report.metric("mc_mean", mc_mean)
    report.metric("analytic_mean", analytic_mean)
    report.metric("mean_abs_diff", abs(mc_mean - analytic_mean))
    report.metric("mean_4se", 4 * se)
    report.metric("stationary_residual", resid)
    report.flag("ks_below_0.02", ks < 0.02)
    report.flag("mean_within_4se", abs(mc_mean - analytic_mean) <= 4 * se)


# ---------------------------------------------------------------------------
# transient


# bound on lambda * t_max, the expected jumps of one exact transient path: a
# chunk of 4096 paths holds about 4096 times as many jumps in memory at once
_MAX_SAMPLE_JUMPS = 1000.0


def _transient_z_max(alpha, lam, gamma):
    """Width of the grid past the atom that the transient law is tabulated on."""
    return 40.0 / gamma + 20.0 * lam / (alpha * gamma)


def _validate_transient(cfg):
    _require_schema(cfg)
    _check_keys(
        cfg,
        {"schema_version", "alpha", "lambda", "gamma", "x0", "times",
         "u_values", "t_u", "n_samples", "seed"},
        "transient config",
    )
    for key in ("alpha", "lambda", "gamma"):
        _get(cfg, key, float, "transient config", required=True, pred=lambda v: v > 0)
    _get(cfg, "x0", float, "transient config", default=0.0, pred=lambda v: v >= 0)
    times = cfg.get("times")
    if not isinstance(times, list) or not times:
        raise ConfigError("times must be a non-empty list")
    for t in times:
        if not isinstance(t, (int, float)) or isinstance(t, bool) or not 0 < t < np.inf:
            raise ConfigError(
                "all comparison times must be positive and finite (t = 0 is the pure atom)"
            )
    u_values = cfg.get("u_values", [1.0])
    if not isinstance(u_values, list) or any(
        not isinstance(u, (int, float)) or isinstance(u, bool) or u < 0 for u in u_values
    ):
        raise ConfigError("u_values must be a list of nonnegative reals")
    _get(cfg, "t_u", float, "transient config", default=1.0, pred=lambda v: 0 < v < np.inf)
    _get(cfg, "n_samples", int, "transient config", default=100000, pred=lambda v: v >= 100)
    # each exact path draws Poisson(lambda * t_max) jumps, 4096 paths at a time
    t_max = max(max(times), cfg.get("t_u", 1.0))
    if not cfg["lambda"] * t_max <= _MAX_SAMPLE_JUMPS:
        raise ConfigError(
            f"lambda * largest time = {cfg['lambda'] * t_max:g} expected jumps per "
            f"exact path exceeds {_MAX_SAMPLE_JUMPS}"
        )
    # the law must evaluate to finite values over the range the run
    # tabulates and integrates, at every comparison time; as numpy scalars,
    # parameters whose ratios overflow give inf instead of raising
    alpha, lam, gamma = (np.float64(cfg[key]) for key in ("alpha", "lambda", "gamma"))
    with np.errstate(all="ignore"):
        try:
            law = closedform.TransientLaw(alpha, lam, gamma, float(cfg.get("x0", 0.0)))
        except ValueError as exc:
            raise ConfigError(f"transient law: {exc}") from exc
        z_hi = max(_transient_z_max(alpha, lam, gamma), law.mass_z_max())
        if not np.isfinite(z_hi):
            raise ConfigError("lambda / (alpha * gamma) overflows the transient grid")
        probe = np.linspace(0.0, z_hi, 33)
        for t in sorted(set(times)):
            what = f"the transient law at t = {t:g}"
            try:
                dens = law.continuous_density(law.atom_location(t) + probe, t)
            except (OverflowError, ValueError) as exc:
                raise ConfigError(f"{what} cannot be evaluated: {exc}") from exc
            if not np.all(np.isfinite(dens)):
                raise ConfigError(f"{what} does not evaluate to finite values")


def _run_transient(cfg, out_dir, seed, report):
    alpha, lam, gamma = float(cfg["alpha"]), float(cfg["lambda"]), float(cfg["gamma"])
    x0 = float(cfg.get("x0", 0.0))
    n = int(cfg.get("n_samples", 100000))
    law = closedform.TransientLaw(alpha, lam, gamma, x0)
    z_max = _transient_z_max(alpha, lam, gamma)
    times = [float(t) for t in cfg["times"]]
    t_u = float(cfg.get("t_u", 1.0))
    # one pathwise sample, read at every comparison time and at t_u
    grid = sorted(set(times) | {t_u})
    sample = simulate.sample_linear_shot_noise_exact(
        alpha, lam, gamma, 1, x0, grid, n, _derived_seed(seed, 1)
    )
    report.count_exact(sample)
    at = {t: sample.values[i] for i, t in enumerate(grid)}
    for i, t in enumerate(times, start=1):
        mass = law.total_mass(t)
        xs, dens, cdf = law.density_cdf_grid(t, z_max)
        ks = simulate.ks_distance(at[t], interp_cdf(xs, np.minimum(cdf, 1.0)))
        report.write_csv(Path(out_dir) / f"density_t{i}.csv", ["x", "density"], [xs, dens])
        report.metric(f"mass_t{i}", mass)
        report.metric(f"ks_t{i}", ks)
        report.metric(f"atom_weight_t{i}", law.atom_weight(t))
        report.metric(f"atom_location_t{i}", law.atom_location(t))
        report.flag(f"mass_t{i}_within_1e-4", abs(mass - 1.0) <= 1e-4)
        report.flag(f"ks_t{i}_below_0.02", ks < 0.02)
    samples = at[t_u]
    for j, u in enumerate(cfg.get("u_values", [1.0]), start=1):
        u = float(u)
        emp = np.exp(-u * samples)
        mc = float(emp.mean())
        se = float(emp.std(ddof=1) / np.sqrt(len(emp)))
        analytic = closedform.laplace_transform_linear(u, t_u, 1, alpha, lam, gamma, x0)
        report.metric(f"laplace_mc_u{j}", mc)
        report.metric(f"laplace_analytic_u{j}", analytic)
        report.metric(f"laplace_4se_u{j}", 4 * se)
        report.flag(f"laplace_u{j}_within_4se", abs(mc - analytic) <= 4 * se)


# ---------------------------------------------------------------------------
# tanh


def _validate_tanh(cfg):
    _require_schema(cfg)
    _check_keys(
        cfg,
        {"schema_version", "alpha", "lambda", "gamma", "beta", "t", "sim",
         "stationary_sim", "seed"},
        "tanh config",
    )
    for key in ("alpha", "lambda", "gamma", "beta"):
        _get(cfg, key, float, "tanh config", required=True, pred=lambda v: v > 0)
    if cfg["beta"] >= cfg["gamma"]:
        raise ConfigError("tilted jumps require beta < gamma (integrability)")
    _get(cfg, "t", float, "tanh config", required=True, pred=lambda v: v > 0)
    if "sim" not in cfg:
        raise ConfigError("sim block is required")
    if cfg["t"] != _sim_config(cfg["sim"], "sim block").t_end:
        raise ConfigError("t must equal sim.t_end: the law is checked at the simulated horizon")
    if "stationary_sim" in cfg:
        _sim_config(cfg["stationary_sim"], "stationary_sim block")


def _run_tanh(cfg, out_dir, seed, report):
    alpha, lam = float(cfg["alpha"]), float(cfg["lambda"])
    gamma, beta, t = float(cfg["gamma"]), float(cfg["beta"]), float(cfg["t"])
    sim = _sim_config(cfg["sim"], "sim block", seed)
    law = closedform.TanhTransientLaw(lam, gamma, beta)
    mass = law.mass(t)
    xs, cdf = law.cdf_grid(t)
    report.write_csv(
        Path(out_dir) / "tanh_transient_density.csv", ["x", "density"], law.density_grid(t)
    )
    batch = simulate.simulate_tanh(lam, gamma, beta, sim)
    report.count_paths(sim, batch)
    ks = simulate.ks_distance(batch.final_positions, interp_cdf(xs, cdf))
    report.metric("transient_mass", mass)
    report.metric("transient_ks", ks)
    report.flag("transient_mass_within_1e-4", abs(mass - 1.0) <= 1e-4)
    report.flag("transient_ks_below_0.02", ks < 0.02)

    if "stationary_sim" in cfg:
        ssim = _sim_config(cfg["stationary_sim"], "stationary_sim block", _derived_seed(seed, 1))
        olaw = closedform.TiltedOuLaw(alpha, lam, gamma, beta)
        ys, ycdf = olaw.cdf_grid()
        report.write_csv(
            Path(out_dir) / "ou_stationary_density.csv", ["y", "density"], olaw.density_grid()
        )
        obatch = simulate.simulate_ou_tanh(alpha, lam, gamma, beta, ssim)
        report.count_paths(ssim, obatch)
        sks = simulate.ks_distance(obatch.final_positions, interp_cdf(ys, ycdf))
        report.metric("stationary_ks", sks)
        report.flag("stationary_ks_below_0.03", sks < 0.03)
        # informational: distance to the bare Bessel-K mixture (jump part only)
        jd = olaw.jump_component_density(ys)
        jd = np.where(np.isfinite(jd), jd, 0.0)
        jcdf = cumulative_trapezoid(jd, ys)
        jcdf /= jcdf[-1]
        report.metric(
            "stationary_ks_jump_only",
            simulate.ks_distance(obatch.final_positions, interp_cdf(ys, jcdf)),
        )


# ---------------------------------------------------------------------------
# verify-specfun


def _validate_verify_specfun(cfg):
    _require_schema(cfg)
    _check_keys(cfg, {"schema_version", "n_samples", "seed"}, "verify-specfun config")
    _get(cfg, "n_samples", int, "verify-specfun config", default=120, pred=lambda v: v >= 100)


# parameter tuples per oracle call, so memory does not grow with n_samples
_SPECFUN_BATCH = 4096


def _run_verify_specfun(cfg, out_dir, seed, report):
    n = int(cfg.get("n_samples", 120))
    rng = np.random.default_rng(seed)

    def sweep(name, tol, sampler, impl, ref, relative=False, ulp_floor=False):
        # all n tuples are drawn first, in the order of the one-at-a-time
        # loop; ref takes parameter arrays and evaluates a batch per call
        draws = [sampler(rng) for _ in range(n)]
        got = np.array([impl(*args) for args in draws], dtype=float)
        cols = [np.array(c) for c in zip(*draws)]
        want = np.concatenate([
            np.atleast_1d(ref(*(c[i : i + _SPECFUN_BATCH] for c in cols)))
            for i in range(0, n, _SPECFUN_BATCH)
        ])
        err = np.abs(got - want)
        if relative:
            err /= np.maximum(np.abs(want), 1e-300)
        # absolute tolerances bottom out at a few ulps of the value
        bound = np.maximum(tol, 8.0 * np.finfo(float).eps * np.abs(want)) if ulp_floor else tol
        report.metric(f"max_err_{name}", err.max())
        report.flag(f"{name}_within_tol", np.all(err <= bound))

    def elementwise(fn):
        return np.vectorize(fn, otypes=[float])

    sweep(
        "log_gamma", 1e-12,
        lambda r: (10 ** r.uniform(-3, 3),),
        specfun.log_gamma, elementwise(oracles.log_gamma_ref), ulp_floor=True,
    )
    sweep(
        "digamma", 1e-10,
        lambda r: (10 ** r.uniform(-2, 3),),
        specfun.digamma, elementwise(oracles.digamma_ref),
    )
    sweep(
        "bessel_i", 1e-10,
        lambda r: (r.uniform(0, 5), r.uniform(0, 50)),
        specfun.bessel_i, elementwise(oracles.bessel_i_ref), relative=True,
    )
    sweep(
        "bessel_k", 1e-9,
        lambda r: (r.uniform(-3, 3), 10 ** r.uniform(-3, np.log10(50))),
        specfun.bessel_k, oracles.bessel_k_ref, relative=True,
    )
    sweep(
        "erlang_survival", 1e-12,
        lambda r: (int(r.integers(1, 6)), r.uniform(0.2, 4.0), r.uniform(0.0, 10.0)),
        specfun.erlang_survival, oracles.erlang_survival_ref,
    )
    sweep(
        "kummer_u", 1e-8,
        lambda r: (r.uniform(0.2, 4.0), r.uniform(0.5, 3.0), 10 ** r.uniform(-1.3, np.log10(50))),
        specfun.kummer_u, oracles.kummer_u_ref, relative=True,
    )
    sweep(
        "whittaker_w0", 1e-8,
        lambda r: (r.uniform(-3.0, 0.3), 10 ** r.uniform(-1.0, 1.5)),
        specfun.whittaker_w0, oracles.whittaker_w0_ref, relative=True,
    )
    sweep(
        "kummer_1f1", 1e-10,
        lambda r: (-float(r.integers(0, 9)), r.uniform(0.5, 4.0), r.uniform(-30.0, 30.0)),
        specfun.kummer_1f1,
        elementwise(lambda a, b, z: oracles.kummer_1f1_poly_ref(int(-a), b, z)),
    )


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "wave": (_validate_wave, _run_wave),
    "verify-master": (_validate_verify_master, _run_verify_master),
    "stationary": (_validate_stationary, _run_stationary),
    "transient": (_validate_transient, _run_transient),
    "tanh": (_validate_tanh, _run_tanh),
    "verify-specfun": (_validate_verify_specfun, _run_verify_specfun),
}


def run_command(command, config_path, out_dir, seed_override=None, quiet=False):
    """Validate and execute one subcommand; returns the process exit code."""
    validate, run = _COMMANDS[command]
    start = time.perf_counter()
    try:
        cfg = _load_config(config_path)
        validate(cfg)
        seed = _check_seed(cfg.get("seed", 0), "config seed")
        if seed_override is not None:
            seed = _check_seed(seed_override, "--seed")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    validated = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = dict(cfg)
    echo["seed"] = seed
    (out / "config_echo.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
    report = RunReport(command, echo, seed)
    echoed = time.perf_counter()
    try:
        run(cfg, out, seed, report)
    except simulate.ThinningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timings = report.timings
    timings["validate"] = validated - start
    # the run's CSV writes are already counted under "write"
    timings["run"] = time.perf_counter() - echoed - timings["write"]
    timings["write"] += echoed - validated
    report.write(out)
    if not quiet:
        for name, value in sorted(report.metrics.items()):
            print(f"{name} = {value:.10g}")
        for name, ok in sorted(report.flags.items()):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if report.passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="erlangshot",
        description="Shot-noise verification experiments (JSON-configured, CSV/JSON outputs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    return run_command(args.command, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
