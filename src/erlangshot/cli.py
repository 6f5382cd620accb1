"""Reproducible experiment runner.

Each subcommand loads a JSON config and parses it once against the
command's table of fields.  A field has a kind (a finite real, an integer,
a non-empty list of either, a nested block, or the tagged ``drift`` block),
a default unless it is required, and a range; unknown keys are errors.
Simulation blocks parse to a ``SimConfig``, and a short check per command
covers the rules that span several fields.  The run reads only the parsed,
immutable record; it then writes an output directory containing the echoed
config, a ``report.json`` with named metrics and pass/fail flags, and CSV
artifacts.  Exit codes: 0 when every tolerance was met, 1 when the run
executed but a tolerance failed, 2 for an invalid configuration (nothing
is written).

Invocation:
    erlangshot <subcommand> --config cfg.json --out outdir [--seed N]
with subcommand one of wave, verify-master, stationary, transient, tanh,
verify-specfun.  Reals in CSVs carry 17 significant digits so re-running
with the same config and seed reproduces byte-identical CSV bodies.  The
CSV writer is vectorised (``csvformat.format_rows``) yet byte-identical to
``format(v, ".17g")`` for every float64, and it formats and writes a block
of rows at a time, so its memory is bounded whatever the row count.
"""

from __future__ import annotations

import argparse
import json
import keyword
import math
import os
import platform
import sys
import time
from collections import Counter, namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import closedform, master, oracles, simulate, specfun
from .csvformat import format_rows
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
# config tables


_REQUIRED = object()

# One config key.  Its kind is float (a finite real; integers are accepted),
# int (booleans are not), a one-element list [kind] (a non-empty list of that
# kind), a _Table (a nested block), or a dict from tag to _Table (a block whose
# "kind" key picks its table).  check is (predicate, text), applied to each
# list element.
_Field = namedtuple("_Field", "name kind default check", defaults=(_REQUIRED, None))

# The fields of one block and what their values build, passed as one keyword
# per field (a Python keyword such as lambda gains a trailing underscore).
_Table = namedtuple("_Table", "fields build")


_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "nonnegative")


def _at_least(lo):
    return (lambda v: v >= lo, f">= {lo}")


def _one_of(*allowed):
    return (lambda v: v in allowed, f"one of {list(allowed)}")


# the shot-noise rates: drift decay alpha, jump rate lambda, Erlang rate gamma
_RATES = tuple(_Field(name, float, check=_POSITIVE) for name in ("alpha", "lambda", "gamma"))
_SEED = _Field("seed", int, 0, (lambda v: 0 <= v < 2**64, "in [0, 2**64)"))
_SCHEMA = _Field("schema_version", int, check=_one_of(SCHEMA_VERSION))


def _record(name, *fields, derived=()):
    """Table of a command's top-level config, parsed to a namedtuple; the
    ``derived`` attributes are None after parsing and set by the command's
    check from the values it computes anyway."""
    fields = (_SCHEMA, *fields, _SEED)
    attrs = [_attr(f.name) for f in fields] + list(derived)
    return _Table(fields, namedtuple(name, attrs, defaults=(None,) * len(derived)))


def _attr(key):
    return key + "_" if keyword.iskeyword(key) else key


# schema 1 keeps the n_workers key, range-checked, though no run reads it
_WORKERS = _Field("n_workers", int, 1, (lambda v: 1 <= v <= 64, "in 1..64"))

# SimConfig checks the ranges of the other fields itself
_SIM = _Table((
    _Field("dt", float),
    _Field("t_end", float),
    _Field("n_paths", int),
    _Field("record_stride", int, 1),
    _WORKERS,
), lambda n_workers, **sim: SimConfig(**sim))

_DRIFT = {
    "zero": _Table((), ZeroDrift),
    "constant": _Table((_Field("k", float),), ConstantDrift),
    "linear_restoring": _Table((_Field("alpha", float),), LinearRestoring),
    "tanh": _Table((_Field("beta", float),), TanhRepulsive),
}


def _parse(table, block, where):
    """Parse one block against its table; any violation is a ConfigError."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - {f.name for f in table.fields}
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    values = {}
    for f in table.fields:
        if f.name in block:
            values[_attr(f.name)] = _value(f, block[f.name], f"{where}.{f.name}")
        elif f.default is _REQUIRED:
            raise ConfigError(f"missing required key '{f.name}' in {where}")
        else:
            values[_attr(f.name)] = f.default
    try:
        return table.build(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _value(field, val, where):
    """One field's value parsed against its kind and range."""
    kind = field.kind
    if isinstance(kind, list):
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{where} must be a non-empty list")
        item = field._replace(kind=kind[0])
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(val))
    if isinstance(kind, _Table):
        return _parse(kind, val, where)
    if isinstance(kind, dict):
        tag = val.get("kind") if isinstance(val, dict) else None
        if not isinstance(tag, str) or tag not in kind:
            raise ConfigError(f"{where}.kind must be one of {sorted(kind)}")
        return _parse(kind[tag], {k: v for k, v in val.items() if k != "kind"}, where)
    if kind is int:
        ok, what = type(val) is int, "an integer"
    else:
        # exact comparison: NaN, infinities and integers past the float range fail
        ok, what = type(val) in (int, float) and abs(val) <= sys.float_info.max, "a finite real"
    if not ok:
        raise ConfigError(f"{where} must be {what}")
    val = kind(val)
    if field.check is not None and not field.check[0](val):
        raise ConfigError(f"{where} must be {field.check[1]}")
    return val


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _check_spacing(lo, hi, n, what):
    """The spacing of an n-point grid on [lo, hi], which must be finite and
    positive: a span past the float range, or a spacing that underflows,
    leaves no grid to evaluate on."""
    h = (hi - lo) / (n - 1)
    if not 0 < h < math.inf:
        raise ConfigError(f"{what} spacing ({hi:g} - {lo:g}) / {n - 1} = {h:g} "
                          "must be finite and positive")
    return h


def _derived_seed(seed, offset):
    """Seed of a secondary Monte Carlo run; wraps so every accepted seed runs."""
    return (seed + offset) % 2**64


# rows formatted and written at a time by write_csv
_CSV_BLOCK_ROWS = 4096


def write_csv(path, header, columns):
    """Write equal-length columns as CSV, every value as a float with 17
    significant digits: the bytes of ``format(float(v), ".17g")``, from the
    vectorised ``csvformat.format_rows``.  Rows are converted and written
    ``_CSV_BLOCK_ROWS`` at a time, so memory does not grow with the table."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if any(c.shape != (n,) for c in cols):
        raise ValueError("CSV columns must be one-dimensional and of equal length")
    block = np.empty((min(n, _CSV_BLOCK_ROWS), len(cols)))
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, n, _CSV_BLOCK_ROWS):
            rows = block[: min(n - start, _CSV_BLOCK_ROWS)]
            for j, c in enumerate(cols):
                rows[:, j] = c[start : start + len(rows)]
            f.write(format_rows(rows))


def _environment():
    """Interpreter and library versions and usable CPUs of this process."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
    }


class RunReport:
    """Named metrics, pass/fail flags, and provenance for one run.

    ``timings`` holds the seconds spent validating the config, running the
    experiment, and writing output files (the config echo and every CSV;
    CSVs written during the run count under ``write``, not ``run``)."""

    def __init__(self, command, parameters, seed, out_dir):
        self.command = command
        self.parameters = parameters
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.metrics = {}
        self.flags = {}
        self.counters = Counter()
        self.timings = {"validate": 0.0, "run": 0.0, "write": 0.0}
        self._t0 = time.perf_counter()

    def write_csv(self, name, header, columns):
        """Write the CSV artifact ``name`` in the output directory, timed
        under ``write``."""
        start = time.perf_counter()
        write_csv(self.out_dir / name, header, columns)
        self.timings["write"] += time.perf_counter() - start

    def metric(self, name, value):
        self.metrics[name] = float(value)

    def count_exact(self, sample):
        """Add an exact sampler's counters: samples as paths, no steps, jumps."""
        self.counters.update(paths=len(sample), steps=0, jumps=int(sample.jump_counts.sum()))

    def count_swarm(self, sim, series):
        """Add a swarm run's counters: agents, agent-steps, thinning
        proposals, accepted jumps."""
        self.counters.update(
            agents=series.n_agents,
            agent_steps=series.n_agents * sim.n_steps,
            proposals=series.proposals,
            jumps=series.jumps,
        )

    def flag(self, name, ok):
        self.flags[name] = bool(ok)

    @property
    def passed(self):
        return all(self.flags.values())

    def write(self):
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
        (self.out_dir / "report.json").write_text(json.dumps(body, indent=2) + "\n")


# ---------------------------------------------------------------------------
# wave


# trailing fraction of the swarm run that the speed is fitted over
_SPEED_WINDOW = 0.5

# a swarm block is a SimConfig whose paths are the agents
_SWARM = _Table((
    _Field("n_agents", int, check=_at_least(2)),
    _Field("dt", float, 0.002),
    _Field("t_end", float, 14.0),
    _Field("record_stride", int, 50),
    _WORKERS,
), lambda n_agents, n_workers, **sim: SimConfig(n_paths=n_agents, **sim))

_WAVE = _record(
    "WaveConfig",
    _Field("m_values", [int], check=_one_of(1, 2)),
    _Field("beta_values", [float], check=_POSITIVE),
    _Field("gamma", float, check=_POSITIVE),
    _Field("xi_lo", float),
    _Field("xi_hi", float),
    _Field("n_xi", int, check=_at_least(101)),
    _Field("swarm", _SWARM, None),
)


def _check_wave(cfg):
    if not cfg.xi_lo < cfg.xi_hi:
        raise ConfigError("xi_lo must be below xi_hi")
    _check_spacing(cfg.xi_lo, cfg.xi_hi, cfg.n_xi, "xi grid")
    for m in cfg.m_values:
        for b in cfg.beta_values:
            sol = _wave_solution(m, b, cfg.gamma)
            if not all(np.isfinite(v) and v > 0 for v in (sol.speed, sol.norm)):
                raise ConfigError(
                    f"the m={m}, beta={b:g} wave has no finite positive speed and norm "
                    f"at gamma={cfg.gamma:g}"
                )
    if cfg.swarm is not None:
        # the recorded times that simulate.estimate_speed fits over
        times = cfg.swarm.record_steps() * cfg.swarm.dt
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


def _run_wave(cfg, seed, report):
    gamma, betas = cfg.gamma, cfg.beta_values
    xi = np.linspace(cfg.xi_lo, cfg.xi_hi, cfg.n_xi)
    single_beta = len(betas) == 1
    speeds = {}
    for m in cfg.m_values:
        for b in betas:
            sol = _wave_solution(m, b, gamma)
            speeds[(m, b)] = sol
            dens = sol.profile(xi)
            report.write_csv(f"wave_m{m}_beta{b:g}.csv", ["xi", "density"], [xi, dens])
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
        if 2 in cfg.m_values:
            # the speed ratio is always reported when the m=2 wave runs,
            # computing the m=1 speed from its closed form if need be
            c1 = speeds[(1, b)].speed if (1, b) in speeds else closedform.gumbel_wave(b, gamma).speed
            ratio = speeds[(2, b)].speed / c1
            report.metric(f"C2_over_C1_beta{b:g}", ratio)
            if single_beta:
                report.metric("C2_over_C1", ratio)
            report.flag(f"speed_ratio_beta{b:g}_gt_2", ratio > 2.0)
    if cfg.swarm is not None:
        sim = replace(cfg.swarm, seed=seed)
        for m in cfg.m_values:
            for b in betas:
                series = simulate.simulate_swarm(sim.n_paths, m, gamma, b, sim)
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
                report.write_csv(f"swarm_barycenter_m{m}_beta{b:g}.csv", ["t", "barycenter"],
                                 [series.times, series.barycenter])


# ---------------------------------------------------------------------------
# verify-master


_VERIFY_MASTER = _record(
    "VerifyMasterConfig",
    _Field("m_values", [int], check=_one_of(1, 2, 3, 4)),
    _Field("grid_sizes", [int], check=_at_least(65)),
    _Field("gamma", float, check=_POSITIVE),
    _Field("lambda", float, check=_NONNEGATIVE),
    _Field("x_lo", float),
    _Field("x_hi", float),
    _Field("drift", _DRIFT, ZeroDrift()),
    _Field("sigma", float, 0.0, _NONNEGATIVE),
    _Field("n_test_densities", int, 3, _at_least(1)),
)


def _ladder(m, grid_sizes):
    """The ascending grid sizes run for order m.  m-fold stencil composition
    amplifies rounding like h^{-m}, so the ladder is coarsened with m to keep
    truncation the dominant signal."""
    divisor = {1: 1, 2: 1, 3: 2, 4: 4}[m]
    return [max(65, (n - 1) // divisor + 1) for n in sorted(grid_sizes)]


def _check_verify_master(cfg):
    if not cfg.x_lo < cfg.x_hi:
        raise ConfigError("x_lo must be below x_hi")
    _check_spacing(cfg.x_lo, cfg.x_hi, max(cfg.grid_sizes), "x grid")
    # the test densities are Gaussian bumps whose widths are fractions of
    # the span, and their exponents square those widths
    span = cfg.x_hi - cfg.x_lo
    if not span * span < math.inf:
        raise ConfigError(f"x_hi - x_lo = {span:g} is too wide: the test densities square it")
    for m in cfg.m_values:
        if len(set(_ladder(m, cfg.grid_sizes))) < 4:
            raise ConfigError(
                f"need at least 4 distinct grid sizes to fit a convergence order; for m={m} "
                f"the sizes run are {_ladder(m, cfg.grid_sizes)}"
            )


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


def _run_verify_master(cfg, seed, report):
    gamma, lam, x_lo, x_hi = cfg.gamma, cfg.lambda_, cfg.x_lo, cfg.x_hi
    diffusion = ConstantDiffusion(cfg.sigma) if cfg.sigma > 0 else ZeroDiffusion()
    rows = []
    for m in cfg.m_values:
        model = ModelSpec(cfg.drift, diffusion, ConstantRate(lam), ErlangJumpLaw(m, gamma))
        m_sizes = _ladder(m, cfg.grid_sizes)
        gaps = []
        for n in m_sizes:
            spec = GridSpec(x_lo, x_hi, n)
            x = spec.nodes()
            gap = 0.0
            dens_rng = np.random.default_rng(seed + 1000 * m)
            for _ in range(cfg.n_test_densities):
                P = GridFunction(spec, _random_bumps(dens_rng, x, x_lo, x_hi))
                gap = max(gap, master.generator_gap(P, model))
            gaps.append(gap)
        hs = [(x_hi - x_lo) / (n - 1) for n in m_sizes]
        order = master.fit_convergence_order(hs, gaps)
        report.metric(f"order_m{m}", order)
        report.flag(f"order_m{m}_ge_1.7", order >= 1.7)
        rows += [(m, h, g) for h, g in zip(hs, gaps)]
    # m=1 zero-drift reduction: the differential route must equal the plain
    # divergence of the rate term to rounding
    spec = GridSpec(x_lo, x_hi, max(cfg.grid_sizes))
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
    report.write_csv("generator_gaps.csv", ["m", "h", "max_gap"], np.array(rows, dtype=float).T)


# ---------------------------------------------------------------------------
# stationary


_STATIONARY = _record(
    "StationaryConfig",
    _Field("m", int, check=_one_of(1, 2)),
    *_RATES,
    # GridSpec checks x_lo < x_hi and n >= 9
    _Field("grid", _Table((
        _Field("x_lo", float, check=_POSITIVE),
        _Field("x_hi", float),
        _Field("n", int),
    ), GridSpec)),
    _Field("sim", _SIM),
    _Field("n_bins", int, 80, _at_least(5)),
    # m1_density: the m = 1 law on the grid (None for m = 2)
    derived=("residual_grid", "m1_density"),
)


# boundary value of the law below which the residual grid may end there
_RESIDUAL_EDGE = 1e-13
# points of the right-edge ladder evaluated per call
_EDGE_LADDER = 32
# fewest expected jumps over the whole exact sample, n_paths lambda t_end:
# with fewer, no path may jump (at 20 that has chance e^-20) and the sample
# has no spread to histogram
_MIN_SAMPLE_JUMPS = 20.0


def _stationary_density(cfg):
    return closedform.stationary_ou_m1 if cfg.m == 1 else closedform.stationary_ou_m2


def _first_cleared(cfg, ladder):
    """The first point of ``ladder`` where the law clears ``_RESIDUAL_EDGE``,
    or None; the ladder is evaluated in one call."""
    # the law may underflow to 0 deep in a ladder; only the comparison counts
    with np.errstate(all="ignore"):
        dens = _stationary_density(cfg)(cfg.alpha, cfg.lambda_, cfg.gamma, np.array(ladder))
    cleared = np.flatnonzero(~(dens > _RESIDUAL_EDGE))
    return ladder[cleared[0]] if cleared.size else None


def _residual_x_lo(cfg):
    """Left edge of the residual grid: the density decays only like
    x^{lam/alpha - 1} toward the origin, so the edge is the first of 1e-4,
    1e-6, ... where the law clears ``_RESIDUAL_EDGE``, or None past 1e-300."""
    ladder = [1e-4]
    while ladder[-1] > 1e-300:
        ladder.append(ladder[-1] * 1e-2)
    return _first_cleared(cfg, ladder)


def _residual_x_hi(cfg):
    """Right edge of the residual grid: the first of x_hi, x_hi + 10/gamma,
    ... (each point the previous plus 10/gamma) where the law clears
    ``_RESIDUAL_EDGE``, ``_EDGE_LADDER`` points per call."""
    step = 10.0 / cfg.gamma
    x = cfg.grid.x_hi
    while True:
        ladder = [x]
        for _ in range(_EDGE_LADDER - 1):
            ladder.append(ladder[-1] + step)
        edge = _first_cleared(cfg, ladder)
        if edge is not None:
            return edge
        x = ladder[-1] + step


def _check_stationary(cfg):
    # each exact path draws Poisson(lambda * t_end) jumps, 4096 paths at a time
    _check_sample_jumps(cfg.lambda_ * cfg.sim.t_end)
    jumps = cfg.sim.n_paths * cfg.lambda_ * cfg.sim.t_end
    if not jumps >= _MIN_SAMPLE_JUMPS:
        raise ConfigError(f"n_paths * lambda * t_end = {jumps:g} expected jumps over the "
                          f"sample is below {_MIN_SAMPLE_JUMPS:g}: the sample may not jump")
    # the law decays like e^{-gamma x}: a coarser grid cannot represent it
    h = _check_spacing(cfg.grid.x_lo, cfg.grid.x_hi, cfg.grid.n, "grid")
    if h * cfg.gamma > 1.0:
        raise ConfigError(f"grid spacing {h:g} exceeds the Erlang scale 1/gamma = "
                          f"{1.0 / cfg.gamma:g}")
    # a law whose mean lies off the grid has its mass below x_lo or past
    # x_hi (lambda / alpha or 1 / gamma tiny or huge): the grid can neither
    # tabulate it nor hold the sample it is compared with
    with np.errstate(over="ignore", under="ignore"):
        mean = np.float64(cfg.lambda_) * cfg.m / cfg.alpha / cfg.gamma
    if not cfg.grid.x_lo <= mean <= cfg.grid.x_hi:
        raise ConfigError(f"the stationary mean lambda m / (alpha gamma) = {mean:g} lies "
                          f"off the grid [{cfg.grid.x_lo:g}, {cfg.grid.x_hi:g}]")
    x_lo = _residual_x_lo(cfg)
    if x_lo is None:
        raise ConfigError(
            f"the stationary law stays above {_RESIDUAL_EDGE:g} down to x = 1e-300 "
            "(lambda / alpha is at or barely above 1): its residual needs a vanishing "
            "boundary value"
        )
    m1_density = None
    if cfg.m == 1:
        # normalized on the grid here, so a grid that truncates the mass exits 2
        alpha, lam = cfg.alpha, cfg.lambda_
        try:
            m1_density = closedform.stationary_m1(
                lambda s: alpha * s, lambda s: lam, cfg.gamma, cfg.grid
            ).values
        except closedform.NormalizationError as exc:
            raise ConfigError(f"stationary law on the grid: {exc}") from exc
    return cfg._replace(residual_grid=GridSpec(x_lo, _residual_x_hi(cfg), 4001),
                        m1_density=m1_density)


def _stationary_residual(cfg):
    """Differential-form residual of the analytic law on its own grid, set
    by the config check."""
    m, alpha, lam, gamma = cfg.m, cfg.alpha, cfg.lambda_, cfg.gamma
    spec = cfg.residual_grid
    gf = GridFunction(spec, _stationary_density(cfg)(alpha, lam, gamma, spec.nodes()))
    model = ModelSpec(
        LinearRestoring(alpha), ZeroDiffusion(), ConstantRate(lam), ErlangJumpLaw(m, gamma)
    )
    return master.stationary_residual(gf, model)


def _run_stationary(cfg, seed, report):
    m, alpha, lam, gamma, grid, sim = cfg.m, cfg.alpha, cfg.lambda_, cfg.gamma, cfg.grid, cfg.sim
    x = grid.nodes()
    dens = cfg.m1_density if m == 1 else closedform.stationary_ou_m2(alpha, lam, gamma, x)
    report.write_csv("analytic_density.csv", ["x", "density"], [x, dens])

    # sigma = 0 and linear drift: the state at t_end is drawn exactly from
    # the explicit shot-noise solution; sim.dt does not enter
    sample = simulate.sample_linear_shot_noise_exact(
        alpha, lam, gamma, m, 0.0, sim.t_end, sim.n_paths, seed
    )
    report.count_exact(sample)
    final = sample.values
    hist = simulate.empirical_density(final, cfg.n_bins)
    report.write_csv(
        "mc_histogram.csv",
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
    resid = _stationary_residual(cfg)
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


# bound on lambda * t_max, the expected jumps of one exact path (transient,
# tanh): a chunk of 4096 paths holds about 4096 times as many jumps in memory
_MAX_SAMPLE_JUMPS = 1000.0

_TRANSIENT = _record(
    "TransientConfig",
    *_RATES,
    _Field("x0", float, 0.0, _NONNEGATIVE),
    _Field("times", [float], check=(lambda t: t > 0, "positive (t = 0 is the pure atom)")),
    _Field("u_values", [float], (1.0,), _NONNEGATIVE),
    _Field("t_u", float, 1.0, _POSITIVE),
    _Field("n_samples", int, 100000, _at_least(100)),
)


def _transient_z_max(alpha, lam, gamma):
    """Width of the grid past the atom that the transient law is tabulated on."""
    return 40.0 / gamma + 20.0 * lam / (alpha * gamma)


def _check_sample_jumps(jumps):
    """Bound the expected jumps of one exact path, lambda times its horizon."""
    if not jumps <= _MAX_SAMPLE_JUMPS:
        raise ConfigError(
            f"lambda * largest time = {jumps:g} expected jumps per "
            f"exact path exceeds {_MAX_SAMPLE_JUMPS}"
        )


def _check_transient(cfg):
    # each exact path draws Poisson(lambda * t_max) jumps, 4096 paths at a time
    _check_sample_jumps(cfg.lambda_ * max(*cfg.times, cfg.t_u))
    # the law must evaluate to finite values over the range the run
    # tabulates and integrates, at every comparison time; as numpy scalars,
    # parameters whose ratios overflow give inf instead of raising
    alpha, lam, gamma = np.float64(cfg.alpha), np.float64(cfg.lambda_), np.float64(cfg.gamma)
    with np.errstate(all="ignore"):
        try:
            law = closedform.TransientLaw(alpha, lam, gamma, cfg.x0)
        except ValueError as exc:
            raise ConfigError(f"transient law: {exc}") from exc
        z_hi = max(_transient_z_max(alpha, lam, gamma), law.mass_z_max())
        if not np.isfinite(z_hi):
            raise ConfigError("lambda / (alpha * gamma) overflows the transient grid")
        probe = np.linspace(0.0, z_hi, 33)
        # spacing of the run's 4001-point grid past the atom
        dz = _transient_z_max(alpha, lam, gamma) / 4000
        for t in sorted(set(cfg.times)):
            what = f"the transient law at t = {t:g}"
            loc = law.atom_location(t)
            if not loc + dz > loc:
                raise ConfigError(f"{what}: its atom x0 e^(-alpha t) = {loc:g} does not "
                                  f"resolve the grid spacing {dz:g}")
            try:
                dens = law.continuous_density(probe, t, from_atom=True)
            except (OverflowError, ValueError) as exc:
                raise ConfigError(f"{what} cannot be evaluated: {exc}") from exc
            if not np.all(np.isfinite(dens)):
                raise ConfigError(f"{what} does not evaluate to finite values")


def _run_transient(cfg, seed, report):
    alpha, lam, gamma, x0, t_u = cfg.alpha, cfg.lambda_, cfg.gamma, cfg.x0, cfg.t_u
    law = closedform.TransientLaw(alpha, lam, gamma, x0)
    z_max = _transient_z_max(alpha, lam, gamma)
    # one pathwise sample, read at every comparison time and at t_u
    grid = sorted(set(cfg.times) | {t_u})
    sample = simulate.sample_linear_shot_noise_exact(
        alpha, lam, gamma, 1, x0, grid, cfg.n_samples, _derived_seed(seed, 1)
    )
    report.count_exact(sample)
    at = {t: sample.values[i] for i, t in enumerate(grid)}
    for i, t in enumerate(cfg.times, start=1):
        mass = law.total_mass(t)
        xs, dens, cdf = law.density_cdf_grid(t, z_max)
        ks = simulate.ks_distance(at[t], interp_cdf(xs, np.minimum(cdf, 1.0)))
        report.write_csv(f"density_t{i}.csv", ["x", "density"], [xs, dens])
        report.metric(f"mass_t{i}", mass)
        report.metric(f"ks_t{i}", ks)
        report.metric(f"atom_weight_t{i}", law.atom_weight(t))
        report.metric(f"atom_location_t{i}", law.atom_location(t))
        report.flag(f"mass_t{i}_within_1e-4", abs(mass - 1.0) <= 1e-4)
        report.flag(f"ks_t{i}_below_0.02", ks < 0.02)
    samples = at[t_u]
    for j, u in enumerate(cfg.u_values, start=1):
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


_TANH = _record(
    "TanhConfig",
    *_RATES,
    _Field("beta", float, check=_POSITIVE),
    _Field("t", float),
    _Field("sim", _SIM),
    _Field("stationary_sim", _SIM, None),
)


def _check_tanh(cfg):
    if cfg.beta >= cfg.gamma:
        raise ConfigError("tilted jumps require beta < gamma (integrability)")
    if cfg.t != cfg.sim.t_end:
        raise ConfigError("t must equal sim.t_end: the law is checked at the simulated horizon")
    for sim in (cfg.sim, cfg.stationary_sim):
        if sim is not None:
            _check_sample_jumps(cfg.lambda_ * sim.t_end)


def _normalized_cdf(dens, x):
    """Trapezoid CDF of a tabulated density, scaled to end at one."""
    cum = cumulative_trapezoid(dens, x)
    return cum / cum[-1]


def _run_tanh(cfg, seed, report):
    alpha, lam, gamma, beta, t = cfg.alpha, cfg.lambda_, cfg.gamma, cfg.beta, cfg.t
    # each law's chirp-z sum is evaluated once; mass and CDF come from its grid
    xs, dens = closedform.TanhTransientLaw(lam, gamma, beta).density_grid(t)
    mass = float(simpson(dens, xs))
    cdf = _normalized_cdf(dens, xs)
    report.write_csv("tanh_transient_density.csv", ["x", "density"], [xs, dens])
    # exact jump-adapted draws of the state at the horizon; dt, record_stride
    # and n_workers do not enter
    sample = simulate.sample_tanh_exact(lam, gamma, beta, t, cfg.sim.n_paths, seed)
    report.count_exact(sample)
    ks = simulate.ks_distance(sample.values, interp_cdf(xs, cdf))
    report.metric("transient_mass", mass)
    report.metric("transient_ks", ks)
    report.flag("transient_mass_within_1e-4", abs(mass - 1.0) <= 1e-4)
    report.flag("transient_ks_below_0.02", ks < 0.02)

    if cfg.stationary_sim is not None:
        ssim = cfg.stationary_sim
        olaw = closedform.TiltedOuLaw(alpha, lam, gamma, beta)
        ys, ydens = olaw.density_grid()
        report.write_csv("ou_stationary_density.csv", ["y", "density"], [ys, ydens])
        osample = simulate.sample_ou_tanh_exact(
            alpha, lam, gamma, beta, ssim.t_end, ssim.n_paths, _derived_seed(seed, 1)
        )
        report.count_exact(osample)
        ycdf = _normalized_cdf(ydens, ys)
        sks = simulate.ks_distance(osample.values, interp_cdf(ys, ycdf))
        report.metric("stationary_ks", sks)
        report.flag("stationary_ks_below_0.03", sks < 0.03)
        # informational: distance to the bare Bessel-K mixture (jump part only)
        jd = olaw.jump_component_density(ys)
        jd = np.where(np.isfinite(jd), jd, 0.0)
        report.metric(
            "stationary_ks_jump_only",
            simulate.ks_distance(osample.values, interp_cdf(ys, _normalized_cdf(jd, ys))),
        )


# ---------------------------------------------------------------------------
# verify-specfun


_VERIFY_SPECFUN = _record("VerifySpecfunConfig", _Field("n_samples", int, 120, _at_least(100)))

# parameter tuples per function and oracle call, so memory does not grow
# with n_samples
_SPECFUN_BATCH = 4096


def _run_verify_specfun(cfg, seed, report):
    n = cfg.n_samples
    rng = np.random.default_rng(seed)

    def sweep(name, tol, sampler, impl, ref, relative=False, ulp_floor=False):
        # all n tuples are drawn first, in the order of the one-at-a-time
        # loop; impl and ref take parameter columns and evaluate a batch per call
        cols = [np.array(c) for c in zip(*(sampler(rng) for _ in range(n)))]

        def batched(fn):
            return np.concatenate([
                np.atleast_1d(fn(*(c[i : i + _SPECFUN_BATCH] for c in cols)))
                for i in range(0, n, _SPECFUN_BATCH)
            ])

        got, want = batched(impl), batched(ref)
        err = np.abs(got - want)
        if relative:
            err /= np.maximum(np.abs(want), 1e-300)
        # absolute tolerances bottom out at a few ulps of the value
        bound = np.maximum(tol, 8.0 * np.finfo(float).eps * np.abs(want)) if ulp_floor else tol
        report.metric(f"max_err_{name}", err.max())
        report.flag(f"{name}_within_tol", np.all(err <= bound))

    def elementwise(fn):
        # fn once per draw: the scalar parameters of U, W and 1F1 pick their
        # route, and the oracles below are scalar code
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
        elementwise(specfun.kummer_u), oracles.kummer_u_ref, relative=True,
    )
    sweep(
        "whittaker_w0", 1e-8,
        lambda r: (r.uniform(-3.0, 0.3), 10 ** r.uniform(-1.0, 1.5)),
        elementwise(specfun.whittaker_w0), oracles.whittaker_w0_ref, relative=True,
    )
    sweep(
        "kummer_1f1", 1e-10,
        lambda r: (-float(r.integers(0, 9)), r.uniform(0.5, 4.0), r.uniform(-30.0, 30.0)),
        elementwise(specfun.kummer_1f1),
        elementwise(lambda a, b, z: oracles.kummer_1f1_poly_ref(int(-a), b, z)),
    )


# ---------------------------------------------------------------------------
# entry point


# table, check of the rules spanning several fields (or None), run
_COMMANDS = {
    "wave": (_WAVE, _check_wave, _run_wave),
    "verify-master": (_VERIFY_MASTER, _check_verify_master, _run_verify_master),
    "stationary": (_STATIONARY, _check_stationary, _run_stationary),
    "transient": (_TRANSIENT, _check_transient, _run_transient),
    "tanh": (_TANH, _check_tanh, _run_tanh),
    "verify-specfun": (_VERIFY_SPECFUN, None, _run_verify_specfun),
}


def parse_config(command, cfg):
    """The command's config record parsed from a decoded JSON config;
    raises ConfigError for an invalid one."""
    table, check, _ = _COMMANDS[command]
    record = _parse(table, cfg, f"{command} config")
    if check is not None:
        # a check returns the record with its derived attributes set, or None
        record = check(record) or record
    return record


def run_command(command, config_path, out_dir, seed_override=None, quiet=False):
    """Validate and execute one subcommand; returns the process exit code."""
    run = _COMMANDS[command][2]
    start = time.perf_counter()
    try:
        cfg = _load_config(config_path)
        record = parse_config(command, cfg)
        seed = record.seed if seed_override is None else _value(_SEED, seed_override, "--seed")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    validated = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = dict(cfg)
    echo["seed"] = seed
    (out / "config_echo.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
    report = RunReport(command, echo, seed, out)
    echoed = time.perf_counter()
    try:
        run(record, seed, report)
    except simulate.ThinningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timings = report.timings
    timings["validate"] = validated - start
    # the run's CSV writes are already counted under "write"
    timings["run"] = time.perf_counter() - echoed - timings["write"]
    timings["write"] += echoed - validated
    report.write()
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
