"""Reproducible experiment runner.

Each subcommand loads a JSON config and parses it once against the
command's table of fields.  A field has a kind (a finite real, an integer,
a non-empty list of either, a nested block, or the tagged ``drift`` block),
a default unless it is required, and a range; unknown keys are errors.
Simulation blocks parse to a ``SimConfig``, and a ``--seed`` replaces the
record's seed.  A check per command builds the objects the run uses, at
the run's seed (its analytic work counts as validation time), and covers
the rules that span several fields; ``parse_config`` turns any overflow,
``ValueError`` or failed normalization inside a check into exit 2.
The run reads only the parsed, immutable record; it then writes an output
directory containing the echoed config, a ``report.json`` with named
metrics and pass/fail flags, and CSV artifacts.  Exit codes: 0 when every
tolerance was met, 1 when the run executed but a tolerance failed, 2 for
an invalid configuration (nothing is written).

Invocation:
    erlangshot <subcommand> --config cfg.json --out outdir [--seed N]
with subcommand one of wave, verify-master, stationary, transient, tanh,
verify-specfun.  Reals in CSVs carry 17 significant digits so re-running
with the same config and seed reproduces byte-identical CSV bodies.  The
CSV writer is vectorised (``csvformat``) yet byte-identical to
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

from . import closedform, csvformat, master, oracles, simulate, specfun
from .master import (
    ConstantDrift,
    ConstantRate,
    GridFunction,
    GridSpec,
    LinearRestoring,
    ModelSpec,
    TanhRepulsive,
)
from .noise import ErlangJumpLaw, stream
from .quadrature import simpson, trapezoid_cdf
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


# the most entries of one array a run holds, as a size field or a product of
# them sets it: 2**24 float64 values are 128 MiB
_MAX_ENTRIES = 2**24


# bound on the expected jumps of one exact path (stationary, transient, tanh),
# lambda times its horizon: a chunk of 4096 paths holds about 4096 times as
# many jumps in memory; and of one swarm agent, whose every jump costs the
# whole swarm a window of vectorised work
_MAX_SAMPLE_JUMPS = 1000.0


def _check_sample_jumps(jumps, what):
    if not jumps <= _MAX_SAMPLE_JUMPS:
        raise ConfigError(f"{what} = {jumps:g} expected jumps exceeds {_MAX_SAMPLE_JUMPS:g}")


def _size(lo):
    """Range of a count or size field: from lo up to ``_MAX_ENTRIES``."""
    return (lambda v: lo <= v <= _MAX_ENTRIES, f"in {lo}..{_MAX_ENTRIES}")


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


# SimConfig checks the other ranges itself
_SIM = _Table((
    _Field("dt", float),
    _Field("t_end", float),
    _Field("n_paths", int, check=_size(1)),
    _Field("record_stride", int, 1),
), SimConfig)

_DRIFT = {
    "zero": _Table((), lambda: ConstantDrift(0.0)),
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


# rows joined and written at a time by write_csv
_CSV_BLOCK_ROWS = 4096


def write_csv(path, header, columns):
    """Write equal-length columns as CSV under a header of one name per
    column, every value as a float with 17 significant digits: the bytes of
    ``format(float(v), ".17g")``.  A column is a one-dimensional array of
    reals or ``csvformat.Cells``, a column formatted once for several files.
    Rows are joined by ``csvformat.join`` and written ``_CSV_BLOCK_ROWS`` at
    a time, array columns formatted straight into the block, so memory does
    not grow with the table.  Raises ``ValueError``, writing nothing, for no
    columns, a header of another length, or columns that are not
    one-dimensional and of equal length."""
    cols = [c if isinstance(c, csvformat.Cells) else np.asarray(c) for c in columns]
    if not cols:
        raise ValueError("a CSV needs at least one column")
    if len(header) != len(cols):
        raise ValueError(f"a CSV header of {len(header)} names for {len(cols)} columns")
    n = len(cols[0])
    if any(c.shape != (n,) for c in cols):
        raise ValueError("CSV columns must be one-dimensional and of equal length")
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, n, _CSV_BLOCK_ROWS):
            f.write(csvformat.join([c[start : start + _CSV_BLOCK_ROWS] for c in cols]))


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

    ``timings`` holds the seconds spent validating the config (each check's
    analytic work included), running the experiment, and writing output
    files (the config echo and every CSV; CSVs written during the run count
    under ``write``, not ``run``), and, within ``run``, ``draw_wait``: the
    seconds the exact samplers waited for their helper thread's draws."""

    def __init__(self, command, parameters, seed, out_dir):
        self.command = command
        self.parameters = parameters
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.metrics = {}
        self.flags = {}
        self.counters = Counter()
        self.timings = {"validate": 0.0, "run": 0.0, "write": 0.0, "draw_wait": 0.0}
        self._t0 = time.perf_counter()

    def write_csv(self, name, header, columns):
        """Write the CSV artifact ``name`` in the output directory, timed
        under ``write``."""
        start = time.perf_counter()
        write_csv(self.out_dir / name, header, columns)
        self.timings["write"] += time.perf_counter() - start

    def cells(self, values):
        """``csvformat.cells(values)``: a column formatted once for several
        CSVs, timed under ``write``."""
        start = time.perf_counter()
        formatted = csvformat.cells(values)
        self.timings["write"] += time.perf_counter() - start
        return formatted

    def metric(self, name, value):
        self.metrics[name] = float(value)

    def count_exact(self, sample):
        """Add an exact sampler's counters: samples as paths, no steps, jumps;
        ``tile_values`` is the largest tile's values per temporary array of
        every exact sample of the run.  Its wait for draws adds to
        ``timings["draw_wait"]``."""
        self.counters.update(paths=len(sample), steps=0, jumps=int(sample.jump_counts.sum()))
        self.counters["tile_values"] = max(self.counters["tile_values"], sample.tile_values)
        self.timings["draw_wait"] += sample.draw_wait

    def count_swarm(self, sim, series):
        """Add a swarm run's counters: agents, agent-steps, exponential
        clock draws, jumps."""
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
        """Write ``report.json`` as strict JSON: a non-finite metric is
        written as null and fails the ``metrics_finite`` flag."""
        self.flag("metrics_finite", all(map(math.isfinite, self.metrics.values())))
        body = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "metrics": {k: v if math.isfinite(v) else None for k, v in self.metrics.items()},
            "flags": self.flags,
            "counters": self.counters,
            "timings": self.timings,
            "environment": _environment(),
            "passed": self.passed,
            "wall_time_s": time.perf_counter() - self._t0,
        }
        (self.out_dir / "report.json").write_text(
            json.dumps(body, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# wave


# trailing fraction of the swarm run that the speed is fitted over
_SPEED_WINDOW = 0.5

# a swarm block is a SimConfig whose paths are the agents
_SWARM = _Table((
    _Field("n_agents", int, check=_size(2)),
    _Field("dt", float, 0.002),
    _Field("t_end", float, 14.0),
    _Field("record_stride", int, 50),
), lambda n_agents, **sim: SimConfig(n_paths=n_agents, **sim))

_WAVE = _record(
    "WaveConfig",
    _Field("m_values", [int], check=_one_of(1, 2)),
    _Field("beta_values", [float], check=_POSITIVE),
    _Field("gamma", float, check=_POSITIVE),
    _Field("xi_lo", float),
    _Field("xi_hi", float),
    _Field("n_xi", int, check=_size(101)),
    _Field("swarm", _SWARM, None),
    # the xi GridSpec, and the WaveSolution of every (m, beta) run, with
    # m = 1 when the C2/C1 ratio needs it
    derived=("grid", "waves"),
)


def _check_wave(cfg):
    # outputs and metrics are named by m and beta's :g form
    tags = [f"{b:g}" for b in cfg.beta_values]
    if len(set(cfg.m_values)) < len(cfg.m_values) or len(set(tags)) < len(tags):
        raise ConfigError(f"m_values {list(cfg.m_values)} and beta_values (as {tags}) must not "
                          "repeat: each names its own output files and metrics")
    grid = GridSpec(cfg.xi_lo, cfg.xi_hi, cfg.n_xi)
    # the profile varies on the scales 1/gamma and 1/beta: a coarser
    # spacing leaves nothing for the mass and mean to integrate
    scale = max(cfg.gamma, *cfg.beta_values)
    if grid.h * scale > 1.0:
        raise ValueError(f"xi spacing {grid.h:g} exceeds 1 / max(gamma, beta) = "
                         f"{1.0 / scale:g}: the grid cannot resolve the profile")
    waves = {(m, b): (closedform.gumbel_wave if m == 1 else closedform.whittaker_wave)(
        b, cfg.gamma) for m in ((1, 2) if 2 in cfg.m_values else (1,))
        for b in cfg.beta_values}
    swarm = cfg.swarm
    if swarm is not None:
        # the swarm holds a snapshot of every agent at every recorded time
        if swarm.n_records * swarm.n_paths > _MAX_ENTRIES:
            raise ConfigError(f"swarm block records {swarm.n_records} times of {swarm.n_paths} "
                              f"agents, more than {_MAX_ENTRIES} positions; raise dt or "
                              "record_stride")
        # the barycenter moves at C by jumps of mean m / gamma spread over the
        # agents: each agent expects C gamma t_end / m jumps, and the swarm
        # resolves about one per agent per window
        for m in cfg.m_values:
            for b in cfg.beta_values:
                _check_sample_jumps(waves[(m, b)].speed * cfg.gamma / m * swarm.t_end,
                                    f"C gamma t_end / m of one m={m}, beta={b:g} swarm agent")
        try:
            simulate.speed_window(swarm.record_steps() * swarm.dt, _SPEED_WINDOW)
        except ValueError as exc:
            raise ConfigError(f"swarm block: {exc}; lower dt or record_stride") from exc
    return cfg._replace(grid=grid, waves=waves)


def _run_wave(cfg, report):
    gamma, betas, waves = cfg.gamma, cfg.beta_values, cfg.waves
    xi = cfg.grid.nodes()
    # every profile file shares the grid: its text is formatted once
    xi_cells = report.cells(xi)
    single_beta = len(betas) == 1
    for m in cfg.m_values:
        for b in betas:
            sol = waves[(m, b)]
            dens = sol.profile(xi)
            report.write_csv(f"wave_m{m}_beta{b:g}.csv", ["xi", "density"], [xi_cells, dens])
            mass = simpson(dens, xi)
            mean = simpson(xi * dens, xi)
            tag = f"_beta{b:g}"
            report.metric(f"C{m}{tag}", sol.speed)
            report.metric(f"mass_m{m}{tag}", mass)
            report.metric(f"mean_m{m}{tag}", mean)
            if single_beta:
                report.metric(f"C{m}", sol.speed)
            mass_ok = abs(mass - 1.0) <= 1e-6
            report.flag(f"mass_m{m}{tag}_within_1e-6", mass_ok)
            # a mean is the profile's only where its mass is
            report.flag(f"mean_m{m}{tag}_within_1e-5", mass_ok and abs(mean) <= 1e-5)
    if 2 in cfg.m_values:
        # the speed ratio is always reported when the m=2 wave runs
        for b in betas:
            ratio = waves[(2, b)].speed / waves[(1, b)].speed
            report.metric(f"C2_over_C1_beta{b:g}", ratio)
            if single_beta:
                report.metric("C2_over_C1", ratio)
            report.flag(f"speed_ratio_beta{b:g}_gt_2", ratio > 2.0)
    if cfg.swarm is not None:
        sim = replace(cfg.swarm, seed=cfg.seed)
        for m in cfg.m_values:
            for b in betas:
                series = simulate.simulate_swarm(sim.n_paths, m, gamma, b, sim)
                report.count_swarm(sim, series)
                fitted = simulate.estimate_speed(series, _SPEED_WINDOW)
                sol = waves[(m, b)]
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
    _Field("grid_sizes", [int], check=_size(65)),
    _Field("gamma", float, check=_POSITIVE),
    _Field("lambda", float, check=_NONNEGATIVE),
    _Field("x_lo", float),
    _Field("x_hi", float),
    _Field("drift", _DRIFT, ConstantDrift(0.0)),
    _Field("sigma", float, 0.0, _NONNEGATIVE),
    _Field("n_test_densities", int, 3, _size(1)),
    # per entry of m_values, (m, hs, largest gap per grid) of its ladder;
    # the engine counters; the m = 1 direct-form gap and its scale
    derived=("ladders", "counters", "direct_form"),
)


# the most values of one stack of test densities, k rows of n, passed to
# one generator_gap call: the generators' temporaries are a few dozen
# arrays of that size, whatever n_test_densities is
_STACK_POINTS = 2**18


def _ladder(m, grid_sizes):
    """The distinct ascending grid sizes run for order m.  m-fold stencil
    composition amplifies rounding like h^{-m}, so the ladder is coarsened
    with m to keep truncation the dominant signal; sizes that coarsen to one
    size run once."""
    divisor = {1: 1, 2: 1, 3: 2, 4: 4}[m]
    return sorted({max(65, (n - 1) // divisor + 1) for n in grid_sizes})


def _check_verify_master(cfg):
    # each m names its own order metric and generator_gaps.csv rows
    if len(set(cfg.m_values)) < len(cfg.m_values):
        raise ConfigError(f"m_values {list(cfg.m_values)} must not repeat: each names its own "
                          "order metric and ladder")
    if len(set(cfg.grid_sizes)) < len(cfg.grid_sizes):
        raise ConfigError(f"grid_sizes {list(cfg.grid_sizes)} must not repeat: each is one "
                          "refinement of the ladder")
    for m in cfg.m_values:
        if len(_ladder(m, cfg.grid_sizes)) < 4:
            raise ConfigError(
                f"need at least 4 distinct grid sizes to fit a convergence order; for m={m} "
                f"the sizes run are {_ladder(m, cfg.grid_sizes)}"
            )
    # the test densities are Gaussian bumps whose widths are fractions of
    # the span, and their exponents square those widths
    span = cfg.x_hi - cfg.x_lo
    if not span * span < math.inf:
        raise ConfigError(f"x_hi - x_lo = {span:g} is too wide: the test densities square it")
    # the run's own gaps: a rate, gamma^m, drift or diffusion that fails on
    # the test densities of the run's seed fails here
    return _master_gaps(cfg)


def _master_gaps(cfg):
    """The record with every ladder's gaps, the engine counters and the
    m = 1 direct-form gap set."""
    x_lo, x_hi, lam = cfg.x_lo, cfg.x_hi, cfg.lambda_
    ladders, counters = [], Counter()
    for m in cfg.m_values:
        model = ModelSpec(cfg.drift, cfg.sigma, ConstantRate(lam), ErlangJumpLaw(m, cfg.gamma))
        m_sizes = _ladder(m, cfg.grid_sizes)
        gaps = []
        for n in m_sizes:
            spec = GridSpec(x_lo, x_hi, n)
            x = spec.nodes()
            gap = 0.0
            # the same test densities on every grid of the ladder, a stack
            # of at most _STACK_POINTS values per generator_gap call
            dens_rng = stream(cfg.seed, m)
            per_stack = max(1, _STACK_POINTS // n)
            for start in range(0, cfg.n_test_densities, per_stack):
                k = min(per_stack, cfg.n_test_densities - start)
                P = GridFunction(spec, _random_bumps(dens_rng, x, x_lo, x_hi, k))
                gap = max(gap, master.generator_gap(P, model))
                counters.update(densities=k, grid_points=k * n, generator_stacks=1)
            gaps.append(gap)
        ladders.append((m, [(x_hi - x_lo) / (n - 1) for n in m_sizes], gaps))
    # m=1 zero-drift reduction: the differential route must equal the plain
    # divergence of the rate term to rounding
    spec = GridSpec(x_lo, x_hi, max(cfg.grid_sizes))
    P = GridFunction(spec, _random_bumps(stream(cfg.seed, 0), spec.nodes(), x_lo, x_hi, 1)[0])
    model1 = ModelSpec(ConstantDrift(0.0), 0.0, ConstantRate(lam), ErlangJumpLaw(1, cfg.gamma))
    lhs = master.differential_generator(P, model1).values
    direct = -master._d1(lam * P.values, spec.h)
    k = master.interior_margin(1)
    gap1 = float(np.max(np.abs(lhs[k:-k] - direct[k:-k])))
    scale = max(1.0, float(np.max(np.abs(direct))))
    return cfg._replace(ladders=tuple(ladders), counters=counters, direct_form=(gap1, scale))


def _random_bumps(rng, x, x_lo, x_hi, k):
    """(k, len(x)) stack of random mixtures of three Gaussian bumps supported
    well inside the grid.  Each density draws centre, width and height of
    each bump in turn, so a stack holds the densities of k one-at-a-time
    draws, in order and bit for bit.  2 w^2 is formed in Python floats, whose
    power can differ from numpy's square in the last bit."""
    span = x_hi - x_lo
    dens = np.zeros((k, x.size))
    for uc, uw, ua in rng.random((k, 3, 3)).transpose(1, 2, 0).tolist():
        c = np.array([x_lo + span * (0.38 + 0.24 * u) for u in uc])[:, None]
        var2 = np.array([2 * (span * (0.014 + 0.011 * u)) ** 2 for u in uw])[:, None]
        a = np.array([0.5 + u for u in ua])[:, None]
        dens += a * np.exp(-((x - c) ** 2) / var2)
    return dens


def _run_verify_master(cfg, report):
    rows = []
    for m, hs, gaps in cfg.ladders:
        order = master.fit_convergence_order(hs, gaps)
        report.metric(f"order_m{m}", order)
        report.flag(f"order_m{m}_ge_1.7", order >= 1.7)
        rows += [(m, h, g) for h, g in zip(hs, gaps)]
    report.counters.update(cfg.counters)
    gap1, scale = cfg.direct_form
    report.metric("m1_direct_form_gap", gap1)
    report.flag("m1_direct_form_matches", gap1 <= 1e-12 * scale)
    report.write_csv("generator_gaps.csv", ["m", "h", "max_gap"], np.array(rows, dtype=float).T)


# ---------------------------------------------------------------------------
# stationary


_STATIONARY = _record(
    "StationaryConfig",
    _Field("m", int, check=_one_of(1, 2)),
    *_RATES,
    # GridSpec checks the spacing
    _Field("grid", _Table((
        _Field("x_lo", float, check=_POSITIVE),
        _Field("x_hi", float),
        _Field("n", int, check=_size(9)),
    ), GridSpec)),
    _Field("sim", _SIM),
    _Field("n_bins", int, 80, _size(5)),
    # the law on the grid and its differential-form residual there
    derived=("density", "residual"),
)


# fewest expected jumps over the whole exact sample, n_paths lambda t_end:
# with fewer, no path may jump (at 20 that has chance e^-20) and the sample
# has no spread to histogram
_MIN_SAMPLE_JUMPS = 20.0


def _check_stationary(cfg):
    m, alpha, lam, gamma, grid = cfg.m, cfg.alpha, cfg.lambda_, cfg.gamma, cfg.grid
    # each exact path draws Poisson(lambda * t_end) jumps, 4096 paths at a time
    _check_sample_jumps(lam * cfg.sim.t_end, "lambda * sim.t_end of one exact path")
    jumps = cfg.sim.n_paths * lam * cfg.sim.t_end
    if not jumps >= _MIN_SAMPLE_JUMPS:
        raise ConfigError(f"n_paths * lambda * t_end = {jumps:g} expected jumps over the "
                          f"sample is below {_MIN_SAMPLE_JUMPS:g}: the sample may not jump")
    # the law decays like e^{-gamma x}: a coarser grid cannot represent it
    if grid.h * gamma > 1.0:
        raise ConfigError(f"grid spacing {grid.h:g} exceeds the Erlang scale 1/gamma = "
                          f"{1.0 / gamma:g}")
    # a law whose mean lies off the grid has its mass below x_lo or past
    # x_hi (lambda / alpha or 1 / gamma tiny or huge): the grid can neither
    # tabulate it nor hold the sample it is compared with
    mean = np.float64(lam) * m / alpha / gamma
    if not grid.x_lo <= mean <= grid.x_hi:
        raise ConfigError(f"the stationary mean lambda m / (alpha gamma) = {mean:g} lies "
                          f"off the grid [{grid.x_lo:g}, {grid.x_hi:g}]")
    if lam < alpha:
        raise ConfigError(f"lambda / alpha = {lam / alpha:g} is below 1: the stationary law is "
                          "unbounded at 0 like x^(lambda/alpha - 1), off any grid from x_lo > 0")
    k = master.interior_margin(m)
    if grid.n <= 2 * k:
        raise ConfigError(f"grid.n = {grid.n} leaves no node past the residual's stencil margin "
                          f"of {k} nodes at each end: m = {m} needs at least {2 * k + 1}")
    if m == 1:
        # normalized on the grid here, so a grid that truncates the mass exits 2
        density = closedform.stationary_m1(lambda s: alpha * s, lambda s: lam, gamma, grid).values
    else:
        density = closedform.stationary_ou_m2(alpha, lam, gamma, grid.nodes())
    # the differential form holds node by node: the law need not vanish at
    # the grid ends
    model = ModelSpec(LinearRestoring(alpha), 0.0, ConstantRate(lam), ErlangJumpLaw(m, gamma))
    residual = master.stationary_residual(GridFunction(grid, density), model)
    return cfg._replace(density=density, residual=residual)


def _run_stationary(cfg, report):
    m, alpha, lam, gamma, grid, sim = cfg.m, cfg.alpha, cfg.lambda_, cfg.gamma, cfg.grid, cfg.sim
    x, dens = grid.nodes(), cfg.density
    report.write_csv("analytic_density.csv", ["x", "density"], [x, dens])

    # sigma = 0 and linear drift: the state at t_end is drawn exactly from
    # the explicit shot-noise solution; sim.dt does not enter
    sample = simulate.sample_linear_shot_noise_exact(
        alpha, lam, gamma, m, 0.0, sim.t_end, sim.n_paths, cfg.seed
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
    ks = simulate.ks_distance(final, interp_cdf(fine, trapezoid_cdf(fine_dens, fine)))
    mc_mean = float(final.mean())
    se = float(final.std(ddof=1) / np.sqrt(len(final)))
    analytic_mean = closedform.cumulant(1, m, gamma, lam, lambda s: alpha * s)
    report.metric("ks", ks)
    report.metric("mc_mean", mc_mean)
    report.metric("analytic_mean", analytic_mean)
    report.metric("mean_abs_diff", abs(mc_mean - analytic_mean))
    report.metric("mean_4se", 4 * se)
    report.metric("stationary_residual", cfg.residual)
    report.flag("ks_below_0.02", ks < 0.02)
    report.flag("mean_within_4se", abs(mc_mean - analytic_mean) <= 4 * se)


# ---------------------------------------------------------------------------
# transient


_TRANSIENT = _record(
    "TransientConfig",
    *_RATES,
    _Field("x0", float, 0.0, _NONNEGATIVE),
    _Field("times", [float], check=(lambda t: t > 0, "positive (t = 0 is the pure atom)")),
    _Field("u_values", [float], (1.0,), _NONNEGATIVE),
    _Field("t_u", float, 1.0, _POSITIVE),
    _Field("n_samples", int, 100000, _size(100)),
    # tables: (x, density, CDF) of the law at each distinct comparison time
    derived=("law", "tables"),
)


def _check_transient(cfg):
    # each exact path draws Poisson(lambda * t_max) jumps, 4096 paths at a time
    _check_sample_jumps(cfg.lambda_ * max(*cfg.times, cfg.t_u),
                        "lambda * largest time of one exact path")
    # the sample holds every path at each comparison time and at t_u
    if (len(cfg.times) + 1) * cfg.n_samples > _MAX_ENTRIES:
        raise ConfigError(f"(len(times) + 1) * n_samples exceeds {_MAX_ENTRIES} sample values")
    # the run writes and integrates these tables
    law = closedform.TransientLaw(cfg.alpha, cfg.lambda_, cfg.gamma, cfg.x0)
    tables = {t: law.density_cdf_grid(t) for t in set(cfg.times)}
    return cfg._replace(law=law, tables=tables)


def _run_transient(cfg, report):
    alpha, lam, gamma, x0, t_u, law = cfg.alpha, cfg.lambda_, cfg.gamma, cfg.x0, cfg.t_u, cfg.law
    # one pathwise sample, read at every comparison time and at t_u
    grid = sorted(set(cfg.times) | {t_u})
    sample = simulate.sample_linear_shot_noise_exact(
        alpha, lam, gamma, 1, x0, grid, cfg.n_samples, cfg.seed
    )
    report.count_exact(sample)
    at = {t: sample.values[i] for i, t in enumerate(grid)}
    for i, t in enumerate(cfg.times, start=1):
        mass = law.total_mass(t)
        xs, dens, cdf = cfg.tables[t]
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
    # the transient law's (x, density) table at t; with a stationary_sim
    # block, the OU invariant law and its (y, density) table
    derived=("transient_table", "ou_law", "ou_table"),
)

def _check_tanh(cfg):
    if cfg.t != cfg.sim.t_end:
        raise ConfigError("t must equal sim.t_end: the law is checked at the simulated horizon")
    for sim in (cfg.sim, cfg.stationary_sim):
        if sim is not None:
            _check_sample_jumps(cfg.lambda_ * sim.t_end, "lambda * t_end of one exact path")
    # both laws are built and tabulated here (beta < gamma and the bound on
    # their inversions are theirs to check): a law the run writes cannot fail
    ou_law = ou_table = None
    transient_table = closedform.TanhTransientLaw(
        cfg.lambda_, cfg.gamma, cfg.beta).density_grid(cfg.t)
    if cfg.stationary_sim is not None:
        ou_law = closedform.TiltedOuLaw(cfg.alpha, cfg.lambda_, cfg.gamma, cfg.beta)
        ou_table = ou_law.density_grid()
    return cfg._replace(transient_table=transient_table, ou_law=ou_law, ou_table=ou_table)


def _run_tanh(cfg, report):
    alpha, lam, gamma, beta, t = cfg.alpha, cfg.lambda_, cfg.gamma, cfg.beta, cfg.t
    # each law's chirp-z sum is evaluated once, by the check; mass and CDF
    # come from its grid
    xs, dens = cfg.transient_table
    mass = float(simpson(dens, xs))
    cdf = trapezoid_cdf(dens, xs)
    report.write_csv("tanh_transient_density.csv", ["x", "density"], [xs, dens])
    # exact jump-adapted draws of the state at the horizon; dt and
    # record_stride do not enter
    sample = simulate.sample_tanh_exact(lam, gamma, beta, t, cfg.sim.n_paths, cfg.seed)
    report.count_exact(sample)
    ks = simulate.ks_distance(sample.values, interp_cdf(xs, cdf))
    report.metric("transient_mass", mass)
    report.metric("transient_ks", ks)
    report.flag("transient_mass_within_1e-4", abs(mass - 1.0) <= 1e-4)
    report.flag("transient_ks_below_0.02", ks < 0.02)

    if cfg.stationary_sim is not None:
        ssim, olaw = cfg.stationary_sim, cfg.ou_law
        ys, ydens = cfg.ou_table
        report.write_csv("ou_stationary_density.csv", ["y", "density"], [ys, ydens])
        osample = simulate.sample_ou_tanh_exact(
            alpha, lam, gamma, beta, ssim.t_end, ssim.n_paths, cfg.seed
        )
        report.count_exact(osample)
        ycdf = trapezoid_cdf(ydens, ys)
        sks = simulate.ks_distance(osample.values, interp_cdf(ys, ycdf))
        report.metric("stationary_ks", sks)
        report.flag("stationary_ks_below_0.03", sks < 0.03)
        # informational: distance to the bare Bessel-K mixture (jump part only)
        jd = olaw.jump_component_density(ys)
        jd = np.where(np.isfinite(jd), jd, 0.0)
        report.metric(
            "stationary_ks_jump_only",
            simulate.ks_distance(osample.values, interp_cdf(ys, trapezoid_cdf(jd, ys))),
        )


# ---------------------------------------------------------------------------
# verify-specfun


_VERIFY_SPECFUN = _record("VerifySpecfunConfig", _Field("n_samples", int, 120, _size(100)))

# parameter tuples per function and oracle call, so memory does not grow
# with n_samples
_SPECFUN_BATCH = 4096


def _run_verify_specfun(cfg, report):
    n = cfg.n_samples
    rng = stream(cfg.seed, 0)

    def sweep(name, tol, sampler, impl, ref, relative=False, ulp_floor=False):
        # the sampler draws one column of n values per parameter; impl and
        # ref take parameter columns and evaluate a batch per call
        cols = sampler(rng, n)

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

    sweep(
        "log_gamma", 1e-12,
        lambda r, n: (10 ** r.uniform(-3, 3, n),),
        specfun.log_gamma, oracles.log_gamma_ref, ulp_floor=True,
    )
    sweep(
        "digamma", 1e-10,
        lambda r, n: (10 ** r.uniform(-2, 3, n),),
        specfun.digamma, oracles.digamma_ref,
    )
    sweep(
        "bessel_i", 1e-10,
        lambda r, n: (r.uniform(0, 5, n), r.uniform(0, 50, n)),
        specfun.bessel_i, oracles.bessel_i_ref, relative=True,
    )
    sweep(
        "bessel_k", 1e-9,
        lambda r, n: (r.uniform(-3, 3, n), 10 ** r.uniform(-3, np.log10(50), n)),
        specfun.bessel_k, oracles.bessel_k_ref, relative=True,
    )
    sweep(
        "erlang_survival", 1e-12,
        lambda r, n: (r.integers(1, 6, n), r.uniform(0.2, 4.0, n), r.uniform(0.0, 10.0, n)),
        specfun.erlang_survival, oracles.erlang_survival_ref,
    )
    sweep(
        "kummer_u", 1e-8,
        lambda r, n: (r.uniform(0.2, 4.0, n), r.uniform(0.5, 3.0, n),
                      10 ** r.uniform(-1.3, np.log10(50), n)),
        specfun.kummer_u, oracles.kummer_u_ref, relative=True,
    )
    sweep(
        "whittaker_w0", 1e-8,
        lambda r, n: (r.uniform(-3.0, 0.3, n), 10 ** r.uniform(-1.0, 1.5, n)),
        specfun.whittaker_w0, oracles.whittaker_w0_ref, relative=True,
    )
    sweep(
        "kummer_1f1", 1e-10,
        lambda r, n: (-r.integers(0, 9, n).astype(float), r.uniform(0.5, 4.0, n),
                      r.uniform(-30.0, 30.0, n)),
        specfun.kummer_1f1,
        lambda a, b, z: oracles.kummer_1f1_poly_ref(-a, b, z),
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


def parse_config(command, cfg, seed=None):
    """The command's config record parsed from a decoded JSON config, with
    ``seed``, unless None, in place of the config's; raises ConfigError for
    an invalid one."""
    table, check, _ = _COMMANDS[command]
    record = _parse(table, cfg, f"{command} config")
    if seed is not None:
        record = record._replace(seed=_value(_SEED, seed, "--seed"))
    if check is None:
        return record
    # a check returns the record with its derived attributes set, or None.
    # Its analytic work runs on values valid key by key, so it may overflow,
    # underflow or fail to normalize: any such error is the config's
    with np.errstate(all="ignore"):
        try:
            return check(record) or record
        except ConfigError:
            raise
        except (OverflowError, ValueError, closedform.NormalizationError) as exc:
            raise ConfigError(f"invalid {command} config: {exc}") from exc


def run_command(command, config_path, out_dir, seed_override=None, quiet=False):
    """Validate and execute one subcommand; returns the process exit code."""
    run = _COMMANDS[command][2]
    start = time.perf_counter()
    try:
        cfg = _load_config(config_path)
        record = parse_config(command, cfg, seed_override)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    validated = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = dict(cfg)
    echo["seed"] = record.seed
    (out / "config_echo.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
    report = RunReport(command, echo, record.seed, out)
    echoed = time.perf_counter()
    run(record, report)
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
