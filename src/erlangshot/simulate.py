"""Monte Carlo engine: jump-diffusion paths, exact linear shot-noise
samples, and the mean-field swarm.

Path simulation is an Euler-Maruyama reference with a fixed in-step order
(drift, then diffusion, then jumps), kept as the dt-biased cross-check of
the exact samplers below; no command of the CLI runs it.  One function,
``_euler``, serves every path simulator.  It draws from the one stream
``(seed, 0)``: every path's total jump count, then the jumps' arrival and
magnitude uniforms, then the Gaussian normals step after step.  It is one
plain loop over steps: work on jumps is O(jumps) rather than O(steps), and
memory does not grow with the number of steps.  A path's draws depend on
the seed and on the batch's shape.

The interacting swarm couples pure jump agents through the empirical
barycenter entering their Poisson rates.  It is simulated exactly, on a
common clock on which the agents jump independently and the barycenter
acts only as a time change, in vectorised windows of about one jump per
agent; the step ``dt`` only sets the record grid.  It draws from the one
stream ``(seed, 0)``, its work is O(jumps + agents x windows) and its
memory is O(agents) plus the recorded snapshots.

Where the pathwise solution is explicit (linear drift, no diffusion),
``sample_linear_shot_noise_exact`` draws the state from it directly, at one
time or along each path at every time of an increasing sequence: a path's
jumps are drawn once, up to the last time, and each is summed once into
the Markov recursion between consecutive times.  The work is O(jumps up to
the last time), with no time steps and no discretization bias.  The
tanh-drift jump diffusion and its OU-driven companion are sampled exactly
too: ``sample_tanh_exact`` and ``sample_ou_tanh_exact`` advance each path
from jump to jump, the diffusion between jumps being a Brownian motion
with drift +beta or -beta, its sign drawn once per interval.  The exact
samplers draw chunk c of 4096 samples from stream (seed, 2**63 + 4096 c),
and ``sample_ou_tanh_exact`` from (seed, 2**63 + 2**62 + 4096 c), so a run
at one seed reads only that seed's streams.  A chunk's draws are made
whole, one chunk ahead on one helper thread (see ``_exact_chunks``): while
the calling thread sums chunk c, the helper fills chunk c + 1's buffers
from that chunk's own stream, so the values do not depend on the overlap.
The sums run in tiles of whole, consecutive paths (see ``_tiles``), each
holding at most about ``_TILE`` jumps, or up to twice as many grid cells,
per temporary array.  So a sampler holds two chunks' draws, one tile's
temporaries and its output.  A path's arithmetic does not depend on its
neighbours, so the tiles leave every value bit-identical.  Every Erlang
jump size, in the Euler reference, the exact sampler and the swarm, comes
from ``noise.erlang_magnitudes``.

Estimators (wave speed, normalized histograms, Kolmogorov-Smirnov
distance) live here as well.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .master import ConstantRate, ModelSpec
from .noise import erlang_magnitudes, laplace_magnitudes, stream

__all__ = [
    "SimConfig",
    "TrajectoryBatch",
    "SwarmSeries",
    "ExactSample",
    "EmpiricalDensity",
    "simulate_paths",
    "simulate_tanh",
    "simulate_ou_tanh",
    "simulate_swarm",
    "sample_linear_shot_noise_exact",
    "sample_tanh_exact",
    "sample_ou_tanh_exact",
    "estimate_speed",
    "speed_window",
    "empirical_density",
    "ks_distance",
    "interp_cdf",
]

_CHUNK = 4096  # draws per stream of the exact samplers
# first stream ids of the exact samplers: the OU sampler's chunks start
# 2**62 past the others, so one run's X and Y samples never share a stream
_EXACT_STREAM_BASE = 2**63
_OU_STREAM_BASE = 2**63 + 2**62
_TILE = 2**17  # values per temporary array of an exact sampler's tile of paths
# the one helper thread on which the exact samplers draw their next chunk;
# it starts at the first draw, not at import
_DRAWS = ThreadPoolExecutor(max_workers=1, thread_name_prefix="erlangshot-draws")
# interior times up to which the linear sampler finds each jump's interval
# by counting comparisons into a uint8 (at most 255) rather than by a binary
# search; the counting loop is O(times) per jump, and on 49 chunks of 24576
# jumps it stays faster than searchsorted up to about 255 times
_MAX_COUNTED_TIMES = 255
# ks_distance's slack for a cdf whose computed values fall where they should
# rise, as a table's do by rounding: far above a few ulps, and far below the
# 1/n steps of the ECDF, so few left limits fall within it of the sup
_KS_MARGIN = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, path count, seed, and recording stride of a
    simulation, which runs in one thread."""

    dt: float
    t_end: float
    n_paths: int
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not self.dt <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and satisfy dt <= t_end")
        steps = self.t_end / self.dt
        if not steps < math.inf or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end/dt = {steps!r} must be an integer step count")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))

    @property
    def n_records(self):
        """Recorded steps: every ``record_stride``-th from 0, and the last."""
        return -(-self.n_steps // self.record_stride) + 1

    def record_steps(self):
        """The ``n_records`` recorded step indices, ascending."""
        stride = self.record_stride
        steps = np.arange(0, self.n_records * stride, stride)
        steps[-1] = self.n_steps
        return steps


@dataclass(frozen=True)
class TrajectoryBatch:
    """Recorded positions for a batch of paths."""

    times: np.ndarray
    paths: np.ndarray  # (n_paths, n_recorded)
    jump_counts: np.ndarray  # per-path totals

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("recorded times must be strictly increasing")
        if self.paths.shape != (len(self.jump_counts), len(self.times)):
            raise ValueError("paths shape must be (n_paths, n_times)")

    @property
    def final_positions(self):
        return self.paths[:, -1]

    def tail_window_mean(self, fraction=0.5):
        """Per-path time averages over the trailing window, then their mean
        and standard error across paths."""
        t0 = self.times[-1] * (1.0 - fraction)
        sel = self.times >= t0
        per_path = self.paths[:, sel].mean(axis=1)
        n = len(per_path)
        return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class SwarmSeries:
    """Barycenter track and periodic position snapshots of the swarm."""

    times: np.ndarray
    barycenter: np.ndarray
    snapshots: np.ndarray  # (n_recorded, n_agents)
    n_agents: int
    m: int
    gamma: float
    beta: float
    # always 0: the swarm has no retries; kept only because the benchmark's
    # tracer (perfbench/tracer.py) reads it
    majorant_retries: int = 0
    proposals: int = 0  # exponential clock draws: N per window and one per jump
    jumps: int = 0  # jumps applied up to t_end

    def centered_tail_positions(self, fraction=0.5):
        """Pooled barycenter-centered positions over the trailing window."""
        t0 = self.times[-1] * (1.0 - fraction)
        sel = self.times >= t0
        return (self.snapshots[sel] - self.barycenter[sel, None]).ravel()


@dataclass(frozen=True)
class ExactSample:
    """Exact draws of a process state, one entry per draw or one row per
    time and one column per draw, and the jump count behind each draw.

    ``len()`` is the number of draws."""

    values: np.ndarray
    jump_counts: np.ndarray  # per-draw totals, up to the last time
    tile_values: int  # the largest tile's values per temporary array
    draw_wait: float  # seconds the caller waited for the helper's draws

    def __len__(self):
        return self.values.shape[-1]


@dataclass(frozen=True)
class EmpiricalDensity:
    """Normalized histogram: bin edges and per-bin masses summing to one."""

    bin_edges: np.ndarray
    masses: np.ndarray
    n_samples: int

    def __post_init__(self):
        if np.any(self.masses < 0) or abs(self.masses.sum() - 1.0) > 1e-12:
            raise ValueError("masses must be nonnegative and sum to one")


def _euler(step, state0, sigma, jumps, rate, config) -> TrajectoryBatch:
    """The Euler-Maruyama reference behind every path simulator, one step
    after another.

    ``step(state, incr)`` advances every path by one step in place:
    ``state`` has one row per variable (started at ``state0``) and one
    column per path, its last row is the recorded observable, and ``incr``
    holds the step's diffusion-plus-jump increment of every path.  ``jumps``
    is ``(d, magnitudes)``: ``magnitudes(u)`` maps an (n, d) array of
    uniforms to n jump sizes.  ``rate`` is the constant jump rate.

    The one stream ``(seed, 0)`` yields each path's jump count
    N_i ~ Poisson(rate * n_steps * dt), then the arrival uniforms of all
    the jumps, path after path, binned to steps, then their d magnitude
    uniforms each; given N_i, the per-step counts are independent
    Poisson(rate * dt), at O(jumps) cost.  Then, when sigma > 0, it yields
    n_paths normals per step, step after step.  A step's increment is
    sigma sqrt(dt) times its normals (zero when sigma = 0) plus its jumps,
    added in draw order.  Memory is O(paths + jumps + records), whatever
    the number of steps.
    """
    n_steps, n_paths, dt = config.n_steps, config.n_paths, config.dt
    rec = config.record_steps()
    out = np.empty((n_paths, len(rec)))
    gen = stream(config.seed, 0)
    counts = gen.poisson(rate * n_steps * dt, n_paths)
    total = int(counts.sum())
    steps = np.minimum((gen.random(total) * n_steps).astype(np.int64), n_steps - 1)
    sizes = jumps[1](gen.random((total, jumps[0])))
    # jumps sorted by step, each step's in draw order (a small integer type
    # sorts by radix)
    order = np.argsort(steps.astype(np.min_scalar_type(n_steps)), kind="stable")
    steps, sizes = steps[order], sizes[order]
    owners = np.repeat(np.arange(n_paths), counts)[order]
    state = np.repeat(np.asarray(state0, dtype=float)[:, None], n_paths, axis=1)
    out[:, 0] = state[-1]
    col = lo = 0
    for s in range(n_steps):
        if sigma > 0:
            incr = gen.standard_normal(n_paths)
            incr *= sigma * math.sqrt(dt)
        else:
            incr = np.zeros(n_paths)
        hi = np.searchsorted(steps, s, side="right")
        if hi > lo:
            np.add.at(incr, owners[lo:hi], sizes[lo:hi])
            lo = hi
        step(state, incr)
        if s + 1 == rec[col + 1]:
            col += 1
            out[:, col] = state[-1]
    return TrajectoryBatch(rec * dt, out, counts)


def _erlang_jumps(law):
    return law.m, lambda u: erlang_magnitudes(u, law.gamma)


def _laplace_jumps(gamma):
    return 1, lambda u: laplace_magnitudes(u[:, 0], gamma)


def simulate_paths(model: ModelSpec, config: SimConfig, x0=0.0) -> TrajectoryBatch:
    """Euler-Maruyama paths of the shot-noise SDE with Erlang jumps.

    The rate must be the constant variant here; state-dependent rates are
    handled by the swarm simulator.  Step order is drift, diffusion, jumps.
    """
    if not isinstance(model.rate, ConstantRate):
        raise ValueError("simulate_paths requires a constant Poisson rate")
    drift, dt = model.drift.b, config.dt

    def step(state, incr):
        x = state[0]
        x += drift(x) * dt
        x += incr

    return _euler(step, [x0], model.sigma, _erlang_jumps(model.jumps), model.rate.lam, config)


def simulate_tanh(lam, gamma, beta, config: SimConfig) -> TrajectoryBatch:
    """Euler paths of dX = beta tanh(beta X) dt + dW + Laplace-jump compound
    Poisson, started at zero: the dt-biased cross-check of
    ``sample_tanh_exact``."""
    if lam < 0 or not gamma > 0 or not beta > 0:
        raise ValueError("need lam >= 0, gamma > 0, beta > 0")
    dt = config.dt

    def step(state, incr):
        x = state[0]
        x += beta * np.tanh(beta * x) * dt
        x += incr

    return _euler(step, [0.0], 1.0, _laplace_jumps(gamma), lam, config)


def simulate_ou_tanh(alpha, lam, gamma, beta, config: SimConfig) -> TrajectoryBatch:
    """Euler paths of dY = -alpha Y dt + dX, driven step-for-step by the
    tanh-drift jump diffusion increments dX: the dt-biased cross-check of
    ``sample_ou_tanh_exact``."""
    if not alpha > 0 or lam < 0 or not gamma > 0 or beta < 0:
        raise ValueError("need alpha > 0, lam >= 0, gamma > 0, beta >= 0")
    dt = config.dt

    def step(state, incr):
        x, y = state
        dx = beta * np.tanh(beta * x) * dt + incr
        y -= alpha * dt * y
        y += dx
        x += dx

    return _euler(step, [0.0, 0.0], 1.0, _laplace_jumps(gamma), lam, config)


def sample_linear_shot_noise_exact(alpha, lam, gamma, m, x0, t, n, seed) -> ExactSample:
    """Exact samples of the linear-drift shot-noise state at time t, or
    along each path at every time of an increasing sequence t.

    For drift -alpha x and no diffusion the SDE has the explicit solution
    X_t = x0 e^{-alpha t} + Y_t, Y_t = sum_{tau_j <= t} J_j e^{-alpha (t - tau_j)},
    with jump times uniform on [0, t_max] given their Poisson(lam t_max)
    count and Erlang(m, gamma) magnitudes; each path is drawn from it
    directly, once, up to the largest time t_max.  Between consecutive
    times the jump part follows the Markov recursion
        Y_i = Y_{i-1} e^{-alpha (t_i - t_{i-1})}
              + sum_{t_{i-1} < tau_j <= t_i} J_j e^{-alpha (t_i - tau_j)},
    so each jump is summed once and the work is O(jumps up to t_max): no
    time steps and no discretization error.  Y is carried apart from x0,
    so a path that saw no jump by t_i sits at exactly x0 * exp(-alpha * t_i).

    Chunk c of 4096 paths draws from stream ``(seed, 2**63 + 4096 c)``:
    the chunk's Poisson counts, then its arrival uniforms, then its
    magnitude uniforms (see ``_exact_chunks``).  A chunk's jumps are worked
    on in tiles of whole paths of at most about ``_TILE`` jumps (see
    ``_tiles``); a tile writes its paths' sums per interval into their
    columns of ``values``, and the recursion then runs down the chunk's
    columns.  ``values`` has shape (n,) for a scalar t and (len(t), n) for a
    sequence, row i holding X_{t_i}; ``jump_counts`` holds each path's
    Poisson count up to t_max, ``tile_values`` the largest tile's jumps or
    its len(t) rows of paths, and ``draw_wait`` the seconds spent waiting
    for draws.  Times must be finite, positive and strictly increasing
    (ValueError).
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or not times.size:
        raise ValueError("t must be a time or a non-empty sequence of times")
    if not np.all(np.isfinite(times) & (times > 0)):
        raise ValueError("times must be finite and positive")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    n_times, t_max = len(times), float(times[-1])
    # scalar exp per time, as in atom_location: a no-jump path equals it exactly
    base = np.array([x0 * np.exp(-alpha * ti) for ti in times.tolist()])
    decay = np.exp(-alpha * np.diff(times))
    values = np.empty((n_times, n))
    counts = np.empty(n, dtype=np.int64)
    largest = 0

    def chunk(lo, hi, nj, arrivals, mag_u):
        nonlocal largest
        counts[lo:hi] = nj
        if not arrivals.size:
            values[:, lo:hi] = base[:, None]
            return
        # Y of each time, in the chunk's columns of values: a tile sets its
        # jumps' sums per interval, then the recursion runs down the rows
        ys = values[:, lo:hi]
        for a, b, js in _tiles(nj, len(arrivals) / (hi - lo)):
            k = b - a
            largest = max(largest, js.stop - js.start, n_times * k)
            tau = t_max * arrivals[js]
            jm = erlang_magnitudes(mag_u[js], gamma)
            # the comparison interval (t_{i-1}, t_i] of each jump, tau <= t_max:
            # the count of times below tau, which is searchsorted's left index
            if n_times == 1:
                span = 0
            elif n_times - 1 <= _MAX_COUNTED_TIMES:
                span = np.zeros(len(tau), dtype=np.uint8)
                for ti in times[:-1].tolist():
                    span += tau > ti
            else:
                span = np.searchsorted(times, tau)
            contrib = jm * np.exp(-alpha * (times[span] - tau))
            # each jump's (interval, path) cell, added in place: a numpy scalar
            # left of + would cost a copy of the temporary numpy reuses; the
            # intp factor widens a uint8 span before it is scaled
            cell = np.repeat(np.arange(k), nj[a:b])
            cell += span * np.intp(k)
            new = np.bincount(cell, weights=contrib, minlength=n_times * k)
            ys[:, a:b] = new.reshape(n_times, k)
        for i in range(1, n_times):
            ys[i] += ys[i - 1] * decay[i - 1]
        ys += base[:, None]

    waited = _exact_chunks(n, seed, lam * t_max, m, chunk)
    return ExactSample(values[0] if np.ndim(t) == 0 else values, counts, largest, waited)


def _tiles(nj, per_path, min_width=1):
    """The tiles of a chunk whose paths hold nj jumps and per_path values of
    a temporary array each: ``(a, b, jumps)``, paths a ... b - 1 and the
    slice of their jumps.  Tiles are runs of whole, consecutive paths of
    equal widths (to one path), as few as hold at most about ``_TILE``
    values each, so a chunk within the budget is one tile; none is
    narrower than min_width paths unless the chunk is."""
    k = len(nj)
    width = max(min_width, -(-k // max(1, math.ceil(k * per_path / _TILE))))
    j0 = 0
    for a in range(0, k, width):
        b = min(k, a + width)
        j1 = j0 + int(nj[a:b].sum())
        yield a, b, slice(j0, j1)
        j0 = j1


def _exact_chunks(n, seed, mean_jumps, d, work, normals=0, base=_EXACT_STREAM_BASE):
    """Call ``work(lo, hi, counts, arrivals, magnitude uniforms)`` on each
    chunk of an exact sampler's draws, in order, with ``sign uniforms,
    normals`` after them when ``normals`` > 0; return the seconds this
    thread waited for the draws.

    Chunk c holds draws 4096 c ... 4096 c + 4095 and reads the stream
    ``(seed, base + 4096 c)``: first the chunk's Poisson(mean_jumps) jump
    counts, then the arrival uniforms of all its jumps, draw after draw,
    then d magnitude uniforms per jump.  With ``normals`` > 0 it then draws
    one sign uniform per interval between jumps, a path of N jumps holding
    N + 1, and then ``normals`` standard normals per interval.

    The draws are made on the helper thread ``_DRAWS``, one chunk ahead:
    while ``work`` sums chunk c, the helper fills chunk c + 1's buffers and
    then draws chunk c + 2's counts.  Each chunk reads its own stream of a
    counter-based generator, so no value depends on this overlap.  This
    thread allocates every buffer, chunk c + 1's once ``work`` has let go of
    chunk c - 1, so a sampler holds at most two chunks' draws; the helper
    only fills them, and makes just the counts.  If ``work`` raises, the
    helper's pending draws are cancelled or waited for before the error
    propagates.
    """
    def draw(fills, lo):
        # one chunk's buffers in stream order, then the stream and counts of
        # the chunk at lo, if any
        for fill, out in fills:
            fill(out=out)
        if lo < n:
            gen = stream(seed, base + lo)
            return gen, gen.poisson(mean_jumps, min(_CHUNK, n - lo))
        return None

    waited = 0.0

    def result(job):
        nonlocal waited
        start = time.perf_counter()
        out = job.result()
        waited += time.perf_counter() - start
        return out

    job = _DRAWS.submit(draw, [], 0)
    try:
        ready = None
        for lo in range(0, n, _CHUNK):
            # the chunk at lo's counts; the helper has filled the chunk before
            gen, nj = result(job)
            total = int(nj.sum())
            draws = [np.empty(total), np.empty((total, d))]
            fills = [(gen.random, out) for out in draws]
            if normals:
                draws += [np.empty(len(nj) + total), np.empty((len(nj) + total, normals))]
                fills += [(gen.random, draws[2]), (gen.standard_normal, draws[3])]
            job = _DRAWS.submit(draw, fills, lo + _CHUNK)
            if ready is not None:
                work(*ready)
            ready = (lo, lo + len(nj), nj, *draws)
        result(job)
        if ready is not None:
            work(*ready)
    finally:
        if not job.cancel():
            wait([job])
    return waited


def sample_tanh_exact(lam, gamma, beta, t, n, seed) -> ExactSample:
    """Exact samples at time t of dX = beta tanh(beta X) dt + dW +
    Laplace-jump compound Poisson, started at zero.

    Between jumps the diffusion is the cosh(beta x) Doob h-transform of
    Brownian motion: from x, a Brownian motion with drift s beta, the sign
    s = +1 drawn once with probability (1 + tanh(beta x)) / 2.  Each path is
    advanced from jump to jump by this law, so there is no time step and no
    discretization bias.  The work is not O(jumps): ``_jump_adapted`` pads
    each tile of paths to its largest jump count.  It also gives the
    stream layout.  ``values`` holds X_t, ``jump_counts`` each path's jumps.
    """
    if lam < 0 or not gamma > 0 or not beta > 0:
        raise ValueError("need lam >= 0, gamma > 0, beta > 0")
    return _jump_adapted(lam, gamma, beta, t, n, seed)


def sample_ou_tanh_exact(alpha, lam, gamma, beta, t, n, seed) -> ExactSample:
    """Exact samples at time t of dY = -alpha Y dt + dX, X being the
    tanh-drift jump diffusion of ``sample_tanh_exact``; X and Y start at 0.

    Over an interval of length d between jumps, with X's drift sign s
    drawn as there, Y_d = Y e^{-alpha d} + s beta (1 - e^{-alpha d}) / alpha + I
    and X_d = X + s beta d + W, where the Brownian parts (W, I) are jointly
    Gaussian with Var W = d, Var I = (1 - e^{-2 alpha d}) / (2 alpha) and
    Cov(W, I) = (1 - e^{-alpha d}) / alpha.  A jump moves X and Y alike.
    Chunk c reads the stream ``(seed, 2**63 + 2**62 + 4096 c)``, apart from
    every stream of ``sample_tanh_exact`` at the same seed.  ``values``
    holds Y_t, ``jump_counts`` each path's jumps.
    """
    if not alpha > 0 or lam < 0 or not gamma > 0 or beta < 0:
        raise ValueError("need alpha > 0, lam >= 0, gamma > 0, beta >= 0")
    return _jump_adapted(lam, gamma, beta, t, n, seed, alpha)


def _jump_adapted(lam, gamma, beta, t, n, seed, alpha=None):
    """The jump-adapted sampler of X_t, or of Y_t when ``alpha`` is given.

    After its jumps a chunk draws one sign uniform per interval, then one
    standard normal per interval for X, or two for Y (per interval, W's and
    then I's); ``_exact_chunks`` makes all of a chunk's draws.  A path of N
    jumps has N + 1 intervals, and intervals are ordered path after path,
    each path's in time order.  A path's jump times are its N arrival
    uniforms, sorted, times t, and its magnitudes follow them in draw order.

    The chunk's paths are advanced in tiles (see ``_tiles``), each costing
    p (N_max + 1) grid cells per coefficient (see ``_advance``) for its p
    paths and its largest jump count N_max, against the sum over its paths
    of N_i + 1, the intervals they hold.  At rate 1 a whole chunk's grid is
    3.5 (X) and 3.9 (Y) times its intervals at t = 1, and 1.8 and 1.9 at
    t = 20: the padding weighs most where few jumps are expected per path.
    Tiles are cut for the chunk's largest N_max to hold at most about
    ``_TILE`` cells per coefficient.  A round costs about a dozen numpy
    calls whatever its width, so where that would leave tiles narrower than
    a quarter chunk (past 128 cells per path, lambda t near 100), they are
    1024 paths wide, or, past 256 cells per path, as wide as 2 * ``_TILE``
    cells allow: at lambda t = 100 to 1000, narrower tiles were measured
    4-18% slower.  ``tile_values`` is the largest tile's p (N_max + 1), and
    ``draw_wait`` the seconds spent waiting for draws.
    """
    if not 0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    values = np.empty(n)
    counts = np.empty(n, dtype=np.int64)
    largest = 0

    def chunk(lo, hi, nj, arrivals, mag_u, up, z):
        nonlocal largest
        counts[lo:hi] = nj
        cells = int(nj.max()) + 1  # per path, for the chunk's busiest path
        for a, b, js in _tiles(nj, cells, min(_CHUNK // 4, 2 * _TILE // cells)):
            largest = max(largest, (b - a) * (int(nj[a:b].max()) + 1))
            # a path of N jumps holds N + 1 intervals
            ivs = slice(js.start + a, js.stop + b)
            mags = laplace_magnitudes(mag_u[js, 0], gamma)
            values[lo + a : lo + b] = _advance(
                nj[a:b], arrivals[js], mags, up[ivs], z[ivs], t, beta, alpha
            )

    base = _EXACT_STREAM_BASE if alpha is None else _OU_STREAM_BASE
    waited = _exact_chunks(n, seed, lam * t, 1, chunk, 1 if alpha is None else 2, base)
    return ExactSample(values, counts, largest, waited)


def _advance(nj, arrivals, mags, up, z, t, beta, alpha):
    """X_t, or Y_t when ``alpha`` is given, of paths with nj jumps each,
    from their draws in the order of ``_jump_adapted``.

    Each interval's coefficients are set into a grid of rounds by paths,
    cell (r, i) holding path i's interval r; a cell past a path's last
    interval has length zero, no jump and no noise, and leaves the path
    where it is.  The paths then advance together, one round at a time.
    """
    # (path, r) cells: the path's r-th jump, the path's r-th interval
    rounds = np.arange(nj.max() + 1)
    jumped = rounds < nj[:, None]
    lived = rounds <= nj[:, None]
    # interval r ends at the path's r-th jump in time order, the last at t
    ends = np.ones(jumped.shape)
    ends[jumped] = arrivals
    ends.sort(axis=1)
    length = np.diff(t * ends, axis=1, prepend=0.0)[lived]
    jump = np.zeros(jumped.shape)
    jump[jumped] = mags
    jump = jump[lived]
    # one row of coefficients per round; cols[j] is coefficient j by path
    grid = np.zeros((3 if alpha is None else 6, len(rounds), len(nj)))
    cols = grid.transpose(0, 2, 1)
    root = np.sqrt(length)
    cols[0][lived] = up
    cols[1][lived] = beta * length
    cols[2][lived] = root * z[:, 0] + jump
    if alpha is not None:
        gap = -np.expm1(-alpha * length)  # 1 - e^{-alpha d}
        cov = gap / alpha
        slope = np.divide(cov, root, out=np.zeros_like(root), where=length > 0)
        # Var(I | W), clipped at the rounding of its cancellation
        rest = np.maximum(-np.expm1(-2.0 * alpha * length) / (2.0 * alpha) - slope**2, 0.0)
        grid[3] = 1.0
        cols[3][lived] = 1.0 - gap
        cols[4][lived] = beta * cov
        cols[5][lived] = slope * z[:, 0] + np.sqrt(rest) * z[:, 1] + jump
    x = np.zeros(len(nj))
    y = np.zeros(len(nj))
    for row in grid.transpose(1, 0, 2):
        sign = np.where(row[0] < 0.5 * (1.0 + np.tanh(beta * x)), 1.0, -1.0)
        x += sign * row[1] + row[2]
        if alpha is not None:
            y *= row[3]
            y += sign * row[4] + row[5]
    return x if alpha is None else y


# ---------------------------------------------------------------------------
# interacting swarm


_EVENTS_PER_AGENT = 1.0  # expected jumps per agent in one window of the swarm's clock


def simulate_swarm(n_agents, m, gamma, beta, config: SimConfig) -> SwarmSeries:
    """Pure-jump agents coupled through their barycenter, simulated exactly.

    Each agent jumps at instantaneous rate exp(-beta (x_i - xbar)) with
    Erlang(m, gamma) magnitudes, xbar being the empirical mean position
    (the finite-population stand-in for the mean-field average), updated
    at every jump.  The rate factors into a common part
    A = exp(beta (xbar - ref)) and an individual part
    g_i = exp(-beta (x_i - ref)).  On the clock Lambda(t) = int A dt the
    agents are independent pure-jump processes of rates g_i, and xbar
    enters only through the time change dt = dLambda / A, which is
    piecewise constant between jumps (Ethier & Kurtz 1986, ch. 6).  So
    the run has no discretization bias, and ``config.dt`` only sets the
    grid on which the swarm is recorded.

    The run advances in windows of the clock.  A window sets ``ref`` to
    the barycenter, takes the width W = ``_EVENTS_PER_AGENT`` * N / sum g_i
    (about one expected jump per agent) and gives every agent the target
    Lambda_i = E_i / g_i with E_i ~ Exp(1); a fresh draw per window is
    exact by memorylessness.  In vectorised rounds, every agent whose
    target is at most W jumps there, draws its magnitude and gets the next
    target Lambda_i + E / g_i at its new position.  The window's jumps,
    sorted by Lambda, give the barycenter before each jump and so the
    event times t_0 + cumsum(dLambda / A).  At each record time of the
    window the jumps up to it are applied in order and the positions and
    their mean recorded; jumps after the last record time are dropped.

    All randomness comes from the one stream ``(seed, 0)``.  Per window it
    yields N standard exponentials for the targets, then, round by round,
    m magnitude uniforms per jumping agent and one standard exponential
    per jumping agent for its next target, agents in increasing order.
    Work is O(jumps + N * windows) numpy work and memory is O(n_agents)
    plus the recorded snapshots; ``proposals`` counts the exponential
    clock draws (N per window and one per jump) and ``jumps`` the jumps
    applied up to ``t_end``.

    Agents start at zero; the barycenter and full position snapshots are
    recorded every ``record_stride`` steps.
    """
    if n_agents < 2:
        raise ValueError("need at least 2 agents")
    if int(m) != m or m < 1:
        raise ValueError("Erlang shape m must be an integer >= 1")
    if not gamma > 0 or not beta > 0:
        raise ValueError("gamma and beta must be positive")

    gen = stream(config.seed, 0)
    times = config.record_steps() * config.dt
    snaps = np.zeros((len(times), n_agents))
    bary = np.zeros(len(times))
    x = np.zeros(n_agents)
    t0 = 0.0
    rec = 1  # next record; record 0 is the start
    proposals = jumps = 0
    while rec < len(times):
        ref = x.mean()
        width = _EVENTS_PER_AGENT * n_agents / np.exp(-beta * (x - ref)).sum()
        target = gen.standard_exponential(n_agents) * np.exp(beta * (x - ref))
        proposals += n_agents
        end = x.copy()  # positions after the window's jumps
        who, lam, size = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], [np.zeros(0)]
        act = np.flatnonzero(target <= width)
        while act.size:
            mags = erlang_magnitudes(gen.random((act.size, m)), gamma)
            who.append(act)
            lam.append(target[act])
            size.append(mags)
            end[act] += mags
            target[act] += gen.standard_exponential(act.size) * np.exp(beta * (end[act] - ref))
            proposals += act.size
            act = act[target[act] <= width]
        order = np.argsort(np.concatenate(lam))
        who, lam, size = (np.concatenate(a)[order] for a in (who, lam, size))
        # the barycenter's advance in the window before each jump and at its end
        rise = np.concatenate([[0.0], np.cumsum(size) / n_agents])
        at = t0 + np.cumsum(np.diff(lam, prepend=0.0, append=width) * np.exp(-beta * rise))
        t0 = at[-1]
        done = 0
        while rec < len(times) and times[rec] < t0:
            upto = int(np.searchsorted(at[:-1], times[rec], side="right"))
            np.add.at(x, who[done:upto], size[done:upto])
            done = upto
            snaps[rec] = x
            bary[rec] = x.mean()
            rec += 1
        jumps += done if rec == len(times) else len(who)
        x = end

    return SwarmSeries(
        times=times,
        barycenter=bary,
        snapshots=snaps,
        n_agents=n_agents,
        m=m,
        gamma=gamma,
        beta=beta,
        proposals=proposals,
        jumps=jumps,
    )


# ---------------------------------------------------------------------------
# estimators


# recorded times that estimate_speed needs in its window
_MIN_SPEED_FIT_TIMES = 10


def speed_window(times, fraction):
    """Mask of the recorded ``times`` in the trailing ``fraction`` of the
    run, which ``estimate_speed`` fits over; raises ValueError when it holds
    fewer than ``_MIN_SPEED_FIT_TIMES``."""
    if not 0 < fraction <= 1:
        raise ValueError("the window fraction must be in (0, 1]")
    sel = times >= times[-1] * (1.0 - fraction)
    if np.count_nonzero(sel) < _MIN_SPEED_FIT_TIMES:
        raise ValueError(f"fewer than {_MIN_SPEED_FIT_TIMES} recorded times in the trailing "
                         f"{fraction:g} of the run")
    return sel


def estimate_speed(series: SwarmSeries, window_fraction=0.5):
    """Least-squares slope of the barycenter over the trailing window."""
    sel = speed_window(series.times, window_fraction)
    return float(np.polyfit(series.times[sel], series.barycenter[sel], 1)[0])


def empirical_density(samples, n_bins) -> EmpiricalDensity:
    """Normalized histogram over [min, max] with equal-width bins."""
    samples = np.asarray(samples, dtype=float)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    lo, hi = samples.min(), samples.max()
    if samples.size < 2 or lo == hi:
        raise ValueError("degenerate sample: need at least 2 distinct values")
    counts, edges = np.histogram(samples, bins=n_bins, range=(lo, hi))
    return EmpiricalDensity(edges, counts / samples.size, samples.size)


def ks_distance(samples, cdf):
    """Sup-norm distance between the empirical CDF of samples and ``cdf``.

    Correct for reference distributions with atoms: the sup is attained at
    a sample point or just before one, so both one-sided limits of the
    reference CDF are compared against the matching ECDF limits.  With
    x_1 < ... < x_k the distinct sample values and c_i the number of samples
    below x_i (c_{k+1} = n), the distance is max(D+, D-), where
    D+ = max_i |c_{i+1}/n - F(x_i)|, D- = max_i |F(x_i-) - c_i/n|, and
    F(x-) is ``cdf`` at the next float below x.

    ``cdf`` is evaluated once at each distinct value, and at a left limit
    only where that term can exceed D+.  Suppose F's computed values are
    nondecreasing up to eps (x < y gives F(x) <= F(y) + eps) and lie in
    [0, 1] up to rounding, as do an exact CDF and ``interp_cdf`` of a
    nondecreasing table.  A term with F(x_i-) >= c_i/n is at most
    F(x_i) - c_i/n + eps; one with F(x_i-) < c_i/n is at most
    c_i/n - F(x_{i-1}) + eps, c_i being the count up to x_{i-1}.  So a term
    can exceed D+ only where F(x_i) - c_i/n or c_i/n - F(x_{i-1}) is above
    D+ - margin, the margin ``_KS_MARGIN`` (1e-9) covering eps and the
    rounding of the differences (2.3e-16).  Those i, and i = 1, are the
    candidates; at every other i the term is at most D+ as computed, so the
    result equals the maximum over all terms bit for bit.

    The sorted copy of the sample is reused as scratch; the array ``cdf``
    returns is never written.
    """
    xs = np.sort(np.asarray(samples, dtype=float), axis=None)
    n = xs.size
    if not n:
        raise ValueError("ks_distance needs at least one sample")
    # c_i: the first index of each run of equal values
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    c = np.flatnonzero(first)
    del first
    xu = xs[c]
    scratch = xs[: len(c)]
    f = np.asarray(cdf(xu), dtype=float)
    # D+, from c_{i+1}/n - F(x_i) in the scratch
    np.divide(c[1:], n, out=scratch[:-1])
    scratch[-1] = 1.0
    np.subtract(scratch, f, out=scratch)
    # max |.| without an array of absolute values
    d_plus = max(scratch.max(), -scratch.min())
    cut = d_plus - _KS_MARGIN
    near = np.empty(len(c), dtype=bool)
    near[0] = True
    np.greater(scratch[:-1], cut, out=near[1:])
    # F(x_i) - c_i/n in the scratch
    np.divide(c, n, out=scratch)
    np.subtract(f, scratch, out=scratch)
    near |= scratch > cut
    at = np.flatnonzero(near)
    f_left = np.asarray(cdf(np.nextafter(xu[at], -np.inf)), dtype=float)
    d_minus = np.max(np.abs(f_left - c[at] / n))
    return float(max(d_plus, d_minus))


def interp_cdf(grid_x, grid_cdf):
    """CDF callable by linear interpolation of a tabulated grid."""
    def cdf(x):
        return np.interp(x, grid_x, grid_cdf, left=0.0, right=1.0)

    return cdf
