"""Monte Carlo engine: jump-diffusion paths, exact linear shot-noise
samples, and the mean-field swarm.

Path simulation is an Euler-Maruyama reference with a fixed in-step order
(drift, then diffusion, then jumps), kept as the dt-biased cross-check of
the exact samplers below; no command of the CLI runs it.  One function,
``_euler``, serves every path simulator.  It draws from the one stream
``(seed, 0)``: every path's total jump count, then the jumps' arrival and
magnitude uniforms, then the Gaussian normals step after step.  Work on
jumps is O(jumps) rather than O(steps), and increments are built a
bounded block of steps at a time, so memory does not grow with the number
of steps.  A path's draws depend on the seed and on the batch's shape.

The interacting swarm couples pure jump agents through the empirical
barycenter entering their Poisson rates; within a step the barycenter is
frozen, and each agent's rate is simulated by thinning against its rate
at the step start, which its own jumps can only lower.  The swarm draws
from the one stream ``(seed, 0)``: per step one Poisson total of
proposals, allocated to agents in proportion to their start rates by a
block-sum picker, then, round by round, the acceptance uniforms and the
magnitude uniforms of the accepted proposals, so a step's work is
O(proposals + agents / 32) and its memory is O(agents).

Where the pathwise solution is explicit (linear drift, no diffusion),
``sample_linear_shot_noise_exact`` draws the state from it directly, at one
time or along each path at every time of an increasing sequence: a path's
jumps are drawn once, up to the last time, and each is summed once into
the Markov recursion between consecutive times.  The work is O(jumps up to
the last time), with no time steps and no discretization bias.  The
tanh-drift jump diffusion and its OU-driven companion are sampled exactly
too: ``sample_tanh_exact`` and ``sample_ou_tanh_exact`` advance each path
from jump to jump, the diffusion between jumps being a Brownian motion
with drift +beta or -beta, its sign drawn once per interval.  Every Erlang
jump size, in the Euler reference, the exact sampler and the swarm, comes
from ``noise.erlang_magnitudes``.

Estimators (wave speed, normalized histograms, Kolmogorov-Smirnov
distance) live here as well.
"""

from __future__ import annotations

import math
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
    "ThinningError",
    "simulate_paths",
    "simulate_tanh",
    "simulate_ou_tanh",
    "simulate_swarm",
    "sample_linear_shot_noise_exact",
    "sample_tanh_exact",
    "sample_ou_tanh_exact",
    "estimate_speed",
    "empirical_density",
    "ks_distance",
    "interp_cdf",
]

_CHUNK = 4096  # draws per stream of the exact samplers
_EULER_CELLS = 2**17  # (step, path) increments per block of the Euler reference
_ESTIMATOR_STREAM_BASE = 2**63
_CELLS = 2**18  # (round, path) cells per block of the jump-adapted sampler


class ThinningError(RuntimeError):
    """Raised when a swarm step still expects too many thinning proposals
    after 24 halvings."""


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

    def record_steps(self):
        steps = list(range(0, self.n_steps + 1, self.record_stride))
        if steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return np.asarray(steps)


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
    proposals: int = 0  # thinning proposals of every (sub-)step
    jumps: int = 0  # accepted proposals

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
    """The Euler-Maruyama reference behind every path simulator.

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
    one normal per step and path, step after step, drawn k = max(1,
    ``_EULER_CELLS`` // n_paths) steps at a time: memory is bounded
    whatever the number of steps, and the result does not depend on k.
    """
    n_steps, n_paths, dt = config.n_steps, config.n_paths, config.dt
    rec = config.record_steps()
    out = np.empty((n_paths, len(rec)))
    gen = stream(config.seed, 0)
    counts = gen.poisson(rate * n_steps * dt, n_paths)
    total = int(counts.sum())
    steps = np.minimum((gen.random(total) * n_steps).astype(np.int64), n_steps - 1)
    sizes = jumps[1](gen.random((total, jumps[0])))
    k = max(1, _EULER_CELLS // n_paths)
    n_blocks = -(-n_steps // k)
    # each jump's flat (step, path) cell in its block of k steps; jumps are
    # grouped by block in draw order (a small integer type sorts by radix)
    cells = (steps % k) * n_paths + np.repeat(np.arange(n_paths), counts)
    blocks = (steps // k).astype(np.min_scalar_type(n_blocks))
    order = np.argsort(blocks, kind="stable")
    edges = np.searchsorted(blocks[order], np.arange(n_blocks + 1))
    cells, sizes = cells[order], sizes[order]
    buf = np.empty((min(k, n_steps), n_paths))
    state = np.repeat(np.asarray(state0, dtype=float)[:, None], n_paths, axis=1)
    out[:, 0] = state[-1]
    col = 0
    for b, b0 in enumerate(range(0, n_steps, k)):
        incr = buf[: min(k, n_steps - b0)]
        if sigma > 0:
            gen.standard_normal(out=incr)
            incr *= sigma * math.sqrt(dt)
        else:
            incr.fill(0.0)
        here = slice(edges[b], edges[b + 1])
        np.add.at(incr.reshape(-1), cells[here], sizes[here])
        for s, row in enumerate(incr, start=b0 + 1):
            step(state, row)
            if s == rec[col + 1]:
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
    sigma = float(model.diffusion.sigma(np.zeros(1))[0])
    drift, dt = model.drift.b, config.dt

    def step(state, incr):
        x = state[0]
        x += drift(x) * dt
        x += incr

    return _euler(step, [x0], sigma, _erlang_jumps(model.jumps), model.rate.lam, config)


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
    magnitude uniforms.  ``values`` has shape (n,) for a scalar t and
    (len(t), n) for a sequence, row i holding X_{t_i}; ``jump_counts`` holds
    each path's Poisson count up to t_max.  Times must be finite, positive
    and strictly increasing (ValueError).
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
    for lo, hi, _, nj, arrivals, mag_u in _exact_chunks(n, seed, lam * t_max, m):
        k = hi - lo
        counts[lo:hi] = nj
        if not arrivals.size:
            values[:, lo:hi] = base[:, None]
            continue
        tau = t_max * arrivals
        jm = erlang_magnitudes(mag_u, gamma)
        # the comparison interval (t_{i-1}, t_i] of each jump; tau <= t_max
        span = np.searchsorted(times, tau) if n_times > 1 else 0
        contrib = jm * np.exp(-alpha * (times[span] - tau))
        cell = span * k + np.repeat(np.arange(k), nj)
        new = np.bincount(cell, weights=contrib, minlength=n_times * k).reshape(n_times, k)
        y = new[0]
        values[0, lo:hi] = base[0] + y
        for i in range(1, n_times):
            y = y * decay[i - 1] + new[i]
            values[i, lo:hi] = base[i] + y
    return ExactSample(values[0] if np.ndim(t) == 0 else values, counts)


def _exact_chunks(n, seed, mean_jumps, d):
    """The chunks of an exact sampler, each with its jump draws.

    Chunk c holds draws 4096 c ... 4096 c + 4095 and reads the stream
    ``(seed, 2**63 + 4096 c)``: first the chunk's Poisson(mean_jumps) jump
    counts, then the arrival uniforms of all its jumps, draw after draw,
    then d magnitude uniforms per jump.  Yields ``(lo, hi, gen, counts,
    arrivals, magnitude uniforms)``, ``gen`` going on with the chunk's
    stream for the sampler's own draws.
    """
    for lo in range(0, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        gen = stream(seed, _ESTIMATOR_STREAM_BASE + lo)
        counts = gen.poisson(mean_jumps, hi - lo)
        total = int(counts.sum())
        yield lo, hi, gen, counts, gen.random(total), gen.random((total, d))


def sample_tanh_exact(lam, gamma, beta, t, n, seed) -> ExactSample:
    """Exact samples at time t of dX = beta tanh(beta X) dt + dW +
    Laplace-jump compound Poisson, started at zero.

    Between jumps the diffusion is the cosh(beta x) Doob h-transform of
    Brownian motion: from x, a Brownian motion with drift s beta, the sign
    s = +1 drawn once with probability (1 + tanh(beta x)) / 2.  Each path is
    advanced from jump to jump by this law, so there is no time step and no
    discretization bias; the work is O(jumps).  ``_jump_adapted`` gives the
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
    ``values`` holds Y_t, ``jump_counts`` each path's jumps.
    """
    if not alpha > 0 or lam < 0 or not gamma > 0 or beta < 0:
        raise ValueError("need alpha > 0, lam >= 0, gamma > 0, beta >= 0")
    return _jump_adapted(lam, gamma, beta, t, n, seed, alpha)


def _jump_adapted(lam, gamma, beta, t, n, seed, alpha=None):
    """The jump-adapted sampler of X_t, or of Y_t when ``alpha`` is given.

    After its jumps (see ``_exact_chunks``) a chunk draws one sign uniform
    per interval, then one standard normal per interval for X, or two for
    Y (per interval, W's and then I's).  A path of N jumps has N + 1
    intervals, and intervals are ordered path after path, each path's in
    time order.  A path's jump times are its N arrival uniforms, sorted,
    times t, and its magnitudes follow them in draw order.  The chunk's
    paths are advanced in blocks of whole paths, each of at most about
    ``_CELLS`` grid cells (see ``_advance``), which bounds the memory.
    """
    if not 0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    values = np.empty(n)
    counts = np.empty(n, dtype=np.int64)
    for lo, hi, gen, nj, arrivals, mag_u in _exact_chunks(n, seed, lam * t, 1):
        counts[lo:hi] = nj
        mags = laplace_magnitudes(mag_u[:, 0], gamma)
        up = gen.random(hi - lo + len(arrivals))
        z = gen.standard_normal((len(up), 1 if alpha is None else 2))
        # a path's jumps and intervals start where the earlier paths' end
        jump_at = np.concatenate([[0], np.cumsum(nj)])
        interval_at = jump_at + np.arange(hi - lo + 1)
        width = max(1, _CELLS // (int(nj.max()) + 1))
        for b0 in range(0, hi - lo, width):
            b1 = min(hi - lo, b0 + width)
            js = slice(jump_at[b0], jump_at[b1])
            ivs = slice(interval_at[b0], interval_at[b1])
            values[lo + b0 : lo + b1] = _advance(
                nj[b0:b1], arrivals[js], mags[js], up[ivs], z[ivs], t, beta, alpha
            )
    return ExactSample(values, counts)


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


_AGENT_BLOCK = 32  # agents per block of the swarm's weighted picker
_PICK_CHUNK = 4096  # picks resolved per pass, bounding the picker's temporaries
_MAX_PROPOSALS = 64  # expected per agent and (sub-)step; a step expecting more is split
_RECENTRE = 32.0  # re-centre the swarm's weights once beta |xbar - ref| passes this


def _pick_weighted(u, w2d, cum):
    """Row-major indices into ``w2d`` drawn with probability proportional
    to their weights, one per uniform in ``u`` (values in [0, 1)).

    ``w2d`` holds nonnegative weights in rows of ``_AGENT_BLOCK``; ``cum``
    is 0 followed by the cumulative sums of its row sums.  A uniform
    scaled to the total picks a row by binary search over ``cum``, then an
    entry by the running sum inside that row, so the work is
    O(len(u) * (_AGENT_BLOCK + log(rows))).  Only entries of positive
    weight are returned: rounding can put a target at or past the end of
    its row or of ``cum``, and such a target falls back to the last entry
    of positive weight there.
    """
    picks = np.empty(len(u), dtype=np.int64)
    for lo in range(0, len(u), _PICK_CHUNK):
        target = u[lo:lo + _PICK_CHUNK] * cum[-1]
        rows = np.searchsorted(cum, target, side="right") - 1
        over = rows >= len(w2d)
        if over.any():
            rows[over] = np.flatnonzero(np.diff(cum))[-1]
        w = w2d[rows]
        cols = (np.cumsum(w, axis=1) <= (target - cum[rows])[:, None]).sum(axis=1)
        over = cols >= _AGENT_BLOCK
        if over.any():
            cols[over] = _AGENT_BLOCK - 1 - np.argmax(w[over, ::-1] > 0, axis=1)
        picks[lo:lo + _PICK_CHUNK] = rows * _AGENT_BLOCK + cols
    return picks


def simulate_swarm(n_agents, m, gamma, beta, config: SimConfig) -> SwarmSeries:
    """Pure-jump agents coupled through their barycenter.

    Each agent jumps at instantaneous rate exp(-beta (x_i - xbar)) with
    Erlang(m, gamma) magnitudes, xbar being the empirical mean position
    (the finite-population stand-in for the mean-field average).  Within a
    step the barycenter is frozen at its value at the step start, which
    biases the speed by about -beta C dt / 2.  An agent's own jumps only
    raise x_i, so its rate at the step start, lb_i = exp(-beta (x_i - xbar)),
    bounds its rate over the step, and events are generated by thinning
    against it: a proposal is accepted with probability
    exp(-beta (x_i - ref)) / w_i, x_i being the agent's current position
    and w_i = exp(-beta (x_i - ref)) its weight at the step start.  A
    step whose majorant expects more than ``_MAX_PROPOSALS`` proposals per
    agent is split into halves before any draw, which bounds the memory of
    a step; a split nesting more than 24 deep raises ``ThinningError``.

    Independent Poisson(lb_i dt) proposal counts have the law of one
    Poisson(sum_i lb_i dt) total allocated multinomially in proportion to
    lb_i (Lewis & Shedler 1979).  Since lb_i = exp(beta (xbar - ref)) w_i,
    the swarm keeps the weights w_i and their sums over blocks of
    ``_AGENT_BLOCK`` agents, and a (sub-)step costs O(proposals + blocks),
    not O(agents).  After a step only the picked agents' weights and their
    blocks' sums are refreshed.  The reference ``ref`` is re-centred at
    xbar, and every weight recomputed, once beta |xbar - ref| passes
    ``_RECENTRE``, so weights stay finite however far the wave travels.
    The barycenter is advanced by the step's jumps and recomputed from the
    positions at every recorded step.

    All randomness comes from the one stream ``(seed, 0)``.  Per (sub-)step
    it yields one Poisson total K, K allocation uniforms, then, round by
    round, one acceptance uniform per picked agent with a proposal left
    and m magnitude uniforms per accepted proposal.  Round r handles every
    picked agent's r-th proposal, in increasing agent order; it sees the
    agent's own earlier jumps in the step, so the law is that of handling
    each agent's proposals in sequence.  Memory is O(n_agents) plus the
    recorded snapshots; ``proposals`` and ``jumps`` count the proposals
    and accepted jumps of every (sub-)step.

    Agents start at zero; the barycenter and full position snapshots are
    recorded every ``record_stride`` steps.
    """
    if n_agents < 2:
        raise ValueError("need at least 2 agents")
    if m not in (1, 2):
        raise ValueError("swarm supports m in {1, 2}")
    if not gamma > 0 or not beta > 0:
        raise ValueError("gamma and beta must be positive")

    gen = stream(config.seed, 0)
    n_blocks = -(-n_agents // _AGENT_BLOCK)
    x = np.zeros(n_agents)
    # weights padded with zeros to whole blocks; w2d is a view of w
    w = np.zeros(n_blocks * _AGENT_BLOCK)
    w2d = w.reshape(n_blocks, _AGENT_BLOCK)
    w[:n_agents] = 1.0  # exp(-beta (x - ref)) at the start
    block_sums = w2d.sum(axis=1)
    cum = np.zeros(n_blocks + 1)  # 0, then the running block sums
    xbar = ref = 0.0
    proposals = jumps = 0
    log_max_total = math.log(_MAX_PROPOSALS * n_agents)

    def advance(dt, depth):
        """One step of length dt; recurses in halves when the step is too
        coarse."""
        nonlocal xbar, proposals, jumps
        if depth > 24:
            raise ThinningError("swarm step still unresolved after 24 halvings")
        np.cumsum(block_sums, out=cum[1:])
        # log of the majorant's expected proposal total, so no exp overflows
        log_total = beta * (xbar - ref) + math.log(cum[-1] * dt)
        if log_total > log_max_total:
            # a step this coarse is split, not allocated
            advance(dt / 2.0, depth + 1)
            advance(dt / 2.0, depth + 1)
            return
        n_proposed = int(gen.poisson(math.exp(log_total)))
        picked = rest = np.sort(_pick_weighted(gen.random(n_proposed), w2d, cum))
        proposals += n_proposed
        while rest.size:
            # each round takes one proposal of every agent with one left, in
            # increasing agent order; accept with current rate / majorant
            # = exp(-beta (x_i - ref)) / w_i, w_i being frozen at the step
            # start; own jumps only raise x_i, so it stays below one
            first = np.empty(rest.size, dtype=bool)
            first[0] = True
            np.not_equal(rest[1:], rest[:-1], out=first[1:])
            act, rest = rest[first], rest[~first]
            acc = np.exp(-beta * (x[act] - ref)) / w[act]
            hit = act[gen.random(act.size) <= acc]
            if hit.size:
                mags = erlang_magnitudes(gen.random((hit.size, m)), gamma)
                x[hit] += mags
                xbar += mags.sum() / n_agents
                jumps += hit.size
        w[picked] = np.exp(-beta * (x[picked] - ref))
        blocks = picked // _AGENT_BLOCK
        block_sums[blocks] = w2d[blocks].sum(axis=1)

    n_steps = config.n_steps
    rec = config.record_steps()
    rec_set = set(rec.tolist())
    times = [0.0]
    bary = [0.0]
    snaps = [x.copy()]
    for step in range(1, n_steps + 1):
        advance(config.dt, 0)
        if step in rec_set:
            xbar = float(x.mean())
            times.append(step * config.dt)
            bary.append(xbar)
            snaps.append(x.copy())
        if beta * abs(xbar - ref) > _RECENTRE:
            ref = xbar
            w[:n_agents] = np.exp(-beta * (x - ref))
            block_sums[:] = w2d.sum(axis=1)

    return SwarmSeries(
        times=np.asarray(times),
        barycenter=np.asarray(bary),
        snapshots=np.asarray(snaps),
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
MIN_SPEED_FIT_TIMES = 10


def estimate_speed(series: SwarmSeries, window_fraction=0.5):
    """Least-squares slope of the barycenter over the trailing window."""
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must be in (0, 1]")
    t = series.times
    sel = t >= t[-1] * (1.0 - window_fraction)
    if sel.sum() < MIN_SPEED_FIT_TIMES:
        raise ValueError(f"need at least {MIN_SPEED_FIT_TIMES} recorded times in the window")
    return float(np.polyfit(t[sel], series.barycenter[sel], 1)[0])


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
    reference CDF are compared against the matching ECDF limits.
    """
    xs = np.asarray(samples, dtype=float)
    n = len(xs)
    xu, counts = np.unique(xs, return_counts=True)
    c_right = np.cumsum(counts)
    c_left = c_right - counts
    f_right = np.asarray(cdf(xu), dtype=float)
    f_left = np.asarray(cdf(np.nextafter(xu, -np.inf)), dtype=float)
    d = max(
        np.max(np.abs(c_right / n - f_right)),
        np.max(np.abs(f_left - c_left / n)),
    )
    return float(d)


def interp_cdf(grid_x, grid_cdf):
    """CDF callable by linear interpolation of a tabulated grid."""
    def cdf(x):
        return np.interp(x, grid_x, grid_cdf, left=0.0, right=1.0)

    return cdf
