"""The Kolmogorov-Smirnov distance and the multi-time linear sampler against
their plain references: ``ks_distance`` evaluating both one-sided limits of
the CDF at every distinct value after ``np.unique``, and the sampler placing
each jump by ``np.searchsorted``.  The optimized routes must equal them bit
for bit."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erlangshot import closedform, simulate
from erlangshot.noise import erlang_magnitudes
from erlangshot.quadrature import trapezoid_cdf
from erlangshot.simulate import (
    interp_cdf,
    ks_distance,
    sample_linear_shot_noise_exact,
    sample_tanh_exact,
)


def _ks_distance_ref(samples, cdf):
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


def _linear_exact_ref(alpha, lam, gamma, m, x0, times, n, seed):
    # the multi-time sampler with each jump's interval by binary search
    times = np.asarray(times, dtype=float)
    n_times, t_max = len(times), float(times[-1])
    base = np.array([x0 * np.exp(-alpha * ti) for ti in times.tolist()])
    decay = np.exp(-alpha * np.diff(times))
    values = np.empty((n_times, n))

    def chunk(lo, hi, nj, arrivals, mag_u):
        k = hi - lo
        if not arrivals.size:
            values[:, lo:hi] = base[:, None]
            return
        tau = t_max * arrivals
        jm = erlang_magnitudes(mag_u, gamma)
        span = np.searchsorted(times, tau)
        contrib = jm * np.exp(-alpha * (times[span] - tau))
        cell = span * k + np.repeat(np.arange(k), nj)
        new = np.bincount(cell, weights=contrib, minlength=n_times * k).reshape(n_times, k)
        y = new[0]
        values[0, lo:hi] = base[0] + y
        for i in range(1, n_times):
            y = y * decay[i - 1] + new[i]
            values[i, lo:hi] = base[i] + y

    simulate._exact_chunks(n, seed, lam * t_max, m, chunk)
    return values


def _same(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


# ---------------------------------------------------------------------------
# ks_distance


def _step_cdf(atoms, weights):
    # right-continuous CDF of point masses, exactly nondecreasing
    atoms = np.sort(np.asarray(atoms, dtype=float))
    cum = np.concatenate([[0.0], np.cumsum(weights) / np.sum(weights)])
    return lambda x: cum[np.searchsorted(atoms, x, side="right")]


def _table_cdf(nodes, steps, atom):
    # an interp_cdf table on the nodes, with an atom of weight ``atom`` at the
    # first one and rising by the steps after it
    xs = np.cumsum(nodes)
    rise = np.cumsum([0.0] + steps[: len(xs) - 1])
    if rise[-1] > 0:
        rise /= rise[-1]
    return interp_cdf(xs, np.minimum(atom + (1.0 - atom) * rise, 1.0))


# a pool of few values, so a drawn sample has ties
_VALUES = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -1.5, 2.0, 1e-300, 3.0])
_SAMPLES = st.one_of(
    st.lists(_VALUES, min_size=1, max_size=40),
    st.lists(st.floats(-4.0, 4.0, allow_subnormal=False) | _VALUES, min_size=1, max_size=80),
)
_ATOMS = st.lists(st.sampled_from([-1.5, -0.0, 0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=6)
_CDFS = st.one_of(
    _ATOMS.flatmap(lambda a: st.lists(st.integers(1, 9), min_size=len(a), max_size=len(a))
                   .map(lambda w: _step_cdf(a, w))),
    st.builds(
        _table_cdf,
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12).map(lambda v: [-2.0] + v),
        st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
        st.floats(0.0, 0.9),
    ),
    st.just(lambda x: np.clip(0.25 * (x + 2.0), 0.0, 1.0)),
)


@settings(max_examples=300, deadline=None)
@given(samples=_SAMPLES, cdf=_CDFS)
@example(samples=[0.0], cdf=lambda x: np.where(x >= 0, 0.5, 0.4))
@example(samples=[-0.0, 0.0, 0.0, -0.0, 0.5], cdf=lambda x: np.where(x >= 0, 0.5, 0.4))
@example(samples=[1.0] * 7, cdf=lambda x: np.clip(x, 0.0, 1.0))
def test_ks_distance_equals_the_reference_bitwise(samples, cdf):
    samples = np.array(samples)
    kept = samples.copy()
    got, want = ks_distance(samples, cdf), _ks_distance_ref(samples, cdf)
    assert _same(got, want)
    assert np.array_equal(samples, kept) and np.array_equal(np.signbit(samples), np.signbit(kept))


@functools.cache
def _law_tables():
    # the comparison tables of the stationary (m = 2), tanh and transient
    # commands, built as the commands build them
    fine = np.linspace(1e-4, 40.0, 8001)
    stationary = interp_cdf(fine, trapezoid_cdf(closedform.stationary_ou_m2(1.0, 2.0, 1.0, fine),
                                                fine))
    xs, dens = closedform.TanhTransientLaw(1.0, 2.0, 0.5).density_grid(0.5)
    tanh = interp_cdf(xs, trapezoid_cdf(dens, xs))
    ys, ydens = closedform.TiltedOuLaw(1.0, 1.0, 2.0, 0.5).density_grid()
    ou = interp_cdf(ys, trapezoid_cdf(ydens, ys))
    law = closedform.TransientLaw(1.0, 2.0, 1.0, 0.5)
    transient = {}
    for t in (0.2, 0.7, 2.0):
        txs, _, tcdf = law.density_cdf_grid(t)
        transient[t] = interp_cdf(txs, np.minimum(tcdf, 1.0))
    return stationary, tanh, ou, transient


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
       which=st.sampled_from(["stationary", "tanh", "ou", "transient"]))
def test_ks_distance_on_the_command_tables_equals_the_reference_bitwise(seed, n, which):
    stationary, tanh, ou, transient = _law_tables()
    if which == "stationary":
        pairs = [(sample_linear_shot_noise_exact(1.0, 2.0, 1.0, 2, 0.0, 20.0, n, seed).values,
                  stationary)]
    elif which == "tanh":
        pairs = [(sample_tanh_exact(1.0, 2.0, 0.5, 0.5, n, seed).values, tanh)]
    elif which == "ou":
        pairs = [(simulate.sample_ou_tanh_exact(1.0, 1.0, 2.0, 0.5, 20.0, n, seed).values, ou)]
    else:
        times = sorted(transient)
        rows = sample_linear_shot_noise_exact(1.0, 2.0, 1.0, 1, 0.5, times, n, seed).values
        pairs = [(row, transient[t]) for row, t in zip(rows, times)]
    for samples, cdf in pairs:
        assert _same(ks_distance(samples, cdf), _ks_distance_ref(samples, cdf))


def test_ks_distance_on_a_full_transient_row_equals_the_reference_bitwise():
    # the transient command's size, where the atom at x0 e^{-alpha t} is a run
    # of ties and the table's first node carries it
    transient = _law_tables()[3]
    times = sorted(transient)
    rows = sample_linear_shot_noise_exact(1.0, 2.0, 1.0, 1, 0.5, times, 200_000, 7).values
    for row, t in zip(rows, times):
        got = ks_distance(row, transient[t])
        assert _same(got, _ks_distance_ref(row, transient[t]))


def test_ks_distance_keeps_a_left_limit_behind_a_dip_below_the_margin():
    # F falls by 1e-12 between the samples 0 and 1, as a table can where its
    # density rounds below zero: the left limit at 1 then exceeds D+ = 0.4,
    # set at 0, by the dip
    levels = np.array([0.0, 0.1, 0.1 - 1e-12, 0.7])

    def cdf(x):
        return levels[np.searchsorted([0.0, 0.5, 1.0], x, side="right")]

    samples = np.array([0.0, 1.0])
    assert ks_distance(samples, cdf) == _ks_distance_ref(samples, cdf) == 0.5 - (0.1 - 1e-12)


def test_ks_distance_peak_memory_is_within_five_samples():
    # 200000 distinct values: the sorted copy, the run starts, the distinct
    # values and the CDF's values are one sample's bytes each
    u = np.random.default_rng(3).random(200_000)
    cdf = interp_cdf(np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 1001) ** 2)
    tracemalloc.start()
    try:
        got = ks_distance(u, cdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * u.nbytes
    assert _same(got, _ks_distance_ref(u, cdf))


def test_ks_distance_never_writes_into_what_cdf_returns():
    # a callable may return its own storage: here its argument itself, and
    # arrays it keeps
    u = np.random.default_rng(4).random(5000)
    assert _same(ks_distance(u, lambda x: x), _ks_distance_ref(u, lambda x: x))
    kept = []

    def cdf(x):
        out = np.clip(x, 0.0, 1.0)
        kept.append((x.copy(), out))
        return out

    ks_distance(np.round(u, 2), cdf)
    for x, out in kept:
        assert np.array_equal(out, np.clip(x, 0.0, 1.0))


def test_ks_distance_needs_a_sample():
    with pytest.raises(ValueError):
        ks_distance(np.zeros(0), lambda x: x)


# ---------------------------------------------------------------------------
# the multi-time linear sampler


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n_times", [
    2, 7, simulate._MAX_COUNTED_TIMES + 1, simulate._MAX_COUNTED_TIMES + 2, 300,
])
def test_interval_by_count_equals_the_searchsorted_reference(m, n_times):
    # up to _MAX_COUNTED_TIMES interior times each jump's interval is a count
    # of comparisons, past it a binary search; 5000 paths span two chunks
    times = np.linspace(0.01, 3.0, n_times)
    got = sample_linear_shot_noise_exact(1.0, 2.0, 1.0, m, 0.5, times, 5000, 11)
    want = _linear_exact_ref(1.0, 2.0, 1.0, m, 0.5, times, 5000, 11)
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("m", [1, 2])
def test_a_jump_at_a_comparison_time_counts_in_the_interval_it_ends(m):
    # interior times placed on drawn jump times: tau = t_i falls in
    # (t_{i-1}, t_i], as searchsorted's left index has it
    t_max = 3.0
    first = []
    simulate._exact_chunks(4096, 11, 2.0 * t_max, m, lambda *chunk: first.append(chunk[3]))
    arrivals = first[0]
    times = np.append(np.unique(t_max * arrivals[:40]), t_max)
    got = sample_linear_shot_noise_exact(1.0, 2.0, 1.0, m, 0.5, times, 5000, 11)
    assert np.array_equal(got.values, _linear_exact_ref(1.0, 2.0, 1.0, m, 0.5, times, 5000, 11))
