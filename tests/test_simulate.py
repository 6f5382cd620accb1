"""Monte Carlo engine: paths, swarm, and estimators."""

import math
import time
import tracemalloc
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from erlangshot import simulate

from erlangshot.closedform import (
    TanhTransientLaw,
    TiltedOuLaw,
    TransientLaw,
    cumulant,
    gaussian_pair_mixture,
    gumbel_wave,
    whittaker_wave,
)
from erlangshot.master import ConstantDrift, ConstantRate, LinearRestoring, ModelSpec
from erlangshot.noise import ErlangJumpLaw, erlang_magnitudes, laplace_magnitudes, stream, stream_key
from erlangshot.quadrature import cumulative_trapezoid
from erlangshot.simulate import (
    SimConfig,
    SwarmSeries,
    empirical_density,
    estimate_speed,
    interp_cdf,
    ks_distance,
    sample_linear_shot_noise_exact,
    sample_ou_tanh_exact,
    sample_tanh_exact,
    simulate_ou_tanh,
    simulate_paths,
    simulate_swarm,
    simulate_tanh,
)
from reference import wave_variance


def _ou_model(m=1, alpha=1.0, lam=2.0, gamma=1.0, sigma=0.0):
    return ModelSpec(LinearRestoring(alpha), sigma, ConstantRate(lam), ErlangJumpLaw(m, gamma))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0, n_paths=1)
    with pytest.raises(ValueError):
        SimConfig(dt=2.0, t_end=1.0, n_paths=1)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_end=1.0, n_paths=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.3, t_end=1.0, n_paths=1)  # would stop at t = 0.9
    for dt, t_end in [(0.1, math.inf), (math.nan, 1.0), (1e-300, 1e300)]:
        with pytest.raises(ValueError):
            SimConfig(dt=dt, t_end=t_end, n_paths=1)


@pytest.mark.parametrize("dt,stride", [(0.1, 1), (0.1, 5), (0.1, 3), (0.1, 7), (0.5, 4), (1.0, 1)])
def test_record_steps_are_every_stride_and_the_last(dt, stride):
    # against the list form: every stride-th step from 0, then the last step
    # when the stride does not divide the step count
    cfg = SimConfig(dt=dt, t_end=2.0, n_paths=1, record_stride=stride)
    steps = list(range(0, cfg.n_steps + 1, stride))
    if steps[-1] != cfg.n_steps:
        steps.append(cfg.n_steps)
    got = cfg.record_steps()
    assert got.dtype == np.int64 and got.tolist() == steps
    assert cfg.n_records == len(steps)


def test_record_steps_hold_only_the_result():
    # 8e6 + 1 recorded steps are 64 MB of int64; a list of Python ints on the
    # way would trace several times that
    cfg = SimConfig(dt=1e-6, t_end=8.0, n_paths=2)
    tracemalloc.start()
    try:
        steps = cfg.record_steps()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps.size == cfg.n_records == 8_000_001
    assert peak < 1.1 * steps.nbytes


def test_deterministic_decay_path():
    # sigma = lam = 0: pure exponential relaxation, Euler error below 5 dt
    cfg = SimConfig(dt=0.01, t_end=3.0, n_paths=3, seed=1, record_stride=10)
    batch = simulate_paths(_ou_model(lam=0.0), cfg, x0=1.0)
    expect = np.exp(-batch.times)
    for row in batch.paths:
        assert np.max(np.abs(row - expect)) < 5 * cfg.dt


def test_tail_mean_matches_cumulant():
    model = _ou_model(m=1, alpha=1.0, lam=2.0, gamma=1.0)
    cfg = SimConfig(dt=0.01, t_end=12.0, n_paths=20_000, seed=2, record_stride=20)
    batch = simulate_paths(model, cfg)
    mean, se = batch.tail_window_mean(0.5)
    expect = cumulant(1, 1, 1.0, 2.0, lambda x: 1.0 * x)
    assert abs(mean - expect) < 4 * se


def test_jump_counts_poisson():
    lam, t_end = 2.0, 5.0
    model = _ou_model(m=2, lam=lam)
    cfg = SimConfig(dt=0.01, t_end=t_end, n_paths=20_000, seed=3, record_stride=100)
    batch = simulate_paths(model, cfg)
    counts = batch.jump_counts
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = len(counts) * stats.poisson.pmf(np.arange(kmax + 1), lam * t_end)
    while expected[-1] < 5 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    chi2 = np.sum((observed - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, df=len(expected) - 1) > 0.001


def test_paths_require_constant_rate():
    from erlangshot.master import ExpDecayCentered

    model = ModelSpec(ConstantDrift(0.0), 0.0, ExpDecayCentered(1.0), ErlangJumpLaw(1, 1.0))
    with pytest.raises(ValueError):
        simulate_paths(model, SimConfig(dt=0.1, t_end=1.0, n_paths=2))


def test_exact_linear_sampler_against_transform():
    # E[e^{-u X_t}] against the analytic Laplace transform
    from erlangshot.closedform import laplace_transform_linear

    alpha, lam, gamma, x0, t = 1.0, 2.0, 1.0, 0.3, 1.0
    s = sample_linear_shot_noise_exact(alpha, lam, gamma, 1, x0, t, 100_000, 5).values
    for u in (0.5, 1.0):
        emp = np.exp(-u * s)
        se = emp.std(ddof=1) / math.sqrt(len(emp))
        expect = laplace_transform_linear(u, t, 1, alpha, lam, gamma, x0)
        assert abs(emp.mean() - expect) < 4 * se


def test_exact_linear_sampler_m2_against_transform():
    # m = 2 magnitudes: E[e^{-u X_t}] against the analytic Laplace transform
    from erlangshot.closedform import laplace_transform_linear

    alpha, lam, gamma, x0, t = 1.0, 2.0, 1.0, 0.3, 4.0
    s = sample_linear_shot_noise_exact(alpha, lam, gamma, 2, x0, t, 100_000, 6).values
    for u in (0.25, 0.5, 1.0):
        emp = np.exp(-u * s)
        se = emp.std(ddof=1) / math.sqrt(len(emp))
        expect = laplace_transform_linear(u, t, 2, alpha, lam, gamma, x0)
        assert abs(emp.mean() - expect) < 4 * se


def test_exact_linear_sampler_jump_counts():
    # the per-sample Poisson counts come back beside the samples; a sample
    # without a jump sits exactly at the decayed start
    alpha, lam, t, x0 = 0.8, 1.5, 3.0, 0.7
    sample = sample_linear_shot_noise_exact(alpha, lam, 1.2, 2, x0, t, 10_000, 9)
    assert len(sample) == 10_000 and sample.jump_counts.shape == (10_000,)
    assert sample.jump_counts.dtype == np.int64
    n = sample.jump_counts
    assert abs(n.mean() - lam * t) < 4 * math.sqrt(lam * t / len(n))
    assert np.all(sample.values[n == 0] == x0 * math.exp(-alpha * t))
    assert np.all(sample.values[n > 0] > x0 * math.exp(-alpha * t))


def test_exact_sampler_chunks_without_a_jump_sit_on_the_atom():
    # at lambda = 1e-12 neither chunk of 4096 paths draws a jump: every
    # value is exactly x0 e^{-alpha t} and every count 0
    alpha, x0, times = 0.8, 0.7, [0.5, 2.0]
    sample = sample_linear_shot_noise_exact(alpha, 1e-12, 1.2, 2, x0, times, 5000, 3)
    assert np.all(sample.jump_counts == 0)
    for row, t in zip(sample.values, times):
        assert np.all(row == x0 * np.exp(-alpha * t))


def _exact_draws(alpha, lam, gamma, m, t_max, n, seed):
    # each path's jump times and magnitudes, redrawn from the exact
    # sampler's documented stream layout: per chunk of 4096 paths from
    # stream (seed, 2**63 + lo), Poisson counts, arrivals, magnitudes
    path, tau, jm = [], [], []
    for lo in range(0, n, 4096):
        k = min(n, lo + 4096) - lo
        g = Generator(Philox(key=stream_key(seed, 2**63 + lo)))
        nj = g.poisson(lam * t_max, k)
        tot = int(nj.sum())
        path.append(lo + np.repeat(np.arange(k), nj))
        tau.append(t_max * g.random(tot))
        jm.append(erlang_magnitudes(g.random((tot, m)), gamma))
    return np.concatenate(path), np.concatenate(tau), np.concatenate(jm)


def test_exact_sampler_scalar_time_matches_one_time_draw_bitwise():
    # a scalar t returns what the one-time sampler returned: the values
    # x0 e^{-alpha t} + sum_j J_j e^{-alpha (t - tau_j)}, summed per path in
    # draw order, and each path's Poisson count
    alpha, lam, gamma, x0, t, n, seed = 0.8, 1.5, 1.2, 0.7, 3.0, 5000, 9
    for m in (1, 2):
        got = sample_linear_shot_noise_exact(alpha, lam, gamma, m, x0, t, n, seed)
        path, tau, jm = _exact_draws(alpha, lam, gamma, m, t, n, seed)
        want = x0 * np.exp(-alpha * t) + np.bincount(
            path, weights=jm * np.exp(-alpha * (t - tau)), minlength=n
        )
        assert got.values.shape == (n,) and len(got) == n
        assert np.array_equal(got.values, want)
        assert np.array_equal(got.jump_counts, np.bincount(path, minlength=n))


def test_exact_sampler_times_follow_the_direct_formula():
    # each row equals x0 e^{-alpha t_i} + sum_{tau <= t_i} J e^{-alpha (t_i - tau)}
    # recomputed from the same draws, and a path without a jump by t_i sits
    # exactly on the law's atom
    alpha, lam, gamma, x0, n, seed = 0.8, 1.5, 1.2, 0.7, 5000, 11
    times = [0.05, 0.4, 1.0, 2.5, 3.0]
    law = TransientLaw(alpha, lam, gamma, x0)
    for m in (1, 2):
        sample = sample_linear_shot_noise_exact(alpha, lam, gamma, m, x0, times, n, seed)
        assert sample.values.shape == (len(times), n) and len(sample) == n
        path, tau, jm = _exact_draws(alpha, lam, gamma, m, times[-1], n, seed)
        assert np.array_equal(sample.jump_counts, np.bincount(path, minlength=n))
        for row, t in zip(sample.values, times):
            seen = tau <= t
            direct = x0 * np.exp(-alpha * t) + np.bincount(
                path[seen], weights=jm[seen] * np.exp(-alpha * (t - tau[seen])), minlength=n
            )
            np.testing.assert_array_max_ulp(row, direct, maxulp=8)
            no_jump = np.bincount(path[seen], minlength=n) == 0
            assert no_jump.any() and np.all(row[no_jump] == law.atom_location(t))


def test_exact_sampler_rows_match_the_transient_law():
    # every row against the m = 1 transient law at its time; at t = 2 the
    # atom weighs e^{-4} = 0.018, so an atom off by one ulp fails the bound
    alpha, lam, gamma, x0 = 1.0, 2.0, 1.0, 0.5
    law = TransientLaw(alpha, lam, gamma, x0)
    times = [0.3, 0.7, 1.5, 2.0]
    sample = sample_linear_shot_noise_exact(alpha, lam, gamma, 1, x0, times, 100_000, 13)
    for row, t in zip(sample.values, times):
        xs, cdf = law.cdf_grid(t, 80.0)
        assert ks_distance(row, interp_cdf(xs, np.minimum(cdf, 1.0))) < 0.01


@pytest.mark.parametrize(
    "t", [0.0, -1.0, np.inf, np.nan, [], [0.5, 0.5], [1.0, 0.5], [0.0, 1.0], [0.5, np.inf],
          [[0.5, 1.0]]],
)
def test_exact_sampler_rejects_bad_times(t):
    with pytest.raises(ValueError):
        sample_linear_shot_noise_exact(1.0, 2.0, 1.0, 1, 0.0, t, 100, 0)


def test_tanh_no_jumps_matches_gaussian_pair():
    lam, gamma, beta = 0.0, 2.0, 0.5
    cfg = SimConfig(dt=0.002, t_end=1.0, n_paths=100_000, seed=6, record_stride=500)
    batch = simulate_tanh(lam, gamma, beta, cfg)
    x = np.linspace(-8, 8, 4001)
    dens = gaussian_pair_mixture(x, 1.0, beta)
    cdf = np.concatenate([[0], np.cumsum((dens[1:] + dens[:-1]) / 2 * (x[1] - x[0]))])
    cdf /= cdf[-1]
    assert ks_distance(batch.final_positions, interp_cdf(x, cdf)) < 0.02


def test_tanh_symmetry():
    cfg = SimConfig(dt=0.005, t_end=1.0, n_paths=50_000, seed=7, record_stride=200)
    batch = simulate_tanh(1.0, 2.0, 0.5, cfg)
    final = batch.final_positions
    assert stats.ks_2samp(final, -final).statistic < 0.02


def test_ou_tanh_gaussian_reduction():
    # lam = 0, beta ~ 0 reduces to the classical OU with variance 1/(2 alpha)
    alpha = 1.0
    cfg = SimConfig(dt=0.01, t_end=8.0, n_paths=20_000, seed=8, record_stride=100)
    batch = simulate_ou_tanh(alpha, 0.0, 2.0, 0.0, cfg)
    final = batch.final_positions
    var = final.var(ddof=1)
    se = var * math.sqrt(2.0 / (len(final) - 1))
    assert abs(var - 1.0 / (2 * alpha)) < 4 * se
    mean_se = final.std(ddof=1) / math.sqrt(len(final))
    assert abs(final.mean()) < 4 * mean_se


def test_weak_convergence_in_dt():
    # halving dt moves the tail mean by no more than sampling error; the
    # two runs draw independent noise, so the comparison uses the standard
    # error of the difference at the same 4-sigma level as the mean checks
    model = _ou_model(m=1, alpha=1.0, lam=2.0, gamma=1.0)
    means, ses = {}, {}
    for dt in (0.02, 0.01):
        cfg = SimConfig(dt=dt, t_end=10.0, n_paths=100_000, seed=9, record_stride=50)
        means[dt], ses[dt] = simulate_paths(model, cfg).tail_window_mean(0.5)
    se_diff = math.hypot(ses[0.02], ses[0.01])
    assert abs(means[0.02] - means[0.01]) < 4 * se_diff


def test_swarm_positivity_and_barycenter():
    cfg = SimConfig(dt=0.01, t_end=2.0, n_paths=1, seed=10, record_stride=10)
    series = simulate_swarm(300, 1, 1.0, 1.0, cfg)
    # pure jumps: positions never decrease between recordings
    assert np.all(np.diff(series.snapshots, axis=0) >= 0)
    np.testing.assert_allclose(
        series.barycenter, series.snapshots.mean(axis=1), rtol=0, atol=1e-12
    )
    assert series.n_agents == 300


def test_swarm_speed_smoke():
    # reduced-size run; the full acceptance uses 2000 agents
    cfg = SimConfig(dt=0.005, t_end=10.0, n_paths=1, seed=11, record_stride=40)
    series = simulate_swarm(500, 1, 1.0, 1.0, cfg)
    fitted = estimate_speed(series, 0.5)
    assert abs(fitted / gumbel_wave(1.0, 1.0).speed - 1.0) < 0.10


def test_swarm_profile_tightness():
    # centered empirical variance against the analytic wave profile variance;
    # at 8000 agents the ratio's standard deviation over seeds is 1.2% (m = 1)
    # and 1.0% (m = 2), so the 10% bound sits 8 to 10 of them out
    for m, t_end in ((1, 14.0), (2, 10.0)):
        sol = gumbel_wave(1.0, 1.0) if m == 1 else whittaker_wave(1.0, 1.0)
        cfg = SimConfig(dt=0.004, t_end=t_end, n_paths=1, seed=900 + m, record_stride=50)
        series = simulate_swarm(8000, m, 1.0, 1.0, cfg)
        centered = series.centered_tail_positions(0.3)
        assert abs(centered.var() / wave_variance(sol) - 1.0) < 0.10


def test_estimate_speed():
    t = np.linspace(0.0, 10.0, 200)
    mk = lambda b: SwarmSeries(t, b, np.zeros((len(t), 2)), 2, 1, 1.0, 1.0)
    assert estimate_speed(mk(3.0 * t)) == pytest.approx(3.0, abs=1e-12)
    assert estimate_speed(mk(np.full_like(t, 2.2))) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    noisy = 2.0 * t + 0.1 * rng.standard_normal(len(t))
    assert estimate_speed(mk(noisy), 1.0) == pytest.approx(2.0, rel=0.01)
    with pytest.raises(ValueError):
        estimate_speed(mk(3.0 * t), 0.01)  # too few points in the window


def test_empirical_density():
    rng = np.random.default_rng(1)
    dens = empirical_density(rng.random(1_000_000), 10)
    assert dens.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(dens.masses - 0.1) < 0.01)
    with pytest.raises(ValueError):
        empirical_density(np.full(100, 3.7), 10)
    with pytest.raises(ValueError):
        empirical_density(np.array([1.0]), 4)


def test_ks_distance_examples():
    rng = np.random.default_rng(2)
    u = rng.random(100_000)
    assert ks_distance(u, lambda x: np.clip(x, 0, 1)) < 0.01
    assert ks_distance(np.array([0.0]), lambda x: np.where(x >= 0, 0.5, 0.4)) == 0.5
    # disjoint supports
    assert ks_distance(u, lambda x: np.clip(x - 2.0, 0, 1)) == pytest.approx(1.0)


def test_same_seed_reproduces_swarm():
    cfg = SimConfig(dt=0.01, t_end=1.0, n_paths=1, seed=13, record_stride=10)
    a = simulate_swarm(200, 2, 1.0, 1.0, cfg)
    b = simulate_swarm(200, 2, 1.0, 1.0, cfg)
    assert a.snapshots.tobytes() == b.snapshots.tobytes()
    assert a.barycenter.tobytes() == b.barycenter.tobytes()


def test_tanh_full_model_vs_closed_form_reduced():
    cfg = SimConfig(dt=0.002, t_end=1.0, n_paths=50_000, seed=14, record_stride=500)
    batch = simulate_tanh(1.0, 2.0, 0.5, cfg)
    xs, cdf = TanhTransientLaw(1.0, 2.0, 0.5).cdf_grid(1.0)
    assert ks_distance(batch.final_positions, interp_cdf(xs, cdf)) < 0.02


def _pair_cdf(t, beta):
    x = np.linspace(-12.0, 12.0, 48001)
    return interp_cdf(x, np.minimum(cumulative_trapezoid(gaussian_pair_mixture(x, t, beta), x), 1.0))


def test_tanh_exact_no_jumps_matches_gaussian_pair():
    # lam = 0: one interval, the +-beta Gaussian pair exactly; the bound is
    # the DKW bound at p = 1e-6 for 10**6 samples
    sample = sample_tanh_exact(0.0, 2.0, 0.5, 1.0, 10**6, 20)
    assert not sample.jump_counts.any()
    assert ks_distance(sample.values, _pair_cdf(1.0, 0.5)) < 0.0027


def test_ou_tanh_exact_matches_the_tilted_ou_law():
    # at T = 20 the drift has saturated and the OU state is stationary;
    # 0.0049 is the DKW bound at p = 1e-6 for 3e5 samples
    alpha, lam, gamma, beta = 1.0, 1.0, 2.0, 0.5
    sample = sample_ou_tanh_exact(alpha, lam, gamma, beta, 20.0, 300_000, 21)
    ys, ycdf = TiltedOuLaw(alpha, lam, gamma, beta).cdf_grid()
    assert ks_distance(sample.values, interp_cdf(ys, ycdf)) < 0.0049


def test_ou_tanh_exact_gaussian_reduction():
    # lam = 0, beta = 0: the OU transient with variance (1 - e^{-2 alpha T}) / (2 alpha)
    alpha, t = 1.0, 0.75
    y = sample_ou_tanh_exact(alpha, 0.0, 2.0, 0.0, t, 100_000, 22).values
    var = y.var(ddof=1)
    se = var * math.sqrt(2.0 / (len(y) - 1))
    assert abs(var + math.expm1(-2 * alpha * t) / (2 * alpha)) < 4 * se
    assert abs(y.mean()) < 4 * y.std(ddof=1) / math.sqrt(len(y))


def test_tanh_exact_symmetry():
    x = sample_tanh_exact(1.0, 2.0, 0.5, 1.0, 100_000, 23).values
    assert stats.ks_2samp(x, -x).statistic < 0.02


@pytest.mark.parametrize("ou", [False, True])
def test_exact_tanh_samplers_are_deterministic_per_chunk(ou):
    def draw(n, seed=24):
        if ou:
            return sample_ou_tanh_exact(1.0, 2.0, 2.0, 0.5, 3.0, n, seed)
        return sample_tanh_exact(2.0, 2.0, 0.5, 1.0, n, seed)

    a, b, wider = draw(4096), draw(4096), draw(5000)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.values.tobytes() == wider.values[:4096].tobytes()
    assert np.array_equal(a.jump_counts, wider.jump_counts[:4096])
    assert draw(4096, 25).values.tobytes() != a.values.tobytes()


@pytest.mark.parametrize("ou", [False, True])
def test_exact_tanh_samplers_follow_the_stream_layout(ou):
    # a path at a time, interval by interval, from the documented draws of
    # chunk streams (seed, 2**63 + 4096 c), and (seed, 2**63 + 2**62 +
    # 4096 c) for the OU sampler; 4100 samples span two chunks
    alpha, lam, gamma, beta, t, n, seed = 0.7, 1.5, 2.0, 0.5, 2.0, 4100, 26
    if ou:
        got = sample_ou_tanh_exact(alpha, lam, gamma, beta, t, n, seed)
    else:
        got = sample_tanh_exact(lam, gamma, beta, t, n, seed)
    want = []
    for lo in range(0, n, 4096):
        k = min(n, lo + 4096) - lo
        g = Generator(Philox(key=stream_key(seed, 2**63 + (2**62 if ou else 0) + lo)))
        nj = g.poisson(lam * t, k)
        arrivals = g.random(nj.sum())
        mags = laplace_magnitudes(g.random(nj.sum()), gamma)
        up = g.random(nj.sum() + k)
        z = g.standard_normal((nj.sum() + k, 2 if ou else 1))
        first = np.cumsum(nj) - nj
        for i in range(k):
            ends = [*np.sort(arrivals[first[i]:first[i] + nj[i]]) * t, t]
            jumps = [*mags[first[i]:first[i] + nj[i]], 0.0]
            x = y = begin = 0.0
            for r, (end, jump) in enumerate(zip(ends, jumps)):
                j = first[i] + i + r
                d, begin = end - begin, end
                sign = 1.0 if up[j] < 0.5 * (1.0 + math.tanh(beta * x)) else -1.0
                w = math.sqrt(d) * z[j, 0]
                x += sign * beta * d + w + jump
                if ou:
                    cov = -math.expm1(-alpha * d) / alpha
                    var_i = -math.expm1(-2 * alpha * d) / (2 * alpha)
                    c = cov / math.sqrt(d) if d > 0 else 0.0
                    noise = c * z[j, 0] + math.sqrt(max(var_i - c * c, 0.0)) * z[j, 1]
                    y = y * math.exp(-alpha * d) + sign * beta * cov + noise + jump
            want.append(y if ou else x)
    np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-12)


def _zero_arrivals(monkeypatch):
    # every jump at time 0: paths start with zero-length intervals
    chunks = simulate._exact_chunks

    def at_zero(n, seed, mean_jumps, d, work, *args):
        def zero(lo, hi, nj, arrivals, *rest):
            return work(lo, hi, nj, np.zeros_like(arrivals), *rest)

        return chunks(n, seed, mean_jumps, d, zero, *args)

    monkeypatch.setattr(simulate, "_exact_chunks", at_zero)


@pytest.mark.parametrize("ou", [False, True])
def test_exact_tanh_samplers_take_zero_length_intervals(monkeypatch, ou):
    # zero-length intervals must neither divide by zero nor leave the path
    _zero_arrivals(monkeypatch)
    with np.errstate(divide="raise", invalid="raise"):
        if ou:
            sample = sample_ou_tanh_exact(1.0, 3.0, 2.0, 0.5, 1.0, 2000, 27)
        else:
            sample = sample_tanh_exact(3.0, 2.0, 0.5, 1.0, 2000, 27)
    assert sample.jump_counts.max() > 1
    assert np.all(np.isfinite(sample.values))


def _tiled_samples(n=4100):
    # 4100 draws cross a chunk boundary; m = 1-4 at a scalar time and a
    # time list; lambda = 0 (no jump, or tiles without a jump); a sparse
    # rate, whose narrow tiles often hold no jump; 300 times, past the 255
    # interior times that are counted rather than searched
    out = []
    for m in (1, 2, 3, 4):
        out.append(sample_linear_shot_noise_exact(0.8, 1.5, 1.2, m, 0.7, 3.0, n, 9))
        out.append(sample_linear_shot_noise_exact(0.8, 1.5, 1.2, m, 0.7, [0.4, 1.0, 3.0], n, 9))
    for lam in (0.0, 0.01):
        out.append(sample_linear_shot_noise_exact(0.8, lam, 1.2, 2, 0.7, [0.4, 1.0], n, 9))
    out.append(sample_linear_shot_noise_exact(0.8, 1.5, 1.2, 1, 0.7, np.linspace(0.01, 3.0, 300),
                                              n, 9))
    for lam in (0.0, 1.5):
        out.append(sample_tanh_exact(lam, 2.0, 0.5, 2.0, n, 26))
        out.append(sample_ou_tanh_exact(0.7, lam, 2.0, 0.5, 2.0, n, 26))
    return out


@pytest.mark.parametrize(
    "budget, zero_length", [(1, False), (64, False), (2**30, False), (64, True), (2**30, True)]
)
def test_tile_budget_cannot_change_a_result(monkeypatch, budget, zero_length):
    # a tile is a run of whole paths, each computed apart from the others:
    # one path per tile, small tiles, or one tile per chunk give the same bits
    if zero_length:
        _zero_arrivals(monkeypatch)
    default = simulate._TILE
    want = _tiled_samples()
    monkeypatch.setattr(simulate, "_TILE", budget)
    got = _tiled_samples()
    for w, g in zip(want, got):
        assert g.values.tobytes() == w.values.tobytes()
        assert g.jump_counts.tobytes() == w.jump_counts.tobytes()
        assert g.tile_values <= w.tile_values if budget < default else g.tile_values >= w.tile_values
    # the budget did cut the tiles: the largest holds about one path's
    # values, or a whole chunk's
    if budget == 1:
        assert got[0].tile_values < 20
        assert got[-1].tile_values <= got[-1].jump_counts.max() + 1
    if budget == 2**30:
        assert got[0].tile_values == got[0].jump_counts[:4096].sum()


class _Inline:
    """An executor that runs each job as it is submitted, on the calling
    thread: the exact samplers' draws without a helper thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_drawing_ahead_cannot_change_a_result(monkeypatch):
    # three chunks and a partial fourth, drawn on the helper thread one
    # chunk ahead of the sums or inline, give the same bits
    n = 3 * 4096 + 5
    got = _tiled_samples(n)
    monkeypatch.setattr(simulate, "_DRAWS", _Inline())
    want = _tiled_samples(n)
    for w, g in zip(want, got):
        assert g.values.tobytes() == w.values.tobytes()
        assert g.jump_counts.tobytes() == w.jump_counts.tobytes()
        assert g.tile_values == w.tile_values
    # inline, nothing waits
    assert all(w.draw_wait < 0.1 for w in want)


class _Recording:
    """The helper executor, each job started 50 ms late, so that it is still
    running when the sums beside it raise, keeping every future it hands
    out."""

    def __init__(self):
        self.helper = simulate._DRAWS
        self.futures = []

    def submit(self, fn, *args):
        def late():
            time.sleep(0.05)
            return fn(*args)

        self.futures.append(self.helper.submit(late))
        return self.futures[-1]


@pytest.mark.parametrize("ou", [False, True])
def test_a_sampler_that_raises_mid_run_leaves_no_draw_behind(monkeypatch, ou):
    # the second chunk's sums raise: the helper's draws for the third are
    # cancelled or finished before the error leaves the sampler, and the
    # next call gives the same values as before
    def run():
        if ou:
            return sample_ou_tanh_exact(0.7, 1.5, 2.0, 0.5, 2.0, 3 * 4096 + 5, 26)
        return sample_linear_shot_noise_exact(0.8, 1.5, 1.2, 2, 0.7, [0.4, 3.0], 3 * 4096 + 5, 9)

    want = run()
    name = "laplace_magnitudes" if ou else "erlang_magnitudes"
    magnitudes, calls = getattr(simulate, name), []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("planted")
        return magnitudes(*args)

    recording = _Recording()
    with monkeypatch.context() as patch:
        patch.setattr(simulate, name, fail_second)
        patch.setattr(simulate, "_DRAWS", recording)
        with pytest.raises(FloatingPointError, match="planted"):
            run()
    assert len(calls) == 2 and all(f.done() for f in recording.futures)
    got = run()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.jump_counts.tobytes() == want.jump_counts.tobytes()


@pytest.mark.parametrize("ou", [False, True])
def test_exact_sampler_memory_is_bounded_by_the_tile_budget(ou):
    # one chunk at a benchmark shape (m = 2 at lambda t = 40, the OU sampler
    # at lambda t = 20, each cut into tiles) and at twice its lambda t: the
    # traced peak past the chunk's draws and the output stays under a few
    # arrays of the budget (untiled, the OU sampler's took 26 at lambda t =
    # 40), and per value of the largest tile it holds still.  Three chunks,
    # drawn one ahead of the sums, hold two chunks' draws at a time: past
    # the two largest and the output, the same bound holds.  At three times
    # the lambda t, a linear chunk's draws outweigh its tiles' temporaries,
    # so a third chunk held at once would break the bound there
    def excess(lt, chunks=1):
        n = chunks * 4096
        tracemalloc.start()
        try:
            if ou:
                sample = sample_ou_tanh_exact(1.0, lt / 20, 2.0, 0.5, 20.0, n, 7)
            else:
                sample = sample_linear_shot_noise_exact(1.0, lt / 20, 1.0, 2, 0.0, 20.0, n, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        jumps = sample.jump_counts.reshape(chunks, 4096).sum(axis=1)
        # counts, arrivals and magnitude uniforms; the OU sampler adds a
        # sign uniform and two normals per interval; values and counts out
        draws = 4096 + 2 * jumps + 3 * (jumps + 4096) if ou else 4096 + 3 * jumps
        held = np.sort(draws)[-2:].sum()
        return peak - 8 * (held + 2 * n), sample.tile_values

    arrays = 16 if ou else 8
    lt = 20 if ou else 40
    small, large, three = excess(lt), excess(2 * lt), excess(3 * lt, 3)
    for extra, tile in (small, large, three):
        assert 1 < tile <= simulate._TILE and extra < arrays * 8 * simulate._TILE
    # a few percent more, as padding cells give way to intervals
    assert large[0] / large[1] < 1.15 * small[0] / small[1]


def test_jump_arrivals_are_per_step_poisson():
    # sigma = 0, zero drift and m = 1: a path rises exactly at the steps
    # that hold at least one jump
    lam, dt = 2.0, 0.01
    model = ModelSpec(ConstantDrift(0.0), 0.0, ConstantRate(lam), ErlangJumpLaw(1, 1.0))
    batch = simulate_paths(model, SimConfig(dt=dt, t_end=5.0, n_paths=2000, seed=15))
    hit = np.diff(batch.paths, axis=1) > 0
    p = 1.0 - math.exp(-lam * dt)
    assert abs(hit.mean() - p) < 4 * math.sqrt(p * (1 - p) / hit.size)
    steps = np.nonzero(hit)[1]
    assert stats.kstest((steps + 0.5) / hit.shape[1], "uniform").pvalue > 0.001


@pytest.mark.parametrize("seed", [0, 5, 7, 11, 2**40, 2**64 - 1])
def test_paths_follow_the_stream_layout(seed):
    # known answer, redrawn from the one stream (seed, 0): the jump counts,
    # their arrival uniforms binned to steps, their magnitude uniforms, then
    # one normal per step and path, step after step; with zero drift, path
    # i's step s adds sigma sqrt(dt) times normal [s, i], then its jumps
    # binned to step s in draw order
    lam, sigma, dt, n_paths = 2.0, 0.7, 0.01, 150
    model = ModelSpec(ConstantDrift(0.0), sigma, ConstantRate(lam), ErlangJumpLaw(2, 1.5))
    batch = simulate_paths(model, SimConfig(dt=dt, t_end=1.5, n_paths=n_paths, seed=seed))
    n_steps = batch.paths.shape[1] - 1
    g = Generator(Philox(key=stream_key(seed, 0)))
    counts = g.poisson(lam * n_steps * dt, n_paths)
    arrivals = g.random(counts.sum())
    sizes = erlang_magnitudes(g.random((counts.sum(), 2)), 1.5)
    normals = g.standard_normal((n_steps, n_paths))
    assert np.array_equal(batch.jump_counts, counts) and counts.sum() > 300
    first = np.cumsum(counts) - counts
    for i in range(n_paths):
        mine = range(first[i], first[i] + counts[i])
        x = [0.0]
        for s in range(n_steps):
            incr = sigma * math.sqrt(dt) * normals[s, i]
            for j in mine:
                if min(int(arrivals[j] * n_steps), n_steps - 1) == s:
                    incr += sizes[j]
            x.append(x[-1] + incr)
        assert batch.paths[i].tobytes() == np.array(x).tobytes()


def test_stream_keys_reject_out_of_range():
    # seed 2**64 with path 0 would otherwise alias seed 0 with path 1
    for seed, index in ((2**64, 0), (-1, 0), (0, 2**64), (0, -1)):
        with pytest.raises(ValueError):
            stream(seed, index)


def test_ou_tanh_paths_follow_the_stream_layout():
    # known answer at beta = 0, where the tanh drift is exactly 0, redrawn
    # from the one stream (seed, 0): the jump counts, their arrival uniforms
    # binned to steps, one Laplace magnitude uniform each, then one normal
    # per step and path; the recorded row y decays by alpha dt, then takes
    # the step's increment; stride 7 does not divide the 100 steps
    alpha, lam, gamma, dt, n_paths, seed = 0.8, 1.5, 2.0, 0.02, 60, 7
    cfg = SimConfig(dt=dt, t_end=2.0, n_paths=n_paths, seed=seed, record_stride=7)
    batch = simulate_ou_tanh(alpha, lam, gamma, 0.0, cfg)
    n_steps = cfg.n_steps
    g = Generator(Philox(key=stream_key(seed, 0)))
    counts = g.poisson(lam * n_steps * dt, n_paths)
    arrivals = g.random(counts.sum())
    sizes = laplace_magnitudes(g.random((counts.sum(), 1))[:, 0], gamma)
    normals = g.standard_normal((n_steps, n_paths))
    assert np.array_equal(batch.jump_counts, counts) and counts.sum() > 120
    rec = [*range(0, n_steps, 7), n_steps]
    assert batch.times.tobytes() == (np.array(rec) * dt).tobytes()
    first = np.cumsum(counts) - counts
    for i in range(n_paths):
        mine = range(first[i], first[i] + counts[i])
        y = [0.0]
        for s in range(n_steps):
            dx = math.sqrt(dt) * normals[s, i]
            for j in mine:
                if min(int(arrivals[j] * n_steps), n_steps - 1) == s:
                    dx += sizes[j]
            y.append(y[-1] - alpha * dt * y[-1] + dx)
        assert batch.paths[i].tobytes() == np.array(y)[rec].tobytes()


def test_engine_memory_does_not_grow_with_steps():
    # a full n_steps x paths increment buffer would take 164 MB here
    cfg = SimConfig(dt=0.0025, t_end=100.0, n_paths=512, seed=18, record_stride=40_000)
    tracemalloc.start()
    try:
        simulate_tanh(1.0, 2.0, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_tanh_paths_unchanged_by_the_shared_laplace_sampler(monkeypatch):
    # the engine's jumps come from noise.laplace_magnitudes; swapping in the
    # expression the engine used inline before leaves every byte in place
    cfg = SimConfig(dt=0.01, t_end=1.0, n_paths=3000, seed=11, record_stride=10)
    batch = simulate_tanh(2.0, 2.0, 0.5, cfg)
    assert batch.jump_counts.sum() > 5000

    def inline(u, gamma):
        return np.where(u < 0.5, np.log(2 * u), -np.log(2 * (1 - u))) / gamma

    monkeypatch.setattr(simulate, "laplace_magnitudes", inline)
    assert simulate_tanh(2.0, 2.0, 0.5, cfg).paths.tobytes() == batch.paths.tobytes()


def test_swarm_weights_recentre_over_long_travel():
    # jumps of mean 4 carry beta * xbar far past 745, where weights keyed to
    # the start position would underflow and the majorant scale overflow
    cfg = SimConfig(dt=0.005, t_end=20.0, n_paths=1, seed=22, record_stride=20)
    with np.errstate(over="raise", invalid="raise"):
        series = simulate_swarm(100, 1, 0.25, 1.0, cfg)
    assert np.all(np.isfinite(series.snapshots))
    assert np.all(np.isfinite(series.barycenter))
    assert series.barycenter[-1] > 745.0 * 1.25
    np.testing.assert_allclose(
        series.barycenter, series.snapshots.mean(axis=1), rtol=0, atol=1e-12
    )


def test_swarm_completes_on_a_coarse_record_grid():
    # dt only sets the record grid: ten records 128 time units apart hold
    # thousands of jumps per agent between them
    cfg = SimConfig(dt=128.0, t_end=1280.0, n_paths=1, seed=23, record_stride=1)
    with np.errstate(over="raise", invalid="raise"):
        series = simulate_swarm(10, 1, 1.0, 1.0, cfg)
    assert series.snapshots.shape == (11, 10)
    assert series.jumps > 1000 * 10
    assert np.all(np.isfinite(series.snapshots))
    np.testing.assert_allclose(
        series.barycenter, series.snapshots.mean(axis=1), rtol=0, atol=1e-12
    )


def test_swarm_follows_the_stream_layout():
    # all agents start at the reference, so the first window's targets are
    # the stream's first n standard exponentials and its width is
    # _EVENTS_PER_AGENT; the m magnitude uniforms of each agent jumping in
    # the first round follow, agents in increasing order
    n, m = 1000, 2
    cfg = SimConfig(dt=1e-4, t_end=0.005, n_paths=1, seed=3)
    series = simulate_swarm(n, m, 1.0, 1.0, cfg)
    gen = stream(3, 0)
    first = gen.standard_exponential(n)
    hits = np.flatnonzero(first <= simulate._EVENTS_PER_AGENT)
    mags = erlang_magnitudes(gen.random((hits.size, m)), 1.0)
    order = np.argsort(first)
    # the first jump comes at its exponential, clock time equal to real time
    # before any jump, with its agent's first magnitude
    moved = (series.snapshots > 0).sum(axis=1)
    k = np.argmax(moved > 0)
    assert series.times[k - 1] < first[order[0]] <= series.times[k]
    assert series.snapshots[k, order[0]] == mags[np.searchsorted(hits, order[0])]
    # jumps come in the order of the exponentials
    for snap, count in zip(series.snapshots, moved):
        assert set(np.flatnonzero(snap > 0)) == set(order[:count])
    assert moved[-1] >= 3


def test_swarm_law_does_not_depend_on_dt():
    # dt only sets the record grid: two grids recording every 0.1 give the
    # same snapshots, bit for bit
    fine = simulate_swarm(200, 2, 1.0, 1.0, SimConfig(dt=0.002, t_end=2.0, n_paths=1,
                                                      seed=31, record_stride=50))
    coarse = simulate_swarm(200, 2, 1.0, 1.0, SimConfig(dt=0.01, t_end=2.0, n_paths=1,
                                                        seed=31, record_stride=10))
    np.testing.assert_allclose(fine.times, coarse.times, rtol=1e-12)
    assert fine.snapshots.shape == (21, 200)
    assert fine.snapshots.tobytes() == coarse.snapshots.tobytes()
    assert fine.barycenter.tobytes() == coarse.barycenter.tobytes()
    assert fine.jumps == coarse.jumps and fine.jumps > 0


def test_swarm_speed_has_no_dt_bias():
    # a swarm with the barycenter frozen over a step of dt 0.005 runs slow
    # by about beta C dt / 2 (-1.3% measured for m = 2, about 5 s.e. here);
    # the exact swarm's mean error over 100 seeds is within 4 s.e. of 0
    for m, sol in ((1, gumbel_wave(1.0, 1.0)), (2, whittaker_wave(1.0, 1.0))):
        errs = []
        for seed in range(100):
            cfg = SimConfig(dt=0.005, t_end=5.0, n_paths=1, seed=seed, record_stride=20)
            series = simulate_swarm(1000, m, 1.0, 1.0, cfg)
            errs.append(estimate_speed(series, 0.5) / sol.speed - 1.0)
        errs = np.asarray(errs)
        se = errs.std(ddof=1) / math.sqrt(len(errs))
        assert abs(errs.mean()) < 4 * se, (m, errs.mean(), se)


def _wave_speed(m, beta, gamma):
    """C_m = exp(sum_k Re psi(r (1 - w^k)) - m psi(r)) / beta, r = gamma / beta,
    w = exp(2 pi i / m), k = 1 .. m - 1."""
    r = gamma / beta
    w = mpmath.exp(2j * mpmath.pi / m)
    s = sum(mpmath.re(mpmath.digamma(r * (1 - w**k))) for k in range(1, m)) - m * mpmath.digamma(r)
    return float(mpmath.exp(s)) / beta


def test_swarm_speed_at_m3_matches_the_closed_form():
    assert _wave_speed(1, 1.0, 1.0) == pytest.approx(gumbel_wave(1.0, 1.0).speed, rel=1e-14)
    assert _wave_speed(2, 0.5, 1.3) == pytest.approx(whittaker_wave(0.5, 1.3).speed, rel=1e-14)
    c3 = _wave_speed(3, 1.0, 1.0)
    assert c3 == pytest.approx(9.99209, rel=1e-5)
    # one seed's speed error has a standard deviation of about 0.7% here
    errs = []
    for seed in range(8):
        cfg = SimConfig(dt=0.01, t_end=8.0, n_paths=1, seed=seed, record_stride=10)
        series = simulate_swarm(8000, 3, 1.0, 1.0, cfg)
        errs.append(estimate_speed(series, 0.5) / c3 - 1.0)
    assert abs(np.mean(errs)) < 0.01
    for m in (0, 1.5):
        with pytest.raises(ValueError):
            simulate_swarm(10, m, 1.0, 1.0, cfg)


def test_swarm_memory_is_linear_in_agents():
    # one uniform buffer row of 2048 per agent would take 328 MB here
    cfg = SimConfig(dt=0.01, t_end=0.2, n_paths=1, seed=20, record_stride=1)
    tracemalloc.start()
    try:
        series = simulate_swarm(20_000, 2, 1.0, 1.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.snapshots.shape == (21, 20_000)
    assert 0 < series.jumps <= series.proposals
    assert peak < 16 * 2**20
