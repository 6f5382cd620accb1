"""Analytic densities, transforms, and wave profiles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from erlangshot.closedform import (
    DivergenceError,
    NormalizationError,
    TanhTransientLaw,
    TiltedOuLaw,
    TransientLaw,
    _cosine_sum,
    _cosine_sum_grid,
    cumulant,
    gaussian_pair_mixture,
    gumbel_wave,
    laplace_transform_linear,
    stationary_m1,
    stationary_ou_m2,
    whittaker_wave,
)
from erlangshot.master import GridSpec
from erlangshot.specfun import kummer_1f1
from erlangshot.oracles import digamma_ref
from erlangshot.simulate import (
    interp_cdf,
    ks_distance,
    sample_linear_shot_noise_exact,
)
from reference import mellin_moment, stationary_ou_m1, wave_mass_and_mean

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# stationary laws


def test_stationary_m1_gamma_law():
    # f = alpha x with constant rate collapses to the Gamma(lam/alpha, gamma)
    # law; alpha=1, lam=2, gamma=1 gives x e^{-x}.  x_lo = 1e-4 keeps the
    # grid-truncated mass below 1e-8 so the normalization matches too.
    grid = GridSpec(1e-4, 40.0, 2048)
    gf = stationary_m1(lambda x: 1.0 * x, lambda x: 2.0, 1.0, grid)
    x = grid.nodes()
    expect = x * np.exp(-x)
    assert np.max(np.abs(gf.values - expect)) < 1e-8


def test_stationary_m1_unit_mass():
    grid = GridSpec(0.05, 60.0, 3000)
    gf = stationary_m1(lambda x: 0.7 * x, lambda x: 1.9, 0.8, grid)
    mass = integrate.simpson(gf.values, x=grid.nodes())
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_stationary_m1_vs_monte_carlo():
    # oracle: exact long-time samples of the same dynamics
    grid = GridSpec(0.01, 40.0, 4000)
    gf = stationary_m1(lambda x: x, lambda x: 2.0, 1.0, grid)
    x = grid.nodes()
    cdf = integrate.cumulative_trapezoid(gf.values, x, initial=0.0)
    cdf /= cdf[-1]
    samples = sample_linear_shot_noise_exact(1.0, 2.0, 1.0, 1, 0.0, 25.0, 100_000, 31).values
    assert ks_distance(samples, interp_cdf(x, cdf)) < 0.02


def test_stationary_m1_divergence_detected():
    # growing exponent: rate/f outruns the e^{-gamma x} factor
    grid = GridSpec(0.1, 50.0, 1000)
    with pytest.raises(NormalizationError):
        stationary_m1(lambda x: np.ones_like(x), lambda x: np.full_like(x, 3.0), 0.5, grid)


@pytest.mark.parametrize("alpha,lam,gamma", [(1.0, 2.0, 1.0), (0.7, 0.4, 2.5), (2.0, 2.0, 0.6)])
def test_stationary_ou_m1_is_scipy_gamma(alpha, lam, gamma):
    # shape lam/alpha > 1, < 1 and = 1 (exponential) against scipy's Gamma pdf,
    # the origin and the negative half line included
    x = np.concatenate([[-1.0, 0.0], np.geomspace(1e-8, 60.0, 2000)])
    got = stationary_ou_m1(alpha, lam, gamma, x)
    want = stats.gamma.pdf(x, lam / alpha, scale=1.0 / gamma)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert stationary_ou_m1(alpha, lam, gamma, 1.5) == pytest.approx(
        stats.gamma.pdf(1.5, lam / alpha, scale=1.0 / gamma), rel=1e-12
    )
    with pytest.raises(ValueError):
        stationary_ou_m1(0.0, lam, gamma, x)


def test_stationary_ou_m2_mass_and_moment():
    alpha, lam, gamma = 1.0, 2.0, 1.0
    mass, _ = integrate.quad(lambda x: stationary_ou_m2(alpha, lam, gamma, x), 0, np.inf, limit=300)
    assert mass == pytest.approx(1.0, abs=1e-6)
    mean, _ = integrate.quad(
        lambda x: x * stationary_ou_m2(alpha, lam, gamma, x), 0, np.inf, limit=300
    )
    # oracle: first cumulant of the m=2 law
    assert mean == pytest.approx(cumulant(1, 2, gamma, lam, lambda x: alpha * x), abs=1e-6)


def test_stationary_ou_m2_origin_continuity():
    # lam = alpha: the I_0 series near zero gives the finite limit
    # gamma e^{-1} (the e^{-lam/alpha} prefactor is the normalizing one)
    gamma = 1.3
    lim = stationary_ou_m2(1.0, 1.0, gamma, 0.0)
    assert lim == pytest.approx(gamma * math.exp(-1.0), rel=1e-12)
    small = stationary_ou_m2(1.0, 1.0, gamma, 1e-9)
    assert small == pytest.approx(lim, rel=1e-4)


def test_stationary_ou_m2_domain():
    with pytest.raises(ValueError):
        stationary_ou_m2(1.0, 1.0, 1.0, -0.5)
    assert stationary_ou_m2(1.0, 2.0, 1.0, np.array([0.0])) == pytest.approx(0.0)


def test_cumulant_values():
    alpha, lam, gamma = 1.3, 2.1, 0.9
    f = lambda x: alpha * x
    # analytic integrals: int S(m) dx = m / gamma
    assert cumulant(1, 1, gamma, lam, f) == pytest.approx(lam / (gamma * alpha), rel=1e-9)
    assert cumulant(1, 2, gamma, lam, f) == pytest.approx(2 * lam / (gamma * alpha), rel=1e-9)
    assert cumulant(1, 1, gamma, 0.0, f) == 0.0


def test_cumulant_divergence():
    with pytest.raises(DivergenceError):
        cumulant(1, 1, 1.0, 2.0, lambda x: x * np.exp(-3.0 * x))


# ---------------------------------------------------------------------------
# Laplace transform and transient law


def test_laplace_transform_endpoints():
    assert laplace_transform_linear(0.0, 1.0, 2, 1.0, 2.0, 1.0, 0.3) == 1.0
    assert laplace_transform_linear(1.5, 0.0, 1, 1.0, 2.0, 1.0, 0.0) == 1.0
    assert laplace_transform_linear(2.0, 0.0, 1, 1.0, 2.0, 1.0, 0.4) == pytest.approx(
        math.exp(-0.8), rel=1e-12
    )


def test_laplace_transform_stationary_limit():
    # oracle: the m=1 stationary law is Gamma(lam/alpha, gamma) whose
    # transform is (gamma/(gamma+u))^{lam/alpha}
    alpha, lam, gamma = 1.0, 2.0, 1.0
    for u in (0.5, 1.0, 3.0):
        val = laplace_transform_linear(u, 40.0 / alpha, 1, alpha, lam, gamma, 0.7)
        assert val == pytest.approx((gamma / (gamma + u)) ** (lam / alpha), abs=1e-4)


def test_transient_indicator_and_atom():
    law = TransientLaw(1.0, 2.0, 1.0, 0.5)
    t = 0.7
    loc = law.atom_location(t)
    assert law.continuous_density(loc - 1e-9, t) == 0.0
    assert law.atom_weight(t) == pytest.approx(math.exp(-2.0 * t), rel=1e-14)
    assert loc == pytest.approx(0.5 * math.exp(-t), rel=1e-14)


def test_transient_total_mass():
    law = TransientLaw(1.0, 2.0, 1.0, 0.5)
    assert law.total_mass(0.7) == pytest.approx(1.0, abs=1e-6)


def test_transient_mass_noninteger_ratio():
    # lam/alpha not an integer exercises the non-terminating 1F1 branch
    law = TransientLaw(1.0, 1.7, 1.3, 0.2)
    for t in (0.3, 1.1, 4.0):
        assert law.total_mass(t) == pytest.approx(1.0, abs=1e-6)


def test_transient_converges_to_gamma_law():
    # sup-norm against the stationary Gamma(lam/alpha, gamma) density
    alpha, lam, gamma = 1.0, 2.0, 1.0
    law = TransientLaw(alpha, lam, gamma, 0.5)
    t = 40.0 / alpha
    x = np.linspace(0.0, 30.0, 1500)
    trans = law.continuous_density(x, t)
    statio = stats.gamma.pdf(x, lam / alpha, scale=1.0 / gamma)
    assert np.max(np.abs(trans - statio)) < 1e-3


@pytest.mark.parametrize(
    "alpha,lam,gamma,x0,t", [(1.0, 2.0, 1.0, 0.5, 400.0), (1.0, 1.7, 1.3, 0.2, 800.0)]
)
def test_transient_law_at_large_times_is_the_stationary_law(alpha, lam, gamma, x0, t):
    # lam t past 745 underflows e^{-lam t}, alpha t past 709 overflows
    # e^{alpha t}: the density is formed in logs, and is the Gamma law
    law = TransientLaw(alpha, lam, gamma, x0)
    assert law.total_mass(t) == pytest.approx(1.0, abs=1e-6)
    x = np.linspace(0.0, 30.0, 3001)
    statio = stats.gamma.pdf(x, lam / alpha, scale=1.0 / gamma)
    assert np.max(np.abs(law.continuous_density(x, t) - statio)) < 1e-12


def test_transient_law_rejects_an_overflowing_range():
    # lam / (alpha * gamma) overflows: the default mass range is not finite
    with pytest.raises(ValueError):
        TransientLaw(1e-300, 2.0, 1e-300, 0.0)


def test_transient_density_is_one_kummer_call_per_grid(monkeypatch):
    # the grid's 1F1 values come from one vectorised call, equal bit for
    # bit to one-point evaluations
    from erlangshot import closedform

    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[2]))
        return kummer_1f1(*args, **kwargs)

    monkeypatch.setattr(closedform, "kummer_1f1", counted)
    for lam in (2.0, 1.7):
        law = TransientLaw(1.0, lam, 1.3, 0.2)
        x = law.atom_location(0.9) + np.linspace(-1.0, 40.0, 4001)
        calls.clear()
        dens = law.continuous_density(x, 0.9)
        assert calls == [4001]
        one = [law.continuous_density(xi, 0.9) for xi in x[::50]]
        assert np.array_equal(dens[::50], one)


def test_transient_density_cdf_grid_is_one_evaluation():
    # density_cdf_grid tabulates the density once, at each distance z past
    # the atom, and integrates it; its grid and CDF are those of cdf_grid
    law = TransientLaw(1.0, 1.7, 1.3, 0.2)
    x, dens, cdf = law.density_cdf_grid(0.9, 30.0, 2001)
    z = np.linspace(0.0, 30.0, 2001)
    assert np.array_equal(x, law.atom_location(0.9) + z)
    assert np.array_equal(dens, law.continuous_density(z, 0.9, from_atom=True))
    # the density at each tabulated x, to the rounding of x
    assert np.max(np.abs(dens / law.continuous_density(x, 0.9) - 1.0)) < 1e-13
    xs, cdf2 = law.cdf_grid(0.9, 30.0, 2001)
    assert np.array_equal(x, xs) and np.array_equal(cdf, cdf2)
    assert cdf[0] == law.atom_weight(0.9)


def test_transient_ks_vs_exact_sampler():
    alpha, lam, gamma, x0 = 1.0, 2.0, 1.0, 0.5
    law = TransientLaw(alpha, lam, gamma, x0)
    t = 0.7
    xs, cdf = law.cdf_grid(t, 40.0)
    samples = sample_linear_shot_noise_exact(alpha, lam, gamma, 1, x0, t, 100_000, 77).values
    assert ks_distance(samples, interp_cdf(xs, np.minimum(cdf, 1.0))) < 0.02


# ---------------------------------------------------------------------------
# traveling waves


def test_gumbel_wave_speed():
    sol = gumbel_wave(1.0, 1.0)
    # oracle: digamma(1) by the finite-difference route
    assert sol.speed == pytest.approx(math.exp(-digamma_ref(1.0)), rel=1e-10)
    assert sol.speed == pytest.approx(1.781072417990198, rel=1e-10)


def test_gumbel_wave_mass_and_mean():
    for beta, gamma in [(1.0, 1.0), (0.5, 1.0), (2.0, 1.3)]:
        mass, mean = wave_mass_and_mean(gumbel_wave(beta, gamma))
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(0.0, abs=1e-6)


def test_whittaker_wave_speed_and_ratio():
    sol = whittaker_wave(1.0, 1.0)
    expect = math.exp(digamma_ref(2.0) - 2.0 * digamma_ref(1.0))
    assert sol.speed == pytest.approx(expect, rel=1e-9)
    assert sol.speed == pytest.approx(4.841456788992367, rel=1e-9)
    ratio = sol.speed / gumbel_wave(1.0, 1.0).speed
    # at gamma = beta the ratio is exp(psi(2) - psi(1)) = e; always above 2
    assert ratio == pytest.approx(math.e, rel=1e-9)
    assert ratio > 2.0


def test_whittaker_wave_mass_and_mean():
    for beta, gamma in [(1.0, 1.0), (0.5, 1.0), (1.5, 0.8)]:
        mass, mean = wave_mass_and_mean(whittaker_wave(beta, gamma))
        assert mass == pytest.approx(1.0, abs=1e-5)
        assert mean == pytest.approx(0.0, abs=1e-5)


def test_whittaker_wave_with_a_slow_right_tail():
    # gamma / beta = 0.01: the support reaches xi = 4000, far past where
    # z = e^{-beta xi} / (beta C) underflows; there U(a, 1, z) is the
    # leading term of its logarithmic series, which meets the series at the
    # switch z = 1e-300
    sol = whittaker_wave(1.0, 0.01)
    mass, mean = wave_mass_and_mean(sol)
    assert mass == pytest.approx(1.0, abs=1e-5)
    assert mean == pytest.approx(0.0, abs=1e-5)
    xi0 = -(math.log(1e-300) + math.log(sol.beta * sol.speed)) / sol.beta
    xi = xi0 + np.arange(-4, 5) * 1e-12
    z = np.exp(-sol.beta * xi) / (sol.beta * sol.speed)
    assert np.any(z < 1e-300) and np.any(z >= 1e-300)
    dens = sol.profile(xi)
    assert np.max(np.abs(dens / dens[4] - 1.0)) < 1e-12


def test_wave_profiles_nonnegative():
    xi = np.linspace(-6.0, 30.0, 500)
    assert np.all(gumbel_wave(1.0, 1.0).profile(xi) >= 0)
    assert np.all(whittaker_wave(1.0, 1.0).profile(xi) >= 0)


def test_wave_profile_memory_is_bounded_by_the_u_cell_budget():
    # U's quadrature over all 20001 rows at once would take 32.7 MB; the
    # bound is the profile's own arrays (16 floats per point, 2.6 MB) and a
    # few block temporaries of specfun._U_CELLS = 2^15 floats (1 MB)
    xi = np.linspace(-12.0, 38.0, 20001)
    sol = whittaker_wave(0.5, 1.0)
    assert _peak_alloc(lambda: sol.profile(xi)) < 4 * 2**20


def test_speed_ratio_always_above_two():
    rng = np.random.default_rng(4)
    for _ in range(25):
        beta, gamma = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        assert whittaker_wave(beta, gamma).speed / gumbel_wave(beta, gamma).speed > 2.0


def test_speeds_decrease_in_gamma_over_beta():
    ratios = np.linspace(0.3, 5.0, 24)
    c1 = [gumbel_wave(1.0, r).speed for r in ratios]
    c2 = [whittaker_wave(1.0, r).speed for r in ratios]
    assert np.all(np.diff(c1) < 0)
    assert np.all(np.diff(c2) < 0)


def test_mellin_moment():
    sol = whittaker_wave(1.0, 1.0)
    assert mellin_moment(sol, 0.0) == pytest.approx(1.0, abs=1e-8)
    du = 1e-3
    deriv = (mellin_moment(sol, du) - mellin_moment(sol, -du)) / (2 * du)
    assert abs(deriv) < 1e-5
    for u in (-0.5, 0.3, 1.2, 2.5):
        assert mellin_moment(sol, u) > 0
    with pytest.raises(DivergenceError):
        mellin_moment(sol, -1.0)


# ---------------------------------------------------------------------------
# tanh-drift jump diffusion


def test_tanh_transient_no_jumps_is_gaussian_pair():
    law = TanhTransientLaw(0.0, 2.0, 0.5)
    x = np.linspace(-8, 8, 401)
    np.testing.assert_allclose(
        law.density(x, 1.0), gaussian_pair_mixture(x, 1.0, 0.5), rtol=0, atol=1e-14
    )


def test_tanh_transient_mass():
    law = TanhTransientLaw(1.0, 2.0, 0.5)
    assert law.mass(1.0) == pytest.approx(1.0, abs=1e-4)
    assert law.mass(0.25) == pytest.approx(1.0, abs=1e-4)


def test_tanh_transient_symmetry_and_positivity():
    law = TanhTransientLaw(1.0, 2.0, 0.5)
    x = np.linspace(0.0, 10.0, 200)
    d_plus = law.density(x, 1.0)
    d_minus = law.density(-x, 1.0)
    np.testing.assert_allclose(d_plus, d_minus, rtol=0, atol=1e-12)
    assert np.all(d_plus > -1e-12)


def test_tanh_transient_requires_integrable_tilt():
    with pytest.raises(ValueError):
        TanhTransientLaw(1.0, 2.0, 2.5)
    with pytest.raises(ValueError):
        TanhTransientLaw(1.0, 1.0, 1.0)


def test_tanh_transient_ks_vs_reduced_mc():
    # fast smoke version of the simulation comparison (full n in acceptance)
    from erlangshot.simulate import SimConfig, simulate_tanh

    law = TanhTransientLaw(1.0, 2.0, 0.5)
    xs, cdf = law.cdf_grid(1.0)
    batch = simulate_tanh(1.0, 2.0, 0.5, SimConfig(dt=0.002, t_end=1.0, n_paths=20_000, seed=5))
    assert ks_distance(batch.final_positions, interp_cdf(xs, cdf)) < 0.03


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 3.0])
def test_tanh_density_grid_matches_dense_sum(t):
    # Bluestein chirp-z on the uniform grid against the pointwise dense cosine sum
    law = TanhTransientLaw(1.0, 2.0, 0.5)
    x, dens = law.density_grid(t)
    hw = law.support_halfwidth(t)
    np.testing.assert_array_equal(x, np.linspace(-hw, hw, 8001))
    np.testing.assert_allclose(dens, law.density(x, t), rtol=0, atol=1e-10)


@pytest.mark.parametrize("n_x", [101, 8001, 1000])
def test_cosine_sum_grid_matches_dense_sum_for_any_grid_size(n_x):
    # fewer, more, and an even number of x points than the 2001 frequencies,
    # on a grid off the origin's symmetry
    law = TanhTransientLaw(1.0, 2.0, 0.5)
    hw = law.support_halfwidth(0.5)
    u, c = law._coefficients(0.5, hw)
    assert u.size == 2001
    x = np.linspace(-hw, 0.7 * hw, n_x)
    dense = np.concatenate([_cosine_sum(x[i : i + 1000], u, c) for i in range(0, n_x, 1000)])
    np.testing.assert_allclose(_cosine_sum_grid(x, u, c), dense, rtol=0, atol=1e-10)


def test_tanh_density_grid_no_jumps_is_gaussian_pair():
    x, dens = TanhTransientLaw(0.0, 2.0, 0.5).density_grid(1.0)
    np.testing.assert_allclose(dens, gaussian_pair_mixture(x, 1.0, 0.5), rtol=0, atol=1e-14)


def _peak_alloc(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cosine_inversion_grid_memory():
    # the dense sum peaks at 244 MB here: an 8001 x 2001 outer product and its cosine
    assert _peak_alloc(lambda: TanhTransientLaw(1.0, 2.0, 0.5).cdf_grid(1.0)) < 8 * 2**20
    assert _peak_alloc(lambda: TiltedOuLaw(1.0, 1.0, 2.0, 0.5).cdf_grid()) < 8 * 2**20


# ---------------------------------------------------------------------------
# OU driven by the tanh jump diffusion


def test_ou_tanh_stationary_symmetric():
    law = TiltedOuLaw(1.0, 1.0, 2.0, 0.5)
    y = np.linspace(0.1, 6.0, 50)
    np.testing.assert_allclose(
        law.jump_component_density(y), law.jump_component_density(-y), rtol=1e-12
    )
    np.testing.assert_allclose(law.density(y), law.density(-y), rtol=0, atol=1e-13)


def test_ou_tanh_jump_component_mass():
    # quadrature of the Bessel-K mixture; centers are integrable singularities
    law = TiltedOuLaw(1.0, 1.0, 2.0, 0.5)
    c = law.beta / law.alpha
    mass, _ = integrate.quad(
        lambda y: law.jump_component_density(y), -40.0, 40.0,
        points=[-c, c], limit=400,
    )
    assert mass == pytest.approx(1.0, abs=1e-5)


def test_ou_tanh_log_singularity_at_centers():
    # nu = 0 (lam = alpha): log-singular at the centers, finite elsewhere,
    # matching the K_0 small-argument asymptotics
    law = TiltedOuLaw(1.0, 1.0, 2.0, 0.5)
    assert law.nu == 0.0
    c = law.beta / law.alpha
    assert np.isinf(law.jump_component_density(c))
    assert np.isfinite(law.jump_component_density(c + 0.3))
    eps = np.array([1e-3, 1e-5, 1e-7])
    vals = law.jump_component_density(c + eps)
    # K_0(g s) ~ -log(s) growth: successive differences approach
    # (gamma/(2 pi)) log(100) for decade steps of 100
    diffs = np.diff(vals)
    expect = 0.5 * law.gamma / np.pi * math.log(100.0)
    assert diffs[1] == pytest.approx(expect, rel=0.05)
    assert diffs[0] == pytest.approx(expect, rel=0.15)


def test_ou_tanh_full_law_mass_and_variance():
    alpha, lam, gamma, beta = 1.0, 1.0, 2.0, 0.5
    law = TiltedOuLaw(alpha, lam, gamma, beta)
    y = np.linspace(-14, 14, 6001)
    dens = law.density(y)
    mass = integrate.simpson(dens, x=y)
    var = integrate.simpson(y**2 * dens, x=y)
    # Brownian part 1/(2 alpha) + jump part lam/(alpha gamma^2) + centers (beta/alpha)^2
    expect_var = 1.0 / (2 * alpha) + lam / (alpha * gamma**2) + (beta / alpha) ** 2
    assert mass == pytest.approx(1.0, abs=1e-5)
    assert var == pytest.approx(expect_var, abs=1e-5)


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_ou_density_grid_matches_dense_sum(lam):
    law = TiltedOuLaw(1.0, lam, 2.0, 0.5)
    y, dens = law.density_grid()
    hw = law.support_halfwidth()
    np.testing.assert_array_equal(y, np.linspace(-hw, hw, 8001))
    np.testing.assert_allclose(dens, law.density(y), rtol=0, atol=1e-10)


def test_densities_nonnegative_everywhere():
    # every analytic density evaluates nonnegative across its support
    x_half = np.linspace(0.0, 50.0, 400)
    assert np.all(stationary_ou_m2(1.0, 2.0, 1.0, x_half) >= 0)
    law = TransientLaw(1.0, 1.7, 1.3, 0.2)
    x = np.linspace(-2.0, 40.0, 400)
    for t in (0.2, 1.0, 5.0):
        assert np.all(law.continuous_density(x, t) >= 0)
    tl = TanhTransientLaw(1.0, 2.0, 0.5)
    xs = np.linspace(-15.0, 15.0, 400)
    assert np.all(tl.density(xs, 0.7) > -1e-12)
    olaw = TiltedOuLaw(1.0, 1.5, 2.0, 0.5)
    assert np.all(olaw.density(xs) > -1e-12)
    finite = olaw.jump_component_density(xs)
    assert np.all(finite[np.isfinite(finite)] >= 0)


def test_ou_tanh_nu_definition():
    law = TiltedOuLaw(2.0, 1.0, 2.0, 0.5)
    assert law.nu == 0.5 * (1.0 - 1.0 / 2.0)
    assert law.nu < 0.5
    with pytest.raises(ValueError):
        TiltedOuLaw(1.0, 0.0, 2.0, 0.5)
