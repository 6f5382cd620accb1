"""Generator routes, residual machinery, and convergence certificates."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlangshot import cli, master
from erlangshot.closedform import gumbel_wave, stationary_m1, stationary_ou_m2, whittaker_wave
from erlangshot.master import (
    BoundaryMassError,
    ConstantDrift,
    ConstantRate,
    ExpDecayCentered,
    GridFunction,
    GridSpec,
    LinearRestoring,
    ModelSpec,
    TanhRepulsive,
    _causal_convolution,
    _d1,
    _d2,
    _drift_diffusion_term,
    apply_shift_operator,
    differential_generator,
    fit_convergence_order,
    generator_gap,
    interior_margin,
    stationary_residual,
    wave_residual,
)
from erlangshot.noise import ErlangJumpLaw, erlang_pdf, stream
from reference import integral_generator


def _bump(spec, center, width, amp=1.0):
    x = spec.nodes()
    return GridFunction(spec, amp * np.exp(-((x - center) ** 2) / (2 * width**2)))


def _grid_mass_rate(P, model):
    # total-probability drift of one density: compensated grid sum of the
    # generator times h, which tends to zero under refinement for a compactly
    # supported density because the generator conserves mass
    gen = integral_generator(P, model).values
    return math.fsum(gen.tolist()) * P.spec.h


def _model(m, gamma=0.7, lam=0.8, drift=None, sigma=0.0):
    drift = drift if drift is not None else ConstantDrift(0.0)
    return ModelSpec(drift, sigma, ConstantRate(lam), ErlangJumpLaw(m, gamma))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 100)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 5)
    spec = GridSpec(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        GridFunction(spec, np.zeros(7))
    with pytest.raises(ValueError):
        GridFunction(spec, np.full(11, np.nan))


def test_zero_density_maps_to_zero():
    spec = GridSpec(-5.0, 8.0, 257)
    P = GridFunction(spec, np.zeros(spec.n))
    model = _model(2)
    assert np.all(integral_generator(P, model).values == 0.0)
    assert np.all(differential_generator(P, model).values == 0.0)


def test_free_static_case_is_zero():
    # no rate, no drift, no diffusion: the generator vanishes identically
    spec = GridSpec(-6.0, 6.0, 513)
    P = _bump(spec, 0.0, 0.5)
    model = _model(1, lam=0.0)
    out = integral_generator(P, model).values
    assert np.max(np.abs(out)) < 1e-13


def test_generator_linearity():
    spec = GridSpec(-6.0, 9.0, 513)
    P = _bump(spec, 0.5, 0.6)
    Q = _bump(spec, -1.0, 0.4, amp=0.7)
    model = _model(2, drift=LinearRestoring(0.5), sigma=0.4)
    a, b = 1.7, -0.6
    comb = GridFunction(spec, a * P.values + b * Q.values)
    for gen in (integral_generator, differential_generator):
        lhs = gen(comb, model).values
        rhs = a * gen(P, model).values + b * gen(Q, model).values
        scale = max(1.0, np.max(np.abs(rhs)))
        # stencil composition amplifies rounding by ~1/h^m; 1e-9 is still
        # ten orders below the generator scale here
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_m1_zero_drift_reduces_to_direct_divergence():
    # the differential route must equal -d/dx (lambda P) node-wise
    spec = GridSpec(-6.0, 9.0, 1025)
    P = _bump(spec, 0.5, 0.7)
    lam = 0.8
    model = _model(1, lam=lam)
    out = differential_generator(P, model).values
    lamP = lam * P.values
    h = spec.h
    direct = np.zeros_like(lamP)
    direct[2:-2] = -(-lamP[4:] + 8 * lamP[3:-1] - 8 * lamP[1:-3] + lamP[:-4]) / (12 * h)
    k = interior_margin(1)
    assert np.max(np.abs(out[k:-k] - direct[k:-k])) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_generator_agreement_order(m):
    # integral and differential forms agree under refinement at order >= 2;
    # the higher-m ladders stay coarser so the m-fold stencil composition
    # does not amplify rounding above the truncation signal
    sizes = (513, 1025, 2049, 4097) if m <= 2 else (257, 513, 1025, 2049)
    gaps, hs = [], []
    model = _model(m, gamma=0.7, lam=0.8, drift=LinearRestoring(0.6), sigma=0.3)
    for n in sizes:
        spec = GridSpec(-8.0, 10.0, n)
        gap = 0.0
        rng = np.random.default_rng(100 + m)
        for _ in range(3):
            c = rng.uniform(-0.5, 1.5)
            w = rng.uniform(0.25, 0.45)
            gap = max(gap, generator_gap(_bump(spec, c, w), model))
        gaps.append(gap)
        hs.append(spec.h)
    assert fit_convergence_order(hs, gaps) >= 1.7


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_shift_operator_kernel(m):
    # (d/dx + gamma)^m annihilates e^{-gamma x} q(x) for deg q < m
    gamma = 0.8
    rng = np.random.default_rng(m)
    coeffs = rng.uniform(0.5, 1.5, size=m)
    errs, hs = [], []
    # coarse ladder keeps truncation above the rounding floor for the fit
    for n in (129, 257, 513):
        spec = GridSpec(0.0, 12.0, n)
        x = spec.nodes()
        q = sum(c * x**k for k, c in enumerate(coeffs))
        vals = np.exp(-gamma * x) * q
        out = apply_shift_operator(vals, spec.h, gamma, m)
        k = 2 * m + 2
        errs.append(np.max(np.abs(out[k:-k])))
        hs.append(spec.h)
    assert fit_convergence_order(hs, errs) >= 1.7
    assert errs[-1] < 1e-6


def test_mass_conservation_under_refinement():
    model = _model(2, gamma=1.1, lam=0.9, drift=LinearRestoring(0.4), sigma=0.2)
    rates = []
    for n in (1025, 2049, 4097):
        spec = GridSpec(-10.0, 14.0, n)
        rates.append(abs(_grid_mass_rate(_bump(spec, 0.3, 0.6), model)))
    assert rates[-1] < 5e-5
    assert rates[-1] < rates[0] / 5.0


def test_integral_generator_annihilates_m2_stationary():
    # the analytic m=2 law is a null vector of the integral-form generator
    alpha, lam, gamma = 1.0, 4.0, 1.0
    model = _model(2, gamma=gamma, lam=lam, drift=LinearRestoring(alpha))
    res, hs = [], []
    for n in (1025, 2049, 4097):
        spec = GridSpec(1e-4, 60.0, n)
        gf = GridFunction(spec, stationary_ou_m2(alpha, lam, gamma, spec.nodes()))
        out = integral_generator(gf, model).values
        k = interior_margin(2)
        res.append(np.max(np.abs(out[k:-k])))
        hs.append(spec.h)
    assert fit_convergence_order(hs, res) >= 1.7


def test_stationary_residual_m1_order():
    # Gamma(4, 1) stationary law of the m=1 linear-drift dynamics
    alpha, lam, gamma = 1.0, 4.0, 1.0
    model = _model(1, gamma=gamma, lam=lam, drift=LinearRestoring(alpha))
    res, hs = [], []
    for n in (1025, 2049, 4097):
        spec = GridSpec(1e-4, 60.0, n)
        gf = stationary_m1(lambda x: alpha * x, lambda x: lam, gamma, spec)
        res.append(stationary_residual(gf, model))
        hs.append(spec.h)
    assert fit_convergence_order(hs, res) >= 1.7


def test_stationary_residual_m2_order():
    alpha, lam, gamma = 1.0, 4.0, 1.0
    model = _model(2, gamma=gamma, lam=lam, drift=LinearRestoring(alpha))
    res, hs = [], []
    for n in (1025, 2049, 4097):
        spec = GridSpec(1e-4, 60.0, n)
        gf = GridFunction(spec, stationary_ou_m2(alpha, lam, gamma, spec.nodes()))
        res.append(stationary_residual(gf, model))
        hs.append(spec.h)
    assert fit_convergence_order(hs, res) >= 1.7


def test_stationary_residual_negative_control():
    # a perturbed density must keep a residual bounded away from zero
    alpha, lam, gamma = 1.0, 4.0, 1.0
    model = _model(2, gamma=gamma, lam=lam, drift=LinearRestoring(alpha))
    res = []
    for n in (1025, 2049):
        spec = GridSpec(1e-4, 60.0, n)
        x = spec.nodes()
        vals = stationary_ou_m2(alpha, lam, gamma, x) * (1.0 + 0.1 * np.sin(x))
        vals[0] = 0.0
        res.append(stationary_residual(GridFunction(spec, vals), model))
    assert min(res) > 1e-3
    assert abs(res[1] / res[0] - 1.0) < 0.5  # not shrinking with h


def test_wave_residual_m1():
    sol = gumbel_wave(1.0, 1.0)
    res, hs = [], []
    for n in (513, 1025, 2049):
        spec = GridSpec(-7.0, 34.0, n)
        P = GridFunction(spec, sol.profile(spec.nodes()))
        res.append(wave_residual(P, 1.0, 1.0, 1, sol.speed))
        hs.append(spec.h)
    assert fit_convergence_order(hs, res) >= 1.7
    # wrong speed: residual stays put under refinement
    bad = []
    for n in (513, 1025):
        spec = GridSpec(-7.0, 34.0, n)
        P = GridFunction(spec, sol.profile(spec.nodes()))
        bad.append(wave_residual(P, 1.0, 1.0, 1, 2.0 * sol.speed))
    assert min(bad) > 1e-2
    assert abs(bad[1] / bad[0] - 1.0) < 0.5


def test_wave_residual_m2():
    sol = whittaker_wave(1.0, 1.0)
    res, hs = [], []
    for n in (513, 1025, 2049):
        spec = GridSpec(-6.0, 38.0, n)
        P = GridFunction(spec, sol.profile(spec.nodes()))
        res.append(wave_residual(P, 1.0, 1.0, 2, sol.speed))
        hs.append(spec.h)
    assert fit_convergence_order(hs, res) >= 1.7


def test_boundary_mass_error():
    # only the integral route, whose convolution starts at x_lo, needs the
    # decay; the differential residuals are local and take P as it is
    spec = GridSpec(-3.0, 3.0, 257)
    P = _bump(spec, 2.5, 0.5)  # leaks through the right boundary
    with pytest.raises(BoundaryMassError):
        integral_generator(P, _model(1))
    with pytest.raises(BoundaryMassError):
        generator_gap(P, _model(1))
    assert math.isfinite(wave_residual(P, 1.0, 1.0, 1, 1.0))


def test_differential_generator_is_local():
    # a density that does not vanish at either grid end: on the common
    # interior the generator on [-2, 2] is, bit for bit, its value on
    # [-4, 4] (spacing 2^-6 on both, so the shared nodes are the same
    # doubles)
    model = _model(2, drift=LinearRestoring(0.6), sigma=0.3)
    wide = GridSpec(-4.0, 4.0, 513)
    narrow = GridSpec(-2.0, 2.0, 257)
    x = wide.nodes()
    vals = 0.5 + np.exp(-x**2) + 0.1 * np.sin(3.0 * x)
    assert np.array_equal(x[128:385], narrow.nodes())
    k = interior_margin(2)
    got = differential_generator(GridFunction(narrow, vals[128:385]), model).values[k:-k]
    want = differential_generator(GridFunction(wide, vals), model).values[128 + k:385 - k]
    assert np.array_equal(got, want)
    assert np.all(got != 0.0)


def _ou_law_on_the_grid(m, alpha, lam, gamma, spec):
    """The stationary law the stationary command tabulates on ``spec``."""
    if m == 1:
        return stationary_m1(lambda x: alpha * x, lambda x: lam, gamma, spec)
    return GridFunction(spec, stationary_ou_m2(alpha, lam, gamma, spec.nodes()))


@pytest.mark.parametrize("m", [1, 2])
def test_stationary_residual_on_the_commands_grid(m):
    # the stationary command's grid [1e-4, 40] of 2001 points, where the law
    # is far from 0 at x_lo: the residual needs no vanishing boundary value,
    # and a model 5% off in alpha reads well above it
    spec = GridSpec(1e-4, 40.0, 2001)
    P = _ou_law_on_the_grid(m, 1.0, 2.0, 1.0, spec)
    assert P.values[0] > 1e-5
    assert stationary_residual(P, _model(m, gamma=1.0, lam=2.0, drift=LinearRestoring(1.0))) < 1e-6
    off = _model(m, gamma=1.0, lam=2.0, drift=LinearRestoring(1.05))
    assert stationary_residual(P, off) > 1e-2


def test_stationary_residual_m1_fourth_order_on_the_commands_grid():
    model = _model(1, gamma=1.0, lam=2.0, drift=LinearRestoring(1.0))
    res, hs = [], []
    for n in (2001, 4001, 8001):
        spec = GridSpec(1e-4, 40.0, n)
        res.append(stationary_residual(_ou_law_on_the_grid(1, 1.0, 2.0, 1.0, spec), model))
        hs.append(spec.h)
    assert fit_convergence_order(hs, res) >= 3.5


def test_model_validation():
    with pytest.raises(ValueError):
        LinearRestoring(-1.0)
    with pytest.raises(ValueError):
        ConstantRate(-0.5)
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            _model(1, sigma=sigma)


def test_diffusion_term_squares_sigma_as_the_array_form_did():
    # sigma * sigma is numpy's square of a sigma array; sigma ** 2 (C pow)
    # differs from it in the last bit at this sigma
    sigma = 1.6567384081428794e+142
    assert sigma**2 != sigma * sigma
    spec = GridSpec(-1.0, 1.0, 65)
    P = _bump(spec, 0.0, 0.2, amp=1e-270)
    x = spec.nodes()
    want = -_d1(ConstantDrift(0.0).b(x) * P.values, spec.h) + 0.5 * _d2(
        np.full_like(x, sigma) ** 2 * P.values, spec.h)
    got = _drift_diffusion_term(P, _model(1, sigma=sigma), x)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 257, 1000])
def test_causal_convolution_matches_direct_sum(n):
    # first n terms of the zero-padded real FFT product against the direct sum
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n)
    kern = np.exp(-0.05 * np.arange(n)) * rng.uniform(0.5, 1.5, n)
    want = np.convolve(g, kern)[:n]
    got = _causal_convolution(g, kern)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _bump_stack(spec, k, seed):
    """(k, n) stack of two-bump densities well inside the grid."""
    rng = np.random.default_rng(seed)
    x = spec.nodes()
    span = spec.x_hi - spec.x_lo
    c = spec.x_lo + span * rng.uniform(0.4, 0.6, (k, 2, 1))
    w = span * rng.uniform(0.02, 0.04, (k, 2, 1))
    return np.sum(rng.uniform(0.5, 1.5, (k, 2, 1)) * np.exp(-((x - c) ** 2) / (2 * w**2)), axis=1)


_STACK_MODELS = [
    *(("linear", _model(m, drift=LinearRestoring(0.6), sigma=0.3)) for m in (1, 2, 3, 4)),
    *(("wave", ModelSpec(ConstantDrift(-1.3), 0.0, ExpDecayCentered(1.0, 2.0),
                         ErlangJumpLaw(m, 1.0))) for m in (1, 2, 3, 4)),
]


@pytest.mark.parametrize("kind,model", _STACK_MODELS,
                         ids=[f"{kind}-m{model.jumps.m}" for kind, model in _STACK_MODELS])
def test_stacked_generators_equal_each_row_bit_for_bit(kind, model):
    # a (k, n) stack runs every stencil and one kernel FFT for all rows, yet
    # each row is what a one-row call gives, to the last bit
    spec = GridSpec(-8.0, 10.0, 1025)
    stack = _bump_stack(spec, 5, model.jumps.m)
    P = GridFunction(spec, stack)
    rows = [GridFunction(spec, row) for row in stack]
    for gen in (integral_generator, differential_generator):
        got = gen(P, model).values
        assert got.shape == stack.shape
        assert np.array_equal(got, np.array([gen(r, model).values for r in rows]))
    assert generator_gap(P, model) == max(generator_gap(r, model) for r in rows)
    assert stationary_residual(P, model) == max(stationary_residual(r, model) for r in rows)


def test_decay_is_checked_on_every_row():
    spec = GridSpec(-3.0, 3.0, 257)
    stack = np.array([_bump(spec, 0.0, 0.3).values, _bump(spec, 2.5, 0.5).values])
    integral_generator(GridFunction(spec, stack[:1]), _model(1))
    with pytest.raises(BoundaryMassError):
        integral_generator(GridFunction(spec, stack), _model(1))
    with pytest.raises(ValueError):
        GridFunction(spec, np.zeros((0, spec.n)))
    with pytest.raises(ValueError):
        GridFunction(spec, np.zeros((2, 2, spec.n)))


def test_causal_convolution_of_a_stack_is_per_row():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 300))
    kern = np.exp(-0.05 * np.arange(300))
    got = _causal_convolution(g, kern)
    assert np.array_equal(got, np.array([_causal_convolution(row, kern) for row in g]))


# ---------------------------------------------------------------------------
# generator_gap forms lambda P and the drift/diffusion term once for both
# routes; the two routes written out on their own, each stencil as one
# expression, are its reference


def _d1_expr(values, h):
    out = np.zeros_like(values)
    out[..., 2:-2] = (
        -values[..., 4:] + 8.0 * values[..., 3:-1] - 8.0 * values[..., 1:-3] + values[..., :-4]
    ) / (12.0 * h)
    return out


def _d2_expr(values, h):
    out = np.zeros_like(values)
    out[..., 2:-2] = (
        -values[..., 4:]
        + 16.0 * values[..., 3:-1]
        - 30.0 * values[..., 2:-2]
        + 16.0 * values[..., 1:-3]
        - values[..., :-4]
    ) / (12.0 * h**2)
    return out


@pytest.mark.parametrize("shape", [(9,), (10,), (65,), (3, 9), (4, 257)])
def test_stencils_equal_their_one_expression_forms_bit_for_bit(shape):
    # the stencils work in place, term by term; each node must be the value
    # of the single expression, signed zeros and subnormals included
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape)
    values.flat[1::13] *= 10.0 ** rng.uniform(-300, 300, values.flat[1::13].size)
    values.flat[::7] = 0.0
    values.flat[3::7] = -0.0
    values.flat[5::11] = 3e-310
    for h in (0.37, 1e-3, 781.25):
        for stencil, expr in ((_d1, _d1_expr), (_d2, _d2_expr)):
            assert stencil(values, h).tobytes() == expr(values, h).tobytes()


def _shift_expr(values, h, gamma, times):
    for _ in range(times):
        values = _d1_expr(values, h) + gamma * values
    return values


def _two_routes(P, model):
    """The integral and differential generators and their gap, each route
    computed on its own from single-expression stencils: the reference the
    fused gap must equal bit for bit."""
    m, gamma, h = model.jumps.m, model.jumps.gamma, P.spec.h
    x = P.spec.nodes()
    lamP = model.rate.rate(x) * P.values
    dd = -_d1_expr(model.drift.b(x) * P.values, h) + 0.5 * _d2_expr(
        model.sigma * model.sigma * P.values, h)
    kern = erlang_pdf(model.jumps, np.arange(P.spec.n) * h)
    conv = h * (_causal_convolution(lamP, kern) - 0.5 * (lamP[..., :1] * kern + lamP * kern[0]))
    integral = dd - lamP + conv
    integral[..., :2] = 0.0
    integral[..., -2:] = 0.0
    differential = _shift_expr(dd, h, gamma, m) + (gamma**m * lamP - _shift_expr(lamP, h, gamma, m))
    k = interior_margin(m)
    differential[..., :k] = 0.0
    differential[..., -k:] = 0.0
    lhs = _shift_expr(integral, h, gamma, m)
    gap = float(np.max(np.abs(lhs[..., k:-k] - differential[..., k:-k])))
    return integral, differential, gap


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(drift=st.sampled_from([ConstantDrift(0.0), ConstantDrift(-1.3), LinearRestoring(0.6),
                              TanhRepulsive(0.5)]),
       sigma=st.sampled_from([0.0, 0.3, 1.7]),
       rate=st.sampled_from([ConstantRate(0.8), ExpDecayCentered(1.0, 2.0)]),
       m=st.integers(1, 4), gamma=st.floats(0.3, 3.0), rows=st.integers(1, 5),
       n=st.integers(65, 2049), seed=st.integers(0, 2**32 - 1))
def test_generator_gap_equals_the_two_separate_routes_bit_for_bit(drift, sigma, rate, m, gamma,
                                                                   rows, n, seed):
    spec = GridSpec(-8.0, 10.0, n)
    P = GridFunction(spec, _bump_stack(spec, rows, seed))
    model = ModelSpec(drift, sigma, rate, ErlangJumpLaw(m, gamma))
    for Q in (P, GridFunction(spec, P.values[0])):
        integral, differential, gap = _two_routes(Q, model)
        assert generator_gap(Q, model) == gap
        assert integral_generator(Q, model).values.tobytes() == integral.tobytes()
        assert differential_generator(Q, model).values.tobytes() == differential.tobytes()
        assert gap == float(np.max(np.abs(
            apply_shift_operator(integral_generator(Q, model).values, Q.spec.h, gamma, m)
            - differential_generator(Q, model).values)[..., interior_margin(m):-interior_margin(m)]))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_generator_gap_forms_the_shared_terms_once(monkeypatch, m):
    # one drift/diffusion term (one _d1, one _d2) and 3m shifts: the m of
    # the integral route, and the m each of dd and lambda P in the
    # differential route; the two generators called in turn need 3m + 2
    # and 2
    calls = Counter()
    for name in ("_d1", "_d2"):
        def counted(values, h, _name=name, _stencil=getattr(master, name)):
            calls[_name] += 1
            return _stencil(values, h)
        monkeypatch.setattr(master, name, counted)
    spec = GridSpec(-8.0, 10.0, 257)
    model = _model(m, drift=LinearRestoring(0.6), sigma=0.3)
    generator_gap(GridFunction(spec, _bump_stack(spec, 2, m)), model)
    assert calls == {"_d1": 3 * m + 1, "_d2": 1}


@pytest.mark.parametrize("node", [0, 1, -1, -2, 2, 130])
def test_generator_gap_raises_where_a_route_is_not_finite(node):
    # an infinite drift at grid node 0, 1, n-2 or n-1 makes the integral
    # route infinite only at nodes 2, 3, n-4 or n-3, which no shift carries
    # into the compared interior; integral_generator raises for it, and so
    # must the gap, as it does for a node that reaches the interior
    spec = GridSpec(-8.0, 10.0, 257)
    P = GridFunction(spec, _bump_stack(spec, 2, 0))

    class InfiniteAtNode(ConstantDrift):
        def b(self, x):
            out = super().b(x)
            out[node] = np.inf
            return out

    model = _model(2, drift=InfiniteAtNode(0.5))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="finite"):
            integral_generator(P, model)
        with pytest.raises(ValueError, match="finite"):
            generator_gap(P, model)


# relative bounds on the two coarsest grids of each m's ladder: about ten
# times the largest relative difference over seeds 0-99 (1.2e-10, 1.1e-8,
# 8.7e-7 and 1.0e-7 for m = 1 to 4)
_ROUNDING_ONLY = {1: 2e-9, 2: 2e-7, 3: 1e-5, 4: 2e-6}


@pytest.mark.parametrize("seed", [0, 1])
def test_drift_and_diffusion_reach_the_gap_only_through_rounding(seed):
    # both routes apply the same linear stencils to the same drift/diffusion
    # term, so in exact arithmetic lhs - rhs is (d/dx + gamma)^m of the
    # Erlang convolution minus gamma^m lambda P, whatever b and sigma are.
    # On the README verify-master config's coarse grids, a restoring drift
    # with diffusion and no drift or diffusion give the same gap to rounding
    for m in (1, 2, 3, 4):
        with_dd = _model(m, drift=LinearRestoring(0.6), sigma=0.3)
        bare = _model(m)
        for n in cli._ladder(m, [513, 1025, 2049, 4097, 8193])[:2]:
            spec = GridSpec(-8.0, 10.0, n)
            P = GridFunction(spec, cli._random_bumps(stream(seed, m), spec.nodes(), -8.0, 10.0, 3))
            gap = generator_gap(P, bare)
            assert abs(generator_gap(P, with_dd) - gap) <= _ROUNDING_ONLY[m] * gap
