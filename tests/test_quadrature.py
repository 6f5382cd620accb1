"""Batched Gauss-Kronrod quadrature and the sampled-data rules against
scipy.integrate, which stays the independent reference here."""

import math

import numpy as np
import pytest
from scipy import integrate

from erlangshot import quadrature
from erlangshot.closedform import DivergenceError, _quad
from erlangshot.quadrature import (
    CONVERGED,
    cumulative_trapezoid,
    gauss_kronrod,
    simpson,
    trapezoid_cdf,
)


def test_rule_extends_the_ten_point_gauss_rule_exactly_to_degree_31():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    gauss = quadrature.GAUSS_WEIGHTS > 0
    assert np.max(np.abs(quadrature.NODES[gauss] - nodes)) <= 1e-15
    assert np.max(np.abs(quadrature.GAUSS_WEIGHTS[gauss] - weights)) <= 1e-15
    for d in range(32):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert quadrature.NODES**d @ quadrature.KRONROD_WEIGHTS == pytest.approx(exact, abs=1e-15)


PANEL = [
    ("exp", lambda x: np.exp(-x), 0.0, np.inf),
    ("cauchy", lambda x: 1.0 / (1.0 + x * x), 0.0, np.inf),
    ("shifted gamma tail", lambda x: x**2.5 * np.exp(-x), 1.0, np.inf),
    ("slow tail", lambda x: np.exp(-0.05 * x) / (1.0 + x) ** 0.8, 1.0, np.inf),
    ("sqrt endpoint", np.sqrt, 0.0, 1.0),
    ("log endpoint", np.log, 0.0, 1.0),
    ("narrow peak", lambda x: np.exp(-1e4 * (x - 0.3) ** 2), 0.0, 1.0),
    ("oscillation", lambda x: np.cos(20.0 * x), 0.0, 3.0),
    ("gaussian", lambda x: np.exp(-x * x), -2.0, 5.0),
    ("reversed", lambda x: np.exp(-1e3 * (x - 0.5) ** 2), 3.0, -2.0),
]


@pytest.mark.parametrize("name,f,a,b", PANEL, ids=[p[0] for p in PANEL])
def test_panel_matches_quadpack(name, f, a, b):
    (val,), (err,), (status,) = gauss_kronrod(
        lambda x, k: f(x), a, b, epsabs=1e-13, epsrel=1e-13, limit=400
    )
    ref, _ = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert status == CONVERGED
    assert abs(val - ref) <= max(1e-12 * abs(ref), 1e-13)
    assert err <= max(1e-13, 1e-13 * abs(val))


def test_batch_mixing_finite_and_infinite_owners_equals_single_calls():
    rates = np.array([0.3, 1.0, 4.0, 0.7, 2.5, 9.0])
    a = np.array([0.0, 0.5, 1.0, 0.0, 2.0, 0.1])
    b = np.array([np.inf, 3.0, np.inf, 0.01, np.inf, 40.0])

    def f(x, k):
        return np.exp(-rates[k] * x) * np.sqrt(x + 1.0)

    vals, errs, status = gauss_kronrod(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)
    for i in range(rates.size):
        (v,), (e,), (s,) = gauss_kronrod(
            lambda x, k: f(x, np.full_like(k, i)), a[i], b[i], epsabs=1e-14, epsrel=1e-12,
            limit=400,
        )
        assert s == status[i] == CONVERGED
        assert vals[i] == pytest.approx(v, rel=1e-14, abs=0)
        # |Kronrod - Gauss| cancels, so the estimates agree to rounding noise
        assert errs[i] == pytest.approx(e, rel=1e-3, abs=0)
        ref, _ = integrate.quad(lambda x: f(x, i), a[i], b[i], epsabs=1e-14, epsrel=1e-12)
        assert abs(vals[i] - ref) <= 1e-12 * abs(ref)


def test_quad_returns_a_float():
    val = _quad(lambda x: np.exp(-x), 0.0, np.inf)
    assert type(val) is float and val == pytest.approx(1.0, abs=1e-12)


def test_quad_raises_at_the_subdivision_limit():
    with pytest.raises(DivergenceError, match="failed to converge"):
        _quad(lambda x: np.cos(200.0 * x), 0.0, 100.0, limit=5)


def test_quad_raises_on_a_divergent_integral():
    with pytest.raises(DivergenceError):
        _quad(lambda x: 1.0 / x, 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_quad_raises_on_non_finite_values(bad):
    with pytest.raises(DivergenceError, match="non-finite"):
        _quad(lambda x: np.where(x > 0.5, bad, 1.0), 0.0, 1.0)


def test_limits_must_be_finite_or_plus_infinity():
    with pytest.raises(ValueError):
        gauss_kronrod(lambda x, k: x, -np.inf, 0.0, epsabs=1e-10, epsrel=1e-10, limit=50)


def _samples(n, uniform):
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 5.0, n) if uniform else np.sort(rng.uniform(0.0, 5.0, n))
    return x, np.sin(3.0 * x) + x**2


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "scattered"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 100, 101, 8001])
def test_simpson_and_cumulative_trapezoid_match_scipy(n, uniform):
    x, y = _samples(n, uniform)
    ref = integrate.simpson(y, x=x)
    assert abs(simpson(y, x) - ref) <= 4 * np.finfo(float).eps * abs(ref)
    cum = integrate.cumulative_trapezoid(y, x, initial=0.0)
    got = cumulative_trapezoid(y, x)
    assert got.shape == cum.shape and got[0] == 0.0
    assert np.max(np.abs(got - cum)) <= 4 * np.finfo(float).eps * np.max(np.abs(cum))


def test_simpson_is_exact_for_quadratics_on_any_grid():
    # the odd-count rule and the even-count end correction both integrate
    # the interpolating parabolas exactly
    for n in (7, 8):
        x = np.sort(np.random.default_rng(n).uniform(-1.0, 2.0, n))
        y = 1.0 - x + 2.0 * x**2
        lo, hi = x[0], x[-1]

        def prim(t):
            return t - t**2 / 2 + 2 * t**3 / 3

        assert simpson(y, x) == pytest.approx(prim(hi) - prim(lo), abs=1e-13)
    assert math.isclose(simpson([1.0, 3.0], [0.0, 2.0]), 4.0)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "scattered"])
def test_trapezoid_cdf_is_the_running_integral_over_its_total(uniform):
    x, y = _samples(101, uniform)
    cum = cumulative_trapezoid(y, x)
    cdf = trapezoid_cdf(y, x)
    assert cdf.tobytes() == (cum / cum[-1]).tobytes()
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
