"""Special-function kernel against its independent oracles."""

import math

import numpy as np
import pytest

from erlangshot import oracles, specfun
from erlangshot.specfun import (
    bessel_i,
    bessel_k,
    digamma,
    erlang_survival,
    kummer_1f1,
    kummer_u,
    log_gamma,
    whittaker_w0,
)
from reference import exp1_ref


def test_log_gamma_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
    # oracle: Stirling-series evaluation; Gamma(1/2) = sqrt(pi)
    assert oracles.log_gamma_ref(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(oracles.log_gamma_ref(0.5), abs=1e-13)


def test_log_gamma_oracle_sweep():
    rng = np.random.default_rng(11)
    for x in 10 ** rng.uniform(-3, 3, size=120):
        ref = oracles.log_gamma_ref(x)
        tol = max(1e-12, 8 * np.finfo(float).eps * abs(ref))
        assert abs(log_gamma(x) - ref) <= tol


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.3)


def test_digamma_values():
    # oracle: Richardson-extrapolated central difference of log-gamma
    assert digamma(1.0) == pytest.approx(oracles.digamma_ref(1.0), abs=1e-10)
    assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)
    assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-12)
    # duplication identity, cross-checked against the difference oracle
    dup = digamma(1.0) - 2.0 * math.log(2.0)
    assert digamma(0.5) == pytest.approx(dup, abs=1e-12)
    assert oracles.digamma_ref(0.5) == pytest.approx(dup, abs=1e-10)


def test_digamma_recurrence_invariant():
    rng = np.random.default_rng(5)
    x = rng.uniform(1e-6, 50.0, size=100)
    assert np.max(np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)) < 1e-10


def test_digamma_oracle_sweep():
    rng = np.random.default_rng(12)
    for x in 10 ** rng.uniform(-2, 3, size=120):
        assert abs(digamma(x) - oracles.digamma_ref(x)) <= 1e-10


def test_bessel_i_values():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0
    assert bessel_i(0, 1.0) == pytest.approx(oracles.bessel_i_ref(0, 1.0), rel=1e-12)
    assert bessel_i(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-12)


def test_bessel_i_oracle_sweep():
    rng = np.random.default_rng(13)
    for _ in range(120):
        nu, x = rng.uniform(0, 5), rng.uniform(0, 50)
        assert bessel_i(nu, x) == pytest.approx(oracles.bessel_i_ref(nu, x), rel=1e-10)


def test_bessel_k_values():
    # half-integer closed form K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert bessel_k(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-1), rel=1e-12)
    assert bessel_k(-0.3, 2.0) == bessel_k(0.3, 2.0)
    assert bessel_k(0, 1.0) == pytest.approx(oracles.bessel_k_ref(0, 1.0), rel=1e-11)
    assert bessel_k(0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-10)


def test_bessel_k_oracle_sweep():
    rng = np.random.default_rng(14)
    for _ in range(120):
        nu = rng.uniform(-3, 3)
        x = 10 ** rng.uniform(-3, math.log10(50))
        assert bessel_k(nu, x) == pytest.approx(oracles.bessel_k_ref(nu, x), rel=1e-9)


def _ode_residual(fn, nu, lo, hi):
    # |x^2 y'' + x y' - (x^2 + nu^2) y| via 4th-order central differences,
    # step chosen to balance truncation against rounding
    x = np.linspace(lo, hi, 2501)
    h = x[1] - x[0]
    y = fn(nu, x)
    xi, yi = x[2:-2], y[2:-2]
    d1 = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    d2 = (-y[4:] + 16 * y[3:-1] - 30 * yi + 16 * y[1:-3] - y[:-4]) / (12 * h**2)
    res = xi**2 * d2 + xi * d1 - (xi**2 + nu**2) * yi
    return np.max(np.abs(res)), np.max(np.abs(y))


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.5])
def test_bessel_ode_residual(nu):
    res, scale = _ode_residual(bessel_i, nu, 1.0, 6.0)
    assert res <= 1e-6 * scale
    res, scale = _ode_residual(bessel_k, nu, 1.0, 6.0)
    assert res <= 1e-6 * scale


def test_erlang_survival_values():
    g = 0.8
    for x in (0.0, 0.5, 2.0):
        assert erlang_survival(1, g, x) == pytest.approx(math.exp(-g * x), abs=1e-14)
    assert erlang_survival(4, 2.2, 0.0) == 1.0
    assert erlang_survival(2, 1.0, 1.0) == pytest.approx(
        oracles.erlang_survival_ref(2, 1.0, 1.0), abs=1e-12
    )
    assert erlang_survival(2, 1.0, 1.0) == pytest.approx(2 * math.exp(-1), abs=1e-12)


def test_erlang_survival_monotone_and_oracle():
    rng = np.random.default_rng(15)
    for _ in range(40):
        m = int(rng.integers(1, 6))
        g = rng.uniform(0.3, 3.0)
        x = np.sort(rng.uniform(0, 8, size=30))
        vals = erlang_survival(m, g, x)
        assert np.all(np.diff(vals) <= 1e-15)
        for xi in x[::7]:
            assert erlang_survival(m, g, xi) == pytest.approx(
                oracles.erlang_survival_ref(m, g, xi), abs=1e-12
            )


def test_erlang_survival_poisson_sum_identity():
    # independent identity: tail of Erlang(m) = P(Poisson(gamma x) < m)
    rng = np.random.default_rng(16)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        g = rng.uniform(0.3, 3.0)
        x = rng.uniform(0.0, 9.0)
        psum = sum(math.exp(-g * x) * (g * x) ** k / math.factorial(k) for k in range(m))
        assert erlang_survival(m, g, x) == pytest.approx(psum, abs=1e-12)


def test_kummer_u_values():
    assert kummer_u(1, 1, 1.0) == pytest.approx(oracles.kummer_u_ref(1, 1, 1.0), rel=1e-10)
    assert kummer_u(1, 1, 1.0) == pytest.approx(0.5963473623231941, rel=1e-10)
    # asymptotic regime: U(1,1,z) ~ 1/z
    assert abs(kummer_u(1, 1, 100.0) - 0.01) < 0.01 * 0.01 * 100  # within 1% of 0.01
    assert kummer_u(1, 1, 100.0) == pytest.approx(0.01, rel=0.01)


def test_kummer_u_positive_and_oracle_sweep():
    rng = np.random.default_rng(17)
    for _ in range(120):
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(0.5, 3.0)
        z = 10 ** rng.uniform(-1.3, math.log10(50))
        val = kummer_u(a, b, z)
        assert val > 0
        assert val == pytest.approx(oracles.kummer_u_ref(a, b, z), rel=1e-8)


def test_kummer_u_domain():
    with pytest.raises(ValueError):
        kummer_u(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        kummer_u(1.0, 1.0, 0.0)
    # an array of parameters is checked entry by entry, with U's own message
    for a in ([1.0, -0.5], [1.0, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="kummer_u requires a > 0"):
            kummer_u(np.array(a), 1.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="kummer_u requires z > 0"):
        kummer_u(1.0, np.array([1.0, 2.0]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="kummer_u requires finite a and b"):
        kummer_u(1.0, np.array([1.0, np.inf]), 1.0)


def test_kummer_u_non_finite_value_names_its_entry():
    # U(1, 400, z) ~ Gamma(399) z^{-399} overflows at z = 1e-3
    a = np.array([1.0, 1.0, 2.0])
    b = np.array([2.0, 400.0, 400.0])
    with pytest.raises(ValueError, match=r"kummer_u\(1\.0, 400\.0, 0\.001\) did not evaluate"):
        kummer_u(a, b, np.array([1.0, 1e-3, 1e-3]))


def test_whittaker_w0_definitional_identity():
    val = whittaker_w0(0.0, 1.0)
    assert val == pytest.approx(math.exp(-0.5) * kummer_u(0.5, 1.0, 1.0), rel=1e-13)
    # oracle: quadrature through the U representation
    assert val == pytest.approx(oracles.whittaker_w0_ref(0.0, 1.0), rel=1e-10)
    assert val == pytest.approx(0.5215476108195407, rel=1e-10)


def test_whittaker_w0_exponential_integral_identity():
    # U(1,1,z) = e^z E1(z), so W_{-1/2,0}(2) = e^{-1} sqrt(2) e^2 E1(2)
    expect = math.exp(-1.0) * math.sqrt(2.0) * math.exp(2.0) * exp1_ref(2.0)
    assert whittaker_w0(-0.5, 2.0) == pytest.approx(expect, rel=1e-10)
    assert whittaker_w0(-0.5, 2.0) == pytest.approx(0.18798486055675573, rel=1e-9)


def test_whittaker_w0_domain():
    with pytest.raises(ValueError):
        whittaker_w0(0.7, 1.0)  # needs 1/2 - kappa > 0
    with pytest.raises(ValueError):
        whittaker_w0(0.0, -1.0)
    for kappa in ([0.0, 0.5], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="whittaker_w0 requires 1/2 - kappa > 0"):
            whittaker_w0(np.array(kappa), 1.0)


# the verify-specfun sweep's columns for U and W, with b = 1 (the logarithmic
# series at z <= 1/2 and a z <= 1.5, the quadrature elsewhere) on both sides
# of z = 1/2
def _u_columns(n=400):
    rng = np.random.default_rng(31)
    a, b = rng.uniform(0.2, 4.0, n), rng.uniform(0.5, 3.0, n)
    z = 10 ** rng.uniform(-1.3, np.log10(50), n)
    b[::3] = 1.0
    z[::6] = rng.uniform(0.05, 2.0, z[::6].size)
    z[0], z[6] = 0.5, np.nextafter(0.5, 1.0)
    return a, b, z


def _w_columns(n=400):
    rng = np.random.default_rng(37)
    kappa, z = rng.uniform(-3.0, 0.3, n), 10 ** rng.uniform(-1.0, 1.5, n)
    z[::4] = rng.uniform(0.3, 0.7, n // 4)
    return kappa, z


def _one_entry(fn, *cols):
    return np.array([fn(*args) for args in zip(*(c.tolist() for c in cols))])


def test_kummer_u_and_whittaker_w0_columns_match_one_entry_calls():
    # one grid serves a whole column of (a, b, z): each entry within 1e-13
    # of its one-entry call, and each call within the sweep's tolerance of
    # the oracle
    cols = _u_columns()
    got = kummer_u(*cols)
    assert np.all(np.abs(got / _one_entry(kummer_u, *cols) - 1.0) <= 1e-13)
    assert np.all(np.abs(got / oracles.kummer_u_ref(*cols) - 1.0) <= 1e-8)
    cols = _w_columns()
    got = whittaker_w0(*cols)
    assert np.all(np.abs(got / _one_entry(whittaker_w0, *cols) - 1.0) <= 1e-13)
    assert np.all(np.abs(got / oracles.whittaker_w0_ref(*cols) - 1.0) <= 1e-8)
    # parameters and arguments broadcast against each other
    a, b, z = _u_columns(12)
    square = kummer_u(a[:, None], b[:, None], z[None, :])
    assert square.shape == (12, 12)
    assert np.all(np.abs(square[:, 3] / kummer_u(a, b, z[3]) - 1.0) <= 1e-13)
    assert type(kummer_u(1.5, 2.0, 3.0)) is float and type(whittaker_w0(-0.5, 2.0)) is float


def test_shared_parameters_are_the_scalar_route_bitwise():
    # a and b given as full columns of one value take the route of scalar a
    # and b, bit for bit: the wave's kummer_u(a, 1, z) does not depend on
    # how its parameters are shaped
    z = np.concatenate([np.geomspace(1e-6, 700.0, 3000), [0.5, np.nextafter(0.5, 1.0)]])
    for a, b in [(0.5, 1.0), (2.0, 1.0), (1.3, 2.4), (0.2, 0.7)]:
        full = np.full(z.shape, a), np.full(z.shape, b)
        assert np.array_equal(kummer_u(a, b, z), kummer_u(*full, z))
        assert np.array_equal(whittaker_w0(0.5 - a, z), whittaker_w0(np.full(z.shape, 0.5 - a), z))
        assert np.array_equal(kummer_1f1(a, b, z), kummer_1f1(*full, z))


def test_whittaker_w0_oracle_sweep():
    rng = np.random.default_rng(18)
    for _ in range(100):
        kappa = rng.uniform(-3.0, 0.3)
        z = 10 ** rng.uniform(-1.0, 1.5)
        assert whittaker_w0(kappa, z) == pytest.approx(
            oracles.whittaker_w0_ref(kappa, z), rel=1e-8
        )


def test_kummer_1f1_trivial():
    assert kummer_1f1(1.3, 2.0, 0.0) == 1.0
    assert kummer_1f1(0.0, 2.0, 5.0) == 1.0
    assert kummer_1f1(-1.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_kummer_1f1_terminating_polynomials():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        b = rng.uniform(0.5, 4.0)
        z = rng.uniform(-30.0, 30.0)
        assert kummer_1f1(-float(n), b, z) == pytest.approx(
            oracles.kummer_1f1_poly_ref(n, b, z), rel=1e-12, abs=1e-12
        )


def test_kummer_1f1_transform_consistency():
    # Kummer transform: 1F1(a;b;z) = e^z 1F1(b-a;b;-z), checked across the
    # series/asymptotic switchover
    for a, b, z in [(0.7, 2.0, -5.0), (0.3, 1.5, -35.0), (1.2, 2.0, -60.0)]:
        lhs = kummer_1f1(a, b, z)
        rhs = math.exp(z) * kummer_1f1(b - a, b, -z)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_kummer_1f1_asymptotic_matches_polynomial_route():
    # a = -1 is exact; a = -1 + eps via the asymptotic branch must be close
    val_poly = kummer_1f1(-1.0, 2.0, -1e6)
    val_asym = kummer_1f1(-1.0 + 1e-9, 2.0, -1e6)
    assert val_asym == pytest.approx(val_poly, rel=1e-4)


def test_kummer_1f1_large_a_takes_the_series_below_its_asymptotic_range():
    # -z = 40.1 is past 40 but not past |a (a - b + 1)| = 85.5, where the
    # expansion in 1/s is still off by 87%; mpmath.hyp1f1 gives the value
    assert kummer_1f1(-9.5, 2.0, -40.1) == pytest.approx(1.113216577101e9, rel=1e-9)


def test_kummer_1f1_asymptotic_keeps_the_sign_of_gamma_b_minus_a():
    # b - a = -0.25: Gamma(b - a) < 0, so 1F1 is negative here (mpmath.hyp1f1)
    assert kummer_1f1(0.5, 0.25, -100.0) == pytest.approx(-0.07443719169472394, rel=1e-12)


def test_kummer_1f1_overflow_error():
    # terms grow like (a z / b)^k / k! with a z / b = 500: the 500th term is
    # still the largest, about 1e215, so the series neither converges nor
    # overflows within its 500 terms
    with pytest.raises(OverflowError, match="did not converge within 500 terms"):
        kummer_1f1(1.25e9, 1e8, 40.0)


def _lgamma(x):
    # log|Gamma| from the primitive specfun uses, +inf at the poles
    return math.lgamma(x) if x > 0 or x != int(x) else math.inf


def _kummer_1f1_scalar_ref(a, b, z, abs_tol=1e-10, max_terms=500):
    # the one-point evaluation kummer_1f1 performed before it took arrays,
    # kept as the loop reference: the array route must equal it bit for bit
    if a == 0.0 or z == 0.0:
        return 1.0

    def polynomial(a, z):
        term = total = 1.0
        for k in range(1, int(-a) + 1):
            term *= (a + k - 1) / (b + k - 1) * z / k
            total += term
        return total

    if a == int(a) and a <= 0:
        return polynomial(a, z)

    def series(a, z):
        term = total = 1.0
        for k in range(1, max_terms + 1):
            term *= (a + k - 1) / (b + k - 1) * z / k
            total += term
            if abs(term) <= abs_tol * max(1.0, abs(total)):
                return total
        raise OverflowError

    def asymptotic(a, s):
        sign = -1.0 if b - a < 0 and math.ceil(a - b) % 2 else 1.0
        pref = sign * np.exp(_lgamma(b) - _lgamma(b - a)) * s ** (-a)
        term = total = prev = 1.0
        for k in range(1, 60):
            term *= (a + k - 1) * (a - b + k) / (k * s)
            if abs(term) > prev:
                break
            total += term
            prev = abs(term)
            if abs(term) < 1e-17 * abs(total):
                break
        return pref * total

    if z > 0:
        if z <= 40.0:
            return series(a, z)
        return float(np.exp(z) * _kummer_1f1_scalar_ref(b - a, b, -z))
    if -z <= max(40.0, abs(a * (a - b + 1.0))):
        return float(np.exp(z) * series(b - a, -z))
    if b - a == int(b - a) and -500 <= b - a <= 0:
        return float(np.exp(z) * polynomial(b - a, -z))
    return float(asymptotic(a, -z))


# every branch: 0, the positive series (0 < z <= 40), the transform of
# z > 40, the transformed series (-40 <= z < 0) and the asymptotic form
_BRANCH_Z = np.concatenate([
    [0.0, -0.0, 40.0, -40.0, np.nextafter(40.0, 50.0), np.nextafter(-40.0, -50.0)],
    np.random.default_rng(23).uniform(-45.0, 45.0, 60),
    np.random.default_rng(29).uniform(-700.0, 700.0, 40),
])


@pytest.mark.parametrize(
    "a", [-3.0, -1.0, 0.0, 0.3, -0.7, 1.0 - 2.1 / 1.3, 2.5, -5.5, 1.0, 2.0, 4.0]
)
@pytest.mark.parametrize("b", [0.5, 2.0, 3.7])
def test_kummer_1f1_array_equals_scalar_bitwise(a, b):
    # for z > 40, b - a = 0 (a = b = 2) and b - a a negative integer
    # (a = 4, b = 2; a = 2.5, b = 0.5) end on the transform's trivial and
    # polynomial routes
    got = kummer_1f1(a, b, _BRANCH_Z)
    assert got.shape == _BRANCH_Z.shape
    one = np.array([kummer_1f1(a, b, z) for z in _BRANCH_Z])
    ref = np.array([_kummer_1f1_scalar_ref(a, b, float(z)) for z in _BRANCH_Z])
    assert np.array_equal(got, one) and np.array_equal(got, ref)
    # shape kept for 2-d input, and each scalar result is a float
    square = kummer_1f1(a, b, _BRANCH_Z[:100].reshape(10, 10))
    assert np.array_equal(square, got[:100].reshape(10, 10))
    assert type(kummer_1f1(a, b, 1.5)) is float


def test_kummer_1f1_per_entry_parameters_equal_one_entry_calls_bitwise():
    # every (a, b, z) of the branch table above in one call, shuffled: each
    # entry takes its own branch and equals its one-entry call bit for bit
    a_values = np.array([-3.0, -1.0, 0.0, -0.0, 0.3, -0.7, 1.0 - 2.1 / 1.3, 2.5, -5.5,
                         1.0, 2.0, 4.0, -8.0])
    b_values = np.array([0.5, 2.0, 3.7])
    a, b, z = (v.ravel() for v in np.meshgrid(a_values, b_values, _BRANCH_Z, indexing="ij"))
    perm = np.random.default_rng(41).permutation(a.size)
    a, b, z = a[perm], b[perm], z[perm]
    got = kummer_1f1(a, b, z)
    assert np.array_equal(got, _one_entry(kummer_1f1, a, b, z))
    ref = np.array([_kummer_1f1_scalar_ref(*v) for v in zip(a.tolist(), b.tolist(), z.tolist())])
    assert np.array_equal(got, ref)
    # the verify-specfun sweep's columns, against the polynomial oracle
    rng = np.random.default_rng(43)
    n = 300
    a = -rng.integers(0, 9, n).astype(float)
    b, z = rng.uniform(0.5, 4.0, n), rng.uniform(-30.0, 30.0, n)
    got = kummer_1f1(a, b, z)
    assert np.array_equal(got, _one_entry(kummer_1f1, a, b, z))
    want = _one_entry(lambda a, b, z: oracles.kummer_1f1_poly_ref(int(-a), b, z), a, b, z)
    assert np.all(np.abs(got - want) <= 1e-10)
    assert kummer_1f1(a.reshape(20, 15), b.reshape(20, 15), z.reshape(20, 15)).shape == (20, 15)


def test_kummer_1f1_per_entry_errors_name_their_entry():
    with pytest.raises(OverflowError, match="polynomial of degree 501 exceeds 500 terms"):
        kummer_1f1(np.array([-2.0, -501.0]), 2.0, np.array([1.0, 1.0]))
    with pytest.raises(OverflowError, match=r"did not converge within 500 terms at \(a, b, z\) = "
                                            r"\(1250000000\.0, 100000000\.0, 40\.0\)"):
        kummer_1f1(np.array([0.5, 1.25e9]), np.array([1.0, 1e8]), np.array([1.0, 40.0]))
    for bad in (np.array([1.0, -1.0]), np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="kummer_1f1 requires b > 0"):
            kummer_1f1(0.5, bad, 1.0)
    with pytest.raises(ValueError, match="kummer_1f1 requires a finite a"):
        kummer_1f1(np.array([0.5, np.inf]), 2.0, 1.0)


def test_kummer_1f1_polynomial_degree_bounded_by_max_terms():
    # the polynomial loops over -a terms, so a = -1e300 ran practically
    # forever; beyond max_terms it is an OverflowError.  Degrees here stay
    # small enough that a regression fails instead of hanging the suite
    # (the CLI test runs the 1e300 case in a child with a timeout)
    for a in (-1e6, -501.0):
        with pytest.raises(OverflowError):
            kummer_1f1(a, 2.0, -1.0)
        with pytest.raises(OverflowError):
            kummer_1f1(a, 2.0, np.array([-1.0, 3.0]))
    assert kummer_1f1(-500.0, 2.0, -1e-3) == pytest.approx(
        oracles.kummer_1f1_poly_ref(500, 2.0, -1e-3), rel=1e-12
    )


def test_kummer_1f1_series_overflow_is_an_error():
    # the series overflows to inf instead of converging: an error, not inf
    with pytest.raises(OverflowError):
        kummer_1f1(-1e10 + 0.5, 2.0, -1.0)


def test_purity_bit_identical():
    args = [(log_gamma, (1.7,)), (digamma, (2.3,)), (bessel_i, (1.2, 3.4)),
            (bessel_k, (0.7, 2.2)), (kummer_u, (1.1, 1.0, 2.5)),
            (whittaker_w0, (-0.4, 1.9)), (kummer_1f1, (0.6, 1.4, -3.0))]
    for fn, a in args:
        assert fn(*a) == fn(*a)
