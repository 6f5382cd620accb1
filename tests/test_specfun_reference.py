"""The numpy-only special functions against scipy.special, scipy.fft and
mpmath.

scipy and mpmath are no run-time dependencies of erlangshot; they stay in
the tests as the independent references, next to the in-repo oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import fft as sfft
from scipy import special as sp

from erlangshot import closedform, specfun
from erlangshot.specfun import (
    bessel_i,
    bessel_ie,
    bessel_k,
    bessel_ke,
    digamma,
    erlang_survival,
    kummer_1f1,
    kummer_u,
    log_gamma,
    next_fast_len,
)

_EPS = np.finfo(float).eps
_NU = np.linspace(0.0, 20.0, 41)
# I takes orders above -1 (the m = 2 stationary law at lambda < alpha) and
# negative integers; K is even in the order
_NU_NEG = np.array([-3.0, -1.0, -0.999, -0.5, -0.25, -1e-3, -1e-12])
# 1e-3 .. 700, plus the route switches: Temme/CF2 at 2, CF2/Hankel at 20,
# series/Hankel for I at 40 and at nu^2/4
_X = np.concatenate([np.geomspace(1e-3, 700.0, 300), [2.0, 20.0, 40.0, 100.0],
                     np.nextafter([2.0, 20.0, 40.0, 100.0], np.inf)])
_BESSEL = [(bessel_i, sp.iv), (bessel_ie, sp.ive), (bessel_k, sp.kv), (bessel_ke, sp.kve)]


def _scalar_route(fn, *args_and_x):
    """fn at each entry of the last argument, one Python float at a time."""
    *args, x = args_and_x
    return np.array([fn(*args, v) for v in x.tolist()])


def test_log_gamma_matches_gammaln():
    x = np.concatenate([np.geomspace(1e-3, 1e3, 400), np.arange(1.0, 30.0),
                        [0.5, 1.5, 2.5, 1e10, 1e300]])
    want = sp.gammaln(x)
    bound = 8 * _EPS * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(log_gamma(x) - want) <= bound)
    assert np.all(np.abs(_scalar_route(log_gamma, x) - want) <= bound)


def test_log_gamma_primitive_poles_and_negative_arguments():
    # kummer_1f1's asymptotic prefactor takes log|Gamma| at b - a <= 0:
    # +inf at the poles, as gammaln gives, and log|Gamma| between them
    poles = [0.0, -1.0, -2.0, -7.0, -40.0]
    assert [specfun._lgamma(v) for v in poles] == [math.inf] * 5
    assert np.all(np.isinf(sp.gammaln(poles)))
    for v in (-0.5, -1.5, -2.7, -10.3, -100.9, -1e-3):
        want = sp.gammaln(v)
        assert abs(specfun._lgamma(v) - want) <= 8 * _EPS * max(1.0, abs(want))


def test_digamma_matches_scipy():
    x = np.concatenate([np.geomspace(1e-3, 1e3, 500), [1.4616321449683622, 9.999, 10.0, 1e300]])
    want = sp.digamma(x)
    bound = 4e-15 * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(digamma(x) - want) <= bound)
    assert np.all(np.abs(_scalar_route(digamma, x) - want) <= bound)


@pytest.mark.parametrize("fn,ref", _BESSEL, ids=["I", "Ie", "K", "Ke"])
def test_bessel_matches_scipy(fn, ref):
    for nu in np.concatenate([_NU_NEG, _NU]):
        want = ref(nu, _X)
        got = fn(nu, _X)
        # scipy's kv flushes to 0 at x = 700, where K_nu is still ~5e-306
        kept = want > 0
        assert np.all(got[~kept] < 1e-300), nu
        assert np.max(np.abs(got[kept] / want[kept] - 1.0)) < 1e-13, nu


@pytest.mark.parametrize("fn", [bessel_i, bessel_ie, bessel_k, bessel_ke])
def test_bessel_scalar_route_equals_array_route(fn):
    # a float goes through the array loops: it gives a float, equal bit
    # for bit to the entry of an array call
    x = _X[::5]
    for nu in np.concatenate([_NU_NEG, _NU[::3]]):
        got, one = fn(nu, x), _scalar_route(fn, nu, x)
        assert np.array_equal(one, got), nu
        assert type(fn(nu, 3.0)) is float
        assert fn(nu, 3.0) == fn(nu, np.array([3.0]))[0]


@pytest.mark.parametrize("fn", [bessel_i, bessel_ie, bessel_k, bessel_ke])
def test_bessel_per_entry_orders_equal_per_order_calls(fn):
    # one call with an order per entry, over every route switch, gives each
    # entry the bits of a call at that entry's order alone
    orders = np.concatenate([_NU_NEG, _NU])
    nu, x = np.repeat(orders, _X.size), np.tile(_X, orders.size)
    rng = np.random.default_rng(3)
    perm = rng.permutation(nu.size)
    got = fn(nu[perm], x[perm])
    want = np.concatenate([fn(v, _X) for v in orders])[perm]
    assert np.array_equal(got, want)
    # orders and arguments broadcast against each other
    column = fn(orders[:, None], _X[None, :])
    assert column.shape == (orders.size, _X.size)
    assert np.array_equal(column.ravel(), np.concatenate([fn(v, _X) for v in orders]))


def test_bessel_at_zero_and_in_shape():
    assert bessel_i(0.0, 0.0) == bessel_ie(0.0, 0.0) == 1.0
    assert bessel_i(2.5, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert bessel_i(-0.5, 0.0) == bessel_ie(-0.5, 0.0) == math.inf
    assert bessel_i(-0.5, np.zeros(2)).tolist() == [math.inf, math.inf]
    assert bessel_i(-2.0, 0.0) == 0.0
    for nu in (-1.5, -1.0000001):
        with pytest.raises(ValueError):
            bessel_ie(nu, 1.0)
    square = np.linspace(0.5, 50.0, 16).reshape(4, 4)
    for fn in (bessel_i, bessel_ie, bessel_k, bessel_ke):
        assert np.array_equal(fn(1.3, square), fn(1.3, square.ravel()).reshape(4, 4))
    # K is even in the order
    assert np.array_equal(bessel_k(-2.7, _X), bessel_k(2.7, _X))


def test_erlang_survival_matches_gammaincc():
    x = np.linspace(0.0, 60.0, 601)
    for m in range(1, 9):
        want = sp.gammaincc(m, 1.3 * x)
        assert np.max(np.abs(erlang_survival(m, 1.3, x) - want)) <= 1e-15
        assert np.array_equal(_scalar_route(erlang_survival, m, 1.3, x), erlang_survival(m, 1.3, x))
    assert erlang_survival(3, 1.0, np.inf) == 0.0
    assert type(erlang_survival(3, 1.3, 2.0)) is float
    # m and gamma per entry, as the verify-specfun sweep passes its columns
    ms, gs = np.repeat(np.arange(1, 9), x.size), np.tile(1.3 * x / x.max() + 0.2, 8)
    got = erlang_survival(ms, gs, np.tile(x, 8))
    want = [erlang_survival(int(m), float(g), float(v)) for m, g, v in zip(ms, gs, np.tile(x, 8))]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lam", [2.0, 0.5])
@pytest.mark.parametrize("n", [2001, 8001])
def test_stationary_ou_m2_on_the_cli_grids(n, lam):
    # the m = 2 law on the stationary command's grids, against the
    # exponentially scaled Bessel I of scipy; lambda < alpha takes a
    # negative order
    alpha, gamma = 1.0, 1.0
    x = np.linspace(1e-4, 40.0, n)
    nu, z = lam / alpha - 1.0, 2.0 * np.sqrt(gamma * lam * x / alpha)
    want = np.exp(np.log(gamma) - lam / alpha - gamma * x
                  + 0.5 * nu * np.log(alpha * gamma * x / lam) + np.log(sp.ive(nu, z)) + z)
    got = closedform.stationary_ou_m2(alpha, lam, gamma, x)
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


@pytest.mark.parametrize("lam", [1.0, 2.0, 0.5])
def test_jump_component_density_on_the_tanh_grid(lam):
    # the Bessel-K mixture on the tanh command's 8001-point y grid (nu = 0
    # at lambda = alpha), against scipy's kv
    law = closedform.TiltedOuLaw(1.0, lam, 2.0, 0.5)
    hw = law.support_halfwidth()
    y = np.linspace(-hw, hw, 8001)
    g, nu = law.gamma, law.nu

    def component(s):
        sp_ = np.where(s <= 0, 1.0, s)
        pref = 2.0**nu * g ** (1.0 - nu) / (np.sqrt(np.pi) * np.exp(sp.gammaln(0.5 - nu)))
        return pref * sp_ ** (-nu) * sp.kv(abs(nu), g * sp_)

    c = law.beta / law.alpha
    want = 0.5 * (component(np.abs(y - c)) + component(np.abs(y + c)))
    got = law.jump_component_density(y)
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


def test_next_fast_len_matches_scipy():
    for real in (False, True):
        got = [next_fast_len(n, real) for n in range(1, 20000)]
        assert got == [sfft.next_fast_len(n, real) for n in range(1, 20000)]


def test_bessel_i_series_rescales_at_large_order():
    # at nu = 400 the power series runs up to x = nu^2 / 4 = 4e4, where its
    # sum passes 1e200 and is rescaled on the way
    assert bessel_ie(400.0, 4e4) == pytest.approx(sp.ive(400.0, 4e4), rel=1e-9)


def _hyperu(a, b, z):
    with mpmath.workdps(40):
        return float(mpmath.hyperu(a, b, z))


@pytest.mark.parametrize("a,b,z", [
    (4.0, 3.0, 1e5), (4.0, 3.0, 1e6), (4.0, 3.0, 1e8), (2.5, 1.0, 1e8), (1.0, 2.0, 1e10),
    (30.0, 0.1, 1e4), (0.5, 3.0, 1e-10), (0.2, 0.1, 1e-100), (0.5, 1.0, 1e100),
])
def test_kummer_u_far_from_unit_argument_matches_mpmath(a, b, z):
    # the grid's left cut-off follows the mass down to t ~ a/z at large z,
    # and its step shrinks with |log z| on either side of [1e-3, 1e3]
    assert kummer_u(a, b, z) == pytest.approx(_hyperu(a, b, z), rel=1e-12, abs=0.0)


def test_kummer_u_matches_mpmath_over_its_range_of_z():
    # one call over z in [1e-100, 1e100], a in [0.05, 30] and b in [0.1, 6],
    # where U is a normal double, within 1e-12 relative entry by entry
    rng = np.random.default_rng(47)
    n = 150
    a, b = 10 ** rng.uniform(np.log10(0.05), np.log10(30.0), n), rng.uniform(0.1, 6.0, n)
    z = 10 ** rng.uniform(-100.0, 100.0, n)
    b[::5] = 1.0
    want = np.array([_hyperu(*v) for v in zip(a.tolist(), b.tolist(), z.tolist())])
    normal = (np.abs(want) > 1e-290) & (np.abs(want) < 1e290)
    assert normal.sum() > n // 2
    a, b, z, want = a[normal], b[normal], z[normal], want[normal]
    assert np.all(np.abs(kummer_u(a, b, z) / want - 1.0) <= 1e-12)
    one = np.array([kummer_u(*v) for v in zip(a.tolist(), b.tolist(), z.tolist())])
    assert np.all(np.abs(one / want - 1.0) <= 1e-12)


def test_kummer_u_raises_past_its_range_of_z():
    # kummer_u(1, 2, 1e300) once failed inside numpy's linspace
    for z in (1e300, 1e101, 1e-101):
        with pytest.raises(ValueError, match="kummer_u requires z <= 1e"):
            kummer_u(1.0, 2.0, z)
        with pytest.raises(ValueError, match="kummer_u requires z <= 1e"):
            kummer_u(1.0, 2.0, np.array([1.0, z]))
    # the logarithmic series (b = 1, z <= 1/2, a z <= 1.5) takes any z > 0
    assert kummer_u(1.5, 1.0, 1e-300) == pytest.approx(_hyperu(1.5, 1.0, 1e-300), rel=1e-13, abs=0.0)


# the m = 2 wave's column: one a, z running geometrically along xi
_WAVE_Z = np.geomspace(0.5, 750.0, 1001)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_kummer_u_block_cut_offs_do_not_show_in_the_values(a, monkeypatch):
    # each block of rows is summed only up to its own entries' reach: the
    # column agrees with one-entry calls (their own reach) and with mpmath
    got = kummer_u(a, 1.0, _WAVE_Z)
    assert np.all(np.abs(got / _scalar_route(kummer_u, a, 1.0, _WAVE_Z) - 1.0) <= 1e-13)
    want = np.array([_hyperu(a, 1.0, z) for z in _WAVE_Z[::10].tolist()])
    assert np.all(np.abs(got[::10] / want - 1.0) <= 1e-12)
    # one block over every row sums each entry to the call's farthest reach
    monkeypatch.setattr(specfun, "_U_CELLS", 2**62)
    assert np.all(np.abs(kummer_u(a, 1.0, _WAVE_Z) / got - 1.0) <= 1e-14)


@pytest.mark.parametrize("a,z", [
    (10.0, 0.5), (30.0, 0.5), (100.0, 0.1), (100.0, 0.5), (100.0, 0.01), (30.0, 0.05),
    (3.0, 0.5), (3.0, 0.4999), (3.001, 0.5),
])
def test_kummer_u_at_large_a_times_z_matches_mpmath(a, z):
    # the logarithmic series (b = 1) cancels by about e^{4 sqrt(a z)} ulps,
    # 1e-4 relative at (100, 0.5); past a z = 1.5 the quadrature takes over
    assert kummer_u(a, 1.0, z) == pytest.approx(_hyperu(a, 1.0, z), rel=3e-14, abs=0.0)


@pytest.mark.parametrize("a,b,z", [
    (2.5, 0.5, -60.0), (1.5, 0.5, -80.0), (4.0, 2.0, -45.0),
    (2.0, 2.0, -60.0), (3.7, 3.7, -100.0), (0.5, 0.5, -700.0),
])
def test_kummer_1f1_past_its_switch_where_b_minus_a_is_a_nonpositive_integer(a, b, z):
    # Gamma(b - a) has a pole, so the asymptotic expansion's prefactor is 0;
    # the value is e^z times a terminating polynomial, e^z itself at b = a
    with mpmath.workdps(40):
        want = float(mpmath.hyp1f1(a, b, z))
    assert kummer_1f1(a, b, z) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert kummer_1f1(np.array([a, a]), b, np.array([z, -10.0]))[0] == kummer_1f1(a, b, z)


@pytest.mark.parametrize("r,s", [(20.5, 358.57), (100.5, 400.0), (50.5, 500.0)])
def test_kummer_1f1_past_500_series_terms_matches_mpmath(r, s):
    # the transformed series e^-s 1F1(1 + r; 2; s) peaks near term s and
    # takes 501, 614 and 690 terms here: its budget grows with s
    with mpmath.workdps(40):
        want = float(mpmath.hyp1f1(1.0 - r, 2, -s))
    assert kummer_1f1(1.0 - r, 2.0, -s) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_kummer_1f1_series_past_its_overflow_still_raises():
    # from r = 30 on the transformed series overflows near s = 600, within
    # its budget and short of the asymptotic range s > r (r - 1)
    with pytest.raises(OverflowError, match=r"series overflowed at \(a, b, z\) = \(31\.5, 2\.0"):
        kummer_1f1(-29.5, 2.0, -650.0)


def test_kummer_1f1_of_the_transient_law_matches_mpmath():
    # TransientLaw takes 1F1(1 - r, 2, -s) at r = lambda / alpha, which is
    # mostly not an integer: the Kummer-transformed series up to
    # s = max(40, r |r - 1|), then the asymptotic expansion.  The series
    # stops at its first term below 1e-10 of the sum; s <= 350 keeps it
    # within 500 terms at every r <= 20
    rng = np.random.default_rng(53)
    r = rng.uniform(0.0, 20.0, 120)
    r = np.where(r % 1.0 == 0.0, r + 0.5, r)
    s = rng.uniform(0.0, 350.0, 120)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.hyp1f1(1.0 - a, 2, -z))
                         for a, z in zip(r.tolist(), s.tolist())])
    err = np.abs(kummer_1f1(1.0 - r, 2.0, -s) / want - 1.0)
    asymptotic = s > np.maximum(40.0, r * np.abs(r - 1.0))
    assert 20 < asymptotic.sum() < 100
    assert np.all(err[asymptotic] <= 1e-12)
    assert np.all(err[~asymptotic] <= 1e-9)
