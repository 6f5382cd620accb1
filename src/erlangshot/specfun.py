"""Special-function kernel used by the closed-form densities.

Every transcendental function the analytic solutions need lives here behind
a small, validated surface, each pinned to an independent oracle (series,
quadrature, closed-form identities) in the test suite.  Only numpy and
``math`` are used:

* log-gamma is ``math.lgamma``;
* digamma is the recurrence psi(x) = psi(x + 1) - 1/x up to x >= 10, then
  the asymptotic series in Bernoulli numbers;
* modified Bessel I (order above -1, or an integer) is its power series up
  to x = 40 (or nu^2/4), then Hankel's asymptotic series; modified Bessel
  K is Temme's series for x <= 2, Steed's continued fraction CF2 up to
  x = 20 and Hankel's series beyond, at an order in [-1/2, 1/2], then
  forward recurrence in the order;
* the Erlang survival function is the finite Poisson sum;
* Tricomi's U is an exp-sinh quadrature of its Laplace integral (with the
  logarithmic series for b = 1 and small a z), the Whittaker W with second
  index 0 reduces to it, and Kummer's 1F1 is its Taylor series, Kummer's
  transformation and the large-argument expansion;
* ``next_fast_len`` picks the transform sizes for ``numpy.fft``.

All functions are pure and accept scalars or numpy arrays, and a Python
float in gives a float out.  The Bessel orders, the shape m and rate of the
Erlang survival function, and the parameters of U, W and 1F1 broadcast
against the argument entry by entry.  These kernels have no separate
plain-math route: a float goes through the same numpy loops as an array,
so callers with many points, or many parameters, pass them in one call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "bessel_i",
    "bessel_ie",
    "bessel_k",
    "bessel_ke",
    "erlang_survival",
    "kummer_u",
    "whittaker_w0",
    "kummer_1f1",
    "next_fast_len",
]


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _lgamma(x):
    # log|Gamma(x)| of a float, +inf at the poles 0, -1, -2, ...
    try:
        return math.lgamma(x)
    except ValueError:
        return math.inf


def _is_scalar(x):
    return isinstance(x, (int, float))


def _map_positive(fn, x, name):
    """fn over the entries of a scalar or an array of reals x > 0."""
    if _is_scalar(x):
        _require(x > 0, f"{name} requires x > 0")
        return fn(float(x))
    x = np.asarray(x, dtype=float)
    _require(np.all(x > 0), f"{name} requires x > 0")
    out = np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def log_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    return _map_positive(math.lgamma, x, "log_gamma")


# B_{2n} / (2n) for n = 1..7: psi(x) ~ log x - 1/(2x) - sum_n B_{2n} / (2n x^{2n}),
# whose next term is below 5e-17 for x >= 10
_PSI_TAIL = (1.0 / 12, -1.0 / 120, 1.0 / 252, -1.0 / 240, 1.0 / 132, -691.0 / 32760, 1.0 / 12)


def _psi(x):
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_PSI_TAIL):
        tail = (tail + c) * inv2
    return math.log(x) - 0.5 / x - tail - shift


def digamma(x):
    """Digamma psi(x) = d/dx log Gamma(x) for x > 0."""
    return _map_positive(_psi, x, "digamma")


# ---------------------------------------------------------------------------
# modified Bessel functions
#
# Each kernel is one numpy loop over a flat array of arguments and an order
# per entry, or one scalar order shared by all entries (_flat), whose
# arithmetic is then done once per step instead of once per entry.  The
# loops test convergence every _CHECK steps and then drop the converged
# entries (_take): a step costs a dozen or so numpy calls whatever the
# array size, and the steps an entry takes past convergence only add terms
# below its rounding.  Terms of the order alone are taken in plain math once
# per distinct order (_per_order).  So an entry's value does not depend on
# the other entries or on how many orders a call holds.

_EPS = float(np.finfo(float).eps)
_FLOAT_MAX = float(np.finfo(float).max)
_CHECK = 4
_I_SERIES_X = 40.0
_K_TEMME_X = 2.0
_K_HANKEL_X = 20.0
# running sums past _BIG are scaled by an exact power of two; _CHECK steps
# of the I series multiply a sum by less than 1e100 wherever it is used
_BIG = 1e200
_RESCALE = 2.0**-800
_LOG_RESCALE = 800.0 * math.log(2.0)

# Taylor coefficients of 1/Gamma(1 + z) about z = 0 (DLMF 5.7.1); those
# left out are below 2e-18
_RGAMMA = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16,
)


def _take(v, sel):
    """The entries sel of a kernel variable (a numpy array or scalar); a
    shared scalar stays."""
    return v[sel] if v.ndim else v


def _per_order(fn, *params):
    """fn, a plain-math function of the parameters returning a float or a
    tuple of floats, at shared parameters or at every entry (one row per
    entry), evaluated once per distinct parameter value or tuple."""
    if all(np.ndim(p) == 0 for p in params):
        return fn(*(float(p) for p in params))
    if len(params) == 1:
        keys, where = np.unique(params[0], return_inverse=True)
        keys = keys[:, None]
    else:
        keys, where = np.unique(
            np.column_stack(np.broadcast_arrays(*params)), axis=0, return_inverse=True
        )
    return np.array([fn(*k) for k in keys.tolist()], dtype=float)[where.reshape(-1)]


def _i_series(nu, x):
    # log I_nu(x) = nu log(x/2) - log Gamma(nu + 1) + log sum_k (x^2/4)^k / (k! (nu + 1)_k)
    lg = _per_order(lambda v: _lgamma(v + 1.0), nu)
    q = 0.25 * x * x
    out = np.empty_like(x)
    idx = np.arange(x.size)
    term = np.ones_like(x)
    total = np.ones_like(x)
    shift = np.zeros_like(x)
    k, nuk = 0, nu
    while idx.size:
        k += 1
        term = term * (q / (k * (nuk + k)))
        total = total + term
        if k % _CHECK:
            continue
        big = total > _BIG
        if big.any():
            term[big] *= _RESCALE
            total[big] *= _RESCALE
            shift[big] += _LOG_RESCALE
        done = term <= _EPS * total
        if done.any():
            out[idx[done]] = np.log(total[done]) + shift[done]
            keep = ~done
            idx, q, term, total, shift = (v[keep] for v in (idx, q, term, total, shift))
            nuk = _take(nuk, keep)
    return nu * np.log(0.5 * x) - lg + out


# Hankel's series sum_k sign^k a_k(nu) / x^k, a_k = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (8j),
# with sign -1 for e^{-x} I_nu(x) sqrt(2 pi x) and +1 for e^x K_nu(x) sqrt(2x / pi).
# Its terms fall until k is about 2x; where it is used (x > 20 for orders up
# to 3/2, x > max(40, nu^2/4) for I) they fall below the rounding of the sum
# well before that.


def _hankel(nu, x, sign):
    mu = 4.0 * nu * nu
    out = np.empty_like(x)
    idx = np.arange(x.size)
    term = np.ones_like(x)
    total = np.ones_like(x)
    k = 0
    while idx.size:
        k += 1
        term = term * (sign * (mu - (2 * k - 1) ** 2) / (8.0 * k) / x)
        total = total + term
        if k % _CHECK:
            continue
        done = np.abs(term) < 0.25 * _EPS * np.abs(total)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, x, term, total = (v[keep] for v in (idx, x, term, total))
            mu = _take(mu, keep)
    return out


def _temme_terms(mu):
    # gam1 = (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu),
    # gam2 = (1/Gamma(1 - mu) + 1/Gamma(1 + mu)) / 2, 1/Gamma(1 + mu), 1/Gamma(1 - mu)
    # from the even and odd parts of the Taylor series (no cancellation at
    # small mu), and pi mu / sin(pi mu)
    even = odd = 0.0
    for c in reversed(_RGAMMA[0::2]):
        even = even * mu * mu + c
    for c in reversed(_RGAMMA[1::2]):
        odd = odd * mu * mu + c
    fact = math.pi * mu / math.sin(math.pi * mu) if mu else 1.0
    return -odd, even, even + mu * odd, even - mu * odd, fact


def _k_temme(mu, x):
    """(K_mu(x), K_{mu+1}(x)) for 0 < x <= 2 and |mu| <= 1/2 (Temme's series)."""
    gam1, gam2, gampl, gammi, fact = np.transpose(_per_order(_temme_terms, mu))
    d = -np.log(0.5 * x)
    e = mu * d
    fact2 = np.where(e == 0.0, 1.0, np.sinh(e) / np.where(e == 0.0, 1.0, e))
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    ee = np.exp(e)
    p = 0.5 * ee / gampl
    q = 0.5 / (ee * gammi)
    c = np.ones_like(x)
    dd = 0.25 * x * x
    total, total1 = ff, p
    k0, k1 = np.empty_like(x), np.empty_like(x)
    idx = np.arange(x.size)
    i = 0
    while idx.size:
        i += 1
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * (dd / i)
        p = p / (i - mu)
        q = q / (i + mu)
        delta = c * ff
        total = total + delta
        total1 = total1 + c * (p - i * ff)
        if i % _CHECK:
            continue
        done = np.abs(delta) < _EPS * np.abs(total)
        if done.any():
            k0[idx[done]] = total[done]
            k1[idx[done]] = total1[done]
            keep = ~done
            idx, ff, c, p, q, dd, total, total1 = (
                v[keep] for v in (idx, ff, c, p, q, dd, total, total1))
            mu = _take(mu, keep)
    return k0, k1 * 2.0 / x


def _k_steed(mu, x):
    """(e^x K_mu(x), e^x K_{mu+1}(x)) for x > 2 and |mu| <= 1/2 (Steed's CF2)."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    hs, ss = np.empty_like(x), np.empty_like(x)
    idx = np.arange(x.size)
    i = 1
    while idx.size:
        i += 1
        a = a - 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        if i % _CHECK:
            continue
        done = np.abs(dels) < _EPS * np.abs(s)
        if done.any():
            hs[idx[done]] = h[done]
            ss[idx[done]] = s[done]
            keep = ~done
            idx, b, d, h, delh, q1, q2, q, s = (
                v[keep] for v in (idx, b, d, h, delh, q1, q2, q, s))
            a, c = _take(a, keep), _take(c, keep)
    kmu = np.sqrt(np.pi / (2.0 * x)) / ss
    return kmu, kmu * (mu + x + 0.5 - a1 * hs) / x


def _k_order_up(mu, n, k0, k1, x):
    # forward recurrence K_{mu+j+1} = K_{mu+j-1} + 2 (mu + j) / x K_{mu+j},
    # stable for K, from K_mu and K_{mu+1} to K_{mu+n}, each entry at its
    # own n; values scaled by e^x obey it too
    for j in range(1, int(np.max(n, initial=0))):
        live = j < n
        k0, k1 = np.where(live, k1, k0), np.where(live, k0 + (2.0 * (mu + j) / x) * k1, k1)
    return np.where(n == 0, k0, k1)


def _bessel_k(nu, x, scaled):
    # K is even in the order: |nu| = mu + n with n an integer, |mu| <= 1/2
    nu = np.abs(nu)
    n = (nu + 0.5).astype(np.int64)
    mu = nu - n
    k0, k1 = np.empty_like(x), np.zeros_like(x)
    near = x <= _K_TEMME_X
    far = x > _K_HANKEL_X
    mid = ~near & ~far
    if near.any():
        k0[near], k1[near] = _k_temme(_take(mu, near), x[near])
    if mid.any():
        k0[mid], k1[mid] = _k_steed(_take(mu, mid), x[mid])
    if far.any():
        k0[far] = np.sqrt(np.pi / (2.0 * x[far])) * _hankel(_take(mu, far), x[far], 1.0)
        up = far & (n > 0)
        if up.any():
            k1[up] = np.sqrt(np.pi / (2.0 * x[up])) * _hankel(_take(mu, up) + 1.0, x[up], 1.0)
    with np.errstate(over="ignore"):
        out = _k_order_up(mu, n, k0, k1, x)
    # Temme's series gives K itself, the others K scaled by e^x
    if scaled:
        out[near] *= np.exp(x[near])
    else:
        out[~near] *= np.exp(-x[~near])
    return out


def _bessel_i(nu, x, scaled):
    out = np.empty_like(x)
    # Hankel's series for I cancels to about e^{nu^2 / (2x)} times its sum,
    # so the power series runs at least up to nu^2 / 4
    series = x <= np.maximum(_I_SERIES_X, 0.25 * nu * nu)
    hankel = ~series
    with np.errstate(over="ignore"):
        if series.any():
            xs = x[series]
            v = _i_series(_take(nu, series), xs)
            out[series] = np.exp(v - xs) if scaled else np.exp(v)
        if hankel.any():
            xh = x[hankel]
            v = _hankel(_take(nu, hankel), xh, -1.0) / np.sqrt(2.0 * np.pi * xh)
            if not scaled:
                # e^x as (e^{x/2})^2 keeps I finite wherever it is representable
                half = np.exp(0.5 * xh)
                v = half * (half * v)
            out[hankel] = v
    return out


def _flat(*args):
    """The arguments broadcast together, and the shape they broadcast to.
    The last (the argument x or z) comes back flat; each parameter before it
    as one scalar shared by all entries where it is a scalar or all its
    entries are equal, else flat with a value per entry."""
    *params, x = (np.asarray(v, dtype=float) for v in args)
    shape = x.shape
    if any(v.ndim for v in params):
        shape = np.broadcast_shapes(shape, *(v.shape for v in params))
        x = np.broadcast_to(x, shape)
    out = []
    for v in params:
        if v.ndim:
            v = np.broadcast_to(v, shape).ravel()
            if v.size and (v == v[0]).all():
                v = v[0]
        # a numpy scalar, not a 0-d array: its arithmetic is far cheaper
        out.append(v[()] if v.ndim == 0 else v)
    return (*out, x.ravel(), shape)


def _shaped(out, shape):
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _bessel_i_value(nu, x, scaled):
    nu, x, shape = _flat(nu, x)
    nu = np.where((nu < 0) & (np.mod(nu, 1.0) == 0.0), -nu, nu)  # I_{-n} = I_n
    # above -1 every term of the power series is positive, and Hankel's
    # series depends on nu^2 only: I_{-nu} - I_nu = (2/pi) sin(pi nu) K_nu is
    # below e^{-2x} relative to I_nu, under the rounding where it is used
    _require(np.all(nu > -1), "bessel_i requires nu > -1 or an integer nu")
    _require(np.all(x >= 0), "bessel_i requires x >= 0")
    at_zero = np.where(nu == 0, 1.0, np.where(nu > 0, 0.0, math.inf))
    out = np.broadcast_to(at_zero, x.shape).copy()
    pos = x > 0
    if pos.any():
        out[pos] = _bessel_i(_take(nu, pos), x[pos], scaled)
    return _shaped(out, shape)


def bessel_i(nu, x):
    """Modified Bessel function of the first kind I_nu(x), x >= 0.

    The order is nu > -1 or an integer (I_{-n} = I_n); nu and x broadcast
    against each other, an order per entry.
    """
    return _bessel_i_value(nu, x, False)


def bessel_ie(nu, x):
    """Exponentially scaled e^{-x} I_nu(x), x >= 0; nu > -1 or an integer,
    broadcast against x."""
    return _bessel_i_value(nu, x, True)


def _bessel_k_value(nu, x, scaled):
    nu, x, shape = _flat(nu, x)
    _require(np.all(np.isfinite(nu)), "bessel_k requires a finite order")
    _require(np.all(x > 0), "bessel_k requires x > 0")
    return _shaped(_bessel_k(nu, x, scaled), shape)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    K is even in the order, so negative nu is folded to |nu|; nu and x
    broadcast against each other, an order per entry.
    """
    return _bessel_k_value(nu, x, False)


def bessel_ke(nu, x):
    """Exponentially scaled e^{x} K_nu(x), x > 0; negative nu is folded to
    |nu|, and nu broadcasts against x."""
    return _bessel_k_value(nu, x, True)


def erlang_survival(m, gamma, x):
    """Upper tail mass of the Erlang(m, gamma) law at x >= 0.

    Equals the regularized upper incomplete gamma function Q(m, gamma*x),
    i.e. the probability that an Erlang(m, gamma) jump exceeds x, and is
    evaluated as the Poisson sum e^{-y} sum_{k<m} y^k / k! at y = gamma*x.
    m, gamma and x broadcast against each other, entry by entry.
    """
    m, gamma = np.asarray(m), np.asarray(gamma, dtype=float)
    _require(np.all((np.mod(m, 1) == 0) & (m >= 1)), "erlang_survival requires integer m >= 1")
    _require(np.all(gamma > 0), "erlang_survival requires gamma > 0")
    x = np.asarray(x, dtype=float)
    _require(np.all(x >= 0), "erlang_survival requires x >= 0")
    # y = inf gives 0, not 0 * inf
    m, y = np.broadcast_arrays(m, np.minimum(gamma * x, _FLOAT_MAX))
    term = total = np.exp(-y)
    for k in range(1, int(m.max(initial=1))):
        term = term * (y / k)
        total = total + np.where(k < m, term, 0.0)
    return float(total) if total.ndim == 0 else total


@functools.lru_cache(maxsize=256)
def next_fast_len(n, real=False):
    """Smallest size >= n whose prime factors are at most 5 for a real
    transform or 11 for a complex one: sizes numpy's pocketfft does fast.

    Found by scanning up from n, which for a real transform of a few
    thousand points tries a few hundred candidates; the master-equation
    stencils ask for the same few sizes over and over, so answers are
    cached."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    size = n
    while True:
        rest = size
        for p in primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


# ---------------------------------------------------------------------------
# confluent hypergeometric functions
#
# a, b and z broadcast entry by entry, as the Bessel orders do (_flat), and
# terms of the parameters alone are taken in plain math once per distinct
# value (_per_order).  U is one exp-sinh grid per call, wide enough for
# every entry; 1F1 picks a branch per entry, the one a one-entry call takes.

_DE_STEP = 0.02
# U's exp-sinh grid is laid out for z within a factor _U_Z_SCALE of 1.  Past
# it the integrand's mass moves to |log t| ~ |log z|, where the nodes spread
# out in log t: the left cut-off moves down with z (reaching below t = a/z),
# and the step shrinks in proportion to |log z|.  Rounding in log t grows
# the error like eps |log z|, so the quadrature stops at _U_Z_MAX (either
# way), where it is still within 1e-12 relative.
#
# The grid's right end is the reach of the call's farthest entry, but the
# rows are summed in blocks of about _U_CELLS cells (entries times nodes,
# 256 kB per float temporary, so a block stays in cache), and each block
# only up to the first node past its own entries' reach: the nodes beyond
# are ones the call's grid counts as negligible, so an entry's value moves
# at rounding level only, and the work follows each entry's reach (short
# where z is large) instead of the smallest z of the call.
_U_Z_SCALE = 1e3
_U_LOG_Z_SCALE = math.log(_U_Z_SCALE)
_U_Z_MAX = 1e100
_U_CELLS = 2**15
# the logarithmic series of U(a, 1, z) cancels: at large a its terms reach
# about I_0(2 sqrt(a z)) / Gamma(a), its sum U about 2 K_0(2 sqrt(a z)) /
# Gamma(a), so it loses about e^{4 sqrt(a z)} ulps.  Against mpmath (a in
# [0.05, 300], z in [1e-4, 1/2]) it is the more accurate route up to
# a z = 1.5 at every a, and the quadrature past it
_U_SERIES_AZ = 1.5


def _column(v, rows):
    """The rows of a per-entry parameter as a column; a shared one stays."""
    return v[rows, None] if np.ndim(v) else v


def _entry(i, *params):
    """The parameters at entry i, as floats."""
    return tuple(float(p[i] if np.ndim(p) else p) for p in params)


def _kummer_u_log_series(a, z):
    # U(a, 1, z) = -(1/Gamma(a)) sum_k (a)_k z^k/(k!)^2
    #              * [log z + psi(a+k) - 2 psi(k+1)], accurate for z <= 1/2
    #              and a z <= _U_SERIES_AZ;
    # psi(a+k) and psi(k+1) advance by psi(x+1) = psi(x) + 1/x.  The sum
    # stops once every entry's term is below 1e-18 of its total.
    psi_a, norm = np.transpose(_per_order(lambda v: (_psi(v), math.exp(-math.lgamma(v))), a))
    log_z = np.log(z)
    coeff = np.ones_like(z)
    total = np.zeros_like(z)
    psi_1 = -np.euler_gamma
    for k in range(0, 200):
        bracket = log_z + psi_a - 2.0 * psi_1
        term = coeff * bracket
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1e-300)):
            break
        coeff = coeff * (a + k) * z / (k + 1.0) ** 2
        psi_a = psi_a + 1.0 / (a + k)
        psi_1 += 1.0 / (k + 1.0)
    return -total * norm


def _kummer_u_quadrature(a, b, z):
    # U(a, b, z) = 1/Gamma(a) int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt on
    # one grid for every entry.  Left cut-off where t^a drops 1e-19 below
    # scale at the smallest a; an entry's reach, where the e^{-z t} decay has
    # beaten any (1+t) growth by the same margin, sets the right cut-off: the
    # grid's at the entry that reaches farthest, a block's at its own
    # farthest.  For shared a and b, max(c/z) is c/min(z): division rounds
    # monotonically.
    z_lo, z_hi = float(z.min()), float(z.max())
    shift = math.log(z_hi / _U_Z_SCALE) if z_hi > _U_Z_SCALE else 0.0
    u_lo = -np.arcsinh((2.0 / np.pi) * (45.0 / np.min(a) + 5.0 + shift))
    reach = (90.0 + 45.0 * np.maximum(b - a, 0.0) + 2.0 * a) / z
    u_hi = np.arcsinh((2.0 / np.pi) * np.log(np.max(reach)))
    step = _DE_STEP * (_U_LOG_Z_SCALE / max(math.log(z_hi), -math.log(z_lo), _U_LOG_Z_SCALE))
    n = int(np.ceil((u_hi - u_lo) / step)) + 1
    u = np.linspace(u_lo, u_hi, n)
    log_t = 0.5 * np.pi * np.sinh(u)
    t = np.exp(log_t)
    # log of the Jacobian t * dt/du of the exp-sinh map t = exp((pi/2) sinh u)
    log_w = np.log(0.5 * np.pi * np.cosh(u)) + log_t
    log1p_t = np.log1p(t)
    h = u[1] - u[0]
    out = np.empty_like(z)
    rows = max(1, _U_CELLS // n)
    # the sum is assembled in log space, so nothing overflows
    with np.errstate(over="ignore", under="ignore"):
        for lo in range(0, len(z), rows):
            sel = slice(lo, lo + rows)
            # the block's nodes up to the first past its own entries' reach
            cut = np.arcsinh((2.0 / np.pi) * np.log(np.max(reach[sel])))
            k = min(n, int(np.searchsorted(u, cut, side="right")) + 1)
            ar, br = _column(a, sel), _column(b, sel)
            base = (ar - 1.0) * log_t[:k] + (br - ar - 1.0) * log1p_t[:k] + log_w[:k]
            log_terms = np.multiply(z[sel, None], t[:k])
            np.subtract(base, log_terms, out=log_terms)
            peak = log_terms.max(axis=1)
            log_terms -= peak[:, None]
            np.exp(log_terms, out=log_terms)
            out[sel] = np.exp(peak + np.log(log_terms.sum(axis=1)))
    return out * h * _per_order(lambda v: math.exp(-math.lgamma(v)), a)


def kummer_u(a, b, z):
    """Tricomi confluent hypergeometric function U(a, b, z) for a > 0, z > 0.

    a, b and z broadcast against each other, entry by entry.  U is the
    Laplace integral
        U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt
    under a double-exponential (exp-sinh) trapezoid rule: the map
    t = exp((pi/2) sinh u) turns both the endpoint singularity and the
    exponential tail into double-exponential decay.  One grid serves every
    entry of a call, its u-range wide enough that each entry's truncated
    contributions stay below ~1e-18 of its integrand scale.  The entries are
    summed in cache-sized blocks of rows, each block over the grid's nodes
    up to the first past its own entries' reach, so memory stays bounded
    however many entries a call holds and large-z entries cost fewer nodes.
    An entry's value therefore depends on the other entries only at
    rounding level, and a call with shared a and b is the same route
    whatever their shape.  Where b = 1, z <= 1/2 and a z <= 1.5, the
    logarithmic series is used instead: past a z = 1.5 its terms cancel by
    more than the quadrature's rounding.

    The quadrature is within 1e-12 relative of U for 1e-100 <= z <= 1e100
    (checked against mpmath for a in [0.05, 30] and b in [0.1, 6]) and
    raises ValueError for z outside that range; an entry that takes the
    series may have any z > 0.
    """
    a, b, z, shape = _flat(a, b, z)
    _require((a > 0).all(), "kummer_u requires a > 0")
    _require((np.isfinite(a) & np.isfinite(b)).all(), "kummer_u requires finite a and b")
    _require((z > 0).all(), "kummer_u requires z > 0")
    # the logarithmic series is both faster and more accurate than the
    # quadrature once z and a z are small (the traveling-wave tail regime)
    series = (b == 1.0) & (z <= 0.5) & (a * z <= _U_SERIES_AZ)
    quad = ~series
    _require(((z[quad] >= 1.0 / _U_Z_MAX) & (z[quad] <= _U_Z_MAX)).all(),
             f"kummer_u requires z <= {_U_Z_MAX:g}, and z >= {1.0 / _U_Z_MAX:g} "
             f"unless b = 1 and a z <= {_U_SERIES_AZ:g}")
    out = np.empty_like(z)
    if series.any():
        out[series] = _kummer_u_log_series(_take(a, series), z[series])
    if quad.any():
        out[quad] = _kummer_u_quadrature(_take(a, quad), _take(b, quad), z[quad])
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"kummer_u{_entry(i, a, b, z)} did not evaluate to a finite value")
    return _shaped(out, shape)


def whittaker_w0(kappa, z):
    """Whittaker W function with second index 0: W_{kappa,0}(z) for z > 0.

    kappa and z broadcast against each other, entry by entry.  Realized
    through the confluent reduction
        W_{kappa,0}(z) = exp(-z/2) * sqrt(z) * U(1/2 - kappa, 1, z),
    which requires 1/2 - kappa > 0 (true at every call site here, where
    1/2 - kappa equals a ratio of positive rate parameters), and takes U's
    range of z.
    """
    kappa, z, shape = _flat(kappa, z)
    a = 0.5 - kappa
    _require((a > 0).all(), "whittaker_w0 requires 1/2 - kappa > 0")
    _require((z > 0).all(), "whittaker_w0 requires z > 0")
    return _shaped(np.exp(-z / 2.0) * np.sqrt(z) * kummer_u(a, 1.0, z), shape)


# the Taylor series of 1F1 stops at its first term below _SERIES_TOL times
# max(1, |sum|), within max(_MAX_TERMS, ceil(1.5 z) + 100) terms: a
# positive-term series peaks near term z and ends about 7 sqrt(z) past it.
# _MAX_TERMS also bounds the degree of a terminating polynomial
_SERIES_TOL = 1e-10
_MAX_TERMS = 500


def _kummer_polynomial(a, b, z):
    # exact terminating polynomial of degree -a (a a negative integer), each
    # entry summed to its own degree
    degree = -a
    over = degree > _MAX_TERMS
    if over.any():
        first = degree[np.argmax(over)] if np.ndim(degree) else degree
        raise OverflowError(
            f"kummer_1f1 polynomial of degree {first:g} exceeds {_MAX_TERMS} terms"
        )
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, int(degree.max(initial=0)) + 1):
        term = term * ((a + k - 1) / (b + k - 1) * z / k)
        total = total + np.where(k <= degree, term, 0.0)
    return total


def _kummer_series(a, b, z):
    # plain Taylor series on a 1-d array; callers guarantee z > 0 and b > 0.
    # Each entry stops at its own first term below tolerance, as a
    # one-entry evaluation would, so an entry's value does not depend on
    # the others.
    params = (a, b, z)
    out = np.empty_like(z)
    idx = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    budget = np.maximum(_MAX_TERMS, np.ceil(1.5 * z) + 100.0)
    # an overflowing series is reported below, not warned about: a sum gone
    # to inf stops at once, since inf <= tol * inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, int(budget.max()) + 1):
            term = term * ((a + k - 1) / (b + k - 1) * z / k)
            total = total + term
            done = np.abs(term) <= _SERIES_TOL * np.maximum(1.0, np.abs(total))
            if done.any():
                out[idx[done]] = total[done]
                keep = ~done
                idx, z, term, total = idx[keep], z[keep], term[keep], total[keep]
                a, b, budget = _take(a, keep), _take(b, keep), budget[keep]
                if not idx.size:
                    break
            if k >= _MAX_TERMS and (budget <= k).any():
                i = int(np.argmax(budget <= k))
                raise OverflowError(
                    f"kummer_1f1 series did not converge within {budget[i]:.0f} terms "
                    f"at (a, b, z) = {_entry(idx[i], *params)}"
                )
    bad = ~np.isfinite(out)
    if bad.any():
        raise OverflowError(
            f"kummer_1f1 series overflowed at (a, b, z) = {_entry(int(np.argmax(bad)), *params)}"
        )
    return out


_C_POW = np.frompyfunc(pow, 2, 1)


def _kummer_asymptotic_neg(a, b, s):
    # 1F1(a; b; -s) ~ Gamma(b)/Gamma(b-a) s^{-a} sum_k (a)_k (a-b+1)_k/(k! s^k)
    # for s -> +inf on a 1-d array, each entry summed to its smallest term.
    # s^{-a} is the C library pow, entry by entry: numpy's vectorised power
    # can differ from it in the last bit.  Gamma(b) > 0, and Gamma(b - a)
    # has the sign (-1)^ceil(a - b) where b - a < 0, which lgamma drops.
    gamma_ratio = _per_order(
        lambda a, b: (-1.0 if b - a < 0 and math.ceil(a - b) % 2 else 1.0)
        * float(np.exp(_lgamma(b) - _lgamma(b - a))), a, b)
    pref = gamma_ratio * _C_POW(s, -a).astype(float)
    out = np.empty_like(s)
    idx = np.arange(s.size)
    term = np.ones_like(s)
    total = np.ones_like(s)
    prev = np.abs(term)
    for k in range(1, 60):
        term = term * ((a + k - 1) * (a - b + k) / (k * s))
        grew = np.abs(term) > prev
        total = np.where(grew, total, total + term)
        done = grew | (np.abs(term) < 1e-17 * np.abs(total))
        prev = np.abs(term)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, s, term, total, prev = idx[keep], s[keep], term[keep], total[keep], prev[keep]
            a, b = _take(a, keep), _take(b, keep)
            if not idx.size:
                break
    out[idx] = total
    return pref * out


def _kummer_1f1(a, b, z):
    # z flat; a and b shared or per entry.  Each entry takes the branch of a
    # one-entry call: the polynomial at a negative integer a, 1 at a = 0,
    # else by z (1 at z = 0; NaN falls to the last).
    poly = (a < 0) & (a % 1.0 == 0.0)
    if poly.all():
        return _kummer_polynomial(a, b, z)
    out = np.ones_like(z)
    if poly.any():
        out[poly] = _kummer_polynomial(a[poly], _take(b, poly), z[poly])
    rest = (a != 0.0) & ~poly
    pos = rest & (z > 0)
    neg = rest & ~(z > 0) & (z != 0.0)
    near = z <= 40.0
    sel = pos & near
    if sel.any():
        out[sel] = _kummer_series(_take(a, sel), _take(b, sel), z[sel])
    sel = pos & ~near
    if sel.any():
        # reduce to a decaying-argument evaluation: 1F1(a;b;z) = e^z 1F1(b-a;b;-z)
        bs = _take(b, sel)
        out[sel] = np.exp(z[sel]) * _kummer_1f1(bs - _take(a, sel), bs, -z[sel])
    # the expansion holds only once -z is large against |a (a - b + 1)|,
    # its second term's coefficient
    near = -z <= np.maximum(40.0, np.abs(a * (a - b + 1.0)))
    sel = neg & near
    if sel.any():
        # z < 0: Kummer transform gives a stable positive-term series for b > a
        bs = _take(b, sel)
        out[sel] = np.exp(z[sel]) * _kummer_series(bs - _take(a, sel), bs, -z[sel])
    # where b - a is a nonpositive integer, Gamma(b - a) has a pole: the
    # expansion's prefactor is 0 and misses the exponentially small part,
    # and the transform e^z 1F1(b-a; b; -z) is a terminating polynomial.
    # Past degree _MAX_TERMS (a - b > 500) the expansion is taken only at
    # -z > a (a - b + 1) > 250000, where e^z times the polynomial underflows
    # to the expansion's 0.
    ba = b - a
    dual = (ba <= 0.0) & (ba % 1.0 == 0.0) & (ba >= -_MAX_TERMS)
    sel = neg & ~near & dual
    if sel.any():
        bs = _take(b, sel)
        out[sel] = np.exp(z[sel]) * _kummer_polynomial(bs - _take(a, sel), bs, -z[sel])
    sel = neg & ~near & ~dual
    if sel.any():
        out[sel] = _kummer_asymptotic_neg(_take(a, sel), _take(b, sel), -z[sel])
    return out


def kummer_1f1(a, b, z):
    """Kummer confluent hypergeometric function 1F1(a; b; z), b > 0.

    a, b and z broadcast against each other, entry by entry, and every
    entry equals the one-entry evaluation at its (a, b, z), bit for bit.
    Terminating cases (a a nonpositive integer) are evaluated as the exact
    polynomial.  Negative arguments go through the Kummer transform
    1F1(a;b;z) = e^z 1F1(b-a;b;-z) so the series has positive terms, and
    z < -max(40, |a (a - b + 1)|) (a positive z past 40 through the
    transform) falls back to the standard asymptotic expansion, unless
    b - a is a nonpositive integer: there the transform is a terminating
    polynomial, e^z at b = a.

    Raises ValueError for a non-finite a, and OverflowError when the series
    fails to converge within max(500, ceil(1.5 |z|) + 100) terms or
    overflows, and when a terminating polynomial's degree -a exceeds 500.
    """
    a, b, z, shape = _flat(a, b, z)
    _require((b > 0).all(), "kummer_1f1 requires b > 0")
    _require(np.isfinite(a).all(), "kummer_1f1 requires a finite a")
    return _shaped(_kummer_1f1(a, b, z), shape)
