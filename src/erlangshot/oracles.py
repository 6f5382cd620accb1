"""Independent reference evaluations for the special-function kernel.

Every routine here but one reaches its value by a different algorithm than
the corresponding function in :mod:`erlangshot.specfun` (Stirling series,
direct power series, integral representations, closed-form identities), so
agreement between the two is a meaningful check rather than a tautology.
The exception is ``bessel_i_ref``: it sums the same power series that
``specfun._i_series`` sums up to x = max(40, nu^2 / 4), about 80% of the
``verify-specfun`` sweep's x in [0, 50].  What stays independent there is
its tail rule (each entry stops at its first term below 1e-18 of the sum),
its prefactor (through the Stirling ``log_gamma_ref``), and the Tier-1
check of ``specfun.bessel_i`` against scipy.

Every oracle takes parameter columns: the parameters broadcast together,
a scalar in gives a float out, and an array in an array of the broadcast
shape.  An entry outside an oracle's domain, or a NaN, raises ValueError.
The series run as masked array loops, each entry stopping at its own last
term.  The integral representations go through adaptive 21-point
Gauss-Kronrod in numpy (:func:`erlangshot.quadrature.gauss_kronrod`), never
through specfun's exp-sinh rule, and integrate the whole batch in one
adaptive loop; an integral that does not converge raises RuntimeError
naming its parameters.  The ``verify-specfun`` command sweeps every
oracle here against its specfun counterpart; the test suite checks the
oracles themselves against mpmath.
"""

from __future__ import annotations

import numpy as np

from .quadrature import CONVERGED, LIMIT, NONFINITE, ROUNDOFF, gauss_kronrod

__all__ = [
    "log_gamma_ref",
    "digamma_ref",
    "bessel_i_ref",
    "bessel_k_ref",
    "erlang_survival_ref",
    "kummer_u_ref",
    "whittaker_w0_ref",
    "kummer_1f1_poly_ref",
]

# B_{2n} / (2n (2n-1)) for the Stirling tail
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_HALF_LOG_2PI = 0.9189385332046727
_LOG_2 = 0.6931471805599453

_STATUS = {LIMIT: "LIMIT", ROUNDOFF: "ROUNDOFF", NONFINITE: "NONFINITE"}


def _batch(*params):
    """Parameters broadcast together and flattened, with their common shape;
    raises ValueError for a NaN entry."""
    arrays = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in params))
    if any(np.isnan(p).any() for p in arrays):
        raise ValueError("parameters must not be NaN")
    return [p.ravel() for p in arrays], arrays[0].shape


def _shaped(values, shape):
    return float(values[0]) if shape == () else values.reshape(shape)


def _require(ok, message):
    if not np.all(ok):
        raise ValueError(message)


def _integrate(name, f, lo, hi, epsabs, epsrel, **params):
    """Integrals of f(x, k) over [lo_k, hi_k].  ``params`` holds a column
    per parameter, one entry per integral: the RuntimeError raised for an
    integral that did not converge names the first one by its entries."""
    value, _, status = gauss_kronrod(f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=400)
    failed = np.flatnonzero(status != CONVERGED)
    if failed.size:
        k = failed[0]
        at = ", ".join(f"{p}={float(v[k])!r}" for p, v in params.items())
        raise RuntimeError(f"{name} integral did not converge ({_STATUS[status[k]]}) at {at}")
    return value


def log_gamma_ref(x):
    """log Gamma by the Stirling series, each entry shifted up until it applies."""
    (x,), shape = _batch(x)
    _require(x > 0, "x must be positive")
    shift = np.zeros_like(x)
    y = x.copy()
    while (low := y < 12.0).any():
        shift[low] += np.log(y[low])
        y[low] += 1.0
    tail = np.zeros_like(y)
    yk = y.copy()
    for c in _STIRLING:
        tail += c / yk
        yk *= y * y
    return _shaped((y - 0.5) * np.log(y) - y + _HALF_LOG_2PI + tail - shift, shape)


def digamma_ref(x):
    """Digamma by Richardson-extrapolated central differences of
    ``log_gamma_ref``, after shifting each entry above 10."""
    (x,), shape = _batch(x)
    _require(x > 0, "x must be positive")
    shift = np.zeros_like(x)
    y = x.copy()
    while (low := y < 10.0).any():
        shift[low] += 1.0 / y[low]
        y[low] += 1.0

    def central(h):
        return (log_gamma_ref(y + h) - log_gamma_ref(y - h)) / (2.0 * h)

    h = 0.2
    d1, d2, d4 = central(h), central(h / 2.0), central(h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d4 - d2) / 3.0
    return _shaped((16.0 * r2 - r1) / 15.0 - shift, shape)


def bessel_i_ref(nu, x):
    """Modified Bessel I by its power series with explicit tail control:
    each entry's sum stops at its first term below 1e-18 of the sum."""
    (nu, x), shape = _batch(nu, x)
    _require((x >= 0) & (nu >= 0), "need x >= 0 and nu >= 0")
    out = np.where(nu == 0, 1.0, 0.0)  # the value at x = 0
    # the entries still summing, with their order, (x/2)^2, last term and sum
    live = np.flatnonzero(x > 0)
    nu_l, half = nu[live], 0.5 * x[live]
    sq = half * half
    term = np.exp(nu_l * np.log(half) - log_gamma_ref(nu_l + 1.0))
    total = term.copy()
    k = 1
    while live.size:
        if k == 400:
            raise RuntimeError(
                f"bessel_i series did not converge at nu={float(nu[live[0]])!r}, "
                f"x={float(x[live[0]])!r}")
        term *= sq / (k * (nu_l + k))
        total += term
        done = term < 1e-18 * total
        out[live[done]] = total[done]
        live, nu_l, sq, term, total = (v[~done] for v in (live, nu_l, sq, term, total))
        k += 1
    return _shaped(out, shape)


def bessel_k_ref(nu, x):
    """Modified Bessel K by quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand is scaled by e^{x} so the quadrature works on O(1)
    values and the result keeps relative accuracy even where K underflows
    toward the tiny end of double precision.  log cosh(nu t) is formed as
    nu t + log1p(e^{-2 nu t}) - log 2, which does not overflow where cosh
    does (nu t past about 710) while e^{-x (cosh t - 1)} still cuts the
    integrand.
    """
    (nu, x), shape = _batch(nu, x)
    _require(x > 0, "need x > 0")
    nu = np.abs(nu)
    t_hi = np.arccosh(1.0 + 750.0 / x)

    def scaled(t, k):
        a = nu[k] * t
        return np.exp(-x[k] * (np.cosh(t) - 1.0) + a + np.log1p(np.exp(-2.0 * a)) - _LOG_2)

    val = _integrate("bessel_k", scaled, 0.0, t_hi, 1e-300, 1e-13, nu=nu, x=x)
    return _shaped(val * np.exp(-x), shape)


def erlang_survival_ref(m, gamma, x):
    """Erlang tail mass by adaptive quadrature of the density."""
    (m, gamma, x), shape = _batch(m, gamma, x)
    # integrate the tail out to where the integrand is below 1e-20
    hi = x + (60.0 + m * 10.0) / gamma
    log_norm = m * np.log(gamma) - log_gamma_ref(m)

    def pdf(s, k):
        return np.exp(log_norm[k] + (m[k] - 1) * np.log(s) - gamma[k] * s)

    val = _integrate("erlang_survival", pdf, x, hi, 1e-14, 1e-13, m=m, gamma=gamma, x=x)
    return _shaped(np.where(x == 0.0, 1.0, val), shape)


def _kummer_u(a, b, z):
    """U(a, b, z) on flat parameter arrays: the [0, 1] and [1, inf) parts of
    the Laplace integral as one batch of 2n integrals."""
    _require((a > 0) & (z > 0), "need a > 0 and z > 0")
    n = a.size
    # t = s^q on [0, 1] turns t^{a-1} dt into q s^{qa-1} ds, a power of at
    # least 8 for q = ceil(9/a); the [1, inf) part keeps t = s (q = 1)
    q = np.concatenate([np.ceil(9.0 / a), np.ones(n)])
    a2, b2, z2 = (np.tile(v, 2) for v in (a, b, z))
    log_q, power, expo = np.log(q), q * a2 - 1.0, b2 - a2 - 1.0

    def integrand(s, k):
        t = s ** q[k]
        return np.exp(log_q[k] + power[k] * np.log(s) - z2[k] * t + expo[k] * np.log1p(t))

    lo = np.repeat([0.0, 1.0], n)
    hi = np.repeat([1.0, np.inf], n)
    parts = _integrate("kummer_u", integrand, lo, hi, 1e-300, 1e-12, a=a2, b=b2, z=z2)
    return (parts[:n] + parts[n:]) * np.exp(-log_gamma_ref(a))


def kummer_u_ref(a, b, z):
    """Tricomi U by quadrature of its Laplace-type integral representation,
    U = Gamma(a)^{-1} int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt.

    On [0, 1] the substitution t = s^q with integer q = ceil(9/a) turns
    the endpoint factor t^{a-1} into q s^{qa-1}, a power of at least 8
    times a function analytic at s = 0, so the adaptive rule converges in
    a few rounds for every a.  Both parts are integrated to a relative
    1e-12 with no absolute floor, so a U far below 1 keeps its relative
    accuracy.
    """
    (a, b, z), shape = _batch(a, b, z)
    return _shaped(_kummer_u(a, b, z), shape)


def whittaker_w0_ref(kappa, z):
    """Whittaker W_{kappa,0} through the confluent reduction and the U oracle."""
    (kappa, z), shape = _batch(kappa, z)
    u = _kummer_u(0.5 - kappa, np.ones_like(z), z)
    return _shaped(np.exp(-z / 2.0) * np.sqrt(z) * u, shape)


def kummer_1f1_poly_ref(n, b, z):
    """Terminating 1F1(-n; b; z) evaluated exactly as a degree-n polynomial,
    each entry summed up to its own degree."""
    (n, b, z), shape = _batch(n, b, z)
    _require(np.isfinite(n) & (n >= 0) & (n == np.floor(n)), "n must be a nonnegative integer")
    total, term = np.ones_like(z), np.ones_like(z)
    for k in range(1, int(n.max(initial=0.0)) + 1):
        live = n >= k
        term[live] *= (-n[live] + k - 1.0) / (b[live] + k - 1.0) * z[live] / k
        total[live] += term[live]
    return _shaped(total, shape)
