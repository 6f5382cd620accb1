"""Independent reference evaluations for the special-function kernel.

Every routine here reaches its value by a different algorithm than the
corresponding function in :mod:`erlangshot.specfun` (Stirling series,
direct power series, integral representations, closed-form identities), so
agreement between the two is a meaningful check rather than a tautology.
The integral representations go through adaptive 21-point Gauss-Kronrod in
numpy (:func:`erlangshot.quadrature.gauss_kronrod`), never through
specfun's exp-sinh rule; they accept arrays of parameters and integrate
the whole batch in one adaptive loop.  Used by the ``verify-specfun``
command and by the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import gauss_kronrod

__all__ = [
    "log_gamma_ref",
    "digamma_ref",
    "bessel_i_ref",
    "bessel_k_ref",
    "erlang_survival_ref",
    "kummer_u_ref",
    "whittaker_w0_ref",
    "exp1_ref",
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


def log_gamma_ref(x):
    """log Gamma by the Stirling series, shifted up until it applies."""
    if x <= 0:
        raise ValueError("x must be positive")
    shift = 0.0
    y = x
    while y < 12.0:
        shift += math.log(y)
        y += 1.0
    tail = 0.0
    yk = y
    for c in _STIRLING:
        tail += c / yk
        yk *= y * y
    return (y - 0.5) * math.log(y) - y + _HALF_LOG_2PI + tail - shift


def digamma_ref(x):
    """Digamma by Richardson-extrapolated central differences of
    ``log_gamma_ref``, after shifting the argument above 10."""
    if x <= 0:
        raise ValueError("x must be positive")
    shift = 0.0
    y = x
    while y < 10.0:
        shift += 1.0 / y
        y += 1.0

    def central(h):
        return (log_gamma_ref(y + h) - log_gamma_ref(y - h)) / (2.0 * h)

    h = 0.2
    d1, d2, d4 = central(h), central(h / 2.0), central(h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d4 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0 - shift


def bessel_i_ref(nu, x):
    """Modified Bessel I by its power series with explicit tail control."""
    if x < 0 or nu < 0:
        raise ValueError("need x >= 0 and nu >= 0")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    half = 0.5 * x
    log_term = nu * math.log(half) - log_gamma_ref(nu + 1.0)
    term = math.exp(log_term)
    total = term
    for k in range(1, 400):
        term *= half * half / (k * (nu + k))
        total += term
        if term < 1e-18 * total:
            return total
    raise RuntimeError("bessel_i series did not converge")


def _batch(*params):
    """Parameters broadcast together and flattened, with their common shape."""
    arrays = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in params))
    return [p.ravel() for p in arrays], arrays[0].shape


def _shaped(values, shape):
    return float(values[0]) if shape == () else values.reshape(shape)


def _integrate(f, a, b, epsabs, epsrel):
    return gauss_kronrod(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=400)[0]


def _log_gamma(a):
    return np.array([log_gamma_ref(v) for v in a])


def bessel_k_ref(nu, x):
    """Modified Bessel K by quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand is scaled by e^{x} so the quadrature works on O(1)
    values and the result keeps relative accuracy even where K underflows
    toward the tiny end of double precision.
    """
    (nu, x), shape = _batch(nu, x)
    if np.any(x <= 0):
        raise ValueError("need x > 0")
    nu = np.abs(nu)
    t_hi = np.arccosh(1.0 + 750.0 / x)

    def scaled(t, k):
        return np.exp(-x[k] * (np.cosh(t) - 1.0) + np.log(np.cosh(nu[k] * t)))

    return _shaped(_integrate(scaled, 0.0, t_hi, 1e-300, 1e-13) * np.exp(-x), shape)


def erlang_survival_ref(m, gamma, x):
    """Erlang tail mass by adaptive quadrature of the density."""
    (m, gamma, x), shape = _batch(m, gamma, x)
    # integrate the tail out to where the integrand is below 1e-20
    hi = x + (60.0 + m * 10.0) / gamma
    log_norm = m * np.log(gamma) - _log_gamma(m)

    def pdf(s, k):
        return np.exp(log_norm[k] + (m[k] - 1) * np.log(s) - gamma[k] * s)

    val = _integrate(pdf, x, hi, 1e-14, 1e-13)
    return _shaped(np.where(x == 0.0, 1.0, val), shape)


def _kummer_u(a, b, z):
    """U(a, b, z) on flat parameter arrays: the [0, 1] and [1, inf) parts of
    the Laplace integral as one batch of 2n integrals."""
    if np.any(a <= 0) or np.any(z <= 0):
        raise ValueError("need a > 0 and z > 0")
    n = a.size
    # for a < 1 the endpoint singularity t^{a-1} on [0, 1] is removed by
    # the substitution t = s^{1/a}
    smooth = np.concatenate([a < 1.0, np.zeros(n, dtype=bool)])
    a2, b2, z2 = (np.tile(v, 2) for v in (a, b, z))

    def integrand(s, k):
        ak, sm = a2[k], smooth[k]
        t = np.where(sm, s ** (1.0 / ak), s)
        log_jac = np.where(sm, -np.log(ak), (ak - 1.0) * np.log(t))
        return np.exp(-z2[k] * t + log_jac + (b2[k] - ak - 1.0) * np.log1p(t))

    lo = np.repeat([0.0, 1.0], n)
    hi = np.repeat([1.0, np.inf], n)
    parts = _integrate(integrand, lo, hi, 1e-14, 1e-12)
    return (parts[:n] + parts[n:]) * np.exp(-_log_gamma(a))


def kummer_u_ref(a, b, z):
    """Tricomi U by quadrature of its Laplace-type integral representation.

    For a < 1 the endpoint singularity t^{a-1} is removed analytically by
    the substitution t = s^{1/a} before quadrature.
    """
    (a, b, z), shape = _batch(a, b, z)
    return _shaped(_kummer_u(a, b, z), shape)


def whittaker_w0_ref(kappa, z):
    """Whittaker W_{kappa,0} through the confluent reduction and the U oracle."""
    (kappa, z), shape = _batch(kappa, z)
    u = _kummer_u(0.5 - kappa, np.ones_like(z), z)
    return _shaped(np.exp(-z / 2.0) * np.sqrt(z) * u, shape)


def exp1_ref(z):
    """Exponential integral E1 by quadrature (for the U(1,1,z) identity)."""
    (z,), shape = _batch(z)
    val = _integrate(lambda t, k: np.exp(-z[k] * t) / t, np.ones_like(z), np.inf, 1e-14, 1e-13)
    return _shaped(val, shape)


def kummer_1f1_poly_ref(n, b, z):
    """Terminating 1F1(-n; b; z) evaluated exactly as a degree-n polynomial."""
    if int(n) != n or n < 0:
        raise ValueError("n must be a nonnegative integer")
    total = 1.0
    term = 1.0
    for k in range(1, int(n) + 1):
        term *= (-n + k - 1.0) / (b + k - 1.0) * z / k
        total += term
    return total
