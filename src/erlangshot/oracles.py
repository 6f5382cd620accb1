"""Independent reference evaluations for the special-function kernel.

Every routine here reaches its value by a different algorithm than the
corresponding function in :mod:`erlangshot.specfun` (Stirling series,
direct power series, integral representations via adaptive quadrature,
closed-form identities), so agreement between the two is a meaningful
check rather than a tautology.  Used by the ``verify-specfun`` command and
by the test suite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

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


def bessel_k_ref(nu, x):
    """Modified Bessel K by quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand is scaled by e^{x} so the quadrature works on O(1)
    values and the result keeps relative accuracy even where K underflows
    toward the tiny end of double precision.
    """
    if x <= 0:
        raise ValueError("need x > 0")
    nu = abs(nu)
    t_hi = math.acosh(1.0 + 750.0 / x)

    def scaled(t):
        return math.exp(-x * (math.cosh(t) - 1.0) + math.log(math.cosh(nu * t)))

    val, _ = integrate.quad(scaled, 0.0, t_hi, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val * math.exp(-x)


def erlang_survival_ref(m, gamma, x):
    """Erlang tail mass by adaptive quadrature of the density."""
    if x == 0.0:
        return 1.0
    # integrate the tail out to where the integrand is below 1e-20
    hi = x + (60.0 + m * 10.0) / gamma
    log_norm = log_gamma_ref(m)

    def pdf(s):
        return math.exp(m * math.log(gamma) + (m - 1) * math.log(s) - gamma * s - log_norm)

    val, _ = integrate.quad(pdf, x, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def kummer_u_ref(a, b, z):
    """Tricomi U by quadrature of its Laplace-type integral representation.

    For a < 1 the endpoint singularity t^{a-1} is removed analytically by
    the substitution t = s^{1/a} before quadrature.
    """
    if a <= 0 or z <= 0:
        raise ValueError("need a > 0 and z > 0")

    def integrand(t):
        return math.exp(-z * t + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t))

    if a < 1.0:
        def smooth(s):
            t = s ** (1.0 / a)
            return math.exp(-z * t + (b - a - 1.0) * math.log1p(t)) / a

        v1, _ = integrate.quad(smooth, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    else:
        v1, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    v2, _ = integrate.quad(integrand, 1.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    return (v1 + v2) * math.exp(-log_gamma_ref(a))


def whittaker_w0_ref(kappa, z):
    """Whittaker W_{kappa,0} through the confluent reduction and the U oracle."""
    a = 0.5 - kappa
    return math.exp(-z / 2.0) * math.sqrt(z) * kummer_u_ref(a, 1.0, z)


def exp1_ref(z):
    """Exponential integral E1 by quadrature (for the U(1,1,z) identity)."""
    val, _ = integrate.quad(
        lambda t: math.exp(-z * t) / t, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13
    )
    return val


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
