"""Special-function kernel used by the closed-form densities.

Every transcendental function the analytic solutions need lives here behind
a small, validated surface: log-gamma, digamma, modified Bessel I and K,
the Erlang survival function, Tricomi's confluent function U, the Whittaker
W function with second index 0, and Kummer's 1F1.  Evaluation is delegated
to scipy.special where a mature routine exists; each function is pinned to
an independent oracle (series, quadrature, closed-form identities) in the
test suite.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "Accuracy",
    "log_gamma",
    "digamma",
    "bessel_i",
    "bessel_k",
    "erlang_survival",
    "kummer_u",
    "whittaker_w0",
    "kummer_1f1",
]


@dataclass(frozen=True)
class Accuracy:
    """Tolerance knobs for series evaluation."""

    abs_tol: float = 1e-10
    max_terms: int = 500

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


_DEFAULT_ACC = Accuracy()


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def log_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    x = np.asarray(x, dtype=float)
    _require(np.all(x > 0), "log_gamma requires x > 0")
    out = _sp.gammaln(x)
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """Digamma psi(x) = d/dx log Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    _require(np.all(x > 0), "digamma requires x > 0")
    out = _sp.digamma(x)
    return float(out) if out.ndim == 0 else out


def bessel_i(nu, x):
    """Modified Bessel function of the first kind I_nu(x), nu >= 0, x >= 0."""
    _require(nu >= 0, "bessel_i requires nu >= 0")
    x = np.asarray(x, dtype=float)
    _require(np.all(x >= 0), "bessel_i requires x >= 0")
    out = _sp.iv(nu, x)
    return float(out) if out.ndim == 0 else out


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    K is even in the order, so negative nu is folded to |nu|.
    """
    x = np.asarray(x, dtype=float)
    _require(np.all(x > 0), "bessel_k requires x > 0")
    out = _sp.kv(abs(nu), x)
    return float(out) if out.ndim == 0 else out


def erlang_survival(m, gamma, x):
    """Upper tail mass of the Erlang(m, gamma) law at x >= 0.

    Equals the regularized upper incomplete gamma function Q(m, gamma*x),
    i.e. the probability that an Erlang(m, gamma) jump exceeds x.
    """
    _require(int(m) == m and m >= 1, "erlang_survival requires integer m >= 1")
    _require(gamma > 0, "erlang_survival requires gamma > 0")
    x = np.asarray(x, dtype=float)
    _require(np.all(x >= 0), "erlang_survival requires x >= 0")
    out = _sp.gammaincc(float(m), gamma * x)
    return float(out) if out.ndim == 0 else out


_DE_STEP = 0.02


def _kummer_u_log_series(a, z):
    # U(a, 1, z) = -(1/Gamma(a)) sum_k (a)_k z^k/(k!)^2
    #              * [log z + psi(a+k) - 2 psi(k+1)], accurate for z <= 1/2
    z = np.asarray(z, dtype=float)
    log_z = np.log(z)
    coeff = np.ones_like(z)
    total = np.zeros_like(z)
    for k in range(0, 200):
        bracket = log_z + _sp.digamma(a + k) - 2.0 * _sp.digamma(k + 1.0)
        term = coeff * bracket
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1e-300)):
            break
        coeff = coeff * (a + k) * z / (k + 1.0) ** 2
    return -total * np.exp(-_sp.gammaln(a))


def kummer_u(a, b, z):
    """Tricomi confluent hypergeometric function U(a, b, z) for a > 0, z > 0.

    Evaluated from the Laplace integral representation
        U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt
    with a double-exponential (exp-sinh) quadrature rule: the map
    t = exp((pi/2) sinh u) turns both the endpoint singularity and the
    exponential tail into double-exponential decay, so the trapezoid rule
    converges spectrally.  The u-range adapts to (a, b, z) so the truncated
    contributions stay below ~1e-18 of the integrand scale, and the sum is
    assembled in log space so nothing overflows.
    """
    _require(a > 0, "kummer_u requires a > 0")
    z = np.asarray(z, dtype=float)
    _require(np.all(z > 0), "kummer_u requires z > 0")
    zf = np.atleast_1d(z).ravel()
    if b == 1.0:
        # the logarithmic series is both faster and more accurate than the
        # quadrature route once z is small (the traveling-wave tail regime)
        small = zf <= 0.5
        if np.all(small):
            out = _kummer_u_log_series(a, zf).reshape(np.shape(z))
            return float(out) if out.ndim == 0 else out
        if np.any(small):
            out = np.empty_like(zf)
            out[small] = _kummer_u_log_series(a, zf[small])
            out[~small] = np.atleast_1d(kummer_u(a, b, zf[~small]))
            out = out.reshape(np.shape(z))
            return float(out) if out.ndim == 0 else out
    # left cutoff where t^a drops 1e-19 below scale; right cutoff where the
    # e^{-z t} decay has beaten any (1+t) growth by the same margin
    u_lo = -np.arcsinh((2.0 / np.pi) * (45.0 / a + 5.0))
    t_hi = (90.0 + 45.0 * max(b - a, 0.0) + 2.0 * a) / zf.min()
    u_hi = np.arcsinh((2.0 / np.pi) * np.log(t_hi))
    n = int(np.ceil((u_hi - u_lo) / _DE_STEP)) + 1
    u = np.linspace(u_lo, u_hi, n)
    log_t = 0.5 * np.pi * np.sinh(u)
    t = np.exp(log_t)
    # log of the Jacobian t * dt/du of the exp-sinh map
    log_w = np.log(0.5 * np.pi * np.cosh(u)) + log_t
    h = u[1] - u[0]
    out = np.empty_like(zf)
    base = (a - 1.0) * log_t + (b - a - 1.0) * np.log1p(t) + log_w
    with np.errstate(over="ignore", under="ignore"):
        for lo in range(0, len(zf), 8192):
            hi = min(len(zf), lo + 8192)
            log_terms = base[None, :] - zf[lo:hi, None] * t[None, :]
            peak = log_terms.max(axis=1)
            out[lo:hi] = np.exp(
                peak + np.log(np.exp(log_terms - peak[:, None]).sum(axis=1))
            )
    out = (out * h * np.exp(-_sp.gammaln(a))).reshape(np.shape(z))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"kummer_u({a}, {b}, ...) did not evaluate to a finite value")
    return float(out) if out.ndim == 0 else out


def whittaker_w0(kappa, z):
    """Whittaker W function with second index 0: W_{kappa,0}(z) for z > 0.

    Realized through the confluent reduction
        W_{kappa,0}(z) = exp(-z/2) * sqrt(z) * U(1/2 - kappa, 1, z),
    which requires 1/2 - kappa > 0 (true at every call site here, where
    1/2 - kappa equals a ratio of positive rate parameters).
    """
    a = 0.5 - kappa
    _require(a > 0, "whittaker_w0 requires 1/2 - kappa > 0")
    z = np.asarray(z, dtype=float)
    _require(np.all(z > 0), "whittaker_w0 requires z > 0")
    out = np.exp(-z / 2.0) * np.sqrt(z) * kummer_u(a, 1.0, z)
    return float(out) if out.ndim == 0 else out


def _kummer_polynomial(a, b, z):
    # exact terminating polynomial of degree -a (a a negative integer); z a
    # float or an array, so a scalar call does no numpy per-operation work
    term = 1.0
    total = 1.0
    for k in range(1, int(-a) + 1):
        term = term * ((a + k - 1) / (b + k - 1) * z / k)
        total = total + term
    return total


def _kummer_series(a, b, z, acc):
    # plain Taylor series on a 1-d array; callers guarantee z > 0 and b > 0.
    # Each entry stops at its own first term below tolerance, as a scalar
    # evaluation would, so an entry's value does not depend on the others.
    out = np.empty_like(z)
    idx = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    # an overflowing series is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, acc.max_terms + 1):
            term = term * ((a + k - 1) / (b + k - 1) * z / k)
            total = total + term
            done = np.abs(term) <= acc.abs_tol * np.maximum(1.0, np.abs(total))
            if done.any():
                out[idx[done]] = total[done]
                keep = ~done
                idx, z, term, total = idx[keep], z[keep], term[keep], total[keep]
                if not idx.size:
                    break
        else:
            raise OverflowError(
                f"kummer_1f1 series did not converge within {acc.max_terms} terms "
                f"(z={z.max()})"
            )
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"kummer_1f1 series overflowed (a={a}, b={b})")
    return out


def _kummer_asymptotic_neg(a, b, s):
    # 1F1(a; b; -s) ~ Gamma(b)/Gamma(b-a) s^{-a} sum_k (a)_k (a-b+1)_k/(k! s^k)
    # for s -> +inf on a 1-d array, each entry summed to its smallest term.
    # s^{-a} is the C library pow, entry by entry: numpy's vectorised power
    # can differ from it in the last bit.
    pref = np.exp(_sp.gammaln(b) - _sp.gammaln(b - a)) * np.array(
        [si ** (-a) for si in s.tolist()]
    )
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
            if not idx.size:
                break
    out[idx] = total
    return pref * out


def kummer_1f1(a, b, z, acc: Accuracy = _DEFAULT_ACC):
    """Kummer confluent hypergeometric function 1F1(a; b; z), b > 0.

    ``a`` and ``b`` are scalars, ``z`` a scalar or an array; every entry of
    an array equals the scalar evaluation at that entry, bit for bit.
    Terminating cases (a a nonpositive integer) are evaluated as the exact
    polynomial.  Negative arguments go through the Kummer transform
    1F1(a;b;z) = e^z 1F1(b-a;b;-z) so the series has positive terms, and
    very large |z| falls back to the standard asymptotic expansion.

    Raises OverflowError when the series fails to converge within
    ``acc.max_terms`` terms or overflows, and when a terminating
    polynomial's degree -a exceeds ``acc.max_terms``.
    """
    _require(b > 0, "kummer_1f1 requires b > 0")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    if a == 0.0:
        return 1.0 if scalar else np.ones(z.shape)
    if a == int(a) and a < 0:
        if -a > acc.max_terms:
            raise OverflowError(
                f"kummer_1f1 polynomial of degree {-a:g} exceeds {acc.max_terms} terms"
            )
        out = _kummer_polynomial(a, b, float(z) if scalar else z)
        return float(out) if scalar else out
    zf = z.ravel()
    out = np.ones_like(zf)
    # the scalar route's branches, entry by entry; NaN falls to the last
    pos = zf > 0
    neg = ~pos & (zf != 0.0)
    s = -zf
    near = zf <= 40.0
    sel = pos & near
    if sel.any():
        out[sel] = _kummer_series(a, b, zf[sel], acc)
    sel = pos & ~near
    if sel.any():
        # reduce to a decaying-argument evaluation: 1F1(a;b;z) = e^z 1F1(b-a;b;-z)
        out[sel] = np.exp(zf[sel]) * kummer_1f1(b - a, b, s[sel], acc)
    near = s <= 40.0
    sel = neg & near
    if sel.any():
        # z < 0: Kummer transform gives a stable positive-term series for b > a
        out[sel] = np.exp(zf[sel]) * _kummer_series(b - a, b, s[sel], acc)
    sel = neg & ~near
    if sel.any():
        out[sel] = _kummer_asymptotic_neg(a, b, s[sel])
    return float(out[0]) if scalar else out.reshape(z.shape)
