"""Adaptive Gauss-Kronrod quadrature and rules for sampled data, on numpy.

``gauss_kronrod`` integrates a batch of integrals at once with the
21-point Gauss-Kronrod rule and the error estimate of QUADPACK's ``qk21``
(Piessens et al., 1983).  Every interval carries the index of the integral
it belongs to; each round splits, in one vectorised step, the intervals of
the integrals that have not converged yet, so the Python overhead of a
round is shared by the whole batch.  An upper limit b = +inf is mapped to
(0, 1] by x = a + (1 - t)/t.

``simpson`` and ``cumulative_trapezoid`` follow ``scipy.integrate``'s
semantics for one-dimensional samples y(x); ``trapezoid_cdf`` scales the
running integral of a tabulated density to end at one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CONVERGED", "LIMIT", "ROUNDOFF", "NONFINITE", "gauss_kronrod", "simpson",
           "cumulative_trapezoid", "trapezoid_cdf"]

# outcome of one integral in gauss_kronrod
CONVERGED, LIMIT, ROUNDOFF, NONFINITE = 0, 1, 2, 3

# Kronrod nodes on [0, 1] in decreasing order (the odd ones are the 10-point
# Gauss nodes, the last the centre), their Kronrod weights, and the Gauss
# weights of the odd nodes
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980010320, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes on [-1, 1] in increasing order with both weight vectors
NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
GAUSS_WEIGHTS = np.zeros(21)
GAUSS_WEIGHTS[1:10:2] = _WG
GAUSS_WEIGHTS[11:20:2] = _WG[::-1]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _kronrod21(f, lo, hi, owner, a, mapped):
    """Kronrod values and QUADPACK error estimates on the intervals [lo, hi]."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * NODES
    k = np.repeat(owner, NODES.size)
    t = t.ravel()
    if mapped.any():
        inf = mapped[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(inf, a[k] + (1.0 - t) / t, t)
            jac = np.where(inf, 1.0 / (t * t), 1.0)
    else:
        x, jac = t, 1.0
    fx = (np.broadcast_to(np.asarray(f(x, k), dtype=float), x.shape) * jac).reshape(-1, NODES.size)
    width = np.abs(half)
    # a non-finite integrand makes NaN values and errors, reported as NONFINITE
    with np.errstate(divide="ignore", invalid="ignore"):
        kron = fx @ KRONROD_WEIGHTS
        err = np.abs(kron - fx @ GAUSS_WEIGHTS) * width
        resabs = (np.abs(fx) @ KRONROD_WEIGHTS) * width
        resasc = (np.abs(fx - 0.5 * kron[:, None]) @ KRONROD_WEIGHTS) * width
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    return kron * half, np.maximum(err, 50.0 * _EPS * resabs)


def gauss_kronrod(f, a, b, *, epsabs, epsrel, limit):
    """Integrals of f over [a_k, b_k] for a batch of integrals k.

    ``f(x, k)`` receives 1-D arrays of points and of the indices of the
    integrals they belong to, and returns the integrand values there.  The
    limits broadcast together; each a_k is finite, each b_k finite or +inf.
    Integral k stops when its summed error estimate is at most
    max(epsabs, epsrel |value|), when it would need more than ``limit``
    intervals, or when round-off stops progress: six rounds whose value
    moved by at most 1e-5 relative while the error fell by less than 1%,
    or an interval too narrow to halve.

    Returns (values, errors, status), flat arrays over the batch, with
    status CONVERGED, LIMIT, ROUNDOFF or NONFINITE per integral.
    """
    a, b = (np.ravel(v).astype(float) for v in np.broadcast_arrays(a, b))
    n = a.size
    mapped = b == np.inf
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b) | mapped)):
        raise ValueError("limits must be finite, except b = +inf")
    value, error, status = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    prev_value, prev_error = np.full(n, np.nan), np.full(n, np.inf)
    stalls = np.zeros(n, dtype=int)
    owner = np.arange(n)
    lo, hi = np.where(mapped, 0.0, a), np.where(mapped, 1.0, b)
    val, err = _kronrod21(f, lo, hi, owner, a, mapped)
    while True:
        total, est = np.bincount(owner, val, n), np.bincount(owner, err, n)
        count = np.bincount(owner, minlength=n)
        live = count > 0
        stalls += live & (np.abs(total - prev_value) <= 1e-5 * np.abs(total)) & (
            est >= 0.99 * prev_error)
        prev_value, prev_error = total, est
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        # split every interval whose error exceeds an even share of the tolerance
        split = err * count[owner] > tol[owner]
        scale = np.maximum(np.abs(lo), np.abs(hi))
        narrow = split & (np.abs(hi - lo) <= 100.0 * _EPS * scale + 1e3 * _TINY)
        outcome = np.select(
            [~(np.isfinite(total) & np.isfinite(est)), est <= tol,
             (stalls >= 6) | (np.bincount(owner, narrow, n) > 0),
             count + np.bincount(owner, split, n) > limit],
            [NONFINITE, CONVERGED, ROUNDOFF, LIMIT], -1)
        ended = live & (outcome >= 0)
        value[ended], error[ended], status[ended] = total[ended], est[ended], outcome[ended]
        going = outcome[owner] < 0
        if not going.any():
            return value, error, status
        cut, stay = split & going, ~split & going
        mid = 0.5 * (lo[cut] + hi[cut])
        new_lo, new_hi = np.concatenate([lo[cut], mid]), np.concatenate([mid, hi[cut]])
        new_owner = np.tile(owner[cut], 2)
        new_val, new_err = _kronrod21(f, new_lo, new_hi, new_owner, a, mapped)
        lo, hi = np.concatenate([lo[stay], new_lo]), np.concatenate([hi[stay], new_hi])
        owner = np.concatenate([owner[stay], new_owner])
        val, err = np.concatenate([val[stay], new_val]), np.concatenate([err[stay], new_err])


def simpson(y, x):
    """Composite Simpson rule for samples y at increasing points x.

    An even number of samples integrates the last interval with the
    three-point correction scipy uses (Cartwright, 2017); two samples fall
    back to the trapezoid."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    n = y.size
    if n == 2:
        return float(0.5 * (x[1] - x[0]) * (y[0] + y[1]))
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, ratio = h0 + h1, h0 / h1
    total = np.sum(hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / ratio)
        + y[1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
        + y[2 : stop + 2 : 2] * (2.0 - ratio)
    ))
    if n % 2 == 0:
        h0, h1 = h[-2], h[-1]
        alpha = (2.0 * h1**2 + 3.0 * h0 * h1) / (6.0 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6.0 * h0)
        eta = h1**3 / (6.0 * h0 * (h0 + h1))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(total)


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of samples y at points x, starting at 0."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def trapezoid_cdf(y, x):
    """Trapezoid CDF of a density y tabulated at x, scaled to end at one."""
    cum = cumulative_trapezoid(y, x)
    return cum / cum[-1]
