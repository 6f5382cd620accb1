"""Grid-based evaluation of the jump-process master equation.

Two routes to the same generator are implemented on uniform grids: the
integro-differential form (drift/diffusion divergence, loss term, and the
one-sided Erlang convolution) and the pure differential form obtained by
applying the shift operator (d/dx + gamma)^m.  ``generator_gap`` forms
both and compares them: their agreement under grid refinement is the
numerical certificate for the differential rewriting.  Residual helpers
certify stationary densities and traveling waves through the differential
form.
Only the integral route, whose convolution starts at x_lo, needs a grid
function that decays at both grid ends; the differential route is local
and takes any finite one.

The generators act along the last axis, so a ``GridFunction`` may hold one
density or a (k, n) stack of them: every stencil, the kernel and its FFT
are then computed once per call, not once per density, and each row comes
out bit for bit as it would alone (the arithmetic per node is the same, and
the batched real FFT transforms each row as a one-row call does).

All operations are pure functions of value inputs.  Residual norms use
compensated summation where sums appear; max norms everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import ErlangJumpLaw, erlang_pdf
from .specfun import next_fast_len

__all__ = [
    "GridSpec",
    "GridFunction",
    "ConstantDrift",
    "LinearRestoring",
    "TanhRepulsive",
    "ConstantRate",
    "ExpDecayCentered",
    "ModelSpec",
    "BoundaryMassError",
    "differential_generator",
    "generator_gap",
    "stationary_residual",
    "wave_residual",
    "apply_shift_operator",
    "interior_margin",
    "fit_convergence_order",
]

_DECAY_TOL = 1e-12


class BoundaryMassError(ValueError):
    """Raised when the integral route gets a grid function that does not decay at its ends."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with n nodes on [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        if self.n < 9:
            raise ValueError("grid requires at least 9 nodes")
        # fails for x_lo >= x_hi, a span past the float range and a spacing
        # that underflows: none leaves a grid to evaluate on
        if not 0 < self.h < math.inf:
            raise ValueError(f"grid spacing ({self.x_hi:g} - {self.x_lo:g}) / {self.n - 1} = "
                             f"{self.h:g} must be finite and positive")

    @property
    def h(self):
        return (self.x_hi - self.x_lo) / (self.n - 1)

    def nodes(self):
        return np.linspace(self.x_lo, self.x_hi, self.n)

    def refine(self, factor=2):
        """Same interval with the spacing divided by ``factor``."""
        return GridSpec(self.x_lo, self.x_hi, (self.n - 1) * factor + 1)


@dataclass(frozen=True)
class GridFunction:
    """Real values sampled on a uniform grid: one row of n values, or a
    (k, n) stack of k rows on the same grid."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.spec.n or not vals.size:
            raise ValueError("values must be a row or a non-empty stack of rows of the "
                             "grid's length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# model description: drift b(x), constant diffusion sigma, jump rate lambda(x)


@dataclass(frozen=True)
class ConstantDrift:
    k: float

    def b(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.k)


@dataclass(frozen=True)
class LinearRestoring:
    """Drift b(x) = -alpha x (restoring force of strength alpha > 0)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def b(self, x):
        return -self.alpha * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class TanhRepulsive:
    """Drift b(x) = +beta tanh(beta x) (outward push saturating at beta)."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def b(self, x):
        return self.beta * np.tanh(self.beta * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ConstantRate:
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("rate must be nonnegative")

    def rate(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.lam)


@dataclass(frozen=True)
class ExpDecayCentered:
    """Rate lambda(x) = exp(-beta (x - reference))."""

    beta: float
    reference: float = 0.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def rate(self, x):
        return np.exp(-self.beta * (np.asarray(x, dtype=float) - self.reference))


@dataclass(frozen=True)
class ModelSpec:
    """Drift b(x), diffusion intensity sigma, Poisson rate lambda(x) and
    Erlang jump law of one dynamics.  The white noise has one constant
    intensity: ``sigma`` is a finite float >= 0 (0 for a pure jump drift)."""

    drift: object
    sigma: float
    rate: object
    jumps: ErlangJumpLaw

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma = {self.sigma!r} must be finite and nonnegative")


# ---------------------------------------------------------------------------
# stencils (4th-order central differences along the last axis; shift
# operator by composition)


def _d1(values, h):
    """4th-order first derivative; two junk nodes at each end (zeroed).

    Formed in place in one output, term by term in the order of
    (-v[i+2] + 8 v[i+1] - 8 v[i-1] + v[i-2]) / (12 h): x - y is x + (-y)
    and addition commutes in IEEE arithmetic, so every node is that
    expression's value to the last bit.
    """
    out = np.empty_like(values)
    body = out[..., 2:-2]
    np.multiply(values[..., 3:-1], 8.0, out=body)
    body -= values[..., 4:]
    body -= 8.0 * values[..., 1:-3]
    body += values[..., :-4]
    body /= 12.0 * h
    out[..., :2] = 0.0
    out[..., -2:] = 0.0
    return out


def _d2(values, h):
    """4th-order second derivative; two junk nodes at each end (zeroed).

    In place as ``_d1``, in the order of
    (-v[i+2] + 16 v[i+1] - 30 v[i] + 16 v[i-1] - v[i-2]) / (12 h^2).
    """
    out = np.empty_like(values)
    body = out[..., 2:-2]
    tmp = np.multiply(values[..., 2:-2], 30.0)
    np.multiply(values[..., 3:-1], 16.0, out=body)
    body -= values[..., 4:]
    body -= tmp
    body += np.multiply(values[..., 1:-3], 16.0, out=tmp)
    body -= values[..., :-4]
    body /= 12.0 * h**2
    out[..., :2] = 0.0
    out[..., -2:] = 0.0
    return out


def apply_shift_operator(values, h, gamma, times=1):
    """Apply (d/dx + gamma)^times by composing the first-order stencil.

    Each application invalidates two more nodes at each boundary; callers
    must restrict attention to the remaining interior.
    """
    out = np.asarray(values, dtype=float)
    for _ in range(times):
        shifted = _d1(out, h)
        shifted += gamma * out
        out = shifted
    return out


def interior_margin(m):
    """Number of junk nodes at each end after the full operator pipeline.

    Two nodes per derivative: one drift/diffusion divergence (up to two
    derivatives) plus m shift applications.
    """
    return 2 * (m + 2)


def _check_decay(values):
    """Both ends of every row must lie within _DECAY_TOL of zero."""
    left, right = np.max(np.abs(values[..., [0, -1]]).reshape(-1, 2), axis=0)
    if left > _DECAY_TOL or right > _DECAY_TOL:
        raise BoundaryMassError(
            "grid function must decay below "
            f"{_DECAY_TOL:g} at both grid ends (largest |value| {left:.3e}, {right:.3e})"
        )


def _drift_diffusion_term(P: GridFunction, model: ModelSpec, x):
    """-d/dx [b P] + 1/2 d^2/dx^2 [sigma^2 P] on the grid with nodes x."""
    h = P.spec.h
    bP = model.drift.b(x) * P.values
    # sigma * sigma, not sigma ** 2: C pow can differ from the product in
    # the last bit
    s2P = model.sigma * model.sigma * P.values
    out = _d1(bP, h)
    np.negative(out, out=out)
    out += 0.5 * _d2(s2P, h)
    return out


def _shared_terms(P: GridFunction, model: ModelSpec):
    """lambda P and the drift/diffusion term, the inputs of both generator
    routes."""
    x = P.spec.nodes()
    return model.rate.rate(x) * P.values, _drift_diffusion_term(P, model, x)


def _causal_convolution(g, kern):
    """First n terms of the linear convolution of each row of g with kern
    (both of length n along the last axis), from one zero-padded real FFT
    product of length at least 2n - 1, so no wrapped term reaches them.  The
    kernel is transformed once for the whole stack."""
    n = g.shape[-1]
    size = next_fast_len(2 * n - 1, real=True)
    return np.fft.irfft(np.fft.rfft(g, size) * np.fft.rfft(kern, size), size)[..., :n]


def _erlang_convolution(spec: GridSpec, g, model: ModelSpec):
    """One-sided convolution integral of the gain g = lambda P by trapezoid.

    Computes int_{x_lo}^{x} E(m, gamma; x - z) g(z) dz at every node with
    the kernel evaluated exactly on the grid offsets; the sums over z are
    the causal convolution of the gain with the kernel.
    """
    h = spec.h
    kern = erlang_pdf(model.jumps, np.arange(spec.n) * h)
    out = _causal_convolution(g, kern)
    # trapezoid endpoint correction: half weight at z = x_lo and z = x
    corr = g[..., :1] * kern
    corr += g * kern[0]
    corr *= 0.5
    out -= corr
    out *= h
    return out


def _integral_route(spec: GridSpec, model: ModelSpec, lamP, dd):
    """drift/diffusion term - lambda P + Erlang convolution of lambda P,
    zeroed inside the stencil margin of the ends."""
    out = dd - lamP
    out += _erlang_convolution(spec, lamP, model)
    out[..., :2] = 0.0
    out[..., -2:] = 0.0
    return out


def _differential_route(h, model: ModelSpec, lamP, dd):
    """(d/dx + gamma)^m dd + [gamma^m - (d/dx + gamma)^m](lambda P), zeroed
    outside the usable interior."""
    m = model.jumps.m
    gamma = model.jumps.gamma
    rate_part = gamma**m * lamP
    rate_part -= apply_shift_operator(lamP, h, gamma, m)
    out = apply_shift_operator(dd, h, gamma, m)
    out += rate_part
    k = interior_margin(m)
    out[..., :k] = 0.0
    out[..., -k:] = 0.0
    return out


def differential_generator(P: GridFunction, model: ModelSpec) -> GridFunction:
    """(d/dx + gamma)^m applied to the implied time derivative of P,
    evaluated through the differential form of the master equation:

        (d/dx + gamma)^m (drift/diffusion term) + [gamma^m - (d/dx + gamma)^m](lambda P)

    For m = 1 and zero drift/diffusion this reduces to -d/dx (lambda P).
    ``generator_gap`` compares it with the shifted integral form.
    """
    return GridFunction(P.spec, _differential_route(P.spec.h, model, *_shared_terms(P, model)))


def generator_gap(P: GridFunction, model: ModelSpec) -> float:
    """Max-norm disagreement between the two generator routes.

    Applies (d/dx + gamma)^m to the integral-form generator, -d/dx[bP]
    + 1/2 d2/dx2[sigma^2 P] - lambda P + (Erlang convolution of lambda P)
    zeroed inside the stencil margin of the ends, and compares it node-wise
    with ``differential_generator(P)`` on the common interior; for a stack,
    the largest gap over its rows.  Both routes are formed from one
    evaluation of lambda P and the drift/diffusion term.

    Raises BoundaryMassError unless every row decays at both grid ends (the
    integral route's convolution starts at x_lo), and ValueError where
    either route is not finite, as ``GridFunction`` does for a generator's
    output, and where the gap itself is not (a shift that overflows).
    """
    m = model.jumps.m
    h = P.spec.h
    _check_decay(P.values)
    lamP, dd = _shared_terms(P, model)
    integral = _integral_route(P.spec, model, lamP, dd)
    # through the shifts a non-finite value of the integral route reaches
    # the compared interior, and so the gap, from every node but these four
    if not np.all(np.isfinite(integral[..., [2, 3, -4, -3]])):
        raise ValueError("grid values must be finite")
    lhs = apply_shift_operator(integral, h, model.jumps.gamma, m)
    rhs = _differential_route(h, model, lamP, dd)
    k = interior_margin(m)
    diff = lhs[..., k:-k]
    diff -= rhs[..., k:-k]
    gap = float(np.max(np.abs(diff, out=diff)))
    if not math.isfinite(gap):
        raise ValueError("grid values must be finite")
    return gap


def stationary_residual(P: GridFunction, model: ModelSpec) -> float:
    """Max-norm imbalance of the stationary differential identity.

    A stationary density makes the differential-form time derivative
    vanish, so the residual is just the max of |differential_generator(P)|
    over the usable interior.  P need not vanish at the grid ends.
    """
    k = interior_margin(model.jumps.m)
    out = differential_generator(P, model).values
    return float(np.max(np.abs(out[..., k:-k])))


def wave_residual(P: GridFunction, beta, gamma, m, speed) -> float:
    """Max-norm residual of the co-moving traveling-wave equation.

    In the frame moving at ``speed`` the wave is a stationary density of
    the dynamics with drift -speed, no diffusion, rate lambda(xi) =
    exp(-beta xi) and Erlang(m, gamma) jumps, so this is that model's
    ``stationary_residual``, the differential form

        (d/dxi + gamma)^m (speed dP/dxi) + [gamma^m - (d/dxi + gamma)^m](lambda P) = 0.
    """
    model = ModelSpec(ConstantDrift(-speed), 0.0, ExpDecayCentered(beta), ErlangJumpLaw(m, gamma))
    return stationary_residual(P, model)


def fit_convergence_order(hs, errors, n_finest=3):
    """Slope of log(error) against log(h) over the finest grids."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2:
        raise ValueError("need at least two refinement levels")
    order = np.argsort(hs)
    hs, errors = hs[order], errors[order]
    k = min(n_finest, len(hs))
    slope = np.polyfit(np.log(hs[:k]), np.log(np.maximum(errors[:k], 1e-300)), 1)[0]
    return float(slope)

