"""Closed-form densities, transforms, wave profiles, and speeds.

Analytic solutions for shot-noise dynamics with Erlang jumps: the m=1
stationary density for general drift/rate, the linear-drift stationary
law for m=2 (Bessel I form), stationary cumulants, the
Laplace transform and m=1 transient for linear drift, the Gumbel and
Whittaker traveling-wave profiles with their speeds, and the tanh-drift
jump diffusion at a positive jump rate: transient law by
characteristic-function inversion and the invariant law of its
Ornstein-Uhlenbeck-driven companion.

Quadrature is adaptive 21-point Gauss-Kronrod (``quadrature.gauss_kronrod``)
with absolute tolerance 1e-8 or better; infinite domains are mapped to
(0, 1].  Both tanh laws invert their characteristic function with one
trapezoid cosine sum over a uniform frequency grid: on a uniform x grid
(``density_grid``, ``mass``, ``cdf_grid``) the sum is evaluated by one
chirp-z transform (Bluestein's algorithm on ``numpy.fft``) in
O((n_x + n_u) log) time and O(n_x + n_u) memory; at scattered points
(``density``) by the dense sum over the same coefficients.

The commands integrate a wave profile on its tabulated grid; the tests
take its moments and exponential moment G(u) by quadrature
(``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .master import GridFunction, GridSpec
from .noise import TiltedJumpLaw
from .quadrature import (
    CONVERGED,
    LIMIT,
    NONFINITE,
    cumulative_trapezoid,
    gauss_kronrod,
    simpson,
    trapezoid_cdf,
)
from .specfun import (
    bessel_ie,
    bessel_ke,
    digamma,
    erlang_survival,
    kummer_1f1,
    kummer_u,
    log_gamma,
    next_fast_len,
)

__all__ = [
    "NormalizationError",
    "DivergenceError",
    "WaveSolution",
    "TransientLaw",
    "TanhTransientLaw",
    "TiltedOuLaw",
    "stationary_m1",
    "stationary_ou_m2",
    "cumulant",
    "laplace_transform_linear",
    "gumbel_wave",
    "whittaker_wave",
]


class NormalizationError(RuntimeError):
    """Raised when a density cannot be normalized (diverging mass)."""


class DivergenceError(ValueError):
    """Raised when a requested integral does not converge."""


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _quad(fn, a, b, **kw):
    """Integral of fn over [a, b] (b may be +inf); fn takes an array of points.

    Raises DivergenceError when the subdivision limit is hit, round-off stops
    progress above the tolerance, or the value is not finite."""
    opts = dict(epsabs=1e-11, epsrel=1e-11, limit=400)
    opts.update(kw)
    (val,), _, (status,) = gauss_kronrod(lambda x, k: fn(x), a, b, **opts)
    if status == NONFINITE:
        raise DivergenceError("quadrature produced a non-finite value")
    if status != CONVERGED:
        why = "subdivision limit reached" if status == LIMIT else "round-off stops progress"
        raise DivergenceError(f"quadrature failed to converge: {why}")
    return float(val)


# ---------------------------------------------------------------------------
# stationary laws


def stationary_m1(f, lambda_fn, gamma, grid: GridSpec) -> GridFunction:
    """Stationary density for m=1 jumps, drift -f(x), and rate lambda(x).

    Evaluates N / f(x) * exp(-gamma x + int^x lambda/f) on the grid and
    normalizes by quadrature.  The exponent integral is accumulated with
    per-cell Gauss-Legendre on a 4x refined grid and the mass with Simpson
    on the same refinement, so grid values are accurate to ~1e-10 for
    smooth inputs.

    Raises NormalizationError when the mass diverges (non-finite values or
    a non-decaying right tail), in which case no stationary regime exists.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    refine = 4
    fine = grid.refine(refine)
    xf = fine.nodes()

    def _eval(fn, pts):
        return np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape)

    fvals = _eval(f, xf)
    if np.any(fvals <= 0):
        raise ValueError("stationary_m1 requires f(x) > 0 on the grid")
    # Cumulative integral of lambda/f by 5-point Gauss-Legendre per cell.
    # The knot set is the refined grid united with a log-spaced ladder from
    # the left edge, so integrands steep near x_lo (the typical f(0) = 0
    # case, where lambda/f ~ 1/x) are still resolved to ~1e-12.
    if grid.x_lo > 0 and grid.x_hi / grid.x_lo > 50.0:
        ladder = np.geomspace(grid.x_lo, grid.x_hi, 600)
        knots = np.unique(np.concatenate([xf, ladder]))
    else:
        knots = xf
    mid = 0.5 * (knots[1:] + knots[:-1])
    half = 0.5 * (knots[1:] - knots[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    integrand = _eval(lambda_fn, pts) / _eval(f, pts)
    cells = half * (integrand @ _GL_WEIGHTS)
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    expo = cum[np.searchsorted(knots, xf)] - gamma * (xf - xf[0])
    expo -= expo.max()  # normalization absorbs the shift
    unnorm = np.exp(expo) / fvals
    if not np.all(np.isfinite(unnorm)):
        raise NormalizationError("stationary density is not finite on the grid")
    mass = simpson(unnorm, xf)
    if not (np.isfinite(mass) and mass > 0):
        raise NormalizationError("stationary mass is not finite and positive")
    # a non-decaying right tail means the grid truncates diverging mass
    if unnorm[-1] * (grid.x_hi - grid.x_lo) > 1e-6 * mass:
        raise NormalizationError(
            "density does not decay at the right grid end; mass may diverge"
        )
    return GridFunction(grid, unnorm[::refine] / mass)


def stationary_ou_m2(alpha, lam, gamma, x):
    """Stationary density for m=2 jumps and linear restoring drift.

    P(x) = gamma e^{-lam/alpha - gamma x} (alpha gamma x / lam)^{(lam/alpha-1)/2}
           I_{lam/alpha-1}(2 sqrt(gamma lam x / alpha))  on x >= 0,

    evaluated in log space with the exponentially scaled Bessel function so
    large arguments do not overflow.  The sign of lam/alpha in the leading
    exponential is the one that normalizes the density (the series identity
    int_0^inf e^{-u} u^{nu/2} I_nu(2 sqrt(a u)) du = a^{nu/2} e^a pins it);
    mass and mean are verified by quadrature in the tests.
    """
    for name, v in (("alpha", alpha), ("lam", lam), ("gamma", gamma)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("stationary_ou_m2 requires x >= 0")
    nu = lam / alpha - 1.0
    pos = x > 0
    out = np.zeros_like(x)
    xp = np.where(pos, x, 1.0)
    z = 2.0 * np.sqrt(gamma * lam * xp / alpha)
    logp = (
        np.log(gamma)
        - lam / alpha
        - gamma * xp
        + 0.5 * nu * np.log(alpha * gamma * xp / lam)
        + np.log(bessel_ie(nu, z))
        + z
    )
    out = np.where(pos, np.exp(logp), 0.0)
    # x = 0 limit: gamma^{nu+1} e^{-lam/alpha} x^nu / Gamma(nu+1)
    if np.any(~pos):
        if nu > 0:
            lim = 0.0
        elif nu == 0:
            lim = gamma * np.exp(-lam / alpha)
        else:
            lim = np.inf
        out = np.where(pos, out, lim)
    return float(out) if out.ndim == 0 else out


def cumulant(j, m, gamma, lam, f):
    """j-th stationary cumulant of the shot-noise process with drift -f.

    kappa_j = int_0^inf x^j lam * S(m, gamma; x) / f(x) dx with S the Erlang
    survival function, by adaptive quadrature (abs tol 1e-8).  f must accept
    arrays: the quadrature evaluates it on many points at once.  Raises
    DivergenceError when the tail is not integrable.
    """
    if int(j) != j or j < 1:
        raise ValueError("cumulant order j must be an integer >= 1")
    if int(m) != m or m < 1:
        raise ValueError("Erlang shape m must be an integer >= 1")
    if lam < 0:
        raise ValueError("rate lam must be nonnegative")
    if lam == 0:
        return 0.0

    def integrand(x):
        return x**j * lam * erlang_survival(m, gamma, x) / f(x)

    # cheap non-integrability probe before the quadrature
    probe = np.array([50.0, 100.0, 200.0]) * (m / gamma)
    vals = np.array([integrand(p) for p in probe])
    if np.any(~np.isfinite(vals)) or (vals[-1] > vals[0] and vals[-1] > 1e-6):
        raise DivergenceError("cumulant integrand does not decay at infinity")
    return _quad(integrand, 0.0, np.inf, epsabs=1e-10, epsrel=1e-10)


# ---------------------------------------------------------------------------
# linear drift: Laplace transform and m=1 transient


def laplace_transform_linear(u, t, m, alpha, lam, gamma, x0):
    """Laplace transform of the linear-drift shot-noise law at (u, t).

    E[e^{-u X_t}] = exp(-x0 u e^{-alpha t}
                        - lam int_0^t [1 - (gamma/(gamma + u e^{-alpha v}))^m] dv).

    The sign of the x0 term is fixed by the t=0 requirement
    E[e^{-u X_0}] = e^{-u x0}; the inner integral is adaptive quadrature.
    """
    if u < 0 or t < 0:
        raise ValueError("u and t must be nonnegative")
    if u == 0:
        return 1.0
    if t == 0:
        return float(np.exp(-u * x0))

    def integrand(v):
        return 1.0 - (gamma / (gamma + u * np.exp(-alpha * v))) ** m

    inner = _quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    return float(np.exp(-x0 * u * np.exp(-alpha * t) - lam * inner))


# 1F1 argument past which TransientLaw uses 1F1's large-argument expansion,
# in units of max(1, (lam / alpha)^2): its next term is below 1e-32 there
_FAR_S = 1e16


@dataclass(frozen=True)
class TransientLaw:
    """Time-dependent law for m=1 jumps and linear restoring drift.

    The law at time t is a point mass of weight e^{-lam t} at the decayed
    start x0 e^{-alpha t} (no jump yet) plus an absolutely continuous part
    supported on z = x - x0 e^{-alpha t} >= 0.  A ``z_max`` argument
    defaults to ``z_max()``.
    """

    alpha: float
    lam: float
    gamma: float
    x0: float

    def __post_init__(self):
        for name in ("alpha", "lam", "gamma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not np.isfinite(self.z_max()):
            raise ValueError("the range 40 / gamma + 20 lam / (alpha gamma) of the law overflows")

    def atom_weight(self, t):
        return float(np.exp(-self.lam * t))

    def atom_location(self, t):
        return float(self.x0 * np.exp(-self.alpha * t))

    def continuous_density(self, x, t, *, from_atom=False):
        """Continuous part at position x and time t > 0: the density at
        distance z = x - x0 e^{-alpha t} past the atom (zero for z < 0).
        With ``from_atom`` the first argument is z itself; taking z, not x,
        keeps it exact however far from 0 the atom lies.

        With G = e^{alpha t} - 1, r = lam / alpha and s = gamma G z the
        density is e^{-lam t} (lam gamma / alpha) G e^{-gamma z} 1F1(1 - r; 2; -s).
        It is formed as the exp of a sum of logs, so it neither underflows
        once lam t passes about 745 nor overflows with G.  The 1F1 factor
        is positive: Kummer's transformation makes it e^{-s} 1F1(1 + r; 2; s).
        Past s = ``_FAR_S`` max(1, r^2), or where the 1F1 evaluation is not
        a finite positive number, its log is the large-s expansion to first
        order,
        (r - 1) log s - log Gamma(1 + r) + log1p(r (r - 1) / s).
        """
        if not t > 0:
            raise ValueError("t must be positive")
        z = np.asarray(x, dtype=float)
        if not from_atom:
            z = z - self.atom_location(t)
        a, lam, g = self.alpha, self.lam, self.gamma
        r = lam / a
        zz = np.where(z > 0, z, 0.0)
        log_grow = a * t + np.log(-np.expm1(-a * t))  # log(e^{alpha t} - 1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_s = np.log(g * zz) + log_grow
            s = np.exp(log_s)
            far = s > _FAR_S * max(1.0, r * r)
            hyp = kummer_1f1(1.0 - r, 2.0, -np.where(far, 0.0, s))
            far |= ~(np.isfinite(hyp) & (hyp > 0))
            log_hyp = np.where(
                far,
                (r - 1.0) * log_s - log_gamma(1.0 + r) + np.log1p(r * (r - 1.0) / s),
                np.log(hyp),
            )
        log_vals = -lam * t + np.log(lam * g / a) + log_grow - g * zz + log_hyp
        out = np.where(z >= 0, np.exp(log_vals), 0.0)
        return float(out) if out.ndim == 0 else out

    def z_max(self):
        """Width past the atom that the law is tabulated and integrated over,
        40 / gamma + 20 lam / (alpha gamma) (inf where it overflows)."""
        gamma = np.float64(self.gamma)
        with np.errstate(over="ignore", divide="ignore"):
            return float(40.0 / gamma + 20.0 * self.lam / (self.alpha * gamma))

    def total_mass(self, t, z_max=None):
        """Atom weight plus quadrature mass of the continuous part."""
        if z_max is None:
            z_max = self.z_max()
        cont = _quad(lambda z: self.continuous_density(z, t, from_atom=True), 0.0, z_max,
                     epsabs=1e-10)
        return self.atom_weight(t) + cont

    def density_cdf_grid(self, t, z_max=None, n=4001):
        """(x, continuous density, right-continuous CDF) tabulated on
        x = atom_location + z for z uniform on [0, z_max]; the density is
        taken at each z, and the CDF integrates it in z.  Raises ValueError
        when the density is not finite or x is not strictly increasing."""
        if z_max is None:
            z_max = self.z_max()
        loc = self.atom_location(t)
        z = np.linspace(0.0, z_max, n)
        dens = self.continuous_density(z, t, from_atom=True)
        if not np.all(np.isfinite(dens)):
            raise ValueError(f"the law at t = {t:g} does not evaluate to finite values")
        x = loc + z
        if not np.all(np.diff(x) > 0):
            raise ValueError(f"the grid at t = {t:g} is not strictly increasing: its atom "
                             f"x0 e^(-alpha t) = {loc:g} swallows the spacing")
        cum = cumulative_trapezoid(dens, z)
        return x, dens, self.atom_weight(t) + cum

    def cdf_grid(self, t, z_max=None, n=4001):
        """Right-continuous CDF tabulated on x = atom_location + [0, z_max]."""
        x, _, cdf = self.density_cdf_grid(t, z_max, n)
        return x, cdf


# ---------------------------------------------------------------------------
# traveling waves

# below this z the logarithmic series of U(a, 1, z) is its first term
_WAVE_Z_TINY = 1e-300


@dataclass(frozen=True)
class WaveSolution:
    """Traveling-wave profile with its speed and normalization constant.

    ``profile(xi)`` evaluates the centered probability density in the
    co-moving coordinate xi; it integrates to one and has zero mean.
    """

    m: int
    beta: float
    gamma: float
    speed: float
    norm: float

    def __post_init__(self):
        if not (0 < self.speed < math.inf and 0 < self.norm < math.inf):
            raise ValueError(f"the m={self.m}, beta={self.beta:g} wave has no finite positive "
                             f"speed and norm at gamma={self.gamma:g}")

    def profile(self, xi):
        shape = np.shape(xi)
        xi = np.asarray(xi, dtype=float).ravel()
        b, g, c = self.beta, self.gamma, self.speed
        # z overflows to inf far left of the front, where the density is 0
        with np.errstate(over="ignore"):
            z = np.exp(-b * xi) / (b * c)
            damp = np.exp((b / 2 - g) * xi - z) if self.m == 2 else None
        if self.m == 1:
            out = self.norm * np.exp(-g * xi - z)
        else:
            # W_{kappa,0}(z) = e^{-z/2} sqrt(z) U(gamma/beta, 1, z), evaluated
            # where e^{-z} leaves the density above 0; where z is below
            # _WAVE_Z_TINY (or underflows), U(a, 1, z) is
            # -(log z + psi(a) + 2 euler_gamma) / Gamma(a) to double precision
            # and e^{(b/2 - g) xi - z} sqrt(z) is e^{-g xi} / sqrt(b C)
            a = g / b
            out = np.zeros_like(z)
            mid = (damp > 0) & (z >= _WAVE_Z_TINY)
            if mid.any():
                out[mid] = self.norm * damp[mid] * np.sqrt(z[mid]) * kummer_u(a, 1.0, z[mid])
            tail = z < _WAVE_Z_TINY
            if tail.any():
                log_bc = math.log(b * c)
                log_z = -b * xi[tail] - log_bc
                u = -(log_z + digamma(a) + 2.0 * np.euler_gamma)
                out[tail] = self.norm * np.exp(-g * xi[tail] - 0.5 * log_bc - log_gamma(a)) * u
        out = out.reshape(shape)
        return float(out) if out.ndim == 0 else out

    def support_bounds(self, tail=1e-14):
        """Interval outside which the profile is numerically negligible."""
        b, g, c = self.beta, self.gamma, self.speed
        lo = -np.log(-np.log(tail) * b * c * (2.0 if self.m == 2 else 1.0)) / b
        hi = (-np.log(tail) + 8.0) / g
        return float(lo), float(hi)

    def cdf_grid(self, n=6001):
        lo, hi = self.support_bounds()
        xi = np.linspace(lo, hi, n)
        return xi, trapezoid_cdf(self.profile(xi), xi)


def gumbel_wave(beta, gamma) -> WaveSolution:
    """m=1 traveling wave: Gumbel-type profile and its speed.

    speed C1 = (1/beta) exp(-psi(gamma/beta)),
    norm  N  = beta / ((beta C1)^{gamma/beta} Gamma(gamma/beta)),
    profile(xi) = N exp(-gamma xi - e^{-beta xi}/(beta C1)).
    """
    if not (beta > 0 and gamma > 0):
        raise ValueError("beta and gamma must be positive")
    r = gamma / beta
    speed = np.exp(-digamma(r)) / beta
    norm = beta * np.exp(-r * np.log(beta * speed) - log_gamma(r))
    return WaveSolution(1, beta, gamma, float(speed), float(norm))


def whittaker_wave(beta, gamma) -> WaveSolution:
    """m=2 traveling wave: Whittaker-W profile and its speed.

    speed C2 = (1/beta) exp(psi(2 gamma/beta) - 2 psi(gamma/beta)),
    norm  N  = beta (beta C2)^{1/2 - gamma/beta} Gamma(2 gamma/beta)
               / Gamma(gamma/beta)^2,
    profile(xi) = N exp((beta/2 - gamma) xi - z/2) W_{kappa,0}(z)
    with z = e^{-beta xi}/(beta C2) and kappa = (beta - 2 gamma)/(2 beta).
    Only the decaying W branch enters (the regular M branch is excluded by
    positivity of the profile's exponential moments).
    """
    if not (beta > 0 and gamma > 0):
        raise ValueError("beta and gamma must be positive")
    r = gamma / beta
    speed = np.exp(digamma(2 * r) - 2 * digamma(r)) / beta
    norm = beta * np.exp(
        (0.5 - r) * np.log(beta * speed) + log_gamma(2 * r) - 2 * log_gamma(r)
    )
    return WaveSolution(2, beta, gamma, float(speed), float(norm))


# ---------------------------------------------------------------------------
# tanh-drift jump diffusion


# frequency nodes of one inversion at most: its chirp-z transform holds a few
# complex arrays of about that length
_MAX_COSINE_NODES = 2**20


def _cosine_coefficients(char_fn, u_max, period):
    """Frequency grid and trapezoid-weighted coefficients of the inversion
    f(x) = (1/pi) int_0^u_max phi(u) cos(u x) du of an even, real phi.

    The grid is uniform on [0, u_max] with spacing at most pi / period and
    at least 2001 nodes; the sum repeats in x every 2 pi / du >= 2 period.
    Raises ValueError, before anything is allocated, when it would need
    more than ``_MAX_COSINE_NODES`` nodes."""
    nodes = np.ceil(u_max / (np.pi / period)) + 1.0
    if not nodes <= _MAX_COSINE_NODES:
        raise ValueError(f"the cosine inversion needs {nodes:g} frequency nodes, more than "
                         f"{_MAX_COSINE_NODES}")
    u = np.linspace(0.0, u_max, max(int(nodes), 2001))
    w = np.full(u.shape, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return u, char_fn(u) * w


def _cosine_sum(x, u, c):
    """(1/pi) sum_k c_k cos(u_k x) at scattered points x (dense sum)."""
    x = np.asarray(x, dtype=float)
    out = (np.cos(np.outer(np.atleast_1d(x), u)) @ c) / np.pi
    out = out.reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def _cosine_sum_grid(x, u, c):
    """The same sum on a uniform grid x by a chirp-z transform (Bluestein).

    With x_j = x_0 + j dx and u_k = k du the sum is
    Re sum_k a_k e^{i theta jk}, a_k = c_k e^{i k du x_0}, theta = du dx.
    Bluestein's identity jk = (j^2 + k^2 - (k - j)^2) / 2 turns it into
    e^{i theta j^2/2} sum_k (a_k e^{i theta k^2/2}) e^{-i theta (j-k)^2/2}:
    one convolution with the conjugate chirp over the lags -(n_u - 1) ..
    n_x - 1, done by FFTs of one ``next_fast_len`` size."""
    n, m = u.size, x.size
    du, dx = u[1] - u[0], x[1] - x[0]
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * du * dx * k**2)
    size = next_fast_len(n + m - 1)
    a = np.fft.fft(c * np.exp(1j * du * x[0] * k[:n]) * chirp[:n], size)
    kernel = np.concatenate([chirp[n - 1 : 0 : -1], chirp[:m]]).conj()
    conv = np.fft.ifft(a * np.fft.fft(kernel, size))[n - 1 : n - 1 + m]
    return (chirp[:m] * conv).real / np.pi


@dataclass(frozen=True)
class TanhTransientLaw:
    """Transient law of the tanh-drift jump diffusion started at zero.

    dX = beta tanh(beta X) dt + dW + compound Poisson(lam, Laplace(gamma))
    with symmetric jumps.  The cosh tilt turns the dynamics into a +-beta
    drift mixture driven by a pure-jump process whose jumps follow the
    normalized tilted law and whose rate is lam * M(beta), M being the tilt
    mass gamma^2/(gamma^2 - beta^2):

        Q(x, t) = 1/2 [N^{(+beta)} + N^{(-beta)}](., t) * Q_tilt(., t).

    Keeping the tilt's mass in the rate (rather than as a growing scalar
    prefactor) is exactly what keeps Q normalized; total mass one is an
    acceptance check.  The density is recovered by characteristic-function
    inversion on a uniform frequency grid truncated where the Gaussian
    factor is below 1e-18: ``density_grid`` (and ``mass`` and ``cdf_grid``
    built on it) evaluates the trapezoid sum on a uniform x grid by chirp-z,
    ``density`` evaluates it at scattered points by the dense sum.  The law
    takes lam > 0, as the ``tanh`` command does.

    For beta > 0 this is not the law of the SDE above, and the gap is
    measured, not resolved: at lam = 1, gamma = 2, beta = 0.5 and t = 1
    the law's variance is 1.971, while exact jump-adapted samples of the
    SDE (``simulate.sample_tanh_exact``) have variance 1.84, and 10^6 of
    them lie at KS distance 0.0044 to 0.0047 from the law, where sampling
    alone stays below 0.0027 at p = 1e-6.  Euler paths show the same gap.
    """

    lam: float
    gamma: float
    beta: float
    tilt: TiltedJumpLaw = field(init=False)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        object.__setattr__(self, "tilt", TiltedJumpLaw(self.gamma, self.beta))

    def char_fn(self, u, t):
        """Characteristic function at frequency u and time t (real, even)."""
        u = np.asarray(u, dtype=float)
        rate = self.lam * self.tilt.mass
        out = (
            np.cos(u * self.beta * t)
            * np.exp(-(u**2) * t / 2.0)
            * np.exp(rate * t * (self.tilt.char_fn(u) - 1.0))
        )
        return float(out) if out.ndim == 0 else out

    def _inversion(self, t, x_scale):
        """(u_max, period) of the inversion at time t for |x| up to x_scale."""
        u_max = np.sqrt(2.0 * 42.0 / t)
        period = abs(x_scale) + self.beta * t + 10.0 * np.sqrt(t) + 50.0 / (self.gamma - self.beta)
        return u_max, period

    def _coefficients(self, t, x_scale):
        return _cosine_coefficients(lambda u: self.char_fn(u, t), *self._inversion(t, x_scale))

    def density(self, x, t):
        """Density at positions x and time t > 0."""
        if not t > 0:
            raise ValueError("t must be positive")
        x = np.asarray(x, dtype=float)
        return _cosine_sum(x, *self._coefficients(t, np.max(np.abs(x)) if x.size else 1.0))

    def density_grid(self, t, n=8001):
        """(x, density) on n uniform points spanning the support at time t."""
        if not t > 0:
            raise ValueError("t must be positive")
        hw = self.support_halfwidth(t)
        x = np.linspace(-hw, hw, n)
        return x, _cosine_sum_grid(x, *self._coefficients(t, hw))

    def support_halfwidth(self, t):
        """Half width beyond which the density is numerically negligible."""
        return self.beta * t + 10.0 * np.sqrt(t) + 45.0 / (self.gamma - self.beta)

    def mass(self, t, n=8001):
        x, dens = self.density_grid(t, n)
        return float(simpson(dens, x))

    def cdf_grid(self, t, n=8001):
        x, dens = self.density_grid(t, n)
        return x, trapezoid_cdf(dens, x)


@dataclass(frozen=True)
class TiltedOuLaw:
    """Invariant law of the OU process driven by tanh-drift jump-diffusion
    increments: dY = -alpha Y dt + dX.

    At long times the driving process saturates to a +-beta drift with
    untilted Laplace jumps, so the invariant law is the symmetric mixture
    of two components centered at +-beta/alpha.  The jump part of each
    component is the Bessel-K (variance-gamma) law with index
    nu = (1 - lam/alpha)/2; the Brownian part of dX contributes an extra
    Gaussian convolution of variance 1/(2 alpha).

    ``jump_component_density`` is the bare Bessel-K mixture (log-singular
    at the centers when nu = 0); ``density`` is the full invariant law
    including the Gaussian factor, which is what simulations converge to.
    The full law is recovered by characteristic-function inversion:
    ``density_grid`` (and ``cdf_grid`` built on it) evaluates the trapezoid
    sum on a uniform y grid by chirp-z, ``density`` evaluates it at
    scattered points by the dense sum.
    """

    alpha: float
    lam: float
    gamma: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "lam", "gamma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @property
    def nu(self):
        return 0.5 * (1.0 - self.lam / self.alpha)

    def _bessel_component(self, s):
        """Bessel-K density of the centered jump part at distance s >= 0."""
        g, nu = self.gamma, self.nu
        s = np.asarray(s, dtype=float)
        tiny = s <= 0
        sp = np.where(tiny, 1.0, s)
        # 2^nu g^{1-nu} s^{-nu} K_nu(g s) / (sqrt(pi) Gamma(1/2 - nu)), with
        # K = e^{-g s} (e^{g s} K) and the rest in logs, so that neither
        # s^{-nu} nor K over- or underflows alone; 1/2 - nu is taken as
        # lam / (2 alpha), which it equals, since 1/2 - nu rounds to 0 once
        # lam / alpha is below about 1e-16
        log_pref = (
            nu * math.log(2.0) + (1.0 - nu) * math.log(g) - 0.5 * math.log(math.pi)
            - log_gamma(self.lam / (2.0 * self.alpha))
        )
        vals = np.exp(log_pref - nu * np.log(sp) - g * sp) * bessel_ke(nu, g * sp)
        if nu >= 0:
            lim = np.inf
        else:
            # s^{|nu|} K_{|nu|}(g s) -> 2^{|nu|-1} Gamma(|nu|) g^{-|nu|}
            a = -nu
            lim = math.exp(log_pref + (a - 1.0) * math.log(2.0) + log_gamma(a) - a * math.log(g))
        return np.where(tiny, lim, vals)

    def jump_component_density(self, y):
        """Symmetric Bessel-K mixture centered at +-beta/alpha (jump part only)."""
        y = np.asarray(y, dtype=float)
        c = self.beta / self.alpha
        # both distances in one Bessel evaluation, whose loops cost per step
        # more than per point
        both = self._bessel_component(np.abs(np.stack([y - c, y + c])))
        out = 0.5 * (both[0] + both[1])
        return float(out) if out.ndim == 0 else out

    def char_fn(self, u):
        """Characteristic function of the full invariant law."""
        u = np.asarray(u, dtype=float)
        a, lam, g, b = self.alpha, self.lam, self.gamma, self.beta
        out = (
            np.cos(u * b / a)
            * np.exp(-(u**2) / (4.0 * a))
            * (g**2 / (g**2 + u**2)) ** (lam / (2.0 * a))
        )
        return float(out) if out.ndim == 0 else out

    def _inversion(self, y_scale):
        """(u_max, period) of the inversion for |y| up to y_scale."""
        u_max = np.sqrt(4.0 * self.alpha * 42.0)
        period = (
            max(1.0, y_scale) + self.beta / self.alpha + 50.0 / self.gamma
            + 10.0 / np.sqrt(self.alpha)
        )
        return u_max, period

    def _coefficients(self, y_scale):
        return _cosine_coefficients(self.char_fn, *self._inversion(y_scale))

    def density(self, y):
        """Full invariant density (jump mixture convolved with the Brownian
        stationary Gaussian), by characteristic-function inversion."""
        y = np.asarray(y, dtype=float)
        return _cosine_sum(y, *self._coefficients(np.max(np.abs(y)) if y.size else 1.0))

    def density_grid(self, n=8001):
        """(y, density) on n uniform points spanning the support."""
        hw = self.support_halfwidth()
        y = np.linspace(-hw, hw, n)
        return y, _cosine_sum_grid(y, *self._coefficients(hw))

    def support_halfwidth(self):
        return (
            self.beta / self.alpha
            + 50.0 / self.gamma
            + 10.0 / np.sqrt(2.0 * self.alpha)
        )

    def cdf_grid(self, n=8001):
        y, dens = self.density_grid(n)
        return y, trapezoid_cdf(dens, y)
