"""Reference callables that only the tests use.

No command runs these, so they live beside the tests that check the
package against them, not in ``src/erlangshot``
(``tests/test_reachability.py`` keeps it so).  Each is built from the
package's own internals exactly as it was when it lived there.
"""

import numpy as np

from erlangshot.closedform import DivergenceError, WaveSolution, _quad
from erlangshot.master import (
    GridFunction,
    ModelSpec,
    _check_decay,
    _integral_route,
    _shared_terms,
)
from erlangshot.noise import SymmetricLaplaceLaw, TiltedJumpLaw
from erlangshot.oracles import _batch, _integrate, _require, _shaped
from erlangshot.specfun import log_gamma


def integral_generator(P: GridFunction, model: ModelSpec) -> GridFunction:
    """Implied time derivative of P under the integro-differential form.

    Returns the full generator -d/dx[bP] + 1/2 d2/dx2[sigma^2 P]
    - lambda P + (Erlang convolution of lambda P) on the grid; nodes inside
    the stencil margin of the ends are zeroed.  ``master.generator_gap``
    forms the same route from the same terms.  Raises BoundaryMassError, as
    ``generator_gap`` does, unless every row of P decays at both grid ends:
    the convolution is truncated at x_lo.
    """
    _check_decay(P.values)
    return GridFunction(P.spec, _integral_route(P.spec, model, *_shared_terms(P, model)))


def stationary_ou_m1(alpha, lam, gamma, x):
    """Stationary density for m=1 jumps and linear restoring drift.

    The Gamma(k, gamma) law with shape k = lam/alpha and rate gamma,
    P(x) = gamma^k x^{k-1} e^{-gamma x} / Gamma(k) on x > 0, evaluated in
    log space; zero for x < 0, and at x = 0 the limit from the right.
    """
    for name, v in (("alpha", alpha), ("lam", lam), ("gamma", gamma)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    k = lam / alpha
    x = np.asarray(x, dtype=float)
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    vals = np.exp(k * np.log(gamma) + (k - 1) * np.log(safe) - gamma * safe - log_gamma(k))
    # x = 0 limit: 0 for k > 1, gamma for k = 1, infinite for k < 1
    lim = 0.0 if k > 1 else (gamma if k == 1 else np.inf)
    out = np.where(pos, vals, np.where(x == 0, lim, 0.0))
    return float(out) if out.ndim == 0 else out


def wave_mass_and_mean(sol: WaveSolution):
    """Mass and mean of a wave profile by adaptive quadrature over its
    support."""
    lo, hi = sol.support_bounds()
    mass = _quad(sol.profile, lo, hi, epsabs=1e-11)
    mean = _quad(lambda s: s * sol.profile(s), lo, hi, epsabs=1e-11)
    return mass, mean


def wave_variance(sol: WaveSolution):
    """Second moment of a wave profile, its variance since the mean is 0."""
    lo, hi = sol.support_bounds()
    return _quad(lambda s: s * s * sol.profile(s), lo, hi, epsabs=1e-10)


def mellin_moment(sol: WaveSolution, u):
    """Exponential moment G(u) = int e^{-u xi} P(xi) dxi of a wave profile.

    Converges for u > -gamma (the profile's right tail is ~ e^{-gamma xi});
    outside the strip a DivergenceError is raised.  G(0) = 1 and G'(0) = 0
    express normalization and the zero-mean condition fixing the speed.
    """
    if u <= -sol.gamma:
        raise DivergenceError(
            f"mellin moment diverges for u <= -gamma (u={u}, gamma={sol.gamma})"
        )
    lo, hi = sol.support_bounds()
    if u < 0:
        hi = max(hi, (-np.log(1e-16)) / (sol.gamma + u) + 10.0)
    return _quad(lambda s: np.exp(-u * s) * sol.profile(s), lo, hi, epsabs=1e-11)


def laplace_pdf(law: SymmetricLaplaceLaw, x):
    """Density gamma/2 * exp(-gamma |x|) of the symmetric Laplace law."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * law.gamma * np.exp(-law.gamma * np.abs(x))
    return float(out) if out.ndim == 0 else out


def tilted_pdf(law: TiltedJumpLaw, x):
    """Normalized density phi(x) cosh(beta x) / mass of the tilted law.

    Evaluated as the stable two-rate form
    (gamma/4) [e^{-(gamma-beta)|x|} + e^{-(gamma+beta)|x|}] / mass,
    which cannot overflow for large |x|.
    """
    x = np.abs(np.asarray(x, dtype=float))
    g, b = law.base.gamma, law.beta
    out = 0.25 * g * (np.exp(-(g - b) * x) + np.exp(-(g + b) * x)) / law.mass
    return float(out) if out.ndim == 0 else out


def exp1_ref(z):
    """Exponential integral E1 by quadrature (for the U(1,1,z) identity),
    taking parameter columns as the ``oracles`` do."""
    (z,), shape = _batch(z)
    _require(z > 0, "need z > 0")
    val = _integrate("exp1", lambda t, k: np.exp(-z[k] * t) / t, np.ones_like(z), np.inf,
                     1e-14, 1e-13, z=z)
    return _shaped(val, shape)
