"""Jump-size laws of compound Poisson noise and their samplers.

Provides the one-sided Erlang jump law and the cosh-tilted symmetric
Laplace law with its mass factor and characteristic function (the tests
hold the pointwise densities), and the inverse-CDF maps from
uniforms to Erlang and Laplace jump sizes that every sampler of the package
uses (monotone in the underlying uniforms, so that sample sequences are
reproducible and easy to audit).

Randomness comes from counter-based Philox4x64-10 streams keyed by
``(seed, stream_id)`` (``stream``); distinct stream ids give statistically
independent streams for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .specfun import log_gamma

__all__ = [
    "stream_key",
    "stream",
    "ErlangJumpLaw",
    "TiltedJumpLaw",
    "erlang_pdf",
    "erlang_magnitudes",
    "laplace_magnitudes",
]


def stream_key(seed, stream_id):
    """128-bit Philox key ``(stream_id << 64) | seed`` of stream (seed, stream_id).

    Both parts must lie in [0, 2**64): a wider seed would spill into the
    stream id and alias another pair's stream.
    """
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 bits")
    if not (0 <= stream_id < 2**64):
        raise ValueError("stream_id must fit in 64 bits")
    return (stream_id << 64) | seed


def stream(seed, stream_id):
    """Generator of stream (seed, stream_id): numpy's Philox4x64-10 keyed by
    ``stream_key(seed, stream_id)``.  The pair fully determines the sample
    sequence; streams with different ids are independent."""
    return Generator(Philox(key=stream_key(seed, stream_id)))


@dataclass(frozen=True)
class ErlangJumpLaw:
    """Erlang(m, gamma) jump-size law: sum of m exponentials of rate gamma."""

    m: int
    gamma: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("Erlang shape m must be an integer >= 1")
        if not self.gamma > 0:
            raise ValueError("Erlang rate gamma must be positive")


@dataclass(frozen=True)
class TiltedJumpLaw:
    """Cosh-tilted Laplace law: density phi(y) cosh(beta y) / mass, phi
    being the symmetric Laplace density gamma/2 * exp(-gamma |y|).

    The tilt multiplies the Laplace density by cosh(beta y); the raw tilted
    kernel has total mass ``mass = gamma^2 / (gamma^2 - beta^2)``, exposed
    separately because the transient solution needs it.  Integrability
    requires beta < gamma; beta = 0 is the Laplace law itself.
    """

    gamma: float
    beta: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("Laplace rate gamma must be positive")
        if self.beta < 0:
            raise ValueError("tilt beta must be nonnegative")
        if self.beta >= self.gamma:
            raise ValueError("tilted law requires beta < gamma for integrability")

    @property
    def mass(self):
        g, b = self.gamma, self.beta
        return g**2 / (g**2 - b**2)

    def char_fn(self, u):
        """Characteristic function of the normalized tilted law (real, even)."""
        u = np.asarray(u, dtype=float)
        g, b = self.gamma, self.beta
        rm, rp = g - b, g + b
        wm = g / (2.0 * rm)
        wp = g / (2.0 * rp)
        out = (wm * rm**2 / (rm**2 + u**2) + wp * rp**2 / (rp**2 + u**2)) / self.mass
        return float(out) if out.ndim == 0 else out


def erlang_pdf(law: ErlangJumpLaw, x):
    """Erlang(m, gamma) density; zero on the negative half line."""
    x = np.asarray(x, dtype=float)
    m, g = law.m, law.gamma
    if m == 1:
        vals = np.where(x >= 0, g * np.exp(-g * x), 0.0)
    else:
        safe = np.where(x > 0, x, 1.0)
        logpdf = m * np.log(g) + (m - 1) * np.log(safe) - g * safe - log_gamma(m)
        vals = np.where(x > 0, np.exp(logpdf), 0.0)
    return float(vals) if vals.ndim == 0 else vals


def erlang_magnitudes(u, gamma):
    """Erlang(m, gamma) jump sizes from an (n, m) array of uniforms.

    Row i gives the sum of the m inverse-CDF exponentials -log1p(-u) / gamma.
    The columns are added one by one from 0.0, the order ``np.sum`` uses on
    rows shorter than 8, so for m < 8 the result equals
    ``-np.log1p(-u).sum(axis=1) / gamma`` bit for bit without a reduce over
    a short axis.  Every Erlang sampler of the package goes through here.
    """
    total = np.zeros(len(u))
    for j in range(u.shape[1]):
        total += np.log1p(-u[:, j])
    total /= -gamma
    return total


def laplace_magnitudes(u, gamma):
    """Symmetric Laplace(gamma) jump sizes from uniforms u by inverting the
    CDF: log(2u) / gamma below u = 1/2 and -log(2(1 - u)) / gamma from it
    on.  A uniform of 0, which ``Generator.random`` draws with chance 2^-53,
    maps to the finite jump of the smallest positive double, 5e-324; every
    other u is left as it is.  Every Laplace sampler of the package goes
    through here."""
    u = np.maximum(u, 5e-324)
    return np.where(u < 0.5, np.log(2 * u), -np.log(2 * (1 - u))) / gamma
