"""Jump laws, the jump-size maps, streams, and compound Poisson counts."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from erlangshot.noise import (
    ErlangJumpLaw,
    TiltedJumpLaw,
    erlang_magnitudes,
    erlang_pdf,
    laplace_magnitudes,
    stream,
)
from erlangshot.simulate import ks_distance
from erlangshot.specfun import erlang_survival
from reference import laplace_pdf, tilted_pdf


def test_erlang_pdf_values():
    assert erlang_pdf(ErlangJumpLaw(1, 1.0), 0.0) == 1.0
    assert erlang_pdf(ErlangJumpLaw(3, 2.0), -0.5) == 0.0
    # direct high-precision evaluation: gamma^2 x e^{-gamma x} at (2, 1, 1)
    assert erlang_pdf(ErlangJumpLaw(2, 1.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_erlang_pdf_unit_mass():
    for m, g in [(1, 1.0), (2, 0.7), (4, 2.3), (6, 0.4)]:
        mass, _ = integrate.quad(
            functools.partial(erlang_pdf, ErlangJumpLaw(m, g)), 0, np.inf, limit=200
        )
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_law_validation():
    with pytest.raises(ValueError):
        ErlangJumpLaw(0, 1.0)
    with pytest.raises(ValueError):
        ErlangJumpLaw(2, -1.0)
    with pytest.raises(ValueError):
        TiltedJumpLaw(0.0, 0.0)
    with pytest.raises(ValueError):
        TiltedJumpLaw(2.0, 2.0)  # beta >= gamma


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_erlang_magnitudes_equal_row_sum_bitwise(m):
    # column-by-column sum equals the reduce form bit for bit, exactly-zero
    # uniforms (whose log1p is -0.0) included
    u = np.random.default_rng(m).random((50_000, m))
    u[:3] = 0.0
    u[3:6, 0] = 0.0
    for gamma in (1.0, 0.37, 2.9):
        got = erlang_magnitudes(u, gamma)
        want = -np.log1p(-u).sum(axis=1) / gamma
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_erlang_sample_moments():
    s = erlang_magnitudes(stream(7, 0).random((100_000, 2)), 3.0)
    assert np.all(s >= 0)
    se = s.std(ddof=1) / math.sqrt(len(s))
    assert abs(s.mean() - 2.0 / 3.0) < 4 * se


def test_erlang_sample_ks():
    s = erlang_magnitudes(stream(8, 1).random((100_000, 3)), 1.0)
    d = ks_distance(s, lambda x: 1.0 - erlang_survival(3, 1.0, np.maximum(x, 0.0)))
    assert d < 0.01


def test_erlang_sum_decomposition():
    # Erlang(m) equals the sum of m Erlang(1) draws in distribution
    m, g, n = 3, 1.4, 100_000
    a = erlang_magnitudes(stream(9, 0).random((n, m)), g)
    b = sum(erlang_magnitudes(stream(9, k + 1).random((n, 1)), g) for k in range(m))
    d = stats.ks_2samp(a, b).statistic
    assert d < 0.02


def test_laplace_magnitudes_equal_both_former_inverse_cdfs_bitwise():
    # the shared sampler reproduces the engine's expression and the former
    # laplace_sample's bit for bit, at u = 1/2 and next to both ends of [0, 1)
    u = np.random.default_rng(4).random(50_000)
    u[:7] = [0.5, 5e-324, 1e-300, 1e-17, 1.0 - 2.0**-53, 1.0 - 1e-12, 0.5 - 2.0**-54]
    for gamma in (1.0, 0.37, 2.9):
        got = laplace_magnitudes(u, gamma)
        engine = np.where(u < 0.5, np.log(2 * u), -np.log(2 * (1 - u))) / gamma
        sampler = np.where(u < 0.5, np.log(2.0 * u) / gamma, -np.log(2.0 * (1.0 - u)) / gamma)
        assert got.dtype == engine.dtype and got.shape == engine.shape
        assert np.array_equal(got.view(np.int64), engine.view(np.int64))
        assert np.array_equal(got.view(np.int64), sampler.view(np.int64))
        assert got[0] == 0.0 and np.all(np.isfinite(got))
        assert np.all(np.diff(got[np.argsort(u)]) >= 0)  # monotone in u


def test_laplace_magnitude_of_a_zero_uniform_is_finite():
    # Generator.random draws 0 with chance 2^-53: it maps to the jump of the
    # smallest positive double, with no divide-by-zero warning
    u = np.array([0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0 - 2.0**-53])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = laplace_magnitudes(u, 1.3)
    assert np.all(np.isfinite(got))
    assert got[0] <= got[1]
    assert np.all(np.diff(got) >= 0)  # monotone in u


def test_laplace_sample_moments_and_ks():
    s = laplace_magnitudes(stream(10, 0).random(100_000), 1.7)
    se = s.std(ddof=1) / math.sqrt(len(s))
    assert abs(s.mean()) < 4 * se
    a = np.abs(s)
    se_a = a.std(ddof=1) / math.sqrt(len(a))
    assert abs(a.mean() - 1.0 / 1.7) < 4 * se_a
    assert ks_distance(s, stats.laplace(scale=1 / 1.7).cdf) < 0.01


def test_tilted_mass_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.0, 0.95) * g
        law = TiltedJumpLaw(g, b)
        # integrate on a range wide enough for 1e-10 tails; cosh * pdf would
        # hit inf * 0 on the library's infinite-domain transform
        hw = 30.0 / (g - b)
        quad_mass, _ = integrate.quad(
            lambda y: laplace_pdf(g, y) * np.cosh(b * y), -hw, hw, limit=200
        )
        assert quad_mass == pytest.approx(g**2 / (g**2 - b**2), abs=1e-8)
        assert law.mass == pytest.approx(quad_mass, abs=1e-8)


def test_tilted_pdf_unit_mass():
    law = TiltedJumpLaw(2.0, 1.0)
    mass, _ = integrate.quad(functools.partial(tilted_pdf, law), -np.inf, np.inf, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_tilted_beta_zero_matches_laplace():
    # no tilt: unit mass, the Laplace density and its characteristic function
    tilted = TiltedJumpLaw(1.3, 0.0)
    x = np.linspace(-12.0, 12.0, 241)
    assert tilted.mass == 1.0
    np.testing.assert_allclose(tilted_pdf(tilted, x), laplace_pdf(1.3, x), rtol=1e-15, atol=0)
    u = np.linspace(0.0, 20.0, 81)
    np.testing.assert_allclose(tilted.char_fn(u), 1.3**2 / (1.3**2 + u**2), rtol=1e-15, atol=0)


def test_compound_poisson_count_distribution():
    # jump counts against the Poisson pmf by chi-square
    lam, dt, n = 3.0, 0.7, 50_000
    counts = stream(14, 0).poisson(lam * dt, n)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = n * stats.poisson.pmf(np.arange(kmax + 1), lam * dt)
    # pool the tail so expected counts stay above 5
    while expected[-1] < 5 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    chi2 = np.sum((observed - expected) ** 2 / expected)
    p = stats.chi2.sf(chi2, df=len(expected) - 1)
    assert p > 0.001


def test_stream_determinism():
    a = stream(21, 5).random(64)
    b = stream(21, 5).random(64)
    assert a.tobytes() == b.tobytes()
    c = stream(21, 6).random(64)
    assert a.tobytes() != c.tobytes()


def test_stream_frozen_vectors():
    # pins the generator choice: Philox4x64-10 keyed by (stream_id << 64) | seed
    u = stream(42, 7).random(5)
    np.testing.assert_allclose(
        u,
        [0.649420079613736, 0.8848813535936771, 0.5537339411764371,
         0.9529724189339113, 0.41318058559510695],
        rtol=0, atol=0,
    )
    # the inverse-CDF exponentials of the stream's first three uniforms
    e = erlang_magnitudes(stream(42, 7).random((3, 1)), 2.0)
    np.testing.assert_allclose(
        e,
        [0.5240832901396282, 1.0808959872913102, 0.403419980188265],
        rtol=0, atol=0,
    )


def test_stream_validation():
    with pytest.raises(ValueError):
        stream(-1, 0)
    with pytest.raises(ValueError):
        stream(0, 2**64)
