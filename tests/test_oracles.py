"""Oracles on parameter columns: the quadrature ones against QUADPACK and
mpmath, the series ones against their scalar loops, and the verify-specfun
sweep's parameter columns."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from erlangshot import cli, noise, oracles, quadrature, specfun
from reference import exp1_ref

# the verify-specfun sweeps in order, each drawing n values per parameter
SAMPLERS = {
    "log_gamma": lambda r, n: (10 ** r.uniform(-3, 3, n),),
    "digamma": lambda r, n: (10 ** r.uniform(-2, 3, n),),
    "bessel_i": lambda r, n: (r.uniform(0, 5, n), r.uniform(0, 50, n)),
    "bessel_k": lambda r, n: (r.uniform(-3, 3, n), 10 ** r.uniform(-3, np.log10(50), n)),
    "erlang_survival": lambda r, n: (r.integers(1, 6, n), r.uniform(0.2, 4.0, n),
                                     r.uniform(0.0, 10.0, n)),
    "kummer_u": lambda r, n: (r.uniform(0.2, 4.0, n), r.uniform(0.5, 3.0, n),
                              10 ** r.uniform(-1.3, np.log10(50), n)),
    "whittaker_w0": lambda r, n: (r.uniform(-3.0, 0.3, n), 10 ** r.uniform(-1.0, 1.5, n)),
    "kummer_1f1": lambda r, n: (-r.integers(0, 9, n).astype(float), r.uniform(0.5, 4.0, n),
                                r.uniform(-30.0, 30.0, n)),
}
# the oracle each sweep calls, and the columns it passes it
ORACLES = {name: getattr(oracles, f"{name}_ref") for name in SAMPLERS if name != "kummer_1f1"}
ORACLES["kummer_1f1"] = oracles.kummer_1f1_poly_ref
ORACLE_COLUMNS = {"kummer_1f1": lambda a, b, z: (-a, b, z)}


# QUADPACK versions of the quadrature oracles, one integral per call
def _quadpack_bessel_k(nu, x):
    nu = abs(nu)
    t_hi = math.acosh(1.0 + 750.0 / x)

    def scaled(t):
        return math.exp(-x * (math.cosh(t) - 1.0) + math.log(math.cosh(nu * t)))

    val, _ = integrate.quad(scaled, 0.0, t_hi, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val * math.exp(-x)


def _quadpack_erlang_survival(m, gamma, x):
    if x == 0.0:
        return 1.0
    hi = x + (60.0 + m * 10.0) / gamma
    log_norm = oracles.log_gamma_ref(m)

    def pdf(s):
        return math.exp(m * math.log(gamma) + (m - 1) * math.log(s) - gamma * s - log_norm)

    val, _ = integrate.quad(pdf, x, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def _quadpack_kummer_u(a, b, z):
    def integrand(t):
        return math.exp(-z * t + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t))

    def smooth(s):
        t = s ** (1.0 / a)
        return math.exp(-z * t + (b - a - 1.0) * math.log1p(t)) / a

    opts = dict(epsabs=1e-14, epsrel=1e-12, limit=400)
    v1, _ = integrate.quad(smooth if a < 1.0 else integrand, 0.0, 1.0, **opts)
    v2, _ = integrate.quad(integrand, 1.0, np.inf, **opts)
    return (v1 + v2) * math.exp(-oracles.log_gamma_ref(a))


def _quadpack_whittaker_w0(kappa, z):
    return math.exp(-z / 2.0) * math.sqrt(z) * _quadpack_kummer_u(0.5 - kappa, 1.0, z)


QUADPACK = {
    "bessel_k": _quadpack_bessel_k,
    "erlang_survival": _quadpack_erlang_survival,
    "kummer_u": _quadpack_kummer_u,
    "whittaker_w0": _quadpack_whittaker_w0,
}


@pytest.mark.parametrize("name", QUADPACK)
def test_batched_oracle_agrees_with_quadpack(name):
    cols = SAMPLERS[name](np.random.default_rng(23), 300)
    ref = np.array([QUADPACK[name](*d) for d in zip(*cols)])
    got = getattr(oracles, f"{name}_ref")(*cols)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= np.maximum(1e-12 * np.abs(ref), 1e-14))


def test_exp1_oracle_agrees_with_quadpack():
    z = np.array([0.05, 0.5, 1.0, 2.0, 10.0, 40.0])
    got = exp1_ref(z)
    for zi, g in zip(z, got):
        ref, _ = integrate.quad(lambda t: math.exp(-zi * t) / t, 1.0, np.inf,
                                epsabs=1e-14, epsrel=1e-13)
        assert abs(g - ref) <= max(1e-12 * ref, 1e-14)


def test_oracles_keep_scalar_in_scalar_out_and_array_shapes():
    assert type(oracles.kummer_u_ref(1.0, 1.0, 1.0)) is float
    assert type(exp1_ref(2.0)) is float
    z = np.linspace(0.5, 3.0, 6).reshape(2, 3)
    out = oracles.whittaker_w0_ref(-0.5, z)
    assert out.shape == (2, 3)
    assert out[1, 2] == pytest.approx(oracles.whittaker_w0_ref(-0.5, float(z[1, 2])), rel=1e-14)
    assert oracles.erlang_survival_ref(3, 1.5, np.array([0.0, 1.0]))[0] == 1.0


def test_oracles_reject_their_domain_edges():
    with pytest.raises(ValueError):
        oracles.bessel_k_ref(1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        oracles.kummer_u_ref(np.array([1.0, -0.5]), 1.0, 1.0)
    with pytest.raises(ValueError):
        oracles.kummer_u_ref(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        oracles.log_gamma_ref(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        oracles.kummer_1f1_poly_ref(np.array([1.0, 1.5]), 1.0, 1.0)
    # a NaN entry fails every domain check
    for call in (
        lambda: oracles.log_gamma_ref(math.nan),
        lambda: oracles.digamma_ref(np.array([1.0, math.nan])),
        lambda: oracles.bessel_i_ref(math.nan, 1.0),
        lambda: oracles.bessel_i_ref(1.0, math.nan),
        lambda: oracles.bessel_k_ref(math.nan, 1.0),
        lambda: oracles.kummer_u_ref(math.nan, 1.0, 1.0),
        lambda: oracles.kummer_u_ref(1.0, math.nan, 1.0),
        lambda: oracles.whittaker_w0_ref(math.nan, 1.0),
        lambda: exp1_ref(math.nan),
        lambda: oracles.kummer_1f1_poly_ref(math.nan, 1.0, 1.0),
        lambda: oracles.kummer_1f1_poly_ref(2, 1.0, math.nan),
    ):
        with pytest.raises(ValueError):
            call()


def test_an_integral_that_does_not_converge_raises_with_its_parameters():
    # K_800(1) is near 1e2200, past the float range, so the scaled integrand
    # overflows inside the range of the K integral
    message = r"bessel_k .*NONFINITE.* nu=800\.0, x=1\.0"
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=message):
        oracles.bessel_k_ref(np.array([1.0, 800.0]), 1.0)


@pytest.mark.parametrize("nu,x", [(100.0, 1.0), (50.0, 1e-3)])
def test_bessel_k_oracle_reaches_large_orders(nu, x):
    # nu t passes 710, where cosh(nu t) overflows, inside the range of the
    # integral, while K_nu(x) itself (5.9e185 and 3.4e227) is a float
    want = mpmath.besselk(nu, x)
    got = oracles.bessel_k_ref(nu, x)
    assert abs(got - want) <= 1e-13 * want


def test_u_and_w_oracles_match_mpmath_to_1e_13():
    # a wide sweep: U spans hundreds of decades, down to 1e-55 and below,
    # so an absolute quadrature floor would lose the small values
    rng = np.random.default_rng(11)
    n = 400
    a, b, z = rng.uniform(0.05, 30.0, n), rng.uniform(0.1, 6.0, n), 10 ** rng.uniform(-2, 2, n)
    want = np.array([float(mpmath.hyperu(*v)) for v in zip(a.tolist(), b.tolist(), z.tolist())])
    assert np.all(np.abs(oracles.kummer_u_ref(a, b, z) / want - 1.0) <= 1e-13)
    kappa = 0.5 - a
    want = np.array([float(mpmath.whitw(k, 0, x)) for k, x in zip(kappa.tolist(), z.tolist())])
    assert np.all(np.abs(oracles.whittaker_w0_ref(kappa, z) / want - 1.0) <= 1e-13)


def test_u_and_w_oracles_converge_in_few_rounds(monkeypatch):
    # the verify-specfun columns at 500 draws, seed 0: with t^{a-1} smoothed
    # to a power of at least 8 the adaptive rule needs a dozen rounds, not
    # the 40 of bisecting toward t = 0
    rng = noise.stream(0, 0)
    cols = {name: sampler(rng, 500) for name, sampler in SAMPLERS.items()}
    rounds = []
    kronrod21 = quadrature._kronrod21

    def counted(*args):
        rounds[-1] += 1
        return kronrod21(*args)

    monkeypatch.setattr(quadrature, "_kronrod21", counted)
    for name in ("kummer_u", "whittaker_w0"):
        rounds.append(0)
        ORACLES[name](*cols[name])
    assert all(0 < r <= 12 for r in rounds), rounds


# the series oracles as one scalar loop per entry, the reference for their
# masked array loops
def _scalar_log_gamma(x):
    shift, y = 0.0, x
    while y < 12.0:
        shift += math.log(y)
        y += 1.0
    tail, yk = 0.0, y
    for c in oracles._STIRLING:
        tail += c / yk
        yk *= y * y
    return (y - 0.5) * math.log(y) - y + oracles._HALF_LOG_2PI + tail - shift


def _scalar_digamma(x):
    shift, y = 0.0, x
    while y < 10.0:
        shift += 1.0 / y
        y += 1.0

    def central(h):
        return (_scalar_log_gamma(y + h) - _scalar_log_gamma(y - h)) / (2.0 * h)

    d1, d2, d4 = central(0.2), central(0.1), central(0.05)
    r1, r2 = (4.0 * d2 - d1) / 3.0, (4.0 * d4 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0 - shift


def _scalar_bessel_i(nu, x):
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    half = 0.5 * x
    term = math.exp(nu * math.log(half) - _scalar_log_gamma(nu + 1.0))
    total = term
    for k in range(1, 400):
        term *= half * half / (k * (nu + k))
        total += term
        if term < 1e-18 * total:
            return total
    raise RuntimeError("bessel_i series did not converge")


def _scalar_1f1_poly(n, b, z):
    total = term = 1.0
    for k in range(1, int(n) + 1):
        term *= (-n + k - 1.0) / (b + k - 1.0) * z / k
        total += term
    return total


_EPS = np.finfo(float).eps
# oracle, its scalar loop, and the largest difference allowed between them:
# the loops do the same arithmetic, but numpy's log may differ from math.log
# by an ulp, which digamma's differences divide by their smallest step 2h/4
SERIES = {
    "log_gamma": (_scalar_log_gamma, lambda want, x: 8 * _EPS * np.maximum(1.0, np.abs(want))),
    "digamma": (_scalar_digamma,
                lambda want, x: 8 * _EPS * np.abs(_scalar_log_gamma(max(x, 10.0) + 1.0)) / 0.1),
    "bessel_i": (_scalar_bessel_i, lambda want, nu, x: 64 * _EPS * np.abs(want)),
    "kummer_1f1": (_scalar_1f1_poly, lambda want, n, b, z: 0.0),
}


@pytest.mark.parametrize("name", SERIES)
def test_series_oracles_take_columns_and_match_their_scalar_loops(name):
    scalar, bound = SERIES[name]
    cols = SAMPLERS[name](np.random.default_rng(29), 300)
    cols = ORACLE_COLUMNS.get(name, lambda *c: c)(*cols)
    got = ORACLES[name](*cols)
    assert got.shape == (300,) and got.dtype == float
    for entry, g in zip(zip(*(c.tolist() for c in cols)), got.tolist()):
        want = scalar(*entry)
        assert abs(g - want) <= bound(want, *entry), entry
        # a scalar in gives a float out, the same as its entry of the column
        one = ORACLES[name](*entry)
        assert type(one) is float and one == g
    # parameters broadcast, and the output takes their shape
    grid = [np.reshape(c[:6], (2, 3)) for c in cols]
    assert ORACLES[name](*grid).shape == (2, 3)
    if len(cols) > 1:
        assert ORACLES[name](*grid[:-1], cols[-1][0]).shape == (2, 3)


def test_batched_sweep_draws_columns_from_stream_zero(tmp_path, monkeypatch):
    # each sweep draws its parameter columns from stream (seed, 0), in sweep
    # order, and they reach the implementation and the oracle unchanged (the
    # 1F1 polynomial takes n = -a), _SPECFUN_BATCH entries per array call:
    # every specfun function and every oracle takes whole parameter columns
    n, batch, seed = 100, 32, 5
    seen = {name: [] for name in SAMPLERS}
    batches = {name: [] for name in SAMPLERS}

    def recorder(calls):
        # whittaker_w0 calls kummer_u, and several oracles log_gamma_ref:
        # record only the sweep's own calls
        depth = [0]

        def record(name, fn):
            def wrapped(*args):
                if depth[0] == 0:
                    calls[name].append(args)
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return wrapped
        return record

    record_impl, record_oracle = recorder(seen), recorder(batches)
    for name in SAMPLERS:
        monkeypatch.setattr(specfun, name, record_impl(name, getattr(specfun, name)))
    for name, fn in ORACLES.items():
        monkeypatch.setattr(oracles, fn.__name__, record_oracle(name, fn))
    monkeypatch.setattr(cli, "_SPECFUN_BATCH", batch)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "n_samples": n, "seed": seed}))
    assert cli.main(["verify-specfun", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    rng = noise.stream(seed, 0)
    expected = {name: sampler(rng, n) for name, sampler in SAMPLERS.items()}
    for name, want in expected.items():
        calls = seen[name]
        assert [len(cols[0]) for cols in calls] == [32, 32, 32, 4], name
        got = [np.concatenate(c) for c in zip(*calls)]
        assert len(got) == len(want) and all(map(np.array_equal, got, want)), name
    for name in SAMPLERS:
        assert [len(cols[0]) for cols in batches[name]] == [32, 32, 32, 4], name
        got = [np.concatenate(c) for c in zip(*batches[name])]
        want = ORACLE_COLUMNS.get(name, lambda *c: c)(*expected[name])
        assert len(got) == len(want) and all(map(np.array_equal, got, want)), name
