"""Batched quadrature oracles against QUADPACK, and the verify-specfun sweep's
parameter columns."""

import json
import math

import numpy as np
import pytest
from scipy import integrate

from erlangshot import cli, noise, oracles, specfun

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
BATCHED = ("bessel_k", "erlang_survival", "kummer_u", "whittaker_w0")


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


@pytest.mark.parametrize("name", BATCHED)
def test_batched_oracle_agrees_with_quadpack(name):
    cols = SAMPLERS[name](np.random.default_rng(23), 300)
    ref = np.array([QUADPACK[name](*d) for d in zip(*cols)])
    got = getattr(oracles, f"{name}_ref")(*cols)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= np.maximum(1e-12 * np.abs(ref), 1e-14))


def test_exp1_oracle_agrees_with_quadpack():
    z = np.array([0.05, 0.5, 1.0, 2.0, 10.0, 40.0])
    got = oracles.exp1_ref(z)
    for zi, g in zip(z, got):
        ref, _ = integrate.quad(lambda t: math.exp(-zi * t) / t, 1.0, np.inf,
                                epsabs=1e-14, epsrel=1e-13)
        assert abs(g - ref) <= max(1e-12 * ref, 1e-14)


def test_oracles_keep_scalar_in_scalar_out_and_array_shapes():
    assert type(oracles.kummer_u_ref(1.0, 1.0, 1.0)) is float
    assert type(oracles.exp1_ref(2.0)) is float
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


def test_batched_sweep_draws_columns_from_stream_zero(tmp_path, monkeypatch):
    # each sweep draws its parameter columns from stream (seed, 0), in sweep
    # order, and they reach the implementation and the oracle unchanged,
    # _SPECFUN_BATCH entries per array call: every specfun function takes
    # whole parameter columns
    n, batch, seed = 100, 32, 5
    seen = {name: [] for name in SAMPLERS}
    batches = {name: [] for name in BATCHED}
    depth = [0]

    def record_impl(name, fn):
        # whittaker_w0 calls kummer_u: record only the sweep's own calls
        def impl(*args):
            if depth[0] == 0:
                seen[name].append(args)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return impl

    def record_oracle(name, fn):
        def ref(*cols):
            batches[name].append(cols)
            return fn(*cols)
        return ref

    for name in SAMPLERS:
        monkeypatch.setattr(specfun, name, record_impl(name, getattr(specfun, name)))
    for name in BATCHED:
        attr = f"{name}_ref"
        monkeypatch.setattr(oracles, attr, record_oracle(name, getattr(oracles, attr)))
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
    for name in BATCHED:
        assert [len(cols[0]) for cols in batches[name]] == [32, 32, 32, 4]
        got = [np.concatenate(c) for c in zip(*batches[name])]
        assert all(map(np.array_equal, got, expected[name])), name
