"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from erlangshot import cli, closedform, master, simulate
from erlangshot.master import (
    ConstantRate,
    GridFunction,
    GridSpec,
    LinearRestoring,
    ModelSpec,
)
from erlangshot.noise import ErlangJumpLaw
from erlangshot.simulate import SimConfig, interp_cdf
from reference import mellin_moment


class Criterion:
    """Collects named checks and prints one summary line."""

    def __init__(self, label, budget_s=None):
        self.label = label
        self.budget_s = budget_s
        self.checks = []
        self.t0 = time.perf_counter()

    def check(self, desc, ok):
        self.checks.append((desc, bool(ok)))

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        if self.budget_s is not None:
            self.checks.append((f"runtime {elapsed:.1f}s < {self.budget_s}s", elapsed < self.budget_s))
        ok = all(c[1] for c in self.checks)
        print(f"[{'PASS' if ok else 'FAIL'}] {self.label} ({elapsed:.1f}s)")
        for desc, good in self.checks:
            if not good:
                print(f"       failed: {desc}")
        assert ok, "; ".join(d for d, g in self.checks if not g)


def _cdf_from_density(x, dens):
    cum = integrate.cumulative_trapezoid(dens, x, initial=0.0)
    return interp_cdf(x, cum / cum[-1])


def test_criterion_1_generator_agreement_certificate():
    crit = Criterion("criterion 1: integral vs differential generator agreement, m=1..4", budget_s=60)
    drift = LinearRestoring(0.6)
    for m in (1, 2, 3, 4):
        # the m-fold stencil composition amplifies rounding like h^{-m}, so
        # higher m uses a coarser ladder where truncation still dominates
        sizes = (1025, 2049, 4097, 8193) if m <= 2 else (257, 513, 1025, 2049)
        model = ModelSpec(drift, 0.3, ConstantRate(0.8), ErlangJumpLaw(m, 0.7))
        gaps, hs = [], []
        for n in sizes:
            spec = GridSpec(-8.0, 10.0, n)
            x = spec.nodes()
            rng = np.random.default_rng(100 + m)
            gap = 0.0
            for _ in range(3):
                c, w = rng.uniform(-0.5, 1.5), rng.uniform(0.25, 0.45)
                P = GridFunction(spec, np.exp(-((x - c) ** 2) / (2 * w**2)))
                gap = max(gap, master.generator_gap(P, model))
            gaps.append(gap)
            hs.append(spec.h)
        order = master.fit_convergence_order(hs, gaps)
        crit.check(f"m={m} order {order:.2f} >= 1.7 over {len(sizes)} refinements", order >= 1.7)
    crit.finish()


def test_criterion_2_stationary_ou_m2():
    crit = Criterion("criterion 2: m=2 stationary law (residual, KS, mean)", budget_s=120)
    # (a) residual order with a smooth-at-origin parameter set (lam/alpha = 4)
    model_a = ModelSpec(LinearRestoring(1.0), 0.0, ConstantRate(4.0), ErlangJumpLaw(2, 1.0))
    res, hs = [], []
    for n in (1025, 2049, 4097):
        spec = GridSpec(1e-4, 60.0, n)
        gf = GridFunction(spec, closedform.stationary_ou_m2(1.0, 4.0, 1.0, spec.nodes()))
        res.append(master.stationary_residual(gf, model_a))
        hs.append(spec.h)
    order = master.fit_convergence_order(hs, res)
    crit.check(f"stationary residual order {order:.2f} >= 1.7", order >= 1.7)

    # (b) and (c): Monte Carlo at the documented parameters
    alpha, lam, gamma = 1.0, 2.0, 1.0
    model = ModelSpec(LinearRestoring(alpha), 0.0, ConstantRate(lam), ErlangJumpLaw(2, gamma))
    cfg = SimConfig(dt=0.01, t_end=20.0 / alpha, n_paths=100_000, seed=202, record_stride=200)
    batch = simulate.simulate_paths(model, cfg)
    final = batch.final_positions
    xg = np.linspace(0.0, 60.0, 12001)
    ks = simulate.ks_distance(final, _cdf_from_density(xg, closedform.stationary_ou_m2(alpha, lam, gamma, xg)))
    crit.check(f"KS vs analytic {ks:.4f} < 0.02 at 1e5 paths", ks < 0.02)
    se = final.std(ddof=1) / math.sqrt(len(final))
    expect = 2 * lam / (alpha * gamma)
    crit.check(
        f"mean {final.mean():.4f} within 4 s.e. of {expect}", abs(final.mean() - expect) <= 4 * se
    )
    crit.finish()


def test_criterion_3_cumulant_formula():
    crit = Criterion("criterion 3: first cumulant formula, m=1 and m=2")
    alpha, lam, gamma = 1.0, 2.0, 1.0
    f = lambda x: alpha * x
    for m in (1, 2):
        val = closedform.cumulant(1, m, gamma, lam, f)
        expect = lam * m / (alpha * gamma)
        crit.check(
            f"m={m} quadrature {val:.8f} rel err < 1e-6 of {expect}",
            abs(val / expect - 1.0) < 1e-6,
        )
        model = ModelSpec(LinearRestoring(alpha), 0.0, ConstantRate(lam), ErlangJumpLaw(m, gamma))
        cfg = SimConfig(dt=0.01, t_end=15.0, n_paths=30_000, seed=300 + m, record_stride=30)
        mean, se = simulate.simulate_paths(model, cfg).tail_window_mean(0.5)
        crit.check(f"m={m} MC tail mean {mean:.4f} within 4 s.e.", abs(mean - val) <= 4 * se)
    crit.finish()


def test_criterion_4_transient_m1():
    crit = Criterion("criterion 4: m=1 transient law (mass, KS, relaxation)", budget_s=120)
    alpha, lam, gamma, x0 = 1.0, 2.0, 1.0, 0.5
    law = closedform.TransientLaw(alpha, lam, gamma, x0)
    for i, t in enumerate((0.3, 0.7, 1.5)):
        mass = law.total_mass(t)
        crit.check(f"t={t} mass {mass:.6f} = 1 +- 1e-4", abs(mass - 1.0) <= 1e-4)
        xs, cdf = law.cdf_grid(t, 40.0)
        samples = simulate.sample_linear_shot_noise_exact(
            alpha, lam, gamma, 1, x0, t, 100_000, 400 + i
        ).values
        ks = simulate.ks_distance(samples, interp_cdf(xs, np.minimum(cdf, 1.0)))
        crit.check(f"t={t} KS vs MC {ks:.4f} < 0.02", ks < 0.02)
    t_inf = 40.0 / alpha
    x = np.linspace(0.0, 30.0, 3000)
    gap = np.max(
        np.abs(law.continuous_density(x, t_inf) - stats.gamma.pdf(x, lam / alpha, scale=1 / gamma))
    )
    crit.check(f"sup-norm to stationary at t=40/alpha {gap:.2e} < 1e-3", gap < 1e-3)
    crit.finish()


def test_criterion_5_flocking_speeds():
    crit = Criterion("criterion 5: swarm wave speeds and profiles (N=2000)", budget_s=300)
    fitted = {}
    for m, t_end in ((1, 16.0), (2, 12.0)):
        sol = closedform.gumbel_wave(1.0, 1.0) if m == 1 else closedform.whittaker_wave(1.0, 1.0)
        cfg = SimConfig(dt=0.002, t_end=t_end, n_paths=1, seed=500 + m, record_stride=50)
        series = simulate.simulate_swarm(2000, m, 1.0, 1.0, cfg)
        fitted[m] = simulate.estimate_speed(series, 0.5)
        rel = abs(fitted[m] / sol.speed - 1.0)
        crit.check(
            f"m={m} fitted speed {fitted[m]:.4f} within 5% of {sol.speed:.4f}", rel < 0.05
        )
        centered = series.centered_tail_positions(0.25)
        gx, gc = sol.cdf_grid()
        ks = simulate.ks_distance(centered, interp_cdf(gx, gc))
        crit.check(f"m={m} centered density KS {ks:.4f} < 0.05", ks < 0.05)
    crit.check(
        f"measured speed ratio {fitted[2] / fitted[1]:.3f} > 2", fitted[2] / fitted[1] > 2.0
    )
    crit.finish()


def test_criterion_6_whittaker_self_consistency():
    crit = Criterion("criterion 6: Whittaker wave moment and Schroedinger residual")
    sol = closedform.whittaker_wave(1.0, 1.0)
    g0 = mellin_moment(sol, 0.0)
    crit.check(f"G(0) = {g0:.8f} within 1e-5 of 1", abs(g0 - 1.0) <= 1e-5)
    du = 1e-3
    g1 = (mellin_moment(sol, du) - mellin_moment(sol, -du)) / (2 * du)
    crit.check(f"G'(0) = {g1:.2e} within 1e-5 of 0", abs(g1) <= 1e-5)

    # residual grid starts at xi = -2 so the steep left flank (where the
    # reconstructed auxiliary function oscillates on scale 1/z) stays
    # resolved and the truncation error dominates evaluation noise
    beta, gamma, c2 = 1.0, 1.0, sol.speed
    res, hs = [], []
    for n in (257, 513, 1025):
        xi = np.linspace(-2.0, 20.0, n)
        h = xi[1] - xi[0]
        z = np.exp(-beta * xi) / (beta * c2)
        psi = sol.profile(xi) * np.exp(gamma * xi + z / 2.0)
        psi /= np.max(np.abs(psi))
        d2 = np.zeros_like(psi)
        d2[2:-2] = (
            -psi[4:] + 16 * psi[3:-1] - 30 * psi[2:-2] + 16 * psi[1:-3] - psi[:-4]
        ) / (12 * h**2)
        pot = ((beta - 2 * gamma) / (2 * c2)) * np.exp(-beta * xi) - np.exp(-2 * beta * xi) / (
            4 * c2**2
        )
        r = d2 + pot * psi
        res.append(np.max(np.abs(r[4:-4])))
        hs.append(h)
    order = master.fit_convergence_order(hs, res)
    crit.check(f"Schroedinger-form residual order {order:.2f} >= 1.7", order >= 1.7)
    crit.finish()


def test_criterion_7_tanh_jump_diffusion():
    crit = Criterion("criterion 7: tanh jump diffusion (mass, transient KS, OU KS)", budget_s=180)
    lam, gamma, beta, alpha = 1.0, 2.0, 0.5, 1.0
    law = closedform.TanhTransientLaw(lam, gamma, beta)
    mass = law.mass(1.0)
    crit.check(f"transient mass {mass:.6f} = 1 +- 1e-4", abs(mass - 1.0) <= 1e-4)

    # exact jump-adapted samples at the horizon, no time step
    sample = simulate.sample_tanh_exact(lam, gamma, beta, 1.0, 100_000, 700)
    xs, cdf = law.cdf_grid(1.0)
    ks = simulate.ks_distance(sample.values, interp_cdf(xs, cdf))
    crit.check(f"transient KS vs MC {ks:.4f} < 0.02 at t=1", ks < 0.02)

    olaw = closedform.TiltedOuLaw(alpha, lam, gamma, beta)
    osample = simulate.sample_ou_tanh_exact(alpha, lam, gamma, beta, 20.0 / alpha, 100_000, 701)
    ys, ycdf = olaw.cdf_grid()
    oks = simulate.ks_distance(osample.values, interp_cdf(ys, ycdf))
    crit.check(f"OU-driven stationary KS {oks:.4f} < 0.03 at 1e5 paths", oks < 0.03)
    crit.finish()


def test_criterion_8_figure_regeneration(tmp_path):
    crit = Criterion("criterion 8: wave profile CSVs for m=1,2 at two beta values")
    cfg = {
        "schema_version": 1,
        "m_values": [1, 2],
        "beta_values": [0.5, 1.0],
        "gamma": 1.0,
        "xi_lo": -12.0,
        "xi_hi": 38.0,
        "n_xi": 5001,
        "seed": 0,
    }
    cfg_path = tmp_path / "wave.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["wave", "--config", str(cfg_path), "--out", str(out)])
    crit.check("wave command exit code 0", code == 0)
    for m in (1, 2):
        for b in ("0.5", "1"):
            body = (out / f"wave_m{m}_beta{b}.csv").read_text().splitlines()
            data = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
            xi, dens = data[:, 0], data[:, 1]
            mass = integrate.simpson(dens, x=xi)
            mean = integrate.simpson(xi * dens, x=xi)
            crit.check(f"m={m} beta={b} CSV mass {mass:.8f} = 1 +- 1e-6", abs(mass - 1) <= 1e-6)
            crit.check(f"m={m} beta={b} CSV mean {mean:.2e} = 0 +- 1e-5", abs(mean) <= 1e-5)
    crit.finish()


def test_criterion_9_specfun_oracles(tmp_path):
    crit = Criterion("criterion 9: special functions vs independent oracles", budget_s=60)
    cfg_path = tmp_path / "sf.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "n_samples": 120, "seed": 9}))
    out = tmp_path / "out"
    code = cli.main(["verify-specfun", "--config", str(cfg_path), "--out", str(out)])
    crit.check("verify-specfun exit code 0", code == 0)
    report = json.loads((out / "report.json").read_text())
    for name, ok in sorted(report["flags"].items()):
        crit.check(name, ok)
    crit.finish()


def test_criterion_10_same_seed_rerun_determinism(tmp_path):
    crit = Criterion("criterion 10: byte-identical CSVs when a config is rerun at its seed")
    configs = {
        "stationary": {
            "schema_version": 1, "m": 2, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0,
            "grid": {"x_lo": 1e-4, "x_hi": 40.0, "n": 801},
            "sim": {"dt": 0.02, "t_end": 4.0, "n_paths": 9000, "record_stride": 50},
            "n_bins": 40, "seed": 11,
        },
        "wave": {
            "schema_version": 1, "m_values": [1], "beta_values": [1.0], "gamma": 1.0,
            "xi_lo": -8.0, "xi_hi": 30.0, "n_xi": 1001, "seed": 11,
            "swarm": {"n_agents": 300, "dt": 0.01, "t_end": 4.0, "record_stride": 20},
        },
        "tanh": {
            "schema_version": 1, "alpha": 1.0, "lambda": 1.0, "gamma": 2.0, "beta": 0.5,
            "t": 0.5, "sim": {"dt": 0.01, "t_end": 0.5, "n_paths": 9000, "record_stride": 50},
            "stationary_sim": {"dt": 0.02, "t_end": 5.0, "n_paths": 9000, "record_stride": 50},
            "seed": 11,
        },
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        bodies = []
        for run in (1, 2):
            out = tmp_path / f"{command}_{run}"
            code = cli.run_command(command, str(cfg_path), str(out), quiet=True)
            crit.check(f"{command} run {run} ran (exit 0 or 1)", code in (0, 1))
            csvs = sorted(p.name for p in out.glob("*.csv"))
            bodies.append({name: (out / name).read_bytes() for name in csvs})
        crit.check(f"{command}: CSV bodies identical on the rerun", bodies[0] == bodies[1])
    crit.finish()
