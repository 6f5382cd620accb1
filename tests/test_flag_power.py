"""Each flag family fails on a planted defect.

A statistical flag that no defect can fail certifies nothing, so every
family gets one defect it must catch, planted where a real one would sit:
- KS: the tabulated law that the sample is checked against, computed at a
  wrong parameter (``stationary`` with alpha x 1.05, ``tanh`` with
  beta x 1.5), at 16384 samples against the 0.02 bound;
- mass: the law's table scaled away from 1;
- +-4 s.e.: the analytic mean 5% off;
- speed: the swarm engine with its time change dropped (every event spaced
  by its clock increment alone), a mutant made in memory from the engine's
  own source.
Each planted run goes through the command's own run function, and each
test also runs the unplanted record and sees the flag pass, so the defect,
not the seed, fails it.
"""

import dataclasses
import inspect

from erlangshot import cli, closedform, simulate

_STATIONARY = {
    "schema_version": 1, "m": 2, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0,
    "grid": {"x_lo": 1e-4, "x_hi": 40.0, "n": 2001},
    "sim": {"dt": 0.02, "t_end": 20.0, "n_paths": 16384, "record_stride": 100},
    "seed": 7,
}
_TANH = {
    "schema_version": 1, "alpha": 1.0, "lambda": 1.0, "gamma": 2.0, "beta": 0.5, "t": 0.5,
    "sim": {"dt": 0.01, "t_end": 0.5, "n_paths": 16384, "record_stride": 50},
    "seed": 7,
}
_TRANSIENT = {
    "schema_version": 1, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0, "x0": 0.5,
    "times": [0.5], "u_values": [1.0], "t_u": 1.0, "n_samples": 20000, "seed": 7,
}
# m = 1 only: at seed 8 its fitted speed is within 5% of C_1
_WAVE = {
    "schema_version": 1, "m_values": [1], "beta_values": [1.0], "gamma": 1.0,
    "xi_lo": -12.0, "xi_hi": 38.0, "n_xi": 1001,
    "swarm": {"n_agents": 1000, "dt": 0.005, "t_end": 5.0, "record_stride": 20},
    "seed": 8,
}


def _flags(command, config, out, plant=lambda record: record):
    """The flags of one run of the command on its parsed, then planted,
    record, written to the new directory out."""
    out.mkdir()
    record = plant(cli.parse_config(command, config))
    report = cli.RunReport(command, config, record.seed, out)
    cli._COMMANDS[command][2](record, report)
    return report.flags


def _both(command, config, tmp_path, plant):
    """The flags of the unplanted run, then of the planted one."""
    return (_flags(command, config, tmp_path / "clean"),
            _flags(command, config, tmp_path / "planted", plant))


def test_ks_flag_fails_on_a_wrong_stationary_law(tmp_path):
    def plant(r):
        return r._replace(density=closedform.stationary_ou_m2(
            1.05 * r.alpha, r.lambda_, r.gamma, r.grid.nodes()))

    clean, planted = _both("stationary", _STATIONARY, tmp_path, plant)
    assert clean["ks_below_0.02"] and not planted["ks_below_0.02"]


def test_ks_flag_fails_on_a_wrong_tanh_law(tmp_path):
    def plant(r):
        return r._replace(transient_table=closedform.TanhTransientLaw(
            r.lambda_, r.gamma, 1.5 * r.beta).density_grid(r.t))

    clean, planted = _both("tanh", _TANH, tmp_path, plant)
    assert clean["transient_ks_below_0.02"] and not planted["transient_ks_below_0.02"]


def test_mass_flag_fails_on_a_scaled_tanh_table(tmp_path):
    def plant(r):
        xs, dens = r.transient_table
        return r._replace(transient_table=(xs, dens * (1.0 + 2e-4)))

    clean, planted = _both("tanh", _TANH, tmp_path, plant)
    assert clean["transient_mass_within_1e-4"] and not planted["transient_mass_within_1e-4"]


def test_mass_flag_fails_on_a_scaled_wave_profile(tmp_path):
    config = {k: v for k, v in _WAVE.items() if k != "swarm"}

    def plant(r):
        sol = r.waves[(1, 1.0)]
        return r._replace(waves={(1, 1.0): dataclasses.replace(sol, norm=sol.norm * (1 + 2e-6))})

    clean, planted = _both("wave", config, tmp_path, plant)
    assert clean["mass_m1_beta1_within_1e-6"] and not planted["mass_m1_beta1_within_1e-6"]


def test_mean_flag_fails_on_an_analytic_mean_5pct_off(tmp_path, monkeypatch):
    clean = _flags("stationary", _STATIONARY, tmp_path / "clean")
    cumulant = closedform.cumulant
    monkeypatch.setattr(closedform, "cumulant", lambda *args: 1.05 * cumulant(*args))
    planted = _flags("stationary", _STATIONARY, tmp_path / "planted")
    assert clean["mean_within_4se"] and not planted["mean_within_4se"]


def test_laplace_flag_fails_on_a_transform_5pct_off(tmp_path, monkeypatch):
    clean = _flags("transient", _TRANSIENT, tmp_path / "clean")
    transform = closedform.laplace_transform_linear
    monkeypatch.setattr(closedform, "laplace_transform_linear",
                        lambda *args: 1.05 * transform(*args))
    planted = _flags("transient", _TRANSIENT, tmp_path / "planted")
    assert clean["laplace_u1_within_4se"] and not planted["laplace_u1_within_4se"]


def test_speed_flag_fails_when_the_swarm_ignores_its_time_change(tmp_path, monkeypatch):
    # the event times t0 + cumsum(dLambda / A) become t0 + cumsum(dLambda)
    source = inspect.getsource(simulate.simulate_swarm)
    time_change = " * np.exp(-beta * rise))"
    assert source.count(time_change) == 1
    namespace = dict(vars(simulate))
    exec(source.replace(time_change, ")"), namespace)
    clean = _flags("wave", _WAVE, tmp_path / "clean")
    monkeypatch.setattr(simulate, "simulate_swarm", namespace["simulate_swarm"])
    planted = _flags("wave", _WAVE, tmp_path / "planted")
    assert clean["speed_m1_beta1_within_5pct"] and not planted["speed_m1_beta1_within_5pct"]
