"""Workload definitions for the erlangshot benchmark.

A workload is the op sequence of one cycle: every ``erlangshot.cli``
subcommand runs at least once per cycle, so every end-to-end metric exists
on every workload.  The subcommands a workload is *about* run at a size that
makes the layer under test dominate; the others run at the shared ``SMALL``
size, which is the same op on every workload.

Each op carries the config the program receives, without a seed: the
workload seed reaches the program only through ``seed_override``.  Each op
also carries a smoke-size variant used by the self-test.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# subcommand -> end-to-end latency metric
LATENCY_METRIC = {
    "stationary": "stationary_s",
    "tanh": "tanh_s",
    "transient": "transient_s",
    "wave": "wave_s",
    "verify-master": "verify_master_s",
    "verify-specfun": "verify_specfun_s",
}

SEED_LIMIT = 2**64

# subcommands whose runs write no CSV
NO_CSV = {"verify-specfun"}


@dataclass(frozen=True)
class Op:
    """One subcommand run: a label unique in its workload, the config, and
    how many times it repeats per cycle."""

    label: str
    command: str
    config: dict
    reps: int = 1

    def sized(self, smoke):
        """The config, or its smoke-size variant for the self-test."""
        if not smoke:
            return self.config
        return _override(self.config, _SMOKE[self.command])


@dataclass(frozen=True)
class Workload:
    """Why the workload exists, the layers it loads (each with the
    end-to-end metrics a change to that layer should move here), the layers
    it never calls, and the ops of one cycle.  Every result file records it."""

    why: str
    loads: dict
    bypasses: tuple
    ops: tuple


def _override(cfg, over):
    """Copy of ``cfg`` with the keys of ``over`` replaced, recursing into
    blocks; keys absent from ``cfg`` are not added."""
    out = copy.deepcopy(cfg)
    for key, val in over.items():
        if key not in out:
            continue
        if isinstance(val, dict):
            out[key] = _override(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


# ---------------------------------------------------------------------------
# smoke overrides, one per subcommand (self-test only; seed 7 passes all flags)

_SMOKE = {
    "stationary": {"grid": {"n": 401},
                   "sim": {"dt": 0.05, "t_end": 10.0, "n_paths": 6000, "record_stride": 50}},
    "tanh": {"t": 0.5,
             "sim": {"dt": 0.05, "t_end": 0.5, "n_paths": 5000, "record_stride": 5},
             "stationary_sim": {"dt": 0.05, "t_end": 10.0, "n_paths": 5000, "record_stride": 50}},
    "transient": {"times": [0.5], "u_values": [1.0], "n_samples": 20000},
    "wave": {"beta_values": [1.0], "n_xi": 1001,
             "swarm": {"n_agents": 1000, "dt": 0.005, "t_end": 5.0, "record_stride": 20}},
    "verify-master": {"m_values": [1, 2], "grid_sizes": [257, 513, 1025, 2049]},
    "verify-specfun": {"n_samples": 100},
}


# ---------------------------------------------------------------------------
# shared small ops: README-size analytic runs (verify-master with more test
# densities, so one op takes long enough to time steadily), and the smallest
# Monte Carlo runs whose KS flags hold with margin at any seed (16384 paths)

SMALL = {
    "stationary": Op("stationary_small", "stationary", {
        "schema_version": 1, "m": 2, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0,
        "grid": {"x_lo": 1e-4, "x_hi": 40.0, "n": 2001},
        "sim": {"dt": 0.02, "t_end": 20.0, "n_paths": 16384, "record_stride": 100},
        "n_bins": 80,
    }),
    "tanh": Op("tanh_small", "tanh", {
        "schema_version": 1, "alpha": 1.0, "lambda": 1.0, "gamma": 2.0, "beta": 0.5,
        "t": 0.5,
        "sim": {"dt": 0.01, "t_end": 0.5, "n_paths": 16384, "record_stride": 50},
    }),
    "transient": Op("transient_small", "transient", {
        "schema_version": 1, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0, "x0": 0.5,
        "times": [0.3, 0.7, 1.5], "u_values": [0.5, 1.0], "t_u": 1.0,
        "n_samples": 100000,
    }, reps=2),
    "wave": Op("wave_small", "wave", {
        "schema_version": 1, "m_values": [1, 2], "beta_values": [0.5, 1.0],
        "gamma": 1.0, "xi_lo": -12.0, "xi_hi": 38.0, "n_xi": 5001,
    }, reps=3),
    "verify-master": Op("verify_master_small", "verify-master", {
        "schema_version": 1, "m_values": [1, 2, 3, 4],
        "grid_sizes": [513, 1025, 2049, 4097, 8193],
        "gamma": 0.7, "lambda": 0.8, "x_lo": -8.0, "x_hi": 10.0,
        "drift": {"kind": "linear_restoring", "alpha": 0.6}, "sigma": 0.3,
        "n_test_densities": 8,
    }, reps=2),
    "verify-specfun": Op("verify_specfun_small", "verify-specfun", {
        "schema_version": 1, "n_samples": 240,
    }),
}


def _with_small(*ops):
    """The given ops followed by the SMALL op of every other subcommand."""
    have = {op.command for op in ops}
    return tuple(ops) + tuple(op for cmd, op in SMALL.items() if cmd not in have)


WORKLOADS = {
    "mc_paths": Workload(
        why="Euler path engine at scale: sparse jumps with sigma=0 (stationary) "
            "and a Brownian step plus Laplace jumps every step (tanh)",
        loads={
            "simulate.paths": ("stationary_s", "tanh_s", "peak_rss_mb"),
            "closedform.cosine": ("tanh_s",),
            "master": ("stationary_s",),
        },
        bypasses=("simulate.swarm",),
        ops=_with_small(
            # m=2, linear drift, sigma=0: about 2% of steps carry a jump
            Op("stationary_m2", "stationary", {
                "schema_version": 1, "m": 2, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0,
                "grid": {"x_lo": 1e-4, "x_hi": 40.0, "n": 2001},
                "sim": {"dt": 0.01, "t_end": 20.0, "n_paths": 16384, "record_stride": 200},
                "n_bins": 80,
            }),
            # dense noise: a Gaussian increment every step, 4 + 2 chunks
            Op("tanh_paths", "tanh", {
                "schema_version": 1, "alpha": 1.0, "lambda": 1.0, "gamma": 2.0,
                "beta": 0.5, "t": 1.0,
                "sim": {"dt": 0.004, "t_end": 1.0, "n_paths": 16384, "record_stride": 250},
                "stationary_sim": {"dt": 0.02, "t_end": 20.0, "n_paths": 8192,
                                   "record_stride": 500},
            }),
        ),
    ),
    "analytic": Workload(
        why="closed forms, special functions, oracles and master stencils; "
            "the path engine only as per-path stream setup (many paths, few steps)",
        loads={
            "closedform.cosine": ("tanh_s", "peak_rss_mb"),
            "closedform.transient": ("transient_s",),
            "closedform.wave": ("wave_s",),
            "specfun": ("wave_s", "transient_s", "verify_specfun_s"),
            "oracles": ("verify_specfun_s",),
            "master": ("verify_master_s",),
            "cli": ("stationary_s", "tanh_s", "transient_s", "wave_s",
                    "verify_master_s", "verify_specfun_s"),
            "simulate.paths": ("tanh_s",),
        },
        bypasses=("simulate.swarm",),
        ops=_with_small(
            Op("verify_specfun_wide", "verify-specfun", {
                "schema_version": 1, "n_samples": 500,
            }),
            Op("verify_master_dense", "verify-master", {
                "schema_version": 1, "m_values": [1, 2, 3, 4],
                "grid_sizes": [513, 1025, 2049, 4097, 8193],
                "gamma": 0.7, "lambda": 0.8, "x_lo": -8.0, "x_hi": 10.0,
                "drift": {"kind": "linear_restoring", "alpha": 0.6}, "sigma": 0.3,
                "n_test_densities": 16,
            }),
            Op("wave_profiles", "wave", {
                "schema_version": 1, "m_values": [1, 2],
                "beta_values": [0.5, 0.75, 1.0, 1.5, 2.0],
                "gamma": 1.0, "xi_lo": -12.0, "xi_hi": 38.0, "n_xi": 20001,
            }),
            Op("transient_times", "transient", {
                "schema_version": 1, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0, "x0": 0.5,
                "times": [0.2, 0.5, 0.9, 1.4, 2.0, 3.0], "u_values": [0.25, 0.5, 1.0, 2.0],
                "t_u": 1.0, "n_samples": 200000,
            }),
            # the many-paths, few-steps form of acceptance criterion 10
            # (50 and 250 steps), at 16384 paths so the KS flags hold at any seed
            Op("tanh_few_steps", "tanh", {
                "schema_version": 1, "alpha": 1.0, "lambda": 1.0, "gamma": 2.0,
                "beta": 0.5, "t": 0.5,
                "sim": {"dt": 0.01, "t_end": 0.5, "n_paths": 16384, "record_stride": 50},
                "stationary_sim": {"dt": 0.02, "t_end": 5.0, "n_paths": 16384,
                                   "record_stride": 50},
            }),
        ),
    ),
    "swarm": Workload(
        why="barycenter-coupled swarm: 8000 agents x 2500 thinned steps per m, "
            "so per-agent setup memory and cost per agent-step dominate",
        loads={
            "simulate.swarm": ("wave_s", "peak_rss_mb"),
            "specfun.kummer_u": ("wave_s",),
        },
        bypasses=(),
        ops=_with_small(
            Op("wave_swarm", "wave", {
                "schema_version": 1, "m_values": [1, 2], "beta_values": [1.0],
                "gamma": 1.0, "xi_lo": -12.0, "xi_hi": 38.0, "n_xi": 5001,
                "swarm": {"n_agents": 8000, "dt": 0.002, "t_end": 5.0,
                          "record_stride": 50},
            }),
        ),
    ),
}


# ---------------------------------------------------------------------------
# output expectations and config rules


def expected_metrics(command, cfg):
    """Metric keys ``report.json`` must carry for this subcommand and config."""
    if command == "stationary":
        return ["ks", "mc_mean", "analytic_mean", "mean_abs_diff", "mean_4se",
                "stationary_residual"]
    if command == "tanh":
        keys = ["transient_mass", "transient_ks"]
        if "stationary_sim" in cfg:
            keys += ["stationary_ks", "stationary_ks_jump_only"]
        return keys
    if command == "transient":
        keys = []
        for i in range(1, len(cfg["times"]) + 1):
            keys += [f"mass_t{i}", f"ks_t{i}", f"atom_weight_t{i}", f"atom_location_t{i}"]
        for j in range(1, len(cfg.get("u_values", [1.0])) + 1):
            keys += [f"laplace_mc_u{j}", f"laplace_analytic_u{j}", f"laplace_4se_u{j}"]
        return keys
    if command == "wave":
        keys = []
        for m in cfg["m_values"]:
            for b in cfg["beta_values"]:
                tag = f"m{m}_beta{b:g}"
                keys += [f"C{m}_beta{b:g}", f"mass_{tag}", f"mean_{tag}"]
                if "swarm" in cfg:
                    keys += [f"fitted_speed_{tag}", f"speed_rel_err_{tag}",
                             f"ks_centered_{tag}"]
        if 2 in cfg["m_values"]:
            keys += [f"C2_over_C1_beta{b:g}" for b in cfg["beta_values"]]
        return keys
    if command == "verify-master":
        return [f"order_m{m}" for m in cfg["m_values"]] + ["m1_direct_form_gap"]
    if command == "verify-specfun":
        return [f"max_err_{name}" for name in (
            "log_gamma", "digamma", "bessel_i", "bessel_k", "erlang_survival",
            "kummer_u", "whittaker_w0", "kummer_1f1")]
    raise ValueError(f"unknown subcommand {command}")


def _blocks(cfg):
    return [(key, cfg[key]) for key in ("sim", "stationary_sim", "swarm") if key in cfg]


def _has_key(obj, key):
    if isinstance(obj, dict):
        return key in obj or any(_has_key(v, key) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_key(v, key) for v in obj)
    return False


def rule_violations(command, cfg, seed):
    """Breaches of the config rules the planned validation will enforce:
    no ``n_workers`` keys, ``tanh.t == sim.t_end``, integer ``t_end/dt`` in
    every simulation block, and a seed in [0, 2**64)."""
    out = []
    if _has_key(cfg, "n_workers"):
        out.append("n_workers key present")
    if command == "tanh" and cfg["t"] != cfg["sim"]["t_end"]:
        out.append("tanh.t differs from sim.t_end")
    for key, blk in _blocks(cfg):
        steps = blk["t_end"] / blk["dt"]
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            out.append(f"{key}: t_end/dt = {steps!r} is not an integer")
    for s in (seed, cfg.get("seed", 0)):
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < SEED_LIMIT:
            out.append(f"seed {s!r} outside [0, 2**64)")
    return out
