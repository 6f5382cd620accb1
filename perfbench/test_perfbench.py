"""Smoke-size self-test of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at smoke size and the
same seed.  The test checks that every metric of ``BENCHMARK.json`` is
emitted with its unit, that span self times add up to each op's wall time,
that the two runs write identical CSV bodies, and that no config breaks the
rules the planned config validation will enforce.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import self_times  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def smoke(request):
    """(untraced, traced) outputs of one workload: last-line JSON and full result."""
    runs = []
    for trace in (0, 1):
        proc = _run(ROOT, "--workload", request.param, "--seed", str(SEED),
                    "--seconds", "1", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        path = next(line.split("result file: ", 1)[1] for line in lines
                    if "result file: " in line)
        runs.append((json.loads(lines[-1]), json.loads(Path(path).read_text())))
    return runs


def test_every_metric_is_emitted_with_its_unit(smoke):
    for (last, _), kind in zip(smoke, ("end_to_end", "per_layer")):
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        assert got == want
        for m in last["metrics"].values():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    for name, m in smoke[0][0]["metrics"].items():
        assert m["value"] > 0, name


def test_span_self_times_add_up_to_op_wall_time(smoke):
    dump = json.loads(Path(smoke[1][1]["spans_file"]).read_text())
    spans = dump["spans"]
    per_op = {}
    for span, own in zip(spans, self_times(spans)):
        per_op[span[4]] = per_op.get(span[4], 0.0) + own
    roots = {span[4]: span[2] - span[1] for span in spans if span[3] is None}
    assert set(roots) == {int(i) for i in dump["ops"]}
    for op, wall in roots.items():
        assert per_op[op] == pytest.approx(wall, rel=1e-9, abs=1e-9)
        # the root span sits directly around run_command
        assert wall == pytest.approx(dump["ops"][str(op)]["latency_s"], abs=5e-3)


def test_same_seed_gives_identical_csv_bodies(smoke):
    (_, plain), (_, traced) = smoke
    assert plain["csv_sha256"] and plain["csv_sha256"] == traced["csv_sha256"]


def test_environment_block(smoke):
    env = smoke[0][1]["env"]
    assert env["seed"] == SEED and env["nproc"] >= 1
    assert int(env["blas_threads"]) <= env["nproc"]
    for key in ("cpu_model", "python", "numpy", "scipy", "blas", "commit"):
        assert env[key]


@pytest.mark.parametrize("smoke_size", [False, True])
def test_configs_follow_planned_validation(smoke_size):
    for workload in wl.WORKLOADS.values():
        assert {op.command for op in workload.ops} == set(wl.LATENCY_METRIC)
        for op in workload.ops:
            assert wl.rule_violations(op.command, op.sized(smoke_size), SEED) == []


def test_rule_checker_catches_each_rule():
    tanh = wl.SMALL["tanh"].config
    assert wl.rule_violations("tanh", tanh, 2**64)
    assert wl.rule_violations("tanh", tanh, -1)
    assert wl.rule_violations("tanh", {**tanh, "t": 0.4}, 0)
    assert wl.rule_violations("tanh", {**tanh, "sim": {**tanh["sim"], "dt": 0.3}}, 0)
    assert wl.rule_violations("tanh", {**tanh, "sim": {**tanh["sim"], "n_workers": 1}}, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "swarm", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
