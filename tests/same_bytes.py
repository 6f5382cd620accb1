"""Every benchmark op run on two source trees: do they give the same bytes?

    python tests/same_bytes.py PARENT_SRC CHANGE_SRC [--seeds 7,11]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding an
``erlangshot`` package (for example a ``git archive`` of the parent commit
and the working tree).  The ops are those of ``perfbench/workloads.py``
beside this file, at their full size, each distinct op once however many
workloads share it; the file is read, nothing under ``perfbench`` is
written.  Every op runs at every seed on both trees, one child process per
run through ``erlangshot.cli.main``.  A run's outcome is its exit code,
the metrics, flags and counters of its ``report.json``, and the sha256 of
each CSV it writes.  Each difference between the trees is printed on one
line, and the exit status is 1 when there is any, else 0.

This file is a tool, not a test: pytest collects only ``test_*.py``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# the child: run one command from the tree on its PYTHONPATH, after checking
# that the package imported is that tree's
_CHILD = """
import os, sys
import erlangshot
from erlangshot import cli
src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
if not os.path.realpath(erlangshot.__file__).startswith(src + os.sep):
    sys.exit(f"imported {erlangshot.__file__}, not the package under {src}")
sys.exit(cli.main(sys.argv[1:]))
"""


def ops():
    """The distinct ops of every workload, label -> (command, config)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    out = {}
    for workload in workloads.WORKLOADS.values():
        for op in workload.ops:
            out.setdefault(op.label, (op.command, op.config))
    return out


def outcome(src, command, config, seed, tmp):
    """The exit code, metrics, flags, counters and CSV digests of one run."""
    out = Path(tempfile.mkdtemp(dir=tmp))
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, command, "--config", str(cfg), "--out",
         str(out / "run"), "--seed", str(seed)],
        env=env, cwd=out, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    result = {"exit": proc.returncode}
    report = out / "run" / "report.json"
    if report.exists():
        body = json.loads(report.read_text())
        result.update({key: body[key] for key in ("metrics", "flags", "counters")})
    elif proc.returncode != 2:
        result["stderr"] = proc.stderr.strip().splitlines()[-1:]
    for csv in sorted((out / "run").glob("*.csv")):
        result[csv.name] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return result


def differences(want, got):
    """One line per key of either outcome whose values differ, recursing one
    level into metrics, flags and counters."""
    lines = []
    for key in sorted(set(want) | set(got)):
        a, b = want.get(key), got.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            lines += [f"{key}.{k}: {a.get(k)!r} -> {b.get(k)!r}"
                      for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
        elif a != b:
            lines.append(f"{key}: {a!r} -> {b!r}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", default="7,11")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    runs, differ = ops(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, (command, config) in runs.items():
            for seed in seeds:
                want = outcome(args.parent_src, command, config, seed, tmp)
                got = outcome(args.change_src, command, config, seed, tmp)
                lines = differences(want, got)
                differ += bool(lines)
                print(f"{label} seed {seed}: exit {want['exit']} -> {got['exit']}, "
                      f"{'same' if not lines else f'{len(lines)} differences'}", flush=True)
                for line in lines:
                    print(f"    {line}", flush=True)
    print(f"{differ} of {len(runs) * len(seeds)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
