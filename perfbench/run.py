"""erlangshot benchmark: verdict latency per CLI subcommand.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc_paths --seed 1 --seconds 25 --trace 0

Workloads are defined in ``perfbench/workloads.py`` and listed with their
metrics in ``BENCHMARK.json``; ``--workload all`` runs each in turn.  The
program is used from ``src/`` as checked out; nothing is installed.

One run starts a worker process that imports ``erlangshot.cli``, runs the
workload as a closed loop (one client, one op at a time) for ``--seconds``,
checks every op's output, and reports.  Set-up is timed from process start
to the worker's ``ready`` line, in the worker and in a few set-up-only
processes started before it; ``setup_s`` is their median.  BLAS threads are
capped at the number of usable cores.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, and
``--trace 1`` the per-layer ones.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Op outputs, the full result
(environment, per-op counts and maxima, CSV digests) and, when tracing, the
spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 2  # set-up-only processes per run, besides the worker itself

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def _metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not env.get(var, "").isdigit() or int(env[var]) > int(threads):
            env[var] = threads
    return env


def _start(args, run_dir, setup_only):
    """Start a worker and wait for its ``ready`` line; returns (process,
    set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir), "--root", str(ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    scale = proc.stdout.readline().split()
    if line.strip() != "ready" or len(scale) != 2 or scale[0] != "scale":
        _finish(proc, 0.0)
        raise RuntimeError("worker did not finish set-up")
    return proc, (setup, float(scale[1]))


def _finish(proc, timeout):
    """Wait for ``proc`` to end, killing it after ``timeout`` seconds;
    returns its remaining standard output."""
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not end before the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return stdout


def run_workload(args):
    """Run one workload; returns the full result dict (raises on a broken run)."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups = []
        for _ in range(0 if args.smoke else SETUP_PROBES):
            proc, setup = _start(args, run_dir, True)
            _finish(proc, deadline - time.monotonic())
            setups.append(setup)
        proc, setup = _start(args, run_dir, False)
        setups.append(setup)
        stdout = _finish(proc, deadline - time.monotonic())
        result = json.loads(stdout.strip().splitlines()[-1])
        if "spans_file" in result:
            result["spans_file"] = str(shutil.move(result["spans_file"],
                                                   OUT / f"{run_dir.name}-spans.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(t * scale for t, scale in setups)
    result["setup_samples"] = [{"raw_s": t, "scale": scale} for t, scale in setups]
    units = _metric_units(args.trace)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ set(units))}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    result["correct"] = result["failed"] == 0
    result["result_file"] = str(OUT / f"{run_dir.name}.json")
    Path(result["result_file"]).write_text(json.dumps(result, indent=1) + "\n")
    return result


def _print_summary(name, result):
    env = result["env"]
    print(f"[{name}] env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"[{name}] result file: {result['result_file']}")
    for label, ctx in result["ops"].items():
        print(f"[{name}] op {label} ({ctx['command']}): n={ctx['count']} "
              f"median={ctx['median_s']:.4f} s max={ctx['max_s']:.4f} s at reference speed; "
              f"raw median={ctx['raw_median_s']:.4f} s max={ctx['raw_max_s']:.4f} s")
    for problem in result["problems"]:
        print(f"[{name}] FAILED {problem}")
    for metric, m in result["metrics"].items():
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
    print(f"[{name}] fail_share = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")


def main(argv=None):
    parser = argparse.ArgumentParser(description="erlangshot benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-size configs and a single set-up sample (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "erlangshot" / "cli.py").is_file():
        print(f"error: no erlangshot sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    bad = [f"{name}/{op.label}: {v}" for name in names for op in wl.WORKLOADS[name].ops
           for v in wl.rule_violations(op.command, op.sized(args.smoke), args.seed)]
    if bad:
        print("error: invalid workload configs:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        _print_summary(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
