"""Benchmark worker: set-up, then the op cycles of one workload.

``run.py`` starts this script; it is not meant to be run by hand.  It
prints ``ready`` once ``erlangshot.cli`` is imported and the warm-up op has
run, which ends set-up.  Unless ``--setup-only`` is given it then runs whole
cycles of the workload's ops through ``erlangshot.cli.run_command`` (one op
at a time, each op waiting for the previous one) until ``--seconds`` have
passed, and prints one JSON object as its last line.

With ``--trace 1`` each op runs untraced and then traced, and one more
cycle records peak traced allocations; the per-layer metrics come from the
traced runs and the tracing overhead from the difference in summed op
latency.

Times are reported at reference speed: a fixed kernel that does not use
erlangshot runs after set-up and after every op, and each op's seconds are
scaled by ``REF_NOMINAL_S`` over the median kernel time around it.  On a
shared machine whose speed drifts by up to 1.5x for tens of seconds, this
keeps runs comparable; the raw seconds are kept in the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import workloads as wl

# exercises closedform and specfun once, so lazily loaded code is not
# charged to the first timed op
_WARMUP = ("wave", {
    "schema_version": 1, "m_values": [1, 2], "beta_values": [1.0], "gamma": 1.0,
    "xi_lo": -8.0, "xi_hi": 30.0, "n_xi": 101,
})


# SpeedProbe.measure() time on an idle 2-vCPU Intel Xeon VM (numpy 2.4)
REF_NOMINAL_S = 0.030


class SpeedProbe:
    """Times a fixed kernel that does not use erlangshot: an interpreted
    loop, Philox draws and elementwise numpy math, the kinds of work the
    ops do, so its time tracks the machine's current speed for them."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(1_000_000)

    def measure(self):
        np = self._np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(60000):
            acc += (i * 0.5) ** 0.5
        for key in range(50):
            gen = np.random.Generator(np.random.Philox(key=key))
            gen.standard_normal(2000)
            gen.poisson(0.01, 2000)
        np.exp(self._x)
        np.cos(self._x)
        np.log1p(self._x)
        return time.perf_counter() - t0

    def settle(self):
        """Median of three measurements."""
        return statistics.median(self.measure() for _ in range(3))


def _csv_digest(out_dir):
    digest = hashlib.sha256()
    names = sorted(p.name for p in out_dir.glob("*.csv"))
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest() if names else None


class Bench:
    """Runs and checks ops; keeps one record per op run."""

    def __init__(self, cli, ops, seed, run_dir, probe, ref_s):
        self.cli = cli
        self.seed = seed
        self.probe = probe
        self.refs = [ref_s]  # kernel times: after set-up, then after each op
        self.run_dir = run_dir
        self.ops = []
        for op in ops:
            path = run_dir / "configs" / f"{op.label}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(op.config, indent=1))
            self.ops.append((op, path))
        self.records = []
        self.digests = {}

    def _check(self, op, code, out):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"report.json unreadable: {exc}"]
        flags = report.get("flags", {})
        if not flags:
            problems.append("report.json has no flags")
        problems += [f"flag {name} is false" for name, ok in flags.items() if not ok]
        missing = set(wl.expected_metrics(op.command, op.config)) - set(report.get("metrics", {}))
        if missing:
            problems.append(f"metrics missing: {sorted(missing)}")
        digest = _csv_digest(out)
        if digest is None:
            if op.command not in wl.NO_CSV:
                problems.append("no CSV written")
        elif self.digests.setdefault(op.label, digest) != digest:
            problems.append("CSV bodies differ from an earlier run at the same seed")
        return problems

    def run_op(self, op, cfg_path, tracer=None, kind="plain"):
        out = self.run_dir / "ops" / op.label
        shutil.rmtree(out, ignore_errors=True)
        op_id = len(self.records)
        args = (op.command, str(cfg_path), str(out))
        kwargs = {"seed_override": self.seed, "quiet": True}
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.run_command(*args, **kwargs)
            else:
                code = tracer.run_op(op_id, self.cli.run_command, *args, **kwargs)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            latency, cpu = time.perf_counter() - t0, _cpu_s() - c0
            traceback.print_exc()
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            latency, cpu = time.perf_counter() - t0, _cpu_s() - c0
            problems = self._check(op, code, out)
        self.refs.append(self.probe.measure())
        self.records.append({
            "id": op_id, "label": op.label, "command": op.command, "kind": kind,
            "latency_s": latency, "cpu_s": cpu, "problems": problems,
        })
        return op_id

    def scale(self, op_id):
        """Reference speed over machine speed around an op: the median of
        the two kernel times before it and the two after it, since one
        30 ms kernel run is itself noisy."""
        near = self.refs[max(0, op_id - 1):op_id + 3]
        return REF_NOMINAL_S / statistics.median(near)

    def ref_speed_s(self, op_id):
        """Latency of an op in seconds at reference speed."""
        return self.records[op_id]["latency_s"] * self.scale(op_id)

    def cycle(self, tracer=None, kind="plain"):
        """Every op once, or ``reps`` times in a row; returns the op ids."""
        return [self.run_op(op, path, tracer, kind)
                for op, path in self.ops for _ in range(op.reps)]

    def paired_cycle(self, tracer):
        """Every op run untraced and then traced, back to back, so drift in
        machine speed affects both alike.  Returns (untraced id, traced id)
        pairs."""
        pairs = []
        for op, path in self.ops:
            for _ in range(op.reps):
                plain = self.run_op(op, path)
                tracer.install()
                try:
                    pairs.append((plain, self.run_op(op, path, tracer, "traced")))
                finally:
                    tracer.uninstall()
        return pairs


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb():
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": _git_commit(root),
        "seed": seed,
    }


def _latency_metrics(bench):
    out = {}
    for command, metric in wl.LATENCY_METRIC.items():
        out[metric] = statistics.median(
            bench.ref_speed_s(r["id"]) for r in bench.records
            if r["command"] == command and r["kind"] == "plain")
    return out


def _op_context(bench):
    """Per op label: runs, and median, min and max latency, raw and at
    reference speed."""
    runs = defaultdict(list)
    for r in bench.records:
        if r["kind"] == "plain":
            runs[(r["label"], r["command"])].append(r)
    out = {}
    for (label, command), recs in runs.items():
        raw = [r["latency_s"] for r in recs]
        ref = [bench.ref_speed_s(r["id"]) for r in recs]
        out[label] = {"command": command, "count": len(recs),
                      "median_s": statistics.median(ref), "min_s": min(ref), "max_s": max(ref),
                      "raw_median_s": statistics.median(raw), "raw_max_s": max(raw)}
    return out


def _describe(name, ops):
    """What the workload runs and which layers it is for."""
    workload = wl.WORKLOADS[name]
    return {"name": name, "why": workload.why, "loads": workload.loads,
            "bypasses": workload.bypasses,
            "ops": {op.label: {"command": op.command, "reps": op.reps, "config": op.config}
                    for op in ops}}


def run_plain(bench, seconds):
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(bench.cycle())
    wall = statistics.median(sum(map(bench.ref_speed_s, ids)) for ids in cycles)
    metrics = {"wall_s": wall, **_latency_metrics(bench), "peak_rss_mb": _peak_rss_mb()}
    return metrics, {"cycles": len(cycles)}


def run_traced(bench, seconds, spans_path):
    from tracer import PEAK_METRIC, Tracer, cycle_metrics, layer_totals, self_times

    tracer = Tracer()
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(bench.paired_cycle(tracer))
    memory = Tracer(track_memory=True)
    memory.install()
    try:
        bench.cycle(memory, "memory")
    finally:
        memory.uninstall()

    scale = {i: bench.scale(i) for pairs in cycles for pair in pairs for i in pair}
    own = self_times(tracer.spans)
    metrics = cycle_metrics([layer_totals(tracer, own, [t for _, t in pairs], scale)
                             for pairs in cycles])
    for span, metric in PEAK_METRIC.items():
        metrics[metric] = memory.peaks[span]

    def per_cycle(value):
        return statistics.median(sum(value(i) for i in pairs) for pairs in cycles)

    metrics["trace.overhead_s"] = (
        per_cycle(lambda p: bench.ref_speed_s(p[1]) - bench.ref_speed_s(p[0])))
    metrics["cpu_s"] = per_cycle(lambda p: bench.records[p[0]]["cpu_s"] * scale[p[0]])

    # share of each layer in the traced latency of each subcommand
    command_of = {r["id"]: r["command"] for r in bench.records}
    layer_time = defaultdict(Counter)
    op_time = Counter()
    for span, t in zip(tracer.spans, own):
        command = command_of[span[4]]
        layer_time[command][span[0]] += t
        if span[3] is None:
            op_time[command] += span[2] - span[1]
    shares = {wl.LATENCY_METRIC[c]: {layer: t / op_time[c] for layer, t in layers.most_common()}
              for c, layers in layer_time.items()}
    metrics["share.stationary_s.simulate.paths"] = shares["stationary_s"].get("simulate.paths", 0.0)
    metrics["share.wave_s.simulate.swarm"] = shares["wave_s"].get("simulate.swarm", 0.0)
    tanh = dict(shares["tanh_s"])
    metrics["share.tanh_s.closedform.cosine"] = tanh.pop("closedform.cosine", 0.0)
    metrics["share.tanh_s.next_largest"] = max(tanh.values(), default=0.0)

    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "ops": {t: {"command": bench.records[t]["command"],
                    "latency_s": bench.records[t]["latency_s"], "scale": scale[t]}
                for pairs in cycles for _, t in pairs},
        "spans": tracer.spans,
    }))
    return metrics, {"cycles": len(cycles), "layer_shares": shares,
                     "spans_file": str(spans_path)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    run_dir = Path(args.run_dir)

    from erlangshot import cli

    command, cfg = _WARMUP
    warm = run_dir / "warmup"
    warm.mkdir(parents=True, exist_ok=True)
    (warm / "config.json").write_text(json.dumps(cfg))
    cli.run_command(command, str(warm / "config.json"), str(warm / "out"), quiet=True)
    print("ready", flush=True)
    probe = SpeedProbe()
    ref_s = probe.settle()
    print(f"scale {REF_NOMINAL_S / ref_s!r}", flush=True)
    if args.setup_only:
        return 0

    ops = [wl.Op(op.label, op.command, op.sized(args.smoke), op.reps)
           for op in wl.WORKLOADS[args.workload].ops]
    bench = Bench(cli, ops, args.seed, run_dir, probe, ref_s)
    if args.trace:
        metrics, extra = run_traced(bench, args.seconds, run_dir / "spans.json")
    else:
        metrics, extra = run_plain(bench, args.seconds)
    problems = [f"{r['label']}#{r['id']}: {p}" for r in bench.records for p in r["problems"]]
    print(json.dumps({
        "attempted": len(bench.records),
        "failed": sum(1 for r in bench.records if r["problems"]),
        "problems": problems[:50],
        "metrics": metrics,
        "ops": _op_context(bench),
        "csv_sha256": bench.digests,
        "env": environment(Path(args.root), args.seed),
        "workload": _describe(args.workload, ops),
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
