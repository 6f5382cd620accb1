"""Layer spans for erlangshot, recorded from outside the package.

``Tracer.install`` replaces each traced public function at the binding its
caller uses (module attributes, names imported into ``closedform``, and
methods on the law classes) with a wrapper that records a span: name,
start, end, parent span and op id.  Spans stay in memory; ``self_times``
turns them into per-layer self time (a span's duration minus the time its
child spans cover).  Counts are taken from the arguments and return values
seen at the same boundary.
"""

from __future__ import annotations

import statistics
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# span name -> time metric name
TIME_METRIC = {
    "cli": "cli.self_s",
    "cli.write_csv": "cli.write_csv_s",
    "simulate.paths": "simulate.paths_s",
    "simulate.exact": "simulate.exact_s",
    "simulate.swarm": "simulate.swarm_s",
    "simulate.estimators": "simulate.estimators_s",
    "closedform.cosine": "closedform.cosine_s",
    "closedform.transient": "closedform.transient_s",
    "closedform.wave": "closedform.wave_s",
    "closedform.stationary": "closedform.stationary_s",
    "specfun.kummer_u": "specfun.kummer_u_s",
    "specfun.kummer_1f1": "specfun.kummer_1f1_s",
    "specfun.scalar": "specfun.scalar_s",
    "oracles": "oracles.s",
    "master": "master.s",
}

COUNT_METRICS = (
    "cli.csv_rows",
    "simulate.paths_calls", "simulate.path_steps", "simulate.jumps",
    "simulate.exact_samples",
    "simulate.agent_steps", "simulate.majorant_retries",
    "simulate.estimator_samples",
    "closedform.cosine_points",
    "specfun.kummer_u_points", "specfun.kummer_1f1_calls",
    "oracles.calls",
    "master.calls", "master.grid_points",
)

# spans whose peak traced allocation is recorded in a memory cycle
PEAK_METRIC = {
    "simulate.paths": "simulate.paths_peak_alloc_mb",
    "simulate.swarm": "simulate.swarm_peak_alloc_mb",
    "closedform.cosine": "closedform.cosine_peak_alloc_mb",
}


def _sim_config(args, kwargs):
    return kwargs["config"] if "config" in kwargs else args[-1]


def _count_csv(c, result, path, header, columns):
    c["cli.csv_rows"] += len(columns[0])


def _count_paths(c, result, *args, **kwargs):
    cfg = _sim_config(args, kwargs)
    c["simulate.paths_calls"] += 1
    c["simulate.path_steps"] += cfg.n_paths * cfg.n_steps
    c["simulate.jumps"] += int(np.sum(result.jump_counts))


def _count_exact(c, result, *args, **kwargs):
    c["simulate.exact_samples"] += len(result)


def _count_swarm(c, result, *args, **kwargs):
    c["simulate.agent_steps"] += result.n_agents * _sim_config(args, kwargs).n_steps
    c["simulate.majorant_retries"] += result.majorant_retries


def _count_estimator(c, result, data, *args, **kwargs):
    times = getattr(data, "times", None)
    c["simulate.estimator_samples"] += len(times if times is not None else data)


def _count_cosine(c, result, law, x, *args, **kwargs):
    c["closedform.cosine_points"] += np.size(x)


def _count_kummer_u(c, result, a, b, z):
    c["specfun.kummer_u_points"] += np.size(z)


def _count_kummer_1f1(c, result, *args, **kwargs):
    c["specfun.kummer_1f1_calls"] += 1


def _count_oracle(c, result, *args, **kwargs):
    c["oracles.calls"] += 1


def _count_master(c, result, *args, **kwargs):
    c["master.calls"] += 1
    spec = getattr(args[0], "spec", None) if args else None
    if spec is not None:
        c["master.grid_points"] += spec.n


def _targets():
    """(owner, attribute, span name, count function) for every traced binding.

    A count function runs at the outermost span of its name, so a layer
    calling itself or its own public functions is counted once per call
    from outside; ``_PER_CALL`` functions count at every call instead."""
    from erlangshot import cli, closedform, master, oracles, simulate, specfun

    out = [(cli, "write_csv", "cli.write_csv", _count_csv)]
    for name in ("simulate_paths", "simulate_tanh", "simulate_ou_tanh"):
        out.append((simulate, name, "simulate.paths", _count_paths))
    out.append((simulate, "sample_linear_shot_noise_exact", "simulate.exact", _count_exact))
    out.append((simulate, "simulate_swarm", "simulate.swarm", _count_swarm))
    for name in ("ks_distance", "empirical_density", "estimate_speed"):
        out.append((simulate, name, "simulate.estimators", _count_estimator))
    for cls in (closedform.TanhTransientLaw, closedform.TiltedOuLaw):
        out.append((cls, "density", "closedform.cosine", _count_cosine))
        out.append((cls, "cdf_grid", "closedform.cosine", None))
    out.append((closedform.TanhTransientLaw, "mass", "closedform.cosine", None))
    for name in ("continuous_density", "total_mass", "cdf_grid"):
        out.append((closedform.TransientLaw, name, "closedform.transient", None))
    out.append((closedform, "laplace_transform_linear", "closedform.transient", None))
    for name in ("gumbel_wave", "whittaker_wave"):
        out.append((closedform, name, "closedform.wave", None))
    for name in ("profile", "cdf_grid"):
        out.append((closedform.WaveSolution, name, "closedform.wave", None))
    for name in ("stationary_ou_m2", "stationary_m1", "cumulant"):
        out.append((closedform, name, "closedform.stationary", None))
    # closedform imports these by name; cli reaches them through the module
    for owner in (specfun, closedform):
        out.append((owner, "kummer_u", "specfun.kummer_u", _count_kummer_u))
        out.append((owner, "kummer_1f1", "specfun.kummer_1f1", _count_kummer_1f1))
    for name in ("log_gamma", "digamma", "bessel_i", "bessel_k", "erlang_survival",
                 "whittaker_w0"):
        out.append((specfun, name, "specfun.scalar", None))
    for name in ("digamma", "erlang_survival"):
        out.append((closedform, name, "specfun.scalar", None))
    for name in dir(oracles):
        if name.endswith("_ref"):
            out.append((oracles, name, "oracles", _count_oracle))
    for name in ("generator_gap", "differential_generator", "stationary_residual",
                 "fit_convergence_order", "interior_margin"):
        out.append((master, name, "master", _count_master))
    return out


# the cosine laws' mass and cdf_grid evaluate through density
_PER_CALL = {_count_cosine}


class Tracer:
    """Records spans while installed.  Not reentrant across installs: one
    tracer is installed at a time."""

    def __init__(self, track_memory=False):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(Counter)  # op id -> counts
        self.peaks = Counter()  # span name -> peak traced allocation, MB
        self.track_memory = track_memory
        self._root = None
        self._op = None
        self._local = threading.local()
        self._saved = []

    def install(self):
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id, fn, *args, **kwargs):
        """Call ``fn`` under a root ``cli`` span tagged with ``op_id``."""
        span = ["cli", 0.0, 0.0, None, op_id]
        self._root, self._op = len(self.spans), op_id
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._root = self._op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _outermost(self, parent, name):
        while parent is not None:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def _wrap(self, name, fn, count):
        memory = name in PEAK_METRIC

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            op = self._op
            span = [name, 0.0, 0.0, parent, op]
            stack.append(len(self.spans))
            self.spans.append(span)
            measure = memory and self.track_memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], peak)
            if count is not None and (count in _PER_CALL or self._outermost(parent, name)):
                count(self.counts[op], result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(t1 - t0 - covered)
    return out


def layer_totals(tracer, own, op_ids, scale):
    """Per-layer self time (``own`` from ``self_times``), each op's scaled
    by ``scale[op]``, and counts, summed over the given ops."""
    ops = set(op_ids)
    times = Counter()
    for span, own in zip(tracer.spans, own):
        if span[4] in ops:
            times[span[0]] += own * scale[span[4]]
    counts = Counter()
    for op in ops:
        counts.update(tracer.counts.get(op, {}))
    return times, counts


def cycle_metrics(cycles):
    """Median over cycles of each per-layer metric; ``cycles`` is a list of
    (layer times, counts) pairs."""
    out = {}
    for span, metric in TIME_METRIC.items():
        out[metric] = statistics.median(t[span] for t, _ in cycles)
    for metric in COUNT_METRICS:
        out[metric] = statistics.median(c[metric] for _, c in cycles)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out["simulate.ns_per_path_step"] = per(
        out["simulate.paths_s"], out["simulate.path_steps"], 1e9)
    out["simulate.jumps_per_path_step"] = per(
        out["simulate.jumps"], out["simulate.path_steps"])
    out["simulate.ns_per_agent_step"] = per(
        out["simulate.swarm_s"], out["simulate.agent_steps"], 1e9)
    return out
