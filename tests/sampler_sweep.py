"""Paired timings of the exact samplers of two source trees, side by side in
one process.

    python tests/sampler_sweep.py PARENT_SRC CHANGE_SRC [--calls 21]
        [--cases tanh_0.5,ou_1000] [--control] [--json rows.json]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding an
``erlangshot`` package (for example a ``git archive`` of the parent commit
and the working tree).  Each package is imported under its own name, so
both run in this one process on the same heap and the same core.  A case
makes one warm-up call per side, which also checks that both sides give the
same bytes, then ``--calls`` pairs of calls, the side that goes first
alternating from pair to pair.  Each call is timed by the wall clock.  A
row holds each side's median in ms, the median of the per-pair ratios
change / parent, and the pairs the change won.  With ``--control`` each
case also gets a row ``<case>:control`` that times PARENT_SRC against a
second import of itself: its ratio is the tool's own bias, such as the
side that goes first or the heap that one side left behind.

The cases are those of ``BENCH_31.json``'s ``sampler_times``:
- lin_L: sample_linear_shot_noise_exact(1, L / 20, 1, 2, 0, 20, n, 1);
- tanh_L: sample_tanh_exact(L, 2, 0.5, 1, n, 1);
- ou_L: sample_ou_tanh_exact(1, L / 20, 2, 0.5, 20, n, 1);
- n = 16384 up to lambda t = 40, else 4096;
- tr_4 and tr_7: the samples of perfbench's transient_small and
  transient_times ops (4 times and 100000 paths; 7 times and 200000).

glibc's heap is held steady first: freed blocks of up to 32 MB stay in the
heap, as they do in a long-running process once its largest temporaries
have been freed once, so no call pays for mapping fresh pages.

This file is a tool, not a test: pytest collects only ``test_*.py``.
"""

import argparse
import ctypes
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

_LIN = (0.5, 5, 20, 100, 300)
_TANH = (0.5, 5, 20, 100, 300)
_OU = (0.5, 5, 20, 100, 300, 1000)
_TR = {4: ([0.3, 0.7, 1.0, 1.5], 100_000), 7: ([0.2, 0.5, 0.9, 1.0, 1.4, 2.0, 3.0], 200_000)}


def _size(lt):
    return 16384 if lt <= 40 else 4096


def cases():
    """Each case's name and its call, given a ``simulate`` module."""
    out = {}
    for lt in _LIN:
        out[f"lin_{lt:g}"] = lambda s, lt=lt: s.sample_linear_shot_noise_exact(
            1.0, lt / 20, 1.0, 2, 0.0, 20.0, _size(lt), 1)
    for lt in _TANH:
        out[f"tanh_{lt:g}"] = lambda s, lt=lt: s.sample_tanh_exact(
            float(lt), 2.0, 0.5, 1.0, _size(lt), 1)
    for lt in _OU:
        out[f"ou_{lt:g}"] = lambda s, lt=lt: s.sample_ou_tanh_exact(
            1.0, lt / 20, 2.0, 0.5, 20.0, _size(lt), 1)
    for k, (times, n) in _TR.items():
        out[f"tr_{k}"] = lambda s, times=times, n=n: s.sample_linear_shot_noise_exact(
            1.0, 2.0, 1.0, 1, 0.5, times, n, 1)
    return out


def _simulate(src, name):
    """``erlangshot.simulate`` of the tree at src, imported as ``name``."""
    pkg = Path(src).resolve() / "erlangshot"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.simulate")


def _steady_heap():
    # glibc mallopt: M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3)
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 << 20)
    libc.mallopt(-1, 64 << 20)


def _timed(call, sim):
    start = time.perf_counter()
    call(sim)
    return time.perf_counter() - start


def row(call, parent, change, calls):
    """One case's row: medians in ms, the median paired ratio, pairs won."""
    want, got = call(parent), call(change)
    same = (want.values.tobytes() == got.values.tobytes()
            and want.jump_counts.tobytes() == got.jump_counts.tobytes())
    pairs = []
    for i in range(calls):
        if i % 2:
            c, p = _timed(call, change), _timed(call, parent)
        else:
            p, c = _timed(call, parent), _timed(call, change)
        pairs.append((p, c))
    return {
        "parent_ms": round(1e3 * statistics.median(p for p, _ in pairs), 2),
        "change_ms": round(1e3 * statistics.median(c for _, c in pairs), 2),
        "paired_ratio": round(statistics.median(c / p for p, c in pairs), 3),
        "change_faster_in": f"{sum(c < p for p, c in pairs)}/{calls}",
        "same_bytes": same,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--calls", type=int, default=21)
    parser.add_argument("--cases", default=",".join(cases()))
    parser.add_argument("--control", action="store_true",
                        help="also time PARENT_SRC against itself, one control row per case")
    parser.add_argument("--json", default=None, help="write the rows to this file")
    args = parser.parse_args(argv)
    known = cases()
    names = args.cases.split(",")
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown cases {unknown}; known: {sorted(known)}")
    _steady_heap()
    parent = _simulate(args.parent_src, "erlangshot_parent")
    change = _simulate(args.change_src, "erlangshot_change")
    sides = {"": change}
    if args.control:
        sides[":control"] = _simulate(args.parent_src, "erlangshot_control")
    rows = {}
    for name in names:
        for suffix, other in sides.items():
            rows[name + suffix] = row(known[name], parent, other, args.calls)
            print(name + suffix, json.dumps(rows[name + suffix]), flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 0 if all(r["same_bytes"] for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
