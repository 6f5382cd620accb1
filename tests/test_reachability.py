"""Reachability guard: every function of ``src/erlangshot`` runs in a command.

A child process installs ``sys.setprofile`` before it imports
``erlangshot.cli``, so calls made at import time count too, and
``threading.setprofile``, so calls on the threads the package starts count
as well (the exact samplers draw on a helper thread); then it runs the
smallest valid config of every command branch through ``cli.main``.  The
guard walks the AST of every module, nested defs included, and fails for
each ``def`` whose code never ran, unless ``ALLOWED`` names it with the
reason it stays.  An allowlisted entry must still exist and still not run,
so an entry leaves the list with its function, or when a command starts to
call it, in the same change.  An entry is added, with its one-line reason,
for a function that must stay unreached: one that ``perfbench/tracer.py``
binds must be added when it loses its last command caller, since the
list's traced entries are exactly the tracer's unreached bindings.

To allowlist a function, add its module-qualified ``__qualname__``
(``module.Class.method``, ``module.outer.<locals>.inner``) with one line
saying why no command runs it and what would let it go.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "erlangshot"
PERFBENCH = SRC.parent / "perfbench"

# reason of a function that perfbench/tracer.py binds by name
_TRACED = "bound by perfbench/tracer.py; leaves with its binding (ROADMAP items 7 and 8)"
# reason of a function only such a traced function calls
_UNDER_TRACED = "called only by a traced function that no command runs (ROADMAP items 7 and 8)"
_WAVE_RESIDUAL = "awaits wave's profile residual, its caller (ROADMAP item 18)"

ALLOWED = {
    # the Euler engine: no command steps a path since the exact samplers
    "simulate.simulate_paths": _TRACED,
    "simulate.simulate_tanh": _TRACED,
    "simulate.simulate_ou_tanh": _TRACED,
    "simulate._euler": _UNDER_TRACED,
    "simulate.simulate_paths.<locals>.step": _UNDER_TRACED,
    "simulate.simulate_tanh.<locals>.step": _UNDER_TRACED,
    "simulate.simulate_ou_tanh.<locals>.step": _UNDER_TRACED,
    "simulate._erlang_jumps": _UNDER_TRACED,
    "simulate._laplace_jumps": _UNDER_TRACED,
    "simulate.TrajectoryBatch.__post_init__": _UNDER_TRACED,
    "simulate.TrajectoryBatch.final_positions": _UNDER_TRACED,
    "simulate.TrajectoryBatch.tail_window_mean": _UNDER_TRACED,
    # the pointwise cosine sum: the commands tabulate through density_grid
    "closedform.TanhTransientLaw.density": _TRACED,
    "closedform.TanhTransientLaw.mass": _TRACED,
    "closedform.TanhTransientLaw.cdf_grid": _TRACED,
    "closedform.TiltedOuLaw.density": _TRACED,
    "closedform.TiltedOuLaw.cdf_grid": _TRACED,
    "closedform._cosine_sum": _UNDER_TRACED,
    "closedform.TransientLaw.cdf_grid": _TRACED,
    "master.wave_residual": _WAVE_RESIDUAL,
    "master.ExpDecayCentered.__post_init__": _WAVE_RESIDUAL,
    "master.ExpDecayCentered.rate": _WAVE_RESIDUAL,
    "specfun._entry": "names the failing entry in an error, which exits 2",
}


# The child: record the code of every Python call, on every thread, from
# before the driver runs, then print the (file, first line) of each under
# the root directory and the driver's ``result``.
_PROFILER = """
import json, os, sys, threading
root, driver = sys.argv[1:]
codes = set()

def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

namespace = {}
threading.setprofile(record)
sys.setprofile(record)
exec(driver, namespace)
sys.setprofile(None)
threading.setprofile(None)
ran = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
print(json.dumps({"ran": sorted(r for r in ran if r[0].startswith(root)),
                  "result": namespace.get("result")}))
"""

# The driver, after an assignment of ``runs``: each run's exit code through
# cli.main, its printed metrics kept off the child's stdout
_COMMANDS = """
import contextlib, io, json, tempfile
from pathlib import Path
from erlangshot import cli
result = []
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for i, (command, cfg) in enumerate(runs):
        path = Path(tmp, f"{i}.json")
        path.write_text(json.dumps(cfg))
        result.append(cli.main([command, "--config", str(path), "--out", str(Path(tmp, str(i)))]))
"""


def _profile(driver, root, path):
    """Files and first lines of the code under ``root`` that ran while the
    child executed ``driver`` with ``path`` on its import path, and the
    driver's ``result``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(path), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _PROFILER, os.path.realpath(root), driver],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    return {tuple(r) for r in out["ran"]}, out["result"]


def _defs(package):
    """(module-qualified __qualname__, file, first line) of every def in the
    modules under ``package``; the first line is a decorator's, as in the
    code object."""
    out = []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        file = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((f"{module}.{name}", file, first))
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return out


def _unreached(package, ran):
    """Qualified names of the defs under ``package`` whose code is not in
    ``ran``."""
    return sorted({name for name, file, line in _defs(package) if (file, line) not in ran})


def _wave(**over):
    cfg = {"schema_version": 1, "m_values": [1, 2], "beta_values": [1.0], "gamma": 1.0,
           "xi_lo": -10.0, "xi_hi": 36.0, "n_xi": 101}
    return dict(cfg, **over)


def _master(drift):
    return {"schema_version": 1, "m_values": [1, 2, 3, 4], "grid_sizes": [257, 513, 1025, 2049],
            "gamma": 0.7, "lambda": 0.8, "x_lo": -8.0, "x_hi": 10.0, "drift": drift,
            "sigma": 0.3, "n_test_densities": 1}


def _stationary(m):
    return {"schema_version": 1, "m": m, "alpha": 1.0, "lambda": 2.0, "gamma": 1.0,
            "grid": {"x_lo": 1e-4, "x_hi": 40.0, "n": 41},
            "sim": {"dt": 0.5, "t_end": 5.0, "n_paths": 100}, "n_bins": 5}


def _transient(lam):
    return {"schema_version": 1, "alpha": 1.0, "lambda": lam, "gamma": 1.0, "x0": 0.5,
            "times": [0.5], "n_samples": 100}


def _tanh(**over):
    cfg = {"schema_version": 1, "alpha": 1.0, "lambda": 1.0, "gamma": 2.0, "beta": 0.5,
           "t": 0.5, "sim": {"dt": 0.05, "t_end": 0.5, "n_paths": 100}}
    return dict(cfg, **over)


# the smallest valid config of every command branch: wave with and without
# its swarm at m = 1 and 2; verify-master with each drift kind, sigma > 0
# and m = 1 to 4; stationary at m = 1 and 2; transient at an integer and a
# non-integer lambda / alpha, so 1F1 takes its polynomial, series and
# large-argument routes; tanh with and without its stationary_sim block
RUNS = [
    ("wave", _wave()),
    ("wave", _wave(swarm={"n_agents": 2, "dt": 0.1, "t_end": 1.8, "record_stride": 1})),
    *(("verify-master", _master(drift)) for drift in (
        {"kind": "zero"}, {"kind": "constant", "k": 0.5},
        {"kind": "linear_restoring", "alpha": 0.6}, {"kind": "tanh", "beta": 0.5})),
    ("stationary", _stationary(1)),
    ("stationary", _stationary(2)),
    ("transient", _transient(2.0)),
    ("transient", _transient(2.5)),
    ("tanh", _tanh()),
    ("tanh", _tanh(stationary_sim={"dt": 0.05, "t_end": 2.0, "n_paths": 100})),
    ("verify-specfun", {"schema_version": 1, "n_samples": 100}),
]


@pytest.fixture(scope="module")
def commands_unreached():
    ran, codes = _profile(f"runs = {RUNS!r}\n{_COMMANDS}", PACKAGE, SRC)
    # a run that exits 2 stops at validation: its branch would not count
    assert all(code in (0, 1) for code in codes), list(zip([c for c, _ in RUNS], codes))
    return _unreached(PACKAGE, ran)


def test_every_function_runs_in_some_command(commands_unreached):
    missed = sorted(set(commands_unreached) - set(ALLOWED))
    assert not missed, f"no command runs {missed}: call, move into tests/ or allowlist them"


def test_every_allowlisted_function_exists_and_still_does_not_run(commands_unreached):
    names = {name for name, _, _ in _defs(PACKAGE)}
    assert not set(ALLOWED) - names, "allowlisted but gone: drop from ALLOWED"
    ran = sorted(set(ALLOWED) - set(commands_unreached))
    assert not ran, f"allowlisted but now run by a command: drop {ran} from ALLOWED"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_traced_entries_are_the_tracers_unreached_bindings(commands_unreached, monkeypatch):
    # when the benchmark drops a binding, its function and the helpers only
    # it calls fail here and can go
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    bound = set()
    for owner, attr, _, _ in tracer._targets():
        fn = vars(owner)[attr]
        bound.add(f"{fn.__module__.removeprefix('erlangshot.')}.{fn.__qualname__}")
    traced = {name for name, reason in ALLOWED.items() if reason == _TRACED}
    assert traced == bound & set(commands_unreached)


def test_the_checker_reports_a_def_that_never_runs(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "mod.py").write_text(
        "import functools\n\n\n"
        "def used():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n\n\n"
        "class Box:\n"
        "    @functools.lru_cache\n"
        "    def ready(self):\n"
        "        return 2\n\n"
        "    def unused(self):\n"
        "        return 3\n"
    )
    ran, _ = _profile("import mod\nmod.used()\nmod.Box().ready()\n", package, package)
    assert _unreached(package, ran) == ["mod.Box.unused"]
