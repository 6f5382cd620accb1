"""The benchmark tracer's bindings: every function ``perfbench/tracer.py``
wraps is its owner's own attribute, so a refactor that moves, renames or
drops one fails here rather than only under ``perfbench/run.py --trace 1``,
and a traced run puts every original back."""

import importlib
import json
from pathlib import Path

import pytest

from erlangshot import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _bound(targets):
    return [vars(owner)[attr] for owner, attr, _, _ in targets]


def test_every_traced_attribute_is_its_owners_own_callable(tracer):
    # the tracer reads owner.__dict__[attr]: an inherited method or a
    # re-exported name that is gone raises KeyError at install
    targets = tracer._targets()
    for owner, attr, _, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(vars(owner)[attr]), f"{owner.__name__}.{attr}"
    # every timed layer but the root cli span has at least one binding
    assert {name for _, _, name, _ in targets} == set(tracer.TIME_METRIC) - {"cli"}


def test_install_wraps_every_binding_and_uninstall_restores_it(tracer, tmp_path):
    targets = tracer._targets()
    originals = _bound(targets)
    traced = tracer.Tracer()
    traced.install()
    try:
        for wrapper, original in zip(_bound(targets), originals):
            assert wrapper.__wrapped__ is original
        cfg = {"schema_version": 1, "m_values": [1, 2], "grid_sizes": [257, 513, 1025, 2049],
               "gamma": 0.7, "lambda": 0.8, "x_lo": -8.0, "x_hi": 10.0, "seed": 1}
        path = tmp_path / "vm.json"
        path.write_text(json.dumps(cfg))
        code = traced.run_op(0, cli.run_command, "verify-master", str(path),
                             str(tmp_path / "out"), quiet=True)
    finally:
        traced.uninstall()
    assert code == 0
    assert all(now is original for now, original in zip(_bound(targets), originals))
    # 8 gap rows and the generator calls of validation and run, under the op
    assert traced.counts[0]["cli.csv_rows"] == 8
    assert traced.counts[0]["master.calls"] > 0
