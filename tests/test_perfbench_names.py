"""The names perfbench wraps still exist where it looks them up.

perfbench's tracer replaces each target with ``setattr`` on the owner it
resolves, after reading the original from the owner's ``__dict__``; a target
whose name was deleted or moved would fail only when the benchmark runs.
This test reads ``perfbench/`` and changes nothing in it.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads"), importlib.import_module("spans")


def test_every_layer_target_resolves(perfbench):
    workloads, spans = perfbench
    assert workloads.LAYER_TARGETS
    for target in workloads.LAYER_TARGETS:
        owner, name = spans._resolve(target.module, target.attr)
        assert name in owner.__dict__, f"{target.module}.{target.attr} ({target.span})"
        assert callable(owner.__dict__[name])
