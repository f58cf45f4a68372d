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


def test_archive_round_trip_has_no_mismatch(perfbench, tmp_path):
    """The archive check perfbench runs on archive-retrieve finds nothing on a
    save/load round trip, and reads only fields that still exist: a renamed
    ``Dataset.grid`` or demo field fails here, not in a benchmark run."""
    from trajtransfer import demos, simbench

    workloads, _ = perfbench
    bench = simbench.Benchmark(demos.Dataset())
    for k, family in enumerate(simbench.CATEGORIES[:3]):
        task = simbench.default_task(family)
        bench.record_demonstration(task, simbench.randomize_scene(task, simbench.generate_object(family, 0), "controlled", k))
    demos.save_dataset(bench.dataset, tmp_path)
    loaded = demos.load_dataset(tmp_path)
    problems, _ = workloads.archive_mismatches(bench.dataset, loaded)
    assert problems == []
    del loaded.demos[min(loaded.demos)]
    assert workloads.archive_mismatches(bench.dataset, loaded) == (["demo ids differ"], 0)
