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


def test_layer_hooks_read_the_registration_stages(perfbench):
    """perfbench's registration hooks read the stages' arguments and results
    as the stages take and give them: two rollouts of one kettle demo under
    the traced run's targets.  The sweep's counted KD queries match the
    rollout's, the check a traced perfbench run applies; each GICP span
    carries its result's iterations; and the covariances run three times,
    the demo's once and each test cloud's once."""
    from trajtransfer import demos, simbench

    workloads, spans = perfbench
    task, instance = simbench.default_task("kettle"), simbench.generate_object("kettle", 0)
    bench = simbench.Benchmark(demos.Dataset())
    bench.record_demonstration(task, simbench.randomize_scene(task, instance, "controlled", 1))
    tracer = spans.Tracer()
    with tracer.installed(workloads.LAYER_TARGETS):
        results = [
            simbench.run_rollout(bench, task, simbench.randomize_scene(task, instance, "controlled", seed))
            for seed in (2, 3)
        ]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    rollouts = sorted(by_name[spans.ROLLOUT_SPAN], key=lambda span: span.id)
    assert len(rollouts) == 2 and all(r.registration is not None for r in results)
    kd_queries = {span.id: span.attrs["kd_queries"] for span in rollouts}
    assert len(by_name["registration.coarse"]) == 2
    for span in by_name["registration.coarse"]:
        assert span.attrs["kd_queries"] == kd_queries[span.rollout]
    result_of = {span.id: result for span, result in zip(rollouts, results)}
    assert len(by_name["registration.gicp"]) == 2
    for span in by_name["registration.gicp"]:
        assert span.attrs["iterations"] == result_of[span.rollout].registration.iterations
    assert len(by_name["registration.covariances"]) == 3
