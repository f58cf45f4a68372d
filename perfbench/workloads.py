"""The benchmark workloads and the phases every run goes through.

Each run builds its inputs from the workload seed, then goes through the same
phases, so every end-to-end metric is measured on every workload:

* set-up: object instances, scene specs and the demos the rollouts retrieve
  from, recorded with ``Benchmark.record_demonstration``;
* ingest: the set-up demos, and on ``archive-retrieve`` a slice of its 60
  demos recorded again;
* archive: ``save_dataset`` then ``load_dataset``, with the loaded archive
  compared field by field with the saved one;
* queries: ``hierarchical_retrieve`` against the loaded and the saved
  dataset, both timed, which must give the same demo;
* rollouts against the loaded archive, then a report with ``emit_report``.

A first, untimed round warms every code path up.  The timed part is cut into
rounds; every round sets up once and runs a slice of every phase, so each
metric samples the whole run, and a metric is a median over its samples or
over the rounds, so a slow stretch of a shared host does not set it.  Every
round also times fixed reference computations, and each time taken in the
round is scaled by the matching one (see ``reference.py``), because the host's
speed changes between runs by more than any bound could allow.

Work is sized from ``--seconds`` at a fixed rate (:data:`NOMINAL_SECONDS`
gives the sizes written below), not by the clock, so two commits run the same
inputs and a faster program simply finishes sooner.

Everything the benchmark calls in ``trajtransfer`` it calls through the module
attribute, so that the wrappers of a traced run see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from trajtransfer import demos, retrieval, simbench, stats
from trajtransfer.registration import GicpParams
from trajtransfer.se3 import Pose, compose, invert, rotation_angle

from reference import Reference
from reference import scales as reference_scales
from spans import ROLLOUT_SPAN, Target, Tracer

FAMILIES = simbench.CATEGORIES
NOMINAL_SECONDS = 20
TAXONOMY = (
    simbench.FAILURE_NONE,
    simbench.FAILURE_RETRIEVAL,
    simbench.FAILURE_REGISTRATION,
    simbench.FAILURE_EXECUTION,
    simbench.FAILURE_SEGMENTATION,
)
# About one kettle rollout in eight flips; below this many kettle rollouts (a
# run much shorter than nominal) a run without a flip is plausible.
MIN_KETTLE_FOR_FLIP_CHECK = 40
REFERENCE_CALLS = 5  # calls of each reference timed at the start and at the end of each round


def derive_seed(seed: int, *tags) -> int:
    """Stable 32-bit seed for one input, from the workload seed and a tag."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def scaled(nominal: int, seconds: float) -> int:
    return max(1, round(nominal * seconds / NOMINAL_SECONDS))


# --- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """What one set-up produces; the program sees only these."""

    bench: simbench.Benchmark  # demos recorded during set-up (may be empty)
    ingest_s: float  # time spent recording those demos
    demo_specs: list  # (task, scene) of the archive's demos, recorded before the rounds
    queries: list  # (task, scene) retrieval queries
    rollouts: list  # (task, scene) rollouts


def _tasks():
    return {f: simbench.default_task(f) for f in FAMILIES}


def _record(bench, specs) -> float:
    t0 = perf_counter()
    for task, scene in specs:
        bench.record_demonstration(task, scene)
    return perf_counter() - t0


def _one_demo_per_family(seed, tasks):
    """Demos of instance 0 in controlled mode, one per family."""
    specs = []
    for i, f in enumerate(FAMILIES):
        inst = simbench.generate_object(f, 0)
        specs.append((tasks[f], simbench.randomize_scene(tasks[f], inst, "controlled", derive_seed(seed, "demo", i))))
    bench = simbench.Benchmark(demos.Dataset())
    return bench, _record(bench, specs)


def setup_rollout_seen(seed: int, seconds: float) -> Inputs:
    """30 rounds of one controlled-mode scene of instance 0 per family."""
    tasks = _tasks()
    bench, ingest_s = _one_demo_per_family(seed, tasks)
    inst = {f: simbench.generate_object(f, 0) for f in FAMILIES}
    rollouts = [
        (tasks[f], simbench.randomize_scene(tasks[f], inst[f], "controlled", derive_seed(seed, "test", r, i)))
        for r in range(scaled(30, seconds))
        for i, f in enumerate(FAMILIES)
    ]
    return Inputs(bench, ingest_s, [], rollouts[: 6 * scaled(20, seconds)], rollouts)


def setup_rollout_unseen_occluded(seed: int, seconds: float) -> Inputs:
    """40 rounds over unseen instances in thousand mode, occluded and noisy."""
    tasks = _tasks()
    bench, ingest_s = _one_demo_per_family(seed, tasks)
    unseen = {f: [simbench.generate_object(f, 1000 + u) for u in range(10)] for f in FAMILIES}
    # one extra kettle per round: the yaw-flip check needs enough kettle
    # rollouts that a seed without a flip is vanishingly rare
    order = FAMILIES + ("kettle",)
    rollouts = [
        (
            tasks[f],
            simbench.randomize_scene(
                tasks[f], unseen[f][r % 10], "thousand", derive_seed(seed, "test", r, i),
                occlusion_fraction=0.4, noise_sigma=0.002,
            ),
        )
        for r in range(scaled(40, seconds))
        for i, f in enumerate(order)
    ]
    return Inputs(bench, ingest_s, [], rollouts[: 7 * scaled(20, seconds)], rollouts)


def setup_archive_retrieve(seed: int, seconds: float) -> Inputs:
    """60 demos (10 per family, one per instance), 144 queries, 96 rollouts."""
    tasks = _tasks()
    inst = {f: [simbench.generate_object(f, j) for j in range(10)] for f in FAMILIES}
    demo_specs = [
        (tasks[f], simbench.randomize_scene(tasks[f], inst[f][j % 10], "controlled", derive_seed(seed, "demo", i, j)))
        for j in range(10)
        for i, f in enumerate(FAMILIES)
    ]
    queries = [
        (tasks[f], simbench.randomize_scene(tasks[f], inst[f][r % 10], "controlled", derive_seed(seed, "query", r, i)))
        for r in range(scaled(24, seconds))
        for i, f in enumerate(FAMILIES)
    ]
    bench = simbench.Benchmark(demos.Dataset())
    return Inputs(bench, 0.0, demo_specs, queries, queries[: 6 * scaled(16, seconds)])


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    rounds: int  # timed rounds the run is cut into; each sets up once
    round_trips: int  # archive round trips per round
    reingest_groups: int = 0  # groups of one demo per family recorded again per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rollout-seen", setup_rollout_seen, rounds=10, round_trips=2),
        Workload("rollout-unseen-occluded", setup_rollout_unseen_occluded, rounds=10, round_trips=2),
        Workload("archive-retrieve", setup_archive_retrieve, rounds=8, round_trips=1, reingest_groups=1),
    )
}


# --- output checks -----------------------------------------------------------


def _demo_fields(d):
    """Every stored field except trajectory rotations (see ``archive_mismatches``)."""
    return (
        d.description,
        d.micro_skill,
        d.object_instance_id,
        d.object_cloud.points.tolist(),
        [(s.time_index, s.gripper, s.pose.translation.tolist()) for s in d.trajectory],
        d.embedding.values.tolist(),
    )


def archive_mismatches(saved, loaded) -> tuple[list, int]:
    """(fields in which a loaded archive differs from the saved dataset,
    trajectory rotations that changed in the round trip).

    Loading rebuilds each rotation with ``Pose``, which normalises the
    quaternion again; that is not idempotent in floating point, so some
    rotations move by an ulp although the file holds them exactly.  Each
    loaded rotation must equal ``Pose`` applied to the saved one bit for bit;
    how many differ from the saved value is returned, not treated as a
    mismatch.
    """
    if sorted(saved.demos) != sorted(loaded.demos):
        return ["demo ids differ"], 0
    problems = []
    if {k: sorted(v) for k, v in saved.skill_index.items()} != {
        k: sorted(v) for k, v in loaded.skill_index.items()
    }:
        problems.append("skill index differs")
    if saved.grid != loaded.grid:
        problems.append("grid differs")
    moved = 0
    for demo_id in sorted(saved.demos):
        a, b = saved.demos[demo_id], loaded.demos[demo_id]
        if _demo_fields(a) != _demo_fields(b):
            problems.append(f"demo {demo_id} differs")
            continue
        for x, y in zip(a.trajectory, b.trajectory):
            if Pose(x.pose.rotation).rotation.tolist() != y.pose.rotation.tolist():
                problems.append(f"demo {demo_id}: a trajectory rotation differs")
                break
            moved += x.pose.rotation.tolist() != y.pose.rotation.tolist()
    return problems, moved


def taxonomy_problems(traces) -> list:
    """Rollouts whose failure class is unknown or disagrees with ``success``."""
    bad = []
    for i, t in enumerate(traces):
        if t["failure_class"] not in TAXONOMY:
            bad.append(f"rollout {i}: unknown failure class {t['failure_class']!r}")
        elif t["success"] != (t["failure_class"] == simbench.FAILURE_NONE):
            bad.append(f"rollout {i}: success {t['success']} with class {t['failure_class']}")
    return bad


def is_yaw_flip(result) -> bool:
    """Registration failure whose rotation is off by more than 90 degrees."""
    if result.failure_class != simbench.FAILURE_REGISTRATION or result.registration is None:
        return False
    rel = compose(invert(result.registration.delta), result.gt_delta)
    return rotation_angle(rel.rotation) > math.radians(90.0)


# --- computed counts ---------------------------------------------------------


def coarse_kd_queries(n_demo_points: int, yaw_steps: int) -> int:
    """KD queries of one coarse sweep: yaw steps x the subsampled demo cloud.

    Mirrors the subsample in ``registration.coarse_align`` (every step-th point
    once the cloud has more than 600).
    """
    step = n_demo_points // 600 + 1 if n_demo_points > 600 else 1
    return yaw_steps * len(range(0, n_demo_points, step))


# --- span targets ------------------------------------------------------------


def _rollout_after(tracer, span, args, kwargs, result):
    bench = args[0]
    params = kwargs.get("params", args[5] if len(args) > 5 else GicpParams())
    if result.retrieval is not None:
        cloud = bench.dataset.demos[result.retrieval.demo_id].object_cloud
        span.attrs["kd_queries"] = coarse_kd_queries(len(cloud), params.yaw_steps)
    return result


def _coarse_after(tracer, span, args, kwargs, result):
    yaw_steps = kwargs.get("yaw_steps", args[2] if len(args) > 2 else GicpParams().yaw_steps)
    span.attrs["kd_queries"] = coarse_kd_queries(len(args[0]), yaw_steps)
    return result


def _gicp_before(tracer, span, args, kwargs):
    tracer.gicp_demo_cloud = args[0]


def _gicp_after(tracer, span, args, kwargs, result):
    tracer.gicp_demo_cloud = None
    span.attrs["iterations"] = result.iterations
    span.attrs["converged"] = result.converged
    return result


def _covariances_after(tracer, span, args, kwargs, result):
    if args[0] is tracer.gicp_demo_cloud:
        span.attrs["demo_key"] = hashlib.sha1(args[0].points.tobytes()).hexdigest()
    return result


def _retrieve_after(tracer, span, args, kwargs, result):
    span.attrs["candidates"] = result.candidate_count
    span.attrs["points"] = len(args[2])
    return result


# The untraced run wraps only run_rollout: its span is the rollout's latency,
# and its hook derives the coarse sweep's KD queries from the output.
PROBE_TARGETS = (Target(ROLLOUT_SPAN, "trajtransfer.simbench", "run_rollout", after=_rollout_after),)

LAYER_TARGETS = PROBE_TARGETS + (
    Target("simbench.render", "trajtransfer.simbench", "render_partial_cloud"),
    Target("simbench.classify", "trajtransfer.simbench", "classify_failure"),
    Target("simbench.record_demo", "trajtransfer.simbench", "Benchmark.record_demonstration"),
    Target("policies.augment", "trajtransfer.simbench", "mask_augment"),
    Target("policies.augment", "trajtransfer.simbench", "jitter_cloud"),
    Target("policies.linear_path", "trajtransfer.simbench", "plan_linear_path"),
    Target("policies.replay", "trajtransfer.simbench", "execute_replay"),
    Target("embedding.embed", "trajtransfer.embedding", "occupancy_embedding"),
    Target("retrieval.retrieve", "trajtransfer.simbench", "hierarchical_retrieve", after=_retrieve_after),
    Target("retrieval.retrieve", "trajtransfer.retrieval", "hierarchical_retrieve", after=_retrieve_after),
    Target("registration.delta", "trajtransfer.simbench", "estimate_delta"),
    Target("registration.coarse", "trajtransfer.registration", "coarse_align", after=_coarse_after),
    Target(
        "registration.gicp", "trajtransfer.registration", "generalized_icp",
        before=_gicp_before, after=_gicp_after,
    ),
    Target(
        "registration.covariances", "trajtransfer.registration", "estimate_covariances",
        after=_covariances_after,
    ),
    Target("demos.ingest", "trajtransfer.demos", "Dataset.ingest"),
    Target("demos.save", "trajtransfer.demos", "save_dataset"),
    Target("demos.load", "trajtransfer.demos", "load_dataset"),
    Target("stats.emit_report", "trajtransfer.stats", "emit_report"),
)


# --- one pass over a workload ------------------------------------------------


@dataclass
class Timings:
    """Every timed sample of a pass, with the round it was taken in."""

    setups: list = field(default_factory=list)  # (round, s)
    ingests: list = field(default_factory=list)  # (round, demos, s) of groups of one demo per family
    trips: list = field(default_factory=list)  # (round, save s, load s)
    queries: list = field(default_factory=list)  # (round, s)
    loops: list = field(default_factory=list)  # (round, rollouts, wall s, CPU s) of each rollout loop
    rollouts: list = field(default_factory=list)  # (round, s)
    report_s: float = 0.0


@dataclass
class Pass:
    """Everything one pass measured, checked and produced."""

    metrics: dict = field(default_factory=dict)  # end-to-end, scaled by the references
    raw_metrics: dict = field(default_factory=dict)  # the same, as measured
    problems: list = field(default_factory=list)  # failed checks and calls that raised
    attempted: int = 0
    outputs: dict = field(default_factory=dict)  # compared between passes
    computed: dict = field(default_factory=dict)  # counts derived from outputs
    wall_s: float = 0.0
    timings: Timings = field(default_factory=Timings)
    tracer: Tracer = field(default_factory=Tracer)
    reference: Reference = field(default_factory=Reference)

    def fail(self, message: str) -> None:
        self.problems.append(message)


def _chunks(items, n):
    """``n`` contiguous slices of ``items`` of near-equal length."""
    return [items[len(items) * k // n : len(items) * (k + 1) // n] for k in range(n)]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in sorted(path.iterdir()) if p.is_file())


def _record_groups(bench, specs) -> list:
    """Record ``specs``; (demos, s) of each group of one demo per family."""
    return [(len(group), _record(bench, group)) for group in _chunks(specs, len(specs) // len(FAMILIES))]


def _archive_round_trip(dataset, archive: Path, out: Pass):
    """Save into the empty directory ``archive``, load it back and compare.

    Returns the loaded dataset and the save and load times.
    """
    t0 = perf_counter()
    demos.save_dataset(dataset, archive)
    t1 = perf_counter()
    loaded = demos.load_dataset(archive)
    t2 = perf_counter()
    out.attempted += 2
    problems, moved = archive_mismatches(dataset, loaded)
    for problem in problems:
        out.fail(f"archive round trip: {problem}")
    out.outputs["rotations_moved_by_load"] = moved
    out.outputs["archive_bytes"] = _dir_bytes(archive)
    return loaded, t1 - t0, t2 - t1


def _queries(inputs, items, loaded, out: Pass, times) -> int:
    """Retrieve each query from the loaded and the saved dataset, timing both.

    Returns the candidates scored.
    """
    candidates = 0
    for task, scene in items:
        cloud = simbench._observed_cloud(scene)  # the cloud a rollout of this scene sees
        out.attempted += 1
        try:
            t0 = perf_counter()
            got = retrieval.hierarchical_retrieve(loaded, task.description, cloud)
            t1 = perf_counter()
            want = retrieval.hierarchical_retrieve(inputs.bench.dataset, task.description, cloud)
            times += [t1 - t0, perf_counter() - t1]
        except Exception as e:  # a query must never raise; count it and go on
            out.fail(f"query raised {type(e).__name__}: {e}")
            continue
        if (got.demo_id, got.similarity) != (want.demo_id, want.similarity):
            out.fail(f"query retrieves {got.demo_id} from the loaded archive, {want.demo_id} from the saved one")
        out.outputs.setdefault("query_ids", []).append(got.demo_id)
        candidates += got.candidate_count + want.candidate_count
    return candidates


def _rollouts(inputs, items, dataset, out: Pass, done) -> tuple:
    """Run ``items`` against ``dataset``; returns (rollouts, wall s, CPU s)."""
    bench = simbench.Benchmark(dataset, inputs.bench.demo_meta)
    cpu0, t0 = process_time(), perf_counter()
    for task, scene in items:
        out.attempted += 1
        try:
            done.append((task, simbench.run_rollout(bench, task, scene)))
        except Exception as e:  # run_rollout records failures; raising is a defect
            out.fail(f"run_rollout raised {type(e).__name__}: {e}")
    return len(items), perf_counter() - t0, process_time() - cpu0


def _report(done, outdir: Path, out: Pass):
    """Traces, per-family table and report of the rollouts; returns the traces."""
    t0 = perf_counter()
    outdir.mkdir(parents=True, exist_ok=True)
    traces, counts = [], {}
    for task, res in done:
        t = res.to_trace_dict()
        t["micro_skill"] = task.micro_skill
        t["condition"] = task.category
        traces.append(t)
        c = counts.setdefault(task.category, [0, 0])
        c[0] += int(res.success)
        c[1] += 1
    trace_path = outdir / "traces.jsonl"
    trace_path.write_text("".join(json.dumps(t, sort_keys=True) + "\n" for t in traces))
    table = stats.SuccessTable()
    for label in sorted(counts):
        table.add(label, *counts[label])
    summary = stats.emit_report(table, None, trace_path, outdir)
    out.timings.report_s = perf_counter() - t0

    for problem in taxonomy_problems(traces):
        out.fail(problem)
    recomputed = stats.table_from_traces(trace_path)
    if sorted((r.label, r.k, r.n) for r in recomputed.rows) != sorted((r.label, r.k, r.n) for r in table.rows):
        out.fail("table_from_traces does not reproduce the table")
    out.outputs["traces"] = trace_path.read_text()
    out.outputs["trace_sha256"] = summary["trace_sha256"]
    return traces


def _warm_up(inputs, out: Pass) -> None:
    """One query and one rollout per family against the in-memory dataset, untimed."""
    scratch = Pass()
    first = inputs.rollouts[: len(FAMILIES)]
    _queries(inputs, first, inputs.bench.dataset, scratch, [])
    _rollouts(inputs, first, inputs.bench.dataset, scratch, [])
    out.problems += scratch.problems


def run_pass(workload: str, seed: int, seconds: float, workdir: Path, targets) -> Pass:
    """Run every phase of ``workload`` once, with ``targets`` wrapped."""
    w = WORKLOADS[workload]
    out = Pass()
    t = out.timings
    scales, done = [], []  # per round: reference kind -> scale, see ``reference.scales``
    embeds = candidates = trips = 0
    t_pass = perf_counter()
    with out.tracer.installed(targets):
        # untimed: the inputs the rounds use, the archive's demos and a warm-up
        inputs = w.setup(seed, seconds)
        _record(inputs.bench, inputs.demo_specs)
        _warm_up(inputs, out)
        out.reference.sample(REFERENCE_CALLS)
        out.tracer.spans.clear()
        out.reference = Reference()  # drops the warm-up calls
        query_rounds = _chunks(inputs.queries, w.rounds)
        rollout_rounds = _chunks(inputs.rollouts, w.rounds)
        reingest_rounds = _chunks(inputs.demo_specs, w.rounds)

        for rnd in range(w.rounds):
            reference = out.reference.sample(REFERENCE_CALLS)
            t0 = perf_counter()
            fresh = w.setup(seed, seconds)
            t.setups.append((rnd, perf_counter() - t0))
            recorded = len(fresh.bench.dataset)
            if recorded:
                t.ingests.append((rnd, recorded, fresh.ingest_s))
            if w.reingest_groups:
                specs = reingest_rounds[rnd][: w.reingest_groups * len(FAMILIES)]
                t.ingests += [(rnd, k, sec) for k, sec in _record_groups(fresh.bench, specs)]
                recorded += len(specs)
                if not set(fresh.bench.dataset.demos) <= set(inputs.bench.dataset.demos):
                    out.fail("recording a demo again gave a demo the archive does not hold")
            out.attempted += recorded
            embeds += recorded

            for _ in range(w.round_trips):
                archive = workdir / f"archive-{trips}"
                loaded, save_s, load_s = _archive_round_trip(inputs.bench.dataset, archive, out)
                t.trips.append((rnd, save_s, load_s))
                shutil.rmtree(archive)
                trips += 1
            query_times = []
            candidates += _queries(inputs, query_rounds[rnd], loaded, out, query_times)
            t.queries += [(rnd, sec) for sec in query_times]
            t.loops.append((rnd, *_rollouts(inputs, rollout_rounds[rnd], loaded, out, done)))
            for kind, ts in out.reference.sample(REFERENCE_CALLS).items():
                reference[kind] += ts
            scales.append(reference_scales(reference))
        traces = _report(done, workdir / "report", out)
    out.wall_s = perf_counter() - t_pass

    if workload == "rollout-unseen-occluded":
        kettle = [r for task, r in done if task.category == "kettle"]
        flips = sum(is_yaw_flip(r) for r in kettle)
        out.outputs["kettle_yaw_flips"] = flips
        if len(kettle) >= MIN_KETTLE_FOR_FLIP_CHECK and flips == 0:
            out.fail(f"no kettle yaw flip in {len(kettle)} kettle rollouts")

    rollout_spans = [s for s in out.tracer.spans if s.name == ROLLOUT_SPAN]
    if len(rollout_spans) != len(done):
        out.fail(f"{len(rollout_spans)} rollout spans for {len(done)} rollouts")
    rounds = [rnd for rnd, k, _, _ in t.loops for _ in range(k)]
    t.rollouts = [(rnd, span.duration) for rnd, span in zip(rounds, rollout_spans)]
    success_rate = sum(r.success for _, r in done) / len(done)
    out.raw_metrics = end_to_end(t, [dict.fromkeys(scales[0], 1.0)] * w.rounds, success_rate)
    out.metrics = end_to_end(t, scales, success_rate)

    retrieved = [tr for tr in traces if tr["retrieval"] is not None]
    out.computed = {
        "registration.coarse_kd_queries": sum(s.attrs.get("kd_queries", 0) for s in rollout_spans),
        "demos.archive_bytes": out.outputs["archive_bytes"],
        "embedding.calls": embeds + len(t.queries) + len(retrieved),
        "retrieval.candidates": candidates + sum(tr["retrieval"]["candidate_count"] for tr in retrieved),
    }
    return out


def end_to_end(t: Timings, scales: list, success_rate: float) -> dict:
    """End-to-end metrics, each time multiplied by its round's scale.

    The archive's save and load are scaled by the ``text`` reference, every
    other time by ``compute``.
    """

    def at_reference(rnd, sec, kind="compute"):
        return sec * scales[rnd][kind]

    loops = [(k, at_reference(rnd, wall), at_reference(rnd, cpu)) for rnd, k, wall, cpu in t.loops if k]
    durations = [at_reference(*x) for x in t.rollouts]
    queries = [at_reference(*x) for x in t.queries]
    return {
        "setup_s": statistics.median(at_reference(*x) for x in t.setups),
        "rollout_p50_ms": 1e3 * percentile(durations, 50),
        "rollout_p90_ms": 1e3 * percentile(durations, 90),
        "rollouts_per_s": statistics.median(k / wall for k, wall, _ in loops),
        "cpu_ms_per_rollout": 1e3 * statistics.median(cpu / k for k, _, cpu in loops),
        "success_rate": success_rate,
        "evaluate_wall_s": len(loops) * statistics.median(wall for _, wall, _ in loops)
        + t.report_s * statistics.median(sc["compute"] for sc in scales),
        "ingest_demos_per_s": statistics.median(k / at_reference(rnd, sec) for rnd, k, sec in t.ingests),
        "archive_save_s": statistics.median(at_reference(rnd, save, "text") for rnd, save, _ in t.trips),
        "archive_load_s": statistics.median(at_reference(rnd, load, "text") for rnd, _, load in t.trips),
        "retrieve_p50_ms": 1e3 * percentile(queries, 50),
        "retrieve_p90_ms": 1e3 * percentile(queries, 90),
    }


def probe_cpu_per_wall(workload: str, seed: int) -> float:
    """CPU over wall time of two rollouts per family, after the warm-up."""
    inputs = WORKLOADS[workload].setup(seed, NOMINAL_SECONDS)
    _record(inputs.bench, inputs.demo_specs)
    _warm_up(inputs, Pass())
    _, wall, cpu = _rollouts(inputs, inputs.rollouts[: 2 * len(FAMILIES)], inputs.bench.dataset, Pass(), [])
    return cpu / wall


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# --- per-layer metrics from a traced pass -------------------------------------

# span name -> unit of its per-call percentiles
LAYER_SPANS = {
    "simbench.rollout": "ms",
    "simbench.render": "ms",
    "simbench.classify": "ms",
    "simbench.record_demo": "ms",
    "policies.augment": "ms",
    "policies.linear_path": "ms",
    "policies.replay": "ms",
    "embedding.embed": "ms",
    "retrieval.retrieve": "ms",
    "registration.delta": "ms",
    "registration.coarse": "ms",
    "registration.covariances": "ms",
    "registration.gicp": "ms",
    "demos.ingest": "ms",
    "demos.save": "s",
    "demos.load": "s",
    "stats.emit_report": "s",
}

# counts the benchmark derives from the program's outputs in the untraced
# pass; the traced pass counts the same things at the wrappers
COMPUTED_COUNTS = (
    "registration.coarse_kd_queries",
    "demos.archive_bytes",
    "embedding.calls",
    "retrieval.candidates",
)


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of a traced pass, plus the counts its wrappers saw."""
    by_name = {}
    for s in p.tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    m = {}
    for name, unit in LAYER_SPANS.items():
        spans = by_name.get(name, [])
        scale = 1e3 if unit == "ms" else 1.0
        durations = [s.duration for s in spans]
        m[f"{name}_{unit}"] = scale * percentile(durations, 50)
        m[f"{name}_p90_{unit}"] = scale * percentile(durations, 90)
        m[f"{name}_self_s"] = sum(s.self_s for s in spans)
        m[f"{name}_calls"] = len(spans)

    gicp = by_name.get("registration.gicp", [])
    m["registration.gicp_iterations"] = statistics.mean(s.attrs["iterations"] for s in gicp) if gicp else 0.0
    m["registration.gicp_converged_share"] = (
        sum(s.attrs["converged"] for s in gicp) / len(gicp) if gicp else 0.0
    )
    keys = [s.attrs["demo_key"] for s in by_name.get("registration.covariances", []) if "demo_key" in s.attrs]
    m["registration.demo_cov_redundant_share"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
    in_rollout = [s for s in by_name.get("retrieval.retrieve", []) if s.rollout is not None]
    m["simbench.observed_points"] = (
        statistics.mean(s.attrs["points"] for s in in_rollout) if in_rollout else 0.0
    )
    m["host.reference_ms"] = 1e3 * p.reference.median_s("compute")
    m["host.text_reference_ms"] = 1e3 * p.reference.median_s("text")
    loops = p.timings.loops
    m["stats.cpu_per_wall"] = sum(cpu for *_, cpu in loops) / sum(wall for _, _, wall, _ in loops)

    m["registration.coarse_kd_queries"] = sum(
        s.attrs["kd_queries"] for s in by_name.get("registration.coarse", [])
    )
    m["demos.archive_bytes"] = p.computed["demos.archive_bytes"]
    m["embedding.calls"] = len(by_name.get("embedding.embed", []))
    m["retrieval.candidates"] = sum(s.attrs["candidates"] for s in by_name.get("retrieval.retrieve", []))
    return m
