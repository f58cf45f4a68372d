"""Command-line entry point.

Exit codes: 0 success, 2 input/config error, 3 retrieval-domain error
(unknown micro skill).  Every run logs its fully resolved configuration to
stderr.  The default dataset path can be set via TRAJTRANSFER_DATASET.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import demos as demos_mod
from . import stats as stats_mod
from .errors import MalformedFile, OutOfRange, TrajTransferError, UnknownSkill
from .policies import simulate_alignment_trajectories
from .registration import estimate_delta
from .retrieval import hierarchical_retrieve, rank_candidates
from .se3 import transform_cloud
from .simbench import (
    Benchmark,
    _observed_cloud,
    default_task,
    generate_object,
    randomize_scene,
    run_rollout,
)

ENV_DATASET = "TRAJTRANSFER_DATASET"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RETRIEVAL = 3


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise OutOfRange(f"{flag} must be >= {low}, got {value}")


def cmd_ingest(args) -> int:
    exists = (Path(args.dataset) / "dataset.json").exists()
    dataset = demos_mod.load_dataset(args.dataset) if exists else demos_mod.Dataset()
    cloud = demos_mod.read_cloud_file(args.cloud)
    traj = demos_mod.read_trajectory_file(args.trajectory)
    demo = dataset.ingest(args.description, cloud, traj, demo_id=args.id)
    demos_mod.save_dataset(dataset, args.dataset)
    print(demo.id)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    _at_least(args.top, 1, "--top")
    dataset = demos_mod.load_dataset(args.dataset)
    cloud = demos_mod.read_cloud_file(args.cloud)
    if args.top > 1:
        ranking = rank_candidates(dataset, args.description, cloud)[: args.top]
        print(json.dumps([{"demo_id": i, "similarity": s} for i, s in ranking]))
    else:
        result = hierarchical_retrieve(dataset, args.description, cloud)
        print(json.dumps(result.to_dict()))
    return EXIT_OK


def _demo(args) -> demos_mod.Demonstration:
    """Demo ``--demo-id`` of the archive at ``--dataset``."""
    dataset = demos_mod.load_dataset(args.dataset)
    if args.demo_id not in dataset.demos:
        raise MalformedFile(f"demo id {args.demo_id!r} not in dataset")
    return dataset.demos[args.demo_id]


def cmd_register(args) -> int:
    demo = _demo(args)
    cloud = demos_mod.read_cloud_file(args.cloud)
    result = estimate_delta(demo, cloud)
    if args.dump_aligned:
        aligned = transform_cloud(result.delta, demo.object_cloud)
        demos_mod.write_cloud_file(aligned, args.dump_aligned + "_demo_aligned.txt")
        demos_mod.write_cloud_file(cloud, args.dump_aligned + "_test.txt")
    print(json.dumps(result.to_dict()))
    return EXIT_OK


def cmd_rollout(args) -> int:
    _at_least(args.count, 0, "--count")
    task = default_task(args.family)
    instance = generate_object(args.family, args.instance_seed)
    bench = Benchmark(demos_mod.Dataset())
    demo_scene = randomize_scene(task, instance, "controlled", args.seed)
    bench.record_demonstration(task, demo_scene)
    traces = []
    for i in range(args.count):
        scene = randomize_scene(task, instance, args.mode, args.seed + 1 + i)
        trace = run_rollout(bench, task, scene).to_trace_dict()
        traces.append({**trace, "condition": f"rollout/{args.family}"})
    if args.output:
        with open(args.output, "a") as f:
            f.writelines(map(stats_mod.trace_line, traces))
    successes = sum(t["success"] for t in traces)
    print(json.dumps({"family": args.family, "successes": successes, "trials": args.count}))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _at_least(args.jobs, 1, "--jobs")
    config = stats_mod.read_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    table, trace_path = stats_mod.run_experiment(config, args.output, jobs=args.jobs)
    stats_mod.emit_report(table, config, trace_path, args.output)
    for row in table.rows:
        lo, hi = row.ci
        print(f"{row.label}: {row.k}/{row.n} = {row.phat:.3f} [{lo:.3f}, {hi:.3f}]")
    return EXIT_OK


def cmd_report(args) -> int:
    table = stats_mod.table_from_traces(args.traces)
    config = stats_mod.read_config(args.config) if args.config else None
    stats_mod.emit_report(table, config, args.traces, args.output)
    print(f"report written to {args.output}")
    return EXIT_OK


def cmd_gen_scene(args) -> int:
    task = default_task(args.family)
    instance = generate_object(args.family, args.instance_seed)
    scene = randomize_scene(task, instance, args.mode, args.seed)
    if args.cloud_out:
        demos_mod.write_cloud_file(_observed_cloud(scene), args.cloud_out)
    print(
        json.dumps(
            {
                "category": args.family,
                "instance_seed": args.instance_seed,
                "object_pose": scene.object_pose.as_row(),
                "rotation_range": scene.rotation_range,
                "rng_seed": scene.rng_seed,
            }
        )
    )
    return EXIT_OK


def cmd_gen_align_data(args) -> int:
    _at_least(args.count, 0, "--count")
    demo = _demo(args)
    paths = simulate_alignment_trajectories(demo, count=args.count, rng_seed=args.seed)
    demos_mod.write_trajectory_blocks(
        [[demos_mod.EndEffectorState(p, 0, i) for i, p in enumerate(path)] for path in paths],
        args.output,
    )
    print(f"{len(paths)} trajectories written to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajtransfer",
        description="Demonstration retrieval, registration and trajectory transfer toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_dataset = os.environ.get(ENV_DATASET, "dataset")

    p = sub.add_parser("ingest", help="add a demonstration to a dataset archive")
    p.add_argument("--dataset", default=default_dataset, help="dataset archive directory")
    p.add_argument("--description", required=True, help="task description text")
    p.add_argument("--cloud", required=True, help="object point cloud file (N, then x y z rows)")
    p.add_argument("--trajectory", required=True, help="trajectory file (t_index tx ty tz qw qx qy qz g rows)")
    p.add_argument("--id", default=None, help="demo id (default: content hash)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("retrieve", help="retrieve the best demonstration for a query")
    p.add_argument("--dataset", default=default_dataset, help="dataset archive directory")
    p.add_argument("--description", required=True, help="task description text")
    p.add_argument("--cloud", required=True, help="test object point cloud file")
    p.add_argument("--top", type=int, default=1, help="emit the top-N ranked candidates")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("register", help="estimate the relative object pose for a demo")
    p.add_argument("--dataset", default=default_dataset, help="dataset archive directory")
    p.add_argument("--demo-id", required=True, help="demonstration id")
    p.add_argument("--cloud", required=True, help="test object point cloud file")
    p.add_argument("--dump-aligned", default=None, help="prefix for aligned cloud file pair")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("rollout", help="run benchmark rollouts for one object family")
    p.add_argument("--family", required=True, help="object family name")
    p.add_argument("--instance-seed", type=int, default=0, help="instance seed")
    p.add_argument("--mode", default="controlled", choices=["controlled", "thousand"], help="scene randomization mode")
    p.add_argument("--seed", type=int, default=0, help="base rng seed")
    p.add_argument("--count", type=int, default=10, help="number of rollouts")
    p.add_argument("--output", default=None, help="JSON-lines trace file to append to")
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("evaluate", help="run an experiment protocol from a config file")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--output", required=True, help="output directory for reports and traces")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="parallel rollout workers")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="regenerate report files from a trace file")
    p.add_argument("--traces", required=True, help="JSON-lines trace file")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--config", default=None, help="config JSON to echo into the summary")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-scene", help="sample a randomized scene")
    p.add_argument("--family", required=True, help="object family name")
    p.add_argument("--instance-seed", type=int, default=0, help="instance seed")
    p.add_argument("--mode", default="controlled", choices=["controlled", "thousand"], help="scene randomization mode")
    p.add_argument("--seed", type=int, default=0, help="scene rng seed")
    p.add_argument("--cloud-out", default=None, help="write the rendered partial cloud here")
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("gen-align-data", help="export synthetic alignment trajectories")
    p.add_argument("--dataset", default=default_dataset, help="dataset archive directory")
    p.add_argument("--demo-id", required=True, help="demonstration id")
    p.add_argument("--count", type=int, default=1000, help="number of trajectories")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.add_argument("--output", required=True, help="output file")
    p.set_defaults(func=cmd_gen_align_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    print(f"config: {json.dumps(resolved, sort_keys=True, default=str)}", file=sys.stderr)
    try:
        return args.func(args)
    except UnknownSkill as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RETRIEVAL
    except (TrajTransferError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
