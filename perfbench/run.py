"""Benchmark of the trajtransfer pipeline: retrieve -> register -> replay.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rollout-seen --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the workload
twice, untraced and then with every layer wrapped, checks that both runs give
the same outputs and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it stamps the environment.  The full record,
with checks and computed counts, goes to ``perfbench/out/``, and a traced
run writes its spans there as JSON lines.

The benchmark imports ``trajtransfer`` from ``src/`` of the checkout it sits
in and exits with code 2 if that is missing.  It runs the program with one
BLAS thread (see :data:`PINNED_THREADS`); a traced run also measures, in a
child process, what the default thread count costs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# With one worker thread per core, OpenBLAS threads busy-wait between calls,
# and any other load on the cores stalls them: with a second process on two
# cores, rollouts ran 2x and retrievals 20x slower than with one thread. The
# timings would measure the host's other load, so BLAS gets one thread.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {
    "setup_s": "s",
    "rollout_p50_ms": "ms",
    "rollout_p90_ms": "ms",
    "rollouts_per_s": "1/s",
    "cpu_ms_per_rollout": "ms",
    "success_rate": "ratio",
    "evaluate_wall_s": "s",
    "ingest_demos_per_s": "1/s",
    "archive_save_s": "s",
    "archive_load_s": "s",
    "retrieve_p50_ms": "ms",
    "retrieve_p90_ms": "ms",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_share", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith("cpu_per_wall") else "count"


def environment(inherited: dict) -> dict:
    """Where the numbers were measured; compare trace hashes only within one."""
    import multiprocessing

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_vars_inherited": inherited,
        "num_threads_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "start_method": multiprocessing.get_start_method(),
    }


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for s in spans:
            row = {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "parent": s.parent,
                "rollout": s.rollout,
                "attrs": s.attrs,
            }
            f.write(json.dumps(row, sort_keys=True) + "\n")


def unpinned_cpu_per_wall(workload: str, seed: int, env: dict) -> float:
    """CPU over wall time of a few rollouts in a child with the default BLAS threads."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--unpinned-probe"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["cpu_per_wall"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--unpinned-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "trajtransfer" / "__init__.py").is_file():
        print(f"error: trajtransfer sources not found under {src}", file=sys.stderr)
        return 2
    inherited = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    parent_env = dict(os.environ)
    if not args.unpinned_probe:
        os.environ.update(PINNED_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(src))
    import workloads

    if args.unpinned_probe:
        print(json.dumps({"cpu_per_wall": workloads.probe_cpu_per_wall(args.workload, args.seed)}))
        return 0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    env = environment(inherited)
    try:
        a = workloads.run_pass(args.workload, args.seed, args.seconds, workdir / "untraced", workloads.PROBE_TARGETS)
        passes = [a]
        problems = list(a.problems)
        if args.trace:
            b = workloads.run_pass(args.workload, args.seed, args.seconds, workdir / "traced", workloads.LAYER_TARGETS)
            passes.append(b)
            problems += b.problems
            metrics = workloads.layer_metrics(b)
            for key in sorted(a.outputs):
                if a.outputs[key] != b.outputs.get(key):
                    problems.append(f"traced run changed output {key!r}")
            for name in workloads.COMPUTED_COUNTS:
                if a.computed[name] != metrics[name]:
                    problems.append(f"{name}: computed {a.computed[name]}, traced {metrics[name]}")
            write_spans(b.tracer.spans, out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
            metrics["stats.unpinned_cpu_per_wall"] = unpinned_cpu_per_wall(args.workload, args.seed, parent_env)
            metrics["trace.overhead_s"] = b.wall_s - a.wall_s
            metrics["trace.overhead_share"] = (b.wall_s - a.wall_s) / a.wall_s
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = a.metrics
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, layer = declared_metrics()
    declared = layer if args.trace else e2e
    if {n: units[n] for n in metrics} != declared:
        problems.append("printed metrics differ from the ones BENCHMARK.json declares")

    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "problems": problems,
        "computed_counts": {n: a.computed[n] for n in workloads.COMPUTED_COUNTS},
        "trace_sha256": a.outputs["trace_sha256"],
        "kettle_yaw_flips": a.outputs.get("kettle_yaw_flips"),
        "rotations_moved_by_load": a.outputs["rotations_moved_by_load"],
        "untraced_metrics": a.metrics,
        "untraced_raw_metrics": a.raw_metrics,
        "reference_s": {kind: a.reference.median_s(kind) for kind in a.reference.samples},
        "result": result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "trace_sha256": record["trace_sha256"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
