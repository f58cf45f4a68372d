"""Count the points registration sends to KD-tree queries, stage by stage.

    PYTHONPATH=src python3 tools/kd_points.py [ROUNDS]

Records one demo per family (instance 0, ``controlled`` mode, scene seed 1)
and registers it with ``registration.estimate_delta`` against ROUNDS (default
8) test scenes per family and group: ``seen``, instance 0 in ``controlled``
mode with scene seeds 2, 3, ...; and ``unseen_occluded``, instances 1000,
1001, ... in ``thousand`` mode with occlusion 0.4 and noise 0.002, as in
the benchmark's ``rollout-unseen-occluded`` workload.  While it
runs, ``registration.cKDTree`` is a subclass whose ``query`` adds the number
of query points to the stage that sent them: ``coarse`` (``coarse_align``),
``covariances`` (``estimate_covariances``, test side and the demo's first
registration) or ``gicp`` (``generalized_icp`` after its covariances), and
a wrapper of ``_corresponding_cost`` counts GICP's cost evaluations, so GICP's
points read per evaluation too.  Prints one JSON line: per group, the registrations, per
stage the points summed and their mean per registration, and the GICP cost
evaluations summed and per registration.  The counts repeat exactly
from run to run, so two versions of registration compare by them without
timing noise.  Exits 2 on a usage error.  Needs only trajtransfer.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from trajtransfer import registration, simbench
from trajtransfer.demos import Dataset

STAGES = ("coarse", "covariances", "gicp")


def scenes(rounds: int) -> dict:
    """{group: [(family, scene), ...]} for ``rounds`` scenes per family."""
    groups = {"seen": [], "unseen_occluded": []}
    for family in simbench.CATEGORIES:
        task, seen = simbench.default_task(family), simbench.generate_object(family, 0)
        for r in range(rounds):
            groups["seen"].append((family, simbench.randomize_scene(task, seen, "controlled", 2 + r)))
            unseen = simbench.generate_object(family, 1000 + r)
            groups["unseen_occluded"].append(
                (
                    family,
                    simbench.randomize_scene(
                        task, unseen, "thousand", 2 + r, occlusion_fraction=0.4, noise_sigma=0.002
                    ),
                )
            )
    return groups


def count(rounds: int) -> dict:
    """{group: {"registrations": n, "<stage>_points": ..., "<stage>_points_per_call": ...,
    "gicp_evaluations": ..., "gicp_evaluations_per_call": ...}}."""
    bench = simbench.Benchmark(Dataset())
    demos = {}
    for family in simbench.CATEGORIES:
        task, instance = simbench.default_task(family), simbench.generate_object(family, 0)
        demos[family] = bench.record_demonstration(task, simbench.randomize_scene(task, instance, "controlled", 1))
    stack = []  # the stages entered, innermost last
    counts = Counter()

    class CountingTree(registration.cKDTree):
        def query(self, x, *args, **kwargs):
            counts[stack[-1]] += len(x)
            return super().query(x, *args, **kwargs)

    def staged(stage, fn):
        def run(*args, **kwargs):
            stack.append(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def evaluated(fn):
        def run(*args, **kwargs):
            counts["gicp_evaluations"] += 1
            return fn(*args, **kwargs)

        return run

    patched = {
        "cKDTree": CountingTree,
        "coarse_align": staged("coarse", registration.coarse_align),
        "estimate_covariances": staged("covariances", registration.estimate_covariances),
        "generalized_icp": staged("gicp", registration.generalized_icp),
        "_corresponding_cost": evaluated(registration._corresponding_cost),
    }
    saved = {name: getattr(registration, name) for name in patched}
    result = {}
    try:
        for name, value in patched.items():
            setattr(registration, name, value)
        for group, items in scenes(rounds).items():
            counts.clear()
            for family, scene in items:
                registration.estimate_delta(demos[family], simbench._observed_cloud(scene))
            n = len(items)
            result[group] = {"registrations": n}
            for stage in STAGES:
                result[group][f"{stage}_points"] = counts[stage]
                result[group][f"{stage}_points_per_call"] = round(counts[stage] / n, 1)
            result[group]["gicp_evaluations"] = counts["gicp_evaluations"]
            result[group]["gicp_evaluations_per_call"] = round(counts["gicp_evaluations"] / n, 1)
    finally:
        for name, value in saved.items():
            setattr(registration, name, value)
    return result


def main(argv: list) -> int:
    if len(argv) > 1 or (argv and not (argv[0].isdigit() and int(argv[0]) > 0)):
        print("usage: kd_points.py [ROUNDS]", file=sys.stderr)
        return 2
    print(json.dumps(count(int(argv[0]) if argv else 8), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
