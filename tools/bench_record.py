"""Measure this checkout once and record its numbers in BENCH_<PR>.json.

    python3 tools/bench_record.py PR

For each workload of BENCHMARK.json it runs the command that file declares
with "--workload W --seed S --seconds <run_seconds> --trace 0" at seeds 1, 2
and 3, and with "--trace 1" at seed 31, then runs "tools/kd_points.py" with
src/ on PYTHONPATH.  It prints one line per run and writes BENCH_<PR>.json
at the root of the checkout: the git sha (and whether the tree differed from
it), each run's environment line and trace_sha256, per workload the median
over the three seeds of every end-to-end metric (with the three values) and
the traced run's per-layer metrics, the JSON line of kd_points.py, and the
lines of tools/trace_oracle.expected.  PR numbers the file, so each change
commits its own and a later one compares against it: after writing the file
it prints, against the newest BENCH_<N>.json with N < PR at the root, one
line per workload and end-to-end metric with the two medians and their ratio
(new / old), then whether the two kd_points.py lines are equal.  Exits 1,
writing no file, if a run is not correct or kd_points.py fails (or after
writing it, if the earlier file does not read), 2 on a usage error, and 0
otherwise.  Needs only the standard library.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]
UNTRACED = 3  # seeds 1-3 at --trace 0, then seed 31 at --trace 1
RUNS = [(seed, 0) for seed in range(1, UNTRACED + 1)] + [(31, 1)]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def kd_points() -> dict | None:
    """The JSON line tools/kd_points.py prints, or None if it fails."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kd_points.py")], cwd=ROOT, env=env, capture_output=True, text=True
    )
    try:
        return json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
    except (IndexError, ValueError):
        return None


def record(spec: dict, runs: dict) -> dict:
    """The numbers of BENCH_<PR>.json but the git and kd_points entries, from
    ``runs[workload]``, the records of ``bench_pairs.run`` in the order of
    RUNS."""
    out = {"command": spec["command"], "run_seconds": spec["run_seconds"], "runs": [], "end_to_end": {}, "per_layer": {}}
    for workload, records in runs.items():
        for (seed, trace), r in zip(RUNS, records):
            out["runs"].append(
                {
                    "workload": workload,
                    "seed": seed,
                    "trace": trace,
                    "trace_sha256": r.get("trace_sha256"),
                    "environment": r.get("environment"),
                }
            )
        out["end_to_end"][workload] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in records[:UNTRACED]]
            out["end_to_end"][workload][m["name"]] = {
                "median": statistics.median(values),
                "values": values,
                "unit": m["unit"],
            }
        out["per_layer"][workload] = records[UNTRACED]["metrics"]
    return out


def previous(pr: int) -> Path | None:
    """The newest BENCH_<N>.json at the root with N < ``pr``, or None."""
    older = []
    for path in ROOT.glob("BENCH_*.json"):
        n = path.stem[len("BENCH_") :]
        if n.isdigit() and int(n) < pr:
            older.append((int(n), path))
    return max(older)[1] if older else None


def compare(old: dict, new: dict, old_name: str) -> list:
    """Lines comparing ``new``'s end-to-end medians and kd_points line with ``old``'s."""
    lines = [f"against {old_name}: workload metric old_median new_median new/old"]
    for workload, metrics in new["end_to_end"].items():
        for name, entry in metrics.items():
            before = old.get("end_to_end", {}).get(workload, {}).get(name, {}).get("median")
            after = entry["median"]
            if before is None:
                lines.append(f"{workload} {name} - {after:.6g} -")
            else:
                ratio = f"{after / before:.3f}" if before else "-"
                lines.append(f"{workload} {name} {before:.6g} {after:.6g} {ratio}")
    same = "equal" if old.get("kd_points") == new["kd_points"] else "differ"
    lines.append(f"kd_points: {same} to {old_name}'s")
    return lines


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip() + "  (PR >= 1)", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        oracle = (ROOT / "tools" / "trace_oracle.expected").read_text().splitlines()
        sha, dirty = git("rev-parse", "HEAD"), git("status", "--porcelain") != ""
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    runs, status = {}, 0
    for w in spec["workloads"]:
        runs[w["name"]] = []
        for seed, trace in RUNS:
            r = bench_pairs.run(ROOT, spec["command"], w["name"], seed, spec["run_seconds"], trace)
            runs[w["name"]].append(r)
            print(
                f"{w['name']} seed {seed} trace {trace}: correct {r.get('correct')}, "
                f"failed {r.get('failed')}/{r.get('attempted')}, trace_sha256 {r.get('trace_sha256')}"
                + (f", {r['error']}" if "error" in r else "")
            )
            if r.get("correct") is not True:
                print("error: a run is not correct", file=sys.stderr)
                status = 1
    kd = kd_points()
    if kd is None:
        print("error: tools/kd_points.py failed", file=sys.stderr)
        status = 1
    if status:
        return status
    bench = {"pr": int(argv[0]), "git_sha": sha, "git_dirty": dirty, **record(spec, runs), "kd_points": kd}
    bench["trace_oracle"] = oracle
    path = ROOT / f"BENCH_{int(argv[0])}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    before = previous(bench["pr"])
    if before is None:
        print("no earlier BENCH_*.json to compare against")
    else:
        try:
            old = json.loads(before.read_text())
        except (OSError, ValueError) as e:
            print(f"error: {before.name}: {e}", file=sys.stderr)
            return 1
        print("\n".join(compare(old, bench, before.name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
