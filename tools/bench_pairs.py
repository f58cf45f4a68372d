"""Run the benchmark on two checkouts in pairs and compare the end-to-end metrics.

    python3 tools/bench_pairs.py OLD NEW WORKLOAD PAIRS [FIRST_SEED]

OLD and NEW are checkout directories (the parent and the change).  For each
seed FIRST_SEED..FIRST_SEED+PAIRS-1 (FIRST_SEED defaults to 1, so a claim can
be checked again on held-out seeds) it runs the command NEW/BENCHMARK.json
declares with "--workload WORKLOAD --seed S --seconds <run_seconds> --trace 0"
in each checkout, the old one first in the first, third, ... pair and the new
one first in the others.
It prints every run, then for each pair whether the two runs printed the same
trace_sha256 (on the line before their result) and in how many pairs they
did, then one line per end-to-end metric of
NEW/BENCHMARK.json: both medians, the old runs' quartile distance, in how many
pairs the new run was better (ties count for neither side), every value, and
"WORSE" when the new median is worse than the old one by more than the
metric's bound (a share of the old median).  An indented line under it gives
each side's quartiles and whether the gain rule holds: at least 10 pairs, the
new run better in at least 9/10 of them, and the medians further apart, in
the better direction, than the old runs' quartile distance.  Exits 1 if a run
is not correct or the new runs fail a larger share of their operations than
the old ones, 2 on a usage error, and 0 otherwise.  Needs only the standard
library.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path


def trace_hash(lines: list):
    """The ``trace_sha256`` a run prints on the line before its result, or None."""
    try:
        return json.loads(lines[-2]).get("trace_sha256")
    except (IndexError, ValueError, AttributeError):
        return None


def run(checkout: Path, command: list, workload: str, seed: int, seconds) -> dict:
    """The result object a benchmark run prints last, with the run's
    ``trace_sha256`` added under that key, or a failed record."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if out.returncode == 0 and isinstance(result, dict):
            return {**result, "trace_sha256": trace_hash(lines)}
    except (IndexError, ValueError):
        pass
    error = (out.stderr.strip().splitlines() or ["no output"])[-1]
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": f"exit {out.returncode}: {error}"}


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def gain_rule(better: int, pairs: int, gap: float, spread: float) -> str:
    """Whether ``better`` wins of ``pairs`` and a median ``gap`` (positive in
    the better direction) against the old quartile distance ``spread`` meet
    the gain rule, with the reasons it fails."""
    unmet = []
    if pairs < 10:
        unmet.append(f"{pairs} pairs, fewer than 10")
    if 10 * better < 9 * pairs:
        unmet.append(f"new better in {better}/{pairs}, under 9/10")
    if gap <= spread:
        unmet.append(f"median gap {gap:.4g} not above the old quartile distance {spread:.4g}")
    return "gain rule met" if not unmet else "gain rule not met: " + "; ".join(unmet)


def failed_share(runs: list) -> float:
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def summarize(end_to_end: list, old: list, new: list, first_seed: int = 1) -> tuple[list, int]:
    """(printed lines, exit status) for the runs of each side, pair i being
    (old[i], new[i]) at seed ``first_seed + i``; ``end_to_end`` is
    BENCHMARK.json's list of metrics."""
    lines = []
    for side, runs in (("old", old), ("new", new)):
        for seed, r in enumerate(runs, first_seed):
            line = f"run {side} seed {seed}: correct {r.get('correct')}, failed {r.get('failed')}/{r.get('attempted')}"
            lines.append(line + (f", {r['error']}" if "error" in r else ""))
    equal = 0
    for seed, (a, b) in enumerate(zip(old, new), first_seed):
        x, y = a.get("trace_sha256"), b.get("trace_sha256")
        same = x is not None and x == y
        equal += same
        lines.append(f"pair seed {seed}: trace_sha256 " + ("equal" if same else f"differs, old {x}, new {y}"))
    lines.append(f"trace_sha256 equal in {equal}/{len(old)} pairs")
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        pairs = [
            (a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(old, new)
            if name in a.get("metrics", {}) and name in b.get("metrics", {})
        ]
        if not pairs:
            lines.append(f"{name}: no pair of runs reports it")
            continue
        a, b = [p[0] for p in pairs], [p[1] for p in pairs]
        old_median, new_median = statistics.median(a), statistics.median(b)
        better = sum(sign * (y - x) > 0 for x, y in pairs)
        gap = sign * (new_median - old_median)
        worse = gap < -m["bound"] * abs(old_median)
        (q1, q3), (n1, n3) = quartiles(a), quartiles(b)
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): old {old_median:.4g}, new {new_median:.4g}, "
            f"old quartile distance {q3 - q1:.4g}, new better in {better}/{len(pairs)}"
            + (f", WORSE by more than {m['bound']:g}" if worse else "")
            + f"; old {' '.join(f'{v:.4g}' for v in a)}; new {' '.join(f'{v:.4g}' for v in b)}"
        )
        lines.append(
            f"    quartiles: old {q1:.4g} {q3:.4g}, new {n1:.4g} {n3:.4g}; "
            + gain_rule(better, len(pairs), gap, q3 - q1)
        )
    status = 0
    if not all(r.get("correct") is True for r in old + new):
        lines.append("error: a run is not correct")
        status = 1
    if failed_share(new) > failed_share(old):
        lines.append(f"error: new runs fail {failed_share(new):.3g} of operations, old runs {failed_share(old):.3g}")
        status = 1
    return lines, status


def main(argv) -> int:
    if len(argv) not in (4, 5) or not all(a.isdigit() for a in argv[3:]) or int(argv[3]) < 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip() + "  (PAIRS >= 1)", file=sys.stderr)
        return 2
    old_dir, new_dir, workload, pairs = Path(argv[0]), Path(argv[1]), argv[2], int(argv[3])
    first = int(argv[4]) if len(argv) == 5 else 1
    try:
        spec = json.loads((new_dir / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    old, new = [], []
    for i in range(pairs):
        order = ((old_dir, old), (new_dir, new)) if i % 2 == 0 else ((new_dir, new), (old_dir, old))
        for checkout, runs in order:
            runs.append(run(checkout, spec["command"], workload, first + i, spec["run_seconds"]))
    lines, status = summarize(spec["end_to_end"], old, new, first)
    print(
        f"{workload}: {pairs} pairs of {spec['run_seconds']} s runs from seed {first}, "
        f"old {old_dir}, new {new_dir}"
    )
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
