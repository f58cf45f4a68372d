"""Compare two evaluate trace files row by row.

    python3 tools/trace_diff.py OLD/traces.jsonl NEW/traces.jsonl

Prints one line per key, "key rows_moved/rows largest_move", where
registration is split into its fields, "registration" itself standing for
their names (so a change between null, an error and a result moves it), and a
pose's move is "<metres> m <radians> rad" (translation distance and rotation
angle).  Then one line per category, "success[category] k/n -> k/n" (old
successes, then new), and one per failure_class change that occurs,
"failure_class old->new count".  Exits 1 if the row
counts differ, if a key other than "registration" and "final_pose" differs in
any row (so any change of success or failure_class), or if
"registration.delta" or "final_pose" moved by more than 1e-6 m or 1e-6 rad;
the other registration fields may change.  Exits 2 on a usage error or an
unreadable file, and 0 otherwise.  Needs only the standard library.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

TOLERANCE = 1e-6  # metres and radians
POSE_KEYS = ("registration.delta", "final_pose")
FREE_KEYS = ("registration", "final_pose")  # may move; everything else must not


def pose_move(a, b) -> tuple[float, float]:
    """(metres, radians) between two [tx, ty, tz, qw, qx, qy, qz] rows."""
    if a is None or b is None:
        return (0.0, 0.0) if a is None and b is None else (math.inf, math.inf)
    metres = math.dist(a[:3], b[:3])
    # the angle of conj(qa) * qb, from its scalar and vector parts
    (aw, ax, ay, az), (bw, bx, by, bz) = a[3:], b[3:]
    w = aw * bw + ax * bx + ay * by + az * bz
    v = (
        aw * bx - ax * bw - ay * bz + az * by,
        aw * by + ax * bz - ay * bw - az * bx,
        aw * bz - ax * by + ay * bx - az * bw,
    )
    return metres, 2.0 * math.atan2(math.hypot(*v), abs(w))


def fields(row: dict) -> dict:
    """Top-level keys, with registration split into registration.<field> and
    "registration" its field names (or its value if it is not an object)."""
    out = {k: v for k, v in row.items() if k != "registration"}
    reg = row.get("registration")
    if isinstance(reg, dict):
        out.update({f"registration.{k}": v for k, v in reg.items()})
        reg = sorted(reg)
    out["registration"] = reg
    return out


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def move(key: str, a, b):
    """How far a value moved: (m, rad) for poses, the largest |a - b| for
    numbers and equally long lists of numbers, else 0 (same) or 1."""
    if key in POSE_KEYS:
        return pose_move(a, b)
    if is_number(a) and is_number(b):
        return abs(float(a) - float(b))
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b) and all(map(is_number, a + b)):
        return max((abs(float(x) - float(y)) for x, y in zip(a, b)), default=0.0)
    return 0 if a == b else 1


def larger(x, y):
    return (max(x[0], y[0]), max(x[1], y[1])) if isinstance(x, tuple) else max(x, y)


def read(path) -> list:
    with open(path) as f:
        rows = [json.loads(line) for line in f]
    if not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"{path}: a row is not a JSON object")
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        old, new = read(argv[0]), read(argv[1])
    except (OSError, ValueError) as e:  # also invalid JSON or text encoding
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(old) != len(new):
        print(f"rows: {len(old)} old, {len(new)} new")
        return 1
    moved: dict = {}  # key -> (rows moved, largest move)
    for a, b in zip(old, new):
        fa, fb = fields(a), fields(b)
        for key in set(fa) | set(fb):
            rows, largest = moved.get(key, (0, (0.0, 0.0) if key in POSE_KEYS else 0))
            x, y = fa.get(key), fb.get(key)
            moved[key] = (rows + (x != y), larger(largest, move(key, x, y)))
    status = 0
    for key, (rows, largest) in sorted(moved.items()):
        shown = f"{largest[0]:.3g} m {largest[1]:.3g} rad" if isinstance(largest, tuple) else f"{largest:.3g}"
        print(f"{key} {rows}/{len(old)} {shown}")
        if key in POSE_KEYS:
            status |= max(largest) > TOLERANCE
        elif rows and key.split(".")[0] not in FREE_KEYS:
            status = 1
    print_outcomes(old, new)
    return int(status)


def print_outcomes(old: list, new: list) -> None:
    """Success k/n per category, old and new, and the count of each change of
    failure_class; rows pair up by position, as in :func:`main`."""
    per: dict = {}  # category -> [old successes, new successes, rows]
    for a, b in zip(old, new):
        count = per.setdefault(str(a.get("category")), [0, 0, 0])
        count[0] += a.get("success") is True
        count[1] += b.get("success") is True
        count[2] += 1
    for category, (k_old, k_new, n) in sorted(per.items()):
        print(f"success[{category}] {k_old}/{n} -> {k_new}/{n}")
    changes = Counter((a.get("failure_class"), b.get("failure_class")) for a, b in zip(old, new))
    for (x, y), rows in sorted(changes.items(), key=str):
        if x != y:
            print(f"failure_class {x}->{y} {rows}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
