"""tools/trace_diff.py: which trace changes it allows and which fail it."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_diff.py"

ROW = {
    "condition": "seen",
    "success": True,
    "failure_class": "none",
    "registration": {
        "delta": [0.1, 0.2, 0.0, 1.0, 0.0, 0.0, 0.0],
        "inlier_rmse": 1e-3,
        "fitness": 0.9,
        "iterations": 9,
        "converged": True,
    },
    "final_pose": [0.4, 0.2, 0.1, 0.0, 1.0, 0.0, 0.0],
}


def run(tmp_path, old, new):
    for name, rows in (("old", old), ("new", new)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True, text=True,
    )
    return out.returncode, out.stdout


def changed(edit):
    row = copy.deepcopy(ROW)
    edit(row)
    return row


def test_identical(tmp_path):
    code, out = run(tmp_path, [ROW, ROW], [ROW, ROW])
    assert code == 0
    assert "success 0/2 0\n" in out and "registration.delta 0/2 0 m 0 rad\n" in out


def test_small_pose_moves_and_free_fields_pass(tmp_path):
    def edit(row):
        row["registration"]["delta"][0] += 4e-7
        row["registration"]["iterations"] = 6
        row["final_pose"][1] += 5e-7

    code, out = run(tmp_path, [ROW, ROW], [ROW, changed(edit)])
    assert code == 0
    assert "registration.iterations 1/2 3\n" in out
    assert "final_pose 1/2 5e-07 m 0 rad\n" in out


@pytest.mark.parametrize(
    "edit",
    [
        lambda row: row.update(success=False),
        lambda row: row.update(failure_class="registration"),
        lambda row: row.update(condition="unseen"),
        lambda row: row["registration"]["delta"].__setitem__(2, 2e-6),
        lambda row: row.update(final_pose=[0.4, 0.2, 0.1, 0.0, 1.0, 2e-6, 0.0]),
        lambda row: row.update(registration=None),
    ],
    ids=["success", "failure-class", "other-key", "delta-metres", "final-pose-radians", "no-registration"],
)
def test_fails(tmp_path, edit):
    assert run(tmp_path, [ROW], [changed(edit)])[0] == 1


def test_null_to_error_counts_under_registration(tmp_path):
    """A rollout whose registration gave no result moves from ``null`` to
    ``{"error": ...}``, as in the oracle's ``edges`` run: the change counts
    under ``registration``, not only under ``registration.error``."""
    failed = {
        "category": "mug",
        "condition": "unseen",
        "success": False,
        "failure_class": "registration",
        "retrieval": {"demo_id": "d1", "similarity": 0.5},
        "registration": None,
        "final_pose": None,
    }
    error = {**failed, "registration": {"error": "NoCorrespondences"}}
    code, out = run(tmp_path, [ROW, failed, failed], [ROW, error, failed])
    assert code == 0
    assert "registration 1/3 1\n" in out and "registration.error 1/3 1\n" in out
    assert "registration.delta 0/3 0 m 0 rad\n" in out


def test_success_per_category_and_class_changes(tmp_path):
    """A behaviour change prints each category's success k/n, old then new,
    and counts each change of failure_class; the exit rules stay."""
    mug = {**ROW, "category": "mug"}
    failed = {**mug, "success": False, "failure_class": "registration"}
    kettle = {**ROW, "category": "kettle"}
    flipped = {**kettle, "success": False, "failure_class": "registration"}
    code, out = run(tmp_path, [failed, failed, mug, kettle], [mug, mug, mug, flipped])
    assert code == 1  # success and failure_class moved
    assert "success[kettle] 1/1 -> 0/1\n" in out and "success[mug] 1/3 -> 3/3\n" in out
    assert "failure_class registration->none 2\n" in out
    assert "failure_class none->registration 1\n" in out
    assert out.count("failure_class ") == 3  # the key line and the two changes
    code, out = run(tmp_path, [mug, kettle], [mug, kettle])
    assert code == 0 and "success[mug] 1/1 -> 1/1\n" in out and "->none" not in out


def test_row_count(tmp_path):
    assert run(tmp_path, [ROW, ROW], [ROW]) == (1, "rows: 2 old, 1 new\n")


def test_usage_and_unreadable(tmp_path):
    assert subprocess.run([sys.executable, str(TOOL)], capture_output=True).returncode == 2
    for text in ("{not json\n", "[1, 2]\n"):
        (tmp_path / "bad").write_text(text)
        out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "bad"), str(tmp_path / "bad")], capture_output=True)
        assert out.returncode == 2 and b"Traceback" not in out.stderr
