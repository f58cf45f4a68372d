"""tools/kd_points.py: one JSON line of counted KD points, and its usage."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from trajtransfer import registration

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kd_points.py"


def run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, env=env, timeout=120)


def load_tool():
    spec = importlib.util.spec_from_file_location("kd_points", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_round():
    out = run("1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert sorted(result) == ["seen", "unseen_occluded"]
    for group in result.values():
        assert group["registrations"] == 6
        for stage in ("coarse", "covariances", "gicp"):
            assert group[f"{stage}_points"] > 0
            assert group[f"{stage}_points_per_call"] == round(group[f"{stage}_points"] / 6, 1)
        # the sweep sends at most 72 yaws x its 600-point subsample per call
        assert group["coarse_points"] <= 6 * 72 * 600
        # GICP evaluates its cost at the init and then once per trial; each
        # evaluation queries at most the 800 points of a rendered cloud, and
        # so does the fitness query at the end
        assert group["gicp_evaluations"] >= 6
        assert group["gicp_evaluations_per_call"] == round(group["gicp_evaluations"] / 6, 1)
        assert group["gicp_points"] <= 800 * (group["gicp_evaluations"] + 6)


def test_counts_repeat_and_registration_is_restored():
    tool = load_tool()
    names = ("cKDTree", "coarse_align", "estimate_covariances", "generalized_icp", "_corresponding_cost")
    before = {name: getattr(registration, name) for name in names}
    first = tool.count(1)
    assert tool.count(1) == first
    assert {name: getattr(registration, name) for name in before} == before


def test_usage():
    for args in (("0",), ("x",), ("-1",), ("2", "3")):
        out = run(*args)
        assert out.returncode == 2 and out.stderr.startswith("usage: ") and out.stdout == ""
