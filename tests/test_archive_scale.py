"""tools/archive_scale.py: one JSON line for a small archive, and its usage."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "archive_scale.py"


def run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, env=env, timeout=120)


def test_six_tasks():
    out = run("6")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["tasks"] == 6 and result["demos"] == 6
    assert result["same_bits"] is True and result["archive_bytes"] > 0
    assert all(result[k] >= 0.0 for k in ("record_s", "save_s", "load_s", "rotations_moved_by_load"))


def test_usage():
    for args in ((), ("0",), ("x",), ("6", "7")):
        out = run(*args)
        assert out.returncode == 2 and out.stderr.startswith("usage: ") and out.stdout == ""
