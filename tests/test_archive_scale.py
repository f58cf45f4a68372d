"""tools/archive_scale.py: one JSON line for a small archive, and its usage."""

import hashlib
import importlib.util
import json
import os
import re
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
    assert re.fullmatch("[0-9a-f]{64}", result["archive_sha256"])
    assert all(result[k] >= 0.0 for k in ("record_s", "save_s", "load_s", "rotations_moved_by_load"))


def test_usage():
    for args in ((), ("0",), ("x",), ("6", "7")):
        out = run(*args)
        assert out.returncode == 2 and out.stderr.startswith("usage: ") and out.stdout == ""


def test_archive_sha256(tmp_path, monkeypatch):
    """The hash covers each file's name, size and bytes in name order, so
    moving bytes from one file to the next changes it."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("archive_scale", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "b.demo").write_bytes(b"xy")
    (tmp_path / "a.demo").write_bytes(b"1")
    want = hashlib.sha256(b"a.demo\n1\n1b.demo\n2\nxy").hexdigest()
    assert tool.archive_sha256(tmp_path) == want
    (tmp_path / "a.demo").write_bytes(b"1x")
    (tmp_path / "b.demo").write_bytes(b"y")
    assert tool.archive_sha256(tmp_path) != want
