"""tools/bench_record.py: its record of a stand-in benchmark in a git
checkout, and its exits."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SPEC = {
    "command": [sys.executable, "perfbench/run.py"],
    "run_seconds": 5,
    "workloads": [{"name": "a"}, {"name": "b"}],
    "end_to_end": [{"name": "rollout_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "registration.gicp_ms", "unit": "ms", "better": "lower"}],
}

STAND_IN = """\
import json, os, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as f:
    f.write(" ".join(args[k] for k in ("--workload", "--seed", "--seconds", "--trace")) + "\\n")
seed, traced = int(args["--seed"]), args["--trace"] == "1"
name, value = ("registration.gicp_ms", seed / 10) if traced else ("rollout_p50_ms", 10.0 * seed)
correct = os.environ.get("STAND_IN_FAIL") != args["--workload"] + " " + args["--seed"]
print(json.dumps({"environment": {"nproc": 2}, "trace_sha256": "t" + args["--workload"] + args["--seed"]}))
print(json.dumps({"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
                  "metrics": {name: {"value": value, "unit": "ms"}}}))
"""

KD_POINTS = """\
import json, os, sys
if os.environ.get("STAND_IN_FAIL") == "kd":
    sys.exit("crashed")
print(json.dumps({"seen": {"gicp_evaluations": 12}, "path": os.environ["PYTHONPATH"]}))
"""


def checkout(tmp_path):
    """A git checkout of the stand-in benchmark with the two tools."""
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "tools").mkdir()
    (root / "perfbench" / "run.py").write_text(STAND_IN)
    (root / "tools" / "kd_points.py").write_text(KD_POINTS)
    (root / "tools" / "trace_oracle.expected").write_text("one 1 2\ntwo 3 4\n")
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for name in ("bench_record.py", "bench_pairs.py"):
        shutil.copy(TOOLS / name, root / "tools" / name)
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-qm", "stand-in"], check=True)
    return root


def run(root, *args, fail=None):
    env = {k: v for k, v in os.environ.items() if k != "STAND_IN_FAIL"}
    if fail:
        env["STAND_IN_FAIL"] = fail
    argv = [sys.executable, str(root / "tools" / "bench_record.py"), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


def test_record(tmp_path):
    root = checkout(tmp_path)
    out = run(root, "7")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "a seed 1 trace 0: correct True, failed 0/4, trace_sha256 ta1"
    assert out.stdout.endswith("wrote BENCH_7.json\nno earlier BENCH_*.json to compare against\n")
    assert (tmp_path / "order.log").read_text().splitlines() == [
        f"{w} {seed} 5 {trace}" for w in "ab" for seed, trace in ((1, 0), (2, 0), (3, 0), (31, 1))
    ]
    bench = json.loads((root / "BENCH_7.json").read_text())
    sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    assert (bench["pr"], bench["git_sha"], bench["git_dirty"]) == (7, sha.strip(), False)
    assert bench["command"] == SPEC["command"] and bench["run_seconds"] == 5
    assert bench["runs"][3] == {
        "workload": "a", "seed": 31, "trace": 1, "trace_sha256": "ta31", "environment": {"nproc": 2},
    }
    assert [r["trace_sha256"] for r in bench["runs"]] == ["ta1", "ta2", "ta3", "ta31", "tb1", "tb2", "tb3", "tb31"]
    # medians over seeds 1-3; per-layer metrics from the traced run only
    assert bench["end_to_end"]["b"] == {"rollout_p50_ms": {"median": 20.0, "values": [10.0, 20.0, 30.0], "unit": "ms"}}
    assert bench["per_layer"]["a"] == {"registration.gicp_ms": {"value": 3.1, "unit": "ms"}}
    assert bench["kd_points"] == {"seen": {"gicp_evaluations": 12}, "path": str(root / "src")}
    assert bench["trace_oracle"] == ["one 1 2", "two 3 4"]


def canned(pr, medians, kd):
    """A BENCH file with the given rollout_p50_ms median per workload."""
    return {
        "pr": pr,
        "end_to_end": {w: {"rollout_p50_ms": {"median": m, "values": [m], "unit": "ms"}} for w, m in medians.items()},
        "kd_points": kd,
    }


def test_compare_with_the_newest_earlier_file(tmp_path):
    root = checkout(tmp_path)
    kd = {"seen": {"gicp_evaluations": 12}, "path": str(root / "src")}
    (root / "BENCH_3.json").write_text(json.dumps(canned(3, {"a": 40.0, "b": 40.0}, kd)))
    (root / "BENCH_5.json").write_text(json.dumps(canned(5, {"a": 25.0}, {**kd, "path": "elsewhere"})))
    (root / "BENCH_9.json").write_text(json.dumps(canned(9, {"a": 1.0, "b": 1.0}, kd)))  # later: not compared
    (root / "BENCH_x.json").write_text("{")
    out = run(root, "7")
    assert out.returncode == 0, out.stderr
    tail = out.stdout.split("wrote BENCH_7.json\n")[1].splitlines()
    # BENCH_5 is the newest earlier file; its b is missing, and its kd line differs
    assert tail == [
        "against BENCH_5.json: workload metric old_median new_median new/old",
        "a rollout_p50_ms 25 20 0.800",
        "b rollout_p50_ms - 20 -",
        "kd_points: differ to BENCH_5.json's",
    ]
    (root / "BENCH_5.json").unlink()
    tail = run(root, "7").stdout.split("wrote BENCH_7.json\n")[1].splitlines()
    assert tail[1:] == ["a rollout_p50_ms 40 20 0.500", "b rollout_p50_ms 40 20 0.500", "kd_points: equal to BENCH_3.json's"]
    (root / "BENCH_3.json").write_text("{")
    out = run(root, "7")
    assert out.returncode == 1 and out.stderr.startswith("error: BENCH_3.json")
    assert (root / "BENCH_7.json").exists()


def test_uncommitted_tree_is_marked(tmp_path):
    root = checkout(tmp_path)
    (root / "tools" / "trace_oracle.expected").write_text("one 1 2\n")
    assert run(root, "7").returncode == 0
    bench = json.loads((root / "BENCH_7.json").read_text())
    assert bench["git_dirty"] is True and bench["trace_oracle"] == ["one 1 2"]


def test_incorrect_run_writes_nothing(tmp_path):
    root = checkout(tmp_path)
    for fail in ("b 2", "a 31", "kd"):
        out = run(root, "7", fail=fail)
        assert out.returncode == 1, (fail, out.stdout)
        assert not (root / "BENCH_7.json").exists()
    assert "b seed 2 trace 0: correct False, failed 1/4" in run(root, "7", fail="b 2").stdout


def test_usage(tmp_path):
    root = checkout(tmp_path)
    for args in ((), ("0",), ("x",), ("-1",), ("7", "8")):
        out = run(root, *args)
        assert out.returncode == 2 and out.stderr.startswith("usage: ") and out.stdout == ""
    (root / "BENCHMARK.json").write_text("{")
    assert run(root, "7").returncode == 2
    shutil.rmtree(root / ".git")
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = run(root, "7")
    assert out.returncode == 2 and out.stderr.startswith("error: ")
    assert not (tmp_path / "order.log").exists()
