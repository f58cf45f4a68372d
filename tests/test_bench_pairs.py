"""tools/bench_pairs.py: its summary of canned run records, and its runs of
a stand-in benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "rollout_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def record(p50, success, correct=True, failed=0, attempted=100):
    metrics = {"rollout_p50_ms": {"value": p50, "unit": "ms"}, "success_rate": {"value": success, "unit": "ratio"}}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def metric_line(lines, name):
    return next(line for line in lines if line.startswith(name + " "))


def test_medians_quartiles_and_wins():
    old = [record(40.0, 0.5), record(42.0, 0.5), record(44.0, 0.5), record(46.0, 0.5)]
    new = [record(30.0, 0.5), record(43.0, 0.5), record(31.0, 0.6), record(32.0, 0.4)]
    lines, status = bench_pairs.summarize(END_TO_END, old, new)
    assert status == 0
    p50 = metric_line(lines, "rollout_p50_ms")
    # medians 43 and 31.5; quartiles of the old runs 41.5 and 44.5
    assert "old 43, new 31.5, old quartile distance 3, new better in 3/4" in p50
    assert "WORSE" not in p50 and p50.endswith("old 40 42 44 46; new 30 43 31 32")
    # higher is better; ties count for neither side
    assert "new better in 1/4" in metric_line(lines, "success_rate")
    assert sum(line.startswith("run ") for line in lines) == 8
    assert rule_line(lines, "rollout_p50_ms").startswith("    quartiles: old 41.5 44.5, new 30.75 34.75; ")


def rule_line(lines, name):
    """The indented quartiles and gain-rule line under a metric's line."""
    return lines[lines.index(metric_line(lines, name)) + 1]


OLD_TEN = [record(40.0 + i % 3, 0.5) for i in range(10)]  # quartiles 40 and 41.75, median 41


def test_gain_rule_met():
    new = [record(30.0 + i % 3, 0.5) for i in range(9)] + [record(45.0, 0.5)]
    lines, _ = bench_pairs.summarize(END_TO_END, OLD_TEN, new)
    assert "new better in 9/10" in metric_line(lines, "rollout_p50_ms")
    assert rule_line(lines, "rollout_p50_ms") == "    quartiles: old 40 41.75, new 30.25 32; gain rule met"


def test_gain_rule_unmet():
    new = [record(30.0 + i % 3, 0.5) for i in range(8)] + [record(45.0, 0.5)] * 2
    lines, _ = bench_pairs.summarize(END_TO_END, OLD_TEN, new)
    assert rule_line(lines, "rollout_p50_ms").endswith("gain rule not met: new better in 8/10, under 9/10")
    # every pair won, by less than the old runs spread
    lines, _ = bench_pairs.summarize(END_TO_END, OLD_TEN, [record(39.5 + i % 3, 0.5) for i in range(10)])
    assert rule_line(lines, "rollout_p50_ms").endswith(
        "gain rule not met: median gap 0.5 not above the old quartile distance 1.75"
    )
    assert rule_line(lines, "success_rate").endswith(
        "gain rule not met: new better in 0/10, under 9/10; median gap 0 not above the old quartile distance 0"
    )
    # too few pairs, whatever their margin
    lines, _ = bench_pairs.summarize(END_TO_END, OLD_TEN[:4], [record(10.0, 0.5)] * 4)
    assert rule_line(lines, "rollout_p50_ms").endswith("gain rule not met: 4 pairs, fewer than 10")


def test_worse_beyond_the_bound_is_marked():
    old = [record(40.0, 0.8), record(40.0, 0.8)]
    lines, status = bench_pairs.summarize(END_TO_END, old, [record(50.0, 0.61), record(50.0, 0.61)])
    assert status == 0
    assert "WORSE" not in metric_line(lines, "rollout_p50_ms")  # +25% is at the bound
    assert "WORSE" not in metric_line(lines, "success_rate")
    lines, _ = bench_pairs.summarize(END_TO_END, old, [record(50.1, 0.59), record(50.1, 0.59)])
    assert "WORSE by more than 0.25" in metric_line(lines, "rollout_p50_ms")
    assert "WORSE by more than 0.25" in metric_line(lines, "success_rate")


def test_wide_spread_is_unresolved():
    """A metric whose old runs spread wider than its bound gets no verdict,
    unless every new run is better than every old one."""
    # p50 quartile distance 15 against 0.25 x 35; success rate 0.3 against 0.25 x 0.5
    old = [record(p50, success) for p50, success in ((20.0, 0.2), (30.0, 0.4), (40.0, 0.6), (50.0, 0.8))]
    lines, status = bench_pairs.summarize(END_TO_END, old, [record(p50, 0.5) for p50 in (21.0, 29.0, 41.0, 49.0)])
    assert status == 0
    p50 = metric_line(lines, "rollout_p50_ms")
    assert "old 35, new 35, old quartile distance 15" in p50
    assert p50.endswith(", UNRESOLVED: old quartile distance above the bound's 8.75; old 20 30 40 50; new 21 29 41 49")
    assert "WORSE" not in p50 and "UNRESOLVED" in metric_line(lines, "success_rate")
    # every new run better than every old one, in each direction
    lines, _ = bench_pairs.summarize(END_TO_END, old, [record(p50, 0.9) for p50 in (10.0, 12.0, 15.0, 19.0)])
    assert not any("UNRESOLVED" in line for line in lines)
    # one new run that only ties the best old run
    lines, _ = bench_pairs.summarize(END_TO_END, old, [record(p50, 0.9) for p50 in (10.0, 12.0, 15.0, 20.0)])
    assert "UNRESOLVED" in metric_line(lines, "rollout_p50_ms")
    assert "UNRESOLVED" not in metric_line(lines, "success_rate")


def test_incorrect_run_fails():
    old = [record(40.0, 0.5), record(40.0, 0.5)]
    lines, status = bench_pairs.summarize(END_TO_END, old, [record(30.0, 0.5), record(30.0, 0.5, correct=False)])
    assert status == 1 and "error: a run is not correct" in lines


def test_larger_failed_share_fails():
    old = [record(40.0, 0.5, failed=1, attempted=100)] * 2
    _, status = bench_pairs.summarize(END_TO_END, old, [record(40.0, 0.5, failed=1, attempted=100)] * 2)
    assert status == 0
    lines, status = bench_pairs.summarize(END_TO_END, old, [record(40.0, 0.5, failed=3, attempted=100)] * 2)
    assert status == 1 and any(line.startswith("error: new runs fail 0.03") for line in lines)


STAND_IN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
log = Path(__file__).resolve().parents[2] / "order.log"
with open(log, "a") as f:
    f.write(f"{Path.cwd().name} {args['--workload']} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
if Path.cwd().name == "new" and args["--seed"] == "3":
    sys.exit("crashed")
p50 = (40.0 if Path.cwd().name == "old" else 30.0) + int(args["--seed"])
trace = "t" + args["--seed"] + ("x" if Path.cwd().name == "new" and args["--seed"] == "2" else "")
print(json.dumps({"environment": {}, "trace_sha256": trace}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"rollout_p50_ms": {"value": p50, "unit": "ms"}}}))
"""


def run_stand_in(tmp_path, *args):
    """The tool's run on two checkouts of the stand-in benchmark."""
    spec = {"command": [sys.executable, "perfbench/run.py"], "run_seconds": 5, "end_to_end": END_TO_END[:1]}
    for side in ("old", "new"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STAND_IN)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    argv = [sys.executable, str(TOOL), str(tmp_path / "old"), str(tmp_path / "new"), "w", *args]
    return subprocess.run(argv, capture_output=True, text=True)


def test_runs_alternate_and_a_crash_fails(tmp_path):
    out = run_stand_in(tmp_path, "3")
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "old w 1 5 0", "new w 1 5 0", "new w 2 5 0", "old w 2 5 0", "old w 3 5 0", "new w 3 5 0",
    ]
    assert out.returncode == 1, out.stdout
    assert "run new seed 3: correct False, failed 0/0, exit 1: crashed" in out.stdout
    # metrics come from the pairs where both runs report them
    assert "old 41.5, new 31.5, old quartile distance 0.5, new better in 2/2; old 41 42; new 31 32" in out.stdout
    # the trace hash each run printed before its result, compared per pair
    lines = out.stdout.splitlines()
    assert [line for line in lines if "trace_sha256" in line] == [
        "pair seed 1: trace_sha256 equal",
        "pair seed 2: trace_sha256 differs, old t2, new t2x",
        "pair seed 3: trace_sha256 differs, old t3, new None",
        "trace_sha256 equal in 1/3 pairs",
    ]


def test_first_seed(tmp_path):
    out = run_stand_in(tmp_path, "3", "4242")
    # the old run goes first in the first pair, whatever the seed's parity
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "old w 4242 5 0", "new w 4242 5 0", "new w 4243 5 0", "old w 4243 5 0", "old w 4244 5 0", "new w 4244 5 0",
    ]
    assert out.returncode == 0, out.stdout
    assert out.stdout.startswith("w: 3 pairs of 5 s runs from seed 4242, ")
    assert "run old seed 4242: correct True" in out.stdout and "run new seed 4244: correct True" in out.stdout
    assert "old 4283, new 4273, old quartile distance 1, new better in 3/3" in out.stdout
    assert "\ntrace_sha256 equal in 3/3 pairs\n" in out.stdout


def test_usage():
    for argv in (
        [], ["a", "b", "w"], ["a", "b", "w", "0"], ["a", "b", "w", "x"],
        ["a", "b", "w", "2", "x"], ["a", "b", "w", "2", "-1"], ["a", "b", "w", "2", "1", "1"],
    ):
        assert bench_pairs.main(argv) == 2


def test_trace_hash_needs_the_line_before_the_result():
    assert bench_pairs.trace_hash(['{"trace_sha256": "abc"}', "{}"]) == "abc"
    for lines in (["{}"], ["not json", "{}"], ["[1]", "{}"], ["{}", "{}"]):
        assert bench_pairs.trace_hash(lines) is None
