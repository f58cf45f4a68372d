"""Command-line interface: exit codes, JSON output, determinism, flag docs."""

import argparse
import base64
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajtransfer
from trajtransfer import cli, demos, simbench
from trajtransfer.se3 import Pose


def write_cloud(path, center, n=40, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=0.02, size=(n, 3)) + np.array(center)
    lines = [str(n)] + [" ".join(repr(float(v)) for v in p) for p in pts]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory(path, n=3):
    lines = []
    for i in range(n):
        pose = Pose(translation=np.array([0.3, 0.2, 0.25 - 0.02 * i]))
        row = pose.as_row()
        lines.append(" ".join([str(i)] + [repr(float(v)) for v in row] + ["0"]))
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.fixture
def workdir(tmp_path):
    write_cloud(tmp_path / "cloud.txt", (0.4, 0.2, 0.05))
    write_trajectory(tmp_path / "traj.txt")
    return tmp_path


def ingest_one(workdir, demo_id="d1", description="open bottle"):
    return cli.main(
        [
            "ingest",
            "--dataset", str(workdir / "ds"),
            "--description", description,
            "--cloud", str(workdir / "cloud.txt"),
            "--trajectory", str(workdir / "traj.txt"),
            "--id", demo_id,
        ]
    )


class TestIngest:
    def test_valid_demo(self, workdir, capsys):
        assert ingest_one(workdir) == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == "d1"
        assert (workdir / "ds" / "dataset.json").exists()

    def test_truncated_trajectory(self, workdir):
        (workdir / "traj.txt").write_text("0 0.1 0.2\n")
        assert ingest_one(workdir) == cli.EXIT_INPUT

    def test_duplicate_id(self, workdir):
        assert ingest_one(workdir) == cli.EXIT_OK
        write_cloud(workdir / "cloud.txt", (0.6, 0.3, 0.05), seed=9)
        assert ingest_one(workdir, demo_id="d1") == cli.EXIT_INPUT

    def test_malformed_cloud(self, workdir):
        (workdir / "cloud.txt").write_text("not a number\n")
        assert ingest_one(workdir) == cli.EXIT_INPUT

    def test_second_ingest_keeps_the_first_demo(self, workdir):
        """ingest loads the archive and saves it again: a demo already there
        is written back byte for byte."""
        assert ingest_one(workdir) == cli.EXIT_OK
        before = (workdir / "ds" / "d1.demo").read_bytes()
        write_cloud(workdir / "cloud.txt", (0.55, 0.3, 0.05), seed=4)
        assert ingest_one(workdir, demo_id="d2") == cli.EXIT_OK
        assert (workdir / "ds" / "d1.demo").read_bytes() == before
        assert sorted(demos.load_dataset(workdir / "ds").demos) == ["d1", "d2"]


class TestRetrieve:
    def test_match(self, workdir, capsys):
        ingest_one(workdir)
        capsys.readouterr()
        code = cli.main(
            [
                "retrieve",
                "--dataset", str(workdir / "ds"),
                "--description", "open bottle",
                "--cloud", str(workdir / "cloud.txt"),
            ]
        )
        assert code == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["demo_id"] == "d1"
        assert out["similarity"] == 1.0  # the unclamped cosine of this cloud with itself is 1.0000000000000002

    def test_unknown_skill(self, workdir):
        ingest_one(workdir)
        code = cli.main(
            [
                "retrieve",
                "--dataset", str(workdir / "ds"),
                "--description", "fold towel",
                "--cloud", str(workdir / "cloud.txt"),
            ]
        )
        assert code == cli.EXIT_RETRIEVAL

    def test_top_ranked_descending(self, workdir, capsys):
        ingest_one(workdir, demo_id="d1")
        write_cloud(workdir / "cloud2.txt", (0.55, 0.30, 0.05), seed=4)
        cli.main(
            [
                "ingest",
                "--dataset", str(workdir / "ds"),
                "--description", "open bottle",
                "--cloud", str(workdir / "cloud2.txt"),
                "--trajectory", str(workdir / "traj.txt"),
                "--id", "d2",
            ]
        )
        capsys.readouterr()
        code = cli.main(
            [
                "retrieve",
                "--dataset", str(workdir / "ds"),
                "--description", "open bottle",
                "--cloud", str(workdir / "cloud.txt"),
                "--top", "5",
            ]
        )
        assert code == cli.EXIT_OK
        ranking = json.loads(capsys.readouterr().out)
        assert [r["demo_id"] for r in ranking] == ["d1", "d2"]
        sims = [r["similarity"] for r in ranking]
        assert sims == sorted(sims, reverse=True)

    @pytest.mark.parametrize("center", [(1e300, 0.0, 0.0), (1.7e308, -1.7e308, 0.0)])
    def test_far_cloud_one_error_line(self, workdir, center):
        """A cloud far off the grid ends in one error line and exit 2, with
        no numpy warning on stderr (run as a process, as a user runs it)."""
        ingest_one(workdir)
        write_cloud(workdir / "far.txt", center)
        env = dict(os.environ, PYTHONPATH=str(Path(trajtransfer.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "trajtransfer.cli", *_query("retrieve", workdir, "far.txt")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == cli.EXIT_INPUT
        lines = [line for line in proc.stderr.splitlines() if not line.startswith("config: ")]
        assert lines == ["error: OutOfWorkspace: cloud lies entirely outside the embedding grid"], proc.stderr

    def test_missing_dataset(self, workdir):
        code = cli.main(
            [
                "retrieve",
                "--dataset", str(workdir / "nowhere"),
                "--description", "open bottle",
                "--cloud", str(workdir / "cloud.txt"),
            ]
        )
        assert code == cli.EXIT_INPUT


class TestRegister:
    def test_self_registration(self, workdir, capsys):
        ingest_one(workdir)
        capsys.readouterr()
        code = cli.main(
            [
                "register",
                "--dataset", str(workdir / "ds"),
                "--demo-id", "d1",
                "--cloud", str(workdir / "cloud.txt"),
            ]
        )
        assert code == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert abs(out["delta"][0]) < 1e-6 and abs(out["delta"][1]) < 1e-6
        assert out["fitness"] == 1.0

    def test_dump_aligned(self, workdir):
        ingest_one(workdir)
        prefix = str(workdir / "dump")
        code = cli.main(
            [
                "register",
                "--dataset", str(workdir / "ds"),
                "--demo-id", "d1",
                "--cloud", str(workdir / "cloud.txt"),
                "--dump-aligned", prefix,
            ]
        )
        assert code == cli.EXIT_OK
        assert Path(prefix + "_demo_aligned.txt").exists()
        assert Path(prefix + "_test.txt").exists()

    def test_unknown_demo(self, workdir):
        ingest_one(workdir)
        code = cli.main(
            [
                "register",
                "--dataset", str(workdir / "ds"),
                "--demo-id", "nope",
                "--cloud", str(workdir / "cloud.txt"),
            ]
        )
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_points(self, workdir, capsys, n):
        ingest_one(workdir)
        write_cloud(workdir / "tiny.txt", (0.4, 0.2, 0.05), n=n)
        capsys.readouterr()
        code = cli.main(
            [
                "register",
                "--dataset", str(workdir / "ds"),
                "--demo-id", "d1",
                "--cloud", str(workdir / "tiny.txt"),
            ]
        )
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "TooFewPoints" in err and "Traceback" not in err


class TestGenScene:
    def test_scene_json(self, workdir, capsys):
        code = cli.main(
            ["gen-scene", "--family", "mug", "--seed", "4", "--cloud-out", str(workdir / "c.txt")]
        )
        assert code == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["category"] == "mug"
        assert len(out["object_pose"]) == 7
        assert (workdir / "c.txt").exists()

    def test_cloud_is_what_a_rollout_observes(self, workdir):
        out = workdir / "c.txt"
        cli.main(["gen-scene", "--family", "mug", "--seed", "4", "--cloud-out", str(out)])
        task = simbench.default_task("mug")
        scene = simbench.randomize_scene(task, simbench.generate_object("mug", 0), "controlled", 4)
        expected = simbench._observed_cloud(scene).points
        written = demos.read_cloud_file(out).points
        assert len(written) == 248
        assert np.array_equal(written, expected)


class TestGenAlignData:
    def test_export(self, workdir, capsys):
        """The exported approach paths, pinned: a change that moves any byte
        of gen-align-data's output fails here first."""
        ingest_one(workdir)
        capsys.readouterr()
        out_file = workdir / "align.txt"
        code = cli.main(
            [
                "gen-align-data",
                "--dataset", str(workdir / "ds"),
                "--demo-id", "d1",
                "--count", "20",
                "--output", str(out_file),
            ]
        )
        assert code == cli.EXIT_OK
        text = out_file.read_text()
        assert text.count("trajectory ") == 20
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == "721d8d9e2597a16f0d8abe68ac04056ad6399aa8827b6368a8d030e7c176a1c1"


def eval_config(path, seed=3, demos_per_task=(1,)):
    cfg = {
        "mode": "dataset_size",
        "seed": seed,
        "repeats": 1,
        "families": ["mug", "tray"],
        "demos_per_task": list(demos_per_task),
    }
    Path(path).write_text(json.dumps(cfg))


class TestRollout:
    def test_rollouts_appended_and_reported(self, workdir, capsys):
        """rollout appends one trace row per trial, and report reads them."""
        traces = workdir / "t.jsonl"
        traces.write_text(json.dumps({"condition": "earlier", "success": False, "failure_class": "retrieval"}) + "\n")
        code = cli.main(["rollout", "--family", "mug", "--count", "3", "--output", str(traces)])
        assert code == cli.EXIT_OK
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert printed["family"] == "mug" and printed["trials"] == 3
        rows = [json.loads(line) for line in traces.read_text().splitlines()]
        assert len(rows) == 4 and all(r["condition"] == "rollout/mug" for r in rows[1:])
        code = cli.main(["report", "--traces", str(traces), "--output", str(workdir / "rep")])
        assert code == cli.EXIT_OK
        with open(workdir / "rep" / "report.csv") as f:
            table = {r["label"]: r for r in csv.DictReader(f)}
        assert list(table) == ["earlier", "rollout/mug"]
        assert (table["rollout/mug"]["k"], table["rollout/mug"]["n"]) == (str(printed["successes"]), "3")


class TestEvaluate:
    def test_minimal_run(self, workdir, capsys):
        eval_config(workdir / "cfg.json")
        code = cli.main(
            [
                "evaluate",
                "--config", str(workdir / "cfg.json"),
                "--output", str(workdir / "out"),
                "--jobs", "1",
            ]
        )
        assert code == cli.EXIT_OK
        csv = (workdir / "out" / "report.csv").read_text().splitlines()
        assert csv[0] == "label,k,n,phat,lo,hi"
        assert len(csv) == 3  # seen + unseen rows
        assert (workdir / "out" / "traces.jsonl").exists()

    def test_noise_off_the_grid(self, workdir, capsys):
        """Every rollout whose cloud noise leaves the embedding grid is a
        recorded retrieval failure."""
        cfg = {"mode": "thousand", "families": ["mug"], "noise_sigma": 1e7, "repeats": 1}
        Path(workdir / "cfg.json").write_text(json.dumps(cfg))
        code = cli.main(
            ["evaluate", "--config", str(workdir / "cfg.json"), "--output", str(workdir / "out"), "--jobs", "1"]
        )
        assert code == cli.EXIT_OK
        rows = [json.loads(line) for line in (workdir / "out" / "traces.jsonl").read_text().splitlines()]
        assert rows and all(r["failure_class"] == "retrieval" and r["retrieval"] is None for r in rows)

    def test_two_point_cloud(self, workdir, capsys):
        """A rollout whose occluded cloud keeps 2 points is a recorded
        registration failure; the run goes on."""
        cfg = {"mode": "thousand", "families": ["bottle"], "occlusion_fraction": 0.9, "seed": 3, "repeats": 9}
        Path(workdir / "cfg.json").write_text(json.dumps(cfg))
        code = cli.main(
            ["evaluate", "--config", str(workdir / "cfg.json"), "--output", str(workdir / "out"), "--jobs", "1"]
        )
        assert code == cli.EXIT_OK
        rows = [json.loads(line) for line in (workdir / "out" / "traces.jsonl").read_text().splitlines()]
        [row] = [r for r in rows if r["scene_seed"] == 4140703941]
        assert row["failure_class"] == "registration" and row["registration"] == {"error": "TooFewPoints"}
        assert len(rows) == 18

    def test_bad_diversity_config(self, workdir):
        Path(workdir / "cfg.json").write_text(
            json.dumps({"mode": "diversity", "diversity_splits": [[10, 14]]})
        )
        code = cli.main(
            ["evaluate", "--config", str(workdir / "cfg.json"), "--output", str(workdir / "out")]
        )
        assert code == cli.EXIT_INPUT

    def test_seed_determinism(self, workdir):
        eval_config(workdir / "cfg.json")
        for out in ("out1", "out2"):
            code = cli.main(
                [
                    "evaluate",
                    "--config", str(workdir / "cfg.json"),
                    "--output", str(workdir / out),
                    "--seed", "7",
                    "--jobs", "1",
                ]
            )
            assert code == cli.EXIT_OK
        assert (workdir / "out1" / "report.csv").read_bytes() == (
            workdir / "out2" / "report.csv"
        ).read_bytes()
        assert (workdir / "out1" / "traces.jsonl").read_bytes() == (
            workdir / "out2" / "traces.jsonl"
        ).read_bytes()

    def test_report_from_traces(self, workdir, capsys):
        eval_config(workdir / "cfg.json")
        cli.main(
            ["evaluate", "--config", str(workdir / "cfg.json"), "--output", str(workdir / "out")]
        )
        code = cli.main(
            [
                "report",
                "--traces", str(workdir / "out" / "traces.jsonl"),
                "--output", str(workdir / "rep"),
            ]
        )
        assert code == cli.EXIT_OK
        assert (workdir / "rep" / "report.csv").read_bytes() == (
            workdir / "out" / "report.csv"
        ).read_bytes()


class TestReportConfig:
    def test_summary_json_round_trip(self, workdir, capsys):
        """report rebuilds evaluate's four report files byte for byte, rows in
        evaluate's order even where the labels sort otherwise (demos=10 < demos=3)."""
        eval_config(workdir / "cfg.json", demos_per_task=(3, 10))
        cli.main(
            [
                "evaluate",
                "--config", str(workdir / "cfg.json"),
                "--output", str(workdir / "out"),
                "--jobs", "1",
            ]
        )
        code = cli.main(
            [
                "report",
                "--traces", str(workdir / "out" / "traces.jsonl"),
                "--output", str(workdir / "rep"),
                "--config", str(workdir / "out" / "summary.json"),
            ]
        )
        assert code == cli.EXIT_OK
        for name in ("summary.json", "report.csv", "chart.svg", "failures.svg"):
            assert (workdir / "rep" / name).read_bytes() == (workdir / "out" / name).read_bytes()


# --- malformed input: every case exits 2 with an error line, no traceback ----


def _replace_line(path, after_prefix, text):
    """Replace the line after the first line starting with ``after_prefix``."""
    lines = Path(path).read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(after_prefix))
    lines[i + 1] = text
    Path(path).write_text("\n".join(lines) + "\n")


def _nan_cloud(path):
    write_cloud(path, (0.4, 0.2, 0.05))
    _replace_line(path, "40", "nan 0.2 0.05")


def _query(command, workdir, cloud="cloud.txt"):
    argv = [command, "--dataset", str(workdir / "ds"), "--cloud", str(workdir / cloud)]
    if command == "register":
        return argv + ["--demo-id", "d1"]
    return argv + ["--description", "open bottle"]


def _report(workdir, traces, config=None):
    (workdir / "traces.jsonl").write_text(traces)
    argv = ["report", "--traces", str(workdir / "traces.jsonl"), "--output", str(workdir / "rep")]
    if config is not None:
        (workdir / "cfg.json").write_text(config)
        argv += ["--config", str(workdir / "cfg.json")]
    return argv


GOOD_TRACE = '{"condition": "c", "failure_class": "none", "success": true}\n'


def _ingest(w):
    return ["ingest", "--dataset", str(w / "ds"), "--description", "open bottle",
            "--cloud", str(w / "cloud.txt"), "--trajectory", str(w / "traj.txt")]


def _case_ingest_nan_cloud(w):
    _nan_cloud(w / "cloud.txt")
    return _ingest(w), "cloud.txt:2"


def _case_query_nan_cloud(command):
    def case(w):
        ingest_one(w)
        _nan_cloud(w / "q.txt")
        return _query(command, w, "q.txt"), "q.txt:2"
    return case


def _case_manifest_not_json(w):
    ingest_one(w)
    (w / "ds" / "dataset.json").write_text("{not json")
    return _query("retrieve", w), "dataset.json"


def _case_manifest_without_grid(w):
    ingest_one(w)
    manifest = json.loads((w / "ds" / "dataset.json").read_text())
    del manifest["grid"]
    (w / "ds" / "dataset.json").write_text(json.dumps(manifest))
    return _query("retrieve", w), "dataset.json"


def _demo_lines(w):
    """(lines of the ingested d1.demo, index of its ``cloud N`` header)."""
    lines = (w / "ds" / "d1.demo").read_text().splitlines()
    return lines, next(i for i, line in enumerate(lines) if line.startswith("cloud "))


def _case_demo_nonfinite_point(w):
    ingest_one(w)
    lines, at = _demo_lines(w)
    points = np.frombuffer(base64.b64decode(lines[at + 1]), "<f8").copy()
    points[3 * 5 + 1] = np.inf  # y of point 5
    _replace_line(w / "ds" / "d1.demo", "cloud ", base64.b64encode(points.tobytes()).decode())
    return _query("retrieve", w), f"d1.demo:{at + 2}: cloud point 5 is not finite"


def _case_demo_cloud_rows(w):
    """An archive saved before the cloud was packed: its cloud block holds
    one text row per point."""
    ingest_one(w)
    lines, at = _demo_lines(w)
    rows = (w / "cloud.txt").read_text().splitlines()[1:]
    lines[at + 1 : at + 2] = rows
    (w / "ds" / "d1.demo").write_text("\n".join(lines) + "\n")
    return _query("retrieve", w), f"d1.demo:{at + 2}: expected 40 items as one base64 line"


def _case_demo_voxel_rows(w):
    """An archive saved before the voxels were packed: its voxels block holds
    one text row ``index value`` per non-zero entry."""
    ingest_one(w)
    lines, at = _demo_lines(w)
    k = int(lines[at + 2].split()[1])
    raw = base64.b64decode(lines[at + 3])
    index, values = np.frombuffer(raw, "<u4", k), np.frombuffer(raw, "<f8", k, 4 * k)
    lines[at + 3 :] = [f"{i} {v!r}" for i, v in zip(index.tolist(), values.tolist())]
    (w / "ds" / "d1.demo").write_text("\n".join(lines) + "\n")
    return _query("retrieve", w), f"d1.demo:{at + 4}: expected {k} items as one base64 line"


def _case_demo_line_after_voxels(w):
    ingest_one(w)
    lines, _ = _demo_lines(w)
    (w / "ds" / "d1.demo").write_text("\n".join(lines + ["garbage line"]) + "\n")
    return _query("retrieve", w), f"d1.demo:{len(lines) + 1}: unexpected line after the voxels block"


def _case_demo_negative_embedding(w):
    ingest_one(w)
    lines, at = _demo_lines(w)
    lines[at + 2 :] = ["voxels 1", base64.b64encode(np.array([0], "<u4").tobytes() + np.array([-0.5]).tobytes()).decode()]
    (w / "ds" / "d1.demo").write_text("\n".join(lines) + "\n")
    return _query("retrieve", w), f"d1.demo:{at + 4}: voxel entry 0: value -0.5 is not finite and > 0"


def _case_demo_line(index, text):
    """An ingested demo's .demo line ``index`` replaced by ``text``; retrieve."""
    def case(w):
        ingest_one(w)
        lines = (w / "ds" / "d1.demo").read_text().splitlines()
        lines[index] = text
        (w / "ds" / "d1.demo").write_text("\n".join(lines) + "\n")
        return _query("retrieve", w), f"d1.demo:{index + 1}:"
    return case


def _trajectory(w):
    """(lines of the ingested d1.demo; the time indices, rows and grippers of
    its ``trajectory N`` header and packed line, as arrays)."""
    ingest_one(w)
    lines = (w / "ds" / "d1.demo").read_text().splitlines()
    n = int(lines[3].split()[1])
    raw = base64.b64decode(lines[4])
    return lines, np.frombuffer(raw, "<i8", n), np.frombuffer(raw, "<f8", 7 * n, 8 * n).reshape(n, 7), np.frombuffer(raw, "u1", n, 64 * n)


def _write_trajectory(w, lines, index, rows, gripper):
    """d1.demo with ``lines`` and a trajectory line packed from the arrays."""
    raw = index.astype("<i8").tobytes() + rows.astype("<f8").tobytes() + gripper.astype("u1").tobytes()
    lines[3:5] = [f"trajectory {len(index)}", base64.b64encode(raw).decode()]
    (w / "ds" / "d1.demo").write_text("\n".join(lines) + "\n")


def _case_demo_one_state_trajectory(w):
    lines, index, rows, gripper = _trajectory(w)
    _write_trajectory(w, lines, index[:1], rows[:1], gripper[:1])
    return _query("retrieve", w), "d1.demo:4: demonstration trajectory needs >= 2 states"


def _case_demo_trajectory_rows(w):
    """An archive saved before the trajectory was packed: its trajectory block
    holds one text row ``t_index tx ty tz qw qx qy qz g`` per state."""
    lines, index, rows, gripper = _trajectory(w)
    lines[4:5] = [" ".join(map(repr, [i, *row, g])) for i, row, g in zip(index.tolist(), rows.tolist(), gripper.tolist())]
    (w / "ds" / "d1.demo").write_text("\n".join(lines) + "\n")
    return _query("retrieve", w), f"d1.demo:5: expected {len(index)} items as one base64 line"


def _case_demo_zero_quaternion(w):
    lines, index, rows, gripper = _trajectory(w)
    rows = rows.copy()
    rows[2, 3:] = 0.0
    _write_trajectory(w, lines, index, rows, gripper)
    return _query("retrieve", w), "d1.demo:5: state 2: zero or non-finite quaternion"


def _case_manifest_huge_grid(w):
    """A grid too large to embed on is refused when the manifest is read, before any array is built."""
    ingest_one(w)
    manifest = json.loads((w / "ds" / "dataset.json").read_text())
    manifest["grid"]["resolution"] = [4096, 4096, 4096]
    (w / "ds" / "dataset.json").write_text(json.dumps(manifest))
    return _query("retrieve", w), '"resolution": [4096, 4096, 4096]} is not the program\'s'


def _case_manifest_other_grid(w):
    """An archive saved on another grid is refused, not embedded against."""
    ingest_one(w)
    manifest = json.loads((w / "ds" / "dataset.json").read_text())
    manifest["grid"]["resolution"] = [16, 12, 8]
    (w / "ds" / "dataset.json").write_text(json.dumps(manifest))
    return _query("retrieve", w), 'dataset.json: grid {"extent": [0.8, 0.45, 0.4], "origin": [0.0, 0.0, 0.0], "resolution": [16, 12, 8]}'


def _case_manifest_partial_skill_index(w):
    ingest_one(w)
    manifest = json.loads((w / "ds" / "dataset.json").read_text())
    manifest["skill_index"] = {}
    (w / "ds" / "dataset.json").write_text(json.dumps(manifest))
    return _query("retrieve", w), "dataset.json"


def _case_gripper_out_of_range(w):
    lines = (w / "traj.txt").read_text().splitlines()
    lines[1] = lines[1][: -len(" 0")] + " 7"
    (w / "traj.txt").write_text("\n".join(lines) + "\n")
    return _ingest(w), "traj.txt:2"


def _case_time_index_outside_int64(w):
    lines = (w / "traj.txt").read_text().splitlines()
    lines[1] = f"{2**70} " + lines[1].split(" ", 1)[1]
    (w / "traj.txt").write_text("\n".join(lines) + "\n")
    return _ingest(w), f"traj.txt:2: time index must fit an int64, got {2**70}"


def _case_ingest_line_break(w):
    argv = _ingest(w)
    argv[argv.index("--description") + 1] = "lift\nmug"
    return argv, "line break"


def _case_ingest_id(demo_id, existing):
    """ingest under an id that is not a file name, into a new or an existing archive."""
    def case(w):
        if existing:
            ingest_one(w)
        return _ingest(w) + ["--id", demo_id], "is not a file name"
    return case


def _case_gen_align_data_negative_seed(w):
    ingest_one(w)
    argv = ["gen-align-data", "--dataset", str(w / "ds"), "--demo-id", "d1", "--count", "2"]
    return argv + ["--seed", "-1", "--output", str(w / "align.txt")], "got -1"


def _case_unknown_demo(command):
    def case(w):
        ingest_one(w)
        argv = [command, "--dataset", str(w / "ds"), "--demo-id", "nope"]
        extra = ["--cloud", str(w / "cloud.txt")] if command == "register" else ["--output", str(w / "align.txt")]
        return argv + extra, "demo id 'nope' not in dataset"
    return case


def _case_gen_align_data_negative_count(w):
    ingest_one(w)
    argv = ["gen-align-data", "--dataset", str(w / "ds"), "--demo-id", "d1", "--count", "-3"]
    return argv + ["--output", str(w / "align.txt")], "--count must be >= 0, got -3"


def _case_retrieve_top_below_one(w):
    ingest_one(w)
    return _query("retrieve", w) + ["--top", "-4"], "--top must be >= 1, got -4"


def _case_evaluate(config, flags, where):
    """evaluate on ``config`` with ``flags``; the error names ``where``."""
    def case(w):
        (w / "cfg.json").write_text(json.dumps(config))
        return ["evaluate", "--config", str(w / "cfg.json"), "--output", str(w / "out"), *flags], where
    return case


def _case_register_huge_cloud(w):
    ingest_one(w)
    write_cloud(w / "q.txt", (1e200, 0.0, 0.0))
    return _query("register", w, "q.txt"), "exceed"


MALFORMED = {
    "ingest-nan-cloud": _case_ingest_nan_cloud,
    "retrieve-nan-cloud": _case_query_nan_cloud("retrieve"),
    "register-nan-cloud": _case_query_nan_cloud("register"),
    "manifest-not-json": _case_manifest_not_json,
    "manifest-without-grid": _case_manifest_without_grid,
    "manifest-huge-grid": _case_manifest_huge_grid,
    "manifest-other-grid": _case_manifest_other_grid,
    "demo-nonfinite-point": _case_demo_nonfinite_point,
    "demo-cloud-rows": _case_demo_cloud_rows,
    "demo-voxel-rows": _case_demo_voxel_rows,
    "demo-line-after-voxels": _case_demo_line_after_voxels,
    "demo-negative-embedding": _case_demo_negative_embedding,
    "demo-empty-description": _case_demo_line(0, "description "),
    "demo-description-without-skill-tokens": _case_demo_line(0, "description the"),
    "demo-micro-skill-mismatch": _case_demo_line(1, "micro_skill close bottle"),
    "demo-one-state-trajectory": _case_demo_one_state_trajectory,
    "demo-trajectory-rows": _case_demo_trajectory_rows,
    "demo-zero-quaternion": _case_demo_zero_quaternion,
    "manifest-partial-skill-index": _case_manifest_partial_skill_index,
    "report-config-not-json": lambda w: (_report(w, GOOD_TRACE, "{not json"), "cfg.json"),
    "report-trace-not-json": lambda w: (_report(w, GOOD_TRACE + "not json\n"), "traces.jsonl:2"),
    "report-trace-without-condition": lambda w: (
        _report(w, '{"failure_class": "none", "success": true}\n'),
        "traces.jsonl:1",
    ),
    "gripper-out-of-range": _case_gripper_out_of_range,
    "time-index-outside-int64": _case_time_index_outside_int64,
    "ingest-line-break-description": _case_ingest_line_break,
    "ingest-id-outside-archive": _case_ingest_id("../escape", existing=False),
    "ingest-id-in-subdirectory": _case_ingest_id("sub/x", existing=True),
    "ingest-id-empty": _case_ingest_id("", existing=False),
    "gen-scene-negative-seed": lambda w: (["gen-scene", "--family", "mug", "--seed", "-1"], "got -1"),
    "gen-scene-negative-instance-seed": lambda w: (
        ["gen-scene", "--family", "mug", "--instance-seed", "-2"],
        "got -2",
    ),
    "rollout-negative-seed": lambda w: (["rollout", "--family", "mug", "--seed", "-1", "--count", "1"], "got -1"),
    "rollout-negative-instance-seed": lambda w: (
        ["rollout", "--family", "mug", "--instance-seed", "-2", "--count", "1"],
        "got -2",
    ),
    "gen-align-data-negative-seed": _case_gen_align_data_negative_seed,
    "register-huge-cloud": _case_register_huge_cloud,
    "rollout-negative-count": lambda w: (
        ["rollout", "--family", "mug", "--count", "-1"],
        "--count must be >= 0, got -1",
    ),
    "gen-align-data-negative-count": _case_gen_align_data_negative_count,
    "gen-align-data-unknown-demo": _case_unknown_demo("gen-align-data"),
    "register-unknown-demo": _case_unknown_demo("register"),
    "retrieve-top-below-one": _case_retrieve_top_below_one,
    "evaluate-without-families": _case_evaluate(
        {"mode": "diversity", "families": []}, [], "families must be a non-empty list"
    ),
    "evaluate-dataset-size-without-instances": _case_evaluate(
        {"mode": "dataset_size", "seen_instances_per_family": 0, "unseen_instances_per_family": 0},
        [],
        "no rollout to run",
    ),
    "evaluate-thousand-without-instances": _case_evaluate(
        {"mode": "thousand", "seen_instances_per_family": 0, "unseen_instances_per_family": 0},
        [],
        "no rollout to run",
    ),
    "evaluate-without-demos-per-task": _case_evaluate(
        {"mode": "dataset_size", "demos_per_task": []}, [], "demos_per_task must be a non-empty list"
    ),
    "evaluate-without-diversity-splits": _case_evaluate(
        {"mode": "diversity", "diversity_splits": []}, [], "diversity_splits must be a non-empty list"
    ),
    "evaluate-jobs-zero": _case_evaluate({"mode": "thousand"}, ["--jobs", "0"], "--jobs must be >= 1, got 0"),
    "evaluate-negative-jobs": _case_evaluate({"mode": "thousand"}, ["--jobs", "-3"], "--jobs must be >= 1, got -3"),
    "evaluate-negative-seed": _case_evaluate({"mode": "thousand"}, ["--seed", "-1"], "must be non-negative integers"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(workdir, capsys, case):
    argv, where = MALFORMED[case](workdir)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(error) == 1 and where in error[0], err
    if argv[0] == "evaluate":  # refused before anything is written
        assert not (workdir / "out").exists()


@pytest.mark.parametrize("demo_id", ["../escape", "sub/x", ""])
def test_bad_id_leaves_archive_unchanged(workdir, capsys, demo_id):
    """ingest refuses the id before it writes: the archive keeps its bytes and
    loads, and no file appears outside it."""
    ingest_one(workdir)

    def files():
        return {p: p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}

    before = files()
    assert cli.main(_ingest(workdir) + ["--id", demo_id]) == cli.EXIT_INPUT
    assert files() == before
    assert list(demos.load_dataset(workdir / "ds").demos) == ["d1"]


def parser_flags() -> dict:
    """Mapping subcommand -> set of long option strings."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = {}
    for name, p in sub.choices.items():
        flags = set()
        for action in p._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    flags.add(opt)
        out[name] = flags
    return out


class TestDocs:
    def test_readme_documents_every_flag(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text()
        documented = set(re.findall(r"--[a-z][a-z-]*", text))
        for name, flags in parser_flags().items():
            assert name in text, f"subcommand {name} missing from README"
            missing = flags - documented
            assert not missing, f"{name}: flags not documented in README: {missing}"

    def test_readme_has_no_phantom_flags(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        documented = set(re.findall(r"`--[a-z][a-z-]*", readme.read_text()))
        documented = {d.lstrip("`") for d in documented}
        accepted = set().union(*parser_flags().values()) | {"--jobs", "--help"}
        phantom = documented - accepted
        assert not phantom, f"README documents unknown flags: {phantom}"

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in parser_flags():
            assert name in out
