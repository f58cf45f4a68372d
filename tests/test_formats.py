"""Text formats: one reader and one writer each, total on arbitrary input.

Cloud and trajectory files belong to ``demos``; configs and traces to
``stats``.  Any text given to a reader yields a result or a
TrajTransferError, never another exception.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajtransfer.demos import (
    Dataset,
    EndEffectorState,
    load_dataset,
    read_cloud_file,
    read_trajectory_file,
    save_dataset,
    write_cloud_file,
    write_trajectory_blocks,
)
from trajtransfer.errors import ConfigError, MalformedFile, TrajTransferError
from trajtransfer.se3 import Pose, PointCloud
from trajtransfer.simbench import FAILURE_CLASSES
from trajtransfer.stats import ExperimentConfig, read_config, read_traces, trace_line

FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# tokens that sit near the edges of the formats
NUMBERS = ["0", "1", "2", "7", "-1", "0.5", "-0.25", "1_0"]
TOKENS = NUMBERS + ["1e309", "nan", "inf", "-inf", "x", ""]
words = st.one_of(st.sampled_from(TOKENS), st.text(max_size=4))
numbers = st.sampled_from(NUMBERS)
lines = st.one_of(
    st.lists(words, max_size=10),
    st.lists(st.sampled_from(TOKENS), min_size=3, max_size=3),  # a cloud row's width
    st.lists(numbers, min_size=3, max_size=3),
    st.lists(st.sampled_from(TOKENS), min_size=9, max_size=9),  # a trajectory row's width
    st.tuples(numbers, *[numbers] * 7, st.sampled_from(["0", "1", "3"])).map(list),
).map(" ".join)
texts = st.one_of(
    st.lists(lines, max_size=8).map("\n".join),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def states(rows):
    return [EndEffectorState(Pose.from_row(r), g, i) for i, (r, g) in enumerate(rows)]


TRAJ = states(
    [
        ([0.4, 0.2, 0.2, 1.0, 0.0, 0.0, 0.0], 0),
        ([0.4, 0.2, 0.12, 0.9238795325112867, 0.0, 0.0, 0.3826834323650898], 1),
    ]
)


class TestCloudFile:
    @FUZZ
    @given(pts=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), max_size=20))
    def test_round_trip_bit_exact(self, scratch, pts):
        cloud = PointCloud(np.array(pts, dtype=np.float64).reshape(-1, 3))
        write_cloud_file(cloud, scratch / "c.txt")
        assert np.array_equal(read_cloud_file(scratch / "c.txt").points, cloud.points)

    @FUZZ
    @given(text=st.one_of(st.builds(lambda n, t: f"{n}\n{t}", st.integers(-1, 4), texts), texts))
    def test_any_text(self, scratch, text):
        (scratch / "c.txt").write_text(text)
        try:
            cloud = read_cloud_file(scratch / "c.txt")
        except TrajTransferError:
            return
        assert np.all(np.isfinite(cloud.points))

    @FUZZ
    @given(data=st.binary(max_size=40))
    def test_any_bytes(self, scratch, data):
        (scratch / "c.txt").write_bytes(data)
        try:
            read_cloud_file(scratch / "c.txt")
        except TrajTransferError:
            pass

    def test_rows_must_match_header(self, tmp_path):
        (tmp_path / "c.txt").write_text("3\n0.1 0.2 0.3\n")
        with pytest.raises(MalformedFile, match=r"c\.txt:1: 3 rows announced, 1 follow"):
            read_cloud_file(tmp_path / "c.txt")
        (tmp_path / "c.txt").write_text("2\n0.1 0.2\n0.3 0.4 0.5 0.6\n")
        with pytest.raises(MalformedFile, match=r"c\.txt:2: expected 3 columns"):
            read_cloud_file(tmp_path / "c.txt")


class TestTrajectoryFile:
    @FUZZ
    @given(text=texts)
    def test_any_text(self, scratch, text):
        (scratch / "t.txt").write_text(text)
        try:
            traj = read_trajectory_file(scratch / "t.txt")
        except TrajTransferError:
            return
        for s in traj:
            assert s.gripper in (0, 1)
            assert np.all(np.isfinite(s.pose.rotation)) and np.all(np.isfinite(s.pose.translation))

    @pytest.mark.parametrize("gripper", ["2", "3", "7", "-1"])
    def test_gripper_is_zero_or_one(self, tmp_path, gripper):
        (tmp_path / "t.txt").write_text(f"0 0.4 0.2 0.2 1.0 0.0 0.0 0.0 0\n1 0.4 0.2 0.1 1.0 0.0 0.0 0.0 {gripper}\n")
        with pytest.raises(MalformedFile, match=r"t\.txt:2: gripper must be 0"):
            read_trajectory_file(tmp_path / "t.txt")

    def test_blank_lines_skipped(self, tmp_path):
        (tmp_path / "t.txt").write_text("\n0 0.4 0.2 0.2 1.0 0.0 0.0 0.0 0\n\n1 0.4 0.2 0.1 1.0 0.0 0.0 0.0 1\n")
        traj = read_trajectory_file(tmp_path / "t.txt")
        assert [s.gripper for s in traj] == [0, 1]

    def test_blocks_match_the_archive(self, tmp_path):
        """gen-align-data's blocks and the archive's trajectory block share one writer."""
        ds = Dataset()
        cloud = PointCloud(np.random.default_rng(0).normal(0.0, 0.02, (10, 3)) + [0.4, 0.2, 0.05])
        demo = ds.ingest("open bottle", cloud, TRAJ, demo_id="d")
        save_dataset(ds, tmp_path / "ds")
        write_trajectory_blocks([demo.trajectory], tmp_path / "blocks.txt")
        archive = (tmp_path / "ds" / "d.demo").read_text().splitlines()
        block = (tmp_path / "blocks.txt").read_text().splitlines()
        assert archive[3 : 3 + len(block)] == block

    def test_archive_rejects_gripper_out_of_range(self, tmp_path):
        ds = Dataset()
        cloud = PointCloud(np.random.default_rng(0).normal(0.0, 0.02, (10, 3)) + [0.4, 0.2, 0.05])
        ds.ingest("open bottle", cloud, TRAJ, demo_id="d")
        save_dataset(ds, tmp_path / "ds")
        demo_file = tmp_path / "ds" / "d.demo"
        lines = demo_file.read_text().splitlines()
        lines[4] = lines[4][:-1] + "3"
        demo_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match=r"d\.demo:5: gripper must be 0"):
            load_dataset(tmp_path / "ds")


def trace_objects():
    value = st.one_of(st.booleans(), st.none(), st.integers(), st.text(max_size=5), st.sampled_from(FAILURE_CLASSES))
    key = st.sampled_from(["condition", "success", "failure_class", "x"])
    valid = st.fixed_dictionaries(
        {"condition": st.text(max_size=3), "success": st.booleans(), "failure_class": st.sampled_from(FAILURE_CLASSES)}
    )
    return st.one_of(st.dictionaries(key, value, max_size=4), valid).map(json.dumps)


class TestTraceFile:
    @FUZZ
    @given(rows=st.lists(st.one_of(trace_objects(), lines, st.just("[]")), max_size=6))
    def test_any_text(self, scratch, rows):
        (scratch / "traces.jsonl").write_text("".join(r + "\n" for r in rows))
        try:
            traces = read_traces(scratch / "traces.jsonl")
        except TrajTransferError:
            return
        assert len(traces) == len(rows)
        for t in traces:
            assert isinstance(t["condition"], str) and isinstance(t["success"], bool)
            assert t["failure_class"] in FAILURE_CLASSES

    def test_round_trip(self, tmp_path):
        traces = [
            {"condition": "a", "success": True, "failure_class": "none", "z": [1.5, None]},
            {"condition": "b", "success": False, "failure_class": "registration"},
        ]
        (tmp_path / "t.jsonl").write_text("".join(map(trace_line, traces)))
        assert read_traces(tmp_path / "t.jsonl") == traces


class TestConfigFile:
    def test_summary_echo_unwrapped(self, tmp_path):
        cfg = ExperimentConfig(mode="thousand", seed=4, repeats=2)
        (tmp_path / "summary.json").write_text(json.dumps({"config": cfg.to_dict(), "rows": []}))
        assert read_config(tmp_path / "summary.json") == cfg

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            '{"config": null}',
            '{"seed": 3}',
            '{"mode": "thousand", "repeats": 2.5}',
            '{"mode": "thousand", "seed": -1}',
            '{"mode": "thousand", "families": 5}',
            '{"mode": "diversity", "diversity_splits": [[10, 15, 1]]}',
            '{"mode": "thousand", "occlusion_fraction": 1.5}',
            '{"mode": "thousand", "noise_sigma": "high"}',
        ],
        ids=[
            "not-json", "list", "null-echo", "no-mode", "float-repeats", "negative-seed",
            "int-families", "split-of-three", "occlusion-above-one", "string-noise",
        ],
    )
    def test_malformed_config(self, tmp_path, text):
        (tmp_path / "cfg.json").write_text(text)
        with pytest.raises(ConfigError, match=r"cfg\.json"):
            read_config(tmp_path / "cfg.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(tmp_path / "nowhere.json")
