"""Text formats: one reader and one writer each, total on arbitrary input.

Cloud and trajectory files belong to ``demos``; configs and traces to
``stats``.  Any text given to a reader yields a result or a
TrajTransferError, never another exception.
"""

import base64
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajtransfer.demos import (
    Dataset,
    Demonstration,
    EndEffectorState,
    load_dataset,
    parse_micro_skill,
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
    return [EndEffectorState(Pose(r[3:], r[:3]), g, i) for i, (r, g) in enumerate(rows)]


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

    @pytest.mark.parametrize("t", [2**63, 2**70, -(2**63) - 1])
    def test_time_index_fits_int64(self, tmp_path, t):
        """A time index the archive could not store names its row; int64's own extremes read."""
        rows = [f"{-(2**63)} 0.4 0.2 0.2 1.0 0.0 0.0 0.0 0", "", f"{2**63 - 1} 0.4 0.2 0.1 1.0 0.0 0.0 0.0 1"]
        (tmp_path / "t.txt").write_text("\n".join(rows) + "\n")
        assert [s.time_index for s in read_trajectory_file(tmp_path / "t.txt")] == [-(2**63), 2**63 - 1]
        rows[2] = f"{t} 0.4 0.2 0.1 1.0 0.0 0.0 0.0 1"
        (tmp_path / "t.txt").write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedFile, match=rf"t\.txt:3: time index must fit an int64, got {t}$"):
            read_trajectory_file(tmp_path / "t.txt")

    def test_blank_lines_skipped(self, tmp_path):
        (tmp_path / "t.txt").write_text("\n0 0.4 0.2 0.2 1.0 0.0 0.0 0.0 0\n\n1 0.4 0.2 0.1 1.0 0.0 0.0 0.0 1\n")
        traj = read_trajectory_file(tmp_path / "t.txt")
        assert [s.gripper for s in traj] == [0, 1]

    def test_blocks_match_the_archive(self, tmp_path):
        """The rows of gen-align-data's block read back as the archive's
        states, bit for bit: both readers build poses in one pass."""
        ds = Dataset()
        cloud = PointCloud(np.random.default_rng(0).normal(0.0, 0.02, (10, 3)) + [0.4, 0.2, 0.05])
        demo = ds.ingest("open bottle", cloud, TRAJ, demo_id="d")
        save_dataset(ds, tmp_path / "ds")
        write_trajectory_blocks([demo.trajectory], tmp_path / "blocks.txt")
        block = (tmp_path / "blocks.txt").read_text().splitlines()
        assert block[0] == f"trajectory {len(demo.trajectory)}"
        (tmp_path / "t.txt").write_text("\n".join(block[1:]) + "\n")

        def bits(traj):
            return [(s.time_index, s.gripper, s.pose.rotation.tobytes(), s.pose.translation.tobytes()) for s in traj]

        assert bits(read_trajectory_file(tmp_path / "t.txt")) == bits(load_dataset(tmp_path / "ds").demos["d"].trajectory)

    def test_archive_rejects_gripper_out_of_range(self, tmp_path):
        ds = Dataset()
        cloud = PointCloud(np.random.default_rng(0).normal(0.0, 0.02, (10, 3)) + [0.4, 0.2, 0.05])
        demo = ds.ingest("open bottle", cloud, TRAJ, demo_id="d")
        save_dataset(ds, tmp_path / "ds")
        demo_file = tmp_path / "ds" / "d.demo"
        lines = demo_file.read_text().splitlines()
        raw = bytearray(base64.b64decode(lines[4]))
        raw[64 * len(demo.trajectory) + 1] = 3  # the gripper of state 1, after the time indices and rows
        lines[4] = base64.b64encode(raw).decode()
        demo_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match=r"d\.demo:5: state 1: gripper must be 0"):
            load_dataset(tmp_path / "ds")


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10,
)
# values near the manifest's own: demo ids that name no file, escape the
# archive or repeat; grids of the wrong shape, size, value or kind
demo_id_lists = st.one_of(
    json_values,
    st.lists(st.sampled_from(["d", "e", "", ".", "..", "../d", "d/", "d.demo", "x" * 300, "d\x00", 1, None]), max_size=3),
)
grid_values = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {
            key: st.one_of(
                st.lists(st.sampled_from([0, 1, 2, -1, 0.5, 1e300, float("inf"), float("nan"), "2"]), max_size=4),
                json_values,
            )
            for key in ("origin", "extent", "resolution")
        }
    ),
)


TWO_POINTS = [[0.4, 0.2, 0.05], [0.41, 0.21, 0.06]]


def pack(points):
    """A cloud line: the base64 of the points as little-endian float64."""
    return base64.b64encode(np.asarray(points, dtype="<f8").tobytes()).decode()


def voxels(index, values, index_dtype="<u4"):
    """A voxels line: the base64 of the indices as little-endian uint32, then the values as float64."""
    raw = np.asarray(index, dtype=index_dtype).tobytes() + np.asarray(values, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode()


class TestArchive:
    """Any text as dataset.json or as a .demo file: a Dataset or a TrajTransferError."""

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        """A one-demo archive of a 4-point cloud, so its .demo file is short."""
        ds = Dataset()
        cloud = PointCloud(np.random.default_rng(0).normal(0.0, 0.02, (4, 3)) + [0.4, 0.2, 0.05])
        ds.ingest("open bottle", cloud, TRAJ, demo_id="d")
        path = tmp_path_factory.mktemp("archive")
        save_dataset(ds, path)
        return path, json.loads((path / "dataset.json").read_text()), (path / "d.demo").read_text()

    @staticmethod
    def load(path):
        try:
            ds = load_dataset(path)
        except TrajTransferError:
            return
        assert isinstance(ds, Dataset)
        for demo_id, demo in ds.demos.items():
            assert isinstance(demo, Demonstration) and demo.id == demo_id
            assert demo_id in ds.skill_index[demo.micro_skill]
            # a demo that loads can be replayed and retrieved
            assert len(demo.trajectory) >= 2 and len(demo.object_cloud) > 0
            assert demo.micro_skill == parse_micro_skill(demo.description)

    # the bytes per item of each array of a block's packed line, one array after the other
    ITEM_BYTES = {"trajectory": (8, 56, 1), "cloud": (24,), "voxels": (4, 8)}

    @staticmethod
    def cut(text, block, n):
        """(index of the ``block N`` header, the rows of ``text`` with that
        block cut to its first n states, points or voxels)."""
        rows = text.splitlines()
        at = next(i for i, row in enumerate(rows) if row.startswith(block + " "))
        count = int(rows[at].split()[1])
        raw = base64.b64decode(rows[at + 1])
        starts = np.cumsum([0, *TestArchive.ITEM_BYTES[block]]) * count
        kept = b"".join(raw[start : start + size * n] for start, size in zip(starts, TestArchive.ITEM_BYTES[block]))
        return at, rows[:at] + [f"{block} {n}"] + [base64.b64encode(kept).decode()] * (n > 0) + rows[at + 2 :]

    @staticmethod
    @st.composite
    def edited(draw, text):
        """``text`` with a block cut short, or a few of its lines replaced,
        deleted or duplicated."""
        if draw(st.booleans()):
            block = draw(st.sampled_from(["trajectory", "cloud", "voxels"]))
            _, rows = TestArchive.cut(text, block, draw(st.integers(0, 3)))
            text = "\n".join(rows)
        rows = text.splitlines()
        keyword = st.sampled_from(["description", "micro_skill", "instance", "trajectory", "cloud", "voxels", "embedding"])
        header = st.tuples(keyword, words).map(" ".join)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(rows)))
            action = draw(st.sampled_from(["replace", "delete", "insert"]))
            line = draw(st.one_of(lines, header))
            if action == "insert" or i == len(rows):
                rows.insert(i, line)
            elif action == "delete":
                del rows[i]
            else:
                rows[i] = line
        return "\n".join(rows) + draw(st.sampled_from(["", "\n"]))

    @FUZZ
    @given(data=st.data())
    def test_any_demo_file(self, archive, data):
        path, manifest, demo = archive
        text = data.draw(st.one_of(texts, self.edited(demo)))
        (path / "dataset.json").write_text(json.dumps(manifest))
        (path / "d.demo").write_text(text)
        self.load(path)

    @FUZZ
    @given(data=st.data())
    def test_any_manifest(self, archive, data):
        path, manifest, demo = archive
        changed = data.draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "demo_ids": demo_id_lists,
                    "skill_index": st.one_of(json_values, st.dictionaries(st.sampled_from(["open bottle", "x"]), demo_id_lists)),
                    "grid": grid_values,
                },
            )
        )
        dropped = data.draw(st.sets(st.sampled_from(sorted(manifest)), max_size=1))
        structured = json.dumps({k: v for k, v in {**manifest, **changed}.items() if k not in dropped})
        text = data.draw(st.sampled_from(["manifest"] * 3 + ["json", "text"]))
        if text != "manifest":
            text = data.draw(json_values.map(json.dumps) if text == "json" else texts)
        else:
            text = structured
        (path / "d.demo").write_text(demo)
        (path / "dataset.json").write_text(text)
        self.load(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"demo_ids": ["e"]},
            {"demo_ids": ["../d"]},
            {"demo_ids": ["d\x00"]},
            {"grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "resolution": [float("inf"), 2, 2]}},
            {"grid": {"origin": [0, 0, 0], "extent": [float("nan"), 1, 1], "resolution": [2, 2, 2]}},
            {"grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "resolution": [4096, 4096, 4096]}},
            {"grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "resolution": [2**40, 2, 2]}},
            {"grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "resolution": [2.9, 2, 2]}},
            {"grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "resolution": [2, "3", 2]}},
            {"grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "resolution": [2, 2.0, 2]}},
            {"grid": {"origin": ["0", 0, 0], "extent": [1, 1, 1], "resolution": [2, 2, 2]}},
            {"grid": {"origin": "123", "extent": [1, 1, 1], "resolution": [2, 2, 2]}},
            {"grid": {"origin": [0, 0, 0], "extent": [True, 1, 1], "resolution": [2, 2, 2]}},
            {"grid": {"origin": [0.0, 0.0, 0.0], "extent": [0.8, 0.45, 0.4], "resolution": [16, 12, 8]}},
            {"grid": {"origin": [0.0, 0.0, 0.0], "extent": [0.8, 0.45, 0.4], "resolution": [32, 24.0, 16]}},
            {"grid": {"origin": [False, False, False], "extent": [0.8, 0.45, 0.4], "resolution": [32, 24, 16]}},
            {"grid": {"origin": [0.0, 0.0, 0.0], "extent": [0.8, 0.45, 0.4], "resolution": [32, 24, 16], "x": 1}},
        ],
        ids=[
            "no-such-file", "outside-the-archive", "nul-in-name", "infinite-resolution", "nan-extent", "huge-grid", "huge-axis",
            "fractional-resolution", "string-resolution", "float-resolution", "string-origin", "origin-string", "bool-extent",
            "other-grid", "program-grid-float-resolution", "program-grid-bool-origin", "program-grid-extra-key",
        ],
    )
    def test_malformed_manifest(self, archive, change):
        """A manifest grid other than the program's is refused, and so is the
        program's with a value of another kind: it is not converted."""
        path, manifest, demo = archive
        (path / "d.demo").write_text(demo)
        (path / "dataset.json").write_text(json.dumps({**manifest, **change}))
        with pytest.raises(MalformedFile, match=r"dataset\.json"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "index,text",
        [(0, "description "), (0, "description the a"), (1, "micro_skill close bottle"), (1, "micro_skill bottle open")],
        ids=["empty-description", "no-skill-tokens", "other-micro-skill", "reordered-micro-skill"],
    )
    def test_description_rules(self, archive, index, text):
        """Dataset.ingest's description rules hold on load; the micro skill is
        recomputed, and a stored one that differs names line 2."""
        path, manifest, demo = archive
        rows = demo.splitlines()
        rows[index] = text
        (path / "dataset.json").write_text(json.dumps(manifest))
        (path / "d.demo").write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedFile, match=rf"d\.demo:{index + 1}: "):
            load_dataset(path)

    @pytest.mark.parametrize("block,n", [("trajectory", 0), ("trajectory", 1), ("cloud", 0)])
    def test_demonstration_rules(self, archive, block, n):
        """A .demo must hold a Demonstration: at least 2 states and a
        non-empty cloud; a block cut short names its header line."""
        path, manifest, demo = archive
        at, rows = self.cut(demo, block, n)
        (path / "dataset.json").write_text(json.dumps(manifest))
        (path / "d.demo").write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedFile, match=rf"d\.demo:{at + 1}: "):
            load_dataset(path)

    @pytest.mark.parametrize(
        "block,row,message",
        [
            (["voxels 1", voxels([1], [0.5])[:-2] + "!="], 1, "as one base64 line: Only base64 data is allowed"),
            (["voxels 2", voxels([1], [0.5])], 1, "the line holds 12 bytes, not 12 x 2"),
            (["voxels 1", voxels([1, 3], [0.5, 0.5])], 1, "the line holds 24 bytes, not 12 x 1"),
            (["voxels 2", voxels([1, 12288], [0.5, 0.5])], 1, r"voxel entry 1: index 12288 is outside \[0, 12288\)"),
            (["voxels 1", voxels([-1], [0.5], "<i4")], 1, r"voxel entry 0: index 4294967295 is outside \[0, 12288\)"),
            (["voxels 3", voxels([1, 3, 3], [0.5, 0.5, 0.25])], 1, "voxel entry 2: index 3 does not follow 3"),
            (["voxels 2", voxels([3, 2], [0.5, 0.25])], 1, "voxel entry 1: index 2 does not follow 3"),
            (["voxels 1", voxels([1], [math.inf])], 1, "voxel entry 0: value inf is not finite and > 0"),
            (["voxels 1", voxels([1], [math.nan])], 1, "voxel entry 0: value nan is not finite and > 0"),
            (["voxels 2", voxels([1, 2], [0.5, 0.0])], 1, "voxel entry 1: value 0.0 is not finite and > 0"),
            (["voxels 1", voxels([1], [-0.0])], 1, "voxel entry 0: value -0.0 is not finite and > 0"),
            (["voxels 1", voxels([1], [-0.5])], 1, "voxel entry 0: value -0.5 is not finite and > 0"),
            (["voxels 0"], 0, "the embedding is all zero"),
            (["voxels -1", voxels([1], [0.5])], 0, "the embedding is all zero"),
            (["voxels", voxels([1], [0.5])], 0, "expected 'voxels ...'"),
            (["voxels 1"], 1, "unexpected end of file"),
            (["voxels 1", voxels([0], [1e-200])], 0, "the embedding is all zero, or its norm underflows to 0"),
            (["voxels 1", voxels([0], [1e300])], 0, "embedding entries must be finite, and their norm overflows"),
            (["voxels 2", voxels([0, 1], [1e154, 1e154])], 0, "embedding entries must be finite, and their norm overflows"),
            (["voxels 1", voxels([1], [0.5]), voxels([2], [0.5])], 2, "unexpected line after the voxels block"),
            # rows of an archive saved before the voxels were packed: the first names its line
            (["voxels 2", "1 0.5", "3"], 1, "as one base64 line: Only base64 data is allowed"),
            (["voxels 2", "1 0.5", "3 0.5 7"], 1, "as one base64 line: Only base64 data is allowed"),
            (["voxels 1", "1.0 0.5"], 1, "as one base64 line: Only base64 data is allowed"),
            (["voxels 1", "x 0.5"], 1, "as one base64 line: Only base64 data is allowed"),
            (["voxels 1", "1 x"], 1, "as one base64 line: Only base64 data is allowed"),
        ],
        ids=[
            "off-alphabet", "too-few-bytes", "too-many-bytes", "index-past-grid", "negative-index",
            "repeated-index", "decreasing-index", "infinite-value", "nan-value", "zero-value",
            "negative-zero-value", "negative-value", "no-rows", "negative-count", "no-count", "no-line",
            "norm-underflows", "norm-overflows", "sum-overflows", "line-after-the-line",
            "one-column", "three-columns", "float-index", "word-index", "word-value",
        ],
    )
    def test_malformed_voxels(self, archive, block, row, message):
        """The ``voxels K`` block is a header and one line, the base64 of K
        uint32 indices and then K float64 values: each index below the grid
        size and above the one before, each value finite and > 0.  A line
        that breaks a rule is named, with the index of the entry at fault; K
        < 1 or an embedding without a finite, non-zero norm names the header."""
        path, manifest, demo = archive
        lines = demo.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("voxels "))
        lines[at:] = block
        (path / "dataset.json").write_text(json.dumps(manifest))
        (path / "d.demo").write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match=rf"d\.demo:{at + 1 + row}: .*{message}"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "block,row,message",
        [
            (["cloud 2", pack(TWO_POINTS)[:-2] + "!="], 1, "as one base64 line: Only base64 data is allowed"),
            (["cloud 2", "\u00e9" + pack(TWO_POINTS)[1:]], 1, "as one base64 line: .* only ASCII characters"),
            (["cloud 2", pack(TWO_POINTS) + " "], 1, "as one base64 line: Only base64 data is allowed"),
            (["cloud 2", pack(TWO_POINTS)[:-1]], 1, "as one base64 line: Incorrect padding"),
            (["cloud 3", pack(TWO_POINTS)], 1, "the line holds 48 bytes, not 24 x 3"),
            (["cloud 1", pack(TWO_POINTS)], 1, "the line holds 48 bytes, not 24 x 1"),
            (["cloud 2", pack([[0.4, 0.2, 0.05], [0.4, math.nan, 0.05]])], 1, "cloud point 1 is not finite: \\[0.4, nan, 0.05\\]"),
            (["cloud 2", pack([[0.4, 0.2, -math.inf], [0.4, 0.2, 0.05]])], 1, "cloud point 0 is not finite: \\[0.4, 0.2, -inf\\]"),
            (["cloud 0"], 0, "demonstration object cloud is empty"),
            (["cloud -1", pack(TWO_POINTS)], 0, "demonstration object cloud is empty"),
            (["cloud 2", "0.4 0.2 0.05", "0.41 0.2 0.05"], 1, "as one base64 line: Only base64 data is allowed"),
            (["cloud", pack(TWO_POINTS)], 0, "expected 'cloud ...'"),
        ],
        ids=[
            "off-alphabet", "non-ascii", "trailing-space", "bad-padding", "too-few-bytes", "too-many-bytes",
            "nan-point", "inf-point", "no-points", "negative-count", "text-rows", "no-count",
        ],
    )
    def test_malformed_cloud(self, archive, block, row, message):
        """The ``cloud N`` block is one line, the base64 of N x 3 float64: a
        line off the alphabet, of the wrong size, with a non-finite point, or
        a cloud written as text rows (an archive saved before the cloud was
        packed) names the line, N < 1 the header."""
        path, manifest, demo = archive
        lines = demo.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("cloud "))
        lines[at : at + 2] = block
        (path / "dataset.json").write_text(json.dumps(manifest))
        (path / "d.demo").write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match=rf"d\.demo:{at + 1 + row}: .*{message}"):
            load_dataset(path)

    @pytest.mark.parametrize("extra", [["garbage line"], ["7 0.5"], ["", "voxels 0"]], ids=["text", "voxel-row", "blank"])
    def test_nothing_after_the_voxels_block(self, archive, extra):
        """The voxels block ends a .demo: a line after its packed line names itself."""
        path, manifest, demo = archive
        lines = demo.splitlines()
        (path / "dataset.json").write_text(json.dumps(manifest))
        (path / "d.demo").write_text("\n".join(lines + extra) + "\n")
        with pytest.raises(MalformedFile, match=rf"d\.demo:{len(lines) + 1}: unexpected line after the voxels block"):
            load_dataset(path)

    @pytest.mark.parametrize("dropped", [["open bottle", "open box"], ["open box"]], ids=["empty", "one-missing"])
    def test_partial_skill_index(self, tmp_path, dropped):
        """The manifest's skill index must list every skill the demos have."""
        ds = Dataset()
        cloud = PointCloud(np.random.default_rng(0).normal(0.0, 0.02, (4, 3)) + [0.4, 0.2, 0.05])
        ds.ingest("open bottle", cloud, TRAJ, demo_id="d")
        ds.ingest("open box", cloud, TRAJ, demo_id="e")
        save_dataset(ds, tmp_path)
        manifest = json.loads((tmp_path / "dataset.json").read_text())
        for skill in dropped:
            del manifest["skill_index"][skill]
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        with pytest.raises(MalformedFile, match=r"dataset\.json: skill index"):
            load_dataset(tmp_path)

    def test_saved_grid_pinned(self, archive):
        """save_dataset writes the program's grid to dataset.json, each value
        of its kind, as load_dataset requires it."""
        path, manifest, demo = archive
        # keys in the file's order; json keeps 0.0 a float and 32 an int
        assert json.dumps(manifest["grid"]) == (
            '{"extent": [0.8, 0.45, 0.4], "origin": [0.0, 0.0, 0.0], "resolution": [32, 24, 16]}'
        )

    def test_valid_archive_loads(self, archive):
        path, manifest, demo = archive
        (path / "dataset.json").write_text(json.dumps(manifest))
        (path / "d.demo").write_text(demo)
        assert list(load_dataset(path).demos) == ["d"]


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
        (tmp_path / "summary.json").write_text(json.dumps({"config": asdict(cfg), "rows": []}))
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
            '{"mode": "thousand", "occlusion_fraction": 1.0}',
            '{"mode": "thousand", "occlusion_fraction": 0.95}',
            '{"mode": "thousand", "noise_sigma": "high"}',
            '{"mode": "diversity", "families": []}',
            '{"mode": "dataset_size", "families": [], "repeats": 1}',
            '{"mode": "dataset_size", "seen_instances_per_family": 0, "unseen_instances_per_family": 0}',
            '{"mode": "thousand", "seen_instances_per_family": 0, "unseen_instances_per_family": 0}',
            '{"mode": "dataset_size", "demos_per_task": []}',
            '{"mode": "diversity", "diversity_splits": []}',
        ],
        ids=[
            "not-json", "list", "null-echo", "no-mode", "float-repeats", "negative-seed",
            "int-families", "split-of-three", "occlusion-above-one",
            "occlusion-one", "occlusion-masking-every-cluster", "string-noise",
            "diversity-without-families", "dataset-size-without-families",
            "dataset-size-without-instances", "thousand-without-instances",
            "dataset-size-without-conditions", "diversity-without-splits",
        ],
    )
    def test_malformed_config(self, tmp_path, text):
        """A bad config file names itself; a bad JSON object is refused
        when the config is built from it in code too."""
        (tmp_path / "cfg.json").write_text(text)
        with pytest.raises(ConfigError, match=r"cfg\.json"):
            read_config(tmp_path / "cfg.json")
        try:
            raw = json.loads(text)
        except ValueError:
            return
        if isinstance(raw, dict):
            with pytest.raises((ConfigError, TypeError, ValueError)):
                ExperimentConfig(**raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(tmp_path / "nowhere.json")
