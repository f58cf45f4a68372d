"""Demonstration store: parsing, resampling, ingestion, archive round-trip."""

import base64
import copy
import dataclasses
import hashlib
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajtransfer import cli, demos, se3
from trajtransfer.demos import (
    Dataset,
    Demonstration,
    EndEffectorState,
    alignment_target,
    load_dataset,
    parse_micro_skill,
    resample_trajectory,
    save_dataset,
)
from trajtransfer.errors import (
    DuplicateId,
    EmptyCloud,
    EmptyDescription,
    InvalidDescription,
    InvalidId,
    MalformedFile,
    TrajectoryTooShort,
)
from trajtransfer.embedding import SIZE, GeometryEmbedding, occupancy_embedding
from trajtransfer.se3 import Pose, PointCloud, pose_distance


def straight_traj(length_m: float, n: int = 2, gripper=None):
    states = []
    for i in range(n):
        t = np.array([length_m * i / (n - 1), 0.0, 0.2])
        g = gripper[i] if gripper else 0
        states.append(EndEffectorState(Pose(translation=t), g, i))
    return states


def small_cloud(offset=(0.4, 0.2, 0.05)):
    rng = np.random.default_rng(7)
    return PointCloud(rng.normal(scale=0.02, size=(40, 3)) + np.array(offset))


class TestParseMicroSkill:
    def test_passthrough(self):
        assert parse_micro_skill("open bottle") == "open bottle"

    def test_normalization(self):
        assert parse_micro_skill("Open Bottle  ") == "open bottle"

    def test_adjective_stripping(self):
        assert parse_micro_skill("unzip the round pink handbag") == "unzip handbag"

    def test_empty_rejected(self):
        with pytest.raises(EmptyDescription):
            parse_micro_skill("   ")

    def test_all_stopwords_rejected(self):
        with pytest.raises(EmptyDescription):
            parse_micro_skill("the red big")


class TestResample:
    def test_ten_cm_gives_eleven_waypoints(self):
        out = resample_trajectory(straight_traj(0.10))
        assert len(out) == 11
        for a, b in zip(out[:-1], out[1:]):
            d, _ = pose_distance(a.pose, b.pose)
            assert d <= 0.01 + 1e-9

    def test_fixpoint(self):
        once = resample_trajectory(straight_traj(0.10))
        twice = resample_trajectory(once)
        assert len(once) == len(twice)
        for a, b in zip(once, twice):
            assert np.array_equal(a.pose.translation, b.pose.translation)
            assert a.gripper == b.gripper

    def test_gripper_event_preserved(self):
        traj = straight_traj(0.10, n=3, gripper=[0, 1, 1])
        out = resample_trajectory(traj)
        mid = [s for s in out if np.allclose(s.pose.translation, [0.05, 0, 0.2])]
        assert len(mid) == 1
        assert mid[0].gripper == 1

    def test_endpoints_exact(self):
        traj = straight_traj(0.037)
        out = resample_trajectory(traj)
        assert np.array_equal(out[0].pose.translation, traj[0].pose.translation)
        assert np.array_equal(out[-1].pose.translation, traj[-1].pose.translation)

    def test_path_length_preserved(self):
        traj = straight_traj(0.123)
        out = resample_trajectory(traj)
        total = sum(pose_distance(a.pose, b.pose)[0] for a, b in zip(out[:-1], out[1:]))
        assert abs(total - 0.123) < 1e-9

    def test_time_index_strictly_increasing(self):
        out = resample_trajectory(straight_traj(0.05, n=3))
        idx = [s.time_index for s in out]
        assert idx == sorted(set(idx))

    def test_too_short(self):
        with pytest.raises(TrajectoryTooShort):
            resample_trajectory(straight_traj(0.1)[:1])


class TestIngest:
    def test_retrievable_and_indexed(self):
        ds = Dataset()
        demo = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        assert ds.demos[demo.id] is demo
        assert demo.id in ds.skill_index["open bottle"]

    def test_same_skill_two_demos(self):
        ds = Dataset()
        a = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        b = ds.ingest("open bottle", small_cloud((0.5, 0.3, 0.05)), straight_traj(0.04))
        assert set(ds.skill_index["open bottle"]) == {a.id, b.id}

    def test_idempotent(self):
        ds = Dataset()
        a = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        b = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        assert a.id == b.id
        assert len(ds) == 1

    def test_duplicate_id_different_content(self):
        ds = Dataset()
        ds.ingest("open bottle", small_cloud(), straight_traj(0.05), demo_id="d1")
        with pytest.raises(DuplicateId):
            ds.ingest("open box", small_cloud(), straight_traj(0.05), demo_id="d1")

    def test_equality(self):
        """Demonstrations compare by value, embeddings included, so add
        decides a duplicate id with ==."""
        ds = Dataset()
        demo = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        twin = copy.deepcopy(demo)
        assert twin == demo and twin.embedding == demo.embedding
        assert ds.add(twin) is demo
        values = demo.embedding.values.copy()
        values[np.argmax(values)] *= 0.5
        changed = dataclasses.replace(demo, embedding=GeometryEmbedding(values))
        assert changed != demo and changed.embedding != demo.embedding
        with pytest.raises(DuplicateId):
            ds.add(changed)
        assert demo.embedding != demo.embedding.values.tolist()

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            Dataset().ingest("open bottle", PointCloud(np.zeros((0, 3))), straight_traj(0.05))

    def test_short_trajectory(self):
        with pytest.raises(TrajectoryTooShort):
            Dataset().ingest("open bottle", small_cloud(), straight_traj(0.05)[:1])

    @pytest.mark.parametrize("description", ["lift\nmug", "lift\rmug", "lift mug\n", "lift\u2028mug"])
    def test_line_break_rejected(self, description, tmp_path):
        # the archive stores the description on one line
        ds = Dataset()
        with pytest.raises(InvalidDescription):
            ds.ingest(description, small_cloud(), straight_traj(0.05))
        assert len(ds) == 0
        ds.ingest("lift  mug\t", small_cloud(), straight_traj(0.05))
        save_dataset(ds, tmp_path / "arch")
        assert [d.description for d in load_dataset(tmp_path / "arch").demos.values()] == ["lift  mug\t"]

    def test_embedding_matches_recompute(self):
        from trajtransfer.embedding import occupancy_embedding

        ds = Dataset()
        demo = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        recomputed = occupancy_embedding(demo.object_cloud)
        assert np.array_equal(demo.embedding.values, recomputed.values)


EMPTY_CLOUD = PointCloud(np.zeros((0, 3)))


class TestOwnRules:
    """Demonstration and EndEffectorState check their rules when built, so
    ingest, the archive reader and direct construction all apply them."""

    @pytest.mark.parametrize(
        "description,cloud,n_states,error",
        [
            ("open bottle", EMPTY_CLOUD, 2, EmptyCloud),
            ("open bottle", None, 1, TrajectoryTooShort),
            ("open bottle", None, 0, TrajectoryTooShort),
            ("", None, 2, EmptyDescription),
            ("the a", None, 2, EmptyDescription),
            ("lift\nmug", None, 2, InvalidDescription),
            ("lift mug\r", None, 2, InvalidDescription),
        ],
        ids=["empty-cloud", "one-state", "no-states", "empty-description", "no-skill-tokens", "newline", "carriage-return"],
    )
    def test_demonstration_raises_what_ingest_raises(self, description, cloud, n_states, error):
        cloud = small_cloud() if cloud is None else cloud
        traj = straight_traj(0.05)[:n_states]
        with pytest.raises(error):
            Demonstration(
                id="d",
                description=description,
                object_cloud=cloud,
                trajectory=tuple(traj),
                embedding=occupancy_embedding(small_cloud()),
            )
        with pytest.raises(error):
            Dataset().ingest(description, cloud, traj)

    @pytest.mark.parametrize("demo_id", ["../escape", "sub/x", "", "/abs", "./d", "d/"])
    def test_id_must_be_a_file_name(self, demo_id):
        """The archive reader's rule for a demo id, so no demo is stored that
        saves outside its archive or under a name that loads as another id."""
        with pytest.raises(InvalidId, match="is not a file name"):
            Dataset().ingest("open bottle", small_cloud(), straight_traj(0.05), demo_id=demo_id)

    @pytest.mark.parametrize("demo_id", ["d", ".", "..", "d.demo", ".hidden", "a b"])
    def test_file_name_ids_accepted(self, demo_id, tmp_path):
        ds = Dataset()
        ds.ingest("open bottle", small_cloud(), straight_traj(0.05), demo_id=demo_id)
        save_dataset(ds, tmp_path)
        assert list(load_dataset(tmp_path).demos) == [demo_id]

    def test_micro_skill_is_derived(self):
        demo = Dataset().ingest("Unzip the round pink handbag", small_cloud(), straight_traj(0.05))
        assert demo.micro_skill == "unzip handbag"
        with pytest.raises(TypeError):
            Demonstration(
                id="d",
                description="open bottle",
                micro_skill="close bottle",
                object_cloud=small_cloud(),
                trajectory=tuple(straight_traj(0.05)),
                embedding=occupancy_embedding(small_cloud()),
            )

    @pytest.mark.parametrize("gripper", [2, -1, 0.5, "1", None])
    def test_gripper_is_zero_or_one(self, gripper):
        with pytest.raises(ValueError, match="gripper must be 0 .open. or 1 .closed."):
            EndEffectorState(Pose(), gripper, 0)

    @pytest.mark.parametrize("time_index", [2**63, 2**70, -(2**63) - 1])
    def test_time_index_fits_int64(self, time_index):
        """The archive stores a time index as an int64, so no state holds one
        that saving could not pack."""
        with pytest.raises(ValueError, match=f"time index must fit an int64, got {time_index}$"):
            EndEffectorState(Pose(), 0, time_index)
        assert [EndEffectorState(Pose(), 0, t).time_index for t in (-(2**63), 2**63 - 1)] == [-(2**63), 2**63 - 1]

    @pytest.mark.parametrize("gripper", [0, 1, True, 1.0, np.int64(1)])
    def test_gripper_stored_as_int(self, gripper):
        state = EndEffectorState(Pose(), gripper, 0)
        assert type(state.gripper) is int and state.gripper == gripper


class TestAlignmentTarget:
    def test_first_pose(self):
        ds = Dataset()
        traj = straight_traj(0.05)
        demo = ds.ingest("open bottle", small_cloud(), traj)
        assert np.array_equal(
            alignment_target(demo).translation, traj[0].pose.translation
        )


class TestArchive:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = Dataset()
        ds.ingest(
            "open bottle",
            small_cloud(),
            straight_traj(0.07, n=3, gripper=[0, 1, 1]),
            object_instance_id="bottle-0",
        )
        ds.ingest("open box", small_cloud((0.5, 0.3, 0.05)), straight_traj(0.04))
        save_dataset(ds, tmp_path / "arch")
        loaded = load_dataset(tmp_path / "arch")
        assert sorted(loaded.demos) == sorted(ds.demos)
        assert loaded.skill_index.keys() == ds.skill_index.keys()
        for demo_id, orig in ds.demos.items():
            back = loaded.demos[demo_id]
            assert back.description == orig.description
            assert back.micro_skill == orig.micro_skill
            assert back.object_instance_id == orig.object_instance_id
            assert np.array_equal(back.object_cloud.points, orig.object_cloud.points)
            assert np.array_equal(back.embedding.values, orig.embedding.values)
            assert len(back.trajectory) == len(orig.trajectory)
            for a, b in zip(back.trajectory, orig.trajectory):
                assert np.array_equal(a.pose.translation, b.pose.translation)
                assert np.array_equal(a.pose.rotation, b.pose.rotation)
                assert a.gripper == b.gripper

    def test_alignment_target_survives_round_trip(self, tmp_path):
        ds = Dataset()
        demo = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        save_dataset(ds, tmp_path / "arch")
        back = load_dataset(tmp_path / "arch").demos[demo.id]
        dt, dr = pose_distance(alignment_target(back), alignment_target(demo))
        assert dt < 1e-15 and dr < 1e-15

    def test_pickle_round_trip(self):
        ds = Dataset()
        ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        ds.ingest("open box", small_cloud((0.5, 0.3, 0.05)), straight_traj(0.04))
        back = pickle.loads(pickle.dumps(ds))
        assert back.grid == ds.grid
        assert back.skill_index == ds.skill_index
        assert back.demos.keys() == ds.demos.keys()
        assert all(back.demos[i] == ds.demos[i] for i in ds.demos)

    def test_failed_save_keeps_the_manifest(self, tmp_path, monkeypatch):
        """save_dataset writes dataset.json last: a save that fails on a
        .demo file leaves the archive that was there loadable."""
        ds = Dataset()
        ds.ingest("open bottle", small_cloud(), straight_traj(0.05), demo_id="d")
        save_dataset(ds, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        ds.ingest("open box", small_cloud(), straight_traj(0.05), demo_id="e")

        def fail(path, lines):
            raise OSError(f"{path}: no space left on device")

        monkeypatch.setattr(demos, "_write_lines", fail)
        with pytest.raises(OSError):
            save_dataset(ds, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert list(load_dataset(tmp_path).demos) == ["d"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MalformedFile):
            load_dataset(tmp_path / "nowhere")

    def test_truncated_demo_file(self, tmp_path):
        ds = Dataset()
        demo = ds.ingest("open bottle", small_cloud(), straight_traj(0.05))
        save_dataset(ds, tmp_path / "arch")
        f = tmp_path / "arch" / f"{demo.id}.demo"
        text = f.read_text().splitlines()
        f.write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(MalformedFile):
            load_dataset(tmp_path / "arch")


STATES = (
    EndEffectorState(Pose([1.0, 0.0, 0.0, 0.0], [0.4, 0.2, 0.2]), 0, 0),
    EndEffectorState(Pose([0.9238795325112867, 0.0, 0.0, 0.3826834323650898], [0.4, 0.2, 0.12]), 1, 1),
)
CLOUD3 = PointCloud(np.array([[0.41, 0.2, 0.05], [0.38, 0.21, 0.06], [0.4, 0.19, 0.04]]))


def demo_with(values, demo_id="d", description="open the bottle", cloud=CLOUD3, instance="bottle-3", trajectory=STATES):
    """A Demonstration whose embedding starts with the given values, the rest 0."""
    dense = np.zeros(SIZE)
    dense[: len(values)] = values
    return Demonstration(
        id=demo_id,
        description=description,
        object_cloud=cloud,
        trajectory=trajectory,
        embedding=GeometryEmbedding(dense),
        object_instance_id=instance,
    )


DEMO_VALUES = [0.6047546581822695, 0.0, 0.39052725179804243, 0.0, 0.5852904027271837, 0.0, 0.37308901549813284, 0.0]

embedding_entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.5e-310, 1.0]),  # the least subnormal, another subnormal, one
)


# sparse non-negative vectors on the grid (12,288 voxels) with a
# finite non-zero norm: index -> value, with indices of one and two bytes
sparse_entries = st.dictionaries(
    st.one_of(st.integers(0, SIZE - 1), st.sampled_from([0, 255, 256, SIZE - 1])),
    st.one_of(st.floats(min_value=5e-324, max_value=1e150), st.sampled_from([5e-324, 2.5e-310, 1.0])),
    min_size=1,
    max_size=40,
).filter(lambda entries: np.linalg.norm(list(entries.values())) > 0.0)


class TestEmbeddingBlock:
    """The archive stores an embedding's K non-zero entries as a ``voxels K``
    header and one packed line: K uint32 indices, then K float64 values."""

    @settings(max_examples=60, deadline=None)
    @given(entries=sparse_entries)
    def test_sparse_round_trip_bit_exact(self, tmp_path_factory, entries):
        dense = np.zeros(SIZE)
        dense[list(entries)] = list(entries.values())
        demo = Demonstration(
            id="d",
            description="open the bottle",
            object_cloud=CLOUD3,
            trajectory=STATES,
            embedding=GeometryEmbedding(dense),
        )
        ds = Dataset()
        ds.add(demo)
        path = tmp_path_factory.mktemp("sparse")
        save_dataset(ds, path)
        lines = (path / "d.demo").read_text().splitlines()
        assert lines[-2] == f"voxels {len(entries)}"
        raw = base64.b64decode(lines[-1])
        index = np.frombuffer(raw, "<u4", len(entries))
        assert index.tolist() == sorted(entries)
        assert np.array_equal(np.frombuffer(raw, "<f8", offset=4 * len(entries)), dense[index])
        back = load_dataset(path).demos["d"]
        assert back == demo
        assert np.array_equal(back.embedding.values.view(np.uint64), dense.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(embedding_entries, min_size=8, max_size=8))
    @example(values=[0.0] * 8)
    @example(values=[0.0] * 7 + [1.0])
    @example(values=[5e-324] + [0.0] * 7)
    @example(values=[0.5, 1e-300, 2.5e-310, 5e-324, 1.0, 3.0, 1e300, 0.1])
    @example(values=[0.5, 1e-300, 2.5e-310, 5e-324, 1.0, 3.0, 1e150, 0.1])
    def test_round_trip_bit_exact(self, tmp_path_factory, values):
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(values)
        if not 0.0 < norm < math.inf:  # the cosine is undefined, so no demo holds it and no archive can
            with pytest.raises(ValueError, match="the embedding is all zero" if norm == 0.0 else "norm overflows"):
                demo_with(values)
            return
        ds = Dataset()
        demo = ds.add(demo_with(values))
        path = tmp_path_factory.mktemp("voxels")
        save_dataset(ds, path)
        assert f"voxels {np.count_nonzero(values)}" in (path / "d.demo").read_text().splitlines()
        back = load_dataset(path).demos["d"]
        assert back == demo
        assert np.array_equal(back.embedding.values.view(np.uint64), demo.embedding.values.view(np.uint64))

    def test_dense_header_names_its_line(self, tmp_path, capsys):
        """The dense ``embedding N`` block that the voxels block replaced is a
        malformed header: the CLI exits 2 naming its line."""
        ds = Dataset()
        ds.add(demo_with(DEMO_VALUES))
        save_dataset(ds, tmp_path)
        lines = (tmp_path / "d.demo").read_text().splitlines()
        at = lines.index("voxels 4")
        lines[at:] = ["embedding 8", *map(repr, DEMO_VALUES)]
        (tmp_path / "d.demo").write_text("\n".join(lines) + "\n")
        argv = ["gen-align-data", "--dataset", str(tmp_path), "--demo-id", "d", "--output", str(tmp_path / "a")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"d.demo:{at + 1}: expected 'voxels ...', got 'embedding 8'" in capsys.readouterr().err

    def test_archive_bytes_pinned(self, tmp_path):
        """The writer's text, pinned: a change that moves any byte of the
        archive fails here first."""
        ds = Dataset()
        ds.add(demo_with(DEMO_VALUES))
        cloud = PointCloud(np.array([[0.5, -0.0, 1e-05], [0.3333333333333333, 0.25, 0.125]]))
        ds.add(demo_with([0.0, 5e-324, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0], "e", "open box", cloud, None))
        save_dataset(ds, tmp_path)
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())}
        assert digests == ARCHIVE_SHA256
        # the trajectory line: the int64 time indices, the float64 rows tx ty tz qw qx qy qz, the uint8 grippers;
        # the cloud line: little-endian float64, x y z per point, point-major;
        # the voxels line: the uint32 indices of the non-zero entries, then their float64 values
        trajectory_line = struct.pack(
            "<2q14d2B", 0, 1, 0.4, 0.2, 0.2, 1.0, 0.0, 0.0, 0.0, 0.4, 0.2, 0.12, 0.9238795325112867, 0.0, 0.0, 0.3826834323650898, 0, 1
        )
        cloud_line = struct.pack("<6d", 0.5, -0.0, 1e-05, 0.3333333333333333, 0.25, 0.125)
        voxels_line = struct.pack("<2I2d", 1, 6, 5e-324, 1.0)
        assert (tmp_path / "e.demo").read_text().splitlines()[3:] == [
            "trajectory 2", base64.b64encode(trajectory_line).decode(),
            "cloud 2", base64.b64encode(cloud_line).decode(),
            "voxels 2", base64.b64encode(voxels_line).decode(),
        ]


# a float64 drawn by bit pattern, or an edge: -0.0, the least and the largest
# subnormal, the least normal, the largest finite, each with both signs
finite_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]).filter(math.isfinite),
    st.sampled_from([0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.sampled_from([-0.0, -5e-324, -2.225073858507201e-308, -2.2250738585072014e-308, -1.7976931348623157e308]),
)


class TestCloudBlock:
    """The archive stores a demo's cloud as one base64 line of its float64 bytes."""

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.tuples(finite_floats, finite_floats, finite_floats), min_size=1, max_size=8))
    @example(points=[(-0.0, 5e-324, -1.7976931348623157e308), (1.7976931348623157e308, -5e-324, 0.0)])
    def test_round_trip_bit_exact(self, tmp_path_factory, points):
        cloud = PointCloud(np.array(points, dtype=np.float64))
        ds = Dataset()
        demo = ds.add(demo_with(DEMO_VALUES, cloud=cloud))
        path = tmp_path_factory.mktemp("cloud")
        save_dataset(ds, path)
        assert f"cloud {len(points)}" in (path / "d.demo").read_text().splitlines()
        back = load_dataset(path).demos["d"]
        assert back == demo
        assert np.array_equal(back.object_cloud.points.view(np.uint64), cloud.points.view(np.uint64))
        flags = back.object_cloud.points.flags  # the reader hands over an array of its own
        assert flags.owndata and not flags.writeable


# quaternions that are not unit or not canonical: a negative w; w == 0 (or
# -0.0) with a negative first non-zero entry; subnormal entries, one that
# normalising flushes to -0.0 ahead of a positive entry; large and small scales
quaternions = st.one_of(
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.dot(q, q) > 0.0),
    st.sampled_from(
        [
            (-0.5, 0.5, -0.5, 0.5),
            (0.0, -0.6, 0.8, 0.0),
            (-0.0, 0.0, -1.0, 0.0),
            (0.0, -0.0, 5e-324, -1.0),
            (0.0, -5e-324, 1e150, 0.0),
            (-1e150, 3.0, -5e-324, 2.5e-310),
            (-2.5e-310, 0.0, 1.0, -0.0),
            (1e-160, -1e-160, 0.0, 0.0),
        ]
    ),
)
states = st.tuples(
    st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([0, 2**63 - 1])),
    quaternions,
    st.tuples(finite_floats, finite_floats, finite_floats),
    st.sampled_from([0, 1]),
)


def trajectory_line(states) -> str:
    """A packed trajectory line of (time index, quaternion, translation, gripper) states."""
    n = len(states)
    rows = [v for _, q, t, _ in states for v in (*t, *q)]
    raw = struct.pack(f"<{n}q{7 * n}d{n}B", *[s[0] for s in states], *rows, *[s[3] for s in states])
    return base64.b64encode(raw).decode()


def bits(pose):
    return pose.rotation.tobytes(), pose.translation.tobytes()


class TestTrajectoryBlock:
    """The archive stores a demo's trajectory as a ``trajectory N`` header and
    one packed line: N int64 time indices, N float64 rows ``tx ty tz qw qx qy
    qz``, then N uint8 grippers.  Loading builds all N poses in one pass, each
    ``Pose`` of its row byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=st.lists(states, min_size=2, max_size=6))
    @example(
        drawn=[(2**63 - 1, (-0.5, 0.5, -0.5, 0.5), (-0.0, 5e-324, -2.5e-310), 1), (0, (0.0, -0.6, 0.8, 0.0), (0.0, 0.0, 0.0), 0)]
    )
    def test_round_trip_bit_exact(self, tmp_path_factory, drawn):
        traj = tuple(EndEffectorState(Pose(q, t), g, i) for i, q, t, g in drawn)
        ds = Dataset()
        ds.add(demo_with(DEMO_VALUES, trajectory=traj))
        path = tmp_path_factory.mktemp("trajectory")
        save_dataset(ds, path)
        lines = (path / "d.demo").read_text().splitlines()
        # the line holds the saved states' bits; each loads as Pose of its row
        saved = [(s.time_index, s.pose.rotation, s.pose.translation, s.gripper) for s in traj]
        assert lines[3:5] == [f"trajectory {len(traj)}", trajectory_line(saved)]
        back = load_dataset(path).demos["d"].trajectory
        assert [(s.time_index, s.gripper) for s in back] == [(i, g) for i, _, _, g in drawn]
        assert [bits(s.pose) for s in back] == [bits(Pose(s.pose.rotation, s.pose.translation)) for s in traj]
        # rows as drawn, not unit and not canonical, load as Pose of the row too
        lines[4] = trajectory_line(drawn)
        (path / "d.demo").write_text("\n".join(lines) + "\n")
        back = load_dataset(path).demos["d"].trajectory
        assert [bits(s.pose) for s in back] == [bits(Pose(q, t)) for _, q, t, _ in drawn]
        assert [(s.time_index, s.gripper) for s in back] == [(i, g) for i, _, _, g in drawn]

    def test_squared_norm_is_q_at_q(self):
        """The stacked squared norm gives ``q @ q``'s bits, and the poses
        built in one pass Pose's, at every scale: a numpy for which they do
        not fails here."""
        rng = np.random.default_rng(7)
        for scale in (1e-150, 1.0, 1e150):
            q = rng.normal(size=(50_000, 4)) * scale
            assert se3._squared_norms(q).tobytes() == np.array([float(x @ x) for x in q]).tobytes()
            rows = np.hstack([rng.normal(size=(2_000, 3)), q[:2_000]])
            assert [bits(p) for p in se3.poses_from_rows(rows)] == [bits(Pose(r[3:], r[:3])) for r in rows]

    @pytest.mark.parametrize(
        "state,message",
        [
            ((1, (1.0, 0.0, 0.0, 0.0), (0.4, 0.2, 0.1), 2), "state 1: gripper must be 0 .open. or 1 .closed., got 2"),
            ((1, (1.0, 0.0, 0.0, 0.0), (0.4, math.nan, 0.1), 0), "state 1: non-finite translation"),
            ((1, (0.0, 0.0, -0.0, 0.0), (0.4, 0.2, 0.1), 0), "state 1: zero or non-finite quaternion"),
            ((1, (1.0, 0.0, math.inf, 0.0), (0.4, 0.2, 0.1), 0), "state 1: zero or non-finite quaternion"),
            ((1, (1e200, 0.0, 0.0, 0.0), (0.4, 0.2, 0.1), 0), "state 1: zero or non-finite quaternion"),
        ],
        ids=["gripper-2", "nan-translation", "zero-quaternion", "infinite-quaternion", "norm-overflows"],
    )
    def test_bad_state_names_line_and_state(self, tmp_path, state, message):
        ds = Dataset()
        ds.add(demo_with(DEMO_VALUES))
        save_dataset(ds, tmp_path)
        lines = (tmp_path / "d.demo").read_text().splitlines()
        lines[4] = trajectory_line([(0, (1.0, 0.0, 0.0, 0.0), (0.4, 0.2, 0.2), 0), state])
        (tmp_path / "d.demo").write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match=rf"d\.demo:5: {message}$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_byte_count_names_the_line(self, tmp_path, count):
        ds = Dataset()
        ds.add(demo_with(DEMO_VALUES))
        save_dataset(ds, tmp_path)
        lines = (tmp_path / "d.demo").read_text().splitlines()
        lines[3] = f"trajectory {count}"
        (tmp_path / "d.demo").write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match=rf"d\.demo:5: the line holds 130 bytes, not 65 x {count}$"):
            load_dataset(tmp_path)


ARCHIVE_SHA256 = {
    "d.demo": "bbad712c9075444b78d79e20daf81f1a73bb6cebe51705cfb3e8205ad2072f1e",
    "dataset.json": "99be618d73799728bb59283ae39085be591e9e2655733b5125d32932859d7dd6",
    "e.demo": "527df41e01348d94cdf57b6a0a394596117d986f23195fe66b5b90e3ac639b60",
}
