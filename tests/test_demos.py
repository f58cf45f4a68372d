"""Demonstration store: parsing, resampling, ingestion, archive round-trip."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajtransfer.demos import (
    Dataset,
    Demonstration,
    EndEffectorState,
    alignment_target,
    load_dataset,
    load_demo_file,
    parse_micro_skill,
    resample_trajectory,
    save_dataset,
)
from trajtransfer.errors import (
    DuplicateId,
    EmptyCloud,
    EmptyDescription,
    GridMismatch,
    InvalidDescription,
    InvalidSpacing,
    MalformedFile,
    TrajectoryTooShort,
)
from trajtransfer.embedding import GeometryEmbedding, GridSpec, occupancy_embedding
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

    def test_custom_stopwords(self):
        assert parse_micro_skill("grab shiny cup", frozenset({"shiny"})) == "grab cup"


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

    def test_bad_spacing(self):
        with pytest.raises(InvalidSpacing):
            resample_trajectory(straight_traj(0.1), spacing=0.0)

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
        changed = dataclasses.replace(demo, embedding=GeometryEmbedding(values, demo.embedding.grid))
        assert changed != demo and changed.embedding != demo.embedding
        with pytest.raises(DuplicateId):
            ds.add(changed)
        other_grid = GridSpec(resolution=(24, 32, 16))
        assert GeometryEmbedding(demo.embedding.values, other_grid) != demo.embedding
        assert demo.embedding != demo.embedding.values.tolist()

    def test_other_grid_rejected(self, tmp_path):
        """A demo embedded on another grid is refused and the dataset is left
        as it was, so retrieval never meets it and no archive holds it."""
        coarse = Dataset(GridSpec(resolution=(16, 12, 8)))
        foreign = coarse.ingest("open bottle", small_cloud(), straight_traj(0.05), demo_id="d2")
        ds = Dataset()
        kept = ds.ingest("open bottle", small_cloud((0.5, 0.3, 0.05)), straight_traj(0.05), demo_id="d1")
        for demo in (foreign, dataclasses.replace(foreign, id="d1")):
            with pytest.raises(GridMismatch):
                ds.add(demo)
            assert ds.demos == {"d1": kept} and ds.skill_index == {"open bottle": ["d1"]}
        save_dataset(ds, tmp_path)
        assert load_dataset(tmp_path).demos == {"d1": kept}

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
        recomputed = occupancy_embedding(demo.object_cloud, ds.grid)
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
                embedding=occupancy_embedding(small_cloud(), GridSpec()),
            )
        with pytest.raises(error):
            Dataset().ingest(description, cloud, traj)

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
                embedding=occupancy_embedding(small_cloud(), GridSpec()),
            )

    @pytest.mark.parametrize("gripper", [2, -1, 0.5, "1", None])
    def test_gripper_is_zero_or_one(self, gripper):
        with pytest.raises(ValueError, match="gripper must be 0 .open. or 1 .closed."):
            EndEffectorState(Pose(), gripper, 0)

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


GRID8 = GridSpec(resolution=(2, 2, 2))
STATES = (
    EndEffectorState(Pose.from_row([0.4, 0.2, 0.2, 1.0, 0.0, 0.0, 0.0]), 0, 0),
    EndEffectorState(Pose.from_row([0.4, 0.2, 0.12, 0.9238795325112867, 0.0, 0.0, 0.3826834323650898]), 1, 1),
)
CLOUD3 = PointCloud(np.array([[0.41, 0.2, 0.05], [0.38, 0.21, 0.06], [0.4, 0.19, 0.04]]))


def demo_on_grid8(values, demo_id="d", description="open the bottle", cloud=CLOUD3, instance="bottle-3"):
    """A Demonstration on the 2 x 2 x 2 grid with the given embedding values."""
    return Demonstration(
        id=demo_id,
        description=description,
        object_cloud=cloud,
        trajectory=STATES,
        embedding=GeometryEmbedding(np.array(values, dtype=np.float64), GRID8),
        object_instance_id=instance,
    )


# a .demo as the dense-embedding writer wrote it, before the voxels block
DENSE_DEMO = (
    "description open the bottle\nmicro_skill open bottle\ninstance bottle-3\ntrajectory 2\n"
    "0 0.4 0.2 0.2 1.0 0.0 0.0 0.0 0\n1 0.4 0.2 0.12 0.9238795325112867 0.0 0.0 0.3826834323650898 1\n"
    "cloud 3\n0.41 0.2 0.05\n0.38 0.21 0.06\n0.4 0.19 0.04\nembedding 8\n0.6047546581822695\n0.0\n"
    "0.39052725179804243\n0.0\n0.5852904027271837\n0.0\n0.37308901549813284\n0.0\n"
)
DENSE_VALUES = [0.6047546581822695, 0.0, 0.39052725179804243, 0.0, 0.5852904027271837, 0.0, 0.37308901549813284, 0.0]

embedding_entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.5e-310, 1.0]),  # the least subnormal, another subnormal, one
)


class TestEmbeddingBlock:
    """The archive stores an embedding's non-zero entries as a ``voxels K``
    block and still reads the dense ``embedding N`` block of older archives."""

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(embedding_entries, min_size=8, max_size=8))
    @example(values=[0.0] * 8)
    @example(values=[0.0] * 7 + [1.0])
    @example(values=[5e-324] + [0.0] * 7)
    @example(values=[0.5, 1e-300, 2.5e-310, 5e-324, 1.0, 3.0, 1e300, 0.1])
    def test_round_trip_bit_exact(self, tmp_path_factory, values):
        ds = Dataset(GRID8)
        demo = ds.add(demo_on_grid8(values))
        path = tmp_path_factory.mktemp("voxels")
        save_dataset(ds, path)
        back = load_dataset(path).demos["d"]
        assert back == demo
        assert np.array_equal(back.embedding.values.view(np.uint64), demo.embedding.values.view(np.uint64))
        assert f"voxels {np.count_nonzero(values)}" in (path / "d.demo").read_text().splitlines()

    def test_dense_block_still_read(self, tmp_path):
        (tmp_path / "d.demo").write_text(DENSE_DEMO)
        assert load_demo_file(tmp_path / "d.demo", GRID8) == demo_on_grid8(DENSE_VALUES)

    def test_dense_block_names_a_negative_value(self, tmp_path):
        (tmp_path / "d.demo").write_text(DENSE_DEMO.replace("\n0.0\n0.5852", "\n-0.5\n0.5852"))
        with pytest.raises(MalformedFile, match=r"d\.demo:15: embedding entries must be finite"):
            load_demo_file(tmp_path / "d.demo", GRID8)

    def test_dense_archive_loads_as_saved_again(self, tmp_path):
        """An archive with a dense block loads into the Dataset that, saved
        again, writes the voxels block and loads equal."""
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "d.demo").write_text(DENSE_DEMO)
        manifest = {"demo_ids": ["d"], "grid": GRID8.to_dict(), "skill_index": {"open bottle": ["d"]}}
        (tmp_path / "old" / "dataset.json").write_text(json.dumps(manifest))
        old = load_dataset(tmp_path / "old")
        save_dataset(old, tmp_path / "new")
        new = load_dataset(tmp_path / "new")
        assert new.demos == old.demos and new.skill_index == old.skill_index and new.grid == old.grid
        text = (tmp_path / "new" / "d.demo").read_text()
        assert text == DENSE_DEMO[: DENSE_DEMO.index("embedding 8")] + (
            "voxels 4\n0 0.6047546581822695\n2 0.39052725179804243\n4 0.5852904027271837\n6 0.37308901549813284\n"
        )

    def test_archive_bytes_pinned(self, tmp_path):
        """The writer's text, pinned: a change that moves any byte of the
        archive fails here first."""
        ds = Dataset(GRID8)
        ds.add(demo_on_grid8(DENSE_VALUES))
        cloud = PointCloud(np.array([[0.5, -0.0, 1e-05], [0.3333333333333333, 0.25, 0.125]]))
        ds.add(demo_on_grid8([0.0, 5e-324, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0], "e", "open box", cloud, None))
        save_dataset(ds, tmp_path)
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())}
        assert digests == ARCHIVE_SHA256


ARCHIVE_SHA256 = {
    "d.demo": "d7d2bcecf9641023a1004ae96faad2582c2f0fd024fa7a7d895a97a63b275d80",
    "dataset.json": "3f004271487448001e6b325ed0ae67faafa1508cf85ceeb61b02c2195a65019f",
    "e.demo": "74c3e41e51bb29fe7f7f0aac5b8d6801ff7c3d870e6307faa92753618aff9bd6",
}
