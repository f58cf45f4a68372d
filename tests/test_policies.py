"""Alignment transfer, linear paths, open-loop replay, data generators."""

import math

import numpy as np
import pytest

from trajtransfer import demos
from trajtransfer.demos import Dataset, EndEffectorState, alignment_target, load_dataset, save_dataset
from trajtransfer.errors import TooFewPoints
from trajtransfer.policies import (
    ALIGN_CUBOID_ORIGIN,
    ALIGN_CUBOID_SIZE,
    cluster_partition,
    execute_replay,
    jitter_cloud,
    mask_augment,
    plan_linear_path,
    simulate_alignment_trajectories,
    transfer_alignment_pose,
)
from trajtransfer.se3 import Pose, PointCloud, compose, invert, pose_distance

from conftest import random_pose


def make_demo(n_states=4):
    ds = Dataset()
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.normal(scale=0.02, size=(40, 3)) + np.array([0.4, 0.2, 0.05]))
    traj = [
        EndEffectorState(
            Pose.from_yaw(0.1 * i, (0.40, 0.20, 0.20 - 0.03 * i)), int(i >= 2), i
        )
        for i in range(n_states)
    ]
    return ds.ingest("lift mug", cloud, traj)


class TestTransferAlignmentPose:
    def test_identity_delta(self):
        demo = make_demo()
        out = transfer_alignment_pose(demo, Pose.identity())
        dt, dr = pose_distance(out, demo.trajectory[0].pose)
        assert dt == 0.0 and dr == 0.0

    def test_pure_translation(self):
        demo = make_demo()
        delta = Pose(translation=np.array([0.1, 0.0, 0.0]))
        out = transfer_alignment_pose(demo, delta)
        np.testing.assert_allclose(
            out.translation, demo.trajectory[0].pose.translation + [0.1, 0, 0], atol=1e-12
        )

    def test_relative_pose_preserved(self, rng):
        # (T_WE^Test)^-1 (delta T_obj^Demo) == (T_WE^Demo)^-1 T_obj^Demo
        demo = make_demo()
        t_obj = random_pose(rng)
        for _ in range(20):
            delta = random_pose(rng)
            t_test = transfer_alignment_pose(demo, delta)
            lhs = compose(invert(t_test), compose(delta, t_obj))
            rhs = compose(invert(demo.trajectory[0].pose), t_obj)
            dt, dr = pose_distance(lhs, rhs)
            assert dt < 1e-9 and dr < 1e-9


class TestPlanLinearPath:
    def test_coincident(self):
        p = Pose.from_yaw(0.3, (0.1, 0.2, 0.3))
        assert plan_linear_path(p, p) == [p]

    def test_ten_cm_eleven_poses(self):
        a = Pose(translation=np.array([0.0, 0.0, 0.2]))
        b = Pose(translation=np.array([0.10, 0.0, 0.2]))
        path = plan_linear_path(a, b)
        assert len(path) == 11
        for u, v in zip(path[:-1], path[1:]):
            d, _ = pose_distance(u, v)
            assert d <= 0.01 + 1e-9

    def test_rotation_only(self):
        a = Pose.identity()
        b = Pose.from_yaw(math.pi / 2)
        path = plan_linear_path(a, b)
        assert len(path) >= 2
        assert path[0] is a and path[-1] is b
        for p in path:
            np.testing.assert_allclose(p.translation, [0, 0, 0], atol=1e-15)


class TestReplay:
    def test_round_trip(self):
        demo = make_demo()
        plan = demo.replay_plan
        assert len(plan) == len(demo.trajectory) - 1
        out = execute_replay(plan, demo.trajectory[0].pose, demo.trajectory[0].gripper)
        assert len(out) == len(demo.trajectory)
        for a, b in zip(out, demo.trajectory):
            dt, dr = pose_distance(a.pose, b.pose)
            assert dt < 1e-9 and dr < 1e-9
            assert a.gripper == b.gripper

    def test_equivariance(self, rng):
        demo = make_demo()
        plan = demo.replay_plan
        for _ in range(20):
            g = random_pose(rng)
            start = compose(g, demo.trajectory[0].pose)
            out = execute_replay(plan, start, demo.trajectory[0].gripper)
            for got, ref in zip(out, demo.trajectory):
                want = compose(g, ref.pose)
                dt, dr = pose_distance(got.pose, want)
                assert dt < 1e-9 and dr < 1e-9

    def test_relative_motions_preserved(self):
        demo = make_demo()
        plan = demo.replay_plan
        out = execute_replay(plan, Pose.from_yaw(1.0, (1.0, 2.0, 3.0)))
        for i, (motion, _) in enumerate(plan):
            step = compose(invert(out[i].pose), out[i + 1].pose)
            dt, dr = pose_distance(step, motion)
            assert dt < 1e-12 and dr < 1e-12

    def test_gripper_schedule_invariant(self, rng):
        demo = make_demo()
        plan = demo.replay_plan
        ref = [s.gripper for s in demo.trajectory]
        for _ in range(5):
            out = execute_replay(plan, random_pose(rng), ref[0])
            assert [s.gripper for s in out] == ref

    def test_plan_once_per_demo(self, monkeypatch, tmp_path):
        """The plan's composes run at a demo's first call only; later calls
        return the kept plan, whose bits are those of a fresh one."""
        calls = []

        def counting(a, b):
            calls.append(1)
            return compose(a, b)

        ds = Dataset()
        source = make_demo()
        demo = ds.ingest(source.description, source.object_cloud, source.trajectory)
        steps = len(demo.trajectory) - 1
        fresh = tuple(
            (compose(invert(a.pose), b.pose), b.gripper) for a, b in zip(demo.trajectory[:-1], demo.trajectory[1:])
        )
        save_dataset(ds, tmp_path / "arch")
        loaded = load_dataset(tmp_path / "arch").demos[demo.id]
        monkeypatch.setattr(demos, "compose", counting)
        plan = demo.replay_plan
        assert len(calls) == steps > 2
        assert demo.replay_plan is plan and len(calls) == steps
        assert [(m.rotation.tobytes(), m.translation.tobytes(), g) for m, g in plan] == [
            (m.rotation.tobytes(), m.translation.tobytes(), g) for m, g in fresh
        ]
        assert loaded.replay_plan is not plan  # a loaded demo plans its own
        assert len(calls) == 2 * steps


class TestAlignmentTrajectories:
    def test_generation(self):
        demo = make_demo()
        paths = simulate_alignment_trajectories(demo, count=20, rng_seed=3)
        assert len(paths) == 20
        origin = np.array(ALIGN_CUBOID_ORIGIN)
        size = np.array(ALIGN_CUBOID_SIZE)
        for traj in paths:
            start = traj[0].translation
            assert np.all(start >= origin - 1e-12) and np.all(start <= origin + size + 1e-12)
            dt, dr = pose_distance(traj[-1], alignment_target(demo))
            assert dt == 0.0 and dr == 0.0
            for a, b in zip(traj[:-1], traj[1:]):
                d, _ = pose_distance(a, b)
                assert d <= 0.01 + 1e-9

    def test_determinism(self):
        demo = make_demo()
        a = simulate_alignment_trajectories(demo, count=3, rng_seed=9)
        b = simulate_alignment_trajectories(demo, count=3, rng_seed=9)
        for ta, tb in zip(a, b):
            for pa, pb in zip(ta, tb):
                assert np.array_equal(pa.translation, pb.translation)
                assert np.array_equal(pa.rotation, pb.rotation)


class TestMaskAugment:
    def cloud(self, n=500, seed=6):
        rng = np.random.default_rng(seed)
        return PointCloud(rng.uniform(0, 0.1, size=(n, 3)))

    def test_no_masking_identity(self):
        c = self.cloud()
        out = mask_augment(c, masked=0)
        assert np.array_equal(out.points, c.points)

    def test_partition(self):
        c = self.cloud()
        labels, seeds = cluster_partition(c, rng_seed=0)
        assert len(seeds) == 10
        assert set(labels) == set(range(10))
        out = mask_augment(c, masked=4, rng_seed=0)
        # kept points come from exactly 6 clusters and are a subset of the input
        kept_rows = {tuple(p) for p in out.points}
        all_rows = [tuple(p) for p in c.points]
        assert kept_rows <= set(all_rows)
        kept_labels = {labels[i] for i, r in enumerate(all_rows) if r in kept_rows}
        assert len(kept_labels) == 6

    def test_kept_fraction(self):
        c = self.cloud(n=1000)
        fracs = [
            len(mask_augment(c, rng_seed=s)) / len(c) for s in range(100)
        ]
        assert all(0.4 <= f <= 0.8 for f in fracs)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            mask_augment(PointCloud(np.zeros((5, 3))))

    def test_nothing_masked_needs_no_clusters(self):
        """With nothing masked, a cloud too small to cluster comes back as it is."""
        c = self.cloud(n=5)
        assert mask_augment(c, masked=0) is c


class TestJitter:
    def test_sigma_zero_identity(self):
        c = PointCloud(np.random.default_rng(0).normal(size=(10, 3)))
        assert jitter_cloud(c, 0.0) is c

    def test_sample_std(self):
        c = PointCloud(np.zeros((20000, 3)))
        out = jitter_cloud(c, 0.002, rng_seed=1)
        std = out.points.std(axis=0)
        assert np.all(np.abs(std - 0.002) < 0.0002)

    def test_deterministic(self):
        c = PointCloud(np.random.default_rng(0).normal(size=(50, 3)))
        a = jitter_cloud(c, 0.002, rng_seed=5)
        b = jitter_cloud(c, 0.002, rng_seed=5)
        assert np.array_equal(a.points, b.points)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            jitter_cloud(PointCloud(np.zeros((3, 3))), -0.001)
