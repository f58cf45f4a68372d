"""Synthetic benchmark: object families, depth rendering, scenes, rollouts."""

import itertools
import math

import numpy as np
import pytest

from trajtransfer.demos import Dataset
from trajtransfer.errors import NothingVisible, UnknownCategory
from trajtransfer.se3 import Pose, PointCloud, compose, invert, pose_distance
from trajtransfer.simbench import (
    CATEGORIES,
    FAILURE_NONE,
    FAILURE_RETRIEVAL,
    Benchmark,
    RenderSpec,
    _anchor_world,
    _final_pose_success,
    camera_above,
    default_task,
    generate_object,
    randomize_scene,
    render_partial_cloud,
    run_rollout,
)


class TestGenerateObject:
    def test_deterministic(self):
        a = generate_object("mug", 3)
        b = generate_object("mug", 3)
        assert a.shape_params == b.shape_params
        assert np.array_equal(a.canonical_cloud.points, b.canonical_cloud.points)

    def test_seeds_differ(self):
        a = generate_object("mug", 0)
        b = generate_object("mug", 1)
        assert a.shape_params != b.shape_params
        assert not np.allclose(
            a.canonical_cloud.points.max(axis=0), b.canonical_cloud.points.max(axis=0)
        )

    def test_all_categories(self):
        for cat in CATEGORIES:
            inst = generate_object(cat, 0)
            assert len(inst.canonical_cloud) >= 500
            assert inst.category == cat

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory):
            generate_object("teapot", 0)

    def test_mug_anchor_on_axis(self):
        inst = generate_object("mug", 0)
        r, h, handle_len = inst.shape_params
        np.testing.assert_allclose(inst.anchor.translation, [0, 0, 0.60 * h], atol=1e-12)

    def test_kettle_anchor_at_lid(self):
        inst = generate_object("kettle", 0)
        _, h, _ = inst.shape_params
        np.testing.assert_allclose(inst.anchor.translation, [0, 0, h], atol=1e-12)


class TestRender:
    def test_tray_top_visible_underside_absent(self):
        inst = generate_object("tray", 0)
        pose = Pose(translation=np.array([0.40, 0.22, 0.0]))
        cloud = render_partial_cloud(inst, pose, camera_above(pose))
        # base points sit at z = 0; rims/tab are higher.  No point may come
        # from a downward-facing surface hidden under the base plane.
        assert len(cloud) > 0
        assert np.all(cloud.points[:, 2] >= -1e-9)
        # a healthy share of the flat top surface survives visibility
        base = cloud.points[:, 2] < 1e-6
        assert base.mean() > 0.2

    def test_sphere_visible_fraction(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        from trajtransfer.simbench import ObjectInstance

        inst = ObjectInstance(
            category="mug",
            instance_id="sphere",
            instance_seed=0,
            shape_params=(),
            canonical_cloud=PointCloud(0.05 * v + np.array([0, 0, 0.05])),
            anchor=Pose.identity(),
        )
        pose = Pose(translation=np.array([0.40, 0.22, 0.0]))
        cloud = render_partial_cloud(inst, pose, camera_above(pose), RenderSpec(n_max=10**9))
        frac = len(cloud) / 4000
        assert 0.35 <= frac <= 0.65

    def test_behind_camera(self):
        inst = generate_object("mug", 0)
        above_cam = Pose(translation=np.array([0.40, 0.22, 3.0]))
        with pytest.raises(NothingVisible):
            render_partial_cloud(inst, above_cam, camera_above(Pose(translation=np.array([0.4, 0.22, 0.0]))))

    def test_subsample_cap(self):
        inst = generate_object("mug", 0)
        pose = Pose(translation=np.array([0.40, 0.22, 0.0]))
        full = render_partial_cloud(inst, pose, camera_above(pose), RenderSpec(n_max=10**9))
        cap = len(full) // 2
        cloud = render_partial_cloud(inst, pose, camera_above(pose), RenderSpec(n_max=cap))
        assert len(cloud) == cap

    def test_deterministic(self):
        inst = generate_object("box", 1)
        pose = Pose.from_yaw(0.4, (0.35, 0.20, 0.0))
        a = render_partial_cloud(inst, pose, camera_above(pose), RenderSpec(seed=5))
        b = render_partial_cloud(inst, pose, camera_above(pose), RenderSpec(seed=5))
        assert np.array_equal(a.points, b.points)


class TestRandomizeScene:
    def test_controlled_yaw_coverage(self):
        task = default_task("mug")
        inst = generate_object("mug", 0)
        yaws = []
        for s in range(1000):
            scene = randomize_scene(task, inst, "controlled", s)
            q = scene.object_pose.rotation
            yaws.append(2.0 * math.atan2(q[3], q[0]))
        span = max(yaws) - min(yaws)
        assert span > math.radians(350.0)

    def test_thousand_yaw_bounded(self):
        task = default_task("mug")
        inst = generate_object("mug", 0)
        for s in range(200):
            scene = randomize_scene(task, inst, "thousand", s)
            q = scene.object_pose.rotation
            yaw = 2.0 * math.atan2(q[3], q[0])
            assert abs(yaw) <= math.pi / 4 + 1e-9

    def test_position_in_workspace(self):
        task = default_task("tray")
        inst = generate_object("tray", 0)
        for s in range(100):
            p = randomize_scene(task, inst, "controlled", s).object_pose.translation
            assert 0.0 <= p[0] <= 0.80 and 0.0 <= p[1] <= 0.45 and p[2] == 0.0

    def test_fixed_seed_identical(self):
        task = default_task("pan")
        inst = generate_object("pan", 0)
        a = randomize_scene(task, inst, "controlled", 17)
        b = randomize_scene(task, inst, "controlled", 17)
        assert np.array_equal(a.object_pose.translation, b.object_pose.translation)
        assert np.array_equal(a.object_pose.rotation, b.object_pose.rotation)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            randomize_scene(default_task("mug"), generate_object("mug", 0), "wild", 0)


def make_bench(category="mug", demo_seed=42):
    task = default_task(category)
    inst = generate_object(category, 0)
    bench = Benchmark(Dataset())
    demo_scene = randomize_scene(task, inst, "controlled", demo_seed)
    bench.record_demonstration(task, demo_scene)
    return bench, task, inst, demo_scene


class TestRollout:
    def test_exact_demo_scene_succeeds(self):
        bench, task, inst, demo_scene = make_bench()
        res = run_rollout(bench, task, demo_scene)
        assert res.success
        assert res.failure_class == FAILURE_NONE

    def test_moved_scene_succeeds(self):
        bench, task, inst, _ = make_bench()
        scene = randomize_scene(task, inst, "controlled", 901)
        res = run_rollout(bench, task, scene)
        assert res.success

    def test_missing_skill_is_retrieval_failure(self):
        bench, _, inst, _ = make_bench()
        other = default_task("tray")
        scene = randomize_scene(other, generate_object("tray", 0), "controlled", 5)
        res = run_rollout(bench, other, scene)
        assert not res.success
        assert res.failure_class == FAILURE_RETRIEVAL

    def test_gt_delta_consistency(self):
        bench, task, inst, demo_scene = make_bench()
        scene = randomize_scene(task, inst, "controlled", 902)
        res = run_rollout(bench, task, scene)
        expected = compose(scene.object_pose, invert(demo_scene.object_pose))
        dt, dr = pose_distance(res.gt_delta, expected)
        assert dt < 1e-12 and dr < 1e-12

    def test_gt_delta_upper_bound(self):
        bench, task, inst, _ = make_bench()
        for s in (903, 904, 905):
            scene = randomize_scene(task, inst, "controlled", s)
            res = run_rollout(bench, task, scene, use_gt_delta=True)
            assert res.success

    def test_failure_class_partition(self):
        bench, task, inst, _ = make_bench()
        for s in range(906, 916):
            scene = randomize_scene(task, inst, "controlled", s)
            res = run_rollout(bench, task, scene)
            assert (res.failure_class == FAILURE_NONE) == res.success

    def test_determinism(self):
        bench, task, inst, _ = make_bench()
        scene = randomize_scene(task, inst, "controlled", 917)
        a = run_rollout(bench, task, scene)
        b = run_rollout(bench, task, scene)
        assert a.to_trace_dict() == b.to_trace_dict()

    def test_trace_dict_fields(self):
        bench, task, inst, _ = make_bench()
        scene = randomize_scene(task, inst, "controlled", 918)
        d = run_rollout(bench, task, scene).to_trace_dict()
        for key in ("category", "scene_seed", "success", "failure_class", "gt_delta"):
            assert key in d


class TestGroundTruthTransfer:
    @pytest.mark.parametrize("family", CATEGORIES)
    def test_every_stored_demo_succeeds_under_gt_transfer(self, family):
        """Why classify_failure needs no retrieval oracle: success is judged
        against the retrieved demo's own anchor-relative final pose, so
        ground-truth transfer of any stored demo succeeds, on seen and unseen
        instances alike, and no other demo could have done better."""
        task = default_task(family)
        bench = Benchmark(Dataset())
        for i in range(3):
            scene = randomize_scene(task, generate_object(family, i), "controlled", 60 + i)
            bench.record_demonstration(task, scene)
        for instance_seed, mode, s in itertools.product((0, 1000), ("controlled", "thousand"), range(4)):
            scene = randomize_scene(task, generate_object(family, instance_seed), mode, 70 + s)
            for demo_id, demo in bench.dataset.demos.items():
                demo_inst, demo_scene = bench.demo_meta[demo_id]
                gt = compose(
                    _anchor_world(scene.object, scene.object_pose),
                    invert(_anchor_world(demo_inst, demo_scene.object_pose)),
                )
                demo_final = demo.trajectory[-1].pose
                assert _final_pose_success(
                    task, compose(gt, demo_final), scene, demo_inst, demo_scene, demo_final
                )
