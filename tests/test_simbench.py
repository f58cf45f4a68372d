"""Synthetic benchmark: object families, depth rendering, scenes, rollouts."""

import itertools
import math
import pickle

import numpy as np
import pytest

from trajtransfer import simbench
from trajtransfer.demos import Dataset
from trajtransfer.errors import NothingVisible, OutOfRange, UnknownCategory
from trajtransfer.se3 import Pose, PointCloud, compose, invert, pose_distance, transform_cloud
from trajtransfer.simbench import (
    CATEGORIES,
    FAILURE_NONE,
    FAILURE_RETRIEVAL,
    Benchmark,
    RenderSpec,
    _anchor_world,
    _final_pose_success,
    _observed_cloud,
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

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 0.0, -3.0, math.nan, math.inf])
    def test_gamma_above_one(self, gamma):
        """The inversion sphere of radius gamma times the largest range must
        enclose every point."""
        with pytest.raises(OutOfRange, match="gamma"):
            RenderSpec(gamma=gamma)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_positive(self, n_max):
        with pytest.raises(OutOfRange, match="n_max"):
            RenderSpec(n_max=n_max)

    def test_smallest_valid_spec(self):
        inst = generate_object("mug", 0)
        pose = Pose(translation=np.array([0.40, 0.22, 0.0]))
        assert len(render_partial_cloud(inst, pose, camera_above(pose), RenderSpec(gamma=1.0001, n_max=1))) == 1


def camera_frame_render(instance, object_pose, camera_pose, spec=RenderSpec()):
    """render_partial_cloud before the object-frame memo: hidden-point removal
    on the camera-frame points, on every call."""
    world = transform_cloud(object_pose, instance.canonical_cloud)
    cam_inv = invert(camera_pose)
    in_cam = world.points @ cam_inv.rotation_matrix().T + cam_inv.translation
    in_front = in_cam[:, 2] > 1e-9
    if not np.any(in_front):
        raise NothingVisible(f"{instance.instance_id} is behind the camera")
    visible = np.nonzero(in_front)[0][simbench.hidden_point_removal(in_cam[in_front], spec.gamma)]
    if len(visible) > spec.n_max:
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 7]))
        visible = np.sort(rng.choice(visible, size=spec.n_max, replace=False))
    return PointCloud(world.points[visible])


def tilted_camera(object_pose, offset, axis, angle):
    """camera_above moved by ``offset`` and turned by ``angle`` about ``axis``
    (in the camera frame)."""
    above = camera_above(object_pose)
    moved = Pose(above.rotation, above.translation + np.asarray(offset, dtype=np.float64))
    return compose(moved, Pose.from_axis_angle(axis, angle))


def assert_same_cloud(a, b):
    assert a.points.shape == b.points.shape and np.array_equal(a.points, b.points)


@pytest.fixture
def hull_count(monkeypatch):
    """Number of hidden_point_removal calls so far, as calls[0]."""
    calls = [0]
    hpr = simbench.hidden_point_removal

    def counting(points, gamma):
        calls[0] += 1
        return hpr(points, gamma)

    monkeypatch.setattr(simbench, "hidden_point_removal", counting)
    return calls


class TestVisibleMemo:
    """Visibility in the object frame, kept on the instance, renders the
    camera-frame clouds bit for bit."""

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_observed_clouds(self, family, monkeypatch):
        task = default_task(family)
        scenes = [
            randomize_scene(task, generate_object(family, seed), mode, s, occlusion_fraction=occ, noise_sigma=noise)
            for seed in (0, 1000)
            for mode in ("controlled", "thousand")
            for s, (occ, noise) in enumerate(((0.0, 0.0), (0.0, 0.0), (0.4, 0.002), (0.4, 0.002)))
        ]
        clouds = [_observed_cloud(scene) for scene in scenes]
        monkeypatch.setattr(simbench, "render_partial_cloud", camera_frame_render)
        for scene, cloud in zip(scenes, clouds):
            assert_same_cloud(cloud, _observed_cloud(scene))

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_offset_tilted_cameras(self, family):
        inst = generate_object(family, 1)
        rng = np.random.default_rng(CATEGORIES.index(family))
        for _ in range(5):
            pose = Pose.from_yaw(rng.uniform(-math.pi, math.pi), (rng.uniform(0.1, 0.7), rng.uniform(0.1, 0.35), 0.0))
            axis = np.append(rng.normal(size=2), 0.0)
            camera = tilted_camera(pose, rng.uniform(-0.3, 0.3, 3), axis, rng.uniform(0.0, 0.5))
            spec = RenderSpec(n_max=10**9)
            expected = camera_frame_render(inst, pose, camera, spec)
            assert_same_cloud(render_partial_cloud(inst, pose, camera, spec), expected)

    def test_camera_with_part_of_the_object_behind_it(self):
        inst = generate_object("mug", 0)
        _, h, _ = inst.shape_params
        pose = Pose.from_yaw(0.7, (0.40, 0.22, 0.0))
        camera = Pose(camera_above(pose).rotation, np.array([0.55, 0.22, 0.5 * h]))
        spec = RenderSpec(n_max=10**9)
        cloud = render_partial_cloud(inst, pose, camera, spec)
        assert np.all(cloud.points[:, 2] < 0.5 * h)
        assert_same_cloud(cloud, camera_frame_render(inst, pose, camera, spec))
        # the same centre, turned so that more of the object is in front
        turned = compose(camera, Pose.from_axis_angle((0.0, 1.0, 0.0), -0.2))
        for c in (turned, camera, turned):
            assert_same_cloud(render_partial_cloud(inst, pose, c, spec), camera_frame_render(inst, pose, c, spec))

    def test_one_hull_per_instance(self, hull_count):
        task = default_task("kettle")
        inst = generate_object("kettle", 3)
        for mode, s in itertools.product(("controlled", "thousand"), range(10)):
            _observed_cloud(randomize_scene(task, inst, mode, s))
        assert hull_count[0] == 1
        _observed_cloud(randomize_scene(task, generate_object("kettle", 3), "thousand", 0))
        assert hull_count[0] == 2  # a fresh instance starts with an empty memo

    def test_alternating_heights_and_gamma(self, hull_count):
        inst = generate_object("box", 2)
        pose = Pose.from_yaw(-1.1, (0.30, 0.25, 0.0))
        low = Pose(camera_above(pose).rotation, np.array([0.30, 0.25, 0.4]))
        views = (
            (camera_above(pose), RenderSpec(n_max=10**9)),
            (low, RenderSpec(n_max=10**9)),
            (camera_above(pose), RenderSpec(gamma=3.0, n_max=10**9)),
        )
        expected = [camera_frame_render(inst, pose, c, spec) for c, spec in views]
        assert len({len(e) for e in expected}) == 3  # each view sees a different surface
        hull_count[0] = 0
        for i in range(9):
            camera, spec = views[i % 3]
            assert_same_cloud(render_partial_cloud(inst, pose, camera, spec), expected[i % 3])
        assert hull_count[0] == 9  # one entry: every change of view misses

    def test_pickled_instance(self):
        task = default_task("pan")
        rendered = generate_object("pan", 1001)
        _observed_cloud(randomize_scene(task, rendered, "controlled", 1))
        for inst in (rendered, generate_object("pan", 1001)):
            copy = pickle.loads(pickle.dumps(inst))
            assert copy.visible_masks.keys() == inst.visible_masks.keys()  # the memo travels with it
            scenes = [
                randomize_scene(task, obj, "controlled", 2, occlusion_fraction=0.3, noise_sigma=0.001)
                for obj in (copy, generate_object("pan", 1001))
            ]
            assert_same_cloud(_observed_cloud(scenes[0]), _observed_cloud(scenes[1]))


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

    @pytest.mark.parametrize("occlusion", [-0.1, 0.95, 1.0, 1.5, math.nan])
    def test_occlusion_leaves_a_cluster(self, occlusion):
        """An occlusion outside [0, 1], or one that would mask every cluster
        of the observed cloud, is refused when the scene is made."""
        with pytest.raises(OutOfRange, match="occlusion_fraction"):
            randomize_scene(default_task("mug"), generate_object("mug", 0), "thousand", 0, occlusion_fraction=occlusion)


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

    def test_heaviest_occlusion_runs(self):
        bench, task, inst, _ = make_bench()
        scene = randomize_scene(task, inst, "thousand", 919, occlusion_fraction=0.94)
        res = run_rollout(bench, task, scene)
        assert res.registration is not None and res.executed is not None

    @pytest.mark.parametrize("sigma", [3.0, 30.0, 1e3, 1e6, 1e7])
    def test_cloud_off_the_grid_is_retrieval_failure(self, sigma):
        """Noise that scatters the observed cloud off the embedding grid is
        recorded as a retrieval failure, not raised."""
        bench, task, inst, _ = make_bench()
        for s in range(4):
            res = run_rollout(bench, task, randomize_scene(task, inst, "thousand", s, noise_sigma=sigma))
            assert res.failure_class == FAILURE_RETRIEVAL and res.retrieval is None and not res.success

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
