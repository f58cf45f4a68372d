"""Synthetic benchmark: object families, depth rendering, scenes, rollouts."""

import hashlib
import itertools
import math
import pickle
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trajtransfer import policies, simbench
from trajtransfer.demos import Dataset
from trajtransfer.errors import EmptyCloud, OutOfRange, TooFewPoints, UnknownCategory
from trajtransfer.se3 import Pose, PointCloud, compose, invert, pose_distance, transform_cloud
from trajtransfer.simbench import (
    CAMERA_CENTRE,
    CAMERA_HEIGHT,
    CATEGORIES,
    FAILURE_EXECUTION,
    FAILURE_NONE,
    FAILURE_REGISTRATION,
    FAILURE_RETRIEVAL,
    MAX_RENDER_POINTS,
    Benchmark,
    ObjectInstance,
    _anchor_world,
    _final_pose_success,
    _observed_cloud,
    classify_failure,
    default_task,
    generate_object,
    randomize_scene,
    render_partial_cloud,
    run_rollout,
)

from conftest import gt_delta_success


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

    @pytest.mark.parametrize(
        "family, seed, digest",
        [
            ("box", 0, "175b277d3604034503f84598955e4b890e890da2b379c3a7755858bf0402034f"),
            ("box", 7, "b35a527adf956a895e9b135e25ed573977489b880d93b337cb7c99a9a9883f27"),
            ("box", 1000, "56b107a138b76aab6bf99f43bf50cefe683fd3288f03a643bac1789da66d6d3f"),
            ("tray", 0, "4558724bbc47c758148b0f6b6a9bb57914d8b5075bab7694e517c301ac076928"),
            ("tray", 7, "4c783f738249d6b7162b8df48d6535b8466cff8341c08dcfcc3be833ae4c26b2"),
            ("tray", 1000, "6648aa5a6f0331d891cb26c5d2d1274adc8ef816a17754148c7b489f340df895"),
        ],
    )
    def test_box_surface_bits_pinned(self, family, seed, digest):
        """The families built from box faces keep the bits of the per-face loop."""
        points = generate_object(family, seed).canonical_cloud.points
        assert hashlib.sha256(points.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", range(4))
    def test_box_surface_matches_the_face_loop(self, seed):
        """The vectorised box faces against the per-face loop they replace."""

        def loop(rng, size, n, center):
            sx, sy, sz = size
            areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
            face = rng.choice(6, size=n, p=areas / areas.sum())
            u = rng.uniform(-0.5, 0.5, n)
            v = rng.uniform(-0.5, 0.5, n)
            pts = np.zeros((n, 3))
            for f in range(6):
                m = face == f
                axis = f // 2
                other = [a for a in range(3) if a != axis]
                pts[m, axis] = (1.0 if f % 2 == 0 else -1.0) * 0.5 * size[axis]
                pts[m, other[0]] = u[m] * size[other[0]]
                pts[m, other[1]] = v[m] * size[other[1]]
            return pts + np.array(center)

        draw = np.random.default_rng(seed)
        size, center = tuple(draw.uniform(0.001, 0.5, 3)), tuple(draw.uniform(-0.2, 0.2, 3))
        n = int(draw.integers(0, 700))
        got = simbench._box_surface(np.random.default_rng(seed), size, n, center)
        want = loop(np.random.default_rng(seed), size, n, center)
        assert got.tobytes() == want.tobytes()

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
        cloud = render_partial_cloud(inst, pose)
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
        inst = ObjectInstance(
            category="mug",
            instance_id="sphere",
            instance_seed=0,
            shape_params=(),
            canonical_cloud=PointCloud(0.05 * v + np.array([0, 0, 0.05])),
            anchor=Pose.identity(),
        )
        render_partial_cloud(inst, Pose(translation=np.array([0.40, 0.22, 0.0])))
        frac = len(inst.visible_indices) / 4000
        assert 0.35 <= frac <= 0.65

    def test_subsample_cap(self):
        pose = Pose(translation=np.array([0.40, 0.22, 0.0]))
        sizes = []
        for family in ("mug", "kettle"):
            inst = generate_object(family, 0)
            cloud = render_partial_cloud(inst, pose)
            visible = inst.visible_indices
            sizes.append(len(visible))
            assert len(cloud) == min(MAX_RENDER_POINTS, len(visible))
            seen = {tuple(p) for p in transform_cloud(pose, inst.canonical_cloud).points[visible]}
            assert all(tuple(p) in seen for p in cloud.points)
        assert sizes[0] < MAX_RENDER_POINTS < sizes[1]  # the cap binds on the kettle only

    @pytest.mark.parametrize("n,error", [(0, EmptyCloud), (1, TooFewPoints), (2, TooFewPoints)])
    def test_degenerate_cloud_raises_package_error(self, n, error):
        """No point, or one or two, whose hull fails even joggled: a
        TrajTransferError, never numpy's or scipy's."""
        points = np.random.default_rng(n).normal(0.0, 0.05, (n, 3))
        inst = ObjectInstance("mug", "tiny", 0, (), PointCloud(points), Pose.identity())
        with pytest.raises(error):
            render_partial_cloud(inst, Pose(translation=np.array([0.40, 0.22, 0.0])))

    def test_joggled_retry(self, monkeypatch):
        """Five points on the camera axis are collinear with the centre, so the
        first hull fails; the joggled retry marks all five visible."""
        options = []
        hull = simbench.ConvexHull

        def logged(points, qhull_options=None):
            options.append(qhull_options)
            return hull(points, qhull_options=qhull_options)

        monkeypatch.setattr(simbench, "ConvexHull", logged)
        axis = np.column_stack([np.zeros(5), np.zeros(5), np.linspace(0.0, 0.1, 5)]) - CAMERA_CENTRE
        assert simbench.hidden_point_removal(axis).tolist() == [True] * 5
        assert options == [None, "QJ"]

    def test_deterministic(self):
        inst = generate_object("box", 1)
        pose = Pose.from_yaw(0.4, (0.35, 0.20, 0.0))
        a = render_partial_cloud(inst, pose, 5)
        b = render_partial_cloud(inst, pose, 5)
        assert np.array_equal(a.points, b.points)

    def test_head_camera_in_the_object_frame(self):
        """The head camera, straight above the object at CAMERA_HEIGHT, sits
        at CAMERA_CENTRE in the object frame of every scene, above every
        object point: so the whole object is in front of it and one visible
        set serves every scene of an instance."""
        for cat in CATEGORIES:
            task = default_task(cat)
            inst = generate_object(cat, 0)
            for mode, s in itertools.product(("controlled", "thousand"), range(100)):
                pose = randomize_scene(task, inst, mode, s).object_pose
                camera = head_camera(pose)
                centre = (camera.translation - pose.translation) @ pose.rotation_matrix()
                assert np.array_equal(centre, CAMERA_CENTRE)
            for seed in (0, 1, 1000):
                assert generate_object(cat, seed).canonical_cloud.points[:, 2].max() < CAMERA_HEIGHT


@lru_cache(maxsize=None)
def rendered_instance(family, seed):
    """An instance whose visible set is found, shared across the tests below."""
    inst = generate_object(family, seed)
    inst.visible_indices
    return inst


def drawn_rows(instance, object_pose, seed):
    """render_partial_cloud as it was: every canonical point transformed by
    se3.transform_cloud, then the drawn visible rows kept."""
    visible = instance.visible_indices
    if len(visible) > MAX_RENDER_POINTS:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        visible = np.sort(rng.choice(visible, size=MAX_RENDER_POINTS, replace=False))
    return transform_cloud(object_pose, instance.canonical_cloud).points[visible]


class TestRenderDrawnPoints:
    """Transforming only the drawn points gives the rows of the whole
    transformed cloud bit for bit."""

    INSTANCES = (0, 1, 1000, 1001)  # seen and unseen instance seeds

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_scenes(self, family):
        task = default_task(family)
        for seed in self.INSTANCES:
            inst = rendered_instance(family, seed)
            for mode, s in itertools.product(("controlled", "thousand"), range(5)):
                scene = randomize_scene(task, inst, mode, s)
                got = render_partial_cloud(inst, scene.object_pose, scene.rng_seed).points
                assert got.tobytes() == drawn_rows(inst, scene.object_pose, scene.rng_seed).tobytes()

    def test_both_sides_of_the_cap(self):
        sizes = [len(rendered_instance(f, seed).visible_indices) for f in CATEGORIES for seed in self.INSTANCES]
        assert min(sizes) <= MAX_RENDER_POINTS < max(sizes)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        family=st.sampled_from(CATEGORIES),
        instance_seed=st.sampled_from(INSTANCES),
        yaw=st.floats(-math.pi, math.pi),
        translation=arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_poses(self, family, instance_seed, yaw, translation, seed):
        inst = rendered_instance(family, instance_seed)
        pose = Pose.from_yaw(yaw, translation)
        got = render_partial_cloud(inst, pose, seed).points
        assert got.tobytes() == drawn_rows(inst, pose, seed).tobytes()


def head_camera(object_pose):
    """The downward-looking camera CAMERA_HEIGHT above the object's origin,
    as a world pose: optical +z looks straight down."""
    x, y = object_pose.translation[:2]
    return Pose(np.array([0.0, 1.0, 0.0, 0.0]), np.array([x, y, CAMERA_HEIGHT]))


def camera_frame_render(instance, object_pose, seed=0):
    """render_partial_cloud before the visible set was kept on the instance:
    hidden-point removal (gamma 100) on the camera-frame points in front of
    the head camera, on every call, then at most 800 points drawn by seed."""
    world = transform_cloud(object_pose, instance.canonical_cloud)
    cam_inv = invert(head_camera(object_pose))
    in_cam = world.points @ cam_inv.rotation_matrix().T + cam_inv.translation
    in_front = in_cam[:, 2] > 1e-9
    visible = np.nonzero(in_front)[0][simbench.hidden_point_removal(in_cam[in_front])]
    if len(visible) > 800:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        visible = np.sort(rng.choice(visible, size=800, replace=False))
    return PointCloud(world.points[visible])


def assert_same_cloud(a, b):
    assert a.points.shape == b.points.shape and np.array_equal(a.points, b.points)


@pytest.fixture
def hull_count(monkeypatch):
    """Number of hidden_point_removal calls so far, as calls[0]."""
    calls = [0]
    hpr = simbench.hidden_point_removal

    def counting(points):
        calls[0] += 1
        return hpr(points)

    monkeypatch.setattr(simbench, "hidden_point_removal", counting)
    return calls


class TestVisibleMemo:
    """Visibility in the object frame, found once and kept on the instance,
    renders the camera-frame clouds bit for bit."""

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_observed_clouds(self, family, monkeypatch):
        task = default_task(family)
        scenes = [
            randomize_scene(task, generate_object(family, seed), mode, s, occlusion_fraction=occ, noise_sigma=noise)
            for seed in (0, 1000)
            for mode in ("controlled", "thousand")
            for s, (occ, noise) in enumerate(((0.0, 0.0), (0.0, 0.0), (0.4, 0.002), (0.4, 0.002)))
        ]
        demo_scenes = [scene for scene in scenes if scene.occlusion_fraction == 0.0]

        def observe():
            demos = [Benchmark(Dataset()).record_demonstration(task, scene) for scene in demo_scenes]
            return [_observed_cloud(scene) for scene in scenes], [(d.id, d.object_cloud) for d in demos]

        clouds, demos = observe()
        monkeypatch.setattr(simbench, "render_partial_cloud", camera_frame_render)
        expected_clouds, expected_demos = observe()
        for cloud, expected in zip(clouds, expected_clouds):
            assert_same_cloud(cloud, expected)
        for (demo_id, cloud), (expected_id, expected) in zip(demos, expected_demos):
            assert demo_id == expected_id
            assert_same_cloud(cloud, expected)

    def test_one_hull_per_instance(self, hull_count):
        task = default_task("kettle")
        inst = generate_object("kettle", 3)
        assert hull_count[0] == 0  # generate_object leaves it to the first render
        for mode, s in itertools.product(("controlled", "thousand"), range(10)):
            _observed_cloud(randomize_scene(task, inst, mode, s))
        assert hull_count[0] == 1
        _observed_cloud(randomize_scene(task, generate_object("kettle", 3), "thousand", 0))
        assert hull_count[0] == 2  # a fresh instance finds its own set

    def test_pickled_instance(self, hull_count):
        task = default_task("pan")
        rendered = generate_object("pan", 1001)
        _observed_cloud(randomize_scene(task, rendered, "controlled", 1))
        for inst in (rendered, generate_object("pan", 1001)):
            copy = pickle.loads(pickle.dumps(inst))
            assert ("visible_indices" in vars(copy)) == ("visible_indices" in vars(inst))  # the set travels with it
            assert copy == generate_object("pan", 1001)  # and is not compared
            scenes = [
                randomize_scene(task, obj, "controlled", 2, occlusion_fraction=0.3, noise_sigma=0.001)
                for obj in (copy, generate_object("pan", 1001))
            ]
            assert_same_cloud(_observed_cloud(scenes[0]), _observed_cloud(scenes[1]))
        assert hull_count[0] == 4  # the first render, then both fresh instances and the unrendered copy


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
            assert gt_delta_success(bench, task, run_rollout(bench, task, scene))

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

    def test_replay_plan_memo(self, monkeypatch):
        """Two rollouts of one scene give equal traces and equal executed
        states; the second replays the plan the first kept on the demo."""
        bench, task, inst, _ = make_bench()
        scene = randomize_scene(task, inst, "controlled", 918)
        inverts = []
        real = policies.invert

        def counting(pose):
            inverts.append(pose)
            return real(pose)

        monkeypatch.setattr(policies, "invert", counting)
        a = run_rollout(bench, task, scene)
        planned = len(inverts)
        b = run_rollout(bench, task, scene)
        (demo,) = bench.dataset.demos.values()
        assert planned == len(demo.trajectory) - 1 and len(inverts) == planned
        assert a.to_trace_dict() == b.to_trace_dict()
        assert len(a.executed) == len(b.executed) == len(demo.trajectory)
        for x, y in zip(a.executed, b.executed):
            assert (x.gripper, x.time_index) == (y.gripper, y.time_index)
            assert x.pose.rotation.tobytes() + x.pose.translation.tobytes() == (
                y.pose.rotation.tobytes() + y.pose.translation.tobytes()
            )

    def test_heaviest_occlusion_runs(self):
        bench, task, inst, _ = make_bench()
        scene = randomize_scene(task, inst, "thousand", 919, occlusion_fraction=0.94)
        res = run_rollout(bench, task, scene)
        assert res.registration is not None and res.executed is not None

    def test_two_point_cloud_is_registration_failure(self):
        """Occlusion that leaves a 2-point cloud, too few for a covariance, is
        recorded as a registration failure without a registration, not raised."""
        bench, task, _, _ = make_bench("bottle")
        scene = randomize_scene(task, generate_object("bottle", 1000), "thousand", 813, occlusion_fraction=0.9)
        assert len(_observed_cloud(scene)) == 2
        res = run_rollout(bench, task, scene)
        assert res.failure_class == FAILURE_REGISTRATION and not res.success
        assert res.retrieval is not None and res.registration is None and res.executed is None
        assert res.to_trace_dict()["registration"] == {"error": "TooFewPoints"}

    def test_no_correspondences_is_registration_failure(self):
        """Noise that leaves no observed point within the inlier radius of the
        coarsely aligned demo is a registration failure that names its error."""
        bench, task, inst, _ = make_bench()
        scene = randomize_scene(task, inst, "thousand", 900, occlusion_fraction=0.5, noise_sigma=0.3)
        res = run_rollout(bench, task, scene)
        assert res.failure_class == FAILURE_REGISTRATION and res.retrieval is not None
        assert res.registration is None and res.executed is None
        assert res.to_trace_dict()["registration"] == {"error": "NoCorrespondences"}

    @pytest.mark.parametrize("sigma", [3.0, 30.0, 1e3, 1e6, 1e7])
    def test_cloud_off_the_grid_is_retrieval_failure(self, sigma):
        """Noise that scatters the observed cloud off the embedding grid is
        recorded as a retrieval failure, not raised."""
        bench, task, inst, _ = make_bench()
        for s in range(4):
            res = run_rollout(bench, task, randomize_scene(task, inst, "thousand", s, noise_sigma=sigma))
            assert res.failure_class == FAILURE_RETRIEVAL and res.retrieval is None and not res.success
            assert res.to_trace_dict()["registration"] is None

    def test_classify_failure(self):
        """A delta equal to the true one fails only in execution; one beyond
        the task's thresholds fails in registration."""
        bench, task, inst, _ = make_bench()
        res = run_rollout(bench, task, randomize_scene(task, inst, "controlled", 917))
        demo = bench.dataset.demos[res.retrieval.demo_id]
        exact = replace(res.registration, delta=res.gt_delta)
        assert classify_failure(task, demo, exact, res.gt_delta, True) == FAILURE_NONE
        assert classify_failure(task, demo, exact, res.gt_delta, False) == FAILURE_EXECUTION
        shift = Pose(translation=np.array([2.0 * task.delta_t, 0.0, 0.0]))
        off = replace(res.registration, delta=compose(shift, res.gt_delta))
        assert classify_failure(task, demo, off, res.gt_delta, False) == FAILURE_REGISTRATION

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
                demo_scene = bench.demo_meta[demo_id]
                gt = compose(
                    _anchor_world(scene.object, scene.object_pose),
                    invert(_anchor_world(demo_scene.object, demo_scene.object_pose)),
                )
                demo_final = demo.trajectory[-1].pose
                assert _final_pose_success(
                    task, compose(gt, demo_final), scene, demo_scene, demo_final
                )
