"""Registration: coarse yaw sweep, planar covariances, GICP refinement."""

import itertools
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from trajtransfer import registration
from trajtransfer.demos import Dataset, Demonstration, load_dataset, save_dataset
from trajtransfer.errors import EmptyCloud, NoCorrespondences, OutOfRange, TooFewPoints, TrajTransferError
from trajtransfer.registration import (
    EPS_PLANE,
    MAX_COORDINATE,
    GicpParams,
    PreparedCloud,
    RegistrationResult,
    _corresponding_cost,
    _exp_step,
    _query_within,
    _eigh3x3,
    _rotate_covariances,
    coarse_align,
    estimate_covariances,
    estimate_delta,
    generalized_icp,
    normal_space_sample,
    prepare_demo_cloud,
    prepare_test_cloud,
)
from trajtransfer.se3 import Pose, PointCloud, compose, invert, pose_distance, rotation_angle, transform_cloud
from trajtransfer.simbench import (
    CATEGORIES,
    Benchmark,
    _observed_cloud,
    default_task,
    generate_object,
    randomize_scene,
)


def mug_cloud(n=800, seed=0):
    """Cylinder body plus a side handle; yaw-asymmetric."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2 * math.pi, n)
    z = rng.uniform(0, 0.10, n)
    body = np.stack([0.04 * np.cos(th), 0.04 * np.sin(th), z], axis=1)
    t = rng.uniform(0, 0.03, n // 4)
    handle = np.stack(
        [0.04 + t, 0.008 * np.sin(8 * t), 0.05 + 0.008 * np.cos(8 * t)], axis=1
    )
    return PointCloud(np.vstack([body, handle]))


def cylinder_cloud(n=600, seed=1):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2 * math.pi, n)
    z = rng.uniform(0, 0.1, n)
    return PointCloud(np.stack([0.04 * np.cos(th), 0.04 * np.sin(th), z], axis=1))


def covariances(cloud, k=GicpParams.k_neighbors):
    """estimate_covariances in a KD tree of the cloud's own."""
    return estimate_covariances(cloud, k, cKDTree(cloud.points))


def own_covariances(cloud):
    """The covariances registration gives a cloud: from its own
    ``min(k_neighbors, len(cloud))`` nearest neighbours."""
    return covariances(cloud, min(GicpParams.k_neighbors, len(cloud)))


class StandIn:
    """A demo as estimate_delta reads it: an object cloud, which unlike a
    Demonstration's may be empty, and the same cached ``registered``."""

    def __init__(self, object_cloud):
        self.object_cloud = object_cloud

    registered = Demonstration.registered


def swept(cloud):
    """The test side as the sweep reads it: the cloud and its tree, which
    ``registration.cKDTree`` builds.  The sweep reads no covariances, so this
    serves clouds too small to prepare as well."""
    return PreparedCloud(cloud, registration.cKDTree(cloud.points), None)


def coarse(demo_cloud, test_cloud):
    return coarse_align(demo_cloud, swept(test_cloud))


def gicp(demo_cloud, test_cloud, init):
    """generalized_icp of the whole demo cloud, each side's covariances from
    its own neighbours, as estimate_delta estimates them."""
    return generalized_icp(demo_cloud, prepare_test_cloud(test_cloud), init, own_covariances(demo_cloud))


class TestGicpParams:
    def test_fixed_values(self):
        assert (
            GicpParams.max_iterations, GicpParams.inlier_radius, GicpParams.step_stop,
            GicpParams.damping, GicpParams.k_neighbors, GicpParams.yaw_steps,
        ) == (50, 0.025, 1e-5, 1e-4, 20, 72)
        assert not hasattr(GicpParams, "rel_tolerance")
        assert GicpParams().yaw_steps == 72

    @pytest.mark.parametrize("kwargs", [{"max_iterations": 0}, {"yaw_steps": 36}, {"radius": 0.01}])
    def test_takes_no_arguments(self, kwargs):
        with pytest.raises(TypeError):
            GicpParams(**kwargs)
        with pytest.raises(TypeError):
            GicpParams(*kwargs.values())


class TestCoarseAlign:
    def test_identity(self):
        c = mug_cloud()
        delta = coarse(c, c)
        dt, dr = pose_distance(delta, Pose.identity())
        assert dt < 1e-6 and dr < 1e-6

    def test_known_transform_recovery(self):
        c = mug_cloud()
        g = Pose.from_yaw(math.radians(30.0), (0.10, 0.0, 0.0))
        moved = transform_cloud(g, c)
        delta = coarse(c, moved)
        dt, dr = pose_distance(delta, g)
        assert dt < 1e-3  # 1 mm
        assert dr < math.radians(2.5)  # half a sweep step

    def test_symmetric_cloud_lowest_angle(self):
        c = cylinder_cloud()
        delta = coarse(c, c)
        # every yaw ties on a surface of revolution: the sweep must keep 0
        _, dr = pose_distance(delta, Pose.identity())
        assert dr < math.radians(5.0) + 1e-9

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            coarse(PointCloud(np.zeros((0, 3))), mug_cloud())


def sweep_angles(steps):
    """The sweep's yaws, ordered by |angle| so degenerate ties resolve low."""
    step = 2.0 * math.pi / steps
    angles = [0.0]
    for k in range(1, steps // 2 + 1):
        angles.append(k * step)
        if k * step < math.pi - 1e-12:
            angles.append(-k * step)
    return angles


def sweep_scores(demo_cloud, test_cloud):
    """Every yaw's score over every point, unbounded: the sweep's angles, the
    scores in sweep order, and the two centroids."""
    c_demo = demo_cloud.points.mean(axis=0)
    c_test = test_cloud.points.mean(axis=0)
    centered = demo_cloud.points - c_demo
    if len(centered) > 600:
        centered = centered[:: len(centered) // 600 + 1]
    tree = cKDTree(test_cloud.points)
    cap = 0.01
    angles = sweep_angles(72)
    ca, sa = np.cos(angles), np.sin(angles)
    x, y, z = centered[:, 0], centered[:, 1], centered[:, 2]
    moved = np.empty((len(angles), len(centered), 3))
    moved[:, :, 0] = ca[:, None] * x - sa[:, None] * y
    moved[:, :, 1] = sa[:, None] * x + ca[:, None] * y
    moved[:, :, 2] = z
    moved += c_test
    d, _ = tree.query(moved.reshape(-1, 3), distance_upper_bound=cap)
    d = np.minimum(d.reshape(len(angles), -1), cap)
    return angles, np.sqrt(np.mean(d * d, axis=1)), c_demo, c_test


def select_pose(angles, scores, c_demo, c_test, yaws):
    """The sweep's selection loop over ``yaws`` (indices in sweep order): a
    yaw replaces the incumbent only if better by more than 1e-12."""
    best_angle, best_score = 0.0, math.inf
    for i in yaws:
        if scores[i] < best_score - 1e-12:
            best_score, best_angle = float(scores[i]), angles[i]
    R = Pose.from_yaw(best_angle)
    return Pose(R.rotation, c_test - R.rotation_matrix() @ c_demo)


def full_sweep(demo_cloud, test_cloud):
    """The single-stage sweep: every one of the 72 yaws competes."""
    angles, scores, c_demo, c_test = sweep_scores(demo_cloud, test_cloud)
    return select_pose(angles, scores, c_demo, c_test, range(len(angles)))


def two_stage_sweep(demo_cloud, test_cloud):
    """The documented two-pass rule without its bound: the grid yaws (every
    4th 5 degree step) scoring within 5% of the grid's best are the
    candidates, and the yaws at most 2 steps from a candidate compete."""
    angles, scores, c_demo, c_test = sweep_scores(demo_cloud, test_cloud)
    turns = [round(a / math.radians(5.0)) % 72 for a in angles]
    grid = [i for i in range(72) if turns[i] % 4 == 0]
    best = min(scores[i] for i in grid)
    candidates = [turns[i] for i in grid if scores[i] <= (1.0 + 0.05) * best]
    near = [i for i in range(72) if any(min((turns[i] - c) % 72, (c - turns[i]) % 72) <= 2 for c in candidates)]
    return select_pose(angles, scores, c_demo, c_test, near)


def sweep_yaw(pose):
    return math.atan2(pose.rotation_matrix()[1, 0], pose.rotation_matrix()[0, 0])


def assert_same_pose(got, want):
    assert np.array_equal(got.rotation, want.rotation)
    assert np.array_equal(got.translation, want.translation)


@st.composite
def sweep_clouds(draw):
    """1-20 points: general, with duplicates, a ring with yaw symmetry
    (near-ties), or a coarse grid; coordinates within a few caps."""
    n = draw(st.integers(1, 20))
    shape = draw(st.sampled_from(["general", "duplicated", "ring", "grid"]))
    if shape == "ring":
        th = 2.0 * math.pi * np.arange(n) / n
        z = draw(arrays(np.float64, n, elements=st.floats(0.0, 0.05)))
        return np.column_stack([0.04 * np.cos(th), 0.04 * np.sin(th), z])
    if shape == "grid":
        return draw(arrays(np.float64, (n, 3), elements=st.integers(-4, 4))) * 0.005
    pts = draw(arrays(np.float64, (n, 3), elements=st.floats(-0.05, 0.05)))
    if shape == "duplicated":
        pts = pts[draw(arrays(np.int64, n, elements=st.integers(0, n - 1)))]
    return pts


def benchmark_sweep_clouds(family):
    """A demo of ``family`` and eight observed clouds: two scene seeds, the
    demo's instance and an unseen one, both modes, with and without
    occlusion and noise."""
    demo, task, _ = family_demo(family)
    clouds = []
    for seed, instance_seed in enumerate((0, 1000), start=2):
        instance = generate_object(family, instance_seed)
        for mode in ("controlled", "thousand"):
            for occlusion, noise in ((0.0, 0.0), (0.4, 0.002)):
                scene = randomize_scene(task, instance, mode, seed, occlusion_fraction=occlusion, noise_sigma=noise)
                clouds.append(_observed_cloud(scene))
    return demo, clouds


class CountingTree(cKDTree):
    """A ``cKDTree`` that adds the points of every query to ``points``."""

    points = 0

    def query(self, x, *args, **kwargs):
        CountingTree.points += len(x)
        return super().query(x, *args, **kwargs)


class TestSweepBound:
    """The bounded two-pass sweep returns the two-pass rule's pose bit for
    bit, and on the benchmark's clouds the full 72-yaw sweep's."""

    def test_constants(self):
        assert (registration.COARSE_GRID, registration.COARSE_SLACK, registration.SWEEP_SLICES) == (4, 0.05, 8)

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_benchmark_clouds(self, family):
        demo, clouds = benchmark_sweep_clouds(family)
        for cloud in clouds:
            assert_same_pose(coarse(demo.object_cloud, cloud), full_sweep(demo.object_cloud, cloud))

    def test_benchmark_clouds_query_share(self, monkeypatch):
        """Points sent to the KD tree, as a share of 72 yaws x the subsample,
        over the clouds above: 0.383 with the two passes, 0.616 with the
        single-stage bounded sweep."""
        monkeypatch.setattr(registration, "cKDTree", CountingTree)
        monkeypatch.setattr(CountingTree, "points", 0)
        full = 0
        for family in CATEGORIES:
            demo, clouds = benchmark_sweep_clouds(family)
            n = len(demo.object_cloud)
            n = len(range(0, n, n // 600 + 1)) if n > 600 else n
            for cloud in clouds:
                coarse(demo.object_cloud, cloud)
                full += 72 * n
        assert CountingTree.points <= 0.42 * full

    @settings(max_examples=300, deadline=None)
    @given(
        demo=sweep_clouds(),
        test=st.one_of(sweep_clouds(), st.sampled_from(["same", "swapped"])),
        shift=arrays(np.float64, 3, elements=st.floats(-0.01, 0.01)),
    )
    def test_small_clouds(self, demo, test, shift):
        if isinstance(test, str) and test == "same":
            test = demo + shift
        elif isinstance(test, str):  # the demo turned by exactly 90 degrees
            test = np.column_stack([-demo[:, 1], demo[:, 0], demo[:, 2]]) + shift
        demo, test = PointCloud(demo), PointCloud(test)
        assert_same_pose(coarse(demo, test), two_stage_sweep(demo, test))

    def test_best_off_the_candidates(self):
        """A narrow basin at 10 degrees, half-way between two grid yaws, and a
        half match at 180 degrees: the grid's only candidate is 180, so the
        sweep returns 180 where the full sweep returns 10.  Without the half
        match every grid yaw ties, and the sweep finds 10."""
        rng = np.random.default_rng(5)

        def zero_mean(m):
            th = rng.uniform(0.0, 2.0 * math.pi, m)
            pts = np.column_stack([np.cos(th), np.sin(th), np.zeros(m)]) * rng.uniform(0.2, 0.3, (m, 1))
            pts[:, 2] = rng.uniform(0.0, 0.3, m)
            return pts - pts.mean(axis=0)

        half, other = zero_mean(8), zero_mean(8)
        demo = PointCloud(np.vstack([half, other]))
        turned = transform_cloud(Pose.from_yaw(math.radians(10.0)), demo).points
        flipped = transform_cloud(Pose.from_yaw(math.pi), PointCloud(half)).points
        test = PointCloud(np.vstack([turned, flipped]))
        assert sweep_yaw(full_sweep(demo, test)) == pytest.approx(math.radians(10.0))
        assert abs(sweep_yaw(coarse(demo, test))) == pytest.approx(math.pi)
        assert_same_pose(coarse(demo, test), two_stage_sweep(demo, test))
        alone = PointCloud(turned)
        assert sweep_yaw(coarse(demo, alone)) == pytest.approx(math.radians(10.0))
        assert_same_pose(coarse(demo, alone), full_sweep(demo, alone))

    def test_cylinder(self):
        c = cylinder_cloud()
        for yaw in (0.0, math.pi / 2, math.radians(37.0)):
            moved = transform_cloud(Pose.from_yaw(yaw, (0.01, -0.02, 0.0)), c)
            assert_same_pose(coarse(c, moved), full_sweep(c, moved))


class TestEstimateCovariances:
    def test_planar_clamp(self):
        rng = np.random.default_rng(4)
        pts = np.zeros((200, 3))
        pts[:, :2] = rng.uniform(-0.1, 0.1, size=(200, 2))
        cov = covariances(PointCloud(pts))
        w = np.linalg.eigvalsh(cov)
        np.testing.assert_allclose(w[:, 0], EPS_PLANE * w[:, 2], rtol=1e-9)

    def test_isotropic_blob(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(scale=0.05, size=(400, 3))
        cov = covariances(PointCloud(pts), k=40)
        w = np.linalg.eigvalsh(cov)
        assert np.median(w[:, 0] / w[:, 2]) > 0.5

    def test_symmetric_psd(self):
        cov = covariances(mug_cloud())
        np.testing.assert_allclose(cov, np.transpose(cov, (0, 2, 1)), atol=1e-15)
        assert np.all(np.linalg.eigvalsh(cov) >= 0)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            covariances(PointCloud(np.zeros((5, 3))), k=20)


class TestGeneralizedIcp:
    def test_identical_clouds_identity(self):
        c = mug_cloud()
        res = gicp(c, c, Pose.identity())
        dt, dr = pose_distance(res.delta, Pose.identity())
        assert dt < 1e-9 and dr < 1e-9
        assert res.inlier_rmse < 1e-9
        assert res.fitness == 1.0
        assert res.iterations <= GicpParams.max_iterations

    def test_known_transform_from_coarse(self):
        c = mug_cloud(n=1600)
        g = Pose.from_yaw(math.radians(10.0), (0.05, 0.0, 0.0))
        moved = transform_cloud(g, c)
        init = coarse(c, moved)
        res = gicp(c, moved, init)
        dt, dr = pose_distance(res.delta, g)
        assert dt < 2e-3
        assert dr < math.radians(1.0)

    def test_small_perturbation_refined(self):
        c = mug_cloud(n=1600)
        init = Pose.from_yaw(math.radians(3.0), (0.004, -0.003, 0.002))
        res = gicp(c, c, init)
        dt, dr = pose_distance(res.delta, Pose.identity())
        assert dt < 2e-3
        assert dr < math.radians(1.0)

    def test_no_correspondences(self):
        c = mug_cloud()
        far = Pose(translation=np.array([10.0, 0.0, 0.0]))
        with pytest.raises(NoCorrespondences):
            gicp(c, c, far)

    def test_consistency_random_inits(self, rng):
        c = mug_cloud(n=1200)
        good = 0
        for _ in range(20):
            init = Pose.from_yaw(
                rng.uniform(-math.radians(4), math.radians(4)),
                rng.uniform(-0.005, 0.005, size=3),
            )
            res = gicp(c, c, init)
            dt, dr = pose_distance(res.delta, Pose.identity())
            if dt < 2e-3 and dr < math.radians(1.0):
                good += 1
        assert good >= 19  # >= 95%

    def test_symmetric_translation_only(self):
        # surface of revolution: yaw is unconstrained, translation is not
        c = cylinder_cloud(n=900)
        g = Pose(translation=np.array([0.03, 0.02, 0.0]))
        moved = transform_cloud(g, c)
        res = gicp(c, moved, coarse(c, moved))
        assert np.linalg.norm(res.delta.translation - g.translation) < 2e-3

    def test_left_equivariance(self, rng):
        c = mug_cloud(n=1200)
        for _ in range(5):
            g = Pose.from_yaw(rng.uniform(-math.pi, math.pi), rng.uniform(-0.1, 0.1, size=3) * [1, 1, 0])
            moved = transform_cloud(g, c)
            res = gicp(c, moved, coarse(c, moved))
            dt, dr = pose_distance(res.delta, g)
            assert dt < 2e-3 and dr < math.radians(1.0)

    def test_result_serializable(self):
        c = mug_cloud()
        res = gicp(c, c, Pose.identity())
        d = res.to_dict()
        # the CLI prints these keys unsorted, so their order is part of the output
        assert list(d) == ["delta", "inlier_rmse", "fitness", "iterations", "converged"]
        assert d["delta"] == res.delta.as_row() and d["iterations"] == res.iterations


def family_demo(family):
    """A recorded demo of ``family`` and (task, instance) for further scenes."""
    task, instance = default_task(family), generate_object(family, 0)
    bench = Benchmark(Dataset())
    demo = bench.record_demonstration(task, randomize_scene(task, instance, "controlled", 1))
    return demo, task, instance


def plain_estimate(demo, cloud):
    """estimate_delta without the demo's kept ``registered``: the whole
    cloud's covariances and the subset computed afresh, the sweep on the
    whole cloud and GICP on the subset with its rows of those covariances."""
    init = coarse(demo.object_cloud, cloud)
    cov = own_covariances(demo.object_cloud)
    keep = normal_space_sample(cov, min(GicpParams.k_neighbors, len(demo.object_cloud)))
    return generalized_icp(PointCloud(demo.object_cloud.points[keep]), prepare_test_cloud(cloud), init, cov[keep])


def bucket_covariances(sizes, seed=0):
    """Covariances whose normals lie at the centres of the normal-space
    buckets, ``sizes[b]`` of them in bucket b, in shuffled order; returns
    (covariances, bucket of each).  The eigensolver returns some of these
    normals pointing down, so the sampler's fold matters."""
    rng = np.random.default_rng(seed)
    polar, azimuth = registration.NORMAL_POLAR, registration.NORMAL_AZIMUTH
    bucket = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    th = (bucket // azimuth + 0.5) * (0.5 * math.pi / polar)
    ph = -math.pi + (bucket % azimuth + 0.5) * (2.0 * math.pi / azimuth)
    n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    u = np.cross(n, [0.3, 0.5, 0.8])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(n, u)
    cov = sum(w * np.einsum("ni,nj->nij", a, a) for w, a in ((1e-6, n), (1e-4, u), (2e-4, v)))
    return cov, bucket


class TestNormalSpaceSample:
    SIZES = [300, 1, 2, 0, 5, 40, 3, 0] + [7] * 16 + [60, 2, 30, 9, 0, 25, 11, 4]  # 32 buckets, three empty

    def test_deterministic(self):
        cov = covariances(mug_cloud())
        first = normal_space_sample(cov, 20)
        assert np.array_equal(first, normal_space_sample(cov.copy(), 20))

    @pytest.mark.parametrize("n", [80, 81, 1000, 1001])
    def test_sorted_unique_half(self, n):
        cov = covariances(mug_cloud(n=n))[:n]
        keep = normal_space_sample(cov, 20)
        assert len(keep) == n // 2
        assert np.all(np.diff(keep) > 0) and keep[0] >= 0 and keep[-1] < n

    def test_every_bucket_contributes(self):
        cov, bucket = bucket_covariances(self.SIZES)
        keep = normal_space_sample(cov, 20)
        taken = np.bincount(bucket[keep], minlength=len(self.SIZES))
        sizes = np.array(self.SIZES)
        assert np.all(taken[sizes > 0] >= 1) and np.all(taken[sizes == 0] == 0)
        # round robin, one point per bucket and round, in bucket order
        want = [0] * len(self.SIZES)
        while sum(want) < len(keep):
            for b, size in enumerate(self.SIZES):
                if want[b] < size and sum(want) < len(keep):
                    want[b] += 1
        assert taken.tolist() == want

    def test_even_positions_first(self):
        cov, bucket = bucket_covariances(self.SIZES)
        keep = normal_space_sample(cov, 20)
        big = np.flatnonzero(bucket == 0)  # 300 points, most of them dropped
        chosen = np.isin(big, keep)
        assert 0 < chosen.sum() <= 150 and not chosen[1::2].any()
        assert chosen[: 2 * chosen.sum() : 2].all()

    @pytest.mark.parametrize("n, k, whole", [(79, 20, True), (80, 20, False), (39, 10, True), (40, 10, False)])
    def test_small_demo_kept_whole(self, n, k, whole):
        cov = covariances(mug_cloud())[:n]
        keep = normal_space_sample(cov, k)
        assert (len(keep) == n) == whole
        if whole:
            assert np.array_equal(keep, np.arange(n))

    def test_small_demo_registers_whole(self):
        demo, task, instance = family_demo("mug")
        small = StandIn(PointCloud(demo.object_cloud.points[:70]))
        cloud = _observed_cloud(randomize_scene(task, instance, "controlled", 2))
        estimate_delta(small, cloud)
        subset, cov = small.registered
        assert subset == small.object_cloud and len(cov) == 70


class TestEstimateDelta:
    @pytest.mark.parametrize("family", CATEGORIES)
    def test_memo_is_bit_identical(self, family):
        demo, task, instance = family_demo(family)
        seen = _observed_cloud(randomize_scene(task, instance, "controlled", 2))
        unseen = _observed_cloud(
            randomize_scene(
                task, generate_object(family, 1000), "thousand", 3,
                occlusion_fraction=0.3, noise_sigma=0.002,
            )
        )
        assert "registered" not in vars(demo)
        # cold (first registration of the demo), then warm on the same and
        # on another cloud
        for cloud in (seen, seen, unseen):
            assert estimate_delta(demo, cloud).to_dict() == plain_estimate(demo, cloud).to_dict()
        subset, cov = vars(demo)["registered"]
        # GICP of the kept subset cloud and covariances, given the same init
        for cloud in (seen, unseen):
            test = prepare_test_cloud(cloud)
            want = generalized_icp(subset, test, coarse_align(demo.object_cloud, test), cov)
            assert estimate_delta(demo, cloud).to_dict() == want.to_dict()
        assert len(subset) == len(demo.object_cloud) // 2
        assert subset.points.flags.owndata and not subset.points.flags.writeable

    def test_memo_per_neighbour_count(self):
        """A test cloud under k_neighbors points takes its own neighbour
        count and the demo keeps its own, so the kept demo side serves every
        test cloud with the bits of a fresh one."""
        demo, task, instance = family_demo("mug")
        cloud = _observed_cloud(randomize_scene(task, instance, "controlled", 2))
        tiny = PointCloud(cloud.points[:12])  # k = 12 < k_neighbors on the test side
        for test in (cloud, tiny, cloud, tiny):
            try:
                want = plain_estimate(demo, test).to_dict()
            except NoCorrespondences:
                with pytest.raises(NoCorrespondences):
                    estimate_delta(demo, test)
                continue
            assert estimate_delta(demo, test).to_dict() == want

    def test_demo_prepared_once_whatever_the_test_cloud(self, monkeypatch):
        """Registered against a 12-point test cloud and then a full one, a
        demo is prepared once, with its own neighbour count: its
        ``registered`` has the bits of prepare_demo_cloud of its cloud."""
        demo, task, instance = family_demo("kettle")
        cloud = _observed_cloud(randomize_scene(task, instance, "controlled", 2))
        prepared = []
        real = registration.prepare_demo_cloud

        def counting(c):
            prepared.append(c)
            return real(c)

        monkeypatch.setattr(registration, "prepare_demo_cloud", counting)
        for test in (PointCloud(cloud.points[:12]), cloud):
            try:
                estimate_delta(demo, test)
            except NoCorrespondences:
                pass
        assert len(prepared) == 1 and prepared[0] is demo.object_cloud
        monkeypatch.undo()
        subset, cov = demo.registered
        want_subset, want_cov = prepare_demo_cloud(demo.object_cloud)
        assert subset.points.tobytes() == want_subset.points.tobytes()
        assert cov.tobytes() == want_cov.tobytes()

    def test_demo_covariances_once_per_demo(self, monkeypatch, tmp_path):
        calls = []
        real = registration.estimate_covariances

        def counting(cloud, k, tree):
            calls.append(cloud)
            return real(cloud, k, tree)

        selections = []
        real_sample = registration.normal_space_sample

        def counting_sample(cov, k):
            selections.append(len(cov))
            return real_sample(cov, k)

        monkeypatch.setattr(registration, "estimate_covariances", counting)
        monkeypatch.setattr(registration, "normal_space_sample", counting_sample)
        demo, task, instance = family_demo("kettle")
        ds = Dataset()
        stored = ds.ingest(demo.description, demo.object_cloud, demo.trajectory)
        save_dataset(ds, tmp_path / "arch")
        loaded = load_dataset(tmp_path / "arch").demos[stored.id]
        assert calls == [] and selections == []  # neither ingest nor load does either
        for seed in (2, 3):
            estimate_delta(loaded, _observed_cloud(randomize_scene(task, instance, "controlled", seed)))
        assert sum(c is loaded.object_cloud for c in calls) == 1
        assert len(calls) == 3  # the demo once, each test cloud once
        assert selections == [len(loaded.object_cloud)]  # one selection for the loaded demo

    def test_memo_stays_out_of_repr_and_archive(self, tmp_path):
        demo, task, instance = family_demo("pan")
        ds = Dataset()
        stored = ds.ingest(demo.description, demo.object_cloud, demo.trajectory)
        save_dataset(ds, tmp_path / "before")
        before = repr(stored)
        estimate_delta(stored, _observed_cloud(randomize_scene(task, instance, "controlled", 2)))
        assert len(stored.replay_plan) == len(stored.trajectory) - 1
        assert {"registered", "replay_plan"} <= vars(stored).keys()
        assert repr(stored) == before
        save_dataset(ds, tmp_path / "after")
        name = f"{stored.id}.demo"
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()


def polish_to_noise(demo_cloud, test, init, cov_demo):
    """GICP's loop without the step stop, as it ran before any step stop: it
    ends only when 8 trials in a row fail or an accepted step changes the
    cost by less than 1e-6 of it.  Returns the final pose and its cost
    evaluations."""
    calls = 0

    def cost_at(pose):
        nonlocal calls
        calls += 1
        return _corresponding_cost(pose, demo_cloud.points, cov_demo, test)

    pose, state, lam = init, cost_at(init), GicpParams.damping
    for _ in range(GicpParams.max_iterations):
        _, src, _, W, d, cost = state
        J = np.zeros((d.shape[0], 3, 6))
        J[:, 0, 1], J[:, 0, 2] = -src[:, 2], src[:, 1]
        J[:, 1, 0], J[:, 1, 2] = src[:, 2], -src[:, 0]
        J[:, 2, 0], J[:, 2, 1] = -src[:, 1], src[:, 0]
        J[:, :, 3:] = -np.eye(3)
        WJ = (W @ J).reshape(-1, 6)
        H = J.reshape(-1, 6).T @ WJ
        g = WJ.T @ d.reshape(-1)
        for _ in range(8):
            step = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-12 * np.eye(6), -g)
            cand = compose(_exp_step(step), pose)
            cand_state = cost_at(cand)
            if cand_state is not None and cand_state[5] < cost:
                lam = max(lam / 3.0, 1e-10)
                break
            lam *= 10.0
        else:
            return pose, calls
        pose, state = cand, cand_state
        if abs(cost - state[5]) / max(cost, 1e-30) < 1e-6:
            return pose, calls
    return pose, calls


class TrialLog:
    """Counts ``_corresponding_cost`` calls and recovers each trial's step.

    It replays GICP's accept rule (a trial is taken if its cost is lower), so
    it knows the pose a trial stepped from and that pose's matched points, and
    records the trial's step bound ``angle * max |src| + |t|``.
    """

    def __init__(self):
        self.calls = 0
        self.bounds = []
        self.current = None  # (pose, state) of the pose the trials step from

    def __call__(self, pose, *args):
        state = _corresponding_cost(pose, *args)
        self.calls += 1
        if self.current is None:
            self.current = (pose, state)
            return state
        at, at_state = self.current
        step = compose(pose, invert(at))
        reach = np.linalg.norm(at_state[1], axis=1).max()
        self.bounds.append(rotation_angle(step.rotation) * reach + np.linalg.norm(step.translation))
        if state is not None and state[5] < at_state[5]:
            self.current = (pose, state)
        return state


def step_stop_scenes(family, kind):
    """(demo cloud, test cloud) pairs: ``seen`` scenes of the demo's instance,
    ``unseen`` occluded noisy instances, or ``exact`` transforms of a dense
    demo cloud as in acceptance criterion 3."""
    if kind == "exact":
        pts = generate_object(family, 0).canonical_cloud.points
        demo_cloud = PointCloud(pts[np.sort(np.random.default_rng(5).choice(len(pts), 2000, replace=False))])
        rng = np.random.default_rng(6)
        for _ in range(3):
            g = Pose.from_yaw(
                rng.uniform(-math.pi, math.pi),
                np.concatenate([rng.uniform(-0.10, 0.10, 2), rng.uniform(-0.02, 0.02, 1)]),
            )
            yield demo_cloud, transform_cloud(g, demo_cloud)
        return
    demo, task, instance = family_demo(family)
    for seed in (2, 3, 4):
        if kind == "seen":
            scene = randomize_scene(task, instance, "controlled", seed)
        else:
            scene = randomize_scene(
                task, generate_object(family, 1000 + seed), "thousand", seed,
                occlusion_fraction=0.4, noise_sigma=0.002,
            )
        yield demo.object_cloud, _observed_cloud(scene)


@lru_cache(maxsize=None)
def step_stop_runs(family, kind):
    """Per scene: GICP from the coarse init under a TrialLog, the last pose
    it accepted, the oracle's pose and call count, and the cost at the init
    and at the result."""
    runs = []
    for demo_cloud, test_cloud in step_stop_scenes(family, kind):
        cov_demo = own_covariances(demo_cloud)
        test = prepare_test_cloud(test_cloud)
        init = coarse_align(demo_cloud, test)
        log = TrialLog()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(registration, "_corresponding_cost", log)
            res = generalized_icp(demo_cloud, test, init, cov_demo)
        want, oracle_calls = polish_to_noise(demo_cloud, test, init, cov_demo)
        cost_init, cost_final = (
            _corresponding_cost(pose, demo_cloud.points, cov_demo, test)[5] for pose in (init, res.delta)
        )
        runs.append(SimpleNamespace(
            res=res, accepted=log.current[0], want=want, log=log, oracle_calls=oracle_calls,
            cost_init=cost_init, cost_final=cost_final,
        ))
    return runs


STEP_STOP_CASES = [(family, kind) for family in CATEGORIES for kind in ("seen", "unseen", "exact")]


class TestStepStop:
    """GICP stops once a step would move no matched demo point by more than
    ``step_stop``, checked against the loop without the stop
    (``polish_to_noise``)."""

    min_move = GicpParams.step_stop

    @pytest.mark.parametrize("family,kind", STEP_STOP_CASES)
    def test_pose_close_to_polish_to_noise(self, family, kind):
        # about twice the largest move measured over these 54 scenes when the
        # stop was set to 10 um: 25 um and 0.11 mrad, both on an unseen mug
        for run in step_stop_runs(family, kind):
            dt, dr = pose_distance(run.res.delta, run.want)
            assert dt <= 5e-5 and dr <= 2e-4, (dt, dr)

    @pytest.mark.parametrize("family,kind", STEP_STOP_CASES)
    def test_cost_never_above_init(self, family, kind):
        for run in step_stop_runs(family, kind):
            assert run.cost_final <= run.cost_init
            # each accepted trial lowers the cost, so the last one is the best
            # pose visited, and GICP returns it bit for bit
            assert run.accepted == run.res.delta

    @pytest.mark.parametrize("family,kind", STEP_STOP_CASES)
    def test_no_trial_within_the_stop(self, family, kind):
        for run in step_stop_runs(family, kind):
            # the relative slack covers the rounding of the recovered step
            assert min(run.log.bounds, default=math.inf) > self.min_move * (1.0 + 1e-6)
            assert run.res.converged

    @pytest.mark.parametrize("kind,share", [("seen", 0.4), ("unseen", 0.8)], ids=["seen", "unseen"])
    def test_calls_against_polish_to_noise(self, kind, share):
        """Cost evaluations summed over the families (one family's three
        scenes can save little), against the oracle's: 104/326 = 0.32 seen
        and 287/397 = 0.72 unseen when the stop was set to 10 um.  A stop
        at 25 nm read 0.47 and 0.99, so a return to polishing fails here."""
        runs = [run for family in CATEGORIES for run in step_stop_runs(family, kind)]
        assert sum(r.log.calls for r in runs) <= share * sum(r.oracle_calls for r in runs)

    def test_stop_before_any_trial(self):
        c = mug_cloud()
        res = gicp(c, c, Pose.identity())
        assert (res.iterations, res.converged) == (1, True)
        assert_same_pose(res.delta, Pose.identity())


def facing_grids(gap):
    """Two 5 x 5 grids in the planes x = 0 and x = gap; every point's nearest
    neighbour in the other grid is its partner at exactly ``gap``."""
    yz = np.array([(y, z) for y in range(5) for z in range(5)], dtype=np.float64) / 16.0
    demo = np.column_stack([np.zeros(25), yz])
    test = np.column_stack([np.full(25, gap), yz])
    return PointCloud(demo), PointCloud(test)


class TestInlierRadiusBoundary:
    """A match at exactly ``inlier_radius`` counts, one just beyond does not."""

    radius = GicpParams.inlier_radius

    def cost(self, gap):
        demo, test = facing_grids(gap)
        cov = np.broadcast_to(np.eye(3) * 1e-4, (25, 3, 3))
        return _corresponding_cost(Pose.identity(), demo.points, cov, PreparedCloud(test, cKDTree(test.points), cov))

    def test_corresponding_cost(self):
        state = self.cost(self.radius)
        assert state is not None and state[0].all()
        assert self.cost(np.nextafter(self.radius, np.inf)) is None

    def test_fitness(self, monkeypatch):
        monkeypatch.setattr(GicpParams, "max_iterations", 0)
        demo, test = facing_grids(self.radius)
        res = gicp(demo, test, Pose.identity())
        assert res.fitness == 1.0
        assert res.inlier_rmse == pytest.approx(self.radius, rel=1e-12)
        demo, test = facing_grids(np.nextafter(self.radius, np.inf))
        with pytest.raises(NoCorrespondences):
            gicp(demo, test, Pose.identity())


class TestQueryWithin:
    """GICP's bounded query answers within the radius as an unbounded one
    does: the same matches, distances and indices."""

    @staticmethod
    def check_walk(test, walk, radius=0.025):
        tree = cKDTree(test)
        for pts in walk:
            got_d, got_i = _query_within(tree, pts, radius)
            want_d, want_i = tree.query(pts)
            mask = want_d <= radius
            assert np.array_equal(got_d <= radius, mask)
            assert np.array_equal(got_d[mask], want_d[mask])
            assert np.array_equal(got_i[mask], want_i[mask])

    @pytest.mark.parametrize(
        "gap,steps",
        [
            (0.025, (1e-12, -1e-12, 1e-10, -2e-10, 0.0, 3e-12)),
            (np.nextafter(0.025, np.inf), (1e-12, -1e-12, 1e-10, -2e-10, 0.0, 3e-12)),
            (np.nextafter(0.025, 0.0), (1e-12, -1e-12, 1e-10, -2e-10, 0.0, 3e-12)),
            (0.06, (-0.02, -0.04, -0.01)),  # from far beyond the radius into it
        ],
    )
    def test_walk_across_the_radius(self, gap, steps):
        """Each demo point's partner starts at ``gap``, then the grid steps
        towards or away from it, across the radius."""
        demo, test = facing_grids(gap)
        self.check_walk(test.points, [demo.points + [dx, 0.0, 0.0] for dx in (0.0, *steps)])

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e3, MAX_COORDINATE - 1.0])
    def test_walk_into_a_tie(self, offset):
        """From near one end of a segment between two test points to its
        midpoint, give or take a few ulps."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            ends = rng.uniform(-0.025, 0.025, (2, 3)) + offset
            start = ends[0] + rng.uniform(0.0, 0.3, (20, 1)) * (ends[1] - ends[0])
            mid = ends.mean(axis=0)
            self.check_walk(ends, [start, mid + rng.integers(-3, 4, (20, 3)) * np.spacing(np.abs(mid))])


class TestRotateCovariances:
    """The flat product gives ``R @ C @ R.T``'s bits on every family's
    covariances: a BLAS for which it does not fails here."""

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_bit_identical(self, family):
        rng = np.random.default_rng(7)
        demo, _, _ = family_demo(family)
        (_, occluded), *_ = step_stop_scenes(family, "unseen")
        for cloud in (demo.object_cloud, occluded):
            cov = covariances(cloud)
            for scale in (1e-150, 1.0, 1e6):
                for _ in range(10):
                    R = Pose(rng.normal(size=4)).rotation_matrix()
                    want = R @ (cov * scale) @ R.T
                    assert _rotate_covariances(R, cov * scale).tobytes() == want.tobytes()


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# The stacked forms of the 3x3 kernels, as they were before they moved to
# contiguous component rows: the references the kernels must match bit for
# bit.  A numpy or BLAS for which they differ fails here.


def stacked_eigh3x3(A):
    a00, a01, a02 = A[:, 0, 0], A[:, 0, 1], A[:, 0, 2]
    a11, a12, a22 = A[:, 1, 1], A[:, 1, 2], A[:, 2, 2]
    q = (a00 + a11 + a22) / 3.0
    p1 = a01 * a01 + a02 * a02 + a12 * a12
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * p1
    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    ps = np.where(p > 0.0, p, 1.0)
    c00, c01, c02 = b00 / ps, a01 / ps, a02 / ps
    c11, c12, c22 = b11 / ps, a12 / ps, b22 / ps
    det_b = (
        c00 * (c11 * c22 - c12 * c12)
        - c01 * (c01 * c22 - c12 * c02)
        + c02 * (c01 * c12 - c11 * c02)
    )
    phi = np.arccos(np.clip(det_b / 2.0, -1.0, 1.0)) / 3.0
    w_hi = q + 2.0 * p * np.cos(phi)
    w_lo = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    w = np.stack([w_lo, 3.0 * q - w_hi - w_lo, w_hi], axis=1)

    def eigvec(lam):
        m = A - lam[:, None, None] * np.eye(3)
        cands = np.stack(
            [np.cross(m[:, 0], m[:, 1]), np.cross(m[:, 0], m[:, 2]), np.cross(m[:, 1], m[:, 2])], axis=1
        )
        norms = np.linalg.norm(cands, axis=2)
        best = cands[np.arange(len(A)), np.argmax(norms, axis=1)]
        n = np.linalg.norm(best, axis=1, keepdims=True)
        return best / np.where(n > 0.0, n, 1.0), norms.max(axis=1)

    v_lo, n_lo = eigvec(w[:, 0])
    v_hi, n_hi = eigvec(w[:, 2])
    v_mid = np.cross(v_hi, v_lo)
    v = np.stack([v_lo, v_mid, v_hi], axis=2)
    scale = np.maximum(np.abs(w).max(axis=1), 1e-300)
    gap = np.minimum(w[:, 1] - w[:, 0], w[:, 2] - w[:, 1])
    bad = (gap <= 1e-6 * scale) | (n_lo <= 1e-12 * scale * scale) | (n_hi <= 1e-12 * scale * scale)
    if np.any(bad):
        w_b, v_b = np.linalg.eigh(A[bad])
        w[bad] = w_b
        v[bad] = v_b
    return w, v


def stacked_inv3x3(c):
    a, b, c_ = c[:, 0, 0], c[:, 0, 1], c[:, 0, 2]
    d, e, f = c[:, 1, 0], c[:, 1, 1], c[:, 1, 2]
    g, h, i = c[:, 2, 0], c[:, 2, 1], c[:, 2, 2]
    A = e * i - f * h
    B = f * g - d * i
    C = d * h - e * g
    det = a * A + b * B + c_ * C
    out = np.empty_like(c)
    out[:, 0, 0] = A
    out[:, 0, 1] = c_ * h - b * i
    out[:, 0, 2] = b * f - c_ * e
    out[:, 1, 0] = B
    out[:, 1, 1] = a * i - c_ * g
    out[:, 1, 2] = c_ * d - a * f
    out[:, 2, 0] = C
    out[:, 2, 1] = b * g - a * h
    out[:, 2, 2] = a * e - b * d
    out /= det[:, None, None]
    return out


def stacked_raw_covariances(cloud, k):
    """The neighbour covariances before the planar clamp, from the (N, k, 3) stack."""
    _, idx = cKDTree(cloud.points).query(cloud.points, k=k)
    nbrs = cloud.points[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    return centered.transpose(0, 2, 1) @ centered / k


def stacked_covariances(cloud, k=GicpParams.k_neighbors, tree=None):
    """estimate_covariances from the stacked forms; it builds its own tree,
    so a caller's ``tree`` is ignored."""
    w, v = stacked_eigh3x3(stacked_raw_covariances(cloud, k))
    largest = np.maximum(w[:, -1], 1e-12)
    w = np.maximum(w, (EPS_PLANE * largest)[:, None])
    return (v * w[:, None, :]) @ v.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def kernel_clouds(family):
    """A family's demo cloud and one unseen occluded noisy cloud."""
    demo, _, _ = family_demo(family)
    (_, occluded), *_ = step_stop_scenes(family, "unseen")
    return demo.object_cloud, occluded


def family_matrices(family):
    """(name, stack): the raw and regularised covariances of the family's
    demo and occluded clouds, at scales 1e-150, 1 and 1e6."""
    for cloud_name, cloud in zip(("demo", "occluded"), kernel_clouds(family)):
        raw = stacked_raw_covariances(cloud, GicpParams.k_neighbors)
        for cov_name, cov in (("raw", raw), ("regularised", stacked_covariances(cloud))):
            for scale in (1e-150, 1.0, 1e6):
                yield f"{cloud_name} {cov_name} x{scale:g}", cov * scale


def assert_eigh_close(A, w, v):
    """``(w, v)`` agrees with ``np.linalg.eigh(A)``: the same ascending
    eigenvalues and orthonormal columns that rebuild ``A``, to a tolerance
    relative to each matrix's largest |eigenvalue|, but never below the
    smallest normal float: for subnormal entries ``np.linalg.eigh``'s
    eigenvalues can underflow to 0, and the rounding of subnormals is
    absolute."""
    tiny = np.finfo(np.float64).tiny
    w_ref = np.linalg.eigh(A)[0]
    scale = np.abs(w_ref).max(axis=1)
    assert np.all(np.abs(w - w_ref) <= 1e-10 * scale[:, None] + tiny)
    np.testing.assert_allclose(v.transpose(0, 2, 1) @ v, np.broadcast_to(np.eye(3), A.shape), rtol=0, atol=1e-8)
    rebuilt = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
    assert np.all(np.abs(rebuilt - A) <= 1e-8 * scale[:, None, None] + tiny)


def assert_inv_close(c, inv):
    """Where ``c`` has a condition number below 1e6 and a determinant that
    does not underflow, ``inv`` is ``np.linalg.inv(c)`` within the adjugate's
    error bound.  The cofactors are 2x2 minors, which cancel to within
    rounding of ``|c|^2``, so the bound grows with the square of the
    condition number (the regularised covariances stay below about 1e3)."""
    with np.errstate(all="ignore"):  # LAPACK's det and cond of tiny or singular matrices
        cond = np.linalg.cond(c)
        fine = (cond < 1e6) & (np.abs(np.linalg.det(c)) >= np.finfo(np.float64).tiny)
    ref = np.linalg.inv(c[fine])
    size = np.abs(ref).max(axis=(1, 2))
    err = np.abs(inv[fine] - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-14 * cond[fine] ** 2 * size)


@st.composite
def symmetric_3x3(draw):
    """A symmetric 3x3 matrix: zero, isotropic, with a repeated eigenvalue,
    of rank 1, invariant under swapping the first two axes (so two
    eigenvector candidates have exactly equal norms), or general; at scales
    from 1e-150 to 1e6."""
    kind = draw(st.sampled_from(["zero", "isotropic", "repeated", "rank1", "tie", "general"]))
    unit = st.floats(-1.0, 1.0)
    if kind == "zero":
        A = np.zeros((3, 3))
    elif kind == "isotropic":
        A = draw(unit) * np.eye(3)
    elif kind in ("repeated", "rank1"):
        Q = Pose(draw(arrays(np.float64, 4, elements=st.floats(0.1, 1.0)))).rotation_matrix()
        a, b = draw(unit), draw(unit)
        A = (Q * ([0.0, 0.0, b] if kind == "rank1" else [a, a, b])) @ Q.T
    elif kind == "tie":
        a, b, c, d = (draw(unit) for _ in range(4))
        A = np.array([[a, b, c], [b, a, c], [c, c, d]])
    else:
        M = draw(arrays(np.float64, (3, 3), elements=unit))
        A = M + M.T
    A = 0.5 * (A + A.T)  # exactly symmetric
    return A * draw(st.sampled_from([1e-150, 1e-3, 1.0, 1e6]))


symmetric_stacks = st.lists(symmetric_3x3(), min_size=1, max_size=8).map(np.array)


class TestEigh3x3:
    @pytest.mark.parametrize("family", CATEGORIES)
    def test_family_covariances(self, family):
        for name, A in family_matrices(family):
            w, v = _eigh3x3(A)
            w_ref, v_ref = stacked_eigh3x3(A)
            assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes(), name
            assert v.flags.c_contiguous
            assert_eigh_close(A, w, v)

    @FUZZ
    @given(A=symmetric_stacks)
    @example(A=np.array([[[1.0, 1.0, 0.0], [1.0, -2.0, 0.0], [0.0, 0.0, 1.0]]]) * 1e-316)  # subnormal
    def test_symmetric_matrices(self, A):
        w, v = _eigh3x3(A)
        w_ref, v_ref = stacked_eigh3x3(A)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        assert_eigh_close(A, w, v)

    def test_tied_candidates_keep_the_first(self):
        """Two candidates for the smallest eigenvalue's vector tie exactly,
        and the kernel keeps the earlier one as ``argmax`` does."""
        A = np.array([[[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]])
        lam = stacked_eigh3x3(A)[0][:, 0]
        m = A - lam[:, None, None] * np.eye(3)
        r0, r1, r2 = m[0]
        norms = np.linalg.norm([np.cross(r0, r1), np.cross(r0, r2), np.cross(r1, r2)], axis=1)
        assert norms[1] == norms[2] > norms[0]
        w, v = _eigh3x3(A)
        assert v.tobytes() == stacked_eigh3x3(A)[1].tobytes()
        assert_eigh_close(A, w, v)


    def test_signed_zeros(self):
        """Off the diagonal ``A - lam I`` holds ``a - lam * 0.0``, which turns
        a -0.0 entry into +0.0 where ``lam`` is negative, as the stacked form
        does; diagonal matrices with every sign of their zero entries show it
        in the eigenvectors' zero components."""
        mats = []
        for diag in itertools.permutations([1.0, 2.0, 3.0]):
            for scale in (1.0, -1.0):
                for signs in itertools.product((1.0, -1.0), repeat=3):
                    A = np.diag(np.array(diag) * scale)
                    A[0, 1] = A[1, 0] = signs[0] * 0.0
                    A[0, 2] = A[2, 0] = signs[1] * 0.0
                    A[1, 2] = A[2, 1] = signs[2] * 0.0
                    mats.append(A)
        A = np.array(mats)
        w, v = _eigh3x3(A)
        w_ref, v_ref = stacked_eigh3x3(A)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()


class TestInv3x3:
    @pytest.mark.parametrize("family", CATEGORIES)
    def test_family_covariances(self, family):
        for name, c in family_matrices(family):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                inv, ref = registration._inv3x3(c), stacked_inv3x3(c)
            assert inv.tobytes() == ref.tobytes(), name
            assert inv.flags.c_contiguous
            assert_inv_close(c, inv)

    @FUZZ
    @given(c=symmetric_stacks)
    def test_symmetric_matrices(self, c):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv, ref = registration._inv3x3(c), stacked_inv3x3(c)
        assert inv.tobytes() == ref.tobytes()
        assert_inv_close(c, inv)


class TestCovariancePath:
    """Covariance estimation and the normal-space sample keep the stacked
    forms' bits on every family."""

    def test_neighbour_sum_order(self):
        """``mean(axis=1)`` of an (N, k, 3) stack and ``add.reduce`` over the
        first axis of its (k, N, 3) transpose both add the k neighbours in
        order, on values where the order shows."""
        rng = np.random.default_rng(3)
        k = GicpParams.k_neighbors
        x = rng.choice([1e16, -1e16, 1.0, 3.0, -0.5, 1e-3], size=(500, k, 3)) * rng.uniform(0.5, 2.0, (500, k, 3))
        total = x[:, 0].copy()
        for j in range(1, k):
            total = total + x[:, j]
        backwards = x[:, -1].copy()
        for j in range(k - 2, -1, -1):
            backwards = backwards + x[:, j]
        assert np.any(total != backwards)  # the order matters on these values
        assert x.mean(axis=1).tobytes() == (total / k).tobytes()
        assert np.add.reduce(np.ascontiguousarray(x.transpose(1, 0, 2)), axis=0).tobytes() == total.tobytes()

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_estimate_covariances(self, family):
        for cloud in kernel_clouds(family):
            for k in (3, GicpParams.k_neighbors):
                assert covariances(cloud, k).tobytes() == stacked_covariances(cloud, k).tobytes()

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_normal_space_sample(self, family, monkeypatch):
        covs = [stacked_covariances(cloud) for cloud in kernel_clouds(family)]
        got = [normal_space_sample(cov, GicpParams.k_neighbors) for cov in covs]
        monkeypatch.setattr(registration, "_eigh3x3", stacked_eigh3x3)
        want = [normal_space_sample(cov, GicpParams.k_neighbors) for cov in covs]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_registration(self, family, monkeypatch):
        """Registration with the kernels gives the results it gives with the
        stacked forms."""
        tests = [test for kind in ("seen", "unseen") for _, test in step_stop_scenes(family, kind)]
        demo, _, _ = family_demo(family)
        got = [estimate_delta(demo, test).to_dict() for test in tests]
        monkeypatch.setattr(registration, "_eigh3x3", stacked_eigh3x3)
        monkeypatch.setattr(registration, "_inv3x3", stacked_inv3x3)
        monkeypatch.setattr(registration, "estimate_covariances", stacked_covariances)
        demo, _, _ = family_demo(family)  # a fresh demo, not yet prepared
        assert got == [estimate_delta(demo, test).to_dict() for test in tests]


def pose_bits(pose):
    return pose.rotation.tobytes() + pose.translation.tobytes()


class TestSharedTree:
    """One KD tree and one set of covariances of the test cloud, built by
    prepare_test_cloud and read by the sweep and GICP, give each stage the
    bits of a test side built afresh, use after use."""

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_each_stage(self, family):
        demo_cloud, occluded = kernel_clouds(family)
        pairs = [(demo_cloud, occluded)] + [
            pair for kind in ("seen", "unseen") for pair in step_stop_scenes(family, kind)
        ]
        for demo_cloud, test_cloud in pairs:
            test = prepare_test_cloud(test_cloud)
            fresh = PreparedCloud(test_cloud, cKDTree(test_cloud.points), own_covariances(test_cloud))
            assert test.covariances.tobytes() == fresh.covariances.tobytes()
            cov = own_covariances(demo_cloud)
            init = coarse_align(demo_cloud, fresh)
            want = generalized_icp(demo_cloud, fresh, init, cov).to_dict()
            # the prepared side is left as it was built: a second use gives the same bits
            for _ in range(2):
                assert pose_bits(coarse_align(demo_cloud, test)) == pose_bits(init)
                assert generalized_icp(demo_cloud, test, init, cov).to_dict() == want

    def test_one_tree_per_test_cloud(self, monkeypatch):
        built = []

        class CountingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(np.array(data))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(registration, "cKDTree", CountingTree)
        demo, task, instance = family_demo("kettle")
        for seed in (2, 3):
            built.clear()
            cloud = _observed_cloud(randomize_scene(task, instance, "controlled", seed))
            estimate_delta(demo, cloud)
            on_test = [b for b in built if b.shape == cloud.points.shape and np.array_equal(b, cloud.points)]
            assert len(on_test) == 1
            # besides it, the demo's tree at its first registration and GICP's
            # tree of the moved demo subset for its fitness
            assert len(built) == (3 if seed == 2 else 2)


@st.composite
def clouds(draw):
    """Tiny, collinear, planar, coincident or general clouds at any scale."""
    n = draw(st.integers(1, 30))
    unit = arrays(np.float64, (n, 3), elements=st.floats(-1.0, 1.0))
    pts = draw(unit)
    shape = draw(st.sampled_from(["general", "collinear", "planar", "coincident"]))
    if shape == "collinear":
        pts = pts[:, :1] * draw(arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)))
    elif shape == "planar":
        pts[:, 2] = 0.0
    elif shape == "coincident":
        pts = np.repeat(pts[:1], n, axis=0)
    scale = draw(st.sampled_from([1e-300, 1e-6, 0.01, 0.1, 1.0, 1e3, MAX_COORDINATE, 1e160, 1e300]))
    return PointCloud(pts * scale)


poses = st.builds(
    lambda yaw, t: Pose.from_yaw(yaw, t),
    st.floats(-math.pi, math.pi),
    arrays(np.float64, 3, elements=st.floats(-0.1, 0.1)),
)


class TestDegenerateInput:
    """Every cloud pair gives a RegistrationResult or a TrajTransferError."""

    @staticmethod
    def check(run):
        try:
            res = run()
        except TrajTransferError:
            return
        assert isinstance(res, RegistrationResult)
        d = res.to_dict()
        assert np.all(np.isfinite(d["delta"])) and math.isfinite(d["inlier_rmse"])
        assert 0.0 <= d["fitness"] <= 1.0

    @FUZZ
    @given(demo=clouds(), test=clouds(), init=poses, shift=st.sampled_from([0.0, 0.01, 0.5, 1e3]))
    def test_generalized_icp(self, demo, test, init, shift):
        test = PointCloud(test.points + shift)  # shift > 0.1: nothing within the radius
        self.check(lambda: gicp(demo, test, init))

    @FUZZ
    @given(demo=clouds(), test=clouds())
    def test_estimate_delta(self, demo, test):
        self.check(lambda: estimate_delta(StandIn(demo), test))

    def test_nothing_within_the_radius(self):
        c = mug_cloud()
        far = PointCloud(c.points + [1.0, 0.0, 0.0])
        with pytest.raises(NoCorrespondences):
            gicp(c, far, Pose.identity())

    @pytest.mark.parametrize("where", ["demo", "test"])
    def test_coordinates_beyond_the_limit(self, where):
        c = mug_cloud()
        big = PointCloud(c.points * 1e200)
        if where == "demo":
            with pytest.raises(OutOfRange):
                coarse_align(big, prepare_test_cloud(c))
            with pytest.raises(OutOfRange):
                generalized_icp(big, prepare_test_cloud(c), Pose.identity(), covariances(c))
            with pytest.raises(OutOfRange):
                prepare_demo_cloud(big)
        else:
            with pytest.raises(OutOfRange):
                prepare_test_cloud(big)
        with pytest.raises(OutOfRange):
            covariances(big)
        demo, test = (big, c) if where == "demo" else (c, big)
        with pytest.raises(OutOfRange):
            estimate_delta(StandIn(demo), test)


def no_points(cloud):
    return PointCloud(np.zeros((0, 3)))


def scaled(cloud):
    return PointCloud(cloud.points * 1e7)


def first(n):
    return lambda cloud: PointCloud(cloud.points[:n])


def same(cloud):
    return cloud


EMPTY = (EmptyCloud, "coarse alignment requires non-empty clouds")
RANGE = (OutOfRange, "cloud coordinates exceed 1e+06 m")


class TestErrorOrder:
    """estimate_delta checks both clouds before it prepares either side: an
    empty cloud raises EmptyCloud whatever the other holds, then a cloud
    beyond MAX_COORDINATE OutOfRange, then a too small one TooFewPoints."""

    @pytest.mark.parametrize(
        "demo_of,test_of,error",
        [
            (no_points, same, EMPTY),
            (same, no_points, EMPTY),
            (same, first(1), (TooFewPoints, "a planar covariance needs >= 3 neighbours, got k=1")),
            (first(2), same, (TooFewPoints, "a planar covariance needs >= 3 neighbours, got k=2")),
            (scaled, same, RANGE),
            (same, scaled, RANGE),
            (no_points, scaled, EMPTY),
            (scaled, no_points, EMPTY),
            (first(2), scaled, RANGE),
            (scaled, first(1), RANGE),
        ],
        ids=[
            "empty demo", "empty test", "1-point test", "2-point demo", "scaled demo", "scaled test",
            "empty demo, scaled test", "scaled demo, empty test", "2-point demo, scaled test",
            "scaled demo, 1-point test",
        ],
    )
    def test_estimate_delta(self, demo_of, test_of, error):
        def on_table(seed):  # where the robot sees it, so x 1e7 is out of range
            return PointCloud(mug_cloud(seed=seed).points + [0.4, 0.2, 0.0])

        demo = StandIn(demo_of(on_table(0)))
        with pytest.raises(TrajTransferError) as raised:
            estimate_delta(demo, test_of(on_table(1)))
        assert (type(raised.value), str(raised.value)) == error
