"""Occupancy-grid descriptor: splatting, cosine similarity, pose sensitivity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajtransfer.embedding import (
    GeometryEmbedding,
    GridSpec,
    cosine_similarity,
    occupancy_embedding,
)
from trajtransfer.errors import EmptyCloud, GridMismatch, OutOfWorkspace, ZeroEmbedding
from trajtransfer.se3 import EE_FRAME, PointCloud
from trajtransfer.simbench import CATEGORIES, _observed_cloud, default_task, generate_object, randomize_scene


def blob(center, n=60, scale=0.015, seed=3):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(scale=scale, size=(n, 3)) + np.array(center))


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.extent == (0.80, 0.45, 0.40)
        assert g.resolution == (32, 24, 16)
        np.testing.assert_allclose(g.voxel_size, [0.025, 0.01875, 0.025])

    def test_dict_round_trip(self):
        g = GridSpec((0.1, 0.1, 0.0), (0.5, 0.5, 0.3), (8, 8, 4))
        assert GridSpec.from_dict(g.to_dict()) == g

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(extent=(0.0, 0.4, 0.4))
        with pytest.raises(ValueError):
            GridSpec(resolution=(1, 24, 16))
        with pytest.raises(ValueError):
            GridSpec(origin=(np.nan, 0.0, 0.0))
        with pytest.raises(ValueError):
            GridSpec(extent=(np.inf, 0.4, 0.4))


class TestOccupancyEmbedding:
    def test_identical_clouds_cosine_one(self):
        c = blob((0.4, 0.2, 0.1))
        a = occupancy_embedding(c)
        b = occupancy_embedding(c)
        assert np.array_equal(a.values, b.values)
        assert cosine_similarity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm(self):
        e = occupancy_embedding(blob((0.4, 0.2, 0.1)))
        assert e.norm == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_voxels_cosine_zero(self):
        a = occupancy_embedding(blob((0.15, 0.10, 0.08)))
        b = occupancy_embedding(blob((0.65, 0.35, 0.30)))
        assert cosine_similarity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_translation_overlap_monotone(self):
        # one-voxel shift keeps much more overlap than a half-extent shift
        c = blob((0.25, 0.2, 0.1))
        base = occupancy_embedding(c)
        near = occupancy_embedding(PointCloud(c.points + np.array([0.025, 0, 0])))
        far = occupancy_embedding(PointCloud(c.points + np.array([0.40, 0, 0])))
        assert cosine_similarity(base, far) < cosine_similarity(base, near)

    def test_pose_sensitivity_non_increasing(self):
        c = blob((0.15, 0.2, 0.1), n=200)
        base = occupancy_embedding(c)
        sims = []
        for k in range(0, 20):
            shifted = PointCloud(c.points + np.array([0.025 * k, 0.0, 0.0]))
            sims.append(cosine_similarity(base, occupancy_embedding(shifted)))
        for a, b in zip(sims[:-1], sims[1:]):
            assert b <= a + 1e-9

    def test_out_of_bounds_points_ignored(self):
        inside = blob((0.4, 0.2, 0.1))
        mixed = PointCloud(np.vstack([inside.points, [[5.0, 5.0, 5.0]]]))
        a = occupancy_embedding(inside)
        b = occupancy_embedding(mixed)
        np.testing.assert_allclose(a.values, b.values, atol=1e-15)

    def test_entirely_out_of_bounds(self):
        with pytest.raises(OutOfWorkspace):
            occupancy_embedding(blob((5.0, 5.0, 5.0)))

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            occupancy_embedding(PointCloud(np.zeros((0, 3))))

    def test_requires_robot_frame(self):
        with pytest.raises(ValueError):
            occupancy_embedding(PointCloud(np.zeros((3, 3)) + 0.2, frame=EE_FRAME))

    def test_determinism(self):
        c = blob((0.33, 0.21, 0.17), n=300)
        a = occupancy_embedding(c)
        b = occupancy_embedding(c)
        assert np.array_equal(a.values, b.values)


def splat_per_corner(cloud, grid=GridSpec()):
    """The splat as eight per-corner ``np.add.at`` passes: the reference the
    one-pass splat must match bit for bit."""
    res = np.array(grid.resolution)
    acc = np.zeros(grid.resolution, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # far points: inf, nan and int casts
        u = (cloud.points - np.array(grid.origin)) / grid.voxel_size - 0.5
        base = np.floor(u).astype(np.int64)
        frac = u - base
        for corner in range(8):
            d = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
            idx = base + d
            w = np.prod(np.where(d == 1, frac, 1.0 - frac), axis=1)
            ok = np.all((idx >= 0) & (idx < res), axis=1)
            np.add.at(acc, (idx[ok, 0], idx[ok, 1], idx[ok, 2]), w[ok])
    flat = acc.reshape(-1)
    n = np.linalg.norm(flat)
    if n == 0.0:
        raise OutOfWorkspace("cloud lies entirely outside the embedding grid")
    return GeometryEmbedding(flat / n, grid)


def splat_bytes(splat, cloud, grid):
    """The embedding's bytes, or "OutOfWorkspace"."""
    try:
        return splat(cloud, grid).values.tobytes()
    except OutOfWorkspace:
        return "OutOfWorkspace"


# exact voxel sizes (powers of two) on the small grids, so that voxel centres
# (u integer, frac == 0) and voxel faces (u + 0.5 integer) are hit exactly
SPLAT_GRIDS = (
    GridSpec(),
    GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), (2, 2, 2)),
    GridSpec((-0.5, 0.25, -0.125), (1.25, 0.875, 0.375), (5, 7, 3)),
)


@st.composite
def grid_clouds(draw):
    """1-30 points in voxel units u: anywhere from 3 voxels before the grid to
    2 past it on each axis, on voxel centres, or on voxel faces; sometimes with
    points 1e300 m away."""
    grid = draw(st.sampled_from(SPLAT_GRIDS))
    n = draw(st.integers(1, 30))
    axes = []
    for r in grid.resolution:
        coord = st.one_of(
            st.floats(-3.0, r + 2.0),
            st.integers(-2, r + 1).map(float),
            st.integers(-4, 2 * r + 2).map(lambda k: k / 2.0 - 0.5),
        )
        axes.append(draw(st.lists(coord, min_size=n, max_size=n)))
    u = np.array(axes).T
    points = np.array(grid.origin) + (u + 0.5) * grid.voxel_size
    far = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    points[np.array(far)] *= 1e300
    return PointCloud(points), grid


class TestOnePassSplat:
    """occupancy_embedding returns the per-corner splat's values bit for bit,
    and raises OutOfWorkspace on the same clouds."""

    @settings(max_examples=200, deadline=None)
    @given(case=grid_clouds())
    def test_small_clouds(self, case):
        cloud, grid = case
        assert splat_bytes(occupancy_embedding, cloud, grid) == splat_bytes(splat_per_corner, cloud, grid)

    @pytest.mark.parametrize("family", CATEGORIES)
    def test_benchmark_clouds(self, family):
        task = default_task(family)
        for seed, instance_seed in enumerate((0, 1000), start=2):
            instance = generate_object(family, instance_seed)
            for mode in ("controlled", "thousand"):
                for occlusion, noise in ((0.0, 0.0), (0.4, 0.002)):
                    scene = randomize_scene(
                        task, instance, mode, seed, occlusion_fraction=occlusion, noise_sigma=noise
                    )
                    cloud = _observed_cloud(scene)
                    for grid in SPLAT_GRIDS:
                        want = splat_bytes(splat_per_corner, cloud, grid)
                        assert splat_bytes(occupancy_embedding, cloud, grid) == want

    @pytest.mark.parametrize("far", [(1e300, 0.0, 0.0), (1.7e308, -1.7e308, 0.0), (-1e-300, 1e308, -1.7e308)])
    def test_far_points_raise_no_warning(self, far):
        """Points far off the grid touch no voxel: alone they raise
        OutOfWorkspace, next to others they change no bit, and neither warns."""
        inside = blob((0.4, 0.2, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfWorkspace):
                occupancy_embedding(PointCloud(np.array([far, far])))
            mixed = occupancy_embedding(PointCloud(np.vstack([[far], inside.points, [far]])))
        assert mixed.values.tobytes() == occupancy_embedding(inside).values.tobytes()


class TestCosine:
    def test_scale_invariance(self):
        e = occupancy_embedding(blob((0.4, 0.2, 0.1)))
        scaled = GeometryEmbedding(3.0 * e.values, e.grid)
        assert cosine_similarity(e, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_orthogonal(self):
        g = GridSpec()
        a = np.zeros(g.size)
        b = np.zeros(g.size)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine_similarity(GeometryEmbedding(a, g), GeometryEmbedding(b, g)) == 0.0

    def test_grid_mismatch(self):
        a = occupancy_embedding(blob((0.4, 0.2, 0.1)))
        g2 = GridSpec(resolution=(16, 12, 8))
        b = occupancy_embedding(blob((0.4, 0.2, 0.1)), g2)
        with pytest.raises(GridMismatch):
            cosine_similarity(a, b)

    def test_zero_embedding(self):
        g = GridSpec()
        z = GeometryEmbedding(np.zeros(g.size), g)
        e = occupancy_embedding(blob((0.4, 0.2, 0.1)))
        with pytest.raises(ZeroEmbedding):
            cosine_similarity(e, z)

    def test_negative_entries_rejected(self):
        g = GridSpec()
        v = np.zeros(g.size)
        v[0] = -1.0
        with pytest.raises(ValueError):
            GeometryEmbedding(v, g)


class TestNorm:
    def test_computed_once(self, monkeypatch):
        """The norm is np.linalg.norm of the values, computed at its first read
        and kept; == and pickling see only the grid and the values."""
        import pickle

        a = GeometryEmbedding(3.0 * occupancy_embedding(blob((0.4, 0.2, 0.1))).values, GridSpec())
        b = occupancy_embedding(blob((0.45, 0.2, 0.1)))
        fresh = GeometryEmbedding(a.values, a.grid)
        calls = []
        real_norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda v: calls.append(1) or real_norm(v))
        sims = [cosine_similarity(a, b) for _ in range(3)]
        assert len(calls) == 2 and sims[0] == sims[1] == sims[2]
        monkeypatch.undo()
        assert a.norm == real_norm(a.values) and b.norm == real_norm(b.values)
        assert a == fresh and fresh == a  # one norm kept, one not yet read
        back = pickle.loads(pickle.dumps(a))
        assert back == a and back.norm == a.norm
        assert pickle.loads(pickle.dumps(fresh)) == a
