"""Occupancy-grid descriptor: splatting, cosine similarity, pose sensitivity."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajtransfer.embedding import (
    EXTENT,
    GRID,
    ORIGIN,
    RESOLUTION,
    SIZE,
    VOXEL_SIZE,
    GeometryEmbedding,
    cosine_similarity,
    occupancy_embedding,
)
from trajtransfer.errors import EmptyCloud, OutOfWorkspace
from trajtransfer.se3 import PointCloud
from trajtransfer.simbench import CATEGORIES, _observed_cloud, default_task, generate_object, randomize_scene


def blob(center, n=60, scale=0.015, seed=3):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(scale=scale, size=(n, 3)) + np.array(center))


class TestGrid:
    def test_constants(self):
        assert (ORIGIN, EXTENT, RESOLUTION) == ((0.0, 0.0, 0.0), (0.80, 0.45, 0.40), (32, 24, 16))
        assert SIZE == 12_288 and not VOXEL_SIZE.flags.writeable
        np.testing.assert_allclose(VOXEL_SIZE, [0.025, 0.01875, 0.025])
        assert GRID == {"origin": list(ORIGIN), "extent": list(EXTENT), "resolution": list(RESOLUTION)}


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

    def test_determinism(self):
        c = blob((0.33, 0.21, 0.17), n=300)
        a = occupancy_embedding(c)
        b = occupancy_embedding(c)
        assert np.array_equal(a.values, b.values)


def splat_per_corner(cloud):
    """The splat as eight per-corner ``np.add.at`` passes: the reference the
    one-pass splat must match bit for bit."""
    res = np.array(RESOLUTION)
    acc = np.zeros(RESOLUTION, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # far points: inf, nan and int casts
        u = (cloud.points - np.array(ORIGIN)) / VOXEL_SIZE - 0.5
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
    return GeometryEmbedding(flat / n)


def splat_bytes(splat, cloud):
    """The embedding's bytes, or "OutOfWorkspace"."""
    try:
        return splat(cloud).values.tobytes()
    except OutOfWorkspace:
        return "OutOfWorkspace"


@st.composite
def grid_clouds(draw):
    """1-30 points in voxel units u: anywhere from 3 voxels before the grid to
    2 past it on each axis, on voxel centres (u integer, frac == 0), or on
    voxel faces (u + 0.5 integer), which 86-93% per axis hit exactly after
    the round trip through metres; sometimes with points 1e300 m away."""
    n = draw(st.integers(1, 30))
    axes = []
    for r in RESOLUTION:
        coord = st.one_of(
            st.floats(-3.0, r + 2.0),
            st.integers(-2, r + 1).map(float),
            st.integers(-4, 2 * r + 2).map(lambda k: k / 2.0 - 0.5),
        )
        axes.append(draw(st.lists(coord, min_size=n, max_size=n)))
    u = np.array(axes).T
    points = np.array(ORIGIN) + (u + 0.5) * VOXEL_SIZE
    far = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    points[np.array(far)] *= 1e300
    return PointCloud(points)


class TestOnePassSplat:
    """occupancy_embedding returns the per-corner splat's values bit for bit,
    and raises OutOfWorkspace on the same clouds."""

    @settings(max_examples=200, deadline=None)
    @given(cloud=grid_clouds())
    def test_small_clouds(self, cloud):
        assert splat_bytes(occupancy_embedding, cloud) == splat_bytes(splat_per_corner, cloud)

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
                    assert splat_bytes(occupancy_embedding, cloud) == splat_bytes(splat_per_corner, cloud)

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
        scaled = GeometryEmbedding(3.0 * e.values)
        assert cosine_similarity(e, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_orthogonal(self):
        a = np.zeros(SIZE)
        b = np.zeros(SIZE)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine_similarity(GeometryEmbedding(a), GeometryEmbedding(b)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), other=st.integers(0, 2**32 - 1), shift=st.floats(-0.05, 0.05))
    @example(seed=0, other=1, shift=0.0)  # the unclamped cosine of this cloud with itself is 1.0000000000000002
    def test_in_unit_interval(self, seed, other, shift):
        """A cosine lies in [0, 1], and an embedding's with itself is exactly 1.0."""
        a = occupancy_embedding(blob((0.4, 0.2, 0.05), n=40, scale=0.02, seed=seed))
        b = occupancy_embedding(blob((0.4 + shift, 0.2, 0.05), n=40, scale=0.02, seed=other))
        assert cosine_similarity(a, a) == 1.0
        assert 0.0 <= cosine_similarity(a, b) <= 1.0

    def test_negative_entries_rejected(self):
        """A negative or non-finite embedding, or one whose norm is 0.0 (all
        zero, or so small that its norm underflows) or overflows, cannot be
        built, so every cosine of two embeddings is defined."""
        for value, message in (
            (-1.0, "non-negative"), (np.nan, "finite"), (np.inf, "finite"), (0.0, "all zero"), (1e-200, "norm underflows"),
            (1e300, "norm overflows"), (1e200, "norm overflows"),
        ):
            v = np.zeros(SIZE)
            v[0] = value
            with pytest.raises(ValueError, match=message):
                GeometryEmbedding(v)


class TestValues:
    """An embedding holds read-only values that no caller can write."""

    def test_writable_array_is_copied(self):
        v = occupancy_embedding(blob((0.4, 0.2, 0.1))).values.copy()
        want = v.tobytes()
        e = GeometryEmbedding(v)
        assert e.values is not v and e.values.tobytes() == want
        v[:] = 1.0  # a later write by the caller does not reach the embedding
        assert e.values.tobytes() == want and not e.values.flags.writeable

    def test_read_only_array_it_owns_is_kept(self):
        """A read-only array that owns its data, as occupancy_embedding and the
        archive reader hand over, is kept as it is; a read-only view is copied."""
        e = occupancy_embedding(blob((0.4, 0.2, 0.1)))
        assert e.values.flags.owndata and not e.values.flags.writeable
        assert GeometryEmbedding(e.values).values is e.values
        base = np.zeros(SIZE + 1)
        base[1:] = e.values
        view = base[1:]
        view.setflags(write=False)
        kept = GeometryEmbedding(view)
        assert kept.values is not view and kept.values.tobytes() == e.values.tobytes()
        base[1:] = 0.0
        assert kept.values.tobytes() == e.values.tobytes()


class TestNorm:
    def test_computed_once(self, monkeypatch):
        """The norm is np.linalg.norm of the values, computed once when the
        embedding is built; == and pickling see only the values."""
        import pickle

        values = 3.0 * occupancy_embedding(blob((0.4, 0.2, 0.1))).values
        b = occupancy_embedding(blob((0.45, 0.2, 0.1)))
        calls = []
        real_norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda v: calls.append(1) or real_norm(v))
        a = GeometryEmbedding(values)
        assert len(calls) == 1
        sims = [cosine_similarity(a, b) for _ in range(3)]
        assert len(calls) == 1 and sims[0] == sims[1] == sims[2]
        monkeypatch.undo()
        assert a.norm == real_norm(a.values) and b.norm == real_norm(b.values)
        assert a == GeometryEmbedding(values) and "norm" not in repr(a)
        back = pickle.loads(pickle.dumps(a))
        assert back == a and back.norm == a.norm
