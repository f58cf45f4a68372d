"""Occupancy-grid descriptor: splatting, cosine similarity, pose sensitivity."""

import numpy as np
import pytest

from trajtransfer.embedding import (
    GeometryEmbedding,
    GridSpec,
    cosine_similarity,
    occupancy_embedding,
)
from trajtransfer.errors import EmptyCloud, GridMismatch, OutOfWorkspace, ZeroEmbedding
from trajtransfer.se3 import EE_FRAME, PointCloud


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
