"""Soft occupancy-grid descriptors over the robot-frame workspace.

A point cloud is splatted into a voxel grid with trilinear weights and the
flattened grid, normalized to unit length, serves as a joint pose+geometry
descriptor.  Descriptors are compared by cosine similarity.  The grid is
constant (``ORIGIN``, ``EXTENT``, ``RESOLUTION``), so every embedding has
``SIZE`` entries; ``GRID`` is its record in an archive's ``dataset.json``.

One splat pass covers all eight voxel corners: weights ``(wx * wy) * wz``,
summed by one ``np.bincount`` from +0.0 in corner-major, point-minor order,
the order of eight per-corner ``np.add.at`` passes, so the bits are theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCloud, OutOfWorkspace
from .se3 import PointCloud, handed_over

# the 80x45 cm task space plus 40 cm of height, ~2.5 cm voxels
ORIGIN = (0.0, 0.0, 0.0)
EXTENT = (0.80, 0.45, 0.40)
RESOLUTION = (32, 24, 16)
SIZE = RESOLUTION[0] * RESOLUTION[1] * RESOLUTION[2]
VOXEL_SIZE = np.array(EXTENT) / np.array(RESOLUTION)
VOXEL_SIZE.setflags(write=False)
GRID = {"origin": list(ORIGIN), "extent": list(EXTENT), "resolution": list(RESOLUTION)}


@dataclass(frozen=True)
class GeometryEmbedding:
    values: np.ndarray
    # Euclidean norm of the values, computed once when built (neither compared nor printed)
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.values
        if not handed_over(v, 1):  # a caller's array, or a view: copied
            v = np.array(v, dtype=np.float64).reshape(-1)
        if v.shape[0] != SIZE:
            raise ValueError("embedding length does not match grid size")
        if not float(v.min()) >= 0.0:  # NaN if any value is NaN
            raise ValueError("embedding entries must be finite and non-negative")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))  # inf if any value is inf
        if norm == 0.0:  # all zero, or every square underflows: the cosine is undefined
            raise ValueError("the embedding is all zero, or its norm underflows to 0")
        if norm == np.inf:
            raise ValueError("embedding entries must be finite, and their norm overflows")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "norm", norm)

    def __eq__(self, other):
        if not isinstance(other, GeometryEmbedding):
            return NotImplemented
        return np.array_equal(self.values, other.values)


def occupancy_embedding(cloud: PointCloud) -> GeometryEmbedding:
    """Splat a robot-frame cloud into the grid and normalize to unit norm.

    Trilinear weights keep the similarity continuous in object pose.
    Out-of-bounds points contribute nothing; a cloud entirely out of bounds
    raises OutOfWorkspace.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot embed an empty cloud")
    origin, extent, res = np.array(ORIGIN), np.array(EXTENT), np.array(RESOLUTION)
    # voxel centres at origin + (i + 0.5) * voxel_size; the clip (no overflow) moves no point touching a voxel
    u = ((np.clip(cloud.points, origin - extent, origin + 2.0 * extent) - origin) / VOXEL_SIZE - 0.5).T
    u = u.compress(np.all((u >= -1.0) & (u < res[:, None]), axis=0), axis=1)  # (3, M): points touching a voxel
    base = np.floor(u)
    frac = u - base
    idx = base.astype(np.int64) + np.array([0, 1])[:, None, None]  # (2, 3, M): low, high neighbour
    w = _corners(np.stack([1.0 - frac, frac]), np.multiply)
    ok = _corners((idx >= 0) & (idx < res[:, None]), np.logical_and)
    flat = _corners(idx * np.array([res[1] * res[2], res[2], 1])[:, None], np.add)
    acc = np.bincount(flat[ok], weights=w[ok], minlength=SIZE)
    n = np.linalg.norm(acc)
    if n == 0.0:
        raise OutOfWorkspace("cloud lies entirely outside the embedding grid")
    values = acc / n
    values.setflags(write=False)  # GeometryEmbedding keeps it as it is
    return GeometryEmbedding(values)


def _corners(a: np.ndarray, op) -> np.ndarray:
    """(2, 3, M) low/high rows per axis -> op(op(x, y), z) at corners 4 dx + 2 dy + dz, corner-major."""
    return op(op(a[:, 0, None, None], a[:, 1, None]), a[:, 2]).reshape(-1)


def cosine_similarity(a: GeometryEmbedding, b: GeometryEmbedding) -> float:
    return min(float(a.values @ b.values / (a.norm * b.norm)), 1.0)  # rounding can land above 1
