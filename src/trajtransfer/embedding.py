"""Soft occupancy-grid descriptors over the robot-frame workspace.

A point cloud is splatted into a voxel grid with trilinear weights and the
flattened grid, normalized to unit length, serves as a joint pose+geometry
descriptor.  Descriptors are compared by cosine similarity.

One splat pass covers all eight voxel corners: weights ``(wx * wy) * wz``,
summed by one ``np.bincount`` from +0.0 in corner-major, point-minor order,
the order of eight per-corner ``np.add.at`` passes, so the bits are theirs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCloud, GridMismatch, OutOfWorkspace
from .se3 import PointCloud

# Default grid: the 80x45 cm task space plus 40 cm of height, ~2.5 cm voxels.
DEFAULT_ORIGIN = (0.0, 0.0, 0.0)
DEFAULT_EXTENT = (0.80, 0.45, 0.40)
DEFAULT_RESOLUTION = (32, 24, 16)
# the most voxels a grid may have: a dense embedding of 128 MiB, and every index fits a uint32
MAX_VOXELS = 2**24


@dataclass(frozen=True)
class GridSpec:
    origin: tuple = DEFAULT_ORIGIN
    extent: tuple = DEFAULT_EXTENT
    resolution: tuple = DEFAULT_RESOLUTION

    def __post_init__(self):
        # a value of another kind (a string, a bool, a fractional resolution) is refused, not converted
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (*self.origin, *self.extent)):
            raise ValueError("grid origin and extent values must be real numbers")
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in self.resolution):
            raise ValueError("grid resolution values must be integers")
        origin = tuple(float(v) for v in self.origin)
        extent = tuple(float(v) for v in self.extent)
        resolution = tuple(int(v) for v in self.resolution)
        if len(origin) != 3 or len(extent) != 3 or len(resolution) != 3:
            raise ValueError("GridSpec fields must have length 3")
        if not np.all(np.isfinite(origin + extent)):
            raise ValueError("grid origin and extent must be finite")
        if any(e <= 0 for e in extent):
            raise ValueError("grid extent must be strictly positive")
        if any(r < 2 for r in resolution):
            raise ValueError("grid resolution must be >= 2 per axis")
        if math.prod(resolution) > MAX_VOXELS:
            raise ValueError(f"grid resolution {list(resolution)} has more than {MAX_VOXELS} voxels")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "resolution", resolution)

    @property
    def voxel_size(self) -> np.ndarray:
        return np.array(self.extent) / np.array(self.resolution)

    @property
    def size(self) -> int:
        nx, ny, nz = self.resolution
        return nx * ny * nz

    def to_dict(self) -> dict:
        return {name: list(value) for name, value in vars(self).items()}

    @staticmethod
    def from_dict(d: dict) -> "GridSpec":
        return GridSpec(tuple(d["origin"]), tuple(d["extent"]), tuple(d["resolution"]))


@dataclass(frozen=True)
class GeometryEmbedding:
    values: np.ndarray
    grid: GridSpec
    # Euclidean norm of the values, computed once when built (neither compared nor printed)
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if v.shape[0] != self.grid.size:
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
        return self.grid == other.grid and np.array_equal(self.values, other.values)


def occupancy_embedding(cloud: PointCloud, grid: GridSpec = GridSpec()) -> GeometryEmbedding:
    """Splat a robot-frame cloud into the grid and normalize to unit norm.

    Trilinear weights keep the similarity continuous in object pose.
    Out-of-bounds points contribute nothing; a cloud entirely out of bounds
    raises OutOfWorkspace.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot embed an empty cloud")
    origin, extent, res = np.array(grid.origin), np.array(grid.extent), np.array(grid.resolution)
    # voxel centres at origin + (i + 0.5) * voxel_size; the clip (no overflow) moves no point touching a voxel
    u = ((np.clip(cloud.points, origin - extent, origin + 2.0 * extent) - origin) / grid.voxel_size - 0.5).T
    u = u.compress(np.all((u >= -1.0) & (u < res[:, None]), axis=0), axis=1)  # (3, M): points touching a voxel
    base = np.floor(u)
    frac = u - base
    idx = base.astype(np.int64) + np.array([0, 1])[:, None, None]  # (2, 3, M): low, high neighbour
    w = _corners(np.stack([1.0 - frac, frac]), np.multiply)
    ok = _corners((idx >= 0) & (idx < res[:, None]), np.logical_and)
    flat = _corners(idx * np.array([res[1] * res[2], res[2], 1])[:, None], np.add)
    acc = np.bincount(flat[ok], weights=w[ok], minlength=grid.size)
    n = np.linalg.norm(acc)
    if n == 0.0:
        raise OutOfWorkspace("cloud lies entirely outside the embedding grid")
    return GeometryEmbedding(acc / n, grid)


def _corners(a: np.ndarray, op) -> np.ndarray:
    """(2, 3, M) low/high rows per axis -> op(op(x, y), z) at corners 4 dx + 2 dy + dz, corner-major."""
    return op(op(a[:, 0, None, None], a[:, 1, None]), a[:, 2]).reshape(-1)


def cosine_similarity(a: GeometryEmbedding, b: GeometryEmbedding) -> float:
    if a.grid != b.grid:
        raise GridMismatch("embeddings computed on different grids")
    return min(float(a.values @ b.values / (a.norm * b.norm)), 1.0)  # rounding can land above 1
