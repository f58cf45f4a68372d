"""Soft occupancy-grid descriptors over the robot-frame workspace.

A point cloud is splatted into a voxel grid with trilinear weights and the
flattened grid, normalized to unit length, serves as a joint pose+geometry
descriptor.  Descriptors are compared by cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCloud, GridMismatch, OutOfWorkspace, ZeroEmbedding
from .se3 import ROBOT_FRAME, PointCloud

# Default grid: the 80x45 cm task space plus 40 cm of height, ~2.5 cm voxels.
DEFAULT_ORIGIN = (0.0, 0.0, 0.0)
DEFAULT_EXTENT = (0.80, 0.45, 0.40)
DEFAULT_RESOLUTION = (32, 24, 16)


@dataclass(frozen=True)
class GridSpec:
    origin: tuple = DEFAULT_ORIGIN
    extent: tuple = DEFAULT_EXTENT
    resolution: tuple = DEFAULT_RESOLUTION

    def __post_init__(self):
        origin = tuple(float(v) for v in self.origin)
        extent = tuple(float(v) for v in self.extent)
        resolution = tuple(int(v) for v in self.resolution)
        if len(origin) != 3 or len(extent) != 3 or len(resolution) != 3:
            raise ValueError("GridSpec fields must have length 3")
        if any(e <= 0 for e in extent):
            raise ValueError("grid extent must be strictly positive")
        if any(r < 2 for r in resolution):
            raise ValueError("grid resolution must be >= 2 per axis")
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
        return {
            "origin": list(self.origin),
            "extent": list(self.extent),
            "resolution": list(self.resolution),
        }

    @staticmethod
    def from_dict(d: dict) -> "GridSpec":
        return GridSpec(tuple(d["origin"]), tuple(d["extent"]), tuple(d["resolution"]))


@dataclass(frozen=True)
class GeometryEmbedding:
    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if v.shape[0] != self.grid.size:
            raise ValueError("embedding length does not match grid size")
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ValueError("embedding entries must be finite and non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def occupancy_embedding(cloud: PointCloud, grid: GridSpec = GridSpec()) -> GeometryEmbedding:
    """Splat a robot-frame cloud into the grid and normalize to unit norm.

    Trilinear weights keep the similarity continuous in object pose.
    Out-of-bounds points contribute nothing; a cloud entirely out of bounds
    raises OutOfWorkspace.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot embed an empty cloud")
    if cloud.frame != ROBOT_FRAME:
        raise ValueError(f"embedding requires a robot-frame cloud, got {cloud.frame!r}")
    res = np.array(grid.resolution)
    acc = np.zeros(grid.resolution, dtype=np.float64)
    # voxel centers sit at origin + (i + 0.5) * voxel_size
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


def cosine_similarity(a: GeometryEmbedding, b: GeometryEmbedding) -> float:
    if a.grid != b.grid:
        raise GridMismatch("embeddings computed on different grids")
    na, nb = a.norm, b.norm
    if na == 0.0 or nb == 0.0:
        raise ZeroEmbedding("cosine undefined for a zero embedding")
    return float(a.values @ b.values / (na * nb))
