"""Rigid-body poses and point clouds.

Poses hold a unit quaternion (w, x, y, z) with canonical sign (w >= 0) and a
translation in metres.  All operations are pure; values are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCloud, OutOfRange

ROBOT_FRAME = "robot"
EE_FRAME = "end_effector"


def _canonicalize(q: np.ndarray) -> np.ndarray:
    """Normalize a quaternion and fix its sign deterministically."""
    q = np.asarray(q, dtype=np.float64)
    n = math.sqrt(float(q @ q))
    if not 0.0 < n < math.inf:
        raise ValueError("zero or non-finite quaternion")
    q = q / n
    # canonical sign: w >= 0; for w == 0 make the first nonzero entry positive
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:
        for v in q[1:]:
            if v != 0.0:
                if v < 0.0:
                    q = -q
                break
    return q


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Python floats: the same IEEE operations as on numpy scalars, faster
    aw, ax, ay, az = a.tolist()
    bw, bx, by, bz = b.tolist()
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def _quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q.tolist()  # Python floats, as in _quat_mul
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation as unit quaternion (w,x,y,z), translation in metres."""

    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = _canonicalize(self.rotation)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite translation")
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return np.array_equal(self.rotation, other.rotation) and np.array_equal(
            self.translation, other.translation
        )

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_axis_angle(axis, angle: float, translation=(0.0, 0.0, 0.0)) -> "Pose":
        axis = np.asarray(axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n == 0.0:
            q = np.array([1.0, 0.0, 0.0, 0.0])
        else:
            axis = axis / n
            half = 0.5 * angle
            q = np.concatenate([[math.cos(half)], math.sin(half) * axis])
        return Pose(q, np.asarray(translation, dtype=np.float64))

    @staticmethod
    def from_yaw(yaw: float, translation=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose.from_axis_angle((0.0, 0.0, 1.0), yaw, translation)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = _quat_to_matrix(self.rotation)
        m[:3, 3] = self.translation
        return m

    def rotation_matrix(self) -> np.ndarray:
        return _quat_to_matrix(self.rotation)

    def apply(self, point: np.ndarray) -> np.ndarray:
        return _quat_to_matrix(self.rotation) @ np.asarray(point, dtype=np.float64) + self.translation

    def as_row(self) -> list:
        """[tx, ty, tz, qw, qx, qy, qz] -- the normative serialization order."""
        t, q = self.translation, self.rotation
        return [t[0], t[1], t[2], q[0], q[1], q[2], q[3]]

    @staticmethod
    def from_row(row) -> "Pose":
        row = list(row)
        return Pose(np.array(row[3:7]), np.array(row[0:3]))


@dataclass(frozen=True)
class PointCloud:
    """Points (N,3) in metres, tagged with the frame they are expressed in."""

    points: np.ndarray
    frame: str = ROBOT_FRAME

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64).reshape(-1, 3).copy()
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite point coordinates")
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self.frame == other.frame and np.array_equal(self.points, other.points)


def compose(a: Pose, b: Pose) -> Pose:
    """Return a then b applied in a's frame (a * b)."""
    q = _quat_mul(a.rotation, b.rotation)
    t = a.apply(b.translation)
    return Pose(q, t)


def invert(a: Pose) -> Pose:
    q = _quat_conj(a.rotation)
    t = -(_quat_to_matrix(q) @ a.translation)
    return Pose(q, t)


def transform_cloud(T: Pose, c: PointCloud) -> PointCloud:
    if len(c) == 0:
        raise EmptyCloud("cannot transform an empty cloud")
    R = T.rotation_matrix()
    return PointCloud(c.points @ R.T + T.translation, frame=c.frame)


def rotation_angle(q: np.ndarray) -> float:
    """Geodesic angle of a quaternion, in [0, pi]."""
    vec = math.sqrt(float(q[1] ** 2 + q[2] ** 2 + q[3] ** 2))
    return 2.0 * math.atan2(vec, abs(float(q[0])))


def pose_distance(a: Pose, b: Pose) -> tuple[float, float]:
    """(translation distance in metres, rotation angle in radians)."""
    dt = float(np.linalg.norm(a.translation - b.translation))
    dq = _quat_mul(_quat_conj(a.rotation), b.rotation)
    return dt, rotation_angle(dq)


def interpolate(a: Pose, b: Pose, s: float) -> Pose:
    """Blend from a (s=0) to b (s=1): linear translation, shortest-arc rotation.

    Endpoints are returned exactly.  The rotation blend is a normalized linear
    blend with sign correction; exact slerp is unnecessary at the small per-step
    angles used here.
    """
    if not (0.0 <= s <= 1.0):
        raise OutOfRange(f"interpolation fraction {s} outside [0, 1]")
    if s == 0.0:
        return a
    if s == 1.0:
        return b
    t = (1.0 - s) * a.translation + s * b.translation
    qb = b.rotation if float(a.rotation @ b.rotation) >= 0.0 else -b.rotation
    q = (1.0 - s) * a.rotation + s * qb
    return Pose(q, t)
