"""Alignment and interaction policies, plus synthetic training-data generators.

Alignment: map the demonstrated first end-effector pose into the test scene by
left-multiplying with the estimated relative object pose, then follow a
straight-line path.  Interaction: replay the demonstrated relative motions
expressed in the end-effector frame, open loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demos import Demonstration, EndEffectorState, alignment_target
from .errors import InvalidSpacing, TooFewPoints, TrajectoryTooShort
from .se3 import (
    Pose,
    PointCloud,
    compose,
    interpolate,
    invert,
    pose_distance,
)

# Start-pose sampling region for synthetic alignment trajectories: a cuboid
# above the task space, with uniform random yaw.
ALIGN_CUBOID_ORIGIN = (0.25, -0.175, 0.40)
ALIGN_CUBOID_SIZE = (0.30, 0.80, 0.80)

# Waypoint perturbation bounds for alignment training pairs.
ALIGN_PERTURB_TRANS = (0.001, 0.01)  # metres
ALIGN_PERTURB_ROT = (math.radians(0.5), math.radians(5.0))


@dataclass(frozen=True)
class AlignmentPlan:
    target: Pose
    path: tuple  # Pose sequence at <= 1 cm spacing, last element == target
    source_demo: str
    delta_used: Pose


@dataclass(frozen=True)
class ReplayPlan:
    steps: tuple  # (successor pose in the predecessor's frame, gripper command) per demo step
    source_demo: str


def transfer_alignment_pose(demo: Demonstration, delta: Pose) -> Pose:
    """Demonstrated first pose mapped into the test scene (left-multiply)."""
    return compose(delta, alignment_target(demo))


def plan_linear_path(start: Pose, target: Pose, spacing: float = 0.01):
    """Straight-line pose path with translation steps <= spacing, endpoints exact."""
    if spacing <= 0:
        raise InvalidSpacing(f"spacing must be positive, got {spacing}")
    dist, ang = pose_distance(start, target)
    if dist == 0.0 and ang == 0.0:
        return [start]
    n = max(1, int(math.ceil(dist / spacing - 1e-12)))
    return [interpolate(start, target, k / n) for k in range(n + 1)]


def plan_alignment(demo: Demonstration, delta: Pose, start: Pose, spacing: float = 0.01) -> AlignmentPlan:
    target = transfer_alignment_pose(demo, delta)
    return AlignmentPlan(
        target=target,
        path=tuple(plan_linear_path(start, target, spacing)),
        source_demo=demo.id,
        delta_used=delta,
    )


def build_replay_plan(demo: Demonstration) -> ReplayPlan:
    if len(demo.trajectory) < 2:
        raise TrajectoryTooShort("replay needs a trajectory of length >= 2")
    steps = []
    for a, b in zip(demo.trajectory[:-1], demo.trajectory[1:]):
        steps.append((compose(invert(a.pose), b.pose), b.gripper))
    return ReplayPlan(steps=tuple(steps), source_demo=demo.id)


def execute_replay(plan: ReplayPlan, start: Pose, start_gripper: int = 0):
    """Open-loop replay: chain the stored relative motions from ``start``."""
    out = [EndEffectorState(start, start_gripper, 0)]
    pose = start
    for i, (motion, gripper) in enumerate(plan.steps):
        pose = compose(pose, motion)
        out.append(EndEffectorState(pose, gripper, i + 1))
    return out


@dataclass(frozen=True)
class AlignmentTrajectorySet:
    trajectories: tuple  # tuple of Pose sequences, each ending at the target
    perturbed: tuple  # per trajectory: tuple of poses near the target, one per waypoint
    target: Pose


def _random_unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def _perturbed_pose(target: Pose, rng) -> Pose:
    dt = rng.uniform(*ALIGN_PERTURB_TRANS) * _random_unit_vector(rng)
    ang = rng.uniform(*ALIGN_PERTURB_ROT)
    axis = _random_unit_vector(rng)
    dq = Pose.from_axis_angle(axis, ang).rotation
    from .se3 import _quat_mul  # local import to keep the public surface small

    return Pose(_quat_mul(dq, target.rotation), target.translation + dt)


def simulate_alignment_trajectories(
    demo: Demonstration,
    count: int = 1000,
    rng_seed: int = 0,
    spacing: float = 0.01,
    cuboid_origin=ALIGN_CUBOID_ORIGIN,
    cuboid_size=ALIGN_CUBOID_SIZE,
) -> AlignmentTrajectorySet:
    """Linear approach trajectories from random start poses in the cuboid.

    Each trajectory ends exactly at the demo's alignment target.  For every
    waypoint one extra pose is generated by perturbing the target within the
    configured translation/rotation bounds.  Per-trajectory RNG streams are
    derived from (rng_seed, index) so generation parallelizes deterministically.
    """
    target = alignment_target(demo)
    origin = np.asarray(cuboid_origin, dtype=np.float64)
    size = np.asarray(cuboid_size, dtype=np.float64)
    trajectories = []
    perturbed = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, i]))
        pos = origin + rng.uniform(size=3) * size
        yaw = rng.uniform(-math.pi, math.pi)
        start = Pose.from_yaw(yaw, pos)
        path = plan_linear_path(start, target, spacing)
        trajectories.append(tuple(path))
        perturbed.append(tuple(_perturbed_pose(target, rng) for _ in path))
    return AlignmentTrajectorySet(tuple(trajectories), tuple(perturbed), target)


def farthest_point_seeds(points: np.ndarray, count: int, rng) -> np.ndarray:
    """Indices of ``count`` farthest-point-sampled seeds (first seed random)."""
    n = points.shape[0]
    seeds = [int(rng.integers(n))]
    dist = np.linalg.norm(points - points[seeds[0]], axis=1)
    for _ in range(count - 1):
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(seeds)


def cluster_partition(cloud: PointCloud, clusters: int, rng_seed: int):
    """(labels, seed indices): nearest-seed assignment over FPS seeds."""
    n = len(cloud)
    if n < clusters:
        raise TooFewPoints(f"need >= {clusters} points, cloud has {n}")
    rng = np.random.default_rng(rng_seed)
    seeds = farthest_point_seeds(cloud.points, clusters, rng)
    d = np.linalg.norm(cloud.points[:, None, :] - cloud.points[seeds][None, :, :], axis=2)
    return np.argmin(d, axis=1), seeds


def mask_augment(cloud: PointCloud, clusters: int = 10, masked: int = 4, rng_seed: int = 0) -> PointCloud:
    """Drop the points of ``masked`` randomly chosen FPS clusters."""
    labels, _ = cluster_partition(cloud, clusters, rng_seed)
    if masked == 0:
        return cloud
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 1]))
    dropped = rng.choice(clusters, size=masked, replace=False)
    keep = ~np.isin(labels, dropped)
    return PointCloud(cloud.points[keep], frame=cloud.frame)


def jitter_cloud(cloud: PointCloud, sigma: float, rng_seed: int = 0) -> PointCloud:
    """Independent zero-mean Gaussian offset per coordinate; sigma=0 is identity."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return cloud
    rng = np.random.default_rng(rng_seed)
    return PointCloud(cloud.points + rng.normal(scale=sigma, size=cloud.points.shape), frame=cloud.frame)
