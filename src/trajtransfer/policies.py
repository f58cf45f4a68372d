"""Alignment and interaction policies, plus synthetic training-data generators.

Alignment: map the demonstrated first end-effector pose into the test scene by
left-multiplying with the estimated relative object pose; straight-line paths
to it are the generated alignment data.  Interaction: replay the demonstrated
relative motions expressed in the end-effector frame, open loop.
"""

from __future__ import annotations

import math

import numpy as np

from .demos import DEFAULT_SPACING, Demonstration, EndEffectorState, alignment_target
from .errors import OutOfRange, TooFewPoints
from .se3 import Pose, PointCloud, compose, interpolate, pose_distance

# Start-pose sampling region for synthetic alignment trajectories: a cuboid
# above the task space, with uniform random yaw.
ALIGN_CUBOID_ORIGIN = (0.25, -0.175, 0.40)
ALIGN_CUBOID_SIZE = (0.30, 0.80, 0.80)

OCCLUSION_CLUSTERS = 10  # farthest-point clusters of a cloud; an occlusion masks some


def transfer_alignment_pose(demo: Demonstration, delta: Pose) -> Pose:
    """Demonstrated first pose mapped into the test scene (left-multiply)."""
    return compose(delta, alignment_target(demo))


def plan_linear_path(start: Pose, target: Pose):
    """Straight-line pose path with translation steps <= DEFAULT_SPACING, endpoints exact."""
    dist, ang = pose_distance(start, target)
    if dist == 0.0 and ang == 0.0:
        return [start]
    n = max(1, int(math.ceil(dist / DEFAULT_SPACING - 1e-12)))
    return [interpolate(start, target, k / n) for k in range(n + 1)]


def execute_replay(plan: tuple, start: Pose, start_gripper: int = 0):
    """Open-loop replay: chain the relative motions of ``plan``, a
    ``Demonstration.replay_plan``, from ``start``."""
    out = [EndEffectorState(start, start_gripper, 0)]
    pose = start
    for i, (motion, gripper) in enumerate(plan):
        pose = compose(pose, motion)
        out.append(EndEffectorState(pose, gripper, i + 1))
    return out


def simulate_alignment_trajectories(
    demo: Demonstration,
    count: int = 1000,
    rng_seed: int = 0,
) -> tuple:
    """Linear approach paths (tuples of poses) from random start poses in the cuboid.

    Each path ends exactly at the demo's alignment target.  Per-trajectory RNG
    streams are derived from (rng_seed, index) so generation parallelizes
    deterministically.
    """
    if rng_seed < 0:
        raise OutOfRange(f"seed must be non-negative, got {rng_seed}")
    target = alignment_target(demo)
    origin = np.asarray(ALIGN_CUBOID_ORIGIN, dtype=np.float64)
    size = np.asarray(ALIGN_CUBOID_SIZE, dtype=np.float64)
    trajectories = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, i]))
        pos = origin + rng.uniform(size=3) * size
        yaw = rng.uniform(-math.pi, math.pi)
        start = Pose.from_yaw(yaw, pos)
        path = plan_linear_path(start, target)
        trajectories.append(tuple(path))
    return tuple(trajectories)


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


def cluster_partition(cloud: PointCloud, rng_seed: int):
    """(labels, seed indices): nearest-seed assignment over OCCLUSION_CLUSTERS FPS seeds."""
    n = len(cloud)
    if n < OCCLUSION_CLUSTERS:
        raise TooFewPoints(f"need >= {OCCLUSION_CLUSTERS} points, cloud has {n}")
    rng = np.random.default_rng(rng_seed)
    seeds = farthest_point_seeds(cloud.points, OCCLUSION_CLUSTERS, rng)
    d = np.linalg.norm(cloud.points[:, None, :] - cloud.points[seeds][None, :, :], axis=2)
    return np.argmin(d, axis=1), seeds


def mask_augment(cloud: PointCloud, masked: int = 4, rng_seed: int = 0) -> PointCloud:
    """Drop the points of ``masked`` randomly chosen FPS clusters; ``cloud``
    itself if ``masked`` is 0."""
    if masked == 0:
        return cloud
    labels, _ = cluster_partition(cloud, rng_seed)
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 1]))
    dropped = rng.choice(OCCLUSION_CLUSTERS, size=masked, replace=False)
    keep = ~np.isin(labels, dropped)
    return PointCloud(cloud.points[keep])


def jitter_cloud(cloud: PointCloud, sigma: float, rng_seed: int = 0) -> PointCloud:
    """Independent zero-mean Gaussian offset per coordinate; sigma=0 is identity."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return cloud
    rng = np.random.default_rng(rng_seed)
    return PointCloud(cloud.points + rng.normal(scale=sigma, size=cloud.points.shape))
