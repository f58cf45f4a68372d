"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest

from trajtransfer.se3 import Pose
from trajtransfer.simbench import _replay


def random_pose(rng, trans_scale: float = 1.0) -> Pose:
    """Uniformly random rotation (normalized Gaussian quaternion) + translation."""
    q = rng.normal(size=4)
    t = rng.uniform(-trans_scale, trans_scale, size=3)
    return Pose(q, t)


def random_yaw_pose(rng, yaw_range: float = math.pi, trans_scale: float = 0.3) -> Pose:
    yaw = rng.uniform(-yaw_range, yaw_range)
    t = rng.uniform(-trans_scale, trans_scale, size=3)
    return Pose.from_yaw(yaw, t)


def gt_delta_success(bench, task, result) -> bool:
    """Whether replaying the retrieved demo under ``result.gt_delta`` (the true
    object motion) meets the task's thresholds: the upper bound on what
    registration can reach.  False wherever ``result`` failed before replaying
    (no demo retrieved, or registration raised)."""
    if result.registration is None:
        return False
    demo = bench.dataset.demos[result.retrieval.demo_id]
    return _replay(task, demo, result.gt_delta, result.scene, bench.demo_meta[demo.id])[1]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
