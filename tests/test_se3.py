"""Pose algebra: group axioms, distances, interpolation, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trajtransfer import se3
from trajtransfer.demos import EndEffectorState
from trajtransfer.errors import EmptyCloud, OutOfRange
from trajtransfer.se3 import (
    EE_FRAME,
    Pose,
    PointCloud,
    compose,
    interpolate,
    invert,
    pose_distance,
    rotation_angle,
    transform_cloud,
)
from trajtransfer.simbench import default_task, generate_object, randomize_scene

from conftest import random_pose

TOL = 1e-9


def assert_pose_close(a: Pose, b: Pose, tol: float = TOL):
    dt, dr = pose_distance(a, b)
    assert dt <= tol, f"translation distance {dt}"
    assert dr <= tol, f"rotation distance {dr}"


finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quat_component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def poses(draw):
    q = np.array([draw(quat_component) for _ in range(4)])
    if np.linalg.norm(q) < 1e-6:
        q = np.array([1.0, 0.0, 0.0, 0.0])
    t = np.array([draw(finite_floats) for _ in range(3)])
    return Pose(q, t)


class TestConstruction:
    def test_quaternion_normalized(self, rng):
        for _ in range(100):
            p = random_pose(rng)
            assert abs(np.linalg.norm(p.rotation) - 1.0) < TOL

    def test_canonical_sign(self, rng):
        for _ in range(100):
            q = rng.normal(size=4)
            p = Pose(q, np.zeros(3))
            assert p.rotation[0] >= 0.0

    def test_negated_quaternion_same_pose(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        a = Pose(q, np.zeros(3))
        b = Pose(-q, np.zeros(3))
        assert np.array_equal(a.rotation, b.rotation)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(4), np.zeros(3))

    def test_nonfinite_translation_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 0, 0, 0]), np.array([np.nan, 0, 0]))


class TestCompose:
    def test_identity_left(self, rng):
        t = random_pose(rng)
        assert_pose_close(compose(Pose.identity(), t), t)

    def test_inverse(self, rng):
        for _ in range(50):
            t = random_pose(rng)
            assert_pose_close(compose(t, invert(t)), Pose.identity())

    def test_rz90_then_translate(self):
        # Rz(90) at origin, then translate(1,0,0) in the rotated frame -> (0,1,0)
        a = Pose.from_yaw(math.pi / 2)
        b = Pose(translation=np.array([1.0, 0.0, 0.0]))
        c = compose(a, b)
        np.testing.assert_allclose(c.translation, [0.0, 1.0, 0.0], atol=TOL)
        dt, dr = pose_distance(c, Pose.from_yaw(math.pi / 2, (0, 1, 0)))
        assert dt < TOL and dr < TOL

    def test_matches_matrix_oracle(self, rng):
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            m = a.matrix() @ b.matrix()
            c = compose(a, b)
            np.testing.assert_allclose(c.matrix(), m, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(poses(), poses(), poses())
    def test_associativity(self, a, b, c):
        assert_pose_close(compose(compose(a, b), c), compose(a, compose(b, c)))


class TestInvert:
    def test_identity(self):
        assert_pose_close(invert(Pose.identity()), Pose.identity(), 0.0)

    def test_pure_translation(self):
        p = Pose(translation=np.array([0.1, 0.0, 0.0]))
        np.testing.assert_allclose(invert(p).translation, [-0.1, 0, 0], atol=0)

    def test_matrix_inverse_oracle(self, rng):
        for _ in range(50):
            p = random_pose(rng)
            np.testing.assert_allclose(invert(p).matrix(), np.linalg.inv(p.matrix()), atol=TOL)


class TestTransformCloud:
    def test_identity(self, rng):
        c = PointCloud(rng.normal(size=(20, 3)))
        out = transform_cloud(Pose.identity(), c)
        np.testing.assert_array_equal(out.points, c.points)
        assert out.frame == c.frame

    def test_single_point_lift(self):
        c = PointCloud(np.zeros((1, 3)))
        out = transform_cloud(Pose(translation=np.array([0, 0, 0.05])), c)
        np.testing.assert_allclose(out.points[0], [0, 0, 0.05])

    def test_round_trip(self, rng):
        c = PointCloud(rng.normal(size=(50, 3)))
        t = random_pose(rng)
        back = transform_cloud(invert(t), transform_cloud(t, c))
        np.testing.assert_allclose(back.points, c.points, atol=TOL)

    def test_isometry(self, rng):
        c = PointCloud(rng.normal(size=(30, 3)))
        t = random_pose(rng)
        out = transform_cloud(t, c)
        d_in = np.linalg.norm(c.points[0] - c.points[1])
        d_out = np.linalg.norm(out.points[0] - out.points[1])
        assert abs(d_in - d_out) < TOL

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloud):
            transform_cloud(Pose.identity(), PointCloud(np.zeros((0, 3))))


class TestPoseDistance:
    def test_self_distance_zero(self, rng):
        p = random_pose(rng)
        dt, dr = pose_distance(p, p)
        assert dt == 0.0 and dr <= 1e-12

    def test_rz180(self):
        dt, dr = pose_distance(Pose.identity(), Pose.from_yaw(math.pi))
        assert dt == 0.0
        assert abs(dr - math.pi) < TOL

    def test_three_four_five(self):
        # translation 3-4-5 triangle, rotation 90 degrees
        b = Pose.from_yaw(math.pi / 2, (3.0, 4.0, 0.0))
        dt, dr = pose_distance(Pose.identity(), b)
        assert abs(dt - 5.0) < TOL
        assert abs(dr - math.pi / 2) < TOL

    def test_symmetry(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert pose_distance(a, b) == pytest.approx(pose_distance(b, a), abs=1e-12)

    def test_rotation_angle_range(self, rng):
        for _ in range(200):
            p = random_pose(rng)
            assert 0.0 <= rotation_angle(p.rotation) <= math.pi + 1e-12


class TestInterpolate:
    def test_endpoints_exact(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert interpolate(a, b, 0.0) is a
        assert interpolate(a, b, 1.0) is b

    def test_translation_midpoint(self):
        a = Pose.identity()
        b = Pose(translation=np.array([0.10, 0.0, 0.0]))
        mid = interpolate(a, b, 0.5)
        np.testing.assert_allclose(mid.translation, [0.05, 0, 0], atol=1e-15)

    def test_out_of_range(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        with pytest.raises(OutOfRange):
            interpolate(a, b, 1.5)
        with pytest.raises(OutOfRange):
            interpolate(a, b, -0.1)

    def test_shortest_arc(self):
        # blending toward the sign-flipped equivalent must not take the long way
        a = Pose.from_yaw(0.1)
        b = Pose.from_yaw(0.3)
        mid = interpolate(a, b, 0.5)
        _, dr = pose_distance(mid, Pose.from_yaw(0.2))
        assert dr < 1e-6


class TestSerialization:
    def test_row_order(self):
        p = Pose.from_yaw(math.pi / 2, (1.0, 2.0, 3.0))
        row = p.as_row()
        assert row[:3] == [1.0, 2.0, 3.0]
        # qw first in the quaternion block
        assert abs(row[3] - math.cos(math.pi / 4)) < TOL

    def test_round_trip(self, rng):
        # from_row renormalizes, so rotations may differ in the last ulp
        for _ in range(20):
            p = random_pose(rng)
            q = Pose.from_row(p.as_row())
            np.testing.assert_allclose(q.rotation, p.rotation, atol=1e-15)
            assert np.array_equal(p.translation, q.translation)


def quat_mul_scalars(a, b):
    """``se3._quat_mul`` on numpy scalars, as it was written before it
    unpacked to Python floats: the reference for its bits."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_to_matrix_scalars(q):
    """``se3._quat_to_matrix`` on numpy scalars (see ``quat_mul_scalars``)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# wide enough for subnormal products, narrow enough that nothing overflows
quats = arrays(np.float64, 4, elements=st.floats(-1e150, 1e150, allow_nan=False))


class TestQuaternionBits:
    """The quaternion kernels give the numpy-scalar form's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(a=quats, b=quats)
    def test_quat_mul(self, a, b):
        assert se3._quat_mul(a, b).tobytes() == quat_mul_scalars(a, b).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(q=quats)
    def test_quat_to_matrix(self, q):
        assert se3._quat_to_matrix(q).tobytes() == quat_to_matrix_scalars(q).tobytes()

    def test_unit_quaternions(self, rng):
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            want = Pose(quat_mul_scalars(a.rotation, b.rotation))
            assert compose(a, b).rotation.tobytes() == want.rotation.tobytes()
            assert a.rotation_matrix().tobytes() == quat_to_matrix_scalars(a.rotation).tobytes()


class TestEquality:
    """Poses and clouds compare by value, so the types holding them do too."""

    def test_pose(self, rng):
        p = random_pose(rng)
        assert Pose() == Pose.identity()
        assert p == Pose(p.rotation.copy(), p.translation.copy())
        assert Pose(translation=(0.0, 0.0, 0.0)) == Pose(translation=(-0.0, 0.0, 0.0))
        assert p != Pose(p.rotation, p.translation + [0.0, 0.0, 1e-12])
        assert Pose() != Pose.from_yaw(1e-9)
        assert Pose() != (1.0, 0.0, 0.0, 0.0)

    def test_point_cloud(self, rng):
        pts = rng.normal(size=(5, 3))
        c = PointCloud(pts)
        assert c == PointCloud(pts.copy())
        assert c != PointCloud(pts, frame=EE_FRAME)
        assert c != PointCloud(pts[:4])
        assert c != PointCloud(pts + [0.0, 0.0, 1e-12])
        assert c != pts.tolist()

    def test_holders(self):
        mug = generate_object("mug", 0)
        assert mug == generate_object("mug", 0)
        assert mug != generate_object("mug", 1)
        task = default_task("mug")
        scene = randomize_scene(task, mug, "controlled", 3)
        assert scene == randomize_scene(task, generate_object("mug", 0), "controlled", 3)
        assert scene != randomize_scene(task, mug, "controlled", 4)
        state = EndEffectorState(Pose.from_yaw(0.5, (0.1, 0.2, 0.3)), 1, 7)
        assert state == EndEffectorState(Pose.from_yaw(0.5, (0.1, 0.2, 0.3)), 1, 7)
        assert state != EndEffectorState(Pose.from_yaw(0.5, (0.1, 0.2, 0.3)), 0, 7)
