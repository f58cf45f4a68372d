"""Synthetic tabletop benchmark: parametric objects, virtual depth camera,
scene randomization, rollout execution and failure classification.

Objects are dense surface-sampled clouds from six parametric families.  A
virtual overhead depth camera produces partial clouds via hidden-point
removal, so demo and test views of the same object never overlap fully.
The camera sits on the object's vertical axis at a fixed height, so every
scene of an instance sees the same surface: each instance finds it once, in
the object frame, at its first render.
Success is a geometric predicate on the final end-effector pose expressed in
the ground-truth task-feature (anchor) frame of the object.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .demos import Dataset, Demonstration, EndEffectorState
from .errors import EmptyCloud, OutOfRange, OutOfWorkspace, UnknownCategory, UnknownSkill, NoCorrespondences, TooFewPoints
from .policies import OCCLUSION_CLUSTERS, build_replay_plan, execute_replay, jitter_cloud, mask_augment, transfer_alignment_pose
# run_rollout plans no approach path, as only its endpoint matters; perfbench's
# tracer still wraps trajtransfer.simbench.plan_linear_path by name
from .policies import plan_linear_path
from .registration import RegistrationResult, estimate_delta
from .retrieval import RetrievalResult, hierarchical_retrieve
from .se3 import Pose, PointCloud, compose, invert, pose_distance

WORKSPACE = (0.80, 0.45)  # metres, x by y
WORKSPACE_MARGIN = 0.06

# Head-mounted depth camera looking straight down.  The robot faces whatever
# it manipulates, so the camera sits CAMERA_HEIGHT above the object's origin on
# its vertical axis; this keeps self-occlusion a function of the object alone
# rather than of its yaw or where it sits in the workspace.  Every object
# point lies below the camera, so all of it is in front.
CAMERA_HEIGHT = 2.00
CAMERA_CENTRE = np.array([0.0, 0.0, CAMERA_HEIGHT])  # object frame
HPR_GAMMA = 100.0  # hidden-point-removal sphere radius, times the max range
MAX_RENDER_POINTS = 800


def masked_clusters(occlusion_fraction: float) -> int:
    """Clusters an occlusion masks; OutOfRange outside [0, 1] or if it masks them all."""
    masked = int(round(OCCLUSION_CLUSTERS * occlusion_fraction)) if 0.0 <= occlusion_fraction <= 1.0 else -1
    if not 0 <= masked < OCCLUSION_CLUSTERS:
        raise OutOfRange(f"occlusion_fraction must be in [0, 1] and leave a cluster visible, got {occlusion_fraction}")
    return masked

FAILURE_NONE = "none"
FAILURE_RETRIEVAL = "retrieval"
FAILURE_REGISTRATION = "registration"
FAILURE_EXECUTION = "execution"
FAILURE_SEGMENTATION = "segmentation"  # reserved: simulator clouds are pre-segmented
FAILURE_CLASSES = (FAILURE_NONE, FAILURE_RETRIEVAL, FAILURE_REGISTRATION, FAILURE_EXECUTION, FAILURE_SEGMENTATION)


@dataclass(frozen=True)
class ObjectInstance:
    category: str
    instance_id: str
    instance_seed: int
    shape_params: tuple
    canonical_cloud: PointCloud  # object frame, dense surface samples
    anchor: Pose  # task-relevant feature frame in the object frame

    @cached_property
    def visible_indices(self) -> np.ndarray:
        """Indices of the canonical points the camera sees, found at the first
        render and kept on the instance (neither compared nor printed)."""
        return np.nonzero(hidden_point_removal(self.canonical_cloud.points - CAMERA_CENTRE))[0]


@dataclass(frozen=True)
class TaskSpec:
    micro_skill: str
    category: str
    delta_t: float  # success threshold, metres
    delta_r: float  # success threshold, radians

    @property
    def description(self) -> str:
        return self.micro_skill


@dataclass(frozen=True)
class SceneSpec:
    object: ObjectInstance
    object_pose: Pose  # ground truth, robot frame
    rotation_range: float  # radians
    occlusion_fraction: float = 0.0  # see masked_clusters
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        masked_clusters(self.occlusion_fraction)


@dataclass(frozen=True)
class RolloutResult:
    scene: SceneSpec
    retrieval: RetrievalResult | None
    registration: RegistrationResult | None
    gt_delta: Pose | None
    executed: tuple | None  # EndEffectorState sequence
    success: bool
    failure_class: str
    registration_error: str | None = None  # class name of the error registration raised

    def to_trace_dict(self) -> dict:
        d = {
            "category": self.scene.object.category,
            "instance_seed": self.scene.object.instance_seed,
            "scene_seed": self.scene.rng_seed,
            "object_pose": self.scene.object_pose.as_row(),
            "occlusion_fraction": self.scene.occlusion_fraction,
            "noise_sigma": self.scene.noise_sigma,
            "success": self.success,
            "failure_class": self.failure_class,
            "retrieval": self.retrieval.to_dict() if self.retrieval else None,
            "registration": (
                self.registration.to_dict() if self.registration
                else {"error": self.registration_error} if self.registration_error else None
            ),
            "gt_delta": self.gt_delta.as_row() if self.gt_delta else None,
            "final_pose": self.executed[-1].pose.as_row() if self.executed else None,
        }
        return d


# --- parametric object families ----------------------------------------------


def _cylinder_side(rng, r, h, n, z0=0.0):
    th = rng.uniform(0, 2 * math.pi, n)
    z = rng.uniform(z0, z0 + h, n)
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def _disc(rng, r, z, n):
    th = rng.uniform(0, 2 * math.pi, n)
    rad = r * np.sqrt(rng.uniform(0, 1, n))
    return np.stack([rad * np.cos(th), rad * np.sin(th), np.full(n, z)], axis=1)


_FACE_AXES = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])  # a face's normal axis, then its two others


def _box_surface(rng, size, n, center=(0.0, 0.0, 0.0)):
    """n points on the faces of a box, each face drawn in proportion to its
    area; faces 2a and 2a + 1 are the + and - faces along axis a."""
    sx, sy, sz = size
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, n)
    v = rng.uniform(-0.5, 0.5, n)
    size = np.asarray(size, dtype=np.float64)
    axes = _FACE_AXES[face // 2]  # (n, 3)
    rows = np.arange(n)[:, None]
    pts = np.empty((n, 3))
    pts[rows, axes] = np.stack([np.where(face % 2 == 0, 0.5, -0.5), u, v], axis=1) * size[axes]
    return pts + np.array(center)


def _stick(rng, radius, length, n, origin, direction):
    """Thin cylinder from origin along direction."""
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    # orthonormal frame around the stick axis
    a = np.array([0.0, 0.0, 1.0]) if abs(direction[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(direction, a)
    u /= np.linalg.norm(u)
    v = np.cross(direction, u)
    t = rng.uniform(0, length, n)
    th = rng.uniform(0, 2 * math.pi, n)
    return (
        np.asarray(origin)
        + t[:, None] * direction
        + radius * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v)
    )


def _make_mug(rng):
    r = rng.uniform(0.038, 0.048)
    h = rng.uniform(0.080, 0.120)
    handle_len = rng.uniform(0.028, 0.040)
    pts = np.concatenate(
        [
            _cylinder_side(rng, r, h, 2700),
            _disc(rng, r, 0.0, 960),
            _stick(rng, 0.008, handle_len, 900, (r, 0.0, 0.60 * h), (1.0, 0.0, 0.0)),
        ]
    )
    # grasp frame on the body axis: stable across instance sizes, while the
    # handle still pins the yaw during registration
    anchor = Pose(translation=np.array([0.0, 0.0, 0.60 * h]))
    return pts, anchor, (r, h, handle_len)


def _make_box(rng):
    w = rng.uniform(0.10, 0.14)
    d = rng.uniform(0.07, 0.10)
    h = rng.uniform(0.040, 0.060)
    slot_x = 0.25 * w  # off-centre ridge breaks the 180 degree symmetry
    pts = np.concatenate(
        [
            _box_surface(rng, (w, d, h), 3440, center=(0.0, 0.0, h / 2)),
            _box_surface(rng, (0.014, 0.8 * d, 0.024), 1000, center=(slot_x, 0.0, h + 0.012)),
        ]
    )
    anchor = Pose(translation=np.array([slot_x, 0.0, h + 0.024]))
    return pts, anchor, (w, d, h, slot_x)


def _make_pan(rng):
    r = rng.uniform(0.085, 0.105)
    wall = rng.uniform(0.015, 0.040)
    handle_len = rng.uniform(0.095, 0.125)
    handle_r = rng.uniform(0.007, 0.013)
    handle_z = rng.uniform(0.006, 0.032)
    pts = np.concatenate(
        [
            _disc(rng, r, 0.0, 1000),
            _cylinder_side(rng, r, wall, 1260),
            # horizontal handle: a height mismatch between instances costs a
            # fixed vertical offset instead of sliding the match along a slope
            _stick(rng, handle_r, handle_len, 980, (r, 0.0, handle_z), (1.0, 0.0, 0.0)),
        ]
    )
    # grasp frame over the pan centre at base height (the surface a top-down
    # view registers against); the stick handle breaks yaw symmetry
    anchor = Pose(translation=np.array([0.0, 0.0, 0.0]))
    return pts, anchor, (r, wall, handle_len, handle_r, handle_z)


def _make_bottle(rng):
    r = rng.uniform(0.028, 0.040)
    h = rng.uniform(0.120, 0.180)
    neck_h = rng.uniform(0.030, 0.045)
    neck_r = 0.45 * r
    pts = np.concatenate(
        [
            _cylinder_side(rng, r, h, 2560),
            _disc(rng, r, h, 600),
            _cylinder_side(rng, neck_r, neck_h, 840, z0=h),
            _disc(rng, neck_r, h + neck_h, 260),
        ]
    )
    anchor = Pose(translation=np.array([0.0, 0.0, h + neck_h]))
    return pts, anchor, (r, h, neck_h)


def _make_tray(rng):
    w = rng.uniform(0.20, 0.30)
    d = rng.uniform(0.15, 0.21)
    rim = rng.uniform(0.012, 0.028)
    pts = np.concatenate(
        [
            _disc_rect(rng, w, d, 0.0, 1400),
            _box_surface(rng, (w, 0.008, rim), 400, center=(0.0, d / 2, rim / 2)),
            _box_surface(rng, (w, 0.008, rim), 400, center=(0.0, -d / 2, rim / 2)),
            _box_surface(rng, (0.008, d, rim), 400, center=(w / 2, 0.0, rim / 2)),
            _box_surface(rng, (0.008, d, rim), 400, center=(-w / 2, 0.0, rim / 2)),
            # corner tab breaks the 180 degree symmetry of the rectangle
            _box_surface(rng, (0.035, 0.035, 2 * rim), 500, center=(w / 2 - 0.0175, d / 2 - 0.0175, rim + rim)),
        ]
    )
    anchor = Pose(translation=np.array([0.0, 0.0, 0.002]))
    return pts, anchor, (w, d, rim)


def _disc_rect(rng, w, d, z, n):
    x = rng.uniform(-w / 2, w / 2, n)
    y = rng.uniform(-d / 2, d / 2, n)
    return np.stack([x, y, np.full(n, z)], axis=1)


def _make_kettle(rng):
    r = rng.uniform(0.054, 0.062)
    h = rng.uniform(0.100, 0.140)
    spout_len = rng.uniform(0.048, 0.062)
    pts = np.concatenate(
        [
            _cylinder_side(rng, r, h, 2500),
            _disc(rng, r, h, 1120),
            _stick(rng, 0.010, spout_len, 940, (r, 0.0, 0.75 * h), (1.0, 0.0, 0.35)),
        ]
    )
    # grasp frame at the lid centre (the surface a top-down view registers
    # against); the spout is the only yaw-symmetry breaker, so masking it
    # makes the recovered yaw ambiguous
    anchor = Pose(translation=np.array([0.0, 0.0, h]))
    return pts, anchor, (r, h, spout_len)


_FAMILIES = {
    "mug": _make_mug,
    "box": _make_box,
    "pan": _make_pan,
    "bottle": _make_bottle,
    "tray": _make_tray,
    "kettle": _make_kettle,
}

CATEGORIES = tuple(sorted(_FAMILIES))

# Per-family task profiles.  Thresholds are the geometric stand-in for human
# success judgment; the bottle task is yaw-free because the object is a
# surface of revolution.
_TASKS = {
    "mug": ("lift mug", 0.010, math.radians(10.0)),
    "box": ("open box", 0.003, math.radians(3.0)),
    "pan": ("lift pan", 0.010, math.radians(10.0)),
    "bottle": ("lift bottle", 0.010, math.pi),
    "tray": ("place tray", 0.010, math.radians(10.0)),
    "kettle": ("pour kettle", 0.010, math.radians(10.0)),
}

# Interaction templates: (offset in the anchor frame, gripper) per waypoint.
_TEMPLATES = {
    "default": (
        ((0.0, 0.0, 0.080), 0),
        ((0.0, 0.0, 0.010), 0),
        ((0.0, 0.0, 0.010), 1),
        ((0.0, 0.0, 0.100), 1),
    ),
    "box": (
        ((0.0, 0.0, 0.060), 0),
        ((0.0, 0.0, 0.004), 0),
        ((0.0, 0.0, 0.004), 1),
        ((0.0, 0.0, 0.050), 1),
        ((0.060, 0.0, 0.050), 1),
    ),
}


def default_task(category: str) -> TaskSpec:
    if category not in _TASKS:
        raise UnknownCategory(f"unknown object category {category!r}")
    skill, dt, dr = _TASKS[category]
    return TaskSpec(micro_skill=skill, category=category, delta_t=dt, delta_r=dr)


def generate_object(category: str, instance_seed: int) -> ObjectInstance:
    """Deterministic parametric instance with a surface-sampled cloud."""
    if category not in _FAMILIES:
        raise UnknownCategory(f"unknown object category {category!r}")
    if instance_seed < 0:
        raise OutOfRange(f"instance seed must be non-negative, got {instance_seed}")
    rng = np.random.default_rng(
        np.random.SeedSequence([zlib.crc32(category.encode()) & 0xFFFF, instance_seed])
    )
    pts, anchor, params = _FAMILIES[category](rng)
    return ObjectInstance(
        category=category,
        instance_id=f"{category}-{instance_seed}",
        instance_seed=instance_seed,
        shape_params=tuple(float(p) for p in params),
        canonical_cloud=PointCloud(pts),
        anchor=anchor,
    )


# --- virtual depth camera -----------------------------------------------------


def hidden_point_removal(points: np.ndarray) -> np.ndarray:
    """Visible-point mask via spherical inversion + convex hull (Katz, Tal and
    Basri, "Direct Visibility of Point Sets", SIGGRAPH 2007).

    ``points`` are relative to the camera centre, in any orientation: the
    inversion and the hull commute with a rotation about the centre, so the
    mask depends only on where the centre sits relative to the points, not on
    where the camera looks.  The head camera sits at CAMERA_CENTRE in the
    object frame whatever the object's yaw and position, so it sees one
    surface of an instance in every scene.  In floating point a rotated input
    could flip a point that lies on the hull up to rounding; the object-frame
    and camera-frame masks of the benchmark's scenes agree bit for bit
    (tests/test_simbench.py checks it).  No points raise EmptyCloud, and points
    with no hull even when joggled (one or two) raise TooFewPoints.
    """
    if len(points) == 0:
        raise EmptyCloud("hidden-point removal needs at least one point")
    norms = np.linalg.norm(points, axis=1)
    norms = np.maximum(norms, 1e-12)
    radius = HPR_GAMMA * norms.max()
    inverted = points + 2.0 * (radius - norms)[:, None] * points / norms[:, None]
    all_pts = np.vstack([inverted, np.zeros(3)])
    try:
        hull = ConvexHull(all_pts)
    except QhullError:
        try:
            hull = ConvexHull(all_pts, qhull_options="QJ")
        except QhullError as e:
            raise TooFewPoints(f"a cloud of {len(points)} point(s) has no visibility hull") from e
    mask = np.zeros(len(points), dtype=bool)
    visible = hull.vertices[hull.vertices < len(points)]
    mask[visible] = True
    return mask


def render_partial_cloud(instance: ObjectInstance, object_pose: Pose, seed: int = 0) -> PointCloud:
    """Partial robot-frame cloud of the posed object seen from the head camera:
    the instance's visible points, at most MAX_RENDER_POINTS of them drawn by
    ``seed``."""
    visible = instance.visible_indices
    if len(visible) > MAX_RENDER_POINTS:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        visible = np.sort(rng.choice(visible, size=MAX_RENDER_POINTS, replace=False))
    # only the drawn points: the rows of se3.transform_cloud's product, bit for bit
    R = object_pose.rotation_matrix()
    points = instance.canonical_cloud.points[visible] @ R.T + object_pose.translation
    points.setflags(write=False)  # handed over: PointCloud keeps it as it is
    return PointCloud(points)


# --- scene randomization and demonstrations ----------------------------------


def randomize_scene(
    task: TaskSpec,
    instance: ObjectInstance,
    mode: str,
    rng_seed: int,
    occlusion_fraction: float = 0.0,
    noise_sigma: float = 0.0,
) -> SceneSpec:
    """Scene with uniform position in the workspace and mode-dependent yaw.

    controlled: yaw uniform in +-180 degrees.  thousand: +-45 degrees.
    """
    if mode == "controlled":
        rot_range = math.pi
    elif mode == "thousand":
        rot_range = math.pi / 4
    else:
        raise ValueError(f"unknown scene mode {mode!r}")
    if rng_seed < 0:
        raise OutOfRange(f"scene seed must be non-negative, got {rng_seed}")
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 11]))
    x = rng.uniform(WORKSPACE_MARGIN, WORKSPACE[0] - WORKSPACE_MARGIN)
    y = rng.uniform(WORKSPACE_MARGIN, WORKSPACE[1] - WORKSPACE_MARGIN)
    yaw = rng.uniform(-rot_range, rot_range)
    return SceneSpec(
        object=instance,
        object_pose=Pose.from_yaw(yaw, (x, y, 0.0)),
        rotation_range=rot_range,
        occlusion_fraction=occlusion_fraction,
        noise_sigma=noise_sigma,
        rng_seed=rng_seed,
    )


def _anchor_world(instance: ObjectInstance, object_pose: Pose) -> Pose:
    return compose(object_pose, instance.anchor)


def template_trajectory(task: TaskSpec, instance: ObjectInstance, object_pose: Pose):
    """World-frame interaction trajectory for a task on a posed instance."""
    anchor_world = _anchor_world(instance, object_pose)
    template = _TEMPLATES.get(task.category, _TEMPLATES["default"])
    states = []
    for i, (offset, gripper) in enumerate(template):
        pose = compose(anchor_world, Pose(translation=np.array(offset)))
        states.append(EndEffectorState(pose, gripper, i))
    return states


@dataclass
class Benchmark:
    """Dataset plus simulator-side ground truth for every stored demo."""

    dataset: Dataset
    demo_meta: dict = field(default_factory=dict)  # demo_id -> SceneSpec

    def record_demonstration(self, task: TaskSpec, scene: SceneSpec) -> Demonstration:
        """Run the ground-truth pipeline on a demo scene and store the result;
        the demo's cloud is the one a rollout of ``scene`` observes."""
        cloud = _observed_cloud(scene)
        traj = template_trajectory(task, scene.object, scene.object_pose)
        demo = self.dataset.ingest(
            task.description,
            cloud,
            traj,
            object_instance_id=scene.object.instance_id,
        )
        self.demo_meta[demo.id] = scene
        return demo


def _observed_cloud(scene: SceneSpec) -> PointCloud:
    cloud = render_partial_cloud(scene.object, scene.object_pose, scene.rng_seed)
    if scene.occlusion_fraction > 0.0:
        masked = masked_clusters(scene.occlusion_fraction)
        cloud = mask_augment(cloud, masked=masked, rng_seed=scene.rng_seed)
    if scene.noise_sigma > 0.0:
        cloud = jitter_cloud(cloud, scene.noise_sigma, rng_seed=scene.rng_seed)
    return cloud


def _final_pose_success(task, final_pose, scene, demo_scene, demo_final) -> bool:
    rel_test = compose(invert(_anchor_world(scene.object, scene.object_pose)), final_pose)
    rel_demo = compose(invert(_anchor_world(demo_scene.object, demo_scene.object_pose)), demo_final)
    dt, dr = pose_distance(rel_test, rel_demo)
    return dt <= task.delta_t and dr <= task.delta_r


def run_rollout(
    bench: Benchmark,
    task: TaskSpec,
    scene: SceneSpec,
) -> RolloutResult:
    """Full pipeline on one scene; all failures are recorded, never raised."""
    cloud = _observed_cloud(scene)
    try:
        retrieval = hierarchical_retrieve(bench.dataset, task.description, cloud)
    except (UnknownSkill, OutOfWorkspace):  # no demo has the skill, or the cloud is off the grid
        return RolloutResult(scene, None, None, None, None, False, FAILURE_RETRIEVAL)
    demo = bench.dataset.demos[retrieval.demo_id]
    demo_scene = bench.demo_meta[demo.id]
    gt_delta = compose(
        _anchor_world(scene.object, scene.object_pose),
        invert(_anchor_world(demo_scene.object, demo_scene.object_pose)),
    )
    try:
        registration = estimate_delta(demo, cloud)
    except (NoCorrespondences, TooFewPoints) as e:  # no match at init, or too few points for a covariance
        return RolloutResult(scene, retrieval, None, gt_delta, None, False, FAILURE_REGISTRATION, type(e).__name__)

    executed, success = _replay(task, demo, registration.delta, scene, demo_scene)
    failure = classify_failure(task, demo, registration, gt_delta, success)
    return RolloutResult(scene, retrieval, registration, gt_delta, executed, success, failure)


def _replay(task: TaskSpec, demo: Demonstration, delta: Pose, scene: SceneSpec, demo_scene: SceneSpec):
    """Replay ``demo`` under the object motion ``delta`` in ``scene``: the
    executed states, and whether the final pose meets the task's thresholds."""
    target = transfer_alignment_pose(demo, delta)
    executed = tuple(execute_replay(build_replay_plan(demo), target, demo.trajectory[0].gripper))
    return executed, _final_pose_success(task, executed[-1].pose, scene, demo_scene, demo.trajectory[-1].pose)


def classify_failure(
    task: TaskSpec,
    demo: Demonstration,
    registration: RegistrationResult,
    gt_delta: Pose,
    success: bool,
) -> str:
    """Failure class of a rollout of the retrieved ``demo``: registration if the
    estimated delta lies outside the task thresholds of the true one, else
    execution.  run_rollout assigns FAILURE_RETRIEVAL when no demo has the
    skill or the observed cloud lies off the embedding grid; a retrieved demo
    is never at fault, because success is judged against its own
    anchor-relative final pose, so its ground-truth transfer always succeeds.
    """
    if success:
        return FAILURE_NONE
    # compare the two deltas by their effect at the demo's final end-effector
    # pose (where success is judged), not at the world origin where rotation
    # lever arms distort the translation component
    demo_final = demo.trajectory[-1].pose
    dt, dr = pose_distance(
        compose(registration.delta, demo_final), compose(gt_delta, demo_final)
    )
    if dt > task.delta_t or dr > task.delta_r:
        return FAILURE_REGISTRATION
    return FAILURE_EXECUTION
