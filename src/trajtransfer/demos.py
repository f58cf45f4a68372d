"""Demonstration dataset: ingestion, resampling, parsing and the text formats.

A demonstration stores the language description, the segmented object cloud
from the first frame, the interaction-phase end-effector trajectory (resampled
to 1 cm spacing) and a precomputed geometry embedding; each type checks its
own rules when built, so ingest and the archive reader apply the same ones.
This module reads and writes the cloud file, the trajectory file and the
archive.  The archive is a text directory format: each demo's three arrays,
its trajectory, its cloud and its embedding's non-zero voxels, are one base64
line each of their little-endian bytes, read and written by one codec
(:func:`_pack`, :func:`_unpack`); a save/load round trip keeps every bit but
a rotation's, which loads as ``Pose`` of the saved one.  Both trajectory
readers build all their poses in one vectorised pass
(:func:`se3.poses_from_rows`).  The packed lines trade per-entry diffs of a
.demo file for an archive that loads in a fraction of the time (see the
format comment below).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import embedding as emb
from .errors import (
    DuplicateId,
    EmptyCloud,
    EmptyDescription,
    InvalidDescription,
    InvalidId,
    MalformedFile,
    TrajectoryTooShort,
)
from .se3 import Pose, PointCloud, RowError, interpolate, pose_distance, poses_from_rows

DEFAULT_SPACING = 0.01  # metres between consecutive waypoints


@dataclass(frozen=True)
class EndEffectorState:
    """One waypoint; ValueError unless ``gripper`` is 0 or 1 (kept as an int) and ``time_index`` fits an int64."""

    pose: Pose  # end-effector in the robot base frame
    gripper: int  # 0 = open, 1 = closed
    time_index: int

    def __post_init__(self):
        if self.gripper not in (0, 1):
            raise ValueError(f"gripper must be 0 (open) or 1 (closed), got {self.gripper}")
        if not -(2**63) <= self.time_index < 2**63:
            raise ValueError(f"time index must fit an int64, got {self.time_index}")
        object.__setattr__(self, "gripper", int(self.gripper))


@dataclass(frozen=True)
class Demonstration:
    """Raises InvalidId (see :func:`is_file_name`), EmptyCloud, TrajectoryTooShort
    (< 2 states), EmptyDescription (no skill tokens) or InvalidDescription (a line
    break: the archive holds it on one line); ``micro_skill`` is :func:`parse_micro_skill`'s."""

    id: str
    description: str
    micro_skill: str = field(init=False)
    object_cloud: PointCloud  # robot frame, first frame
    trajectory: tuple  # EndEffectorState, interaction phase only
    embedding: emb.GeometryEmbedding
    object_instance_id: str | None = None
    # work a rollout would otherwise redo for this demo, filled at its first
    # use: k -> (the subset of object_cloud that GICP registers, its
    # covariances) by registration.estimate_delta, and "replay_plan" -> the
    # relative motions by policies.build_replay_plan; neither compared,
    # printed nor archived
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_file_name(self.id):
            raise InvalidId(f"demo id {self.id!r} is not a file name")
        if len(self.object_cloud) == 0:
            raise EmptyCloud("demonstration object cloud is empty")
        if len(self.trajectory) < 2:
            raise TrajectoryTooShort("demonstration trajectory needs >= 2 states")
        object.__setattr__(self, "micro_skill", parse_micro_skill(self.description))
        if self.description.splitlines() != [self.description]:
            raise InvalidDescription(f"description {self.description!r} contains a line break")


def is_file_name(demo_id: str) -> bool:
    """The archive's rule for a demo id: ``<dir>/<demo_id>.demo`` is a file in
    ``<dir>`` with that stem, so a non-empty string without a ``/``."""
    return isinstance(demo_id, str) and demo_id != "" and "/" not in demo_id


def _load_stopwords() -> frozenset:
    text = resources.files("trajtransfer.data").joinpath("stopwords.txt").read_text()
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


_STOPWORDS = _load_stopwords()


def parse_micro_skill(description: str) -> str:
    """Canonical micro-skill string: lowercase, trimmed, stop tokens removed."""
    if description is None or not description.strip():
        raise EmptyDescription("task description is empty")
    tokens = description.lower().split()
    kept = [t for t in tokens if t not in _STOPWORDS]
    if not kept:
        raise EmptyDescription(f"description {description!r} contains no skill tokens")
    return " ".join(kept)


def resample_trajectory(traj):
    """Resample so consecutive translation distances are <= DEFAULT_SPACING.

    Every original waypoint is retained exactly (so gripper-change events
    survive); interior waypoints are placed at arc-length multiples of
    DEFAULT_SPACING along each original segment.
    """
    traj = list(traj)
    if len(traj) < 2:
        raise TrajectoryTooShort("need at least 2 states to resample")
    out = [EndEffectorState(traj[0].pose, traj[0].gripper, 0)]
    for a, b in zip(traj[:-1], traj[1:]):
        seg_len, _ = pose_distance(a.pose, b.pose)
        n_interior = int(np.floor(seg_len / DEFAULT_SPACING - 1e-12))
        for k in range(1, n_interior + 1):
            s = k * DEFAULT_SPACING / seg_len
            out.append(EndEffectorState(interpolate(a.pose, b.pose, s), a.gripper, len(out)))
        out.append(EndEffectorState(b.pose, b.gripper, len(out)))
    return out


class Dataset:
    """Indexed demonstration collection with a micro-skill index.

    :meth:`add` is the only code that writes ``demos`` and ``skill_index``;
    :meth:`ingest` and :func:`load_dataset` both insert through it.
    """

    grid = emb.GRID  # the one grid every demo is embedded on

    def __init__(self):
        self.demos: dict[str, Demonstration] = {}
        self.skill_index: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(self.demos)

    def ingest(
        self,
        description: str,
        object_cloud: PointCloud,
        trajectory,
        demo_id: str | None = None,
        object_instance_id: str | None = None,
    ) -> Demonstration:
        """Build a Demonstration and add it to the dataset; returns the stored demo."""
        traj = tuple(resample_trajectory(trajectory))
        embedding = emb.occupancy_embedding(object_cloud)
        if demo_id is None:
            demo_id = _content_id(description, object_cloud, traj)
        return self.add(
            Demonstration(
                id=demo_id,
                description=description,
                object_cloud=object_cloud,
                trajectory=traj,
                embedding=embedding,
                object_instance_id=object_instance_id,
            )
        )

    def add(self, demo: Demonstration) -> Demonstration:
        """Store ``demo`` and return the stored demo.

        Idempotent for an identical demo under the same id; a differing demo
        under an existing id raises DuplicateId.
        """
        if demo.id in self.demos:
            if self.demos[demo.id] == demo:
                return self.demos[demo.id]
            raise DuplicateId(f"demo id {demo.id!r} already present with different content")
        self.demos[demo.id] = demo
        self.skill_index.setdefault(demo.micro_skill, []).append(demo.id)
        return demo


def alignment_target(demo: Demonstration) -> Pose:
    """First trajectory pose: where the interaction phase begins."""
    return demo.trajectory[0].pose


def _content_id(description, cloud, traj) -> str:
    h = hashlib.sha1()
    h.update(description.encode("utf-8"))
    h.update(np.ascontiguousarray(cloud.points).tobytes())
    for s in traj:
        h.update(np.ascontiguousarray(s.pose.translation).tobytes())
        h.update(np.ascontiguousarray(s.pose.rotation).tobytes())
        h.update(bytes([s.gripper & 1]))
    return h.hexdigest()[:12]


# --- text formats -------------------------------------------------------------
#
# cloud file        "N", then N cloud rows "x y z" (metres)
# trajectory file   trajectory rows "t_index tx ty tz qw qx qy qz g", g = 0 or 1
# archive           <dir>/dataset.json (demo ids, skill index and the grid,
#                   which must be embedding.GRID, each value of its kind) and per demo
#                   <dir>/<id>.demo: description, micro_skill and instance lines,
#                   then a "trajectory N", a "cloud N" and a "voxels K" header,
#                   each followed by its packed line, and nothing after them.
#                   A packed line is the standard padded base64 of
#                   little-endian arrays, one after the other.  The trajectory
#                   line holds the N states' time indices as int64, their rows
#                   tx ty tz qw qx qy qz as IEEE-754 float64, then their
#                   grippers as uint8: 65 N bytes, N >= 2, grippers 0 or 1,
#                   translations finite, quaternions with a finite, non-zero
#                   squared norm.  The cloud line holds the N x 3 points as
#                   float64, x y z per point, point-major: 24 N bytes, N >= 1,
#                   every value finite.  The voxels line holds the indices of
#                   the K non-zero embedding entries as uint32, then their
#                   values as float64: 12 K bytes, K >= 1, indices increasing
#                   and below embedding.SIZE, values finite and > 0.
#
# Text floats are written with repr() and read with float(), so a round trip
# is bit-exact.  A malformed file raises MalformedFile naming its path and
# line, and for a packed line the index of the state, point or entry at
# fault.  A .demo must hold a Demonstration (an id that is_file_name, a
# one-line description with skill tokens, >= 2 states, a non-empty cloud),
# its micro_skill and an embedding with a finite, non-zero norm.
#
# The packed lines are a format decision: at 1,002 one-demo tasks
# (tools/archive_scale.py 1002, 2 cores) packing the clouds took the archive
# 40.1 -> 25.7 MB, its save 2.9-4.0 -> 0.8 s and its load 2.9-3.0 -> 1.2 s,
# where text parsing alone could not load it in 1 s.  Packing the
# trajectories, with their poses built in one pass instead of one Pose per
# row, took that load 0.71-0.85 -> 0.48-0.68 s (three runs each) and
# perfbench's archive_load_s on archive-retrieve 0.049 -> 0.028 s (medians of
# 10 pairs).  The cost is that a .demo no longer shows a state, a point or a
# voxel row by row; the cloud and trajectory files, the user's interchange
# formats, stay text.


def _rows(array) -> list:
    """Each row of a 2-D float array as the repr of its values, space-separated."""
    return [" ".join(map(repr, row)) for row in np.asarray(array, dtype=np.float64).tolist()]


def _trajectory_block(states) -> list:
    rows = _rows([s.pose.as_row() for s in states])
    return [f"trajectory {len(states)}"] + [f"{s.time_index} {row} {s.gripper}" for s, row in zip(states, rows)]


# the dtypes of a packed line's arrays: one item of each per state, cloud point or voxel
_TRAJECTORY = ("<i8", ("<f8", 7), "u1")  # time index, row tx ty tz qw qx qy qz, gripper
_CLOUD = (("<f8", 3),)
_VOXELS = ("<u4", "<f8")


def _pack(dtypes, *arrays) -> str:
    """One standard padded base64 line of the arrays' bytes, each as its dtype's base, one after the other."""
    raw = b"".join(np.asarray(a, np.dtype(d).base).tobytes() for d, a in zip(dtypes, arrays))
    return base64.b64encode(raw).decode("ascii")


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n" if lines else "")


def _read_lines(path) -> list:
    try:
        return Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise MalformedFile(f"{path}: not a text file: {e}") from e


def _point(line: str) -> list:
    parts = line.split()
    if len(parts) != 3:
        raise ValueError(f"expected 3 columns 'x y z', got {len(parts)}")
    return [float(v) for v in parts]


def _columns(line: str) -> tuple:
    """(time index, row, gripper) of a trajectory file row."""
    parts = line.split()
    if len(parts) != 9:
        raise ValueError(f"expected 9 columns 't_index tx ty tz qw qx qy qz g', got {len(parts)}")
    if parts[8] not in ("0", "1"):  # so "01" and "1.0" stay errors
        raise ValueError(f"gripper must be 0 (open) or 1 (closed), got {parts[8]}")
    return int(parts[0]), [float(v) for v in parts[1:8]], int(parts[8])


def _unpack(line: str, dtypes, count: int) -> list:
    """The arrays :func:`_pack` wrote to line, count items of each of dtypes (read-only)."""
    try:
        raw = base64.b64decode(line, validate=True)
    except ValueError as e:  # binascii.Error is one
        raise ValueError(f"expected {count} items as one base64 line: {e}") from e
    dtypes = [np.dtype(d) for d in dtypes]
    item = sum(d.itemsize for d in dtypes)
    if len(raw) != item * count:
        raise ValueError(f"the line holds {len(raw)} bytes, not {item} x {count}")
    offsets = accumulate((d.itemsize * count for d in dtypes), initial=0)
    return [np.frombuffer(raw, d, count, offset) for d, offset in zip(dtypes, offsets)]


def _first(bad, message) -> None:
    """ValueError(message(k)) for the first entry k where bad is true, if any."""
    if bad.any():
        raise ValueError(message(int(np.argmax(bad))))


def _trajectory_line(line: str, n: int) -> list:
    """The n EndEffectorStates of a packed trajectory line."""
    time_index, rows, gripper = _unpack(line, _TRAJECTORY, n)
    _first(gripper > 1, lambda k: f"state {k}: gripper must be 0 (open) or 1 (closed), got {gripper[k]}")
    try:
        poses = poses_from_rows(rows)
    except RowError as e:
        raise ValueError(f"state {e.row}: {e}") from e
    return [EndEffectorState(*s) for s in zip(poses, gripper.tolist(), time_index.tolist())]


def _cloud_line(line: str, n: int) -> PointCloud:
    """The cloud of n finite points on a packed cloud line."""
    (pts,) = _unpack(line, _CLOUD, n)
    pts = pts.copy()  # owned, out of the decoded bytes
    pts.setflags(write=False)  # PointCloud keeps it as it is
    try:
        return PointCloud(pts)
    except ValueError:  # a non-finite coordinate: name its point
        _first(~np.isfinite(pts).all(axis=1), lambda k: f"cloud point {k} is not finite: {pts[k].tolist()}")
        raise


def _voxels_line(line: str, k: int) -> tuple:
    """(indices, values) of the k entries of a packed voxels line: indices
    increasing and below the grid's size, values finite and > 0."""
    index, values = _unpack(line, _VOXELS, k)
    _first(index >= emb.SIZE, lambda j: f"voxel entry {j}: index {index[j]} is outside [0, {emb.SIZE})")
    _first(index[1:] <= index[:-1], lambda j: f"voxel entry {j + 1}: index {index[j + 1]} does not follow {index[j]}")
    bad = ~((values > 0.0) & (values < math.inf))  # NaN too
    _first(bad, lambda j: f"voxel entry {j}: value {float(values[j])!r} is not finite and > 0")
    return index, values


def _value(line: str, keyword: str) -> str:
    if not line.startswith(keyword + " "):
        raise ValueError(f"expected '{keyword} ...', got {line!r}")
    return line[len(keyword) + 1 :]


def _parse(parse, lines, i: int, path, *args):
    """``parse(lines[i], *args)``, its ValueError raised as MalformedFile."""
    if i >= len(lines):
        raise MalformedFile(f"{path}:{i + 1}: unexpected end of file")
    try:
        return parse(lines[i], *args)
    except ValueError as e:
        raise MalformedFile(f"{path}:{i + 1}: {e}") from e


def _count(line: str, keyword: str) -> int:
    """N of a block header ``keyword N``, or of ``N`` alone if keyword is empty."""
    return int(_value(line, keyword) if keyword else line)


def _block(lines, i: int, keyword: str, parse, path) -> list:
    """The header ``keyword N`` at index i and its N rows, each through parse."""
    n = _parse(_count, lines, i, path, keyword)
    if not 0 <= n <= len(lines) - i - 1:
        raise MalformedFile(f"{path}:{i + 1}: {n} rows announced, {len(lines) - i - 1} follow")
    return [_parse(parse, lines, j, path) for j in range(i + 1, i + 1 + n)]


def _packed(lines, i: int, keyword: str, parse, path, empty: str, *args):
    """The header ``keyword N`` at index i (N >= 1, else MalformedFile(empty)
    naming it) and ``parse(line, N, *args)`` of its packed line."""
    n = _parse(_count, lines, i, path, keyword)
    if n < 1:
        raise MalformedFile(f"{path}:{i + 1}: {empty}")
    return _parse(parse, lines, i + 1, path, n, *args)


def _embedding(lines, i: int, path) -> emb.GeometryEmbedding:
    """The ``voxels K`` header at index i and its packed line as an embedding."""
    index, values = _packed(lines, i, "voxels", _voxels_line, path, "the embedding is all zero")
    dense = np.zeros(emb.SIZE)
    dense[index] = values
    dense.setflags(write=False)  # GeometryEmbedding keeps it as it is
    try:
        return emb.GeometryEmbedding(dense)
    except ValueError as e:  # a norm that underflows to 0 or overflows
        raise MalformedFile(f"{path}:{i + 1}: {e}") from e


def read_cloud_file(path) -> PointCloud:
    """The cloud of a cloud file; rows after the N-th are ignored."""
    pts = np.array(_block(_read_lines(path), 0, "", _point, path), dtype=np.float64).reshape(-1, 3)
    try:
        return PointCloud(pts)
    except ValueError as e:  # a non-finite coordinate: name its row
        raise MalformedFile(f"{path}:{2 + int(np.argmin(np.isfinite(pts).all(axis=1)))}: {e}") from e


def write_cloud_file(cloud: PointCloud, path) -> None:
    _write_lines(path, [str(len(cloud))] + _rows(cloud.points))


def read_trajectory_file(path) -> list:
    """The EndEffectorState of each non-blank row of a trajectory file."""
    lines = _read_lines(path)
    at = [i for i, line in enumerate(lines) if line.strip()]
    columns = [_parse(_columns, lines, i, path) for i in at]
    try:
        poses = poses_from_rows([row for _, row, _ in columns])
    except RowError as e:
        raise MalformedFile(f"{path}:{at[e.row] + 1}: {e}") from e
    states = []
    for i, pose, (t, _, gripper) in zip(at, poses, columns):
        try:
            states.append(EndEffectorState(pose, gripper, t))
        except ValueError as e:  # a time index outside int64
            raise MalformedFile(f"{path}:{i + 1}: {e}") from e
    return states


def write_trajectory_blocks(trajectories, path) -> None:
    """State sequences as consecutive ``trajectory N`` blocks."""
    _write_lines(path, [line for states in trajectories for line in _trajectory_block(states)])


def save_dataset(dataset: Dataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for demo_id in sorted(dataset.demos):
        demo = dataset.demos[demo_id]
        index = np.flatnonzero(demo.embedding.values)
        lines = [
            f"description {demo.description}",
            f"micro_skill {demo.micro_skill}",
            f"instance {demo.object_instance_id if demo.object_instance_id else '-'}",
            f"trajectory {len(demo.trajectory)}",
            _pack(
                _TRAJECTORY,
                [s.time_index for s in demo.trajectory],
                [s.pose.as_row() for s in demo.trajectory],
                [s.gripper for s in demo.trajectory],
            ),
            f"cloud {len(demo.object_cloud)}",
            _pack(_CLOUD, demo.object_cloud.points),
            f"voxels {len(index)}",
            _pack(_VOXELS, index, demo.embedding.values[index]),
        ]
        _write_lines(path / f"{demo_id}.demo", lines)
    manifest = {
        "demo_ids": sorted(dataset.demos),
        "skill_index": {k: sorted(v) for k, v in sorted(dataset.skill_index.items())},
        "grid": emb.GRID,
    }
    (path / "dataset.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))  # last: it lists the demos


def load_demo_file(path) -> Demonstration:
    path = Path(path)
    lines = _read_lines(path)
    description = _parse(_value, lines, 0, path, "description")
    stored = _parse(_value, lines, 1, path, "micro_skill")
    instance = _parse(_value, lines, 2, path, "instance")
    traj = _packed(lines, 3, "trajectory", _trajectory_line, path, "demonstration trajectory needs >= 2 states")
    cloud = _packed(lines, 5, "cloud", _cloud_line, path, "demonstration object cloud is empty")
    embedding = _embedding(lines, 7, path)
    if len(lines) > 9:
        raise MalformedFile(f"{path}:10: unexpected line after the voxels block")
    try:
        demo = Demonstration(
            id=path.stem,
            description=description,
            object_cloud=cloud,
            trajectory=tuple(traj),
            embedding=embedding,
            object_instance_id=None if instance == "-" else instance,
        )
    except (EmptyDescription, InvalidDescription, TrajectoryTooShort) as e:
        raise MalformedFile(f"{path}:{4 if isinstance(e, TrajectoryTooShort) else 1}: {e}") from e
    if stored != demo.micro_skill:
        raise MalformedFile(f"{path}:2: micro_skill {stored!r} is not the description's {demo.micro_skill!r}")
    return demo


def load_dataset(path) -> Dataset:
    path = Path(path)
    manifest_path = path / "dataset.json"
    if not manifest_path.exists():
        raise MalformedFile(f"{manifest_path}: missing dataset manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
        grid = json.dumps(manifest["grid"], sort_keys=True)  # as text, in which 24 and 24.0 differ
        if grid != json.dumps(emb.GRID, sort_keys=True):
            raise MalformedFile(f"{manifest_path}: grid {grid} is not the program's {emb.GRID}")
        demo_ids = list(manifest["demo_ids"])
        skill_index = {k: sorted(ids) for k, ids in dict(manifest["skill_index"]).items()}
    except KeyError as e:
        raise MalformedFile(f"{manifest_path}: missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:  # invalid JSON, a value of the wrong type or size
        raise MalformedFile(f"{manifest_path}: {e}") from e
    dataset = Dataset()
    for demo_id in demo_ids:
        if not is_file_name(demo_id):
            raise MalformedFile(f"{manifest_path}: demo id {demo_id!r} is not a file name")
        try:
            demo = load_demo_file(path / f"{demo_id}.demo")
        except (OSError, ValueError) as e:  # no such file, or a name the file system rejects
            raise MalformedFile(f"{manifest_path}: demo {demo_id!r}: {e}") from e
        dataset.add(demo)
    if skill_index != {skill: sorted(ids) for skill, ids in dataset.skill_index.items()}:
        raise MalformedFile(f"{manifest_path}: skill index does not match the demos' micro skills")
    return dataset
