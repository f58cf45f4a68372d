"""Demonstration dataset: ingestion, resampling, parsing and the text formats.

A demonstration stores the language description, the segmented object cloud
from the first frame, the interaction-phase end-effector trajectory (resampled
to 1 cm spacing) and a precomputed geometry embedding; each type checks its
own rules when built, so ingest and the archive reader apply the same ones.
This module reads and writes the cloud file, the trajectory file and the
archive, a plain text directory format chosen for diffability; floats are
written with repr() so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import embedding as emb
from .errors import (
    DuplicateId,
    EmptyCloud,
    EmptyDescription,
    GridMismatch,
    InvalidDescription,
    InvalidSpacing,
    MalformedFile,
    TrajectoryTooShort,
)
from .se3 import Pose, PointCloud, interpolate, pose_distance

DEFAULT_SPACING = 0.01  # metres between consecutive waypoints


@dataclass(frozen=True)
class EndEffectorState:
    """One waypoint; ValueError unless ``gripper`` equals 0 or 1 (kept as an int)."""

    pose: Pose  # end-effector in the robot base frame
    gripper: int  # 0 = open, 1 = closed
    time_index: int

    def __post_init__(self):
        if self.gripper not in (0, 1):
            raise ValueError(f"gripper must be 0 (open) or 1 (closed), got {self.gripper}")
        object.__setattr__(self, "gripper", int(self.gripper))


@dataclass(frozen=True)
class Demonstration:
    """Raises EmptyCloud, TrajectoryTooShort (< 2 states), EmptyDescription (no
    skill tokens) or InvalidDescription (a line break: the archive holds the
    description on one line); ``micro_skill`` is :func:`parse_micro_skill`'s."""

    id: str
    description: str
    micro_skill: str = field(init=False)
    object_cloud: PointCloud  # robot frame, first frame
    trajectory: tuple  # EndEffectorState, interaction phase only
    embedding: emb.GeometryEmbedding
    object_instance_id: str | None = None
    # registration's memo, k -> LocalCovariances of object_cloud, filled by
    # registration.estimate_delta; neither compared, printed nor archived
    covariances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.object_cloud) == 0:
            raise EmptyCloud("demonstration object cloud is empty")
        if len(self.trajectory) < 2:
            raise TrajectoryTooShort("demonstration trajectory needs >= 2 states")
        object.__setattr__(self, "micro_skill", parse_micro_skill(self.description))
        if self.description.splitlines() != [self.description]:
            raise InvalidDescription(f"description {self.description!r} contains a line break")


def _load_default_stopwords() -> frozenset:
    text = resources.files("trajtransfer.data").joinpath("stopwords.txt").read_text()
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


_DEFAULT_STOPWORDS = _load_default_stopwords()


def parse_micro_skill(description: str, stopwords: frozenset = _DEFAULT_STOPWORDS) -> str:
    """Canonical micro-skill string: lowercase, trimmed, stop tokens removed."""
    if description is None or not description.strip():
        raise EmptyDescription("task description is empty")
    tokens = description.lower().split()
    kept = [t for t in tokens if t not in stopwords]
    if not kept:
        raise EmptyDescription(f"description {description!r} contains no skill tokens")
    return " ".join(kept)


def resample_trajectory(traj, spacing: float = DEFAULT_SPACING):
    """Resample so consecutive translation distances are <= spacing.

    Every original waypoint is retained exactly (so gripper-change events
    survive); interior waypoints are placed at arc-length multiples of
    ``spacing`` along each original segment.
    """
    if spacing <= 0:
        raise InvalidSpacing(f"spacing must be positive, got {spacing}")
    traj = list(traj)
    if len(traj) < 2:
        raise TrajectoryTooShort("need at least 2 states to resample")
    out = [EndEffectorState(traj[0].pose, traj[0].gripper, 0)]
    for a, b in zip(traj[:-1], traj[1:]):
        seg_len, _ = pose_distance(a.pose, b.pose)
        n_interior = int(np.floor(seg_len / spacing - 1e-12))
        for k in range(1, n_interior + 1):
            s = k * spacing / seg_len
            out.append(EndEffectorState(interpolate(a.pose, b.pose, s), a.gripper, len(out)))
        out.append(EndEffectorState(b.pose, b.gripper, len(out)))
    return out


class Dataset:
    """Indexed demonstration collection with a micro-skill index.

    :meth:`add` is the only code that writes ``demos`` and ``skill_index``;
    :meth:`ingest` and :func:`load_dataset` both insert through it.
    """

    def __init__(self, grid: emb.GridSpec | None = None):
        self.grid = grid if grid is not None else emb.GridSpec()
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
        spacing: float = DEFAULT_SPACING,
    ) -> Demonstration:
        """Build a Demonstration and add it to the dataset; returns the stored demo."""
        traj = tuple(resample_trajectory(trajectory, spacing))
        embedding = emb.occupancy_embedding(object_cloud, self.grid)
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
        under an existing id raises DuplicateId, one on another grid GridMismatch.
        """
        if demo.embedding.grid != self.grid:
            raise GridMismatch(f"demo {demo.id!r} is embedded on another grid than the dataset's")
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
# archive           <dir>/dataset.json (demo ids, skill index, grid) and per demo
#                   <dir>/<id>.demo: description, micro_skill and instance lines,
#                   then "trajectory N", "cloud N" and "voxels K" blocks; the
#                   voxels block holds one row "index value" per non-zero
#                   embedding entry, indices increasing, every other entry 0.
#                   The reader also takes the dense "embedding N" block (one
#                   value per row) that archives written before it hold.
#
# Floats are written with repr() and read with float() (or NumPy's conversion,
# which gives the same bits), so a round trip is bit-exact.  A malformed file
# raises MalformedFile naming its path and line.  A .demo must hold a
# Demonstration (a one-line description with skill tokens, >= 2 states with
# gripper 0 or 1, a non-empty cloud) and its micro_skill.


def _rows(array) -> list:
    """Each row of a 2-D float array as the repr of its values, space-separated."""
    return [" ".join(map(repr, row)) for row in np.asarray(array, dtype=np.float64).tolist()]


def _trajectory_block(states) -> list:
    rows = _rows([s.pose.as_row() for s in states])
    return [f"trajectory {len(states)}"] + [f"{s.time_index} {row} {s.gripper}" for s, row in zip(states, rows)]


def _voxels_block(values: np.ndarray) -> list:
    index = np.flatnonzero(values)
    return [f"voxels {len(index)}"] + [f"{k} {v!r}" for k, v in zip(index.tolist(), values[index].tolist())]


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


def _points(rows) -> np.ndarray:
    """Every row through :func:`_point` at once: one conversion of all the
    columns, which raises ValueError if any row would."""
    columns = [row.split() for row in rows]
    if any(len(c) != 3 for c in columns):
        raise ValueError("a row without 3 columns")
    return np.array(columns, dtype=np.float64).reshape(-1, 3)


def _state(line: str) -> EndEffectorState:
    parts = line.split()
    if len(parts) != 9:
        raise ValueError(f"expected 9 columns 't_index tx ty tz qw qx qy qz g', got {len(parts)}")
    gripper = int(parts[8]) if parts[8] in ("0", "1") else parts[8]  # so "01" and "1.0" stay errors
    return EndEffectorState(Pose.from_row([float(v) for v in parts[1:8]]), gripper, int(parts[0]))


def _voxel(line: str, size: int) -> tuple:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"expected 2 columns 'index value', got {len(parts)}")
    index, value = int(parts[0]), float(parts[1])
    if not 0 <= index < size:
        raise ValueError(f"voxel index {index} is outside [0, {size})")
    if not 0.0 < value < math.inf:
        raise ValueError(f"voxel value {value!r} is not finite and > 0")
    return index, value


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


def _block(lines, i: int, keyword: str, parse, path, parse_rows=None) -> list:
    """The header ``keyword N`` (``N`` alone if keyword is empty) at index i
    and its N rows, each through parse, or all through ``parse_rows(rows)``
    if given: a ValueError from it means some row fails parse."""
    n = _parse(lambda line: int(_value(line, keyword) if keyword else line), lines, i, path)
    if not 0 <= n <= len(lines) - i - 1:
        raise MalformedFile(f"{path}:{i + 1}: {n} rows announced, {len(lines) - i - 1} follow")
    rows = lines[i + 1 : i + 1 + n]
    try:
        return parse_rows(rows) if parse_rows else [parse(line) for line in rows]
    except ValueError:  # parse again line by line to name the line at fault
        return [_parse(parse, lines, j, path) for j in range(i + 1, i + 1 + n)]


def _cloud(lines, i: int, keyword: str, path) -> PointCloud:
    pts = np.asarray(_block(lines, i, keyword, _point, path, _points), dtype=np.float64).reshape(-1, 3)
    try:
        return PointCloud(pts)
    except ValueError as e:  # a non-finite coordinate: name its row
        row = int(np.argmin(np.isfinite(pts).all(axis=1)))
        raise MalformedFile(f"{path}:{i + 2 + row}: {e}") from e


def _embedding(lines, i: int, grid: emb.GridSpec, path) -> emb.GeometryEmbedding:
    """The ``voxels K`` block at index i, or an ``embedding N`` block of an
    archive written before the voxels block, as an embedding on ``grid``."""
    if i < len(lines) and lines[i].startswith("embedding "):
        values = np.array(_block(lines, i, "embedding", float, path), dtype=np.float64)
        try:
            return emb.GeometryEmbedding(values, grid)
        except ValueError as e:  # wrong length for the grid, or a negative or non-finite value
            ok = np.isfinite(values) & (values >= 0.0)
            lineno = i + 1 if ok.all() else i + 2 + int(np.argmin(ok))
            raise MalformedFile(f"{path}:{lineno}: {e}") from e
    voxels = _block(lines, i, "voxels", lambda line: _voxel(line, grid.size), path)
    index = np.array([k for k, _ in voxels], dtype=np.int64)
    behind = np.flatnonzero(np.diff(index) <= 0)  # rows whose index does not follow the row before's
    if behind.size:
        row = 1 + int(behind[0])
        raise MalformedFile(f"{path}:{i + 2 + row}: voxel index {index[row]} does not follow {index[row - 1]}")
    values = np.zeros(grid.size)
    values[index] = [v for _, v in voxels]
    return emb.GeometryEmbedding(values, grid)


def read_cloud_file(path) -> PointCloud:
    """The cloud of a cloud file; rows after the N-th are ignored."""
    return _cloud(_read_lines(path), 0, "", path)


def write_cloud_file(cloud: PointCloud, path) -> None:
    _write_lines(path, [str(len(cloud))] + _rows(cloud.points))


def read_trajectory_file(path) -> list:
    """The EndEffectorState of each non-blank row of a trajectory file."""
    lines = _read_lines(path)
    return [_parse(_state, lines, i, path) for i, line in enumerate(lines) if line.strip()]


def write_trajectory_blocks(trajectories, path) -> None:
    """State sequences as consecutive ``trajectory N`` blocks."""
    _write_lines(path, [line for states in trajectories for line in _trajectory_block(states)])


def save_dataset(dataset: Dataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "demo_ids": sorted(dataset.demos),
        "skill_index": {k: sorted(v) for k, v in sorted(dataset.skill_index.items())},
        "grid": dataset.grid.to_dict(),
    }
    (path / "dataset.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    for demo_id in sorted(dataset.demos):
        demo = dataset.demos[demo_id]
        lines = [
            f"description {demo.description}",
            f"micro_skill {demo.micro_skill}",
            f"instance {demo.object_instance_id if demo.object_instance_id else '-'}",
            *_trajectory_block(demo.trajectory),
            f"cloud {len(demo.object_cloud)}",
            *_rows(demo.object_cloud.points),
            *_voxels_block(demo.embedding.values),
        ]
        _write_lines(path / f"{demo_id}.demo", lines)


def load_demo_file(path, grid: emb.GridSpec) -> Demonstration:
    path = Path(path)
    lines = _read_lines(path)
    description = _parse(_value, lines, 0, path, "description")
    stored = _parse(_value, lines, 1, path, "micro_skill")
    instance = _parse(_value, lines, 2, path, "instance")
    traj = _block(lines, 3, "trajectory", _state, path)
    i = 4 + len(traj)
    cloud = _cloud(lines, i, "cloud", path)
    embedding = _embedding(lines, i + 1 + len(cloud), grid, path)
    try:
        demo = Demonstration(
            id=path.stem,
            description=description,
            object_cloud=cloud,
            trajectory=tuple(traj),
            embedding=embedding,
            object_instance_id=None if instance == "-" else instance,
        )
    except (EmptyDescription, InvalidDescription, TrajectoryTooShort, EmptyCloud) as e:
        lineno = {TrajectoryTooShort: 4, EmptyCloud: 5 + len(traj)}.get(type(e), 1)
        raise MalformedFile(f"{path}:{lineno}: {e}") from e
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
        grid = emb.GridSpec.from_dict(manifest["grid"])
        demo_ids = list(manifest["demo_ids"])
        skill_index = {k: sorted(ids) for k, ids in dict(manifest["skill_index"]).items()}
    except KeyError as e:
        raise MalformedFile(f"{manifest_path}: missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:  # invalid JSON, a value of the wrong type or size
        raise MalformedFile(f"{manifest_path}: {e}") from e
    dataset = Dataset(grid)
    for demo_id in demo_ids:
        demo_path = path / f"{demo_id}.demo"
        if demo_path.parent != path or demo_path.stem != demo_id:
            raise MalformedFile(f"{manifest_path}: demo id {demo_id!r} is not a file name")
        try:
            demo = load_demo_file(demo_path, grid)
        except (OSError, ValueError) as e:  # no such file, or a name the file system rejects
            raise MalformedFile(f"{manifest_path}: demo {demo_id!r}: {e}") from e
        dataset.add(demo)
    if skill_index != {skill: sorted(ids) for skill, ids in dataset.skill_index.items()}:
        raise MalformedFile(f"{manifest_path}: skill index does not match the demos' micro skills")
    return dataset
