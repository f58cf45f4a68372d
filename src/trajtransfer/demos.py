"""Demonstration dataset: ingestion, resampling, parsing and the archive format.

A demonstration stores the language description, the segmented object cloud
from the first frame, the interaction-phase end-effector trajectory (resampled
to 1 cm spacing) and a precomputed geometry embedding.  The archive is a plain
text directory format chosen for diffability; floats are written with repr()
so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import embedding as emb
from .errors import (
    DuplicateId,
    EmptyCloud,
    EmptyDescription,
    InvalidSpacing,
    MalformedFile,
    TrajectoryTooShort,
)
from .se3 import Pose, PointCloud, interpolate, pose_distance

DEFAULT_SPACING = 0.01  # metres between consecutive waypoints


@dataclass(frozen=True)
class EndEffectorState:
    pose: Pose  # end-effector in the robot base frame
    gripper: int  # 0 = open, 1 = closed
    time_index: int


@dataclass(frozen=True)
class Demonstration:
    id: str
    description: str
    micro_skill: str
    object_cloud: PointCloud  # robot frame, first frame
    trajectory: tuple  # EndEffectorState, interaction phase only
    embedding: emb.GeometryEmbedding
    object_instance_id: str | None = None


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
        if len(object_cloud) == 0:
            raise EmptyCloud("demonstration object cloud is empty")
        trajectory = list(trajectory)
        if len(trajectory) < 2:
            raise TrajectoryTooShort("demonstration trajectory needs >= 2 states")
        micro_skill = parse_micro_skill(description)
        traj = tuple(resample_trajectory(trajectory, spacing))
        embedding = emb.occupancy_embedding(object_cloud, self.grid)
        if demo_id is None:
            demo_id = _content_id(description, object_cloud, traj)
        return self.add(
            Demonstration(
                id=demo_id,
                description=description,
                micro_skill=micro_skill,
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
            if _demo_equal(self.demos[demo.id], demo):
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


def _demo_equal(a: Demonstration, b: Demonstration) -> bool:
    return (
        a.id == b.id
        and a.description == b.description
        and a.micro_skill == b.micro_skill
        and a.object_instance_id == b.object_instance_id
        and np.array_equal(a.object_cloud.points, b.object_cloud.points)
        and len(a.trajectory) == len(b.trajectory)
        and all(
            np.array_equal(x.pose.translation, y.pose.translation)
            and np.array_equal(x.pose.rotation, y.pose.rotation)
            and x.gripper == y.gripper
            for x, y in zip(a.trajectory, b.trajectory)
        )
        and np.array_equal(a.embedding.values, b.embedding.values)
    )


# --- archive format -----------------------------------------------------------
#
# <dir>/dataset.json          manifest: demo ids, skill index, grid spec
# <dir>/<id>.demo             one record per demo:
#     description line, micro_skill line, instance line,
#     "trajectory N" + N rows "t_index tx ty tz qw qx qy qz g",
#     "cloud N" + N rows "x y z",
#     "embedding N" + N value lines.


def _f(x: float) -> str:
    return repr(float(x))


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
            f"trajectory {len(demo.trajectory)}",
        ]
        for s in demo.trajectory:
            row = s.pose.as_row()
            lines.append(" ".join([str(s.time_index)] + [_f(v) for v in row] + [str(s.gripper)]))
        pts = demo.object_cloud.points
        lines.append(f"cloud {len(pts)}")
        for p in pts:
            lines.append(" ".join(_f(v) for v in p))
        vals = demo.embedding.values
        lines.append(f"embedding {len(vals)}")
        for v in vals:
            lines.append(_f(v))
        (path / f"{demo_id}.demo").write_text("\n".join(lines) + "\n")


def _expect(line: str, keyword: str, lineno: int, path) -> str:
    if not line.startswith(keyword + " "):
        raise MalformedFile(f"{path}:{lineno}: expected '{keyword} ...', got {line!r}")
    return line[len(keyword) + 1 :]


def load_demo_file(path, grid: emb.GridSpec) -> Demonstration:
    path = Path(path)
    lines = path.read_text().splitlines()
    try:
        description = _expect(lines[0], "description", 1, path)
        micro_skill = _expect(lines[1], "micro_skill", 2, path)
        instance = _expect(lines[2], "instance", 3, path)
        n_traj = int(_expect(lines[3], "trajectory", 4, path))
        i = 4
        traj = []
        for row_i in range(n_traj):
            parts = lines[i + row_i].split()
            if len(parts) != 9:
                raise MalformedFile(f"{path}:{i + row_i + 1}: expected 9 columns")
            traj.append(
                EndEffectorState(
                    Pose.from_row([float(v) for v in parts[1:8]]),
                    int(parts[8]),
                    int(parts[0]),
                )
            )
        i += n_traj
        n_pts = int(_expect(lines[i], "cloud", i + 1, path))
        i += 1
        pts = np.array(
            [[float(v) for v in lines[i + r].split()] for r in range(n_pts)], dtype=np.float64
        ).reshape(n_pts, 3)
        i += n_pts
        n_emb = int(_expect(lines[i], "embedding", i + 1, path))
        i += 1
        vals = np.array([float(lines[i + r]) for r in range(n_emb)], dtype=np.float64)
    except (IndexError, ValueError) as e:
        raise MalformedFile(f"{path}: truncated or malformed demo file: {e}") from e
    return Demonstration(
        id=path.stem,
        description=description,
        micro_skill=micro_skill,
        object_cloud=PointCloud(pts),
        trajectory=tuple(traj),
        embedding=emb.GeometryEmbedding(vals, grid),
        object_instance_id=None if instance == "-" else instance,
    )


def load_dataset(path) -> Dataset:
    path = Path(path)
    manifest_path = path / "dataset.json"
    if not manifest_path.exists():
        raise MalformedFile(f"{manifest_path}: missing dataset manifest")
    manifest = json.loads(manifest_path.read_text())
    grid = emb.GridSpec.from_dict(manifest["grid"])
    dataset = Dataset(grid)
    for demo_id in manifest["demo_ids"]:
        dataset.add(load_demo_file(path / f"{demo_id}.demo", grid))
    for skill, ids in manifest["skill_index"].items():
        if sorted(dataset.skill_index.get(skill, [])) != sorted(ids):
            raise MalformedFile(f"{manifest_path}: skill index inconsistent for {skill!r}")
    return dataset
