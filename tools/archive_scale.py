"""Time recording, saving and loading an archive of N one-demo tasks.

    PYTHONPATH=src python3 tools/archive_scale.py N

Task k is instance k // 6 of family k % 6 (families in ``simbench.CATEGORIES``
order), recorded once in ``controlled`` mode with scene seed k, so N = 1002
is 167 instances of each family.  All N go into one Dataset, which is saved to
a temporary directory and loaded back.  Prints one JSON line: the task and
demo counts, ``record_s``, ``save_s`` and ``load_s`` (wall seconds),
``archive_bytes`` (the saved files' sizes summed), ``archive_sha256`` (see
:func:`archive_sha256`: equal hashes mean byte-identical archives, so a
refactor that keeps the format can show it), ``same_bits`` (whether
every loaded demo holds the saved description, micro skill, instance, cloud,
trajectory translations and grippers, and embedding, bit for bit) and
``rotations_moved_by_load`` (trajectory rotations that ``Pose`` normalised to
other bits on load).  Exits 2 on a usage error.  Needs only the standard
library and trajtransfer.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from trajtransfer import demos, simbench


def record(n: int) -> demos.Dataset:
    bench = simbench.Benchmark(demos.Dataset())
    families = simbench.CATEGORIES
    for k in range(n):
        family = families[k % len(families)]
        task = simbench.default_task(family)
        instance = simbench.generate_object(family, k // len(families))
        bench.record_demonstration(task, simbench.randomize_scene(task, instance, "controlled", k))
    return bench.dataset


def _bits(demo) -> tuple:
    """A demo's stored fields as bytes and values, trajectory rotations aside."""
    return (
        demo.description,
        demo.micro_skill,
        demo.object_instance_id,
        demo.object_cloud.points.tobytes(),
        [(s.time_index, s.gripper, s.pose.translation.tobytes()) for s in demo.trajectory],
        demo.embedding.values.tobytes(),
    )


def archive_sha256(archive: Path) -> str:
    """sha256 over the archive's files in name order, each as its name, its
    size and its bytes, so no two different archives share the stream."""
    h = hashlib.sha256()
    for f in sorted(archive.iterdir()):
        data = f.read_bytes()
        h.update(f"{f.name}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip() + "  (N >= 1)", file=sys.stderr)
        return 2
    n = int(argv[0])
    t0 = perf_counter()
    saved = record(n)
    t1 = perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "archive"
        demos.save_dataset(saved, archive)
        t2 = perf_counter()
        loaded = demos.load_dataset(archive)
        t3 = perf_counter()
        size = sum(f.stat().st_size for f in archive.iterdir())
        digest = archive_sha256(archive)
    same = saved.demos.keys() == loaded.demos.keys() and all(
        _bits(saved.demos[i]) == _bits(loaded.demos[i]) for i in saved.demos
    )
    moved = sum(
        a.pose.rotation.tobytes() != b.pose.rotation.tobytes()
        for i in saved.demos
        if i in loaded.demos
        for a, b in zip(saved.demos[i].trajectory, loaded.demos[i].trajectory)
    )
    result = {
        "tasks": n,
        "demos": len(saved),
        "record_s": round(t1 - t0, 3),
        "save_s": round(t2 - t1, 3),
        "load_s": round(t3 - t2, 3),
        "archive_bytes": size,
        "archive_sha256": digest,
        "same_bits": same,
        "rotations_moved_by_load": moved,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
