"""Fixed reference computations that track how fast the host runs.

The 2-core VM the benchmark was built on changes speed by up to 70% from one
minute to the next, and a whole run usually falls in one state: over ten
seeds of ``rollout-seen`` the rollout p50 ranged from 49 to 86 ms, and the
archive save from 31 to 68 ms. References of the same kinds of work as the
program slow down with it. Over twelve 6-second runs on that VM:

* *compute* (Python bytecode, a KD-tree build and queries) tracks the
  rollouts: rollout time over it stayed within ±9% while the rollout time
  itself moved by ±22%;
* *text* (numbers formatted with ``repr`` and parsed back, as the archive
  stores them) tracks the archive: save time over it stayed within ±9%, over
  *compute* within ±15%.

The benchmark times reference calls at the start and at the end of every
round and multiplies each time taken in the round by the nominal time of the
matching reference over the median of those calls, so its times read as on a
host where the references take :data:`NOMINAL_S`.  Nothing of
``trajtransfer`` runs here, so a change to the program cannot move them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

# nominal time of one call of each reference; the VM took 4.9 to 8.7 ms for
# compute and 8.4 to 16.8 ms for text
NOMINAL_S = {"compute": 0.006, "text": 0.010}


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._cloud = rng.random((2000, 3))
        self._queries = rng.random((2000, 3))
        self.samples: dict[str, list[float]] = {kind: [] for kind in NOMINAL_S}

    def _compute(self) -> int:
        total = 0
        for i in range(30000):
            total += i * i
        tree = cKDTree(self._cloud)
        tree.query(self._queries, k=1)
        tree.query(self._queries[:300], k=20)
        return total

    def _text(self) -> list:
        lines = [" ".join(repr(float(v)) for v in row) for row in self._cloud[:1500]]
        return [[float(x) for x in line.split()] for line in lines]

    def sample(self, calls: int) -> dict[str, list[float]]:
        """Time ``calls`` calls of each reference; returns their times, and keeps them."""
        times = {kind: [] for kind in NOMINAL_S}
        for _ in range(calls):
            for kind, run in (("compute", self._compute), ("text", self._text)):
                t0 = perf_counter()
                run()
                times[kind].append(perf_counter() - t0)
        for kind, ts in times.items():
            self.samples[kind] += ts
        return times

    def median_s(self, kind: str) -> float:
        return statistics.median(self.samples[kind])


def scales(times: dict[str, list[float]]) -> dict[str, float]:
    """Per reference: the factor that turns a time taken alongside ``times`` into nominal time."""
    return {kind: NOMINAL_S[kind] / statistics.median(ts) for kind, ts in times.items()}
