"""Success-rate statistics and the benchmark experiment protocols.

Wilson score intervals and two-proportion Z-tests aggregate rollout outcomes;
the experiment runner reproduces the dataset-size and diversity sweep
protocols on the synthetic benchmark and emits CSV/JSON/SVG reports plus
JSON-lines traces from which every table cell can be recomputed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .demos import Dataset
from .errors import ConfigError, InvalidTrials, MalformedFile, OutOfRange
from .simbench import (
    Benchmark,
    CATEGORIES,
    FAILURE_CLASSES,
    default_task,
    generate_object,
    masked_clusters,
    randomize_scene,
    run_rollout,
)

Z95 = float(ndtri(0.975))  # the two-sided 95% standard normal quantile


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for k successes in n trials."""
    if n < 1:
        raise InvalidTrials("wilson_interval requires n >= 1")
    if not 0 <= k <= n:
        raise ValueError("k must be in [0, n]")
    z = Z95
    phat = k / n
    denom = 1 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    # at k = 0 and k = n the bound is exactly 0 or 1; rounding can miss it by an ulp
    lo = 0.0 if k == 0 else max(0.0, centre - margin)
    hi = 1.0 if k == n else min(1.0, centre + margin)
    return lo, hi


@dataclass(frozen=True)
class ZTestResult:
    z: float
    p_value: float
    degenerate: bool = False  # pooled proportion was 0 or 1


def two_proportion_z_test(k1: int, n1: int, k2: int, n2: int) -> ZTestResult:
    """Pooled two-proportion z statistic with a two-sided normal p-value."""
    if n1 < 1 or n2 < 1:
        raise InvalidTrials("both samples need n >= 1")
    pool = (k1 + k2) / (n1 + n2)
    if pool in (0.0, 1.0):
        return ZTestResult(0.0, 1.0, degenerate=True)
    se = math.sqrt(pool * (1 - pool) * (1 / n1 + 1 / n2))
    z = (k1 / n1 - k2 / n2) / se
    p = math.erfc(abs(z) / math.sqrt(2))
    return ZTestResult(z, p)


@dataclass(frozen=True)
class TableRow:
    label: str
    k: int
    n: int

    @property
    def phat(self) -> float:
        return self.k / self.n

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.k, self.n)


@dataclass
class SuccessTable:
    rows: list = field(default_factory=list)

    def add(self, label: str, k: int, n: int) -> None:
        if n >= 1:
            self.rows.append(TableRow(label, k, n))


# --- experiment configuration and runner -------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment protocol, checked when built, whether read from a file,
    built in code or given another seed: a config that breaks a rule raises."""

    mode: str  # dataset_size | diversity | thousand
    seed: int = 0
    repeats: int = 3
    families: tuple = CATEGORIES
    # dataset_size mode
    demos_per_task: tuple = (1, 3, 10, 50)
    seen_instances_per_family: int = 1
    unseen_instances_per_family: int = 1
    # diversity mode: (tasks, demos per task) splits and the fixed budget
    diversity_splits: tuple = ((10, 15), (30, 5), (50, 3))
    total_budget: int = 150
    noise_sigma: float = 0.0
    occlusion_fraction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "demos_per_task", tuple(self.demos_per_task))
        object.__setattr__(self, "diversity_splits", tuple(tuple(s) for s in self.diversity_splits))
        if self.mode not in ("dataset_size", "diversity", "thousand"):
            raise ConfigError(f"unknown experiment mode {self.mode!r}")
        counts = [getattr(self, f.name) for f in fields(self) if f.type == "int"]
        counts += [*self.demos_per_task, *(v for split in self.diversity_splits for v in split)]
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in counts):
            raise ConfigError("the seed, counts and split sizes must be non-negative integers")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError("noise_sigma must be >= 0")
        try:
            masked_clusters(self.occlusion_fraction)
        except OutOfRange as e:
            raise ConfigError(str(e)) from e
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not self.families or any(f not in CATEGORIES for f in self.families):
            raise ConfigError(f"families must be a non-empty list of {CATEGORIES}, got {list(self.families)}")
        # a protocol without a condition or an instance would run no rollout
        if self.mode != "diversity" and self.seen_instances_per_family == self.unseen_instances_per_family == 0:
            raise ConfigError("seen_instances_per_family and unseen_instances_per_family are both 0: no rollout to run")
        if self.mode == "dataset_size" and not self.demos_per_task:
            raise ConfigError("demos_per_task must be a non-empty list in dataset_size mode")
        if self.mode == "diversity":
            if not self.diversity_splits:
                raise ConfigError("diversity_splits must be a non-empty list in diversity mode")
            for tasks, demos in self.diversity_splits:
                if tasks * demos != self.total_budget:
                    raise ConfigError(
                        f"diversity split {tasks}x{demos} does not meet the "
                        f"budget of {self.total_budget} demonstrations"
                    )

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**d)


def read_config(path) -> ExperimentConfig:
    """The config in a JSON file, or the ``config`` echo of a summary.json."""
    try:
        raw = json.loads(Path(path).read_text())
        if isinstance(raw, dict) and "config" in raw:
            raw = raw["config"]
        return ExperimentConfig.from_dict(raw)
    except (ConfigError, OSError, TypeError, ValueError) as e:  # bad JSON, a missing or mistyped field
        raise ConfigError(f"{path}: {e}") from e


def _seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _build_benchmark(config, cond) -> Benchmark:
    bench = Benchmark(Dataset())
    for t_idx, (task, instance) in enumerate(cond.seen):
        for d in range(cond.demos_per_task):
            scene = randomize_scene(
                task, instance, "controlled", _seed(config.seed, cond.cond_idx, t_idx, d, 1)
            )
            bench.record_demonstration(task, scene)
    return bench


@dataclass(frozen=True)
class _Condition:
    label: str  # row label prefix; "/seen" or "/unseen" is appended
    seen: list  # (TaskSpec, ObjectInstance) pairs with demos in the benchmark
    unseen: list
    demos_per_task: int
    cond_idx: int  # seed component; keeps every condition's scenes distinct
    scene_mode: str


def _conditions(config):
    """Every condition of the configured protocol, in report order."""
    families = config.families

    @functools.cache  # one instance, and so one visible set, per (family, seed)
    def pair(family, instance_seed):
        return default_task(family), generate_object(family, instance_seed)

    if config.mode == "diversity":
        # task i is instance i // len(families) of family i % len(families);
        # one unseen instance per family at 1000 + family index, unlike the
        # other protocols' 1000 + i per family
        unseen = [pair(f, 1000 + i) for i, f in enumerate(families) if config.unseen_instances_per_family]
        return [
            _Condition(
                f"tasks={n_tasks}x{n_demos}",
                [pair(families[i % len(families)], i // len(families)) for i in range(n_tasks)],
                unseen,
                n_demos,
                100 + c,
                "controlled",
            )
            for c, (n_tasks, n_demos) in enumerate(config.diversity_splits)
        ]
    seen = [pair(f, i) for f in families for i in range(config.seen_instances_per_family)]
    unseen = [pair(f, 1000 + i) for f in families for i in range(config.unseen_instances_per_family)]
    if config.mode == "thousand":
        return [_Condition("thousand", seen, unseen, 1, 200, "thousand")]
    return [
        _Condition(f"demos={n_demos}", seen, unseen, n_demos, c, "controlled")
        for c, n_demos in enumerate(config.demos_per_task)
    ]


def _trace(benches, items, i: int) -> dict:
    """Item ``i`` of a run, rolled out, as the dict of its trace line."""
    bench_idx, label, task, scene = items[i]
    result = run_rollout(benches[bench_idx], task, scene)
    return {**result.to_trace_dict(), "micro_skill": task.micro_skill, "condition": label}


_WORKER_RUN = None  # (benches, items) of the run, in a pool worker


def _start_worker(benches, items) -> None:
    """The pool's initializer: under fork a worker inherits the run without
    pickling it; under another start method it unpickles the run once."""
    global _WORKER_RUN
    _WORKER_RUN = benches, items


def _worker_trace(i: int) -> dict:
    return _trace(*_WORKER_RUN, i)


def run_experiment(config: ExperimentConfig, outdir, jobs: int = 1):
    """Run the configured protocol; returns (SuccessTable, trace file path).

    Every condition's demos are recorded first, in this process.  Then each
    rollout becomes its trace: in this process at ``jobs`` 1, otherwise in
    one pool of at most ``jobs`` workers for the whole run, which return
    trace dicts.  The traces, in item order, and so the table are the same
    at any job count.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    conditions = _conditions(config)
    benches = [_build_benchmark(config, cond) for cond in conditions]
    items = []  # (bench index, row label, task, scene), in trace order
    for b, cond in enumerate(conditions):
        for tag, (split, tasks) in enumerate((("seen", cond.seen), ("unseen", cond.unseen))):
            for t_idx, (task, instance) in enumerate(tasks):
                for rep in range(config.repeats):
                    scene = randomize_scene(
                        task,
                        instance,
                        cond.scene_mode,
                        _seed(config.seed, cond.cond_idx, tag, t_idx, rep, 2),
                        occlusion_fraction=config.occlusion_fraction,
                        noise_sigma=config.noise_sigma,
                    )
                    items.append((b, f"{cond.label}/{split}", task, scene))
    workers = min(jobs, len(items))
    if workers <= 1:
        traces = [_trace(benches, items, i) for i in range(len(items))]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(benches, items)
        ) as pool:
            chunk = -(-len(items) // (16 * workers))  # small last chunks even out the workers
            traces = list(pool.map(_worker_trace, range(len(items)), chunksize=chunk))

    trace_path = outdir / "traces.jsonl"
    with open(trace_path, "w") as f:
        f.writelines(map(trace_line, traces))
    return _table(traces), trace_path


def trace_line(trace: dict) -> str:
    """One line of a trace file: a JSON object with sorted keys."""
    return json.dumps(trace, sort_keys=True) + "\n"


def read_traces(trace_path) -> list:
    """Every trace of a trace file.

    A line that is not a JSON object with a string "condition", a boolean
    "success" and a "failure_class" in FAILURE_CLASSES raises MalformedFile.
    """
    traces, lineno = [], 0
    try:
        with open(trace_path) as f:
            for lineno, line in enumerate(f, start=1):
                t = json.loads(line)
                if not (
                    isinstance(t, dict)
                    and isinstance(t.get("condition"), str)
                    and isinstance(t.get("success"), bool)
                    and t.get("failure_class") in FAILURE_CLASSES
                ):
                    raise ValueError("a trace needs condition, success and failure_class")
                traces.append(t)
    except ValueError as e:  # also invalid JSON or text encoding
        raise MalformedFile(f"{trace_path}:{lineno}: {e}") from e
    return traces


def _table(traces) -> SuccessTable:
    """The (k, n) table of some traces, rows in first-seen label order."""
    counts: dict[str, list[int]] = {}
    for t in traces:
        c = counts.setdefault(t["condition"], [0, 0])
        c[0] += int(t["success"])
        c[1] += 1
    table = SuccessTable()
    for label in counts:
        table.add(label, *counts[label])
    return table


def table_from_traces(trace_path) -> SuccessTable:
    """Recompute the (k, n) table from a trace file, as run_experiment returned it."""
    return _table(read_traces(trace_path))


def failure_histogram(trace_path) -> dict:
    hist = dict.fromkeys(FAILURE_CLASSES, 0)
    for t in read_traces(trace_path):
        hist[t["failure_class"]] += 1
    return hist


# --- report emission ----------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(table: SuccessTable, path) -> None:
    lines = ["label,k,n,phat,lo,hi"]
    for row in table.rows:
        lo, hi = row.ci
        lines.append(f"{row.label},{row.k},{row.n},{_fmt(row.phat)},{_fmt(lo)},{_fmt(hi)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _svg_barchart(table: SuccessTable) -> str:
    """Bars with Wilson-CI whiskers; values carried as data- attributes."""
    bar_w, gap, h, pad = 46, 22, 240, 48
    width = pad * 2 + len(table.rows) * (bar_w + gap)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{h + 2 * pad}">',
        f'<line x1="{pad}" y1="{pad + h}" x2="{width - pad}" y2="{pad + h}" stroke="black"/>',
    ]
    for i, row in enumerate(table.rows):
        lo, hi = row.ci
        x = pad + i * (bar_w + gap)
        y = pad + h * (1 - row.phat)
        cx = x + bar_w / 2
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{h * row.phat:.2f}" '
            f'fill="steelblue" data-label="{row.label}" data-phat="{row.phat:.3f}"/>'
        )
        parts.append(
            f'<line x1="{cx}" y1="{pad + h * (1 - hi):.2f}" x2="{cx}" '
            f'y2="{pad + h * (1 - lo):.2f}" stroke="black" '
            f'data-label="{row.label}" data-lo="{lo:.3f}" data-hi="{hi:.3f}"/>'
        )
        parts.append(
            f'<text x="{cx}" y="{pad + h + 16}" font-size="9" text-anchor="middle">{row.label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_histogram(hist: dict) -> str:
    bar_w, gap, h, pad = 60, 24, 200, 48
    total = max(sum(hist.get(k, 0) for k in FAILURE_CLASSES), 1)
    width = pad * 2 + len(FAILURE_CLASSES) * (bar_w + gap)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{h + 2 * pad}">']
    for i, key in enumerate(FAILURE_CLASSES):
        frac = hist.get(key, 0) / total
        x = pad + i * (bar_w + gap)
        y = pad + h * (1 - frac)
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{h * frac:.2f}" '
            f'fill="indianred" data-class="{key}" data-count="{hist.get(key, 0)}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2}" y="{pad + h + 16}" font-size="10" text-anchor="middle">{key}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(table: SuccessTable, config: ExperimentConfig | None, trace_path, outdir) -> dict:
    """Write report.csv, summary.json and the SVG charts; returns the summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(table, outdir / "report.csv")
    digest = hashlib.sha256(Path(trace_path).read_bytes()).hexdigest()
    summary = {
        "config": asdict(config) if config is not None else None,
        "trace_sha256": digest,
        "rows": [
            {"label": r.label, "k": r.k, "n": r.n, "phat": r.phat, "lo": r.ci[0], "hi": r.ci[1]}
            for r in table.rows
        ],
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    (outdir / "chart.svg").write_text(_svg_barchart(table))
    (outdir / "failures.svg").write_text(_svg_histogram(failure_histogram(trace_path)))
    return summary
