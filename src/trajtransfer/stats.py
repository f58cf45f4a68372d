"""Success-rate statistics and the benchmark experiment protocols.

Wilson score intervals and two-proportion Z-tests aggregate rollout outcomes;
the experiment runner reproduces the dataset-size and diversity sweep
protocols on the synthetic benchmark and emits CSV/JSON/SVG reports plus
JSON-lines traces from which every table cell can be recomputed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .demos import Dataset
from .errors import ConfigError, InvalidTrials, MalformedFile
from .simbench import (
    Benchmark,
    CATEGORIES,
    FAILURE_CLASSES,
    default_task,
    generate_object,
    randomize_scene,
    run_rollout,
)

def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return float(ndtri(p))


def wilson_interval(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for k successes in n trials."""
    if n < 1:
        raise InvalidTrials("wilson_interval requires n >= 1")
    if not 0 <= k <= n:
        raise ValueError("k must be in [0, n]")
    z = normal_quantile(1 - (1 - confidence) / 2)
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


@dataclass
class ExperimentConfig:
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
    # thousand mode
    thousand_rollouts_per_task: int = 3
    noise_sigma: float = 0.0
    occlusion_fraction: float = 0.0

    def validate(self) -> None:
        if self.mode not in ("dataset_size", "diversity", "thousand"):
            raise ConfigError(f"unknown experiment mode {self.mode!r}")
        counts = [getattr(self, f.name) for f in fields(self) if f.type == "int"]
        counts += [*self.demos_per_task, *(v for split in self.diversity_splits for v in split)]
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in counts):
            raise ConfigError("the seed, counts and split sizes must be non-negative integers")
        if not (0.0 <= self.noise_sigma < math.inf and 0.0 <= self.occlusion_fraction <= 1.0):
            raise ConfigError("noise_sigma must be >= 0 and occlusion_fraction in [0, 1]")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        unknown = [f for f in self.families if f not in CATEGORIES]
        if unknown:
            raise ConfigError(f"unknown families: {unknown}")
        if self.mode == "diversity":
            for tasks, demos in self.diversity_splits:
                if tasks * demos != self.total_budget:
                    raise ConfigError(
                        f"diversity split {tasks}x{demos} does not meet the "
                        f"budget of {self.total_budget} demonstrations"
                    )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["families"] = list(self.families)
        d["demos_per_task"] = list(self.demos_per_task)
        d["diversity_splits"] = [list(s) for s in self.diversity_splits]
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("families", "demos_per_task"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "diversity_splits" in kwargs:
            kwargs["diversity_splits"] = tuple(tuple(s) for s in kwargs["diversity_splits"])
        cfg = ExperimentConfig(**kwargs)
        cfg.validate()
        return cfg


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


def _build_benchmark(config, tasks, demos_per_task, cond_idx) -> Benchmark:
    bench = Benchmark(Dataset())
    for t_idx, (task, instance) in enumerate(tasks):
        for d in range(demos_per_task):
            scene = randomize_scene(
                task, instance, "controlled", _seed(config.seed, cond_idx, t_idx, d, 1)
            )
            bench.record_demonstration(task, scene)
    return bench


def _rollout_tasks(config, bench, eval_tasks, mode, cond_idx, split_tag, jobs=1):
    """Run repeats x tasks rollouts; returns their traces."""
    items = []
    for t_idx, (task, instance) in enumerate(eval_tasks):
        for rep in range(config.repeats):
            scene = randomize_scene(
                task,
                instance,
                mode,
                _seed(config.seed, cond_idx, split_tag, t_idx, rep, 2),
                occlusion_fraction=config.occlusion_fraction,
                noise_sigma=config.noise_sigma,
            )
            items.append((task, scene))
    results = run_rollout_batch(bench, items, jobs)
    return [{**r.to_trace_dict(), "micro_skill": t.micro_skill} for (t, _), r in zip(items, results)]


_WORKER_BENCH = None


def _set_worker_bench(bench):
    global _WORKER_BENCH
    _WORKER_BENCH = bench


def _rollout_one(args):
    task, scene = args
    return run_rollout(_WORKER_BENCH, task, scene)


def run_rollout_batch(bench, items, jobs: int = 1):
    """Rollouts in index order; results are independent of the job count."""
    if jobs <= 1:
        return [run_rollout(bench, task, scene) for task, scene in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_set_worker_bench, initargs=(bench,)
    ) as pool:
        return list(pool.map(_rollout_one, items, chunksize=4))


def _seen_unseen_tasks(config):
    """(seen, unseen) lists of (TaskSpec, ObjectInstance)."""
    seen, unseen = [], []
    for family in config.families:
        task = default_task(family)
        for i in range(config.seen_instances_per_family):
            seen.append((task, generate_object(family, i)))
        for i in range(config.unseen_instances_per_family):
            unseen.append((task, generate_object(family, 1000 + i)))
    return seen, unseen


def _diversity_tasks(config, n_tasks):
    """n_tasks (TaskSpec, instance) pairs cycling over the families."""
    tasks = []
    for i in range(n_tasks):
        family = config.families[i % len(config.families)]
        tasks.append((default_task(family), generate_object(family, i // len(config.families))))
    return tasks


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
    if config.mode == "diversity":
        # one unseen instance per family at 1000 + family index, unlike the
        # other protocols' 1000 + i per family
        unseen = [
            (default_task(f), generate_object(f, 1000 + i))
            for i, f in enumerate(config.families)
        ][: config.unseen_instances_per_family * len(config.families)]
        return [
            _Condition(
                f"tasks={n_tasks}x{n_demos}",
                _diversity_tasks(config, n_tasks),
                unseen,
                n_demos,
                100 + i,
                "controlled",
            )
            for i, (n_tasks, n_demos) in enumerate(config.diversity_splits)
        ]
    seen, unseen = _seen_unseen_tasks(config)
    if config.mode == "thousand":
        return [_Condition("thousand", seen, unseen, 1, 200, "thousand")]
    return [
        _Condition(f"demos={n_demos}", seen, unseen, n_demos, i, "controlled")
        for i, n_demos in enumerate(config.demos_per_task)
    ]


def run_experiment(config: ExperimentConfig, outdir, jobs: int = 1):
    """Run the configured protocol; returns (SuccessTable, trace file path)."""
    config.validate()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table = SuccessTable()
    all_traces = []
    for cond in _conditions(config):
        bench = _build_benchmark(config, cond.seen, cond.demos_per_task, cond.cond_idx)
        for tag, (split, tasks) in enumerate((("seen", cond.seen), ("unseen", cond.unseen))):
            traces = _rollout_tasks(config, bench, tasks, cond.scene_mode, cond.cond_idx, tag, jobs)
            label = f"{cond.label}/{split}"
            table.add(label, sum(t["success"] for t in traces), len(traces))
            for t in traces:
                t["condition"] = label
            all_traces.extend(traces)

    trace_path = outdir / "traces.jsonl"
    with open(trace_path, "w") as f:
        for t in all_traces:
            f.write(trace_line(t))
    return table, trace_path


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


def table_from_traces(trace_path) -> SuccessTable:
    """Recompute the (k, n) table from a trace file."""
    counts: dict[str, list[int]] = {}
    for t in read_traces(trace_path):
        c = counts.setdefault(t["condition"], [0, 0])
        c[0] += int(t["success"])
        c[1] += 1
    table = SuccessTable()
    for label in sorted(counts):
        table.add(label, counts[label][0], counts[label][1])
    return table


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
        "config": config.to_dict() if config is not None else None,
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
