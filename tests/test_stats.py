"""Statistics toolkit and experiment protocols."""

import json
import math
import re
from dataclasses import FrozenInstanceError, asdict

import pytest

from trajtransfer import stats
from trajtransfer.errors import ConfigError, InvalidTrials
from trajtransfer.stats import (
    ExperimentConfig,
    SuccessTable,
    emit_report,
    failure_histogram,
    run_experiment,
    table_from_traces,
    two_proportion_z_test,
    wilson_interval,
    write_csv,
)

Z95 = 1.959963984540054  # scipy.special.ndtri(0.975), bit for bit


def wilson_oracle(k, n, z=Z95):
    phat = k / n
    denom = 1 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, centre - margin), min(1.0, centre + margin)


class TestWilson:
    def test_z95(self):
        assert stats.Z95 == Z95

    def test_all_successes_high_is_one(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0

    def test_zero_of_ten(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(0.278, abs=5e-4)
        assert (lo, hi) == pytest.approx(wilson_oracle(0, 10), abs=1e-12)

    def test_eighteen_of_thirty_six(self):
        lo, hi = wilson_interval(18, 36)
        assert lo == pytest.approx(0.345, abs=5e-4)
        assert hi == pytest.approx(0.655, abs=5e-4)
        assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-9)

    def test_contains_phat(self):
        for k, n in ((0, 5), (3, 7), (7, 7), (12, 40), (39, 40)):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_width_shrinks_with_n(self):
        widths = []
        for n in (10, 40, 160, 640):
            k = n // 2
            lo, hi = wilson_interval(k, n)
            widths.append(hi - lo)
        assert widths == sorted(widths, reverse=True)

    def test_zero_trials(self):
        with pytest.raises(InvalidTrials):
            wilson_interval(0, 0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestZTest:
    def test_equal_proportions(self):
        res = two_proportion_z_test(5, 10, 10, 20)
        assert res.z == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)

    def test_thirty_vs_fifteen_of_sixty(self):
        res = two_proportion_z_test(30, 60, 15, 60)
        pool = 45 / 120
        se = math.sqrt(pool * (1 - pool) * (2 / 60))
        assert res.z == pytest.approx((0.5 - 0.25) / se, abs=1e-6)
        assert res.z == pytest.approx(2.83, abs=5e-3)
        assert res.p_value == pytest.approx(0.005, abs=2e-3)

    def test_swap_antisymmetry(self):
        a = two_proportion_z_test(30, 60, 15, 60)
        b = two_proportion_z_test(15, 60, 30, 60)
        assert a.z == pytest.approx(-b.z, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_degenerate_pool(self):
        res = two_proportion_z_test(0, 10, 0, 10)
        assert res.degenerate
        assert res.z == 0.0 and res.p_value == 1.0

    def test_empty_sample(self):
        with pytest.raises(InvalidTrials):
            two_proportion_z_test(1, 0, 1, 2)


class TestConfig:
    def test_diversity_budget_violation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="diversity", diversity_splits=((10, 14),))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="ablation")

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="thousand", families=("mug", "teapot"))

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(mode="dataset_size", seed=7, families=("mug", "tray"))
        back = ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
        assert back == cfg

    def test_frozen(self):
        cfg = ExperimentConfig(mode="thousand")
        with pytest.raises(FrozenInstanceError):
            cfg.seed = -1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"mode": "thousand", "turbo": True})


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig(
        mode="dataset_size",
        seed=3,
        repeats=1,
        families=("mug", "tray"),
        demos_per_task=(1, 2),
    )
    table, trace_path = run_experiment(cfg, outdir)
    return cfg, table, trace_path, outdir


class TestExperiment:
    def test_rows_and_trials(self, small_run):
        cfg, table, _, _ = small_run
        labels = [r.label for r in table.rows]
        assert labels == ["demos=1/seen", "demos=1/unseen", "demos=2/seen", "demos=2/unseen"]
        for row in table.rows:
            assert row.n == cfg.repeats * len(cfg.families)

    def test_table_recomputes_from_traces(self, small_run):
        _, table, trace_path, _ = small_run
        recomputed = table_from_traces(trace_path)
        assert sorted((r.label, r.k, r.n) for r in table.rows) == sorted(
            (r.label, r.k, r.n) for r in recomputed.rows
        )

    def test_determinism(self, small_run, tmp_path):
        cfg, table, trace_path, _ = small_run
        table2, trace_path2 = run_experiment(cfg, tmp_path)
        assert [(r.label, r.k, r.n) for r in table.rows] == [
            (r.label, r.k, r.n) for r in table2.rows
        ]
        assert trace_path.read_bytes() == trace_path2.read_bytes()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_job_count(self, small_run, tmp_path, jobs):
        """A pool writes the in-process run's traces and table; 3 workers
        share the 8 rollouts unevenly."""
        _, table, trace_path, _ = small_run
        table2, trace_path2 = run_experiment(small_run[0], tmp_path, jobs=jobs)
        assert table2.rows == table.rows
        assert trace_path2.read_bytes() == trace_path.read_bytes()

    def test_one_pool_of_at_most_one_worker_per_rollout(self, small_run, tmp_path, monkeypatch):
        """A stand-in executor, run in process, records every pool started."""
        started = []

        class Pool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(stats, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(stats, "_WORKER_RUN", None)  # the stand-in's worker is this process
        cfg, table, trace_path, _ = small_run
        table2, trace_path2 = run_experiment(cfg, tmp_path / "many", jobs=64)
        assert started == [8]  # 2 conditions x 2 splits x 2 families x 1 repeat
        assert table2.rows == table.rows
        assert trace_path2.read_bytes() == trace_path.read_bytes()
        one = ExperimentConfig(mode="thousand", repeats=1, families=("mug",), unseen_instances_per_family=0)
        table3, _ = run_experiment(one, tmp_path / "one", jobs=4)
        assert started == [8] and [r.n for r in table3.rows] == [1]  # one rollout, no pool

    def test_failure_histogram_totals(self, small_run):
        _, table, trace_path, _ = small_run
        hist = failure_histogram(trace_path)
        assert sum(hist.values()) == sum(r.n for r in table.rows)


class TestReport:
    def test_csv_single_row(self, tmp_path):
        table = SuccessTable()
        table.add("demo", 3, 4)
        write_csv(table, tmp_path / "out.csv")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "label,k,n,phat,lo,hi"
        assert lines[1].startswith("demo,3,4,0.75,")

    def test_emit_report_files(self, small_run, tmp_path):
        cfg, table, trace_path, _ = small_run
        summary = emit_report(table, cfg, trace_path, tmp_path)
        for name in ("report.csv", "summary.json", "chart.svg", "failures.svg"):
            assert (tmp_path / name).exists()
        echoed = json.loads((tmp_path / "summary.json").read_text())
        assert echoed["config"]["mode"] == "dataset_size"
        assert ExperimentConfig.from_dict(echoed["config"]) == cfg
        assert len(summary["trace_sha256"]) == 64

    def test_svg_whiskers_match_table(self, small_run, tmp_path):
        cfg, table, trace_path, _ = small_run
        emit_report(table, cfg, trace_path, tmp_path)
        svg = (tmp_path / "chart.svg").read_text()
        for row in table.rows:
            lo, hi = row.ci
            m = re.search(
                rf'data-label="{re.escape(row.label)}" data-lo="([0-9.]+)" data-hi="([0-9.]+)"',
                svg,
            )
            assert m, f"no whisker for {row.label}"
            assert float(m.group(1)) == pytest.approx(lo, abs=5e-4)
            assert float(m.group(2)) == pytest.approx(hi, abs=5e-4)
