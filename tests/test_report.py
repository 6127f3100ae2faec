from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from tradesim.report import (
    RunSummary,
    compare_runs,
    load_summary,
    percentiles,
    save_comparison_csv,
    save_summary,
    weighted_percentile,
)


def summary(**overrides) -> RunSummary:
    base = dict(
        scenario_id="flat",
        scheduler="round-robin",
        seed=1,
        mean_latency_ms=90.0,
        std_latency_ms=20.0,
        p50_ms=85.0,
        p95_ms=120.0,
        p99_ms=150.0,
        mean_cpu_util=0.5,
        mean_mem_util=0.4,
        mean_net_util=0.2,
        achieved_tps=5000.0,
        sanitized_actions=0,
        cache_hit_rate=0.8,
    )
    base.update(overrides)
    return RunSummary(**base)


class TestPercentiles:
    def test_uniform_grid_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentiles(samples, [0.95]) == [95.0]
        assert percentiles(samples, [0.5]) == [50.0]

    def test_single_sample_every_level(self):
        assert percentiles([42.0], [0.01, 0.5, 0.99]) == [42.0, 42.0, 42.0]

    def test_matches_sort_oracle_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 500))
            data = rng.uniform(0, 1000, size=n)
            levels = rng.uniform(0.01, 0.99, size=5)
            got = percentiles(data, levels)
            srt = np.sort(data)
            want = [float(srt[max(1, int(np.ceil(lv * n))) - 1]) for lv in levels]
            assert got == want

    def test_monotone_in_level_and_permutation_invariant(self):
        rng = np.random.default_rng(1)
        data = rng.normal(100, 15, size=400)
        levels = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        vals = percentiles(data, levels)
        assert vals == sorted(vals)
        shuffled = data.copy()
        rng.shuffle(shuffled)
        assert percentiles(shuffled, levels) == vals

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentiles([], [0.5])
        with pytest.raises(ValueError):
            percentiles([1.0], [1.5])

    def test_weighted_percentile_expands_to_plain(self):
        data = [10.0, 20.0, 30.0, 40.0]
        weights = [1, 3, 1, 1]
        expanded = [10.0] + [20.0] * 3 + [30.0, 40.0]
        assert weighted_percentile(data, weights, 0.5) == percentiles(expanded, [0.5])[0]


class TestCompareRuns:
    def test_identical_runs_zero_everywhere(self):
        table = compare_runs(summary(), summary())
        assert all(row["improvement_pct"] == 0.0 for row in table.values())

    def test_latency_reduction_example(self):
        base = summary(mean_latency_ms=180.0)
        cand = summary(mean_latency_ms=105.0)
        row = compare_runs(base, cand)["mean_latency_ms"]
        assert row["improvement_pct"] == pytest.approx(41.7, abs=0.05)

    def test_throughput_gain_example(self):
        base = summary(achieved_tps=13_500.0)
        cand = summary(achieved_tps=25_000.0)
        row = compare_runs(base, cand)["achieved_tps"]
        assert row["improvement_pct"] == pytest.approx(85.2, abs=0.05)

    def test_scenario_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_runs(summary(), summary(scenario_id="other"))


class TestRoundTrips:
    def test_summary_json_round_trip(self, tmp_path):
        s = summary(seed=77, p99_ms=151.25)
        path = tmp_path / "summary.json"
        save_summary(s, path)
        assert json.loads(path.read_text()) == asdict(s)
        assert load_summary(path) == s

    def test_comparison_csv_round_trip(self, tmp_path):
        table = compare_runs(summary(mean_latency_ms=180.0), summary(mean_latency_ms=105.0))
        path = tmp_path / "cmp.csv"
        save_comparison_csv(table, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "metric,before,after,improvement_pct"
        assert rows[1:] == [
            f"{m},{r['before']!r},{r['after']!r},{r['improvement_pct']!r}" for m, r in table.items()
        ]

    def test_percentile_ordering_enforced(self):
        with pytest.raises(ValueError):
            summary(p50_ms=130.0, p95_ms=120.0)

    def test_utilization_bounds_enforced(self):
        with pytest.raises(ValueError):
            summary(mean_cpu_util=1.2)
