"""Latency percentiles and cross-run comparison tables."""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, from_json, read_json


@dataclass(frozen=True)
class RunSummary:
    scenario_id: str
    scheduler: str
    seed: int
    mean_latency_ms: float
    std_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_cpu_util: float
    mean_mem_util: float
    mean_net_util: float
    achieved_tps: float
    sanitized_actions: int
    cache_hit_rate: float
    queue_backlog_integral: float = 0.0
    first_scale_up_tick: int = -1  # -1: never scaled up

    def __post_init__(self) -> None:
        if not self.p50_ms <= self.p95_ms <= self.p99_ms:
            raise ConfigError("percentiles must be ordered p50 <= p95 <= p99")
        for u in (self.mean_cpu_util, self.mean_mem_util, self.mean_net_util):
            if not 0.0 <= u <= 1.0:
                raise ConfigError(f"utilization {u} outside [0, 1]")


def percentiles(samples, levels) -> list[float]:
    """Nearest-rank percentiles on the sorted sample (bit-exact across platforms)."""
    data = np.sort(np.asarray(samples, dtype=float))
    if data.size == 0:
        raise ValueError("percentiles of an empty sample")
    out = []
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"percentile level {level} outside (0, 1)")
        rank = max(1, math.ceil(level * data.size))
        out.append(float(data[rank - 1]))
    return out


def weighted_percentile(samples, weights, level: float | Sequence[float]) -> float | list[float]:
    """Nearest-rank percentile where each sample stands for `weight` requests.

    `level` is one level (returns a float) or a sequence of levels (returns a
    list of floats, one per level); the sample is sorted once either way.
    """
    samples = np.asarray(samples, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if samples.size == 0:
        raise ValueError("percentile of an empty sample")
    order = samples.argsort(kind="stable")
    cum = weights[order].cumsum()
    idx = cum.searchsorted(np.asarray(level, dtype=float) * cum[-1], side="left")
    values = samples[order[np.minimum(idx, samples.size - 1)]]
    return float(values) if values.ndim == 0 else values.tolist()


_LOWER_IS_BETTER = ("latency", "_ms", "backlog", "sanitized")


def _improvement(metric: str, before: float, after: float) -> float:
    """Signed relative improvement in percent; direction-aware per metric."""
    if before == 0.0:
        return 0.0
    change = (after - before) / abs(before) * 100.0
    lower_better = any(tag in metric for tag in _LOWER_IS_BETTER)
    return (-change if lower_better else change) + 0.0  # normalize -0.0


def compare_runs(baseline: RunSummary, candidate: RunSummary) -> dict[str, dict[str, float]]:
    """Per-metric (before, after, improvement %) table, Table-III shaped."""
    if baseline.scenario_id != candidate.scenario_id:
        raise ValueError(
            f"scenario mismatch: {baseline.scenario_id!r} vs {candidate.scenario_id!r}"
        )
    table: dict[str, dict[str, float]] = {}
    for name, before in asdict(baseline).items():
        if not isinstance(before, (int, float)) or isinstance(before, bool):
            continue
        if name in ("seed", "first_scale_up_tick"):
            continue
        after = getattr(candidate, name)
        table[name] = {
            "before": float(before),
            "after": float(after),
            "improvement_pct": _improvement(name, float(before), float(after)),
        }
    return table


# --- serialization (field order, lossless round-trip) ------------------------


def save_summary(summary: RunSummary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(summary), indent=2) + "\n")


def load_summary(path: str | Path) -> RunSummary:
    """The summary a `save_summary` file holds; a missing file, one that is not
    JSON, or one that is not a valid summary is a ConfigError naming the path."""
    return from_json(RunSummary, read_json(path, "summary"), f"summary {path}")


def save_comparison_csv(table: dict[str, dict[str, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "before", "after", "improvement_pct"])
        for metric, row in table.items():
            writer.writerow(
                [metric, repr(row["before"]), repr(row["after"]), repr(row["improvement_pct"])]
            )

