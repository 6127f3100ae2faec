#!/usr/bin/env python3
"""Write a BENCH_<n>.json file: the benchmark runs of two commits, summarised.

    python3 tools/bench_file.py BASE_RESULTS CAND_RESULTS OUT.json

BASE_RESULTS and CAND_RESULTS are `.bench_out/results` directories that
`benchmarks/run.py` wrote on the base and the candidate commit, with the same
seeds and `--seconds`, run interleaved (benchmarks/README.md, "Comparing two
commits"). Per workload the file holds, for every host-time metric of
BENCHMARK.json and `tick_ms_p99`, each side's median, quartiles and quartile
distance over the runs, the pairs the candidate won and the `compare.py`
verdict. The deterministic metrics are listed seed by seed with their
`compare.py` verdict. Failures, digests, both commits and the machine are
recorded too. The verdicts come from `compare.py`'s own functions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from compare import by_workload, load_records, per_seed, verdict  # noqa: E402
from run import DETERMINISTIC, TICK_P99_BOUND, quartiles  # noqa: E402


def spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def workload_summary(base: dict[int, dict], cand: dict[int, dict], bounds: dict) -> dict:
    seeds = sorted(set(base) & set(cand))
    b_runs, c_runs = [base[s] for s in seeds], [cand[s] for s in seeds]
    metrics = {}
    for name in [*bounds, *DETERMINISTIC]:
        if name in metrics or not all(name in r["metrics"] for r in b_runs + c_runs):
            continue
        b_vals = [r["metrics"][name]["value"] for r in b_runs]
        c_vals = [r["metrics"][name]["value"] for r in c_runs]
        first = b_runs[0]["metrics"][name]
        entry = {"unit": first["unit"], "better": first["better"],
                 "base": spread(b_vals), "cand": spread(c_vals)}
        b_med, c_med = entry["base"]["median"], entry["cand"]["median"]
        entry["median_change"] = (c_med - b_med) / abs(b_med) if b_med else 0.0
        if name in DETERMINISTIC:
            result, worst = per_seed(b_vals, c_vals, first["better"])
            entry.update(verdict=result, worst_seed_change=worst,
                         base_per_seed=b_vals, cand_per_seed=c_vals)
        else:
            result, wins = verdict(b_vals, c_vals, first["better"], bounds[name])
            entry.update(verdict=result, wins=wins, bound=bounds[name])
        metrics[name] = entry
    return {
        "seeds": seeds,
        "metrics": metrics,
        "failed": {side: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                   for side, runs in (("base", b_runs), ("cand", c_runs))},
        "digests": {
            "changed_seeds": [s for s in seeds if base[s]["digest"] != cand[s]["digest"]],
            "base": {s: base[s]["digest"] for s in seeds},
            "cand": {s: cand[s]["digest"] for s in seeds},
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if m["name"] not in DETERMINISTIC}
    bounds["tick_ms_p99"] = TICK_P99_BOUND
    base_records, cand_records = load_records(Path(argv[0])), load_records(Path(argv[1]))
    base, cand = by_workload(base_records), by_workload(cand_records)
    machines = {json.dumps(r["machine"], sort_keys=True) for r in base_records + cand_records}
    commits = {side: sorted({r["git_commit"] for r in records})
               for side, records in (("base", base_records), ("cand", cand_records))}
    out = {
        "command": spec["command"],
        "run_seconds": sorted({r["run_seconds"] for r in base_records + cand_records}),
        "base_commit": commits["base"],
        "cand_commit": commits["cand"],
        "machine": [json.loads(m) for m in sorted(machines)],
        "workloads": {w: workload_summary(base[w], cand[w], bounds)
                      for w in sorted(set(base) & set(cand))},
    }
    Path(argv[2]).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
