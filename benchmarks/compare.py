#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 benchmarks/compare.py BASE CAND

BASE and CAND are run records written by run.py (``.bench_out/results/*.json``),
directories of them, or JSON files holding a list of them (such as
benchmarks/baseline.json). Only untraced runs are compared. Runs are paired by
seed where both sides share seeds, otherwise in order.

Host-time metrics get a verdict from each side's median and quartiles over its
runs (choosing-metrics rule, section 8):

* better: the candidate wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the base's quartile distance, or every
  candidate run beats every base run;
* unresolved: otherwise, when the base's quartile distance exceeds the bound;
* worse: the candidate's median is worse than the base's by more than the bound;
* unchanged: otherwise.

Simulated and trained results (sim_*, val_loss, final_reward) are deterministic
for a seed, so they are compared seed by seed, without a bound: ``identical``
when every shared seed repeats exactly, else ``worse`` when any seed is worse,
else ``better``; the change shown is the worst seed's. Failures are compared
as counts: ``worse`` when the candidate fails a repetition on a seed where the
base failed fewer. The exit code is 1 when any metric reads worse, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DETERMINISTIC, TICK_P99_BOUND, quartiles  # noqa: E402


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*-seed*-trace*.json")) if path.is_dir() else [path]
    records: list[dict] = []
    for f in files:
        data = json.loads(f.read_text())
        records += data if isinstance(data, list) else [data]
    return [r for r in records if not r.get("trace")]


def by_workload(records: list[dict]) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for r in records:
        out.setdefault(r["workload"]["name"], {})[r["seed"]] = r
    return out


def verdict(base: list[float], cand: list[float], better: str, bound: float) -> tuple[str, str]:
    """(verdict, wins/pairs) for paired per-run values of a host-time metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, cand))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(cand)
    gain = sign * (cm - bm)
    if (wins >= 0.9 * len(pairs) and gain > b3 - b1) or min(sign * c for c in cand) > max(
        sign * b for b in base
    ):
        return "better", f"{wins}/{len(pairs)}"
    scale = abs(bm)
    if scale and (b3 - b1) / scale > bound:
        return "unresolved", f"{wins}/{len(pairs)}"
    if -gain > bound * scale:
        return "worse", f"{wins}/{len(pairs)}"
    return "unchanged", f"{wins}/{len(pairs)}"


def per_seed(base: list[float], cand: list[float], better: str) -> tuple[str, float]:
    """(verdict, worst relative change) for a deterministic metric on shared seeds."""
    sign = 1.0 if better == "higher" else -1.0
    changes = [sign * (c - b) / abs(b) if b else sign * (c - b) for b, c in zip(base, cand)]
    worst = min(changes)
    if all(b == c for b, c in zip(base, cand)):
        return "identical", 0.0
    return ("worse" if worst < 0 else "better"), sign * worst


def row(workload: str, name: str, b_vals: list[float], c_vals: list[float], result: str,
        change: float, wins: str) -> None:
    b1, bm, b3 = quartiles(b_vals)
    c1, cm, c3 = quartiles(c_vals)
    print(f"{workload:22s} {name:20s} {f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>36s} "
          f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>36s} {change:+8.1%} {wins:>6s}  {result}")


def compare(base_path: Path, cand_path: Path, spec: dict) -> int:
    host = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]
            if m["name"] not in DETERMINISTIC}
    host["tick_ms_p99"] = ("lower", TICK_P99_BOUND)
    base, cand = by_workload(load_records(base_path)), by_workload(load_records(cand_path))
    any_worse = False
    print(f"{'workload':22s} {'metric':20s} {'base median [q1, q3]':>36s} "
          f"{'cand median [q1, q3]':>36s} {'change':>8s} {'wins':>6s}  verdict")
    for workload in sorted(set(base) & set(cand)):
        b_runs, c_runs = base[workload], cand[workload]
        common = sorted(set(b_runs) & set(c_runs))
        if common:
            b_list, c_list = [b_runs[s] for s in common], [c_runs[s] for s in common]
        else:
            b_list, c_list = [b_runs[s] for s in sorted(b_runs)], [c_runs[s] for s in sorted(c_runs)]

        def values(runs: list[dict], name: str) -> list[float]:
            return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]

        for name, (better, bound) in host.items():
            b_vals, c_vals = values(b_list, name), values(c_list, name)
            if b_vals and c_vals:
                result, wins = verdict(b_vals, c_vals, better, bound)
                any_worse |= result == "worse"
                bm, cm = quartiles(b_vals)[1], quartiles(c_vals)[1]
                change = (cm - bm) / abs(bm) if bm else 0.0
                row(workload, name, b_vals, c_vals, result, change, wins)
        for name in DETERMINISTIC:
            b_vals, c_vals = values(b_list, name), values(c_list, name)
            if not b_vals or not c_vals:
                continue
            if common and len(b_vals) == len(c_vals) == len(common):
                better = b_list[0]["metrics"][name]["better"]
                result, change = per_seed(b_vals, c_vals, better)
            else:
                result, change = "unpaired", 0.0
            any_worse |= result == "worse"
            row(workload, name, b_vals, c_vals, result, change, "-")

        if common:
            more = [s for s in common if c_runs[s]["failed"] > b_runs[s]["failed"]]
        else:
            more = ["all"] if sum(r["failed"] for r in c_list) > sum(r["failed"] for r in b_list) else []
        failed = (f"base {sum(r['failed'] for r in b_list)}/{sum(r['attempted'] for r in b_list)}, "
                  f"cand {sum(r['failed'] for r in c_list)}/{sum(r['attempted'] for r in c_list)}")
        print(f"{workload:22s} {'failed':20s} {failed}  "
              f"{f'worse on seeds {more}' if more else 'not worse'}")
        any_worse |= bool(more)
        changed = [s for s in common if b_runs[s]["digest"] != c_runs[s]["digest"]]
        digests = "identical" if common and not changed else f"changed on seeds {changed}"
        if not common:
            digests = "no common seeds"
        print(f"{workload:22s} {'digest':20s} {digests}")
    return 1 if any_worse else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return compare(Path(args[0]), Path(args[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
