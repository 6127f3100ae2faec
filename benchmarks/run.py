#!/usr/bin/env python3
"""tradesim benchmark: run one workload for a fixed time, check its outputs,
and print every metric.

    python3 benchmarks/run.py --workload open-burst-threshold --seed 1 --seconds 18 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 18 --trace 0

It runs the program from the checkout's ``src/``, with nothing installed.
A run repeats the workload's CLI commands on the same seeded inputs until
``--seconds`` have passed (at least twice), checks every repetition, and
reports medians. With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record (machine,
commit, quartiles, sample counts, digest) goes to
``.bench_out/results/<workload>-seed<seed>-trace<t>.json``; traced runs also
write their spans to ``.bench_out/spans/``. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread (nproc is 2 on the reference machine): the workloads are
# single-threaded and a pinned count keeps timings comparable across machines.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11  # fresh interpreters timed per run; setup_s is their median
MIN_REPS = 2  # the determinism check needs two repetitions

# Metrics kept in the run record and compared by compare.py, but not listed
# in BENCHMARK.json, which needs every metric on every workload, never zero and
# steady across seeds: failed_ratio is zero on a healthy run, val_loss and
# final_reward exist on one workload each, tick_ms_p99 lacks ten samples
# beyond it on open-burst-hybrid, and sim_p95_ms and the backlog move by tens
# of percent between seeds on the overloaded topology.
# name -> (unit, better)
RECORD_ONLY = {
    "tick_ms_p99": ("ms", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "sim_p95_ms": ("ms", "lower"),
    "sim_backlog_req_s": ("req*s", "lower"),
    "val_loss": ("mse", "lower"),
    "final_reward": ("reward", "higher"),
}
# compare.py's bound for tick_ms_p99, the one record-only host time; the
# others are compared seed by seed (see compare.py) and need no bound.
TICK_P99_BOUND = 0.25
# Simulated or trained results: a fixed seed must reproduce them exactly.
DETERMINISTIC = (
    "sim_p95_ms", "sim_slo_miss_ratio", "sim_tps", "sim_backlog_req_s", "val_loss", "final_reward"
)


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    traced: bool
    # Host seconds without the calibration loops. wall_s, simulate_s (the last
    # command's) and the tick and decide times are at the reference speed;
    # speed is the mean scale of the repetition's samples (see
    # tracer.CAL_EVERY_S).
    raw_wall_s: float = 0.0
    wall_s: float = 0.0
    simulate_s: float = 0.0
    speed: float = 1.0
    ticks: int = 0
    tick_ms: list[float] = field(default_factory=list)
    decide_ms: list[float] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


# --- statistics -------------------------------------------------------------------


def nearest_rank(values: list[float], level: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(level * len(ordered))) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def describe(values: list[float], unit: str, better: str, value: float | None = None) -> dict:
    """Median, quartiles and count of a metric's samples; ``value`` is what
    gets reported (the median unless a percentile is asked for)."""
    q1, med, q3 = quartiles(values)
    return {
        "value": med if value is None else value,
        "median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit, "better": better,
    }


# --- machine and run record -------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


# --- one workload ------------------------------------------------------------------


def time_setup(args) -> float:
    """Host seconds, at the reference speed, for a fresh interpreter to import
    tradesim and build the workload's inputs. The probe samples its own speed
    once numpy is imported, which the calibration loop needs."""
    from tracer import MIN_SAMPLES, CAL_EXPONENT, CAL_REF_NS

    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    cal_ns = json.loads(out)["cal_ns"]
    if len(cal_ns) < MIN_SAMPLES:
        raise RuntimeError(f"setup probe took {len(cal_ns)} speed samples, fewer than {MIN_SAMPLES}")
    speed = statistics.fmean((CAL_REF_NS / ns) ** CAL_EXPONENT for ns in cal_ns)
    return (elapsed - sum(cal_ns) / 1e9) * speed


def run_rep(params: dict, argvs, inputs, probes, tracer, traced: bool, run_id: str) -> Rep:
    from tracer import COMMAND_SPAN, MIN_SAMPLES, interval_scale
    from workloads import check_simulation, digest, run_command, simulated_metrics, training_outputs

    out = inputs["out"]
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    probes.reset()
    rep = Rep(traced=traced)
    commands = []
    probes.sampler.start()
    if traced:
        tracer.begin_run(run_id)
    try:
        for argv in argvs:
            started = probes.mark()
            with tracer.span(COMMAND_SPAN) if tracer else contextlib.nullcontext():
                code, err = run_command(argv)
            commands.append(probes.since(started))
            if code != 0:
                rep.failures.append(f"{argv[0]} exited {code}: {err.strip()}")
                break
    finally:
        probes.sampler.stop()
        if traced:
            tracer.end_run()

    scales = probes.sampler.scales()
    if len(scales) < MIN_SAMPLES:
        rep.failures.append(f"{len(scales)} speed samples, fewer than {MIN_SAMPLES}")

    def seconds(interval) -> float:
        ns, first, end = interval
        return ns / 1e9 * (interval_scale(scales, first, end) if scales else 1.0)

    rep.raw_wall_s = sum(ns for ns, _, _ in commands) / 1e9
    rep.wall_s = sum(seconds(c) for c in commands)
    rep.simulate_s = seconds(commands[-1])
    rep.speed = statistics.fmean(scales) if scales else 1.0
    rep.tick_ms = [seconds(t) * 1e3 for t in probes.ticks]
    rep.decide_ms = [seconds(d) * 1e3 for d in probes.decides]
    if rep.failures:
        return rep
    try:
        summary, sim = probes.experiments[-1]
        rep.ticks = sim.tick
        rep.failures += check_simulation(summary, sim)
        rep.figures = simulated_metrics(summary, sim)
        figures, bad = training_outputs(params, out)
        rep.figures.update(figures)
        rep.failures += bad
        rep.digest = digest(out)
        if traced:
            rep.layers = layer_metrics(tracer, rep, summary, probes.drivers[-1].cache.stats)
    except Exception as exc:  # noqa: BLE001 - a broken output fails the repetition
        rep.failures.append(f"output check raised {exc!r}")
    return rep


def layer_metrics(tracer, rep: Rep, summary, cache_stats) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    from tracer import COMMAND_SPAN, TRACED_NAMES, Totals

    m: dict[str, float] = {}
    for name in TRACED_NAMES:
        t = tracer.totals.get(name, Totals())
        m[f"{name}.calls"] = t.calls
        m[f"{name}.busy_s"] = t.busy_ns / 1e9
        m[f"{name}.self_s"] = t.self_ns / 1e9
        m[f"{name}.us_per_call"] = t.busy_ns / 1e3 / t.calls if t.calls else 0.0
    steps = m["cluster.step_counts.calls"]
    m["cluster.queue_buckets_mean"] = tracer.queue_buckets / steps if steps else 0.0
    m["cluster.sanitized_actions"] = summary.sanitized_actions
    m["cache.l1.hits"] = cache_stats.l1.hits
    m["cache.l2.hits"] = cache_stats.l2.hits
    m["cache.l3.hits"] = cache_stats.l3.hits
    m["cache.l3.misses"] = cache_stats.l3.misses
    m["cache.evictions"] = cache_stats.l1.evictions + cache_stats.l2.evictions
    m["cache.expired"] = cache_stats.l1.expired + cache_stats.l2.expired
    m["cache.memory_hit_rate"] = cache_stats.memory_hit_rate
    metrics_calls = m["hybrid.metrics.calls"]
    m["hybrid.rollouts"] = tracer.rollouts
    rollout_steps = tracer.pair_totals.get(("hybrid.metrics", "cluster.step_counts"), Totals())
    m["hybrid.rollout_ticks"] = rollout_steps.calls
    m["hybrid.memo_hit_ratio"] = 1.0 - tracer.rollouts / metrics_calls if metrics_calls else 0.0
    results = tracer.hybrid_results
    m["hybrid.generations"] = sum(len(r.trace) for r in results)
    attempted = sum(r.refine_stats.attempted for r in results)
    improved = sum(r.refine_stats.improved for r in results)
    m["hybrid.refine.improved_ratio"] = improved / attempted if attempted else 0.0
    m["hybrid.converged_ratio"] = sum(r.converged for r in results) / len(results) if results else 0.0
    # The named layers' self time over the traced host time; what they leave
    # out is the self time of the benchmark's own span around each command.
    named = sum(t.self_ns for name, t in tracer.totals.items() if name != COMMAND_SPAN)
    m["trace.coverage_ratio"] = named / 1e9 / rep.raw_wall_s
    m["trace.spans"] = sum(1 for s in tracer.spans if s[4] == tracer.run_id)
    return m


def check_determinism(reps: list[Rep]) -> None:
    """Every repetition must reproduce the first good one bit for bit."""
    good = [r for r in reps if not r.failures]
    if not good:
        return
    ref = good[0]
    for rep in good[1:]:
        if rep.digest != ref.digest or rep.figures != ref.figures:
            rep.failures.append("outputs differ between repetitions of the same seed")


def run_metrics(reps: list[Rep], setup: list[float]) -> dict[str, dict]:
    """Every end-to-end metric of the run, from its untraced repetitions that
    passed the gate. Host times are at the reference speed."""
    good = [r for r in reps if not r.traced and not r.failures]
    m: dict[str, dict] = {
        "setup_s": describe(setup, "s", "lower"),
        "peak_rss_mb": describe(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB", "lower"
        ),
        "failed_ratio": describe(
            [sum(1 for r in reps if r.failures) / len(reps)], "ratio", "lower"
        ),
    }
    if not good:
        return m
    m["wall_s"] = describe([r.wall_s for r in good], "s", "lower")
    m["raw_wall_s"] = describe([r.raw_wall_s for r in good], "s", "lower")
    m["speed"] = describe([r.speed for r in good], "ratio", "higher")
    m["ticks_per_s"] = describe([r.ticks / r.simulate_s for r in good], "1/s", "higher")
    ticks = [v for r in good for v in r.tick_ms]
    decides = [v for r in good for v in r.decide_ms]
    if ticks:
        m["tick_ms_p50"] = describe(ticks, "ms", "lower", nearest_rank(ticks, 0.50))
        if len(ticks) >= 1000:  # at least ten samples beyond the 99th percentile
            m["tick_ms_p99"] = describe(ticks, "ms", "lower", nearest_rank(ticks, 0.99))
    if decides:
        m["decide_ms_p50"] = describe(decides, "ms", "lower", nearest_rank(decides, 0.50))
    units = {"sim_slo_miss_ratio": ("ratio", "lower"), "sim_tps": ("1/s", "higher"),
             **RECORD_ONLY}
    for name in good[0].figures:
        unit, better = units[name]
        m[name] = describe([r.figures[name] for r in good], unit, better)
    return m


def trace_metrics(reps: list[Rep]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions that passed the
    gate, and the traced ÷ untraced host time."""
    traced = [r for r in reps if r.traced and not r.failures]
    plain = [r for r in reps if not r.traced and not r.failures]
    if not traced or not plain:
        return {}
    m = {name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers}
    m["trace.overhead_ratio"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
    )
    return m


def run_workload(args, spec: dict) -> int:
    from tracer import Patches, Probes, Tracer
    from workloads import WORKLOADS, build_inputs, commands

    name, params = args.workload, WORKLOADS[args.workload]
    setup = [time_setup(args) for _ in range(SETUP_PROBES)]
    inputs = build_inputs(params, args.seed, OUT_DIR / "work" / f"{name}-seed{args.seed}")
    argvs = commands(params, inputs)

    patches, probes = Patches(), Probes()
    # Spans leave out the speed sampler's time, as the probes' intervals do.
    tracer = Tracer(lambda: time.perf_counter_ns() - probes.sampler.total_ns) if args.trace else None
    probes.install(patches)
    if tracer:
        tracer.install(patches)
    reps: list[Rep] = []
    deadline = time.perf_counter() + args.seconds
    try:
        while len(reps) < MIN_REPS or time.perf_counter() < deadline or (tracer and len(reps) % 2):
            traced = bool(tracer) and len(reps) % 2 == 1
            run_id = f"{name}-seed{args.seed}-rep{len(reps)}"
            reps.append(run_rep(params, argvs, inputs, probes, tracer, traced, run_id))
    finally:
        patches.restore()
    check_determinism(reps)

    failures = [f for r in reps for f in r.failures]
    metrics = run_metrics(reps, setup)
    layers = trace_metrics(reps) if tracer else {}
    good = [r for r in reps if not r.failures]
    record = {
        "workload": {"name": name, "params": params,
                     "why": next(w["why"] for w in spec["workloads"] if w["name"] == name)},
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "machine": machine(),
        "git_commit": git_commit(),
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r.failures),
        "failures": sorted(set(failures)),
        "digest": good[0].digest if good else None,
        "metrics": metrics,
        "layers": layers,
        "reps": [{"traced": r.traced, "raw_wall_s": r.raw_wall_s, "wall_s": r.wall_s,
                  "speed": r.speed, "failed": bool(r.failures)} for r in reps],
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    if tracer:
        tracer.write_spans(OUT_DIR / "spans" / f"{name}-seed{args.seed}.jsonl")

    print(f"{name} seed={args.seed} reps={len(reps)} failed={record['failed']} "
          f"digest={record['digest']}")
    for reason in record["failures"]:
        print(f"  FAILED: {reason}")
    for metric, stat in metrics.items():
        print(f"  {metric:20s} {stat['value']:.6g} {stat['unit']} "
              f"(median {stat['median']:.6g}, q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n={stat['n']})")

    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        reported = {metric: {"value": layers.get(metric), "unit": unit} for metric, unit in wanted}
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        reported = {metric: {"value": metrics[metric]["value"] if metric in metrics else None,
                             "unit": unit} for metric, unit in wanted}
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": reported,
    }))
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tradesim" / "__init__.py").is_file():
        print(f"no tradesim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.workload == "all":
        return run_all(args, names)
    if args.setup_probe:
        from tracer import SpeedSampler  # imports numpy

        sampler = SpeedSampler()
        sampler.start()
        from workloads import WORKLOADS, build_inputs  # imports tradesim

        build_inputs(WORKLOADS[args.workload], args.seed,
                     OUT_DIR / "work" / f"{args.workload}-seed{args.seed}-probe")
        sampler.stop()
        print(json.dumps({"cal_ns": sampler.cal_ns}))
        return 0
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
