"""The benchmark's four workloads: seeded input files, the CLI commands each
runs, and the checks and figures taken from their outputs.

Every workload ends with a ``simulate`` run, so the simulated-cluster metrics
and the simulate-loop host timings exist on all four. Arrivals are the
simulator's open-loop Poisson stream: the generator never waits for the
cluster, so a badly scheduled cluster builds backlog instead of seeing less
load. Inputs depend only on the seed; the program sees only the JSON files
written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from tradesim.cli import main as cli_main
from tradesim.cluster import save_topology, uniform_topology
from tradesim.drl.policy import load_policy
from tradesim.lstm import load_checkpoint
from tradesim.workload import BurstSpec, RampSpec, WorkloadScenario, save_scenario

# Episodes at the end of the PPO curve averaged into final_reward.
CLOSING_EPISODES = 2

# The workload seed picks the arrival streams. The program's own --seed (GA,
# jitter, cache keys, model and policy initialisation) stays fixed: with it
# following the workload seed, some seeds sent the hybrid scheduler into a
# deep-backlog regime that doubled the spread of host times between seeds.
PROGRAM_SEED = 0


# Parameters of each workload, keyed by the names in BENCHMARK.json.
OVERLOADED = {"node_count": 2, "node_cpu": 2000.0, "quota": 0.08}  # as in c03/c04
TIDE = {"base_rate": 200.0, "day": 300, "days": 3, "tide": 0.8,
        "burst_at": 240, "burst_len": 15, "burst_mag": 2.5}
WORKLOADS: dict[str, dict] = {
    "open-burst-threshold": {
        "kind": "simulate",
        "scheduler": "threshold-autoscaler",
        "scenario": {"base_rate": 55.0, "horizon": 420,
                     "ramp": [60, 180, 1000, 3000], "burst": [260, 60, 3.0]},
        "topology": OVERLOADED,
        "decision_interval": 10,
    },
    "open-burst-hybrid": {
        "kind": "simulate",
        "scheduler": "hybrid",
        "scenario": {"base_rate": 55.0, "horizon": 100,
                     "ramp": [10, 40, 1000, 3000], "burst": [60, 30, 3.0]},
        "topology": OVERLOADED,
        "decision_interval": 10,
    },
    "tidal-predictor": {
        "kind": "predictor",
        "scheduler": "threshold-autoscaler",
        "scenario": TIDE,
        "topology": {"node_count": 4},
        "train": ["--epochs", "2"],
        "decision_interval": 10,
    },
    "tidal-drl": {
        "kind": "drl",
        "scheduler": "drl",
        "scenario": TIDE,
        "topology": {"node_count": 4},
        "train": ["--episodes", "6"],
        "decision_interval": 10,
    },
}


# --- seeded inputs -------------------------------------------------------------


def _market_open(p: dict, seed: int) -> WorkloadScenario:
    """Concurrent-user ramp into the open, then a rate burst."""
    start, duration, users_from, users_to = p["ramp"]
    burst_start, burst_len, magnitude = p["burst"]
    return WorkloadScenario(
        base_rate=p["base_rate"],
        peak_rate=p["base_rate"] * (users_to / users_from) * magnitude,
        horizon=p["horizon"],
        seed=seed,
        ramp=RampSpec(start, duration, users_from, users_to),
        bursts=(BurstSpec(burst_start, burst_len, magnitude),),
    )


def _tidal(p: dict, seed: int) -> WorkloadScenario:
    """Multi-day tide with one step per tick and a recurring burst each day."""
    day, days = p["day"], p["days"]
    profile = tuple(
        (t, 1.0 + p["tide"] * math.sin(2.0 * math.pi * t / day) ** 2) for t in range(day * days)
    )
    return WorkloadScenario(
        base_rate=p["base_rate"],
        peak_rate=p["base_rate"] * (1.0 + p["tide"]) * p["burst_mag"],
        horizon=day * days,
        seed=seed,
        tidal_profile=profile,
        bursts=tuple(BurstSpec(d * day + p["burst_at"], p["burst_len"], p["burst_mag"])
                     for d in range(days)),
    )


def build_inputs(p: dict, seed: int, work: Path) -> dict[str, Path]:
    """Write the scenario, topology and scheduler-config JSON for one seed;
    the commands write their outputs under ``inputs["out"]``.

    Training workloads train on the seed's own arrivals and simulate a
    held-out stream of the same shape (scenario seed 2*seed + 1).
    """
    work.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, Path] = {"out": work / "out"}
    if p["kind"] == "simulate":
        scenario = _market_open(p["scenario"], 2 * seed)
        save_scenario(scenario, work / "scenario.json")
        inputs["scenario"] = work / "scenario.json"
    else:
        save_scenario(_tidal(p["scenario"], 2 * seed), work / "train.json")
        scenario = _tidal(p["scenario"], 2 * seed + 1)
        save_scenario(scenario, work / "heldout.json")
        inputs["train"] = work / "train.json"
        inputs["scenario"] = work / "heldout.json"
    topology = uniform_topology(services=scenario.service_mix, **p["topology"])
    save_topology(topology, work / "topology.json")
    inputs["topology"] = work / "topology.json"
    if p["kind"] == "drl":
        inputs["scheduler_config"] = work / "drl.json"
        inputs["scheduler_config"].write_text(
            json.dumps({"checkpoint": str(inputs["out"] / "policy.npz")})
        )
    return inputs


def commands(p: dict, inputs: dict[str, Path]) -> list[list[str]]:
    """CLI argument lists, in order; the last one is always ``simulate``."""
    out = inputs["out"]
    simulate = [
        "simulate", "--scenario", str(inputs["scenario"]), "--topology", str(inputs["topology"]),
        "--scheduler", p["scheduler"], "--seed", str(PROGRAM_SEED), "--out", str(out / "sim"),
        "--decision-interval", str(p["decision_interval"]),
    ]
    if p["kind"] == "simulate":
        return [simulate]
    if p["kind"] == "predictor":
        train = ["train-predictor", "--scenario", str(inputs["train"]),
                 "--out", str(out / "model.npz"), "--seed", str(PROGRAM_SEED), *p["train"]]
        return [train, simulate + ["--predictor", str(out / "model.npz")]]
    train = ["train-drl", "--scenario", str(inputs["train"]), "--topology", str(inputs["topology"]),
             "--out", str(out / "policy.npz"), "--seed", str(PROGRAM_SEED),
             "--decision-interval", str(p["decision_interval"]), *p["train"]]
    return [train, simulate + ["--scheduler-config", str(inputs["scheduler_config"])]]


def run_command(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


# --- outputs: checks, figures, digest -------------------------------------------


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def check_simulation(summary, sim) -> list[str]:
    """Invariants of one simulate run; returns the violated ones."""
    bad = []
    if not sim.conservation_ok():
        bad.append("requests not conserved (generated != completed + queued)")
    utils = [sim.util_true, sim.util_obs] + [rec.util for rec in sim.trace]
    if not all(_finite(u) and np.all((u >= 0.0) & (u <= 1.0)) for u in utils):
        bad.append("utilization non-finite or outside [0, 1]")
    if np.any(sim.placement.sum(axis=1) < 1):
        bad.append("a service has no instance")
    if np.any(sim.placement.T.astype(float) @ sim.quota > 1.0 + 1e-9):
        bad.append("node quota commitment exceeds 1")
    numeric = [getattr(summary, f.name) for f in fields(summary)
               if isinstance(getattr(summary, f.name), (int, float))]
    if not _finite(numeric):
        bad.append("non-finite summary value")
    return bad


def simulated_metrics(summary, sim) -> dict[str, float]:
    samples, weights = sim.all_latency_samples()
    late = float(weights[samples > sim.reward_spec.T_target].sum())
    queued = float(sim.queue_len.sum())
    return {
        "sim_p95_ms": summary.p95_ms,
        "sim_slo_miss_ratio": (late + queued) / max(sim.generated_total, 1),
        "sim_tps": summary.achieved_tps,
        "sim_backlog_req_s": summary.queue_backlog_integral,
    }


def _curve(path: Path) -> dict[str, list[float]]:
    header, *rows = path.read_text().strip().split("\n")
    columns = header.split(",")
    values = [[float(v) for v in row.split(",")] for row in rows]
    return {c: [r[i] for r in values] for i, c in enumerate(columns)}


def training_outputs(p: dict, out: Path) -> tuple[dict[str, float], list[str]]:
    """Quality figures of the training command, and failed checks: finite
    losses and a checkpoint the program can load again."""
    bad: list[str] = []
    figures: dict[str, float] = {}
    if p["kind"] == "predictor":
        curve = _curve(out / "model.curve.csv")
        if not (_finite(curve["train_loss"]) and _finite(curve["val_loss"])):
            bad.append("non-finite predictor loss")
        figures["val_loss"] = min(curve["val_loss"])
        model = load_checkpoint(out / "model.npz")
        if not all(_finite(v) for v in model.params.values()):
            bad.append("reloaded predictor checkpoint has non-finite weights")
    elif p["kind"] == "drl":
        curve = _curve(out / "policy.curve.csv")
        if not (_finite(curve["mean_reward"]) and _finite(curve["loss"])):
            bad.append("non-finite PPO reward or loss")
        figures["final_reward"] = float(np.mean(curve["mean_reward"][-CLOSING_EPISODES:]))
        policy = load_policy(out / "policy.npz")
        if not all(_finite(v) for v in policy.params.values()):
            bad.append("reloaded policy checkpoint has non-finite weights")
    return figures, bad


def digest(out: Path) -> str:
    """sha256 over the deterministic outputs: summary.json, trace.csv, curve
    CSVs and the checkpoint arrays (hashed as arrays, not as zip files)."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.name in ("summary.json", "trace.csv") or path.name.endswith(".curve.csv"):
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
        elif path.suffix == ".npz":
            h.update(path.relative_to(out).as_posix().encode())
            with np.load(path) as data:
                for key in sorted(data.files):
                    arr = data[key]
                    h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
