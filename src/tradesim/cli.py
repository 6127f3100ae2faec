"""Command-line harness: generate traces, run scheduler experiments, train the
predictor and the DRL policy, and compare runs.

Exit codes: 0 ok, 1 configuration error, 2 runtime error, 3 training divergence.
Every command prints its fully resolved configuration (defaults included)
before running; that JSON reproduces the run when fed back through the flags.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import SCHEDULER_OPTIONS, make_scheduler
from .cache import CacheConfig, TieredCache, ZipfAccessDriver
from .cluster import (
    ClusterSim,
    ClusterTopology,
    NoiseSpec,
    SchedulingAction,
    load_topology,
    write_trace_csv,
)
from .errors import ConfigError, DivergenceError, WarmupError, from_json, read_json
from .lstm import (
    ForecastModel,
    LstmConfig,
    TrainSpec,
    build_dataset,
    load_checkpoint,
    save_checkpoint,
    save_curve_csv,
    train,
)
from .report import (
    RunSummary,
    compare_runs,
    load_summary,
    save_comparison_csv,
    save_summary,
    weighted_percentile,
)
from .workload import (
    FeatureScaling,
    TickHistory,
    WorkloadScenario,
    generate_tick_counts,
    load_scenario,
    volume_history,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_DIVERGENCE = 3


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    topology: str
    scheduler: str = "round-robin"
    scheduler_config: str | None = None
    predictor: str | None = None
    seed: int = 0
    out: str = "runs/out"
    decision_interval: int = 10
    noise_std: float = 0.0
    predictor_interval: int = 5
    predictor_threshold: float = 2.0
    predictor_cooldown: int = 60
    cache_keys: int = 20_000
    cache_accesses_per_tick: int = 50

    def validate(self) -> "ExperimentConfig":
        if not Path(self.scenario).exists():
            raise ConfigError(f"scenario file not found: {self.scenario}")
        if not Path(self.topology).exists():
            raise ConfigError(f"topology file not found: {self.topology}")
        if self.scheduler not in SCHEDULER_OPTIONS:
            raise ConfigError(f"unknown scheduler kind {self.scheduler!r}")
        if self.scheduler_config and not Path(self.scheduler_config).exists():
            raise ConfigError(f"scheduler config not found: {self.scheduler_config}")
        if self.predictor and not Path(self.predictor).exists():
            raise ConfigError(f"predictor checkpoint not found: {self.predictor}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.decision_interval < 1:
            raise ConfigError("decision interval must be >= 1 tick")
        if self.predictor_interval < 1:
            raise ConfigError(f"predictor_interval must be >= 1 tick, got {self.predictor_interval}")
        if not self.predictor_threshold > 0:
            raise ConfigError(f"predictor_threshold must be > 0, got {self.predictor_threshold}")
        if self.predictor_cooldown < 0:
            raise ConfigError(f"predictor_cooldown must be >= 0 ticks, got {self.predictor_cooldown}")
        if self.cache_accesses_per_tick < 0:
            raise ConfigError(
                f"cache_accesses_per_tick must be >= 0, got {self.cache_accesses_per_tick}"
            )
        NoiseSpec(std=self.noise_std)
        return self


def _echo_resolved(config) -> None:
    print(json.dumps(asdict(config), indent=2))


def _echo_flags(args) -> None:
    """Print every flag of a command as parsed, defaults included."""
    print(json.dumps({k: v for k, v in vars(args).items() if k not in ("fn", "command")}, indent=2))


def _load_inputs(
    scenario_path: str, topology_path: str
) -> tuple[WorkloadScenario, ClusterTopology]:
    """The scenario and the topology, which must agree on the tick length:
    arrival rates and TPS use the scenario's, queue times the topology's."""
    scenario, topology = load_scenario(scenario_path), load_topology(topology_path)
    if scenario.tick_length != topology.tick_length:
        raise ConfigError(
            f"scenario tick_length {scenario.tick_length} s != topology tick_length "
            f"{topology.tick_length} s"
        )
    return scenario, topology


def _burst_flags(
    model: ForecastModel | None, scenario: WorkloadScenario, config: ExperimentConfig
) -> list[bool]:
    """Per tick, whether the predictor's forecast due then flags a burst.

    A forecast is due on the ticks t >= `min_history()` that are multiples of
    `predictor_interval`, from the volume of ticks [0, t). Arrivals are open
    loop, so every forecast of the run is made here, before the loop, from the
    horizon's volume history; the loop's cooldown decides which flags act."""
    flags = [False] * scenario.horizon
    if model is None:
        return flags
    ends = np.arange(model.min_history(), scenario.horizon)
    ends = ends[ends % config.predictor_interval == 0]
    if ends.size:
        history = model.configure_history(volume_history(scenario))
        forecasts = model.predict_and_warn(history, ends, config.predictor_threshold)
        for t, forecast in zip(ends.tolist(), forecasts):
            flags[t] = forecast.burst_flag
    return flags


def run_experiment(config: ExperimentConfig) -> tuple[RunSummary, ClusterSim]:
    """Deterministic simulate loop: scheduler decisions on the decision grid,
    optional predictor-triggered proactive scale-ups, live cache hit rate."""
    config.validate()
    scenario, topology = _load_inputs(config.scenario, config.topology)
    options = {}
    if config.scheduler_config:
        options = read_json(config.scheduler_config, "scheduler config")
    scheduler = make_scheduler(
        config.scheduler, seed=config.seed, scenario=scenario, topology=topology,
        options=options,
    )
    model: ForecastModel | None = load_checkpoint(config.predictor) if config.predictor else None

    sim = ClusterSim(
        topology,
        seed=config.seed,
        noise=NoiseSpec(std=config.noise_std),
        record_trace=True,
    )
    cache = TieredCache(CacheConfig())
    driver = ZipfAccessDriver(
        cache, n_keys=config.cache_keys, seed=config.seed,
        per_tick_cap=config.cache_accesses_per_tick,
    )
    burst_at = _burst_flags(model, scenario, config)
    last_warn_tick = -(10**9)
    util_cpu_sum = np.zeros(3)
    util_ticks = 0

    for t in range(scenario.horizon):
        counts = generate_tick_counts(scenario, t)

        action = None
        if burst_at[t] and t - last_warn_tick >= config.predictor_cooldown:
            noop = sim.no_op_action()
            action = SchedulingAction(
                instance_delta=np.ones(sim.k, dtype=int),
                migration=noop.migration,
                priority=noop.priority,
                quota=noop.quota,
            )
            last_warn_tick = t
        if action is None and t % config.decision_interval == 0:
            # per-service utilization signal: the latency model's contention factor
            action = scheduler.decide(sim, sim.service_rho(), t)

        sim.step_counts(action, counts)  # None holds the configuration
        arrived = int(counts.sum())
        sim.cache_hit_rate = driver.on_tick(t * scenario.tick_length, arrived)
        util_cpu_sum += sim.util_obs.sum(axis=0) / sim.n  # .mean(axis=0), without its wrapper
        util_ticks += 1

    samples, weights = sim.all_latency_samples()
    if samples.size:
        mean_ms = float(np.average(samples, weights=weights))
        std_ms = float(np.sqrt(np.average((samples - mean_ms) ** 2, weights=weights)))
        p50, p95, p99 = weighted_percentile(samples, weights, (0.5, 0.95, 0.99))
    else:
        mean_ms = std_ms = p50 = p95 = p99 = 0.0
    mean_util = util_cpu_sum / max(util_ticks, 1)

    return RunSummary(
        scenario_id=Path(config.scenario).stem,
        scheduler=config.scheduler + ("+predictor" if model else ""),
        seed=config.seed,
        mean_latency_ms=mean_ms,
        std_latency_ms=std_ms,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_cpu_util=float(mean_util[0]),
        mean_mem_util=float(mean_util[1]),
        mean_net_util=float(mean_util[2]),
        achieved_tps=sim.completed_total / (scenario.horizon * scenario.tick_length),
        sanitized_actions=sim.sanitized_actions,
        cache_hit_rate=cache.stats.memory_hit_rate,
        queue_backlog_integral=sim.backlog_integral,
        first_scale_up_tick=sim.first_scale_up_tick,
    ), sim


def _load_experiment_config(path: Path) -> ExperimentConfig:
    data = read_json(path, "config")
    known = [f.name for f in fields(ExperimentConfig)]
    if isinstance(data, dict) and (unknown := sorted(set(data).difference(known))):
        raise ConfigError(
            f"config {path} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(known)}"
        )
    return from_json(ExperimentConfig, data, f"config {path}")


def cmd_simulate(args) -> int:
    if args.config:
        config = _load_experiment_config(Path(args.config))
    else:
        if not args.scenario or not args.topology:
            raise ConfigError("simulate needs --scenario and --topology (or --config)")
        config = ExperimentConfig(
            scenario=args.scenario,
            topology=args.topology,
            scheduler=args.scheduler,
            scheduler_config=args.scheduler_config,
            predictor=args.predictor,
            seed=args.seed,
            out=args.out,
            decision_interval=args.decision_interval,
            noise_std=args.noise_std,
        )
    _echo_resolved(config)
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    summary, sim = run_experiment(config)
    save_summary(summary, out / "summary.json")
    write_trace_csv(sim, out / "trace.csv")
    (out / "resolved_config.json").write_text(json.dumps(asdict(config), indent=2) + "\n")
    print(f"summary written to {out / 'summary.json'}")
    return EXIT_OK


def cmd_generate(args) -> int:
    _echo_flags(args)
    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("tick,service_id,work_units,payload_bytes\n")
        for t in range(scenario.horizon):
            for sid, count in enumerate(generate_tick_counts(scenario, t).tolist()):
                spec = scenario.service_mix[sid]
                fh.write(f"{t},{sid},{spec.work_units!r},{spec.payload_bytes}\n" * count)
    print(f"trace written to {out}")
    return EXIT_OK


def _dataset_history(path: Path) -> TickHistory:
    """Volume history from a (tick, volume, ...) CSV with a header line."""
    history = TickHistory()
    for lineno, line in enumerate(path.read_text().strip().split("\n")[1:], start=2):
        cols = line.split(",")
        try:
            volume = float(cols[1])
        except (IndexError, ValueError):
            raise ConfigError(
                f"dataset {path} line {lineno}: no numeric volume in {line!r}"
            ) from None
        if not np.isfinite(volume):
            raise ConfigError(f"dataset {path} line {lineno}: volume {volume} is not finite")
        history.append(volume)
    if not len(history):
        raise ConfigError(f"dataset {path} has no data rows")
    return history


def _phase_done(timings: dict[str, dict[str, int]], name: str, started: int) -> int:
    """Record the host ns since `started` as phase `name` in `timings["phase_ns"]`,
    and the process's peak RSS so far (`ru_maxrss`, KiB on Linux) in
    `timings["peak_rss_kib"]`; returns now."""
    now = time.perf_counter_ns()
    timings.setdefault("phase_ns", {})[name] = now - started
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timings.setdefault("peak_rss_kib", {})[name] = peak
    return now


def _write_timings(out: Path, timings: dict[str, dict[str, int]]) -> None:
    # host measurements, so kept apart from the checkpoint and curve, which are deterministic
    out.with_suffix(".timings.json").write_text(json.dumps(timings, indent=2) + "\n")


def _check_training_flags(args, minimums: dict[str, int]) -> None:
    """A training command's numeric flags: each flag of `minimums` at least its
    minimum, `--seed` >= 0 and `--learning-rate` finite and >= 0."""
    for name, least in {"seed": 0, **minimums}.items():
        value = getattr(args, name)
        if value < least:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")
    if not (np.isfinite(args.learning_rate) and args.learning_rate >= 0):
        raise ConfigError(f"--learning-rate must be finite and >= 0, got {args.learning_rate}")


def cmd_train_predictor(args) -> int:
    _echo_flags(args)
    _check_training_flags(args, {"epochs": 0, "seq_len": 1, "horizon_ticks": 1})
    if not args.dataset and not args.scenario:
        raise ConfigError("train-predictor needs --scenario or --dataset")
    if args.dataset and not Path(args.dataset).exists():
        raise ConfigError(f"dataset not found: {args.dataset}")
    timings: dict[str, dict[str, int]] = {}
    started = time.perf_counter_ns()
    if args.dataset:
        history = _dataset_history(Path(args.dataset))
    else:
        scenario = load_scenario(args.scenario)
        # the horizon is one trading session, so the time features sweep their full range
        history = replace(
            volume_history(scenario), ticks_per_day=scenario.horizon, market_open_tick=0,
            market_close_tick=scenario.horizon,
        )
    scale = max(float(np.max(history.volume)), 1.0)
    session_minutes = len(history) * history.tick_length / 60.0
    scaling = FeatureScaling(volume_scale=scale, session_minutes=session_minutes)
    started = _phase_done(timings, "history", started)
    try:
        X, y = build_dataset(
            history, seq_len=args.seq_len, window=args.window,
            horizon=args.horizon_ticks, scaling=scaling,
        )
    except WarmupError as exc:  # too few ticks for --window, --seq-len and --horizon-ticks
        raise ConfigError(f"{exc} ({len(history)} ticks)") from exc
    started = _phase_done(timings, "dataset", started)
    config = LstmConfig(hidden_size=args.hidden, layers=args.layers, dropout=args.dropout)
    spec = TrainSpec(learning_rate=args.learning_rate, epochs=args.epochs, seed=args.seed)
    result = train(X, y, config, spec)
    started = _phase_done(timings, "train", started)
    model = ForecastModel(
        params=result.params, config=config, scaling=scaling, seq_len=args.seq_len,
        feature_window=args.window, horizon=args.horizon_ticks,
        residual_quantiles=result.residual_quantiles,
        ticks_per_day=history.ticks_per_day,
        market_open_tick=history.market_open_tick,
        market_close_tick=history.market_close_tick,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out)
    save_curve_csv(result.curve, out.with_suffix(".curve.csv"))
    _phase_done(timings, "save", started)
    _write_timings(out, timings)
    print(f"checkpoint written to {out} (best val loss {result.best_val_loss:.6f})")
    return EXIT_OK


def cmd_train_drl(args) -> int:
    from .drl.env import DecisionEnv
    from .drl.policy import SchedulerPolicy, StateEncoder, save_policy
    from .drl.ppo import TrainConfig, train_scheduler

    _echo_flags(args)
    _check_training_flags(args, {"episodes": 0, "decision_interval": 1})
    timings: dict[str, dict[str, int]] = {}
    started = time.perf_counter_ns()
    scenario, topology = _load_inputs(args.scenario, args.topology)
    encoder = StateEncoder(topology.service_count, topology.node_count)
    policy = SchedulerPolicy.build(encoder, seed=args.seed)
    env = DecisionEnv(scenario, topology, encoder, policy, decision_interval=args.decision_interval)
    config = TrainConfig(
        total_episodes=args.episodes,
        episode_length=max(1, scenario.horizon // args.decision_interval),
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    started = _phase_done(timings, "setup", started)
    params, curve = train_scheduler(env, policy.core, config)
    started = _phase_done(timings, "train", started)
    policy.params = params
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_policy(policy, out)
    lines = ["episode,mean_reward,loss,clip_fraction"]
    lines += [
        f"{c['episode']},{c['mean_reward']!r},{c['loss']!r},{c['clip_fraction']!r}"
        for c in curve
    ]
    out.with_suffix(".curve.csv").write_text("\n".join(lines) + "\n")
    _phase_done(timings, "save", started)
    _write_timings(out, timings)
    print(f"policy written to {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    _echo_flags(args)
    base = load_summary(args.baseline)
    cand = load_summary(args.candidate)
    try:
        table = compare_runs(base, cand)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        save_comparison_csv(table, args.out)
    for metric, row in table.items():
        print(f"{metric}: {row['before']:.4g} -> {row['after']:.4g} ({row['improvement_pct']:+.1f}%)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tradesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="materialize a request trace CSV")
    gen.add_argument("--scenario", required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_generate)

    simp = sub.add_parser("simulate", help="run one scheduler experiment")
    simp.add_argument("--config", default=None, help="resolved-config JSON; overrides other flags")
    simp.add_argument("--scenario", default=None)
    simp.add_argument("--topology", default=None)
    simp.add_argument("--scheduler", default="round-robin")
    simp.add_argument("--scheduler-config", default=None)
    simp.add_argument("--predictor", default=None)
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--out", default="runs/out")
    simp.add_argument("--decision-interval", type=int, default=10)
    simp.add_argument("--noise-std", type=float, default=0.0)
    simp.set_defaults(fn=cmd_simulate)

    tp = sub.add_parser("train-predictor", help="train the load predictor")
    tp.add_argument("--scenario", default=None)
    tp.add_argument("--dataset", default=None, help="CSV of (tick, volume, ...)")
    tp.add_argument("--out", required=True)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--epochs", type=int, default=40)
    tp.add_argument("--hidden", type=int, default=128)
    tp.add_argument("--layers", type=int, default=3)
    tp.add_argument("--dropout", type=float, default=0.3)
    tp.add_argument("--seq-len", type=int, default=12)
    tp.add_argument("--window", type=int, default=16)
    tp.add_argument("--horizon-ticks", type=int, default=60)
    tp.add_argument("--learning-rate", type=float, default=3e-3)
    tp.set_defaults(fn=cmd_train_predictor)

    td = sub.add_parser("train-drl", help="train the PPO scheduler")
    td.add_argument("--scenario", required=True)
    td.add_argument("--topology", required=True)
    td.add_argument("--out", required=True)
    td.add_argument("--seed", type=int, default=0)
    td.add_argument("--episodes", type=int, default=60)
    td.add_argument("--decision-interval", type=int, default=10)
    td.add_argument("--learning-rate", type=float, default=3e-4)
    td.set_defaults(fn=cmd_train_drl)

    cmp_ = sub.add_parser("compare", help="improvement table for two summaries")
    cmp_.add_argument("--baseline", required=True)
    cmp_.add_argument("--candidate", required=True)
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except Exception as exc:  # noqa: BLE001 - map to the runtime exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
