"""Reference schedulers the hybrid approach is benchmarked against, plus the
adapter that turns an optimized chromosome into scheduling actions."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cluster import QUOTA_FLOOR, ClusterSim, SchedulingAction
from .errors import ConfigError, json_value
from .hybrid import Chromosome, HybridConfig, check_max_instances, hybrid_scheduling
from .optim import AdamState


class RoundRobinScheduler:
    """Static baseline: the initial round-robin placement, never adjusted."""

    name = "round-robin"

    def decide(self, sim: ClusterSim, service_rho: np.ndarray, tick: int) -> SchedulingAction:
        return sim.no_op_action()


class RandomScheduler:
    """Uniformly random valid action each decision; the sanity-floor baseline."""

    name = "random"

    def __init__(self, seed: int = 0, delta_span: int = 1):
        if delta_span < 0:
            raise ConfigError("delta_span must be >= 0")
        self._rng = np.random.default_rng([seed, 0xDEAD])
        self.delta_span = delta_span

    def decide(self, sim: ClusterSim, service_rho: np.ndarray, tick: int) -> SchedulingAction:
        k, n = sim.k, sim.n
        migration = np.zeros((k, n), dtype=int)
        if self._rng.random() < 0.3:
            migration[int(self._rng.integers(k)), int(self._rng.integers(n))] = 1
        return SchedulingAction(
            instance_delta=self._rng.integers(-self.delta_span, self.delta_span + 1, size=k),
            migration=migration,
            priority=self._rng.random(k),
            quota=np.clip(sim.quota + self._rng.normal(0, 0.05, size=k), QUOTA_FLOOR, 1.0),
        )


@dataclass
class ThresholdAutoscaler:
    """Reactive scaling: +1 instance above the high-water mark, -1 below the
    low-water mark, per service, honoring a cooldown."""

    scale_up_at: float = 0.8
    scale_down_at: float = 0.3
    cooldown_ticks: int = 30
    name: str = "threshold-autoscaler"
    _last_action_tick: dict[int, int] = field(default_factory=dict)

    def decide(self, sim: ClusterSim, service_rho: np.ndarray, tick: int) -> SchedulingAction:
        k = sim.k
        delta = np.zeros(k, dtype=int)
        for s in range(k):
            last = self._last_action_tick.get(s)
            if last is not None and tick - last < self.cooldown_ticks:
                continue
            if service_rho[s] > self.scale_up_at:
                delta[s] = 1
                self._last_action_tick[s] = tick
            elif service_rho[s] < self.scale_down_at and sim.placement[s].sum() > 1:
                delta[s] = -1
                self._last_action_tick[s] = tick
        return SchedulingAction(
            instance_delta=delta,
            migration=np.zeros((k, sim.n), dtype=int),
            priority=sim.priority.copy(),
            quota=sim.quota.copy(),
        )


def action_from_chromosome(sim: ClusterSim, target: Chromosome) -> SchedulingAction:
    """One decision step toward the target configuration: instance-count
    deltas, one migration per service toward under-filled nodes, and the
    target quotas/priorities."""
    k, n = sim.k, sim.n
    delta = target.placement.sum(axis=1) - sim.placement.sum(axis=1)
    migration = np.zeros((k, n), dtype=int)
    diff = target.placement - sim.placement
    for s in range(k):
        gain_nodes = np.flatnonzero(diff[s] > 0)
        loss_nodes = np.flatnonzero(diff[s] < 0)
        if gain_nodes.size and loss_nodes.size:
            migration[s, int(gain_nodes[0])] = 1
    return SchedulingAction(
        instance_delta=delta.astype(int),
        migration=migration,
        priority=target.priority.copy(),
        quota=target.quota.copy(),
    )


@dataclass
class HybridScheduler:
    """Re-plans with a short GA+RL burst each decision, on a rolling horizon
    (Perez et al., GECCO 2013): a decision after the first starts from the
    cluster's current configuration and the previous decision's best
    chromosome and elites, continues its refinement policy and Adam state,
    and runs half the generations."""

    scenario: object
    topology: object
    config: HybridConfig
    name: str = "hybrid"
    _decision: int = 0
    _carried: list = field(default_factory=list)  # the last decision's best and elites
    _params: dict | None = None
    _adam_state: AdamState | None = None

    def __post_init__(self) -> None:
        check_max_instances(self.config.max_instances, self.topology.service_count)

    def decide(self, sim: ClusterSim, service_rho: np.ndarray, tick: int) -> SchedulingAction:
        current = Chromosome(
            placement=sim.placement.copy(),
            quota=sim.quota.copy(),
            priority=sim.priority.copy(),
        )
        max_iter = self.config.max_iter if self._decision == 0 else max(1, self.config.max_iter // 2)
        run_config = replace(self.config, seed=self.config.seed + self._decision, max_iter=max_iter)
        result = hybrid_scheduling(
            self.scenario,
            self.topology,
            run_config,
            initial_population=[current, *self._carried],
            start_tick=tick,
            policy_params=self._params,
            adam_state=self._adam_state,
        )
        self._decision += 1
        # elites only: the offspring of the final population were never rolled out
        self._carried = [result.best, *result.population[: run_config.elite]]
        self._params, self._adam_state = result.params, result.adam_state
        return action_from_chromosome(sim, result.best)


@dataclass
class DrlScheduler:
    """Greedy trained policy; sampling mode is for continued exploration."""

    policy: object  # SchedulerPolicy
    mode: str = "greedy"
    seed: int = 0
    name: str = "drl"

    def __post_init__(self):
        self._rng = np.random.default_rng([self.seed, 0xD71])

    def decide(self, sim: ClusterSim, service_rho: np.ndarray, tick: int) -> SchedulingAction:
        action, _, _ = self.policy.act(sim.observe_state(), self.mode, self._rng)
        return action


# the HybridConfig fields a scheduler config can set; HybridConfig holds their defaults
_HYBRID_OPTIONS = (
    "population", "elite", "max_iter", "eval_ticks",
    "local_search_budget", "convergence_window", "max_instances",
)

# Options each scheduler kind accepts: name -> (JSON type, default).
SCHEDULER_OPTIONS: dict[str, dict[str, tuple]] = {
    "round-robin": {},
    "random": {"delta_span": (int, 1)},
    "threshold-autoscaler": {
        "scale_up_at": (float, 0.8),
        "scale_down_at": (float, 0.3),
        "cooldown_ticks": (int, 30),
    },
    "hybrid": {name: (int, getattr(HybridConfig, name)) for name in _HYBRID_OPTIONS},
    "drl": {"checkpoint": (str, None)},
}


def scheduler_options(kind: str, options) -> dict:
    """The scheduler's options with defaults filled in.

    An unknown kind, an option name no scheduler kind accepts, or a value of
    this kind's options that is not of the option's JSON type is a ConfigError.
    Options of other kinds are ignored, so one options dict can configure every
    scheduler of a comparison."""
    if kind not in SCHEDULER_OPTIONS:
        raise ConfigError(f"unknown scheduler kind {kind!r}")
    if not isinstance(options, dict):
        raise ConfigError(f"{kind} scheduler config must be a JSON object")
    accepted = SCHEDULER_OPTIONS[kind]
    unknown = sorted(set(options).difference(*SCHEDULER_OPTIONS.values()))
    if unknown:
        raise ConfigError(
            f"unknown {kind} scheduler option(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    return {
        name: json_value(tp, options[name], f"{kind} scheduler option {name!r}")
        if name in options else default
        for name, (tp, default) in accepted.items()
    }


def make_scheduler(kind: str, *, seed: int, scenario, topology, options: dict):
    """Factory for the CLI's scheduler kinds."""
    opts = scheduler_options(kind, options)
    if kind == "round-robin":
        return RoundRobinScheduler()
    if kind == "random":
        return RandomScheduler(seed=seed, **opts)
    if kind == "threshold-autoscaler":
        return ThresholdAutoscaler(**opts)
    if kind == "hybrid":
        config = HybridConfig(seed=seed, **opts)
        return HybridScheduler(scenario=scenario, topology=topology, config=config)
    from .drl.policy import load_policy

    if not opts["checkpoint"]:
        raise ConfigError("drl scheduler needs a trained checkpoint path")
    policy = load_policy(opts["checkpoint"])
    sizes = (policy.encoder.service_count, policy.encoder.node_count)
    if sizes != (topology.service_count, topology.node_count):
        raise ConfigError(
            f"drl checkpoint {opts['checkpoint']}: its encoder's (service_count, node_count) "
            f"{sizes} differ from the topology's {(topology.service_count, topology.node_count)}"
        )
    return DrlScheduler(policy=policy, seed=seed)
