"""Training environments: the cluster decision-interval wrapper and a tiny
contextual bandit used to sanity-check the optimizer end to end.

Both reset and step a group of episodes at once, one row per episode, and
state how many steps an episode takes (`steps_per_episode`), so a trainer can
run the episodes that share its parameters in lockstep."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..cluster import ClusterSim, ClusterTopology, NoiseSpec, SchedulingAction, SystemState, reward
from ..workload import WorkloadScenario, generate_tick_counts
from .policy import SchedulerPolicy, StateEncoder


@dataclass
class DecisionEnv:
    """One env step = one scheduling decision applied to the simulator, then
    `decision_interval` simulated ticks of the scenario workload.

    A group of episodes steps as the rows of one `ClusterSim`, row p being the
    group's p-th episode. Per row, every array operation and reward is the
    one-cluster one, and the rows draw nothing: the sim has zero noise and
    keeps no run record, so it draws neither noise nor jitter. Every row sees
    the scenario's counts, as every episode did, so a row's observations and
    rewards are those of its episode stepped alone, bit for bit."""

    scenario: WorkloadScenario
    topology: ClusterTopology
    encoder: StateEncoder
    mapper: SchedulerPolicy  # supplies record -> SchedulingAction mapping
    decision_interval: int = 10

    sim: ClusterSim | None = None
    _states: list[SystemState] = field(default_factory=list)
    _tick: int = 0

    @property
    def steps_per_episode(self) -> int:
        """Decisions until the scenario's horizon: the last interval may be short."""
        return -(-self.scenario.horizon // self.decision_interval)

    def reset(self, episodes: Sequence[int]) -> np.ndarray:
        """Start one row per episode at the topology's initial configuration;
        returns the (rows, dim) observations."""
        rows, topo = len(episodes), self.topology
        self.sim = ClusterSim(
            replace(
                topo,
                initial_placement=np.stack([topo.initial_placement] * rows),
                initial_quota=np.stack([topo.initial_quota] * rows),
                initial_priority=np.stack([topo.initial_priority] * rows),
            ),
            noise=NoiseSpec(std=0.0),
        )
        self._tick = 0
        return self._observe()

    def step(self, records: Sequence[dict[str, np.ndarray]]):
        """Apply each row's decision and step its interval; returns the
        (rows, dim) observations, the rows' rewards, whether the episodes are
        done, and an empty info dict. A row's reward is the mean of its ticks'
        rewards, each charging the action applied to the row at that tick.
        The ticks after the first hold the configuration it left."""
        assert self.sim is not None, "call reset() first"
        sim, rewards = self.sim, []
        actions = [self.mapper.to_scheduling_action(r, s) for r, s in zip(records, self._states)]
        action = SchedulingAction(*(
            np.stack([getattr(a, f.name) for a in actions]) for f in fields(SchedulingAction)
        ))
        for _ in range(self.decision_interval):
            if self._tick >= self.scenario.horizon:
                break
            counts = generate_tick_counts(self.scenario, self._tick)
            prev_quota = sim.quota
            applied = sim.step_counts(action, counts)
            rewards.append([
                reward(prev_quota[p], sim.last_latency_ms[p], sim.util_obs[p], applied.row(p),
                       sim.reward_spec)
                for p in range(len(actions))
            ])
            action = None  # the ticks after the first hold
            self._tick += 1
        done = self._tick >= self.scenario.horizon
        return self._observe(), [float(np.mean(r)) for r in zip(*rewards)], done, {}

    def _observe(self) -> np.ndarray:
        state = self.sim.observe_state()
        self._states = [state.row(p) for p in range(len(self.sim.quota))]
        return np.stack([self.encoder.encode(s) for s in self._states])


class ContextualBandit:
    """Two contexts, two arms; arm == context index pays 1. Known optimum:
    expected reward 1.0 under the greedy optimal policy. Each episode of a
    group draws its contexts from its own generator."""

    def __init__(self, seed: int = 0, steps_per_episode: int = 16):
        self.seed = seed
        self.steps_per_episode = steps_per_episode
        self._rngs: list[np.random.Generator] = []
        self._step = 0
        self._contexts: list[int] = []

    def _draw_contexts(self) -> np.ndarray:
        self._contexts = [int(rng.integers(2)) for rng in self._rngs]
        onehot = np.zeros((len(self._contexts), 2))
        onehot[np.arange(len(self._contexts)), self._contexts] = 1.0
        return onehot

    def reset(self, episodes: Sequence[int]) -> np.ndarray:
        self._rngs = [np.random.default_rng([self.seed, episode]) for episode in episodes]
        self._step = 0
        return self._draw_contexts()

    def step(self, records: Sequence[dict[str, np.ndarray]]):
        rewards = [
            1.0 if int(np.asarray(r["arm"]).reshape(-1)[0]) == context else 0.0
            for r, context in zip(records, self._contexts)
        ]
        self._step += 1
        done = self._step >= self.steps_per_episode
        return self._draw_contexts(), rewards, done, {}

    def optimal_rate(self, core, params, trials: int = 400) -> float:
        """Fraction of contexts where the greedy arm is optimal."""
        hits = 0
        for i in range(trials):
            ctx = i % 2
            onehot = np.zeros(2)
            onehot[ctx] = 1.0
            record, _ = core.act(params, onehot, "greedy")
            hits += int(record["arm"][0]) == ctx
        return hits / trials
