"""Training environments: the cluster decision-interval wrapper and a tiny
contextual bandit used to sanity-check the optimizer end to end."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import ClusterSim, ClusterTopology, NoiseSpec, reward
from ..workload import WorkloadScenario, generate_tick_counts
from .policy import SchedulerPolicy, StateEncoder


@dataclass
class DecisionEnv:
    """One env step = one scheduling decision applied to the simulator, then
    `decision_interval` simulated ticks of the scenario workload."""

    scenario: WorkloadScenario
    topology: ClusterTopology
    encoder: StateEncoder
    mapper: SchedulerPolicy  # supplies record -> SchedulingAction mapping
    decision_interval: int = 10
    episode_seed_base: int = 0

    sim: ClusterSim | None = None
    _state = None
    _tick: int = 0

    def reset(self, episode: int = 0) -> np.ndarray:
        self.sim = ClusterSim(
            self.topology,
            seed=int(self.episode_seed_base + episode),
            noise=NoiseSpec(std=0.0),
        )
        self._tick = 0
        self._state = self.sim.observe_state()
        return self.encoder.encode(self._state)

    def step(self, record: dict[str, np.ndarray]):
        """Apply the decision and step its interval; the reward is the mean of
        its ticks' rewards, each charging the action applied at that tick.
        The ticks after the first hold the configuration it left."""
        assert self.sim is not None, "call reset() first"
        sim, rewards = self.sim, []
        action = self.mapper.to_scheduling_action(record, self._state)
        for _ in range(self.decision_interval):
            if self._tick >= self.scenario.horizon:
                break
            counts = generate_tick_counts(self.scenario, self._tick)
            prev_quota = sim.quota
            applied = sim.step_counts(action, counts)
            rewards.append(
                reward(prev_quota, sim.last_latency_ms, sim.util_obs, applied, sim.reward_spec)
            )
            action = None  # the ticks after the first hold
            self._tick += 1
        self._state = sim.observe_state()
        done = self._tick >= self.scenario.horizon
        return self.encoder.encode(self._state), float(np.mean(rewards)), done, {}


class ContextualBandit:
    """Two contexts, two arms; arm == context index pays 1. Known optimum:
    expected reward 1.0 under the greedy optimal policy."""

    def __init__(self, seed: int = 0, steps_per_episode: int = 16):
        self.seed = seed
        self.steps_per_episode = steps_per_episode
        self._rng = np.random.default_rng(seed)
        self._episode = 0
        self._step = 0
        self._context = 0

    def _draw_context(self) -> np.ndarray:
        self._context = int(self._rng.integers(2))
        onehot = np.zeros(2)
        onehot[self._context] = 1.0
        return onehot

    def reset(self, episode: int = 0) -> np.ndarray:
        self._episode = episode
        self._rng = np.random.default_rng([self.seed, episode])
        self._step = 0
        return self._draw_context()

    def step(self, record: dict[str, np.ndarray]):
        arm = int(np.asarray(record["arm"]).reshape(-1)[0])
        reward = 1.0 if arm == self._context else 0.0
        self._step += 1
        done = self._step >= self.steps_per_episode
        return self._draw_context(), reward, done, {}

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
