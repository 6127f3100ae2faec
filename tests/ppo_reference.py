"""The one-episode-at-a-time PPO collection that `tradesim.drl` replaced, kept
as the oracle of its bit-identity tests.

`DecisionEnv` and `ContextualBandit` are the environments as they were before
episodes stepped in groups: a reset starts one episode, the decision env on a
one-cluster `ClusterSim` of its own (seeded per episode, though with zero
noise and no run record it draws nothing), the bandit on a generator of its
own. `train` is `PPOTrainer.train` as it was: each episode collected alone,
every act drawing its noise from the trainer's generator as it goes, an update
check after each episode. The update itself is `PPOTrainer._update`, which
the grouping left as it was. The grouped trainer must give the same params
and curve, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tradesim.cluster import ClusterSim, ClusterTopology, NoiseSpec, reward
from tradesim.drl.nets import Params
from tradesim.drl.policy import PolicyCore, SchedulerPolicy, StateEncoder
from tradesim.drl.ppo import PPOTrainer, TrainConfig, Trajectory
from tradesim.optim import AdamSpec, adam_init
from tradesim.workload import WorkloadScenario, generate_tick_counts


@dataclass
class DecisionEnv:
    """One env step = one scheduling decision applied to the simulator, then
    `decision_interval` simulated ticks of the scenario workload."""

    scenario: WorkloadScenario
    topology: ClusterTopology
    encoder: StateEncoder
    mapper: SchedulerPolicy
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
            action = None
            self._tick += 1
        self._state = sim.observe_state()
        done = self._tick >= self.scenario.horizon
        return self.encoder.encode(self._state), float(np.mean(rewards)), done, {}


class ContextualBandit:
    """Two contexts, two arms; arm == context index pays 1."""

    def __init__(self, seed: int = 0, steps_per_episode: int = 16):
        self.seed = seed
        self.steps_per_episode = steps_per_episode
        self._rng = np.random.default_rng(seed)
        self._step = 0
        self._context = 0

    def _draw_context(self) -> np.ndarray:
        self._context = int(self._rng.integers(2))
        onehot = np.zeros(2)
        onehot[self._context] = 1.0
        return onehot

    def reset(self, episode: int = 0) -> np.ndarray:
        self._rng = np.random.default_rng([self.seed, episode])
        self._step = 0
        return self._draw_context()

    def step(self, record: dict[str, np.ndarray]):
        arm = int(np.asarray(record["arm"]).reshape(-1)[0])
        reward = 1.0 if arm == self._context else 0.0
        self._step += 1
        done = self._step >= self.steps_per_episode
        return self._draw_context(), reward, done, {}


def train(env, core: PolicyCore, cfg: TrainConfig) -> tuple[Params, list[dict]]:
    """`PPOTrainer.train` collecting one episode at a time."""
    trainer = PPOTrainer(core, cfg)
    params = core.init_params(cfg.seed)
    adam = adam_init(params)
    adam_spec = AdamSpec(learning_rate=cfg.learning_rate)
    rng = np.random.default_rng([cfg.seed, 7_777])
    curve: list[dict] = []
    buffer = Trajectory()
    last = {"loss": 0.0, "value_loss": 0.0, "clip_fraction": 0.0}

    for episode in range(cfg.total_episodes):
        obs = env.reset(episode)
        episode_rewards: list[float] = []
        for _ in range(cfg.episode_length):
            record, logp = core.act(params, obs, "sample", rng)
            value, _ = core.value(params, obs)
            nxt, r, done, _ = env.step(record)
            buffer.append(obs, record, logp, r, float(value[0]), done)
            episode_rewards.append(r)
            obs = nxt
            if done:
                break
        buffer.dones[-1] = True

        if len(buffer) >= cfg.update_horizon and cfg.learning_rate > 0.0:
            last = trainer._update(params, adam, adam_spec, buffer, rng, episode)
            params = last.pop("params")
            buffer = Trajectory()
        curve.append(
            {
                "episode": episode,
                "mean_reward": float(np.mean(episode_rewards)),
                "loss": last.get("loss", 0.0),
                "value_loss": last.get("value_loss", 0.0),
                "clip_fraction": last.get("clip_fraction", 0.0),
            }
        )
    return params, curve
