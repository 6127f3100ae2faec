"""Clipped policy-ratio training loop with generalized advantage estimation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DivergenceError
from ..optim import AdamSpec, adam_init, adam_step, clip_global_norm
from .nets import Params
from .policy import PolicyCore, _stack_records


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    learning_rate: float = 3e-4
    epochs: int = 4
    minibatch: int = 64
    episode_length: int = 32
    total_episodes: int = 100
    update_horizon: int = 128  # buffered steps per policy update
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("discount factor must lie in (0, 1)")
        if self.clip_eps <= 0.0:
            raise ConfigError("clip epsilon must be positive")
        if self.episode_length < 1:
            raise ConfigError(f"episode_length must be >= 1, got {self.episode_length}")


@dataclass
class Trajectory:
    """Parallel transition arrays; records are per-step action dicts."""

    features: list[np.ndarray] = field(default_factory=list)
    records: list[dict[str, np.ndarray]] = field(default_factory=list)
    log_probs: list[float] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    dones: list[bool] = field(default_factory=list)
    next_value: float = 0.0
    returns: np.ndarray | None = None
    advantages: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rewards)

    def append(self, features, record, log_prob, reward, value, done) -> None:
        self.features.append(np.asarray(features, dtype=float))
        self.records.append(record)
        self.log_probs.append(float(log_prob))
        self.rewards.append(float(reward))
        self.values.append(float(value))
        self.dones.append(bool(done))


def compute_returns_and_advantages(
    traj: Trajectory, gamma: float, gae_lambda: float = 0.95, normalize: bool = True
) -> Trajectory:
    """Discounted returns plus GAE advantages (normalized per batch)."""
    T = len(traj)
    if T == 0:
        raise ValueError("empty trajectory")
    rewards = np.asarray(traj.rewards)
    values = np.asarray(traj.values)
    dones = np.asarray(traj.dones, dtype=bool)
    next_values = np.append(values[1:], traj.next_value)
    next_values[dones] = 0.0

    returns = np.empty(T)
    acc = 0.0
    for t in range(T - 1, -1, -1):
        if dones[t]:
            acc = 0.0
        acc = rewards[t] + gamma * acc
        returns[t] = acc

    advantages = np.empty(T)
    gae = 0.0
    for t in range(T - 1, -1, -1):
        if dones[t]:
            gae = 0.0
        delta = rewards[t] + gamma * next_values[t] - values[t]
        gae = delta + gamma * gae_lambda * (0.0 if dones[t] else gae)
        advantages[t] = gae

    if normalize:
        std = advantages.std()
        advantages = (advantages - advantages.mean()) / (std if std > 1e-12 else 1.0)
    traj.returns = returns
    traj.advantages = advantages
    return traj


def ppo_loss(
    core: PolicyCore,
    params: Params,
    batch_features: np.ndarray,
    batch_records: dict[str, np.ndarray],
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
) -> tuple[float, Params, dict]:
    """Negated clipped surrogate objective and its exact gradients.

    Gradient flows only through transitions whose unclipped branch is active
    (the clipped branch is constant in the parameters). Non-finite ratios are
    excluded and counted.
    """
    new_logp, cache = core.log_prob(params, batch_features, batch_records)
    ratio = np.exp(new_logp - old_log_probs)
    finite = np.isfinite(ratio)
    excluded = int(np.sum(~finite))
    ratio = np.where(finite, ratio, 1.0)
    adv = np.where(finite, advantages, 0.0)

    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    surr1 = ratio * adv
    surr2 = clipped * adv
    objective = np.minimum(surr1, surr2)
    n = max(int(np.sum(finite)), 1)
    loss = -float(objective[finite].sum() / n)

    # d(-mean min)/d logp: advantage * ratio where the raw branch is the min
    active = (surr1 <= surr2) & finite
    coef = np.where(active, -adv * ratio / n, 0.0)
    grads = core.logp_backward(params, cache, coef)
    stats = {
        "clip_fraction": float(np.mean((np.abs(ratio - 1.0) > clip_eps)[finite])) if n else 0.0,
        "excluded": excluded,
        "objective": -loss,
    }
    return loss, grads, stats


def value_loss_and_gradients(
    core: PolicyCore, params: Params, batch_features: np.ndarray, returns: np.ndarray
) -> tuple[float, Params]:
    v, cache = core.value(params, batch_features)
    err = v - returns
    loss = float(np.mean(err**2))
    grads = core.value_backward(params, cache, 2.0 * err / len(err))
    return loss, grads


@dataclass
class PPOTrainer:
    """Collect-update loop. The environment contract: `reset(episodes)` and
    `step(records)` over a group of episodes, one row each, an episode length
    stated up front (`steps_per_episode`), and seed-free deterministic
    behavior given the config seed."""

    core: PolicyCore
    config: TrainConfig

    def train(self, env, params: Params | None = None) -> tuple[Params, list[dict]]:
        """Collect episodes into an update buffer; run clipped-objective epochs
        whenever the buffer reaches `update_horizon` steps. Episode ends are
        treated as terminal for return computation.

        The episodes that share parameters, from the last update to the one
        whose end triggers the next (all of them when nothing updates), run in
        lockstep as one group of env rows (see `_collect`). Every episode
        takes min(`episode_length`, `env.steps_per_episode`) steps, so the
        groups are known up front. Each act's noise is drawn before the group
        starts, episode by episode, in the order one episode at a time would
        draw it, and the update's permutations come after; the transitions,
        curve rows and update checks then follow episode order. So the
        generator's stream, the buffer and every result are those of
        collecting the episodes one at a time, bit for bit."""
        cfg = self.config
        params = params if params is not None else self.core.init_params(cfg.seed)
        adam = adam_init(params)
        adam_spec = AdamSpec(learning_rate=cfg.learning_rate)
        rng = np.random.default_rng([cfg.seed, 7_777])
        curve: list[dict] = []
        buffer = Trajectory()
        last = {"loss": 0.0, "value_loss": 0.0, "clip_fraction": 0.0}
        updates = cfg.learning_rate > 0.0
        steps = min(cfg.episode_length, env.steps_per_episode)
        # each update empties the buffer, so a group fills it from empty
        group = max(1, -(-cfg.update_horizon // steps)) if updates else max(1, cfg.total_episodes)

        for first in range(0, cfg.total_episodes, group):
            episodes = range(first, min(first + group, cfg.total_episodes))
            collected = self._collect(env, params, episodes, steps, rng)
            for episode, transitions in zip(episodes, collected):
                for transition in transitions:
                    buffer.append(*transition)
                buffer.dones[-1] = True  # truncation counts as terminal here

                if len(buffer) >= cfg.update_horizon and updates:  # the group's last episode
                    last = self._update(params, adam, adam_spec, buffer, rng, episode)
                    params = last.pop("params")
                    buffer = Trajectory()
                curve.append(
                    {
                        "episode": episode,
                        "mean_reward": float(np.mean([t[3] for t in transitions])),
                        "loss": last.get("loss", 0.0),
                        "value_loss": last.get("value_loss", 0.0),
                        "clip_fraction": last.get("clip_fraction", 0.0),
                    }
                )
        return params, curve

    def _collect(self, env, params: Params, episodes: range, steps: int, rng) -> list[list[tuple]]:
        """Run `episodes` for `steps` steps as the rows of one env reset; per
        episode, its transitions (features, record, log-probability, reward,
        value, done). Each row acts and is valued alone, as a batch of one
        (a batched forward may sum in another order), on the noise drawn for
        it up front."""
        noise = [[self.core.draw_noise(rng) for _ in range(steps)] for _ in episodes]
        transitions: list[list[tuple]] = [[] for _ in episodes]
        obs = env.reset(episodes)
        for t in range(steps):
            acts = [self.core.act(params, x, "sample", noise=n[t]) for x, n in zip(obs, noise)]
            values = [float(self.core.value(params, x)[0][0]) for x in obs]
            nxt, rewards, done, _ = env.step([record for record, _ in acts])
            if done and t < steps - 1:
                raise RuntimeError(f"episode done after {t + 1} of its {steps} stated steps")
            for row, x, (record, logp), r, v in zip(transitions, obs, acts, rewards, values):
                row.append((x, record, logp, r, v, done))
            obs = nxt
        return transitions

    def _update(self, params, adam, adam_spec, buffer: Trajectory, rng, episode: int) -> dict:
        cfg = self.config
        compute_returns_and_advantages(buffer, cfg.gamma, cfg.gae_lambda)
        feats = np.stack(buffer.features)
        records = _stack_records(buffer.records)
        old_logp = np.asarray(buffer.log_probs)
        adv = buffer.advantages
        rets = buffer.returns
        T = len(buffer)
        stats = {"loss": 0.0, "value_loss": 0.0, "clip_fraction": 0.0}
        for _ in range(cfg.epochs):
            order = rng.permutation(T)
            for start in range(0, T, cfg.minibatch):
                idx = order[start : start + cfg.minibatch]
                sub_records = {k: v[idx] for k, v in records.items()}
                loss, pgrads, pstats = ppo_loss(
                    self.core, params, feats[idx], sub_records,
                    old_logp[idx], adv[idx], cfg.clip_eps,
                )
                vloss, vgrads = value_loss_and_gradients(self.core, params, feats[idx], rets[idx])
                if not np.isfinite(loss) or not np.isfinite(vloss):
                    raise DivergenceError(f"non-finite loss at episode {episode}: {loss}, {vloss}")
                total = {k: pgrads[k] + cfg.value_coef * vgrads[k] for k in params}
                clip_global_norm(total, cfg.max_grad_norm)
                params = adam_step(params, total, adam, adam_spec)
                stats = {
                    "loss": loss,
                    "value_loss": vloss,
                    "clip_fraction": pstats["clip_fraction"],
                }
        stats["params"] = params
        return stats


def train_scheduler(env, core: PolicyCore, config: TrainConfig) -> tuple[Params, list[dict]]:
    return PPOTrainer(core, config).train(env)
