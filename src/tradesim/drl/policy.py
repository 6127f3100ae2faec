"""Composite stochastic policy over the scheduling action space.

One shared tanh trunk feeds:
  - a multi-categorical head for per-service instance deltas {-1, 0, +1},
  - squashed-Gaussian heads for priorities and quotas in [0, 1],
  - a dueling head (state value V plus mean-centered advantages A) whose
    Q-values act as logits for the discrete migration choice; V doubles as
    the critic used for advantage estimation.

All gradients are analytic; the test suite checks them against central
finite differences.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..cluster import SchedulingAction, SystemState
from ..errors import ConfigError, from_json
from ..optim import check_layout, load_params, save_params, sigmoid
from .nets import (
    Params,
    linear_backward,
    linear_forward,
    linear_init,
    mlp_backward,
    mlp_forward,
    mlp_init,
    zeros_like_params,
)

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class CategoricalHead:
    name: str
    rows: int  # independent categoricals
    n: int  # choices per row


@dataclass(frozen=True)
class GaussianHead:
    name: str
    n: int  # independent squashed gaussians -> values in (0, 1)


@dataclass(frozen=True)
class DuelingHead:
    name: str
    n: int  # discrete choices; logits are Q = V + (A - mean A)


Head = CategoricalHead | GaussianHead | DuelingHead


@dataclass(frozen=True)
class ActionLayout:
    heads: tuple[Head, ...]

    def dueling(self) -> DuelingHead | None:
        for h in self.heads:
            if isinstance(h, DuelingHead):
                return h
        return None


def dueling_combine(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Q = V + (A - mean_a A); mean-centering keeps the split identifiable."""
    return v + a - a.mean(axis=-1, keepdims=True)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row at the uniforms u (..., 1); probs (..., n) ->
    integer indices (...)."""
    cum = np.cumsum(probs, axis=-1)
    return np.minimum((cum < u).sum(axis=-1), probs.shape[-1] - 1)


class PolicyCore:
    """Trunk + heads over a fixed feature width; parameters in a flat dict."""

    def __init__(self, feature_dim: int, layout: ActionLayout, hidden: tuple[int, ...] = (64, 64)):
        self.feature_dim = feature_dim
        self.layout = layout
        self.hidden = hidden
        self.trunk_sizes = (feature_dim, *hidden)
        self.depth = len(hidden)

    # -- parameters --------------------------------------------------------

    def init_params(self, seed: int = 0) -> Params:
        rng = np.random.default_rng(seed)
        params = mlp_init(rng, "trunk", self.trunk_sizes)
        top = self.hidden[-1]
        for head in self.layout.heads:
            if isinstance(head, CategoricalHead):
                params.update(linear_init(rng, f"{head.name}.logits", top, head.rows * head.n))
            elif isinstance(head, GaussianHead):
                params.update(linear_init(rng, f"{head.name}.mean", top, head.n))
                params[f"{head.name}.log_std"] = np.full(head.n, -0.5)
            else:
                params.update(linear_init(rng, f"{head.name}.V", top, 1))
                params.update(linear_init(rng, f"{head.name}.A", top, head.n))
        if self.layout.dueling() is None:
            params.update(linear_init(rng, "value", top, 1))
        return params

    # -- distributions -----------------------------------------------------

    def _trunk(self, params: Params, x: np.ndarray) -> tuple[np.ndarray, list]:
        return mlp_forward(params, "trunk", self.depth, x)

    def head_distributions(self, params: Params, x: np.ndarray) -> dict[str, dict]:
        """Per-head distribution parameters for a feature batch (B, F)."""
        z, _ = self._trunk(params, x)
        return self._heads(params, z)

    def _heads(self, params: Params, z: np.ndarray) -> dict[str, dict]:
        dists: dict[str, dict] = {}
        for head in self.layout.heads:
            if isinstance(head, CategoricalHead):
                logits = linear_forward(params, f"{head.name}.logits", z)
                logits = logits.reshape(len(z), head.rows, head.n)
                dists[head.name] = {"probs": _softmax(logits)}
            elif isinstance(head, GaussianHead):
                mean = linear_forward(params, f"{head.name}.mean", z)
                std = np.exp(params[f"{head.name}.log_std"])
                dists[head.name] = {"mean": mean, "std": np.broadcast_to(std, mean.shape)}
            else:
                v = linear_forward(params, f"{head.name}.V", z)
                a = linear_forward(params, f"{head.name}.A", z)
                q = dueling_combine(v, a)
                dists[head.name] = {"q": q, "probs": _softmax(q), "v": v[:, 0]}
        return dists

    def dueling_q(self, params: Params, x: np.ndarray) -> np.ndarray:
        head = self.layout.dueling()
        if head is None:
            raise ValueError("layout has no dueling head")
        x = np.atleast_2d(x)
        return self.head_distributions(params, x)[head.name]["q"]

    # -- acting ------------------------------------------------------------

    def draw_noise(self, rng: np.random.Generator, rows: int = 1) -> dict[str, np.ndarray]:
        """The draws a sampled `act_batch` over `rows` rows makes, head by head
        in layout order: a uniform per categorical row, a standard normal per
        Gaussian entry. Their shapes do not depend on the parameters or the
        features, so an act's draws can be made before its forward pass, and
        the draws of many acts made up front, in the order the acts would
        have made them."""
        noise: dict[str, np.ndarray] = {}
        for head in self.layout.heads:
            if isinstance(head, GaussianHead):
                noise[head.name] = rng.standard_normal((rows, head.n))
            elif isinstance(head, CategoricalHead):
                noise[head.name] = rng.random((rows, head.rows, 1))
            else:
                noise[head.name] = rng.random((rows, 1))
        return noise

    def act(
        self, params: Params, features: np.ndarray, mode: str = "sample",
        rng: np.random.Generator | None = None, noise: dict[str, np.ndarray] | None = None,
    ) -> tuple[dict[str, np.ndarray], float]:
        """Draw (or take the mode of) one composite action; returns the action
        record and its joint log-probability. A sampled act draws its noise
        from `rng`, or takes it pre-drawn (`draw_noise(rng)`) in `noise`."""
        records, logp, _ = self.act_batch(params, np.atleast_2d(features)[:1], mode, rng, noise)
        return {name: r[0] for name, r in records.items()}, float(logp[0])

    def act_batch(
        self, params: Params, x: np.ndarray, mode: str = "sample",
        rng: np.random.Generator | None = None, noise: dict[str, np.ndarray] | None = None,
    ) -> tuple[dict[str, np.ndarray], np.ndarray, dict]:
        """One composite action per row of the feature batch x (B, F), each
        head drawing for every row at once; returns the stacked records, their
        joint log-probabilities (B,) and the cache `logp_backward` takes, as
        `log_prob` would give it. A sampled act takes `noise` pre-drawn, or
        draws it from `rng` with `draw_noise`. At B = 1 the draws and bits are
        those of `act`."""
        if mode not in ("sample", "greedy"):
            raise ValueError(f"unknown mode {mode!r}")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if mode == "sample" and noise is None:
            if rng is None:
                raise ValueError("sampling requires a generator")
            noise = self.draw_noise(rng, len(x))
        z, trunk_cache = self._trunk(params, x)
        dists = self._heads(params, z)
        records: dict[str, np.ndarray] = {}
        for head in self.layout.heads:
            d = dists[head.name]
            if isinstance(head, GaussianHead):
                if mode == "greedy":
                    records[head.name] = d["mean"]
                else:
                    records[head.name] = d["mean"] + d["std"] * noise[head.name]
            else:
                if mode == "greedy":
                    choice = np.argmax(d["probs"], axis=-1)
                else:
                    choice = _sample_rows(d["probs"], noise[head.name])
                records[head.name] = choice.reshape(len(x), -1).astype(int)
        logp, heads = self._log_prob_of(params, dists, records)
        return records, logp, {"x": x, "z": z, "trunk": trunk_cache, "heads": heads}

    def log_prob(
        self, params: Params, x: np.ndarray, records: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, dict]:
        """Joint log-probability of stored actions under `params`; cache feeds
        `logp_backward`."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z, trunk_cache = self._trunk(params, x)
        logp, heads = self._log_prob_of(params, self._heads(params, z), records)
        return logp, {"x": x, "z": z, "trunk": trunk_cache, "heads": heads}

    def _log_prob_of(
        self, params: Params, dists: dict[str, dict], records: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, dict]:
        """Joint log-probability of `records` under the head distributions
        `dists`, and the per-head values `logp_backward` needs."""
        B = len(next(iter(records.values())))
        logp = np.zeros(B)
        heads: dict = {}
        for head in self.layout.heads:
            d = dists[head.name]
            if isinstance(head, CategoricalHead):
                probs = d["probs"]
                acts = records[head.name].reshape(B, head.rows)
                rows = np.arange(head.rows)
                p_sel = probs[np.arange(B)[:, None], rows[None, :], acts]
                logp += np.log(np.maximum(p_sel, 1e-300)).sum(axis=1)
                heads[head.name] = {"probs": probs, "acts": acts}
            elif isinstance(head, GaussianHead):
                mean, std = d["mean"], d["std"]
                log_std = params[f"{head.name}.log_std"]
                u = records[head.name].reshape(B, head.n)
                a = sigmoid(u)
                resid = (u - mean) / std
                logp += (
                    -log_std[None, :]
                    - 0.5 * LOG_2PI
                    - 0.5 * resid**2
                    - np.log(np.maximum(a * (1.0 - a), 1e-300))
                ).sum(axis=1)
                heads[head.name] = {"mean": mean, "std": std, "u": u}
            else:
                probs = d["probs"]
                acts = records[head.name].reshape(B)
                logp += np.log(np.maximum(probs[np.arange(B), acts], 1e-300))
                heads[head.name] = {"probs": probs, "acts": acts}
        return logp, heads

    def logp_backward(self, params: Params, cache: dict, coef: np.ndarray) -> Params:
        """Gradient of sum_b coef_b * logp_b with respect to every parameter."""
        grads = zeros_like_params(params)
        x, z = cache["x"], cache["z"]
        B = len(x)
        dz = np.zeros_like(z)
        for head in self.layout.heads:
            hc = cache["heads"][head.name]
            if isinstance(head, CategoricalHead):
                probs, acts = hc["probs"], hc["acts"]
                dlogits = -probs * coef[:, None, None]
                rows = np.arange(head.rows)
                dlogits[np.arange(B)[:, None], rows[None, :], acts] += coef[:, None]
                dz += linear_backward(
                    params, f"{head.name}.logits", z, dlogits.reshape(B, -1), grads
                )
            elif isinstance(head, GaussianHead):
                mean, std, u = hc["mean"], hc["std"], hc["u"]
                resid = (u - mean) / std
                dmean = coef[:, None] * resid / std
                grads[f"{head.name}.log_std"] += (coef[:, None] * (resid**2 - 1.0)).sum(axis=0)
                dz += linear_backward(params, f"{head.name}.mean", z, dmean, grads)
            else:
                probs, acts = hc["probs"], hc["acts"]
                dq = -probs * coef[:, None]
                dq[np.arange(B), acts] += coef
                dv = dq.sum(axis=1, keepdims=True)
                da = dq - dq.mean(axis=1, keepdims=True)
                dz += linear_backward(params, f"{head.name}.V", z, dv, grads)
                dz += linear_backward(params, f"{head.name}.A", z, da, grads)
        mlp_backward(params, "trunk", cache["trunk"], dz, grads)
        return grads

    # -- critic --------------------------------------------------------------

    def value(self, params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z, trunk_cache = self._trunk(params, x)
        head = self.layout.dueling()
        name = f"{head.name}.V" if head is not None else "value"
        v = linear_forward(params, name, z)[:, 0]
        return v, {"x": x, "z": z, "trunk": trunk_cache, "head": name}

    def value_backward(self, params: Params, cache: dict, dv: np.ndarray) -> Params:
        grads = zeros_like_params(params)
        dz = linear_backward(params, cache["head"], cache["z"], dv[:, None], grads)
        mlp_backward(params, "trunk", cache["trunk"], dz, grads)
        return grads


# --- state encoding -------------------------------------------------------------


# scales of the observation's blocks, and the bound it is clipped to
LOAD_REF = 500.0  # requests/tick/service
QUEUE_REF = 1000.0
LATENCY_REF = 200.0  # ms
THROUGHPUT_REF = 500.0
CLIP = 5.0


@dataclass(frozen=True)
class StateEncoder:
    """Fixed-length normalized observation vector of the full state blocks:
    loads, utilization matrix, queues, history, performance."""

    service_count: int = 8
    node_count: int = 4

    @property
    def dim(self) -> int:
        k, n = self.service_count, self.node_count
        return k + 3 * n + k + 2 * k + 2 * k

    def encode(self, state: SystemState) -> np.ndarray:
        vec = np.concatenate(
            [
                state.load / LOAD_REF,
                state.util.reshape(-1),
                state.queue_len / QUEUE_REF,
                state.hist_mean / LOAD_REF,
                state.hist_var / (LOAD_REF**2),
                state.latency_ms / LATENCY_REF,
                state.throughput / THROUGHPUT_REF,
            ]
        )
        if vec.shape[0] != self.dim:
            raise ValueError(f"state dimensions {vec.shape[0]} != encoder dim {self.dim}")
        return np.clip(vec, -CLIP, CLIP)


# --- cluster-facing adapter -----------------------------------------------------


def cluster_layout(service_count: int, migration_choices: int = 5) -> ActionLayout:
    return ActionLayout(
        heads=(
            CategoricalHead("delta", rows=service_count, n=3),
            GaussianHead("priority", n=service_count),
            GaussianHead("quota", n=service_count),
            DuelingHead("migration", n=migration_choices),
        )
    )


@dataclass
class SchedulerPolicy:
    """PolicyCore plus the mapping between action records and SchedulingActions."""

    core: PolicyCore
    encoder: StateEncoder
    params: Params = field(default_factory=dict)

    @classmethod
    def build(cls, encoder: StateEncoder, seed: int = 0, hidden: tuple[int, ...] = (64, 64),
              migration_choices: int = 5) -> "SchedulerPolicy":
        core = PolicyCore(encoder.dim, cluster_layout(encoder.service_count, migration_choices), hidden)
        return cls(core=core, encoder=encoder, params=core.init_params(seed))

    def migration_shortlist(self, state: SystemState) -> list[tuple[int, int]]:
        """(service, destination-node) pairs: busiest services by queue+load
        toward the least CPU-loaded node."""
        order = np.argsort(-(state.queue_len + state.load), kind="stable")
        dest = int(np.argmin(state.util[:, 0]))
        n_pairs = self.core.layout.dueling().n - 1
        return [(int(order[i % len(order)]), dest) for i in range(n_pairs)]

    def to_scheduling_action(self, record: dict[str, np.ndarray], state: SystemState) -> SchedulingAction:
        k = self.encoder.service_count
        n = self.encoder.node_count
        migration = np.zeros((k, n), dtype=int)
        choice = int(record["migration"][0])
        if choice > 0:
            service, dest = self.migration_shortlist(state)[choice - 1]
            migration[service, dest] = 1
        return SchedulingAction(
            instance_delta=record["delta"].astype(int) - 1,
            migration=migration,
            priority=sigmoid(record["priority"]),
            quota=sigmoid(record["quota"]),
        )

    def act(
        self, state: SystemState, mode: str = "sample", rng: np.random.Generator | None = None
    ) -> tuple[SchedulingAction, float, dict[str, np.ndarray]]:
        features = self.encoder.encode(state)
        record, logp = self.core.act(self.params, features, mode, rng)
        return self.to_scheduling_action(record, state), logp, record


def _stack_records(records: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    return {name: np.stack([r[name] for r in records]) for name in records[0]}


# --- checkpointing ---------------------------------------------------------------


@dataclass(frozen=True)
class PolicyMeta:
    """What a policy checkpoint holds besides the params."""

    encoder: StateEncoder
    hidden: tuple[int, ...]
    migration_choices: int

    def __post_init__(self) -> None:
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigError(f"hidden must hold one or more sizes >= 1, got {list(self.hidden)}")
        if self.migration_choices < 1:
            raise ConfigError(f"migration_choices must be >= 1, got {self.migration_choices}")


def save_policy(policy: SchedulerPolicy, path) -> None:
    meta = PolicyMeta(policy.encoder, policy.core.hidden, policy.core.layout.dueling().n)
    save_params(path, policy.params, asdict(meta))


def load_policy(path) -> SchedulerPolicy:
    params, data = load_params(path)
    meta = from_json(PolicyMeta, data, f"policy checkpoint {path}")
    layout = cluster_layout(meta.encoder.service_count, meta.migration_choices)
    core = PolicyCore(meta.encoder.dim, layout, meta.hidden)
    shapes = {name: array.shape for name, array in core.init_params().items()}
    check_layout(params, shapes, f"{meta} in policy checkpoint {path}")
    return SchedulerPolicy(core=core, encoder=meta.encoder, params=params)
