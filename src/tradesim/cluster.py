"""Discrete-time cluster simulation: nodes, service instances, queues and the
latency/reward model driving every scheduler in this package.

The tick model (capacity sharing, contention and formula latency, the
utilization EWMA) is written once, over arrays with optional leading batch
axes, and so is the FIFO drain of the queues (`drain`), over flat rows of
per-arrival-tick buckets. `ClusterSim` steps one cluster with them: a bucket
ring per service, actions, noise, reward and trace, and the latency samples,
whose jitter it draws only when something reads them.
`rollout_batch` steps a whole population of candidate configurations at once
through the same arrivals, with no-op actions and no jitter or noise, which is
what the hybrid scheduler's fitness rollouts need.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, read_json
from .report import weighted_percentile
from .workload import ServiceSpec, default_service_mix

# Lognormal jitter sigma such that a unit-mean multiplier turns the 85 ms
# component sum into p95 = 120 ms (solve 1.6449*s - s^2/2 = ln(120/85)).
CALIBRATED_JITTER_SIGMA = 0.22504290663979853

QUOTA_FLOOR = 0.01  # smallest per-instance quota an action can set

QUEUE_RING_START = 16  # ticks of queue a ClusterSim holds before its bucket ring doubles


@dataclass(frozen=True)
class NodeSpec:
    cpu_capacity: float  # abstract CPU-ms per tick
    mem_capacity: float  # MB
    net_capacity: float  # MB per tick

    def __post_init__(self) -> None:
        if min(self.cpu_capacity, self.mem_capacity, self.net_capacity) <= 0:
            raise ConfigError("node capacities must be > 0")


@dataclass(frozen=True)
class LatencyModel:
    network_ms: float = 15.0
    processing_ms: float = 45.0
    data_access_ms: float = 25.0
    jitter_sigma: float = CALIBRATED_JITTER_SIGMA
    jitter_enabled: bool = True
    rho_cap: float = 0.9  # contention factor saturates here; beyond it queueing takes over


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian observation noise applied to utilization readings."""

    std: float = 0.01

    def __post_init__(self) -> None:
        if not (np.isfinite(self.std) and self.std >= 0):
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.std}")


@dataclass(frozen=True)
class RewardSpec:
    w1: float = 0.4
    w2: float = 0.35
    w3: float = 0.25
    T_target: float = 100.0  # ms
    u_target: float = 0.7
    cost_instance: float = 0.01
    cost_migration: float = 0.02
    cost_quota: float = 0.005

    def __post_init__(self) -> None:
        if min(self.w1, self.w2, self.w3) < 0:
            raise ConfigError("reward weights must be >= 0")
        if self.T_target <= 0:
            raise ConfigError("T_target must be > 0")
        if not 0.0 < self.u_target < 1.0:
            raise ConfigError("u_target must be in (0, 1)")


@dataclass(frozen=True)
class ClusterTopology:
    nodes: tuple[NodeSpec, ...]
    services: tuple[ServiceSpec, ...]
    initial_placement: tuple[tuple[int, ...], ...]  # services x nodes instance counts
    initial_quota: tuple[float, ...]  # per-service fraction of node CPU per instance
    initial_priority: tuple[float, ...]
    latency: LatencyModel = field(default_factory=LatencyModel)
    history_window: int = 60  # ticks of load statistics
    ewma_alpha: float = 0.2
    tick_length: float = 1.0  # seconds

    def __post_init__(self) -> None:
        k, n = len(self.services), len(self.nodes)
        if len(self.initial_placement) != k or any(len(r) != n for r in self.initial_placement):
            raise ConfigError("initial_placement must be services x nodes")
        if len(self.initial_quota) != k or len(self.initial_priority) != k:
            raise ConfigError("quota/priority must have one entry per service")
        placement = np.array(self.initial_placement)
        if np.any(placement.sum(axis=1) < 1):
            raise ConfigError("every service needs at least one instance")
        for q in self.initial_quota:
            if not 0.0 < q <= 1.0:
                raise ConfigError(f"quota {q} outside (0, 1]")
        commit = placement.T @ np.asarray(self.initial_quota)
        if np.any(commit > 1.0 + 1e-9):
            raise ConfigError("per-node quota commitment exceeds 1")
        if self.history_window < 0:
            raise ConfigError(f"history_window must be >= 0, got {self.history_window}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not (np.isfinite(self.tick_length) and self.tick_length > 0):
            raise ConfigError(f"tick_length must be finite and > 0, got {self.tick_length}")
        if not np.all(np.isfinite(self.initial_priority)):
            raise ConfigError(f"initial_priority must be finite, got {self.initial_priority}")

    @property
    def service_count(self) -> int:
        return len(self.services)

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def uniform_topology(
    node_count: int = 4,
    node_cpu: float = 4000.0,
    node_mem: float = 8192.0,
    node_net: float = 500.0,
    services: tuple[ServiceSpec, ...] | None = None,
    instances_per_service: int = 1,
    quota: float = 0.1,
    latency: LatencyModel | None = None,
    **kwargs,
) -> ClusterTopology:
    """Homogeneous cluster with instances spread round-robin across nodes."""
    services = services or default_service_mix()
    k = len(services)
    placement = np.zeros((k, node_count), dtype=int)
    node = 0
    for s in range(k):
        for _ in range(instances_per_service):
            placement[s, node % node_count] += 1
            node += 1
    return ClusterTopology(
        nodes=tuple(NodeSpec(node_cpu, node_mem, node_net) for _ in range(node_count)),
        services=services,
        initial_placement=tuple(tuple(int(v) for v in row) for row in placement),
        initial_quota=tuple(quota for _ in range(k)),
        initial_priority=tuple(0.5 for _ in range(k)),
        latency=latency or LatencyModel(),
        **kwargs,
    )


@dataclass(frozen=True)
class SchedulingAction:
    """Composite action: instance deltas, migration matrix, priorities, quotas."""

    instance_delta: np.ndarray  # (k,) int
    migration: np.ndarray  # (k, n) in {0, 1}
    priority: np.ndarray  # (k,) in [0, 1]
    quota: np.ndarray  # (k,) in (0, 1]


@dataclass
class SystemState:
    """Observation vector: per-service loads, node utilization matrix, queue
    lengths, windowed history statistics and performance metrics.

    `tick` is the number of ticks stepped so far, both for
    `ClusterSim.observe_state` and for `RolloutBatch.final_state`."""

    load: np.ndarray  # (k,) requests arrived last tick
    util: np.ndarray  # (n, 3) cpu/mem/net in [0, 1], observation-noised
    queue_len: np.ndarray  # (k,)
    hist_mean: np.ndarray  # (k,) windowed mean load
    hist_var: np.ndarray  # (k,) windowed load variance
    latency_ms: np.ndarray  # (k,) mean completed-request latency last tick
    throughput: np.ndarray  # (k,) completions per second
    tick: int = 0


def service_latency(
    model: LatencyModel,
    rho,
    cache_hit_rate: float = 0.0,
    jitter=None,
):
    """Per-request latency in ms at offered intensity rho (fraction of capacity);
    elementwise over an array of rho values.

    Contention multiplies the processing component by 1/(1-rho) with rho capped
    at `rho_cap`; overload beyond that surfaces as queue wait in the simulator,
    never as a division blow-up here. The data-access component shrinks with
    the cache hit rate. `jitter` is a multiplicative draw (None = disabled).
    """
    rho_eff = np.minimum(np.maximum(rho, 0.0), model.rho_cap)
    hit = min(max(cache_hit_rate, 0.0), 1.0)
    base = (
        model.network_ms
        + model.processing_ms / (1.0 - rho_eff)
        + model.data_access_ms * (1.0 - hit)
    )
    return base if jitter is None else base * jitter


# --- the tick model, over leading batch axes --------------------------------------
#
# Arrays end in (k,) per service, (n,) per node or (k, n) per service and node;
# any leading axes index independent clusters. ClusterSim steps one cluster with
# these functions and rollout_batch steps a population, so both read one model.


@dataclass(frozen=True)
class TopologyArrays:
    """Per-node capacities and per-service demands of a topology."""

    node_cpu: np.ndarray  # (n,) CPU-ms per tick
    node_mem: np.ndarray  # (n,) MB
    node_net: np.ndarray  # (n,) MB per tick
    work_units: np.ndarray  # (k,) CPU-ms per request
    payload_mb: np.ndarray  # (k,)
    svc_mem: np.ndarray  # (k,) MB per instance

    @classmethod
    def of(cls, topology: ClusterTopology) -> "TopologyArrays":
        return cls(
            node_cpu=np.array([nd.cpu_capacity for nd in topology.nodes]),
            node_mem=np.array([nd.mem_capacity for nd in topology.nodes]),
            node_net=np.array([nd.net_capacity for nd in topology.nodes]),
            work_units=np.array([s.work_units for s in topology.services]),
            payload_mb=np.array([s.payload_bytes for s in topology.services]) / 1e6,
            svc_mem=np.array([s.mem_mb for s in topology.services]),
        )


@dataclass(frozen=True)
class Capacity:
    """What a configuration (placement, quota, priority) fixes for the tick
    model; rebuilt whenever an action changes the configuration."""

    cap_per_service: np.ndarray  # (..., k)
    share: np.ndarray  # (..., k, n) each node's part of a service's committed CPU
    weights: np.ndarray  # (..., k, n) priority claims on leftover node CPU
    placement_share: np.ndarray  # (..., k, n) each node's part of a service's instances
    instance_mem: np.ndarray  # (..., n) resident instance memory, MB

    @classmethod
    def of(cls, placement, quota, priority, arrays: TopologyArrays) -> "Capacity":
        # (..., k, n) committed CPU of each service on each node
        base_cap = placement * quota[..., :, None] * arrays.node_cpu
        cap_per_service = base_cap.sum(axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(
                cap_per_service[..., None] > 0, base_cap / cap_per_service[..., None], 0.0
            )
        totals = placement.sum(axis=-1, keepdims=True)
        return cls(
            cap_per_service=cap_per_service,
            share=share,
            weights=placement * priority[..., :, None],
            placement_share=placement / np.maximum(totals, 1),
            instance_mem=(placement * arrays.svc_mem[:, None]).sum(axis=-2),
        )


def node_commit(placement: np.ndarray, quota: np.ndarray) -> np.ndarray:
    """(..., n) quota committed on each node by a (..., k, n) placement; each
    leading index gives the bits of the (k, n) case."""
    return (np.swapaxes(placement, -1, -2).astype(float) @ quota[..., None])[..., 0]


def allocate_work(
    cap: Capacity, node_cpu: np.ndarray, demand_work: np.ndarray, carry_work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CPU work each service gets this tick, and where it runs.

    Each service first uses its committed share (plus the fraction of a request
    carried over from the last tick); node CPU left over goes to the services
    still backlogged, split by placement-weighted priority. Returns
    (work_done (..., k), used_by_node (..., k, n)).
    """
    served_base = np.minimum(demand_work, cap.cap_per_service + carry_work)
    used_base = served_base[..., None] * cap.share
    rem = demand_work - served_base
    needy = rem > 1e-12
    if not needy.any():
        return served_base, used_base
    leftover = np.maximum(node_cpu - used_base.sum(axis=-2), 0.0)
    weights = np.where(needy[..., None], cap.weights, 0.0)
    col = weights.sum(axis=-2)[..., None, :]
    has_col = col > 0
    frac = np.where(has_col, weights / np.where(has_col, col, 1.0), 0.0)
    offer = frac * leftover[..., None, :]
    offered = offer.sum(axis=-1)
    take = np.minimum(rem, offered)
    has_offer = offered > 0
    scale = np.where(has_offer, take / np.where(has_offer, offered, 1.0), 0.0)
    extra = offer * scale[..., None]
    return served_base + extra.sum(axis=-1), used_base + extra


def contention(share: np.ndarray, util_cpu: np.ndarray) -> np.ndarray:
    """Per-service contention rho: the capacity-weighted CPU utilization of the
    nodes hosting the service, (..., k) from share (..., k, n) and (..., n)."""
    return (share @ util_cpu[..., None])[..., 0]


def utilization_step(
    util_true: np.ndarray,
    used_by_node: np.ndarray,
    queue_len: np.ndarray,
    completed: np.ndarray,
    cap: Capacity,
    arrays: TopologyArrays,
    alpha: float,
) -> np.ndarray:
    """EWMA of the tick's (cpu, mem, net) node utilization, (..., n, 3).

    Memory holds the instances plus the payloads still queued, the network
    carries the payloads completed; both spread over a service's instances.
    """
    inst = np.empty(util_true.shape)
    inst[..., 0] = used_by_node.sum(axis=-2) / arrays.node_cpu
    queued_payload = (queue_len * arrays.payload_mb)[..., None] * cap.placement_share
    inst[..., 1] = (cap.instance_mem + queued_payload.sum(axis=-2)) / arrays.node_mem
    moved_mb = (completed * arrays.payload_mb)[..., None] * cap.placement_share
    inst[..., 2] = moved_mb.sum(axis=-2) / arrays.node_net
    inst.clip(0.0, 1.0, out=inst)
    return (1.0 - alpha) * util_true + alpha * inst


def drain(
    buckets: np.ndarray, head: np.ndarray, available: np.ndarray, row_wu: np.ndarray,
    formula: np.ndarray, tick: int, tick_ms: float, served: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Serve the FIFO queues of flat rows at `tick`; returns per row the
    requests completed and their summed queue wait + `formula` ms.

    Column t % C of `buckets` (rows, C) holds a row's requests still waiting
    from arrival tick t, for t from the row's `head` to `tick`. Each step serves
    one bucket of every row that can still afford a request and moves the head
    past a bucket once it is empty: per row, the float operations of a loop
    over its buckets in order. `buckets`, `head` and `available` are updated in
    place; `served` collects (rows, wait_ms, formula_ms, n_served) per step.
    """
    C = buckets.shape[1]
    completed = np.zeros(len(head), dtype=np.int64)
    sum_base_ms = np.zeros(len(head))
    rows = ((head <= tick) & (available >= row_wu)).nonzero()[0]
    while rows.size:
        h, wu, a = head[rows], row_wu[rows], available[rows]
        col = h % C
        left = buckets[rows, col]
        n_served = np.minimum(a // wu, left).astype(np.int64)
        available[rows] = a = a - n_served * wu
        buckets[rows, col] = left = left - n_served
        wait_ms = (tick - h) * tick_ms
        formula_ms = formula[rows]
        completed[rows] += n_served
        sum_base_ms[rows] += (wait_ms + formula_ms) * n_served
        if served is not None:
            served.append((rows, wait_ms, formula_ms, n_served))
        head[rows] = h = h + (left == 0)
        rows = rows[(h <= tick) & (a >= wu)]  # each step serves or passes an empty bucket
    return completed, sum_base_ms


def window_stats(hist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`hist.mean(0)` and `hist.var(0)`, bit for bit, with the mean computed once."""
    m = hist.sum(axis=0) / len(hist)
    return m, np.square(hist - m).sum(axis=0) / len(hist)


def sample_jitter(model: LatencyModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Unit-mean lognormal multipliers: exp(sigma*Z - sigma^2/2)."""
    if not model.jitter_enabled or model.jitter_sigma == 0.0:
        return np.ones(size)
    s = model.jitter_sigma
    return np.exp(s * rng.standard_normal(size) - 0.5 * s * s)


def reward(
    previous_quota: np.ndarray,
    latency_ms: np.ndarray,
    util: np.ndarray,
    action: SchedulingAction,
    spec: RewardSpec,
) -> float:
    """Negative weighted penalty: the latency overshoot of the (k,) per-service
    `latency_ms` and the CPU utilization distance of the (n, 3) node `util`,
    plus the scheduling cost C_t of `action` (instance changes, migrations,
    quota drift from `previous_quota`). Always <= 0; 0 only when every term
    vanishes. `ClusterSim` charges the action as applied."""
    t_term = float((latency_ms / spec.T_target).sum())
    u_term = float(np.abs(util[:, 0] - spec.u_target).sum())
    c_term = (
        spec.cost_instance * float(np.abs(action.instance_delta).sum())
        + spec.cost_migration * float(action.migration.sum())
        + spec.cost_quota * float(np.abs(action.quota - previous_quota).sum())
    )
    return -(spec.w1 * t_term + spec.w2 * u_term + spec.w3 * c_term)


@dataclass
class TickRecord:
    tick: int
    completed: np.ndarray  # (k,)
    p50_ms: float
    p95_ms: float
    util: np.ndarray  # (n, 3)
    queue_len: np.ndarray  # (k,)


class ClusterSim:
    """Single-threaded simulation instance; run one per rollout."""

    def __init__(
        self,
        topology: ClusterTopology,
        seed: int = 0,
        noise: NoiseSpec | None = None,
        cache_hit_rate: float = 0.0,
        latency_sample_cap: int = 64,
        record_trace: bool = False,
    ):
        if latency_sample_cap < 1:
            raise ConfigError(f"latency_sample_cap must be >= 1, got {latency_sample_cap}")
        self.topology = topology
        self.noise = noise if noise is not None else NoiseSpec()
        self.reward_spec = RewardSpec()
        self.cache_hit_rate = cache_hit_rate
        self.latency_sample_cap = latency_sample_cap
        self.record_trace = record_trace

        k, n = topology.service_count, topology.node_count
        self.k, self.n = k, n
        self.placement = np.array(topology.initial_placement, dtype=int)
        self.quota = np.array(topology.initial_quota, dtype=float)
        self.priority = np.array(topology.initial_priority, dtype=float)
        self.arrays = TopologyArrays.of(topology)
        self.node_cpu = self.arrays.node_cpu
        self._capacity_key: tuple[bytes, bytes, bytes] | None = None
        self._capacity: Capacity | None = None
        self._sanitize_key: list | None = None
        # the last sanitized action, its clamps and, when it keeps every
        # instance where it is, the node commitment it leaves (see _clamp_action)
        self._sanitized: tuple[SchedulingAction, int, float | None] | None = None

        self.tick = 0
        # FIFO queues: a ring of per-arrival-tick buckets per service (see `drain`)
        self._buckets = np.zeros((k, QUEUE_RING_START), dtype=np.int64)
        self._head = np.zeros(k, dtype=np.int64)
        self.queue_len = np.zeros(k, dtype=np.int64)
        self.carry_work = np.zeros(k)
        self.util_true = np.zeros((n, 3))
        self.util_obs = np.zeros((n, 3))
        # the last history_window ticks' arrival counts: row i of a ring is kept
        # at i and i + window, so the window is always one contiguous slice
        self._load_ring = np.zeros((2 * topology.history_window, k))
        self._load_ticks = 0
        self.last_load = np.zeros(k, dtype=np.int64)
        self.last_latency_ms = np.zeros(k)
        self.last_throughput = np.zeros(k)

        self.generated_total = 0
        self.completed_total = 0
        self.sanitized_actions = 0
        self.first_scale_up_tick = -1
        self.backlog_integral = 0.0
        self.reward_trace: list[float] = []
        self.trace: list[TickRecord] = []
        # per tick stepped, the (wait ms, formula ms, requests) of each bucket
        # served, in service-then-arrival order, until `_materialize` samples them
        self._served: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._samples: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []

        self._noise_rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 101])
        self._jitter_rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 202])

    # -- action handling ---------------------------------------------------

    def sanitize_action(self, action: SchedulingAction) -> tuple[SchedulingAction, int]:
        """Clamp the action to the feasible region; returns the clamp count.

        A non-finite priority or quota keeps the simulator's current value and
        counts as one clamp. The result depends only on the action and the
        current configuration, so a call whose inputs equal the last call's (a
        hold on an unchanged configuration, most ticks) reuses that result."""
        delta = np.asarray(action.instance_delta, dtype=int)
        mig = np.asarray(action.migration)
        priority = np.asarray(action.priority, dtype=float)
        quota = np.asarray(action.quota, dtype=float)
        key = [
            (a.dtype, a.shape, a.tobytes())
            for a in (delta, mig, priority, quota, self.placement, self.priority, self.quota)
        ]
        if key != self._sanitize_key:
            self._sanitize_key = key
            moves = mig > 0 if mig.shape == (self.k, self.n) else None
            self._sanitized = self._clamp_action(delta, moves, mig.size, priority, quota)
        act, clamps, _ = self._sanitized
        return (
            SchedulingAction(
                act.instance_delta.copy(), act.migration.copy(), act.priority.copy(),
                act.quota.copy(),
            ),
            clamps,
        )

    def _clamp_action(
        self, delta: np.ndarray, moves: np.ndarray | None, mig_size: int,
        priority: np.ndarray, quota: np.ndarray,
    ) -> tuple[SchedulingAction, int, float | None]:
        """The sanitized action and its clamp count, computed in full; and, for
        an action that adds, removes and moves no instance, the largest node
        commitment of its quota on the current placement, which applying it
        leaves (None for any other action)."""
        floor = 1 - self.placement.sum(axis=1)  # keeps at least one instance per service
        clamped_delta = np.maximum(delta, floor)
        clamps = int(np.count_nonzero(clamped_delta != delta))
        if moves is not None:
            migration = moves.astype(int)
        else:
            migration = np.zeros((self.k, self.n), dtype=int)
            if mig_size:
                clamps += 1
        priority, priority_clamps = _clamped(priority, self.priority, 0.0, 1.0)
        quota, quota_clamps = _clamped(quota, self.quota, QUOTA_FLOOR, 1.0)
        clamps += priority_clamps + quota_clamps
        keeps_placement = not (clamped_delta.any() or migration.any())
        worst = node_commit(self.placement, quota).max() if keeps_placement else None
        return SchedulingAction(clamped_delta, migration, priority, quota), clamps, worst

    def _apply_action(self, action: SchedulingAction) -> SchedulingAction:
        """Apply the action; returns it as applied: the sanitized deltas, the
        migrations that took effect and the quota after any rescale."""
        act, clamps = self.sanitize_action(action)
        self.sanitized_actions += clamps
        worst = self._sanitized[2]  # known when the action keeps every instance in place

        migrated = act.migration  # all zeros when it does
        if worst is None:
            deltas = act.instance_delta.tolist()
            for s, d in enumerate(deltas):
                while d > 0:
                    j = int(np.argmin(self._node_commit()))
                    self.placement[s, j] += 1
                    d -= 1
                while d < 0 and self.placement[s].sum() > 1:
                    j = int(np.argmax(self.placement[s]))
                    self.placement[s, j] -= 1
                    d += 1

            migrated = np.zeros_like(act.migration)
            for s, j in zip(*np.nonzero(act.migration)):
                sources = np.flatnonzero(self.placement[s] > 0)
                sources = sources[sources != j]
                if sources.size == 0:
                    self.sanitized_actions += 1
                    continue
                src = int(sources[np.argmax(self.placement[s, sources])])
                self.placement[s, src] -= 1
                self.placement[s, j] += 1
                migrated[s, j] = 1

            if sum(deltas) > 0 and self.first_scale_up_tick < 0:
                self.first_scale_up_tick = self.tick

        self.priority = act.priority
        self.quota = act.quota
        if worst is None:
            worst = self._node_commit().max()
        if worst > 1.0:
            self.quota = self.quota / worst
            self.sanitized_actions += 1
        return SchedulingAction(act.instance_delta, migrated, act.priority, self.quota)

    def _node_commit(self) -> np.ndarray:
        return node_commit(self.placement, self.quota)

    def capacity(self) -> Capacity:
        """Capacity of the current configuration, rebuilt when that changed."""
        key = (self.placement.tobytes(), self.quota.tobytes(), self.priority.tobytes())
        if key != self._capacity_key:
            self._capacity = Capacity.of(self.placement, self.quota, self.priority, self.arrays)
            self._capacity_key = key
        return self._capacity

    def service_rho(self) -> np.ndarray:
        """(k,) contention each service sees at the current configuration."""
        return contention(self.capacity().share, self.util_true[:, 0])

    # -- stepping ----------------------------------------------------------

    def step_counts(self, action: SchedulingAction, counts: np.ndarray) -> None:
        """Advance one tick: apply the action, enqueue arrivals, drain queues by
        priority-weighted capacity sharing, update utilization and statistics.
        `observe_state` reads the state it leaves."""
        prev_quota = self.quota.copy()
        applied = self._apply_action(action)
        counts = np.asarray(counts, dtype=np.int64)

        self.generated_total += int(counts.sum())
        # an empty queue starts at this tick, so idle ticks never deepen the ring
        self._head[self.queue_len == 0] = self.tick
        if self.tick - self._head.min() >= self._buckets.shape[1]:
            self._grow_queues()
        self._buckets[:, self.tick % self._buckets.shape[1]] = counts
        self.queue_len += counts
        self.last_load = counts.copy()

        # completions: FIFO, oldest bucket first; capacity is not bankable across idle ticks.
        # Contention rho is the (previous-tick EWMA) CPU utilization of the
        # nodes hosting the service, capacity-weighted: an idle instance sees
        # rho = 0 and queue wait covers anything beyond rho_cap.
        cap = self.capacity()
        work_units = self.arrays.work_units
        available, used_by_node = allocate_work(
            cap, self.node_cpu, self.queue_len * work_units + 0.0, self.carry_work
        )
        rho = contention(cap.share, self.util_true[:, 0])
        formula = service_latency(self.topology.latency, rho, self.cache_hit_rate)
        served: list[tuple[np.ndarray, ...]] = []
        completed, sum_base_ms = drain(
            self._buckets, self._head, available, work_units, formula, self.tick,
            self.topology.tick_length * 1000.0, served,
        )
        self.queue_len -= completed
        self.carry_work = np.where(self.queue_len > 0, np.remainder(available, work_units), 0.0)

        # the buckets served, in service-major, then arrival order: the order
        # of a per-service loop, in which their jitter is drawn
        if len(served) == 1:
            _, waits, formulas, n_served = served[0]
        elif served:
            rows, waits, formulas, n_served = map(np.concatenate, zip(*served))
            order = rows.argsort(kind="stable")
            waits, formulas, n_served = waits[order], formulas[order], n_served[order]
        else:
            waits = formulas = np.zeros(0)
            n_served = np.zeros(0, dtype=np.int64)
        self._served.append((waits, formulas, n_served))

        self.completed_total += int(completed.sum())
        self.backlog_integral += float(self.queue_len.sum()) * self.topology.tick_length

        # utilization (EWMA ground truth, noisy observation)
        self.util_true = utilization_step(
            self.util_true, used_by_node, self.queue_len, completed, cap, self.arrays,
            self.topology.ewma_alpha,
        )
        if self.noise.std > 0:
            eps = self._noise_rng.normal(0.0, self.noise.std, size=self.util_true.shape)
        else:
            eps = 0.0
        self.util_obs = (self.util_true + eps).clip(0.0, 1.0)

        w = self.topology.history_window
        if w:
            i = self._load_ticks % w
            self._load_ring[i] = self._load_ring[i + w] = counts
        self._load_ticks += 1
        self.last_latency_ms = np.where(completed > 0, sum_base_ms / np.maximum(completed, 1), 0.0)
        self.last_throughput = completed / self.topology.tick_length

        self.reward_trace.append(
            reward(prev_quota, self.last_latency_ms, self.util_obs, applied, self.reward_spec)
        )

        if self.record_trace:
            self._materialize()
            samples, weights = self._samples[-1], self._weights[-1]
            p50, p95 = (
                weighted_percentile(samples, weights, (0.5, 0.95)) if samples.size else (0.0, 0.0)
            )
            self.trace.append(
                TickRecord(
                    tick=self.tick,
                    completed=completed,
                    p50_ms=p50,
                    p95_ms=p95,
                    util=self.util_obs.copy(),
                    queue_len=self.queue_len.copy(),
                )
            )
        self.tick += 1

    def _materialize(self) -> None:
        """Sample the latencies of the ticks stepped since the last call.

        Each bucket served gives min(requests, `latency_sample_cap`) samples of
        its wait plus its formula latency times a jitter draw, each weighted by
        its share of the bucket's requests. The jitter of all pending ticks is
        one draw, in tick order: the stream a draw per tick would give, so the
        samples do not depend on when they are read."""
        if not self._served:
            return
        pending, self._served = self._served, []
        draws = [np.minimum(n_served, self.latency_sample_cap) for _, _, n_served in pending]
        sizes = [int(d.sum()) for d in draws]  # a bucket with no request served draws none
        jit = sample_jitter(self.topology.latency, self._jitter_rng, sum(sizes))
        start = 0
        for (waits, formulas, n_served), d, size in zip(pending, draws, sizes):
            self._samples.append(waits.repeat(d) + formulas.repeat(d) * jit[start : start + size])
            self._weights.append((n_served / np.maximum(d, 1)).repeat(d))
            start += size

    @property
    def latency_samples(self) -> list[np.ndarray]:
        """Per tick stepped, the sampled latencies (ms) of the requests it
        completed (see `_materialize`)."""
        self._materialize()
        return self._samples

    @property
    def latency_weights(self) -> list[np.ndarray]:
        """Per tick stepped, the number of requests each latency sample stands for."""
        self._materialize()
        return self._weights

    def _grow_queues(self) -> None:
        """Double the bucket ring; each waiting bucket keeps its arrival tick."""
        C = self._buckets.shape[1]
        ticks = np.arange(self._head.min(), self.tick)
        buckets = np.zeros((self.k, 2 * C), dtype=np.int64)
        buckets[:, ticks % (2 * C)] = self._buckets[:, ticks % C]
        self._buckets = buckets

    # -- observation -------------------------------------------------------

    @property
    def queues(self) -> list[list[list[int]]]:
        """Per service, [arrival tick, requests left] of each waiting bucket, oldest first."""
        C = self._buckets.shape[1]
        return [
            [[t, ring[t % C]] for t in range(head, self.tick) if ring[t % C]]
            for ring, head in zip(self._buckets.tolist(), self._head.tolist())
        ]

    def observe_state(self) -> SystemState:
        hist_mean, hist_var = window_stats(self._load_window())
        return SystemState(
            load=self.last_load.astype(float),
            util=self.util_obs.copy(),
            queue_len=self.queue_len.astype(float),
            hist_mean=hist_mean,
            hist_var=hist_var,
            latency_ms=self.last_latency_ms.copy(),
            throughput=self.last_throughput.copy(),
            tick=self.tick,
        )

    def _load_window(self) -> np.ndarray:
        """(ticks, k) arrival counts of the last `history_window` ticks, oldest
        first; one row of zeros before the first tick or with no window."""
        w = self.topology.history_window
        m = min(self._load_ticks, w)
        if not m:
            return np.zeros((1, self.k))
        start = (self._load_ticks - m) % w
        return self._load_ring[start : start + m]

    def no_op_action(self) -> SchedulingAction:
        return SchedulingAction(
            instance_delta=np.zeros(self.k, dtype=int),
            migration=np.zeros((self.k, self.n), dtype=int),
            priority=self.priority.copy(),
            quota=self.quota.copy(),
        )

    def conservation_ok(self) -> bool:
        return self.generated_total == self.completed_total + int(self.queue_len.sum())

    # -- summary helpers -----------------------------------------------------

    def all_latency_samples(self) -> tuple[np.ndarray, np.ndarray]:
        samples, weights = self.latency_samples, self.latency_weights
        if not samples:
            return np.zeros(0), np.zeros(0)
        return np.concatenate(samples), np.concatenate(weights)


def _clamped(values, current: np.ndarray, low: float, high: float) -> tuple[np.ndarray, int]:
    """`values` clipped to [low, high], a non-finite entry replaced by the
    `current` one; and the number of entries changed."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    replaced = int(finite.size - np.count_nonzero(finite))
    if replaced:
        arr = np.where(finite, arr, current)
    out = np.clip(arr, low, high)
    return out, replaced + int(np.count_nonzero(out != arr))


@dataclass
class RolloutBatch:
    """Per-candidate sums over the ticks of a batched rollout, and what the
    observation after the last tick is built from."""

    latency_sum: np.ndarray  # (P,) per tick: mean latency (ms) . completions
    completed: np.ndarray  # (P,) completions
    util_sum: np.ndarray  # (P,) per tick: mean node CPU utilization
    node_work: np.ndarray  # (P, n) per tick: node CPU utilization
    util: np.ndarray  # (P, n, 3) last tick
    queue_len: np.ndarray  # (P, k) last tick
    latency_ms: np.ndarray  # (P, k) last tick
    throughput: np.ndarray  # (P, k) last tick
    load: np.ndarray  # (k,) shared by every candidate
    hist_mean: np.ndarray  # (k,)
    hist_var: np.ndarray  # (k,)
    ticks: int

    def final_state(self, p: int) -> SystemState:
        """Candidate p's observation after the last tick, built on demand."""
        return SystemState(
            load=self.load.copy(),
            util=self.util[p],
            queue_len=self.queue_len[p].astype(float),
            hist_mean=self.hist_mean.copy(),
            hist_var=self.hist_var.copy(),
            latency_ms=self.latency_ms[p],
            throughput=self.throughput[p],
            tick=self.ticks,
        )


def rollout_batch(
    topology: ClusterTopology,
    placement: np.ndarray,
    quota: np.ndarray,
    priority: np.ndarray,
    arrivals: np.ndarray,
) -> RolloutBatch:
    """Step P candidate configurations of `topology` together through the same
    arrivals, each holding its configuration (no-op actions), with no latency
    jitter, observation noise or cache hits.

    placement is (P, k, n), quota and priority (P, k), arrivals (T >= 1, k)
    request counts per tick. Per candidate, the sums and the final state equal
    those of a `ClusterSim` on that configuration stepped T ticks with no-op
    actions and zero noise, bit for bit: the tick model is the same functions,
    and the arithmetic runs in the same order.

    A candidate's FIFO queues are a (k, T) array of requests left per arrival
    tick, drained by the same `drain` as `ClusterSim`'s bucket ring.
    """
    placement = np.asarray(placement, dtype=np.int64)
    quota = np.asarray(quota, dtype=float)
    arrivals = np.asarray(arrivals, dtype=np.int64)
    P, k, n = placement.shape
    T = len(arrivals)
    # what a ClusterSim does to its configuration on the first tick: the
    # topology's checks, the action clamps and the rescale of an
    # over-committed node (none of which changes a repaired chromosome)
    if np.any(placement.sum(axis=-1) < 1):
        raise ConfigError("every service needs at least one instance")
    if not np.all((quota > 0.0) & (quota <= 1.0)):
        raise ConfigError("quota outside (0, 1]")
    priority = np.clip(np.asarray(priority, dtype=float), 0.0, 1.0)
    quota = np.clip(quota, QUOTA_FLOOR, 1.0)
    worst = node_commit(placement, quota).max(axis=-1)
    if np.any(worst > 1.0 + 1e-9):
        raise ConfigError("per-node quota commitment exceeds 1")
    over = worst > 1.0
    if over.any():
        quota[over] = quota[over] / worst[over, None]

    arrays = TopologyArrays.of(topology)
    cap = Capacity.of(placement, quota, priority, arrays)
    model = topology.latency
    tick_length = topology.tick_length
    tick_ms = tick_length * 1000.0

    # flat (candidate, service) rows, each with a (T,) bucket row
    row_wu = np.tile(arrays.work_units, P)
    buckets = np.tile(arrivals.T, (P, 1))
    head = np.zeros(P * k, dtype=np.int64)

    queue_len = np.zeros((P, k), dtype=np.int64)
    carry_work = np.zeros((P, k))
    util_true = np.zeros((P, n, 3))
    latency_sum = np.zeros(P)
    completed_sum = np.zeros(P)
    util_sum = np.zeros(P)
    node_work = np.zeros((P, n))

    for t in range(T):
        queue_len += arrivals[t]
        work_done, used_by_node = allocate_work(
            cap, arrays.node_cpu, queue_len * arrays.work_units + 0.0, carry_work
        )
        formula = service_latency(model, contention(cap.share, util_true[..., 0])).reshape(-1)
        available = work_done.reshape(-1)
        done_flat, sum_base_ms = drain(buckets, head, available, row_wu, formula, t, tick_ms)
        completed = done_flat.reshape(P, k)
        queue_len -= completed
        carry_work = np.where(
            queue_len > 0, np.remainder(available, row_wu).reshape(P, k), 0.0
        )
        util_true = utilization_step(
            util_true, used_by_node, queue_len, completed, cap, arrays, topology.ewma_alpha
        )
        latency_ms = np.where(
            completed > 0, sum_base_ms.reshape(P, k) / np.maximum(completed, 1), 0.0
        )
        done = completed / tick_length * tick_length
        latency_sum += (latency_ms[:, None, :] @ done[:, :, None])[:, 0, 0]
        completed_sum += done.sum(axis=-1)
        util_sum += util_true[..., 0].sum(axis=-1) / n  # as .mean(), without its overhead
        node_work += util_true[..., 0]

    window = arrivals[max(T - topology.history_window, 0):].astype(float)
    if not len(window):  # history_window 0, as ClusterSim.observe_state treats it
        window = np.zeros((1, k))
    hist_mean, hist_var = window_stats(window)
    return RolloutBatch(
        latency_sum, completed_sum, util_sum, node_work,
        util=np.clip(util_true + 0.0, 0.0, 1.0),
        queue_len=queue_len,
        latency_ms=latency_ms,
        throughput=completed / tick_length,
        load=arrivals[-1].astype(float),
        hist_mean=hist_mean,
        hist_var=hist_var,
        ticks=T,
    )


def encode_compact_state(state: SystemState, queue_reference: float = 1000.0) -> np.ndarray:
    """(C, M, N, L): mean cpu/mem utilization, normalized network throughput,
    and queue backlog relative to a configured reference."""
    c = float(state.util[:, 0].mean())
    m = float(state.util[:, 1].mean())
    n = float(state.util[:, 2].mean())
    l = float(state.queue_len.sum() / queue_reference)
    return np.array([c, m, n, l])


def write_trace_csv(sim: ClusterSim, path: str | Path) -> None:
    """Per-tick trace: one row per (tick, service); utils are cluster means."""
    lines = ["tick,service_id,completed,p50_ms,p95_ms,util_cpu,util_mem,util_net,queue_len"]
    for rec in sim.trace:
        util_cpu, util_mem, util_net = rec.util.mean(axis=0)
        for s in range(len(rec.completed)):
            lines.append(
                f"{rec.tick},{s},{int(rec.completed[s])},{rec.p50_ms:.6f},{rec.p95_ms:.6f},"
                f"{util_cpu:.6f},{util_mem:.6f},{util_net:.6f},{int(rec.queue_len[s])}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


# --- topology (de)serialization ----------------------------------------------


def topology_from_dict(data: dict) -> ClusterTopology:
    """The topology a JSON object describes. Keys it omits take the
    `ClusterTopology` defaults, and keys it does not name are ignored."""
    try:
        given = {f.name: data[f.name] for f in fields(ClusterTopology) if f.name in data}
        given.update(
            nodes=tuple(NodeSpec(**n) for n in data["nodes"]),
            services=tuple(ServiceSpec(**s) for s in data["services"]),
            initial_placement=tuple(
                tuple(int(v) for v in row) for row in data["initial_placement"]
            ),
            initial_quota=tuple(float(q) for q in data["initial_quota"]),
            initial_priority=tuple(float(p) for p in data["initial_priority"]),
        )
        if "latency" in given:
            given["latency"] = LatencyModel(**given["latency"])
        return ClusterTopology(**given)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad topology definition: {exc}") from exc


def save_topology(topo: ClusterTopology, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(topo), indent=2) + "\n")


def load_topology(path: str | Path) -> ClusterTopology:
    return topology_from_dict(read_json(path, "topology"))
