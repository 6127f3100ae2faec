"""Discrete-time cluster simulation: nodes, service instances, queues and the
latency/reward model driving every scheduler in this package.

The tick model (capacity sharing, contention and formula latency, the
utilization EWMA) is written once, over arrays with optional leading batch
axes, and so is the FIFO drain of the queues (`drain`), over flat rows of
per-arrival-tick buckets. `ClusterSim` has one tick over the same axes: a
topology whose initial configuration is (k, n) instance counts and (k,) quotas
and priorities gives one cluster; with leading axes, (P, k, n) and (P, k), it
gives P clusters stepped through the same arrivals. `step_counts` applies an
action (or holds the configuration), then ticks, and returns the action as
applied, which `reward` charges. An action for P clusters has one row per
cluster, and each row places its instances on its own nodes. `rollout_batch`
holds the hybrid scheduler's candidate configurations as the P rows of one
sim, with no jitter or noise, and `DecisionEnv` steps a group of training
episodes as the rows of one sim. A
sim keeps a run record (trace records and latency samples) only when
`record_trace` is set, and draws the jitter of its samples only when something
reads them.

A tick has two phases. The queue step (enqueue, `allocate_work`, `drain` and
the carry) reads no utilization or latency, so it runs tick by tick. The
observation pass (`utilization_step`, `contention`, `service_latency` and the
latency sums) runs over a window of ticks stepped at one configuration, the
window's ticks one more leading axis; only the utilization EWMA loops over
them. The live tick is its queue step and a window of that tick alone.
`rollout_batch`, whose configurations are held, steps the queues of up to
`OBSERVE_BLOCK` ticks and observes them in one pass.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, from_json, read_json
from .report import weighted_percentile
from .workload import ServiceSpec, default_service_mix

# Lognormal jitter sigma such that a unit-mean multiplier turns the 85 ms
# component sum into p95 = 120 ms (solve 1.6449*s - s^2/2 = ln(120/85)).
CALIBRATED_JITTER_SIGMA = 0.22504290663979853

QUOTA_FLOOR = 0.01  # smallest per-instance quota an action can set

QUEUE_RING_START = 16  # ticks of queue a ClusterSim holds before its bucket ring doubles

# ticks a sim that records its trace steps between sampling passes: a bound on
# the served buckets it keeps (see `ClusterSim._materialize`)
SAMPLE_BLOCK = 32

# most ticks one observation pass of a rollout covers: a bound on its buffers,
# which hold (ticks, P, k, n) entries (see `rollout_batch`)
OBSERVE_BLOCK = 32


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
    """Nodes, services and their initial configuration. The three initial
    fields may also be arrays with leading batch axes, one configuration per
    index (`rollout_batch` builds such a topology); a `ClusterSim` of it steps
    one cluster per index."""

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
        check_configuration(
            self.initial_placement, self.initial_quota, self.initial_priority,
            len(self.services), len(self.nodes),
        )
        if self.history_window < 0:
            raise ConfigError(f"history_window must be >= 0, got {self.history_window}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not (np.isfinite(self.tick_length) and self.tick_length > 0):
            raise ConfigError(f"tick_length must be finite and > 0, got {self.tick_length}")

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
    """Composite action: instance deltas, migration matrix, priorities, quotas.
    For a sim of P clusters each field has a leading (P,) axis, one row per
    cluster."""

    instance_delta: np.ndarray  # (k,) int
    migration: np.ndarray  # (k, n) in {0, 1}
    priority: np.ndarray  # (k,) in [0, 1]
    quota: np.ndarray  # (k,) in (0, 1]

    def row(self, p: int) -> "SchedulingAction":
        """Cluster p's action, of an action over the rows of a batch."""
        return SchedulingAction(
            self.instance_delta[p], self.migration[p], self.priority[p], self.quota[p]
        )


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

    def row(self, p: int) -> "SystemState":
        """Cluster p's observation, of a state observed over the leading axes
        of a batch: row p of each per-cluster field, a copy of the shared load
        and history."""
        return replace(
            self, load=self.load.copy(), util=self.util[p], queue_len=self.queue_len[p],
            hist_mean=self.hist_mean.copy(), hist_var=self.hist_var.copy(),
            latency_ms=self.latency_ms[p], throughput=self.throughput[p],
        )


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
    node_capacity: np.ndarray  # (n, 3) CPU-ms per tick, MB, MB per tick
    work_units: np.ndarray  # (k,) CPU-ms per request
    payload_mb: np.ndarray  # (k,)
    svc_mem: np.ndarray  # (k,) MB per instance

    @classmethod
    def of(cls, topology: ClusterTopology) -> "TopologyArrays":
        return cls(
            node_cpu=np.array([nd.cpu_capacity for nd in topology.nodes]),
            node_capacity=np.array(
                [(nd.cpu_capacity, nd.mem_capacity, nd.net_capacity) for nd in topology.nodes]
            ),
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


def check_configuration(placement, quota, priority, k: int, n: int) -> None:
    """Raise ConfigError unless (..., k, n) instance counts and (..., k) quotas
    and priorities, with the same leading axes, are configurations a cluster
    can start from: every service has an instance, every quota is in (0, 1], no
    node is committed beyond 1 and every priority is finite."""
    try:
        placement = np.asarray(placement)
    except ValueError:  # rows of different lengths
        placement = np.zeros(0)
    if placement.shape[-2:] != (k, n):
        raise ConfigError("initial_placement must be services x nodes")
    quota, priority = np.asarray(quota, dtype=float), np.asarray(priority, dtype=float)
    if quota.shape != placement.shape[:-1] or priority.shape != placement.shape[:-1]:
        raise ConfigError("quota/priority must have one entry per service")
    if np.any(placement.sum(axis=-1) < 1):
        raise ConfigError("every service needs at least one instance")
    bad = ~((quota > 0.0) & (quota <= 1.0))
    if bad.any():
        raise ConfigError(f"quota {quota[bad][0]} outside (0, 1]")
    if np.any(node_commit(placement, quota) > 1.0 + 1e-9):
        raise ConfigError("per-node quota commitment exceeds 1")
    if not np.all(np.isfinite(priority)):
        raise ConfigError(f"initial_priority must be finite, got {priority}")


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
    if not np.count_nonzero(needy):
        return served_base, used_base
    leftover = np.maximum(node_cpu - used_base.sum(axis=-2), 0.0)
    weights = np.where(needy[..., None], cap.weights, 0.0)
    col = weights.sum(axis=-2)[..., None, :]
    frac = np.divide(weights, col, out=np.zeros(weights.shape), where=col > 0)
    offer = frac * leftover[..., None, :]
    offered = offer.sum(axis=-1)
    take = np.minimum(rem, offered)
    scale = np.divide(take, offered, out=np.zeros(take.shape), where=offered > 0)
    extra = offer * scale[..., None]
    return served_base + extra.sum(axis=-1), used_base + extra


def contention(share: np.ndarray, util_cpu: np.ndarray) -> np.ndarray:
    """Per-service contention rho: the capacity-weighted CPU utilization of the
    nodes hosting the service, (..., k) from share (..., k, n) and (..., n)."""
    return (share @ util_cpu[..., None])[..., 0]


def utilization_step(
    util_true: np.ndarray,
    used_cpu: np.ndarray,
    queue_len: np.ndarray,
    completed: np.ndarray,
    cap: Capacity,
    arrays: TopologyArrays,
    alpha: float,
) -> np.ndarray:
    """EWMA of the (cpu, mem, net) node utilization over a window of W ticks,
    (W + 1, ..., n, 3): `util_true` (..., n, 3) before the window, then the
    EWMA after each tick, from each tick's used CPU per node (W, ..., n),
    queue lengths and completions (W, ..., k).

    Memory holds the instances plus the payloads still queued, the network
    carries the payloads completed; both spread over a service's instances.
    The clipped instantaneous utilization is computed over the whole window;
    only the EWMA recurrence runs tick by tick.
    """
    util = np.empty((len(used_cpu) + 1, *util_true.shape))
    util[0] = util_true
    inst = util[1:]  # each tick's reading, until its EWMA replaces it
    inst[..., 0] = used_cpu
    queued_payload = (queue_len * arrays.payload_mb)[..., None] * cap.placement_share
    inst[..., 1] = cap.instance_mem + queued_payload.sum(axis=-2)
    moved_mb = (completed * arrays.payload_mb)[..., None] * cap.placement_share
    inst[..., 2] = moved_mb.sum(axis=-2)
    inst /= arrays.node_capacity
    inst.clip(0.0, 1.0, out=inst)
    inst *= alpha
    for t in range(1, len(util)):  # (1 - alpha) * util[t - 1] + alpha * reading, bit for bit
        after = util[t]
        after += (1.0 - alpha) * util[t - 1]
    return util


def drain(
    buckets: np.ndarray, head: np.ndarray, available: np.ndarray, row_wu: np.ndarray, tick: int,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Serve the FIFO queues of flat rows at `tick`; returns per row the
    requests completed, and the buckets served.

    Column t % C of `buckets` (rows, C) holds a row's requests still waiting
    from arrival tick t, for t from the row's `head` to `tick`. Each step serves
    one bucket of every row that can still afford a request and moves the head
    past a bucket once it is empty: per row, the float operations of a loop
    over its buckets in order. `buckets`, `head` and `available` are updated in
    place. The buckets served are (rows, age in ticks, n_served) over the
    steps in order, which the observation pass turns into latencies (see
    `ClusterSim._observe`); it forms no latency here.
    """
    C = buckets.shape[1]
    completed = np.zeros(len(head), dtype=np.int64)
    steps = []
    rows = ((head <= tick) & (available >= row_wu)).nonzero()[0]
    while rows.size:
        h, wu, a = head[rows], row_wu[rows], available[rows]
        col = h % C
        left = buckets[rows, col]
        n_served = np.minimum(a // wu, left).astype(np.int64)
        available[rows] = a = a - n_served * wu
        buckets[rows, col] = left = left - n_served
        completed[rows] += n_served
        steps.append((rows, tick - h, n_served))
        head[rows] = h = h + (left == 0)
        rows = rows[(h <= tick) & (a >= wu)]  # each step serves or passes an empty bucket
    if len(steps) == 1:  # the usual tick: nothing to join
        return completed, steps[0]
    return completed, tuple(map(np.concatenate, zip(*steps))) if steps else (rows, rows, rows)


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
    vanishes. `DecisionEnv` charges each tick the action `ClusterSim.step_counts`
    applied."""
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
    util: np.ndarray  # (n, 3)
    queue_len: np.ndarray  # (k,)


@dataclass
class TickWindow:
    """What the queue steps of a window of ticks keep for its observation
    pass (see `ClusterSim._observe`): per tick, each node's used CPU, the
    queue lengths and completions the drain left, and the drain's steps."""

    used_cpu: np.ndarray  # (W, ..., n) CPU-ms
    queue_len: np.ndarray  # (W, ..., k)
    completed: np.ndarray  # (W, ..., k)
    steps: list  # per tick, the buckets the drain served: (rows, age, n_served)

    @classmethod
    def of(cls, sim: "ClusterSim", ticks: int) -> "TickWindow":
        shape = (ticks, *sim.queue_len.shape)
        return cls(
            used_cpu=np.empty((*shape[:-1], sim.n)),
            queue_len=np.empty(shape, dtype=np.int64),
            completed=np.empty(shape, dtype=np.int64),
            steps=[None] * ticks,
        )


class ClusterSim:
    """Single-threaded simulation of one cluster, or of one cluster per
    leading index of the topology's initial configuration (see the module
    docstring); run one per rollout. A sim made with `record_trace`, of one
    cluster since a batch's samples would pool its clusters, keeps the run
    record: a `TickRecord` per tick in `trace`, and the latency samples of the
    requests each tick completed. A sim made without it keeps neither."""

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
        self.placement = np.array(topology.initial_placement, dtype=int)  # (..., k, n)
        self.quota = np.array(topology.initial_quota, dtype=float)  # (..., k)
        self.priority = np.array(topology.initial_priority, dtype=float)
        shape, rows = self.quota.shape, self.quota.size  # rows: (cluster, service) pairs
        self.arrays = TopologyArrays.of(topology)
        self.node_cpu = self.arrays.node_cpu
        self._row_wu = np.tile(self.arrays.work_units, rows // k)
        # the capacity and the configuration bytes it was built from
        self._capacity_key: tuple[bytes, bytes, bytes] | None = None
        self._refresh_capacity()
        # the bytes of a configuration on which a no-op changes nothing, and
        # that no-op as applied there: what a hold on those bytes returns
        self._held_key: tuple[bytes, bytes, bytes] | None = None
        self._held: SchedulingAction | None = None

        self.tick = 0
        # FIFO queues: a ring of per-arrival-tick buckets per row (see `drain`)
        self._buckets = np.zeros((rows, QUEUE_RING_START), dtype=np.int64)
        self._head = np.zeros(rows, dtype=np.int64)
        self._oldest = 0  # a lower bound of the oldest head: heads never move back
        self.queue_len = np.zeros(shape, dtype=np.int64)
        self.carry_work = np.zeros(shape)
        self.util_true = np.zeros((*shape[:-1], n, 3))
        self.util_obs = np.zeros((*shape[:-1], n, 3))
        # the last history_window ticks' arrival counts: row i of a ring is kept
        # at i and i + window, so the window is always one contiguous slice
        self._load_ring = np.zeros((2 * topology.history_window, k))
        self._load_ticks = 0
        self.last_load = np.zeros(k, dtype=np.int64)
        self.last_latency_ms = np.zeros(shape)
        self.last_throughput = np.zeros(shape)

        # the run's totals, over every cluster; step_counts adds each tick
        self.generated_total = 0
        self.completed_total = 0
        self.backlog_integral = 0.0
        self.sanitized_actions = 0
        self.first_scale_up_tick = -1
        self.trace: list[TickRecord] = []
        # per observation pass of a recording sim (one per tick it steps): the
        # buckets each tick served and their (rows, wait, formula, n_served),
        # until `_materialize` puts them in order and samples them
        self._served: list[tuple] | None = [] if record_trace else None
        self._samples: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []

        self._seed = seed & 0xFFFFFFFFFFFFFFFF

    # built on first use: a rollout's sim draws from neither
    @cached_property
    def _noise_rng(self) -> np.random.Generator:
        return np.random.default_rng([self._seed, 101])

    @cached_property
    def _jitter_rng(self) -> np.random.Generator:
        return np.random.default_rng([self._seed, 202])

    # -- action handling ---------------------------------------------------

    def sanitize_action(self, action: SchedulingAction) -> tuple[SchedulingAction, int]:
        """Clamp the action to the feasible region; returns the clamp count.

        A non-finite priority or quota keeps the simulator's current value and
        counts as one clamp."""
        mig = np.asarray(action.migration)
        return self._clamp_action(
            np.asarray(action.instance_delta, dtype=int),
            mig > 0 if mig.shape == self.placement.shape else None,
            mig.size,
            np.asarray(action.priority, dtype=float),
            np.asarray(action.quota, dtype=float),
        )

    def _clamp_action(
        self, delta: np.ndarray, moves: np.ndarray | None, mig_size: int,
        priority: np.ndarray, quota: np.ndarray,
    ) -> tuple[SchedulingAction, int]:
        """The sanitized action and its clamp count."""
        floor = 1 - self.placement.sum(axis=-1)  # keeps at least one instance per service
        clamped_delta = np.maximum(delta, floor)
        clamps = int(np.count_nonzero(clamped_delta != delta))
        if moves is not None:
            migration = moves.astype(int)
        else:
            migration = np.zeros(self.placement.shape, dtype=int)
            if mig_size:
                clamps += 1
        priority, priority_clamps = _clamped(priority, self.priority, 0.0, 1.0)
        quota, quota_clamps = _clamped(quota, self.quota, QUOTA_FLOOR, 1.0)
        clamps += priority_clamps + quota_clamps
        return SchedulingAction(clamped_delta, migration, priority, quota), clamps

    def _no_op(self) -> tuple[SchedulingAction, int]:
        """A no-op action sanitized on the current configuration, and its clamp count."""
        no_change = np.zeros(self.quota.shape, dtype=int)
        return self._clamp_action(no_change, None, 0, self.priority, self.quota)

    def _hold(self) -> SchedulingAction:
        """Do to every cluster's configuration what a no-op action does: clamp
        priority and quota to their ranges and rescale an over-committed node.
        Returns the no-op as applied."""
        return self._enact(*self._no_op())

    def _enact(self, act: SchedulingAction, clamps: int) -> SchedulingAction:
        """Put the sanitized `act` into effect; returns it as applied: the
        sanitized deltas, the migrations that took effect and the quota after
        any rescale. Instance changes and migrations go row by row, over
        `np.ndindex` of the leading axes (`()` alone for one cluster): each row
        places its instances on its own nodes, with the operations and the
        order of a one-cluster sim, so a P-row sim's rows keep its bits."""
        self.sanitized_actions += clamps
        migrated = act.migration  # all zeros unless an instance is added, removed or moved
        if act.instance_delta.any() or act.migration.any():
            migrated = np.zeros_like(act.migration)
            for row in np.ndindex(self.quota.shape[:-1]):
                self._place(row, act.instance_delta[row], act.migration[row], migrated[row])
        self.priority = act.priority
        self.quota = act.quota
        worst = self._node_commit().max(-1, keepdims=True)
        over = worst > 1.0
        rescales = np.count_nonzero(over)
        if rescales:
            self.quota = np.where(over, self.quota / worst, self.quota)
            self.sanitized_actions += int(rescales)
        self._refresh_capacity()
        return SchedulingAction(act.instance_delta, migrated, act.priority, self.quota)

    def _place(
        self, row: tuple, delta: np.ndarray, migration: np.ndarray, migrated: np.ndarray
    ) -> None:
        """Apply one row's (k,) instance deltas, then its (k, n) migrations,
        to its placement, and mark in `migrated` the moves that took effect.
        An added instance goes to the row's least-committed node, a removed
        one comes from its fullest."""
        placement, quota = self.placement[row], self.quota[row]  # views of the row
        deltas = delta.tolist()
        for s, d in enumerate(deltas):
            while d > 0:
                j = int(np.argmin(node_commit(placement, quota)))
                placement[s, j] += 1
                d -= 1
            while d < 0 and placement[s].sum() > 1:
                j = int(np.argmax(placement[s]))
                placement[s, j] -= 1
                d += 1

        for s, j in zip(*np.nonzero(migration)):
            sources = np.flatnonzero(placement[s] > 0)
            sources = sources[sources != j]
            if sources.size == 0:
                self.sanitized_actions += 1
                continue
            src = int(sources[np.argmax(placement[s, sources])])
            placement[s, src] -= 1
            placement[s, j] += 1
            migrated[s, j] = 1

        if sum(deltas) > 0 and self.first_scale_up_tick < 0:
            self.first_scale_up_tick = self.tick

    def _settle_hold(self) -> None:
        """After a step's action took effect: if a no-op on the configuration
        it left would change nothing (no clamp, no node committed above 1),
        keep the configuration's bytes and that no-op as applied, for the
        holds that follow."""
        no_op, clamps = self._no_op()
        settled = not clamps and not np.any(self._node_commit() > 1.0)
        self._held_key = self._capacity_key if settled else None
        for zeros in (no_op.instance_delta, no_op.migration):  # every such hold returns them
            zeros.flags.writeable = False
        self._held = SchedulingAction(no_op.instance_delta, no_op.migration, self.priority, self.quota)

    def _refresh_capacity(self) -> None:
        """Rebuild the capacity if the configuration changed since it was built."""
        key = self._configuration()
        if key != self._capacity_key:
            self._capacity_key = key
            self._capacity = Capacity.of(self.placement, self.quota, self.priority, self.arrays)

    def _configuration(self) -> tuple[bytes, bytes, bytes]:
        return self.placement.tobytes(), self.quota.tobytes(), self.priority.tobytes()

    def _node_commit(self) -> np.ndarray:
        return node_commit(self.placement, self.quota)

    def service_rho(self) -> np.ndarray:
        """(k,) contention each service sees at the configuration the last
        action left (the initial one before the first tick)."""
        return contention(self._capacity.share, self.util_true[..., 0])

    # -- stepping ----------------------------------------------------------

    def step_counts(self, action: SchedulingAction | None, counts: np.ndarray) -> SchedulingAction:
        """Advance one tick: apply the action, or hold the configuration as a
        no-op action would when it is None, tick on the (k,) arrival counts and
        add the tick to the run's totals and trace. Returns the action as
        applied, which `reward` charges.

        A hold on the configuration bytes that the last action or hold left
        settled (see `_settle_hold`) sanitizes and applies nothing: it returns
        the no-op as applied there, whose deltas and migrations are read-only
        zeros and whose priority and quota are the sim's own arrays. Any other
        hold takes the full path: the first tick, a hold
        that must clamp or rescale (after a rescale took a quota below
        `QUOTA_FLOOR`, say) and a hold after an in-place edit of the
        configuration."""
        if action is not None:
            applied = self._enact(*self.sanitize_action(action))
            self._settle_hold()
        elif self._held_key == self._configuration():
            applied = self._held
        else:
            applied = self._hold()
            self._settle_hold()
        tick = self.tick
        completed = self._tick(counts)
        self.generated_total += int(self.last_load.sum()) * (self.queue_len.size // self.k)
        self.completed_total += int(completed.sum())
        self.backlog_integral += float(self.queue_len.sum()) * self.topology.tick_length
        if self.record_trace:
            self.trace.append(TickRecord(tick, completed, self.util_obs.copy(), self.queue_len.copy()))
            if len(self._served) >= SAMPLE_BLOCK:  # it reads every sample in the end
                self._materialize()
        return applied

    def _tick(self, counts: np.ndarray) -> np.ndarray:
        """One tick on the (k,) arrivals of every cluster: the queue step, then
        the observation pass over a window of that tick alone; returns the
        requests completed. `observe_state` reads the state it leaves."""
        window = self._window
        completed = self._queue_step(counts, window, 0)
        self._observe(window)
        return completed

    @cached_property
    def _window(self) -> TickWindow:
        """The one-tick window of the live tick."""
        return TickWindow.of(self, 1)

    def _queue_step(self, counts: np.ndarray, window: TickWindow, t: int) -> np.ndarray:
        """The queue dynamics of a tick, which read no utilization or latency:
        enqueue the (k,) arrivals at every cluster, drain the queues by
        priority-weighted capacity sharing, carry the fraction of a request
        the work left over buys, and advance the load history and the tick.
        Keeps in tick t of `window` what the observation pass reads; returns
        the requests completed."""
        counts = np.asarray(counts, dtype=np.int64)
        queue_len = self.queue_len
        shape = queue_len.shape
        # an empty queue starts at this tick, so idle ticks never deepen the ring
        self._head[queue_len.reshape(-1) == 0] = self.tick
        C = self._buckets.shape[1]
        if self.tick - self._oldest >= C:  # the ring may be full: look at the heads
            self._oldest = int(self._head.min())
            if self.tick - self._oldest >= C:
                self._grow_queues()
                C *= 2
        self._buckets.reshape(*shape, C)[..., self.tick % C] = counts
        queue_len += counts
        self.last_load = counts.copy()

        # completions: FIFO, oldest bucket first; capacity is not bankable across idle ticks
        available, used_by_node = allocate_work(
            self._capacity, self.node_cpu, queue_len * self.arrays.work_units, self.carry_work
        )
        available = available.reshape(-1)  # the drain spends it in place
        completed, window.steps[t] = drain(
            self._buckets, self._head, available, self._row_wu, self.tick
        )
        completed = completed.reshape(shape)
        queue_len -= completed
        self.carry_work = np.where(
            queue_len > 0, np.remainder(available, self._row_wu).reshape(shape), 0.0
        )
        used_by_node.sum(axis=-2, out=window.used_cpu[t])
        window.queue_len[t] = queue_len
        window.completed[t] = completed

        w = self.topology.history_window
        if w:
            i = self._load_ticks % w
            self._load_ring[i] = self._load_ring[i + w] = counts
        self._load_ticks += 1
        self.tick += 1
        return completed

    def _observe(self, window: TickWindow) -> tuple[np.ndarray, np.ndarray]:
        """The observation pass over the ticks of `window`, which the queue
        steps since the last pass filled, all at the current configuration:
        their utilization EWMA, and the latency of the requests they completed.
        Contention rho is each tick's previous-tick EWMA CPU utilization of the
        nodes hosting the service, capacity-weighted: an idle instance sees
        rho = 0, and queue wait covers anything beyond rho_cap. A request's
        latency is its wait plus the formula latency at rho, summed per row in
        the order the drain served them. Leaves the state after the last tick;
        returns per tick the utilization (W, ..., n, 3) and the mean
        completed-request latency in ms (W, ..., k)."""
        cap, completed = self._capacity, window.completed
        util = utilization_step(
            self.util_true, window.used_cpu, window.queue_len, completed, cap, self.arrays,
            self.topology.ewma_alpha,
        )
        # the CPU column of whole (n, 3) readings: a vector of another stride
        # takes another BLAS kernel, which sums in another order
        formula = service_latency(
            self.topology.latency, contention(cap.share, util[:-1, ..., 0]), self.cache_hit_rate
        ).reshape(-1)
        util = util[1:]

        served = window.steps
        if len(served) == 1:  # the live tick: its rows index the formula as they are
            ((rows, age, n_served),) = served
            flat = rows
        else:
            rows, age, n_served = map(np.concatenate, zip(*served))
            per_tick = [len(tick[0]) for tick in served]
            flat = rows + np.repeat(np.arange(0, len(formula), len(self._head)), per_tick)
        wait_ms = age * (self.topology.tick_length * 1000.0)
        formula_ms = formula[flat]
        # each row's buckets added to its sum in the order the drain served them
        sum_base_ms = np.bincount(flat, (wait_ms + formula_ms) * n_served, len(formula))
        latency = sum_base_ms.reshape(completed.shape) / np.maximum(completed, 1)  # 0 if none
        if self._served is not None:
            counts = [len(tick[0]) for tick in served]
            self._served.append((counts, rows, wait_ms, formula_ms, n_served))

        self.util_true = util[-1]
        if self.noise.std > 0:  # the stream of one draw per tick
            eps = self._noise_rng.normal(0.0, self.noise.std, size=util.shape)[-1]
        else:
            eps = 0.0
        self.util_obs = (self.util_true + eps).clip(0.0, 1.0)
        self.last_latency_ms = latency[-1]
        self.last_throughput = completed[-1] / self.topology.tick_length
        return util, latency

    def _materialize(self) -> None:
        """Sample the latencies of the ticks stepped since the last call.

        Each bucket served gives min(requests, `latency_sample_cap`) samples of
        its wait plus its formula latency times a jitter draw, each weighted by
        its share of the bucket's requests. The buckets are put in tick, then
        row (service-major), then arrival order, the order of a per-service
        loop, and their jitter is one draw: the stream a draw per tick would
        give, so the samples do not depend on when they are read."""
        if not self._served:
            return
        pending, self._served = self._served, []
        per_tick = [count for window in pending for count in window[0]]
        rows, waits, formulas, n_served = map(np.concatenate, zip(*(w[1:] for w in pending)))
        tick_of = np.repeat(np.arange(len(per_tick)), per_tick)  # non-decreasing
        order = (tick_of * len(self._head) + rows).argsort(kind="stable")
        waits, formulas, n_served = waits[order], formulas[order], n_served[order]
        draws = np.minimum(n_served, self.latency_sample_cap)  # none for a bucket nobody left
        ends = np.concatenate(([0], draws.cumsum()))[np.cumsum(per_tick)]
        jit = sample_jitter(self.topology.latency, self._jitter_rng, int(ends[-1]))
        samples = waits.repeat(draws) + formulas.repeat(draws) * jit
        weights = (n_served / np.maximum(draws, 1)).repeat(draws)
        self._samples += np.split(samples, ends[:-1])
        self._weights += np.split(weights, ends[:-1])

    @property
    def latency_samples(self) -> list[np.ndarray]:
        """Per tick a recording sim stepped, the sampled latencies (ms) of the
        requests it completed (see `_materialize`)."""
        self._materialize()
        return self._samples

    @property
    def latency_weights(self) -> list[np.ndarray]:
        """Per tick a recording sim stepped, the requests each latency sample stands for."""
        self._materialize()
        return self._weights

    def _grow_queues(self) -> None:
        """Double the bucket ring; each waiting bucket keeps its arrival tick."""
        C = self._buckets.shape[1]
        ticks = np.arange(self._head.min(), self.tick)
        buckets = np.zeros((len(self._head), 2 * C), dtype=np.int64)
        buckets[:, ticks % (2 * C)] = self._buckets[:, ticks % C]
        self._buckets = buckets

    # -- observation -------------------------------------------------------

    @property
    def queues(self) -> list[list[list[int]]]:
        """Per row, [arrival tick, requests left] of each waiting bucket, oldest first."""
        C = self._buckets.shape[1]
        return [
            [[t, ring[t % C]] for t in range(head, self.tick) if ring[t % C]]
            for ring, head in zip(self._buckets.tolist(), self._head.tolist())
        ]

    def observe_state(self) -> SystemState:
        """The observation after the last tick; over the leading axes of a
        batch, whose clusters share the load and its history."""
        hist = self._load_window()
        hist_mean = hist.sum(axis=0) / len(hist)  # hist.mean(0), bit for bit
        hist_var = np.square(hist - hist_mean).sum(axis=0) / len(hist)  # and hist.var(0)
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
            instance_delta=np.zeros(self.quota.shape, dtype=int),
            migration=np.zeros(self.placement.shape, dtype=int),
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
    """Per-candidate sums over the ticks of a batched rollout, and the
    observation after the last tick."""

    latency_sum: np.ndarray  # (P,) per tick: mean latency (ms) . completions
    completed: np.ndarray  # (P,) completions
    util_sum: np.ndarray  # (P,) per tick: mean node CPU utilization
    node_work: np.ndarray  # (P, n) per tick: node CPU utilization
    state: SystemState  # over the candidates; load and history are every candidate's

    def final_state(self, p: int) -> SystemState:
        """Candidate p's observation after the last tick: row p of `state`."""
        return self.state.row(p)


def rollout_batch(
    topology: ClusterTopology,
    placement: np.ndarray,
    quota: np.ndarray,
    priority: np.ndarray,
    arrivals: np.ndarray,
) -> RolloutBatch:
    """Step P candidate configurations of `topology` through the same arrivals
    as the P clusters of one `ClusterSim`, with no observation noise or cache
    hits (it keeps no run record, so it draws no jitter either): held
    once, as a first no-op action holds a configuration, then ticked T times.
    The configuration never changes, so the T ticks run in blocks of at most
    `OBSERVE_BLOCK`: the queue steps of a block's ticks, then one observation
    pass over the block. No buffer grows with T.

    placement is (P, k, n), quota and priority (P, k), arrivals (T >= 1, k)
    request counts per tick. Per candidate, the sums and the final state equal
    those of a `ClusterSim` on that configuration stepped T ticks with no-op
    actions and zero noise, bit for bit, whenever the first hold settles the
    configuration (as it does a repaired chromosome): the per-tick terms are
    added tick by tick, in the order such a sim's loop adds them."""
    sim = ClusterSim(
        replace(topology, initial_placement=placement, initial_quota=quota,
                initial_priority=priority),
        noise=NoiseSpec(std=0.0),
    )
    sim._hold()
    P, n = len(sim.quota), topology.node_count
    latency_sum, completed, util_sum = np.zeros(P), np.zeros(P), np.zeros(P)
    node_work = np.zeros((P, n))
    for start in range(0, len(arrivals), OBSERVE_BLOCK):
        block = arrivals[start : start + OBSERVE_BLOCK]
        window = TickWindow.of(sim, len(block))
        for t, counts in enumerate(block):
            sim._queue_step(counts, window, t)
        util, latency = sim._observe(window)
        done = window.completed / topology.tick_length * topology.tick_length  # throughput x tick
        tick_latency = (latency[..., None, :] @ done[..., None])[..., 0, 0]
        latency_sum = _running_sum(latency_sum, tick_latency)
        completed = _running_sum(completed, done.sum(axis=-1))
        cpu = util[..., 0]
        util_sum = _running_sum(util_sum, cpu.sum(axis=-1) / n)  # as .mean(), without its overhead
        node_work = _running_sum(node_work, cpu)
    return RolloutBatch(latency_sum, completed, util_sum, node_work, sim.observe_state())


def _running_sum(total: np.ndarray, per_tick: np.ndarray) -> np.ndarray:
    """`total` plus each row of `per_tick` in turn, as a `+=` per tick adds
    them: a sum over the tick axis may add in pairs, and would lose the bits."""
    return np.add.accumulate(np.concatenate((total[None], per_tick)))[-1]


def write_trace_csv(sim: ClusterSim, path: str | Path) -> None:
    """Per-tick trace of a recording sim: one row per (tick, service). Utils
    are cluster means; p50/p95 are the tick's latency samples' (0.0 for a tick
    that completed nothing)."""
    samples, weights = sim.latency_samples, sim.latency_weights
    lines = ["tick,service_id,completed,p50_ms,p95_ms,util_cpu,util_mem,util_net,queue_len"]
    for rec in sim.trace:
        tick_samples, tick_weights = samples[rec.tick], weights[rec.tick]
        p50, p95 = (
            weighted_percentile(tick_samples, tick_weights, (0.5, 0.95))
            if tick_samples.size else (0.0, 0.0)
        )
        util_cpu, util_mem, util_net = rec.util.mean(axis=0)
        shared = f"{p50:.6f},{p95:.6f},{util_cpu:.6f},{util_mem:.6f},{util_net:.6f}"
        counts = zip(map(int, rec.completed.tolist()), map(int, rec.queue_len.tolist()))
        lines.extend(f"{rec.tick},{s},{c},{shared},{q}" for s, (c, q) in enumerate(counts))
    Path(path).write_text("\n".join(lines) + "\n")


# --- topology (de)serialization ----------------------------------------------


def save_topology(topo: ClusterTopology, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(topo), indent=2) + "\n")


def load_topology(path: str | Path) -> ClusterTopology:
    """The topology a JSON file describes; keys it omits take the defaults."""
    return from_json(ClusterTopology, read_json(path, "topology"), f"topology {path}")
