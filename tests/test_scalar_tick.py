"""The scalar simulator tick against the tick it replaced, and the inputs that
training and forecasting now reuse.

`ReferenceSim` is the earlier `ClusterSim` tick: queues drained bucket by
bucket from per-service deques, one jitter draw per bucket served, the load
history a deque stacked on every observation, every action sanitized in full
and a reward and the trace percentiles computed in the tick. The current tick
must give equal results, compared by bytes, not closeness: states, rewards
(`CurrentSim` computes them from the action `step_counts` applied, as
`DecisionEnv` does), latency samples and weights, trace records and their
percentiles, clamp counts and the final states of the random streams. Only a
recording sim (`record_trace`) keeps samples and records, so the comparisons
step recording sims.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ppo_reference
from lstm_reference import feature_sequence
import tradesim.drl.env as env_module
import tradesim.lstm as lstm_module
import tradesim.workload as workload_module
from tradesim.cluster import (
    QUEUE_RING_START,
    QUOTA_FLOOR,
    Capacity,
    ClusterSim,
    ClusterTopology,
    LatencyModel,
    NodeSpec,
    NoiseSpec,
    SchedulingAction,
    SystemState,
    TickRecord,
    contention,
    reward,
    sample_jitter,
    service_latency,
    uniform_topology,
    utilization_step,
    write_trace_csv,
)
from tradesim.drl.env import DecisionEnv
from tradesim.drl.policy import SchedulerPolicy, StateEncoder
from tradesim.errors import ConfigError, WarmupError
from tradesim.lstm import FORECAST_BLOCK, ForecastModel, LstmConfig, forward, init_params
from tradesim.report import weighted_percentile
from tradesim.workload import (
    BurstSpec,
    FeatureScaling,
    ServiceSpec,
    TickHistory,
    WorkloadScenario,
    generate_tick_counts,
)

# --- the reference tick ---------------------------------------------------------------


def _ref_clamped(values, current, low, high):
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    replaced = 0
    if not finite.all():
        arr = np.where(finite, arr, current)
        replaced = int(finite.size - np.count_nonzero(finite))
    out = np.clip(arr, low, high)
    return out, replaced + int(np.sum(out != arr))


def _ref_allocate_work(cap, node_cpu, demand_work, carry_work):
    # `cluster.allocate_work` as it was before its divisions were masked
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


class ReferenceSim(ClusterSim):
    """The simulator tick as it was before jitter was drawn once per tick. It
    keeps latency samples whether or not it records its trace."""

    def __init__(self, topology, **kwargs):
        super().__init__(topology, **kwargs)
        self.load_history = deque(maxlen=topology.history_window)
        self.deques = [deque() for _ in range(self.k)]  # [arrival_tick, count]
        self.rewards = []
        self.percentiles = []  # (p50, p95) of each trace record, computed in its tick

    @property
    def queues(self):
        return self.deques

    def sanitize_action(self, action):
        clamps = 0
        delta = np.asarray(action.instance_delta, dtype=int).copy()
        totals = self.placement.sum(axis=1)
        floor = 1 - totals
        clamped_delta = np.maximum(delta, floor)
        clamps += int(np.sum(clamped_delta != delta))
        migration = np.zeros((self.k, self.n), dtype=int)
        mig = np.asarray(action.migration)
        if mig.shape == (self.k, self.n):
            migration = (mig > 0).astype(int)
        elif mig.size:
            clamps += 1
        priority, priority_clamps = _ref_clamped(action.priority, self.priority, 0.0, 1.0)
        quota, quota_clamps = _ref_clamped(action.quota, self.quota, QUOTA_FLOOR, 1.0)
        clamps += priority_clamps + quota_clamps
        return SchedulingAction(clamped_delta, migration, priority, quota), clamps

    def _apply_action(self, action):
        act, clamps = self.sanitize_action(action)
        self.sanitized_actions += clamps
        for s in range(self.k):
            d = int(act.instance_delta[s])
            while d > 0:
                j = int(np.argmin(self._node_commit()))
                self.placement[s, j] += 1
                d -= 1
            while d < 0 and self.placement[s].sum() > 1:
                j = int(np.argmax(self.placement[s]))
                self.placement[s, j] -= 1
                d += 1
        applied_migrations = 0
        for s, j in zip(*np.nonzero(act.migration)):
            sources = np.flatnonzero(self.placement[s] > 0)
            sources = sources[sources != j]
            if sources.size == 0:
                self.sanitized_actions += 1
                continue
            src = int(sources[np.argmax(self.placement[s, sources])])
            self.placement[s, src] -= 1
            self.placement[s, j] += 1
            applied_migrations += 1
        self.priority = act.priority
        self.quota = act.quota
        worst = self._node_commit().max()
        if worst > 1.0:
            self.quota = self.quota / worst
            self.sanitized_actions += 1
        if act.instance_delta.sum() > 0 and self.first_scale_up_tick < 0:
            self.first_scale_up_tick = self.tick
        self._applied_migrations = applied_migrations
        return act

    def step_counts(self, action, counts):
        prev_quota = self.quota.copy()
        act = self._apply_action(action)
        counts = np.asarray(counts, dtype=np.int64)
        self.generated_total += int(counts.sum())
        for s in np.flatnonzero(counts):
            self.queues[s].append([self.tick, int(counts[s])])
        self.queue_len += counts
        self.last_load = counts.copy()
        cap = Capacity.of(self.placement, self.quota, self.priority, self.arrays)
        work_units = self.arrays.work_units
        work_done, used_by_node = _ref_allocate_work(
            cap, self.node_cpu, self.queue_len * work_units + 0.0, self.carry_work
        )
        model = self.topology.latency
        rho = contention(cap.share, self.util_true[:, 0])
        formula = service_latency(model, rho, self.cache_hit_rate).tolist()
        completed = np.zeros(self.k, dtype=np.int64)
        sum_base_ms = np.zeros(self.k)
        tick_samples, tick_weights = [], []
        tick_ms = self.topology.tick_length * 1000.0
        for s in range(self.k):
            available = work_done[s] + 0.0
            wu = work_units[s]
            formula_ms = formula[s]
            q = self.queues[s]
            while q and available >= wu:
                bucket = q[0]
                n_served = min(int(available // wu), bucket[1])
                if n_served == 0:
                    break
                wait_ticks = self.tick - bucket[0]
                base_ms = wait_ticks * tick_ms + formula_ms
                completed[s] += n_served
                sum_base_ms[s] += base_ms * n_served
                draws = min(n_served, self.latency_sample_cap)
                jit = sample_jitter(model, self._jitter_rng, draws)
                tick_samples.append(wait_ticks * tick_ms + formula_ms * jit)
                tick_weights.append(np.full(draws, n_served / draws))
                available -= n_served * wu
                bucket[1] -= n_served
                if bucket[1] == 0:
                    q.popleft()
            self.carry_work[s] = available % wu if q else 0.0
        self.queue_len -= completed
        self.completed_total += int(completed.sum())
        self.backlog_integral += float(self.queue_len.sum()) * self.topology.tick_length
        # a window of this tick alone: the EWMA before it, then after it
        _, self.util_true = utilization_step(
            self.util_true, used_by_node.sum(axis=0)[None], self.queue_len[None], completed[None],
            cap, self.arrays, self.topology.ewma_alpha,
        )
        if self.noise.std > 0:
            eps = self._noise_rng.normal(0.0, self.noise.std, size=self.util_true.shape)
        else:
            eps = 0.0
        self.util_obs = np.clip(self.util_true + eps, 0.0, 1.0)
        self.load_history.append(counts.astype(float))
        self.last_latency_ms = np.where(completed > 0, sum_base_ms / np.maximum(completed, 1), 0.0)
        self.last_throughput = completed / self.topology.tick_length
        if tick_samples:
            samples = np.concatenate(tick_samples)
            weights = np.concatenate(tick_weights)
        else:
            samples = np.zeros(0)
            weights = np.zeros(0)
        self.latency_samples.append(samples)
        self.latency_weights.append(weights)
        state = self.observe_state()
        self.rewards.append(self._parent_reward(prev_quota, act, state))
        if self.record_trace:
            p50, p95 = (
                weighted_percentile(samples, weights, (0.5, 0.95)) if samples.size else (0.0, 0.0)
            )
            self.percentiles.append((p50, p95))
            self.trace.append(
                TickRecord(
                    tick=self.tick, completed=completed.copy(), util=self.util_obs.copy(),
                    queue_len=self.queue_len.copy(),
                )
            )
        self.tick += 1
        return state

    def _parent_reward(self, prev_quota, act, state):
        # the reward formula as the simulator had it before `cluster.reward`
        # took the applied action: same terms, same order of operations
        spec = self.reward_spec
        t_term = float(np.sum(state.latency_ms / spec.T_target))
        u_term = float(np.sum(np.abs(state.util[:, 0] - spec.u_target)))
        c_term = (
            spec.cost_instance * float(np.abs(act.instance_delta).sum())
            + spec.cost_migration * float(self._applied_migrations)
            + spec.cost_quota * float(np.abs(self.quota - prev_quota).sum())
        )
        return -(spec.w1 * t_term + spec.w2 * u_term + spec.w3 * c_term)

    def observe_state(self):
        hist = np.stack(self.load_history) if self.load_history else np.zeros((1, self.k))
        return SystemState(
            load=self.last_load.astype(float).copy(),
            util=self.util_obs.copy(),
            queue_len=self.queue_len.astype(float).copy(),
            hist_mean=hist.mean(axis=0),
            hist_var=hist.var(axis=0),
            latency_ms=self.last_latency_ms.copy(),
            throughput=self.last_throughput.copy(),
            tick=self.tick,
        )


class CurrentSim(ClusterSim):
    """`ClusterSim` keeping the reward of each tick, computed as `DecisionEnv`
    computes it: charging the action `step_counts` applied."""

    def __init__(self, topology, **kwargs):
        super().__init__(topology, **kwargs)
        self.rewards = []

    def step_counts(self, action, counts):
        prev_quota = self.quota.copy()
        applied = super().step_counts(action, counts)
        self.rewards.append(
            reward(prev_quota, self.last_latency_ms, self.util_obs, applied, self.reward_spec)
        )
        return applied


# --- comparisons ------------------------------------------------------------------------


def assert_arrays_equal(a, b, what: str) -> None:
    """Equal dtype, shape and bytes. A failure names the first differing
    entry instead of leaving pytest to diff the two byte strings."""
    a, b = np.asarray(a), np.asarray(b)
    same_layout = (a.dtype, a.shape) == (b.dtype, b.shape)
    assert same_layout, f"{what}: {a.dtype}{a.shape} != {b.dtype}{b.shape}"
    same = a.tobytes() == b.tobytes()
    assert same, first_difference(a, b, what)


def first_difference(a: np.ndarray, b: np.ndarray, what: str) -> str:
    for i, (x, y) in enumerate(zip(a.reshape(-1), b.reshape(-1))):
        if x.tobytes() != y.tobytes():
            return f"{what}: first difference at flat index {i}: {x!r} != {y!r}"
    return f"{what}: bytes differ"


def assert_states_equal(a: SystemState, b: SystemState) -> None:
    for f in fields(SystemState):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert_arrays_equal(x, y, f.name)
        else:
            assert x == y, f.name


def step_both(sim: CurrentSim, ref: ReferenceSim, a, b, counts) -> None:
    """Step both simulators one tick, then compare the states they leave."""
    sim.step_counts(a, counts)
    ref.step_counts(b, counts)
    assert_states_equal(sim.observe_state(), ref.observe_state())


def trace_percentiles(sim: ClusterSim) -> list:
    """Per trace record, (p50, p95) of its tick's latency samples as
    `write_trace_csv` computes them; a `ReferenceSim`'s as its tick computed them."""
    if isinstance(sim, ReferenceSim):
        return sim.percentiles
    samples, weights = sim.latency_samples, sim.latency_weights
    return [
        weighted_percentile(samples[rec.tick], weights[rec.tick], (0.5, 0.95))
        if samples[rec.tick].size else (0.0, 0.0)
        for rec in sim.trace
    ]


def assert_sims_equal(sim: CurrentSim, ref: ReferenceSim) -> None:
    for name in (
        "placement", "quota", "priority", "queue_len", "carry_work", "util_true", "util_obs",
        "last_load", "last_latency_ms", "last_throughput",
    ):
        assert_arrays_equal(getattr(sim, name), getattr(ref, name), name)
    for name in (
        "tick", "generated_total", "completed_total", "sanitized_actions",
        "first_scale_up_tick", "backlog_integral",
    ):
        assert getattr(sim, name) == getattr(ref, name), name
        assert type(getattr(sim, name)) is type(getattr(ref, name)), name
    assert_arrays_equal(sim.rewards, ref.rewards, "rewards")
    assert [list(map(list, q)) for q in sim.queues] == [list(map(list, q)) for q in ref.queues]
    assert len(sim.latency_samples) == len(ref.latency_samples)
    for t, (a, b) in enumerate(zip(sim.latency_samples, ref.latency_samples)):
        assert_arrays_equal(a, b, f"latency samples of tick {t}")
    for t, (a, b) in enumerate(zip(sim.latency_weights, ref.latency_weights)):
        assert_arrays_equal(a, b, f"latency weights of tick {t}")
    assert len(sim.trace) == len(ref.trace)
    for a, b in zip(sim.trace, ref.trace):
        for f in fields(TickRecord):
            assert_arrays_equal(getattr(a, f.name), getattr(b, f.name), f"trace {f.name}")
    assert_arrays_equal(trace_percentiles(sim), trace_percentiles(ref), "trace percentiles")
    assert sim._jitter_rng.bit_generator.state == ref._jitter_rng.bit_generator.state
    assert sim._noise_rng.bit_generator.state == ref._noise_rng.bit_generator.state
    assert_states_equal(sim.observe_state(), ref.observe_state())


# --- generated cases ----------------------------------------------------------------------


@st.composite
def topologies(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    services = tuple(
        ServiceSpec(
            f"s{i}", weight=1.0, work_units=float(rng.uniform(0.3, 25.0)),
            payload_bytes=int(rng.integers(64, 8192)), mem_mb=float(rng.uniform(8.0, 256.0)),
        )
        for i in range(k)
    )
    placement = rng.integers(0, 3, (k, n))
    placement[np.arange(k), rng.integers(0, n, k)] += 1  # every service has an instance
    quota = rng.uniform(0.004, 0.5, k)
    worst = (placement.T @ quota).max()
    if worst > 1.0:
        quota = quota / (worst * 1.001)
    priority = rng.uniform(0.0, 1.0, k)
    if draw(st.booleans()):  # out of range: a hold clamps it
        priority[0] = draw(st.sampled_from([1.5, -0.25, -0.0]))
    return ClusterTopology(
        nodes=tuple(
            NodeSpec(float(rng.uniform(200.0, 5000.0)), 4096.0, float(rng.uniform(20.0, 500.0)))
            for _ in range(n)
        ),
        services=services,
        initial_placement=tuple(tuple(int(v) for v in row) for row in placement),
        initial_quota=tuple(float(q) for q in quota),
        initial_priority=tuple(float(p) for p in priority),
        latency=LatencyModel(jitter_enabled=draw(st.booleans())),
        history_window=draw(st.sampled_from([0, 1, 2, 60])),
        tick_length=draw(st.sampled_from([0.5, 1.0])),
    )


@st.composite
def sim_kwargs(draw):
    return dict(
        seed=draw(st.integers(0, 2**31)),
        noise=NoiseSpec(std=draw(st.sampled_from([0.0, 0.02]))),
        cache_hit_rate=draw(st.sampled_from([0.0, 0.4])),
        latency_sample_cap=draw(st.sampled_from([1, 3, 64])),
        record_trace=True,
    )


def random_action(rng: np.random.Generator, k: int, n: int) -> SchedulingAction:
    """An action that mixes in-range values with the ones sanitization clamps."""
    migration = rng.choice([0, 0, 0, 1, 2, -1], size=(k, n))
    shape = rng.integers(6)
    if shape == 0:
        migration = np.ones(k + n)  # wrong shape: one clamp
    elif shape == 1:
        migration = np.zeros(0)  # empty: ignored
    priority = rng.uniform(-0.5, 1.5, k)
    quota = rng.choice([QUOTA_FLOOR, 0.001, 1.0, 0.02, 0.3]) * rng.uniform(0.5, 3.0, k)
    for values in (priority, quota):
        odd = rng.random(k) < 0.15
        values[odd] = rng.choice([np.nan, np.inf, -np.inf], size=int(odd.sum()))
    return SchedulingAction(
        instance_delta=rng.integers(-3, 4, k), migration=migration, priority=priority, quota=quota
    )


def offered_rate(topology: ClusterTopology, load: float) -> np.ndarray:
    """(k,) arrival rates at `load` times each service's committed capacity."""
    node_cpu = sum(nd.cpu_capacity for nd in topology.nodes)
    work = np.array([s.work_units for s in topology.services])
    return load * np.asarray(topology.initial_quota) * node_cpu / work


def run_both(topology, kwargs, ticks: int, load: float, hold_share: float, seed: int):
    """Step the current and the reference simulator through the same ticks."""
    sim = CurrentSim(topology, **kwargs)
    ref = ReferenceSim(topology, **kwargs)
    rng = np.random.default_rng(seed)
    capacity = np.asarray(topology.initial_quota) * sum(nd.cpu_capacity for nd in topology.nodes)
    rate = load * capacity / np.array([s.work_units for s in topology.services])
    last = None
    for _ in range(ticks):
        counts = rng.poisson(rate)
        roll = rng.random()
        if roll < hold_share:
            a, b = sim.no_op_action(), ref.no_op_action()
        elif roll < hold_share + 0.05 and last is not None:
            a = b = last  # the same action again
        else:
            a = b = last = random_action(rng, sim.k, sim.n)
        if rng.random() < 0.03:  # the configuration changed in place
            value = rng.choice([0.0005, 0.2, 1.0])
            sim.quota[0] = ref.quota[0] = value
        step_both(sim, ref, a, b, counts)
    return sim, ref


# --- tests --------------------------------------------------------------------------------


class TestTickEqualsReference:
    @given(
        topologies(), sim_kwargs(), st.integers(1, 60), st.floats(0.1, 3.0),
        st.sampled_from([0.0, 0.6, 0.9]), st.integers(0, 2**32 - 1),
    )
    def test_generated_runs(self, topology, kwargs, ticks, load, hold_share, seed):
        sim, ref = run_both(topology, kwargs, ticks, load, hold_share, seed)
        assert_sims_equal(sim, ref)

    @pytest.mark.parametrize("window", [0, 1, 2, 60])
    @given(topology=topologies(), kwargs=sim_kwargs(), seed=st.integers(0, 99))
    def test_history_windows_over_many_ticks(self, window, topology, kwargs, seed):
        # 150 ticks wrap even the 60-tick ring twice
        topology = replace(topology, history_window=window)
        sim, ref = run_both(topology, kwargs, 150, 0.5, 0.9, seed)
        assert_sims_equal(sim, ref)
        assert sim._load_window().shape == (max(min(window, 150), 1), sim.k)

    def test_overloaded_queues_many_buckets_deep(self, monkeypatch):
        grown = []  # (tick, ring width) at each doubling of the bucket ring
        grow = ClusterSim._grow_queues
        monkeypatch.setattr(
            ClusterSim, "_grow_queues",
            lambda sim: grown.append((sim.tick, sim._buckets.shape[1])) or grow(sim),
        )
        topology = uniform_topology(node_count=2, node_cpu=2000.0, quota=0.08)
        kwargs = dict(seed=3, noise=NoiseSpec(std=0.02), latency_sample_cap=64, record_trace=True)
        sim, ref = run_both(topology, kwargs, 160, 3.0, 0.9, 7)
        assert max(len(q) for q in sim.queues) >= 50
        assert max(len(w) for w in sim.latency_weights) > 8 * 64  # many buckets in one draw
        assert_sims_equal(sim, ref)
        # a longer run just over capacity: the ring's columns wrap before a queue
        # outgrows the ring, so each doubling moves buckets to new columns
        grown.clear()
        sim, ref = run_both(topology, kwargs, 400, 1.2, 0.9, 7)
        assert max(len(q) for q in sim.queues) > QUEUE_RING_START
        assert grown and grown[0][0] > grown[0][1] == QUEUE_RING_START
        assert_sims_equal(sim, ref)

    def test_sample_cap_of_one(self):
        topology = uniform_topology(node_count=2, node_cpu=2000.0, quota=0.08)
        kwargs = dict(seed=5, latency_sample_cap=1, record_trace=True)
        sim, ref = run_both(topology, kwargs, 80, 2.0, 0.9, 11)
        assert_sims_equal(sim, ref)

    def test_quota_rescaled_below_floor(self):
        # 0.5 on five instances of one node commits 2.5: the rescale takes the
        # other service's floor quota below QUOTA_FLOOR, and every hold after
        # that clamps it back up and rescales again
        services = (ServiceSpec("a", 1.0, 5.0, 256), ServiceSpec("b", 1.0, 5.0, 256))
        topology = ClusterTopology(
            nodes=(NodeSpec(1000.0, 4096.0, 100.0),), services=services,
            initial_placement=((1,), (1,)), initial_quota=(0.2, QUOTA_FLOOR),
            initial_priority=(0.5, 0.5), history_window=2,
        )
        kwargs = dict(seed=1, record_trace=True)
        sim, ref = CurrentSim(topology, **kwargs), ReferenceSim(topology, **kwargs)
        grow = SchedulingAction(np.array([4, 0]), np.zeros((2, 1)), np.array([0.5, 0.5]),
                                np.array([0.5, QUOTA_FLOOR]))
        counts = np.array([30, 30])
        sim.step_counts(grow, counts), ref.step_counts(grow, counts)
        assert sim.quota[1] < QUOTA_FLOOR
        before = sim.sanitized_actions
        for _ in range(5):
            step_both(sim, ref, sim.no_op_action(), ref.no_op_action(), counts)
        assert sim.sanitized_actions > before + 5  # each hold clamped and rescaled
        assert_sims_equal(sim, ref)


class TestDeferredSamples:
    """A recording sim's tick keeps the buckets it served, and reading the
    samples draws their jitter; when they are read changes no sample, weight or
    random state."""

    @pytest.mark.parametrize("jitter, cap", [(True, 64), (True, 1), (False, 3)])
    @given(
        topology=topologies(), kwargs=sim_kwargs(), ticks=st.integers(1, 40),
        load=st.floats(0.1, 3.0), empty_share=st.sampled_from([0.0, 0.3, 0.7]),
        read_at=st.sets(st.integers(0, 39)), seed=st.integers(0, 2**32 - 1),
    )
    def test_read_every_tick_equals_read_at_the_end(
        self, jitter, cap, topology, kwargs, ticks, load, empty_share, read_at, seed
    ):
        # one run reads the samples after every tick, one after the drawn
        # ticks and one only at the end; a share of the ticks have no arrivals
        topology = replace(topology, latency=LatencyModel(jitter_enabled=jitter))
        kwargs = dict(kwargs, latency_sample_cap=cap)
        every, sometimes, end = (CurrentSim(topology, **kwargs) for _ in range(3))
        rng = np.random.default_rng(seed)
        rate = offered_rate(topology, load)
        for t in range(ticks):
            counts = rng.poisson(rate) * (rng.random() >= empty_share)
            for sim in (every, sometimes, end):
                sim.step_counts(sim.no_op_action(), counts)
            every.latency_samples
            if t in read_at:
                sometimes.latency_weights
        for sim in (sometimes, end):
            assert len(sim.latency_samples) == len(every.latency_samples) == ticks
            for name in ("latency_samples", "latency_weights"):
                for t, (a, b) in enumerate(zip(getattr(sim, name), getattr(every, name))):
                    assert_arrays_equal(a, b, f"{name} of tick {t}")
            assert sim._jitter_rng.bit_generator.state == every._jitter_rng.bit_generator.state
            assert_arrays_equal(sim.rewards, every.rewards, "rewards")

    def test_unread_samples_draw_no_jitter(self):
        topology = uniform_topology(node_count=2, node_cpu=2000.0, quota=0.08)
        sim = ClusterSim(topology, seed=4, record_trace=True)
        seeded = sim._jitter_rng.bit_generator.state
        rng = np.random.default_rng(1)
        for _ in range(30):  # fewer than SAMPLE_BLOCK: no sampling pass yet
            sim.step_counts(sim.no_op_action(), rng.poisson(40, size=sim.k))
        assert sim.completed_total > 0
        assert sim._jitter_rng.bit_generator.state == seeded
        samples, weights = sim.all_latency_samples()
        assert samples.size and weights.sum() == pytest.approx(sim.completed_total)
        assert sim._jitter_rng.bit_generator.state != seeded


class TestSanitizeReuse:
    @given(topologies(), st.integers(0, 2**32 - 1))
    def test_repeated_and_changed_inputs_equal_a_full_sanitize(self, topology, seed):
        sim = ClusterSim(topology)
        ref = ReferenceSim(topology)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            action = sim.no_op_action() if rng.random() < 0.5 else random_action(rng, sim.k, sim.n)
            # twice as it is, then once more after the configuration changed in place
            for changed in (False, False, True):
                if changed:
                    part = rng.choice(["quota", "priority", "placement"])
                    values = getattr(sim, part)
                    values[rng.integers(sim.k)] = (
                        0 if part == "placement" else rng.choice([0.001, 0.3, 1.5, np.nan])
                    )
                    setattr(ref, part, values.copy())
                got, clamps = sim.sanitize_action(action)
                want, want_clamps = ref.sanitize_action(action)
                assert clamps == want_clamps and isinstance(clamps, int)
                for f in fields(SchedulingAction):
                    assert_arrays_equal(getattr(got, f.name), getattr(want, f.name), f.name)

    def test_result_is_a_fresh_copy(self):
        sim = ClusterSim(uniform_topology(node_count=2))
        hold = sim.no_op_action()
        first, _ = sim.sanitize_action(hold)
        first.quota[:] = 0.5
        second, _ = sim.sanitize_action(hold)
        assert np.array_equal(second.quota, hold.quota)


def assert_tick_equal(sim: CurrentSim, ref: ReferenceSim, a, b, counts) -> None:
    """Step both simulators one tick, then compare its outputs: the state it
    leaves, the reward, the trace row and its percentiles, and the clamp count."""
    step_both(sim, ref, a, b, counts)
    assert_arrays_equal(sim.rewards[-1], ref.rewards[-1], "reward")
    for f in fields(TickRecord):
        assert_arrays_equal(getattr(sim.trace[-1], f.name), getattr(ref.trace[-1], f.name), f.name)
    assert_arrays_equal(trace_percentiles(sim)[-1], trace_percentiles(ref)[-1], "percentiles")
    assert sim.sanitized_actions == ref.sanitized_actions


class TestStepTrims:
    """No-op actions between generated actions and in-place edits: the tick
    reads the capacity once, and the reference computes every step in full."""

    @given(topologies(), sim_kwargs(), st.integers(0, 2**32 - 1))
    def test_holds_between_generated_actions_equal_full_path(self, topology, kwargs, seed):
        sim, ref = CurrentSim(topology, **kwargs), ReferenceSim(topology, **kwargs)
        rng = np.random.default_rng(seed)
        rate = offered_rate(topology, 1.0)
        for _ in range(40):
            roll = rng.random()
            if roll < 0.2:
                a = b = random_action(rng, sim.k, sim.n)
            elif roll < 0.3:  # the configuration changed in place, then a hold
                part = rng.choice(["quota", "priority", "placement"])
                s = rng.integers(sim.k)
                value = rng.integers(1, 8) if part == "placement" else rng.choice([0.02, 0.4, 1.5])
                getattr(sim, part)[s] = getattr(ref, part)[s] = value
                a, b = sim.no_op_action(), ref.no_op_action()
            else:
                a, b = sim.no_op_action(), ref.no_op_action()
            counts = rng.poisson(rate)
            assert_tick_equal(sim, ref, a, b, counts)
        assert_sims_equal(sim, ref)

    def test_rescaled_commitment_just_above_one(self):
        # [3, 3] instances at quota [0.15, 0.52] commit 2.01 on the node; divided
        # by 2.01 they commit 1.0000000000000002, so the first hold rescales again
        services = (ServiceSpec("a", 1.0, 5.0, 256), ServiceSpec("b", 1.0, 5.0, 256))
        topology = ClusterTopology(
            nodes=(NodeSpec(1000.0, 4096.0, 100.0),), services=services,
            initial_placement=((1,), (1,)), initial_quota=(0.15, 0.52),
            initial_priority=(0.5, 0.5), history_window=4,
        )
        sim = CurrentSim(topology, seed=2, record_trace=True)
        ref = ReferenceSim(topology, seed=2, record_trace=True)
        grow = SchedulingAction(np.array([2, 2]), np.zeros((2, 1)), np.array([0.5, 0.5]),
                                np.array([0.15, 0.52]))
        counts = np.array([40, 40])
        assert_tick_equal(sim, ref, grow, grow, counts)
        assert (sim.placement.T @ sim.quota).max() > 1.0
        rescales = sim.sanitized_actions
        for _ in range(4):
            assert_tick_equal(sim, ref, sim.no_op_action(), ref.no_op_action(), counts)
        assert sim.sanitized_actions == rescales + 1  # once more, then the commitment holds
        assert (sim.placement.T @ sim.quota).max() <= 1.0
        assert_sims_equal(sim, ref)


# --- holds and records -------------------------------------------------------------------


def squeeze(sim: ClusterSim) -> SchedulingAction:
    """An action whose rescale takes every other service's quota below
    QUOTA_FLOOR: service 0, at quota 1.0, gains an instance per node, so some
    node hosts two of its instances and is committed to 2 or more."""
    delta = np.zeros(sim.k, dtype=int)
    delta[0] = sim.n
    quota = np.full(sim.k, QUOTA_FLOOR)
    quota[0] = 1.0
    return SchedulingAction(delta, np.zeros((sim.k, sim.n), dtype=int), sim.priority.copy(), quota)


def step_held_and_full(held: CurrentSim, full: CurrentSim, action, counts) -> None:
    """Step `held` with `action` and `full` with the same action, or with a
    no-op action where `action` is None; the actions they applied must be equal."""
    a = held.step_counts(action, counts)
    b = full.step_counts(full.no_op_action() if action is None else action, counts)
    for f in fields(SchedulingAction):
        assert_arrays_equal(getattr(a, f.name), getattr(b, f.name), f"applied {f.name}")


class TestHolds:
    """`step_counts(None, counts)` holds the configuration. A run passing None
    on its hold ticks equals, bit for bit, the same run passing
    `no_op_action()`, though a hold on a settled configuration sanitizes and
    applies nothing."""

    @given(
        topologies(), sim_kwargs(), st.integers(1, 60), st.floats(0.1, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_none_equals_a_no_op_action(self, topology, kwargs, ticks, load, seed):
        held, full = CurrentSim(topology, **kwargs), CurrentSim(topology, **kwargs)
        rng = np.random.default_rng(seed)
        rate = offered_rate(topology, load)
        for _ in range(ticks):
            roll = rng.random()
            if roll < 0.15:
                action = random_action(rng, held.k, held.n)
            elif roll < 0.25:  # the holds after it clamp a quota back up to the floor
                action = squeeze(held)
            else:
                action = None
            if rng.random() < 0.15:  # the configuration edited in place before the step
                part = rng.choice(["quota", "priority", "placement"])
                value = {
                    "quota": rng.choice([0.0005, 0.02, 0.4, 1.5]),
                    "priority": rng.choice([-0.25, 0.3, 1.5]),
                    "placement": rng.integers(1, 4),
                }[part]
                s = rng.integers(held.k)
                getattr(held, part)[s] = getattr(full, part)[s] = value
            step_held_and_full(held, full, action, rng.poisson(rate))
        assert_sims_equal(held, full)

    @pytest.mark.parametrize(
        "quota, delta, action_quota",
        [((0.15, 0.52), (2, 2), (0.15, 0.52)), ((0.2, QUOTA_FLOOR), (4, 0), (0.5, QUOTA_FLOOR))],
        ids=["commitment-just-above-one", "quota-below-floor"],
    )
    def test_holds_after_a_rescale(self, quota, delta, action_quota):
        # the rescale leaves a node committed to 1.0000000000000002, or a quota
        # below QUOTA_FLOOR: the holds after it clamp or rescale again
        services = (ServiceSpec("a", 1.0, 5.0, 256), ServiceSpec("b", 1.0, 5.0, 256))
        topology = ClusterTopology(
            nodes=(NodeSpec(1000.0, 4096.0, 100.0),), services=services,
            initial_placement=((1,), (1,)), initial_quota=quota,
            initial_priority=(0.5, 0.5), history_window=4,
        )
        held, full = (CurrentSim(topology, seed=2, record_trace=True) for _ in range(2))
        grow = SchedulingAction(np.array(delta), np.zeros((2, 1)), np.array([0.5, 0.5]),
                                np.array(action_quota))
        counts = np.array([40, 40])
        step_held_and_full(held, full, grow, counts)
        rescaled = held.sanitized_actions
        for _ in range(4):
            step_held_and_full(held, full, None, counts)
        assert held.sanitized_actions > rescaled
        assert_sims_equal(held, full)

    def test_only_unsettled_holds_take_the_full_path(self, monkeypatch):
        full = []  # the ticks whose hold took the full path
        hold = ClusterSim._hold
        monkeypatch.setattr(ClusterSim, "_hold", lambda sim: full.append(sim.tick) or hold(sim))
        sim = ClusterSim(uniform_topology(node_count=2, node_cpu=2000.0, quota=0.08), seed=1)
        counts = np.full(sim.k, 20)

        def hold_took_the_full_path() -> bool:
            tick = sim.tick
            sim.step_counts(None, counts)
            return tick in full

        assert hold_took_the_full_path()  # the first tick: no step has settled anything
        assert not hold_took_the_full_path() and not hold_took_the_full_path()
        sim.priority[0] = 0.25  # edited in place, within range
        assert hold_took_the_full_path() and not hold_took_the_full_path()
        sim.step_counts(squeeze(sim), counts)
        assert sim.quota[1] < QUOTA_FLOOR
        assert hold_took_the_full_path()


def per_line_trace_csv(sim, path) -> None:
    """`write_trace_csv` as it was: every field formatted on every line."""
    lines = ["tick,service_id,completed,p50_ms,p95_ms,util_cpu,util_mem,util_net,queue_len"]
    for rec, (p50, p95) in zip(sim.trace, trace_percentiles(sim)):
        util_cpu, util_mem, util_net = rec.util.mean(axis=0)
        for s in range(len(rec.completed)):
            lines.append(
                f"{rec.tick},{s},{int(rec.completed[s])},{p50:.6f},{p95:.6f},"
                f"{util_cpu:.6f},{util_mem:.6f},{util_net:.6f},{int(rec.queue_len[s])}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


# values that round at the 6th decimal, on both sides of a tie
ROUNDING = [0.0, 1e-7, 5e-7, 1.5e-6, 2.5e-6, 0.1234565, 0.9999995, 1.0000005, 12.3456785, 99.9999996]


@st.composite
def traces(draw):
    """A stand-in for a recording sim: 0-6 trace records of 1-9 services on
    1-4 nodes, some with no completions. A tick that completed requests has
    two samples of one weight each, so its p50 and p95 are the drawn values."""
    k, n = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    ms = st.one_of(st.sampled_from(ROUNDING), st.floats(0.0, 5000.0))
    share = st.one_of(st.sampled_from([v for v in ROUNDING if v <= 1.0]), st.floats(0.0, 1.0))
    counts = st.lists(st.integers(0, 10**6), min_size=k, max_size=k)
    records, samples = [], []
    for t in range(draw(st.integers(0, 6))):
        idle = draw(st.booleans())
        completed = np.zeros(k, dtype=np.int64) if idle else np.array(draw(counts), dtype=np.int64)
        samples.append(np.zeros(0) if idle else np.array(sorted((draw(ms), draw(ms)))))
        util = np.array(draw(st.lists(share, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
        records.append(TickRecord(t, completed, util, np.array(draw(counts))))
    weights = [np.ones(len(s)) for s in samples]
    return SimpleNamespace(trace=records, latency_samples=samples, latency_weights=weights)


class NeverSampledSim(CurrentSim):
    """A recording sim whose ticks never sample: it keeps the buckets each
    tick's drain served, in drain order (see `ClusterSim._observe`)."""

    def _materialize(self):
        pass


class TestRecords:
    """The latency samples are drawn when they are read, and the trace CSV's
    percentiles computed when it is written."""

    @given(traces())
    def test_csv_equals_the_per_line_writer(self, tmp_path_factory, sim):
        out = tmp_path_factory.mktemp("trace")
        write_trace_csv(sim, out / "new.csv")
        per_line_trace_csv(sim, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    @pytest.mark.parametrize("cap", [1, 64])
    @given(
        load=st.sampled_from([1.2, 2.0, 3.0]), every=st.integers(2, 7),
        hold_share=st.sampled_from([0.6, 0.9]), seed=st.integers(0, 2**32 - 1),
    )
    def test_reading_at_any_tick_keeps_the_bits(self, cap, load, every, hold_share, seed):
        # an overloaded run: most drains serve several buckets of a row in one tick
        topology = uniform_topology(node_count=2, node_cpu=2000.0, quota=0.08)
        kwargs = dict(seed=3, noise=NoiseSpec(std=0.02), latency_sample_cap=cap, record_trace=True)
        each, some, end = (CurrentSim(topology, **kwargs) for _ in range(3))
        unread = NeverSampledSim(topology, **kwargs)
        rng = np.random.default_rng(seed)
        rate = offered_rate(topology, load)
        for t in range(40):
            action = None if rng.random() < hold_share else random_action(rng, each.k, each.n)
            counts = rng.poisson(rate)
            for sim in (each, some, end, unread):
                sim.step_counts(action, counts)
            trace_percentiles(each), each.latency_samples
            if t % every == 0:
                some.latency_weights if t % 2 else trace_percentiles(some)
        # a row served twice in one tick: its drain took more than one step
        assert max(np.bincount(rows, minlength=1).max() for _, rows, *_ in unread._served) > 1
        for sim in (some, end):
            assert_sims_equal(sim, each)


class TestConfigurationChecks:
    def test_sample_cap_below_one_is_a_config_error(self):
        # a cap of 0 used to divide by zero at the first request served
        with pytest.raises(ConfigError, match="latency_sample_cap"):
            ClusterSim(uniform_topology(node_count=2), latency_sample_cap=0)

    def test_negative_history_window_is_a_config_error(self):
        with pytest.raises(ConfigError, match="history_window"):
            uniform_topology(node_count=2, history_window=-1)


def test_one_draw_equals_consecutive_draws():
    sizes = [1, 64, 3, 17, 1, 250, 2]
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    model = LatencyModel()
    parts = np.concatenate([sample_jitter(model, a, n) for n in sizes])
    assert sample_jitter(model, b, sum(sizes)).tobytes() == parts.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


# --- arrivals reused across episodes ------------------------------------------------------


def tidal(seed: int, horizon: int = 60) -> WorkloadScenario:
    profile = tuple((t, 1.0 + 0.8 * math.sin(t / 7.0) ** 2) for t in range(horizon))
    return WorkloadScenario(
        base_rate=120.0, peak_rate=600.0, horizon=horizon, seed=seed, tidal_profile=profile,
        bursts=(BurstSpec(20, 5, 2.5),),
    )


def make_env(scenario: WorkloadScenario) -> DecisionEnv:
    topology = uniform_topology(node_count=4, services=scenario.service_mix)
    encoder = StateEncoder(service_count=8, node_count=4)
    return DecisionEnv(scenario, topology, encoder, SchedulerPolicy.build(encoder, seed=0))


class EveryTickHoldEnv(ppo_reference.DecisionEnv):
    """The earlier one-episode `DecisionEnv`, on a one-cluster sim, with the
    earlier `step`, which built a fresh no-op action for each hold tick."""

    def step(self, record):
        sim, rewards = self.sim, []
        action = self.mapper.to_scheduling_action(record, self._state)
        for i in range(self.decision_interval):
            if self._tick >= self.scenario.horizon:
                break
            counts = generate_tick_counts(self.scenario, self._tick)
            prev_quota = sim.quota
            applied = sim.step_counts(action if i == 0 else sim.no_op_action(), counts)
            rewards.append(
                reward(prev_quota, sim.last_latency_ms, sim.util_obs, applied, sim.reward_spec)
            )
            self._tick += 1
        self._state = sim.observe_state()
        done = self._tick >= self.scenario.horizon
        return self.encoder.encode(self._state), float(np.mean(rewards)), done, {}


def act_rows(env: DecisionEnv, obs: np.ndarray, rng) -> list[dict[str, np.ndarray]]:
    return [env.mapper.core.act(env.mapper.params, x, "sample", rng)[0] for x in obs]


class TestDecisionEnvArrivals:
    def test_holds_build_no_action_and_keep_the_bits(self, monkeypatch):
        # the hold ticks pass None: no no-op action is built, and every row's
        # observation, reward and configuration equals its episode stepped
        # alone on a one-cluster sim with a no-op on every hold tick
        built = []
        no_op = ClusterSim.no_op_action
        monkeypatch.setattr(ClusterSim, "no_op_action", lambda sim: built.append(sim) or no_op(sim))
        scenario = tidal(1, horizon=55)
        topology = uniform_topology(node_count=4, services=scenario.service_mix)
        encoder = StateEncoder(service_count=8, node_count=4)
        policy = SchedulerPolicy.build(encoder, seed=0)
        env = DecisionEnv(scenario, topology, encoder, policy)
        episodes = range(3)
        olds = [EveryTickHoldEnv(scenario, topology, encoder, policy) for _ in episodes]
        rng = np.random.default_rng(0)
        obs = env.reset(episodes)
        for old, row, episode in zip(olds, obs, episodes):
            assert_arrays_equal(old.reset(episode), row, "reset")
        done = False
        while not done:
            records = act_rows(env, obs, rng)
            built.clear()
            obs, rewards, done, _ = env.step(records)
            assert built == []
            for p, (old, record) in enumerate(zip(olds, records)):
                old_obs, old_r, old_done, _ = old.step(record)
                assert_arrays_equal(obs[p], old_obs, "observation")
                assert (rewards[p], done) == (old_r, old_done)
                for name in ("placement", "quota", "priority", "queue_len"):
                    assert_arrays_equal(getattr(env.sim, name)[p], getattr(old.sim, name), name)
        assert env.sim.sanitized_actions > 0  # actions were clamped or rescaled
        assert env.sim.sanitized_actions == sum(old.sim.sanitized_actions for old in olds)

    def test_episodes_step_the_regenerated_counts(self, monkeypatch):
        drawn = []
        draw = workload_module._draw_tick_counts
        monkeypatch.setattr(
            workload_module, "_draw_tick_counts",
            lambda sc, t: drawn.append((sc.seed, t)) or draw(sc, t),
        )
        stepped = []
        step_counts = ClusterSim.step_counts
        monkeypatch.setattr(
            ClusterSim, "step_counts",
            lambda sim, action, counts: stepped.append((id(sim), counts.copy()))
            or step_counts(sim, action, counts),
        )
        first, second = make_env(tidal(1)), make_env(tidal(2))
        rng = np.random.default_rng(0)
        for episodes in ([0], [1, 2]):
            for env in (first, second):  # interleaved, on different scenarios
                obs = env.reset(episodes)
                stepped.clear()
                done = False
                while not done:
                    obs, _, done, _ = env.step(act_rows(env, obs, rng))
                assert len(stepped) == env.scenario.horizon  # one tick for all rows
                for t, (_, counts) in enumerate(stepped):
                    assert_arrays_equal(counts, draw(env.scenario, t), f"tick {t}")
        assert sorted(drawn) == sorted((s, t) for s in (1, 2) for t in range(60))

    def test_observes_once_per_decision(self, monkeypatch):
        observed = []
        observe = ClusterSim.observe_state
        monkeypatch.setattr(
            ClusterSim, "observe_state", lambda sim: observed.append(sim.tick) or observe(sim)
        )
        env = make_env(tidal(1, horizon=55))
        obs = env.reset([0, 1])
        rng = np.random.default_rng(0)
        steps, done = 0, False
        while not done:
            obs, _, done, _ = env.step(act_rows(env, obs, rng))
            steps += 1
        assert steps == 6 == env.steps_per_episode  # five full decision intervals and a short last one
        assert observed == [0, 10, 20, 30, 40, 50, 55]  # at reset, then after each interval

    def test_reward_is_the_mean_of_its_ticks_rewards(self, monkeypatch):
        # a full interval gives each row the mean of its last decision_interval
        # per-tick rewards; the short last interval averages only its own ticks
        class RowRewardSim(ClusterSim):
            """`ClusterSim` keeping each tick's reward per row, each charging
            the action `step_counts` applied to the row."""

            def __init__(self, topology, **kwargs):
                super().__init__(topology, **kwargs)
                self.rewards = []

            def step_counts(self, action, counts):
                prev_quota = self.quota.copy()
                applied = super().step_counts(action, counts)
                self.rewards.append([
                    reward(prev_quota[p], self.last_latency_ms[p], self.util_obs[p],
                           applied.row(p), self.reward_spec)
                    for p in range(len(prev_quota))
                ])
                return applied

        monkeypatch.setattr(env_module, "ClusterSim", RowRewardSim)
        env = make_env(tidal(1, horizon=55))
        obs = env.reset([0, 1])
        rng = np.random.default_rng(0)
        got, done = [], False
        while not done:
            obs, r, done, _ = env.step(act_rows(env, obs, rng))
            got.append(r)
        rewards = np.array(env.sim.rewards)
        want = [[float(np.mean(rewards[t : t + 10, p])) for p in range(2)] for t in range(0, 55, 10)]
        assert rewards.shape == (55, 2) and len(want) == 6
        assert_arrays_equal(got, want, "decision rewards")
        assert got[0][0] != got[0][1]  # the rows took different actions

    def test_another_scenario_gets_its_own_counts(self):
        scenario = tidal(1)
        first = generate_tick_counts(scenario, 5)
        assert generate_tick_counts(scenario, 5) is first
        other = generate_tick_counts(tidal(3), 5)
        assert_arrays_equal(other, workload_module._draw_tick_counts(tidal(3), 5), "new scenario")
        assert not np.array_equal(other, first)
        again = generate_tick_counts(tidal(1), 5)  # an equal but new scenario object draws again
        assert again is not first
        assert_arrays_equal(again, first, "back to the first scenario")

    def test_shared_counts_are_read_only(self):
        counts = generate_tick_counts(tidal(1), 0)
        with pytest.raises(ValueError):
            counts[0] = 1


# --- forecast rows --------------------------------------------------------------------------


def grown_history(n: int, seed: int) -> TickHistory:
    rng = np.random.default_rng(seed)
    history = TickHistory(tick_length=1.0, ticks_per_day=300, market_open_tick=30,
                          market_close_tick=270)
    for _ in range(n):
        history.append(float(rng.uniform(50, 500)))
    return history


def make_model(seq_len=12, window=10, seed=0) -> ForecastModel:
    config = LstmConfig(hidden_size=8, layers=2)
    return ForecastModel(
        params=init_params(config, seed), config=config,
        scaling=FeatureScaling(volume_scale=500.0, session_minutes=5.0), seq_len=seq_len,
        feature_window=window, horizon=5, ticks_per_day=300, market_open_tick=30,
        market_close_tick=270,
    )


def head(history: TickHistory, end: int) -> TickHistory:
    """The history of the first `end` ticks: its volume cut at `end`."""
    return replace(history, volume=history.volume[:end])


def predicted(model: ForecastModel, history: TickHistory) -> float:
    """The prediction of a one-end forecast at the end of `history`."""
    return model.predict_and_warn(history, [len(history)])[0].predicted


def fresh_predict(model: ForecastModel, history: TickHistory, end=None) -> float:
    seq = feature_sequence(history, model.seq_len, model.feature_window, model.scaling, end)
    pred, _ = forward(seq[None], model.params, model.config)
    return float(pred[0]) * model.scaling.volume_scale


class TestForecastRows:
    @given(st.integers(2, 14), st.integers(1, 14), st.integers(1, 6), st.integers(0, 999))
    def test_growing_history_equals_fresh_sequences(self, window, seq_len, interval, seed):
        model = make_model(seq_len, window, seed)
        full = grown_history(90, seed)
        history = grown_history(0, seed)
        model.configure_history(history)
        for t in range(90):
            if t >= model.min_history() and t % interval == 0:
                assert predicted(model, history) == fresh_predict(model, history)
                end = t - seed % 3  # an earlier end
                if end >= model.min_history():
                    assert predicted(model, head(history, end)) == fresh_predict(model, history, end)
            history.append(full.volume[t])

    def test_extracts_each_row_once(self, monkeypatch):
        # one call per one-end forecast, for the seq_len rows that end at its end
        calls = []
        extract = lstm_module.extract_features
        monkeypatch.setattr(
            lstm_module, "extract_features",
            lambda h, w, s, ends: calls.append(list(ends)) or extract(h, w, s, ends),
        )
        model, history = make_model(), grown_history(200, 1)
        ends = range(model.min_history(), 201, 5)
        for end in ends:
            predicted(model, head(history, end))
        assert calls == [list(range(end - model.seq_len + 1, end + 1)) for end in ends]

    def test_rows_are_extracted_block_by_block(self, monkeypatch):
        # more than two blocks of ends: one extraction per block, of that
        # block's rows alone, and the forecasts of one extraction of every row
        calls = []
        extract = lstm_module.extract_features
        monkeypatch.setattr(
            lstm_module, "extract_features",
            lambda h, w, s, ends: calls.append(list(ends)) or extract(h, w, s, ends),
        )
        model, history = make_model(seq_len=4, window=5), grown_history(700, 4)
        ends = np.arange(model.min_history(), 701)
        got = model.predict_and_warn(history, ends)
        blocks = [ends[k : k + FORECAST_BLOCK] for k in range(0, len(ends), FORECAST_BLOCK)]
        assert len(blocks) > 2
        assert calls == [list(range(b[0] - model.seq_len + 1, b[-1] + 1)) for b in blocks]

        windows = ends[:, None] + np.arange(1 - model.seq_len, 1)
        rows = np.unique(windows)
        table = extract(history, model.feature_window, model.scaling, rows)
        sequences = table[np.searchsorted(rows, windows)]
        want = np.concatenate([
            forward(sequences[k : k + FORECAST_BLOCK], model.params, model.config)[0]
            for k in range(0, len(ends), FORECAST_BLOCK)
        ]).astype(float) * model.scaling.volume_scale
        assert_arrays_equal([f.predicted for f in got], want, "forecasts")

    def test_changed_inputs_are_not_served_stale_rows(self):
        # each change follows a forecast on the same history
        model, history = make_model(), grown_history(120, 2)
        predicted(model, history)
        history.market_open_tick = 60  # the session clock, as configure_history sets it
        assert predicted(model, history) == fresh_predict(model, history)
        history.market_close_tick = 200
        assert predicted(model, history) == fresh_predict(model, history)
        history.ticks_per_day = 250
        assert predicted(model, history) == fresh_predict(model, history)
        history.tick_length = 0.5
        assert predicted(model, history) == fresh_predict(model, history)
        model.scaling = FeatureScaling(volume_scale=250.0, session_minutes=5.0)
        assert predicted(model, history) == fresh_predict(model, history)
        model.feature_window = 6
        assert predicted(model, history) == fresh_predict(model, history)
        del history.volume[110:]
        history.append(1e4)  # a shorter history, appended to again
        assert predicted(model, history) == fresh_predict(model, history)
        other = grown_history(120, 3)
        assert predicted(model, other) == fresh_predict(model, other)

    def test_errors_as_before(self):
        model, history = make_model(), grown_history(30, 5)
        with pytest.raises(WarmupError):
            predicted(model, head(history, model.min_history() - 1))
        with pytest.raises(ValueError):  # an end beyond the history
            model.predict_and_warn(history, [31])


def forecast_bits(forecasts) -> bytes:
    return np.array([(f.predicted, f.band_low, f.band_high, f.burst_flag) for f in forecasts]).tobytes()


volumes = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)


class TestNoForecastSeesTheFuture:
    @given(st.integers(2, 10), st.integers(1, 8), st.integers(0, 999), st.data())
    def test_a_history_that_runs_on_gives_the_same_forecasts(self, window, seq_len, seed, data):
        # simulate forecasts from the whole horizon's volume history, so a
        # forecast ending at `end` must read nothing at or past it
        model = make_model(seq_len, window, seed)
        model.params["by"][:] = 1.0  # forecasts near 500, so the flags read the baseline
        first = model.min_history()
        m = data.draw(st.integers(first, first + 90), label="m")
        past = data.draw(st.lists(volumes, min_size=m, max_size=m), label="past")
        future = data.draw(st.lists(volumes, min_size=1, max_size=80), label="future")
        ends = data.draw(st.lists(st.integers(first, m), min_size=1, max_size=12), label="ends")
        full = model.configure_history(TickHistory(volume=past + future))
        cut = head(full, m)
        # a threshold grid fine enough that unequal baselines flip some flag
        for threshold in np.geomspace(1e-3, 1e3, 49):
            got = model.predict_and_warn(full, ends, threshold)
            want = model.predict_and_warn(cut, ends, threshold)
            assert [f.burst_flag for f in got] == [f.burst_flag for f in want], threshold
            assert forecast_bits(got) == forecast_bits(want)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_feature_vector_rejects_non_finite_values(bad):
    # a non-finite volume makes its rows non-finite, which the extractor refuses
    history = grown_history(30, 6)
    history.volume[20] = bad
    model = make_model(seq_len=4, window=5)
    with pytest.raises(ValueError, match="finite"):
        predicted(model, head(history, 24))
    assert predicted(model, head(history, 20)) == fresh_predict(model, history, 20)
