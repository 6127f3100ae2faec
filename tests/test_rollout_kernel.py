"""The batched rollout kernel against a scalar reference.

The reference is the rollout loop the kernel replaced: one `ClusterSim` per
candidate, stepped tick by tick with no-op actions. The kernel runs the same
arithmetic in the same order, so its results must be equal, not close.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradesim.baselines import scheduler_options
from tradesim.cluster import (
    OBSERVE_BLOCK,
    ClusterSim,
    ClusterTopology,
    LatencyModel,
    NodeSpec,
    NoiseSpec,
    SystemState,
    rollout_batch,
    uniform_topology,
)
from tradesim.hybrid import (
    QUOTA_FLOOR,
    Chromosome,
    FitnessWeights,
    HybridConfig,
    Population,
    RolloutEvaluator,
    RolloutMetrics,
    hybrid_scheduling,
    repair,
)
from tradesim.workload import BurstSpec, RampSpec, ServiceSpec, WorkloadScenario

# --- the scalar reference ------------------------------------------------------


def reference_sim(evaluator: RolloutEvaluator, chromo: Chromosome) -> ClusterSim:
    topo = replace(
        evaluator.topology,
        initial_placement=tuple(tuple(int(v) for v in row) for row in chromo.placement),
        initial_quota=tuple(float(q) for q in chromo.quota),
        initial_priority=tuple(float(p) for p in chromo.priority),
        latency=replace(evaluator.topology.latency, jitter_enabled=False),
    )
    return ClusterSim(topo, seed=0, noise=NoiseSpec(std=0.0), latency_sample_cap=1)


def reference_rollout(evaluator: RolloutEvaluator, chromo: Chromosome) -> RolloutMetrics:
    sim = reference_sim(evaluator, chromo)
    topo = sim.topology
    latency_sum = 0.0
    completed = 0
    util_sum = 0.0
    node_work = np.zeros(topo.node_count)
    for counts in evaluator.arrivals():
        sim.step_counts(sim.no_op_action(), counts)
        done = sim.last_throughput * topo.tick_length
        latency_sum += float(np.dot(sim.observe_state().latency_ms, done))
        completed += float(done.sum())
        util_sum += float(sim.util_true[:, 0].mean())
        node_work += sim.util_true[:, 0]
    T = latency_sum / completed if completed else 0.0
    U = util_sum / evaluator.eval_ticks
    mean_work = node_work.mean()
    cv = float(node_work.std() / mean_work) if mean_work > 0 else 0.0
    L = max(0.0, 1.0 - cv)
    return RolloutMetrics(T=T, U=U, L=L, final_state=sim.observe_state())


def reference_rollouts(evaluator: RolloutEvaluator, pop: Population):
    """`RolloutEvaluator._rollouts` from one scalar reference rollout per row."""
    metrics = [reference_rollout(evaluator, c) for c in pop.chromosomes()]
    tul = np.array([[m.T, m.U, m.L] for m in metrics]).reshape(len(metrics), 3)
    return tul, lambda p: metrics[p].final_state


def kernel_metrics(evaluator: RolloutEvaluator, chromos: list[Chromosome]) -> list[RolloutMetrics]:
    """Every candidate's metrics and final state, the states built on demand."""
    pop = Population.of(chromos)
    scores = evaluator.evaluate(pop)
    states = evaluator.final_states(pop)
    return [RolloutMetrics(T, U, L, state) for (T, U, L, _), state in zip(scores, states)]


def assert_identical(got: RolloutMetrics, want: RolloutMetrics) -> None:
    assert (got.T, got.U, got.L) == (want.T, want.U, want.L)
    for f in fields(SystemState):
        a, b = getattr(got.final_state, f.name), getattr(want.final_state, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


# --- generated cases -------------------------------------------------------------


@st.composite
def rollout_cases(draw, overloaded: bool = False):
    """An evaluator on a generated topology and scenario, and repaired candidates."""
    k = draw(st.integers(1, 9))  # sums over 8+ entries change order in numpy
    n = draw(st.integers(1, 9))
    services = tuple(
        ServiceSpec(
            f"s{i}",
            weight=draw(st.floats(0.05, 1.0)),
            work_units=draw(st.floats(0.3, 25.0)),  # rarely an integer
            payload_bytes=draw(st.integers(64, 8192)),
            mem_mb=draw(st.floats(8.0, 512.0)),
        )
        for i in range(k)
    )
    node_cpu = draw(st.floats(40.0, 400.0) if overloaded else st.floats(40.0, 4000.0))
    topology = ClusterTopology(
        nodes=tuple(
            NodeSpec(node_cpu * draw(st.sampled_from([0.5, 1.0, 1.5])), 4096.0, 50.0)
            for _ in range(n)
        ),
        services=services,
        initial_placement=tuple(tuple(1 if j == i % n else 0 for j in range(n)) for i in range(k)),
        initial_quota=(QUOTA_FLOOR,) * k,
        initial_priority=(0.5,) * k,
        latency=LatencyModel(rho_cap=draw(st.sampled_from([0.5, 0.9, 0.99]))),
        history_window=draw(st.sampled_from([0, 1, 7, 60])),
        ewma_alpha=draw(st.sampled_from([0.2, 0.35])),
        tick_length=draw(st.sampled_from([1.0, 0.5, 0.7])),
    )
    rate = draw(st.floats(200.0, 800.0) if overloaded else st.floats(5.0, 400.0))
    scenario = WorkloadScenario(
        base_rate=rate, peak_rate=3 * rate, horizon=200, seed=draw(st.integers(0, 2**16)),
        service_mix=services, bursts=(BurstSpec(20, 30, 2.5),),
    )
    # past two observation blocks, the last one cut short
    longest = max(120, 2 * OBSERVE_BLOCK + 1)
    eval_ticks = draw(st.integers(60, 120) if overloaded else st.integers(1, longest))
    evaluator = RolloutEvaluator(
        scenario, topology, FitnessWeights(), eval_ticks, start_tick=draw(st.integers(0, 150))
    )
    chromos = []
    for _ in range(draw(st.integers(1, 4))):
        placement = np.array(
            [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(k)], dtype=int
        )
        quota = np.array(
            [draw(st.one_of(st.just(QUOTA_FLOOR), st.floats(QUOTA_FLOOR, 1.0))) for _ in range(k)]
        )
        priority = np.array([draw(st.floats(0.0, 1.0)) for _ in range(k)])
        chromos.append(repair(Population.of([Chromosome(placement, quota, priority)])).chromosomes()[0])
    return evaluator, chromos


class TestKernelEqualsScalarReference:
    @given(rollout_cases())
    def test_metrics_and_final_state_identical(self, case):
        evaluator, chromos = case
        for got, chromo in zip(kernel_metrics(evaluator, chromos), chromos):
            assert_identical(got, reference_rollout(evaluator, chromo))

    @given(rollout_cases(overloaded=True))
    def test_identical_with_deep_queues(self, case):
        evaluator, chromos = case
        for got, chromo in zip(kernel_metrics(evaluator, chromos), chromos):
            assert_identical(got, reference_rollout(evaluator, chromo))

    def test_overloaded_queues_are_many_buckets_deep(self):
        # the case the deep-queue property targets: 120 ticks of c03's
        # topology under three times its capacity leave long FIFO queues
        scenario = WorkloadScenario(base_rate=1500.0, peak_rate=4500.0, horizon=200, seed=4)
        topology = uniform_topology(
            node_count=2, node_cpu=2000.0, services=scenario.service_mix, quota=0.08
        )
        evaluator = RolloutEvaluator(scenario, topology, FitnessWeights(), eval_ticks=120)
        chromo = Chromosome(
            np.array(topology.initial_placement), np.array(topology.initial_quota),
            np.array(topology.initial_priority),
        )
        sim = reference_sim(evaluator, chromo)
        for counts in evaluator.arrivals():
            sim.step_counts(sim.no_op_action(), counts)
        assert max(len(q) for q in sim.queues) >= 50
        assert_identical(evaluator.metrics(chromo), reference_rollout(evaluator, chromo))

    def test_one_candidate_adds_its_ticks_in_order(self):
        # one candidate over 10 ticks: numpy sums a (ticks, 1) axis pairwise,
        # which gives another U here than adding tick by tick, as the
        # reference does
        services = (
            ServiceSpec("a", 1.0, 5.0, 512, 64.0),
            ServiceSpec("b", 1.0, 3.0, 256, 32.0),
            ServiceSpec("c", 1.0, 8.0, 1024, 128.0),
        )
        topology = ClusterTopology(
            nodes=(NodeSpec(1000.0, 4096.0, 50.0),), services=services,
            initial_placement=((1,), (1,), (1,)), initial_quota=(QUOTA_FLOOR,) * 3,
            initial_priority=(0.0,) * 3,
        )
        scenario = WorkloadScenario(
            base_rate=60.0, peak_rate=180.0, horizon=40, seed=0, service_mix=services
        )
        evaluator = RolloutEvaluator(scenario, topology, FitnessWeights(), eval_ticks=10)
        chromo = Chromosome(np.ones((3, 1), dtype=int), np.full(3, QUOTA_FLOOR), np.zeros(3))
        # feasible as it is, so the rollout's first hold settles it
        assert repair(Population.of([chromo])).keys() == Population.of([chromo]).keys()
        sim = reference_sim(evaluator, chromo)
        per_tick = []
        for counts in evaluator.arrivals():
            sim.step_counts(sim.no_op_action(), counts)
            per_tick.append(float(sim.util_true[:, 0].mean()))
        in_order = 0.0
        for u in per_tick:
            in_order += u
        assert np.sum(per_tick) / 10 != in_order / 10  # the case tells the two sums apart
        assert_identical(evaluator.metrics(chromo), reference_rollout(evaluator, chromo))

    @given(rollout_cases(), st.randoms(use_true_random=False))
    def test_batch_order_invariant(self, case, rnd):
        evaluator, chromos = case
        batch = chromos + chromos[:1]  # a duplicate shares the batch
        rnd.shuffle(batch)
        tul, state_of = evaluator._rollouts(Population.of(batch))
        for p, chromo in enumerate(batch):
            alone, alone_state = evaluator._rollouts(Population.of([chromo]))
            assert_identical(
                RolloutMetrics(*tul[p], state_of(p)), RolloutMetrics(*alone[0], alone_state(0))
            )


def test_a_long_rollout_holds_no_buffer_over_its_ticks():
    # 4,000 ticks of 16 candidates, 8 services on 8 nodes. One (T, P, k, n)
    # float buffer would take 32.8 MB, a (T, P, n, 3) one 12.3 MB and a
    # (T, P, k) one 4.1 MB; the observation pass holds a block of ticks
    rng = np.random.default_rng(0)
    topology = uniform_topology(node_count=8)
    pop = repair(Population.of([
        Chromosome(rng.integers(0, 3, (8, 8)), np.full(8, 0.05), rng.random(8)) for _ in range(16)
    ]))
    arrivals = rng.poisson(20.0, (4000, 8))
    tracemalloc.start()
    try:
        batch = rollout_batch(topology, pop.placement, pop.quota, pop.priority, arrivals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pop) == 16 and batch.completed.min() > 0
    assert peak < 3 * 2**20


class TestMemo:
    def test_duplicates_roll_out_once(self, monkeypatch):
        scenario = WorkloadScenario(base_rate=50.0, peak_rate=150.0, horizon=60, seed=1)
        topology = uniform_topology(node_count=2, services=scenario.service_mix)
        evaluator = RolloutEvaluator(scenario, topology, FitnessWeights(), eval_ticks=10)
        rng = np.random.default_rng(0)
        a, b = (
            repair(Population.of([Chromosome(rng.integers(0, 3, (8, 2)), np.full(8, 0.05), rng.random(8))]))
            for _ in range(2)
        )
        a, b = a.chromosomes()[0], b.chromosomes()[0]
        batches = []
        rollouts = RolloutEvaluator._rollouts
        monkeypatch.setattr(
            RolloutEvaluator, "_rollouts",
            lambda self, pop: batches.append(len(pop)) or rollouts(self, pop),
        )
        first = evaluator.evaluate(Population.of([a, b, a.copy(), b]))
        assert batches == [2]
        assert first[0].tobytes() == first[2].tobytes() and first[1].tobytes() == first[3].tobytes()
        again = evaluator.evaluate(Population.of([b, a]))
        assert batches == [2] and again.tobytes() == first[[1, 0]].tobytes()
        m = evaluator.metrics(a)
        assert batches == [2] and [m.T, m.U, m.L] == first[0, :3].tolist()


# --- GA-level equivalence -----------------------------------------------------------


def market_open(seed: int) -> WorkloadScenario:
    return WorkloadScenario(
        base_rate=55.0, peak_rate=55.0 * 9, horizon=100, seed=seed,
        ramp=RampSpec(10, 40, 1000, 3000), bursts=(BurstSpec(60, 30, 3.0),),
    )


def run_ga(scenario, topology, seed):
    config = HybridConfig(seed=seed, **scheduler_options("hybrid", {}))  # CLI defaults
    current = Chromosome(
        np.array(topology.initial_placement), np.array(topology.initial_quota),
        np.array(topology.initial_priority),
    )
    return hybrid_scheduling(
        scenario, topology, config, initial_population=[current], start_tick=40
    )


@pytest.mark.parametrize("topology_kind", ["default", "overloaded"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hybrid_scheduling_identical_to_scalar_rollouts(monkeypatch, topology_kind, seed):
    scenario = market_open(2 * seed)
    if topology_kind == "default":
        topology = uniform_topology(services=scenario.service_mix)
    else:  # the c03/c04 topology
        topology = uniform_topology(
            node_count=2, node_cpu=2000.0, services=scenario.service_mix, quota=0.08
        )
    batched = run_ga(scenario, topology, seed)
    monkeypatch.setattr(RolloutEvaluator, "_rollouts", reference_rollouts)
    scalar = run_ga(scenario, topology, seed)

    for attr in ("placement", "quota", "priority"):
        assert getattr(batched.best, attr).tobytes() == getattr(scalar.best, attr).tobytes()
    assert batched.best_fitness == scalar.best_fitness
    assert batched.trace == scalar.trace
    assert batched.refine_stats == scalar.refine_stats
    assert batched.converged == scalar.converged
