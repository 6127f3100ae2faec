from __future__ import annotations

import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from tradesim.cluster import (
    ClusterSim,
    ClusterTopology,
    LatencyModel,
    NodeSpec,
    NoiseSpec,
    RewardSpec,
    SchedulingAction,
    SystemState,
    load_topology,
    reward,
    sample_jitter,
    save_topology,
    service_latency,
    uniform_topology,
    write_trace_csv,
)
from tradesim.errors import ConfigError, from_json
from tradesim.workload import ServiceSpec


def two_service_topology(node_cpu=1000.0, quota=0.4, **kwargs) -> ClusterTopology:
    services = (
        ServiceSpec("orders", 0.5, 10.0, 1000),
        ServiceSpec("quotes", 0.5, 5.0, 500),
    )
    return ClusterTopology(
        nodes=(NodeSpec(node_cpu, 4096.0, 100.0), NodeSpec(node_cpu, 4096.0, 100.0)),
        services=services,
        initial_placement=((1, 0), (0, 1)),
        initial_quota=(quota, quota),
        initial_priority=(0.5, 0.5),
        latency=LatencyModel(jitter_enabled=False),
        **kwargs,
    )


def make_sim(**kwargs) -> ClusterSim:
    defaults = dict(topology=two_service_topology(), seed=1, noise=NoiseSpec(std=0.0))
    defaults.update(kwargs)
    return ClusterSim(**defaults)


def no_op(sim: ClusterSim) -> SchedulingAction:
    return sim.no_op_action()


def step(sim: ClusterSim, action: SchedulingAction, arrivals) -> SystemState:
    """Step one tick and observe the state it leaves."""
    sim.step_counts(action, arrivals)
    return sim.observe_state()


def counts(sim: ClusterSim, *values) -> np.ndarray:
    out = np.zeros(sim.k, dtype=np.int64)
    out[: len(values)] = values
    return out


class TestServiceLatency:
    def test_uncontended_component_sum_is_85ms(self):
        model = LatencyModel(jitter_enabled=False)
        assert service_latency(model, rho=0.0, cache_hit_rate=0.0) == 85.0

    def test_cache_hit_scales_data_component(self):
        model = LatencyModel(jitter_enabled=False)
        assert service_latency(model, 0.0, cache_hit_rate=0.8) == pytest.approx(65.0)

    def test_contention_applies_to_processing_only(self):
        model = LatencyModel(jitter_enabled=False)
        assert service_latency(model, 0.5) == pytest.approx(15 + 90 + 25)

    def test_overload_never_divides_by_zero(self):
        model = LatencyModel(jitter_enabled=False, rho_cap=0.9)
        assert service_latency(model, 1.5) == pytest.approx(15 + 450 + 25)

    def test_calibrated_jitter_mean_and_p95(self):
        # 1e6 draws: mean 85 +- 5 ms, p95 120 +- 12 ms (lognormal calibration)
        model = LatencyModel()
        rng = np.random.default_rng(5)
        lat = 85.0 * sample_jitter(model, rng, 1_000_000)
        assert abs(lat.mean() - 85.0) < 5.0
        assert abs(np.quantile(lat, 0.95) - 120.0) < 12.0


class TestStep:
    def test_idle_step_decays_utilization(self):
        sim = make_sim()
        sim.step_counts(no_op(sim), counts(sim, 40, 40))
        u1 = sim.util_true[:, 0].mean()
        for _ in range(10):
            sim.step_counts(no_op(sim), counts(sim))
        assert sim.util_true[:, 0].mean() < u1
        assert sim.queue_len.sum() == 0

    def test_single_request_to_idle_instance_sees_85ms(self):
        sim = make_sim()
        state = step(sim, no_op(sim), counts(sim, 1))
        assert state.latency_ms[0] == pytest.approx(85.0, abs=1e-9)

    def test_latency_components_example(self):
        sim = make_sim(topology=two_service_topology(node_cpu=100000.0))
        state = step(sim, no_op(sim), counts(sim, 0, 1))
        # network 15 + processing 45 + data access 25 ms, uncontended
        assert state.latency_ms[1] == pytest.approx(85.0, abs=1e-9)

    def test_overload_grows_queue_monotonically(self):
        # offered 2x effective capacity: a lone backlogged service can drain
        # the whole 1000 cpu-ms node (quota share + leftovers) = 100 req/tick
        sim = make_sim()
        lens = []
        for _ in range(100):
            sim.step_counts(no_op(sim), counts(sim, 200))
            lens.append(int(sim.queue_len[0]))
        assert all(b > a for a, b in zip(lens, lens[1:]))
        assert sim.conservation_ok()

    def test_queue_wait_adds_tick_latency(self):
        sim = make_sim()
        sim.step_counts(no_op(sim), counts(sim, 150))  # 100 served, 50 wait
        state = step(sim, no_op(sim), counts(sim))
        assert state.latency_ms[0] > 1000.0  # waited >= 1 tick = 1000 ms

    def test_conservation_under_random_load(self):
        sim = make_sim()
        rng = np.random.default_rng(3)
        for _ in range(300):
            sim.step_counts(no_op(sim), rng.poisson(30, size=sim.k))
        assert sim.conservation_ok()

    def test_determinism_identical_trajectories(self):
        def run():
            sim = make_sim(noise=NoiseSpec(std=0.02))
            states = []
            rng = np.random.default_rng(9)
            for _ in range(50):
                states.append(step(sim, no_op(sim), rng.poisson(20, size=sim.k)))
            return states

        for a, b in zip(run(), run()):
            assert np.array_equal(a.util, b.util)
            assert np.array_equal(a.latency_ms, b.latency_ms)

    def test_fixed_point_convergence_below_capacity(self):
        sim = make_sim()
        prev = None
        deltas = []
        for _ in range(1000):
            state = step(sim, no_op(sim), counts(sim, 20, 20))
            if prev is not None:
                deltas.append(np.abs(state.util - prev.util).max())
            prev = state
        assert deltas[-1] < 1e-6

    def test_quota_sums_stay_feasible_after_every_step(self):
        sim = make_sim()
        rng = np.random.default_rng(11)
        for _ in range(60):
            action = SchedulingAction(
                instance_delta=rng.integers(-2, 3, size=sim.k),
                migration=(rng.random((sim.k, sim.n)) < 0.2).astype(int),
                priority=rng.random(sim.k) * 1.4 - 0.2,
                quota=rng.random(sim.k) * 1.5,
            )
            sim.step_counts(action, rng.poisson(10, size=sim.k))
            assert np.all(sim._node_commit() <= 1.0 + 1e-9)
            assert np.all(sim.placement.sum(axis=1) >= 1)


class TestSanitization:
    def test_invalid_delta_clamped_and_counted(self):
        sim = make_sim()
        action = SchedulingAction(
            instance_delta=np.array([-5, 0]),
            migration=np.zeros((2, 2), dtype=int),
            priority=np.array([0.5, 0.5]),
            quota=np.array([0.4, 0.4]),
        )
        sim.step_counts(action, counts(sim))
        assert sim.sanitized_actions >= 1
        assert sim.placement.sum(axis=1).min() >= 1

    def test_priority_and_quota_clipped(self):
        sim = make_sim()
        action = SchedulingAction(
            instance_delta=np.zeros(2, dtype=int),
            migration=np.zeros((2, 2), dtype=int),
            priority=np.array([1.7, -0.4]),
            quota=np.array([2.0, 0.0]),
        )
        sim.step_counts(action, counts(sim))
        assert np.all(sim.priority <= 1.0) and np.all(sim.priority >= 0.0)
        assert np.all(sim.quota <= 1.0) and np.all(sim.quota >= 0.01)

    @pytest.mark.parametrize("field", ["quota", "priority"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_keeps_current_value(self, field, bad):
        sim = make_sim()
        action = sim.no_op_action()
        values = getattr(action, field).copy()
        values[1] = bad
        before = getattr(sim, field).copy()
        sim.step_counts(replace(action, **{field: values}), counts(sim, 30, 30))
        assert sim.sanitized_actions == 1  # one clamp for the one bad entry
        assert np.array_equal(getattr(sim, field), before)
        for _ in range(5):
            sim.step_counts(no_op(sim), counts(sim, 30, 30))
        assert sim.sanitized_actions == 1
        assert np.all(np.isfinite(sim.util_true))
        assert sim.completed_total > 0 and sim.conservation_ok()

    def test_migration_moves_one_instance(self):
        sim = make_sim()
        mig = np.zeros((2, 2), dtype=int)
        mig[0, 1] = 1  # move one instance of service 0 to node 1
        action = SchedulingAction(
            instance_delta=np.zeros(2, dtype=int),
            migration=mig,
            priority=np.array([0.5, 0.5]),
            quota=np.array([0.4, 0.4]),
        )
        sim.step_counts(action, counts(sim))
        assert sim.placement[0, 1] == 1 and sim.placement[0, 0] == 0


class TestReward:
    def make_state(self, latency, cpu_util) -> SystemState:
        k = len(latency)
        n = len(cpu_util)
        util = np.zeros((n, 3))
        util[:, 0] = cpu_util
        return SystemState(
            load=np.zeros(k),
            util=util,
            queue_len=np.zeros(k),
            hist_mean=np.zeros(k),
            hist_var=np.zeros(k),
            latency_ms=np.asarray(latency, dtype=float),
            throughput=np.zeros(k),
        )

    def zero_action(self, k=2, n=2, quota=(0.4, 0.4)) -> SchedulingAction:
        return SchedulingAction(
            instance_delta=np.zeros(k, dtype=int),
            migration=np.zeros((k, n), dtype=int),
            priority=np.full(k, 0.5),
            quota=np.asarray(quota, dtype=float),
        )

    def test_zero_penalties_give_zero_reward(self):
        spec = RewardSpec(u_target=0.7)
        state = self.make_state([0.0, 0.0], [0.7, 0.7])
        quota = np.array([0.4, 0.4])
        assert reward(quota, state.latency_ms, state.util, self.zero_action(), spec) == 0.0

    def test_direct_arithmetic_example(self):
        # one service T=100 at T_target=50, one node u=0.9 vs 0.7, C_t=0.1
        spec = RewardSpec(w1=1.0, w2=1.0, w3=1.0, T_target=50.0, u_target=0.7)
        quota_before = np.array([0.4])
        after = self.make_state([100.0], [0.9])
        action = SchedulingAction(
            instance_delta=np.array([10]),  # 10 changes * 0.01 = 0.1
            migration=np.zeros((1, 1), dtype=int),
            priority=np.array([0.5]),
            quota=np.array([0.4]),
        )
        assert reward(quota_before, after.latency_ms, after.util, action, spec) == pytest.approx(-2.3)

    def test_reward_never_positive(self):
        rng = np.random.default_rng(2)
        spec = RewardSpec()
        for _ in range(200):
            quota_before = np.array([0.4, 0.4])
            after = self.make_state(rng.uniform(0, 300, 2), rng.uniform(0, 1, 2))
            action = SchedulingAction(
                instance_delta=rng.integers(-2, 3, 2),
                migration=(rng.random((2, 2)) < 0.3).astype(int),
                priority=rng.random(2),
                quota=rng.random(2) * 0.5 + 0.1,
            )
            assert reward(quota_before, after.latency_ms, after.util, action, spec) <= 0.0

    def test_simulator_charges_the_applied_action(self):
        # service 0 grows to two instances on node 0, and one of them moves to
        # node 1; service 1 asks to move to node 1, where its only instance
        # already is, so that migration cannot apply. The raised quotas put
        # 1.3 on node 1, so the simulator rescales them.
        sim = make_sim()
        prev_quota = sim.quota.copy()
        requested = SchedulingAction(
            instance_delta=np.array([1, 0]),
            migration=np.array([[0, 1], [0, 1]]),
            priority=np.array([0.5, 0.5]),
            quota=np.array([0.8, 0.5]),
        )
        got_applied = sim.step_counts(requested, counts(sim, 30, 30))
        state = sim.observe_state()
        assert sim.placement.tolist() == [[1, 1], [0, 1]]
        assert sim.quota.tolist() == (np.array([0.8, 0.5]) / 1.3).tolist()
        applied = SchedulingAction(
            instance_delta=np.array([1, 0]),
            migration=np.array([[0, 1], [0, 0]]),
            priority=np.array([0.5, 0.5]),
            quota=sim.quota,
        )
        for f in fields(SchedulingAction):
            a, b = getattr(got_applied, f.name), getattr(applied, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        got = reward(prev_quota, state.latency_ms, state.util, got_applied, sim.reward_spec)
        want = reward(prev_quota, state.latency_ms, state.util, applied, sim.reward_spec)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert got != reward(prev_quota, state.latency_ms, state.util, requested, sim.reward_spec)


class TestObserveState:
    def test_fresh_cluster_all_zero(self):
        sim = make_sim()
        state = sim.observe_state()
        assert np.all(state.load == 0) and np.all(state.queue_len == 0)
        assert np.all(state.util == 0)

    def test_load_reflects_request_counts_exactly(self):
        sim = make_sim()
        state = step(sim, no_op(sim), counts(sim, 13, 7))
        assert state.load.tolist() == [13.0, 7.0]

    def test_repeated_observation_equal_without_step(self):
        sim = make_sim(noise=NoiseSpec(std=0.05))
        sim.step_counts(no_op(sim), counts(sim, 5, 5))
        a, b = sim.observe_state(), sim.observe_state()
        assert np.array_equal(a.util, b.util)
        assert np.array_equal(a.queue_len, b.queue_len)

    def test_history_matches_recomputed_statistics(self):
        sim = make_sim()
        rng = np.random.default_rng(8)
        loads = [rng.poisson(25, size=sim.k) for _ in range(80)]
        for c in loads:
            sim.step_counts(no_op(sim), c)
        state = sim.observe_state()
        window = np.stack(loads[-sim.topology.history_window :]).astype(float)
        assert np.allclose(state.hist_mean, window.mean(axis=0))
        assert np.allclose(state.hist_var, window.var(axis=0))

    def test_observation_noise_applied_to_util_only(self):
        sim = make_sim(noise=NoiseSpec(std=0.05), seed=4)
        state = step(sim, no_op(sim), counts(sim, 20, 20))
        assert not np.array_equal(state.util, sim.util_true)
        assert np.all(state.util >= 0.0) and np.all(state.util <= 1.0)


class TestTopologyIO:
    def test_round_trip(self, tmp_path):
        topo = uniform_topology(node_count=3, instances_per_service=2)
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        assert load_topology(path) == topo
        assert from_json(ClusterTopology, json.loads(json.dumps(asdict(topo))), "topology") == topo

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigError):
            ClusterTopology(
                nodes=(NodeSpec(100, 100, 100),),
                services=(ServiceSpec("a", 1.0, 5.0, 100),),
                initial_placement=((0,),),  # zero instances
                initial_quota=(0.5,),
                initial_priority=(0.5,),
            )
        with pytest.raises(ConfigError):
            ClusterTopology(
                nodes=(NodeSpec(100, 100, 100),),
                services=(ServiceSpec("a", 1.0, 5.0, 100),),
                initial_placement=((3,),),
                initial_quota=(0.5,),  # 3 * 0.5 > 1 on the node
                initial_priority=(0.5,),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_priority_rejected(self, bad):
        with pytest.raises(ConfigError, match="initial_priority"):
            replace(two_service_topology(), initial_priority=(0.5, bad))

    def test_finite_out_of_range_priority_clamped_on_first_tick(self):
        topo = replace(two_service_topology(), initial_priority=(1.5, -0.25))
        sim = ClusterSim(topo, seed=1, noise=NoiseSpec(std=0.0))
        sim.step_counts(no_op(sim), counts(sim, 10, 10))
        assert sim.priority.tolist() == [1.0, 0.0]
        assert sim.sanitized_actions == 2

    def test_trace_csv_columns(self, tmp_path):
        sim = make_sim(record_trace=True)
        for _ in range(5):
            sim.step_counts(no_op(sim), counts(sim, 10, 10))
        path = tmp_path / "trace.csv"
        write_trace_csv(sim, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "tick,service_id,completed,p50_ms,p95_ms,util_cpu,util_mem,util_net,queue_len"
        assert len(lines) == 1 + 5 * sim.k
