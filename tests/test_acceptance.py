"""Acceptance suite: one test per criterion, reported as a pass/fail line per
criterion in the terminal summary (see conftest.py).

Scenario sizing notes live next to each criterion; runtimes are desk-scale
(the whole module runs in a couple of minutes).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from cachetrace import run_read_trace, zipf_trading_trace
from tradesim.cache import CacheConfig, HashRing, TieredCache
from tradesim.cli import ExperimentConfig, main, run_experiment
from tradesim.cluster import (
    ClusterSim,
    ClusterTopology,
    LatencyModel,
    NodeSpec,
    NoiseSpec,
    SchedulingAction,
    sample_jitter,
    save_topology,
    service_latency,
    uniform_topology,
)
from tradesim.drl import (
    ActionLayout,
    CategoricalHead,
    PolicyCore,
    SchedulerPolicy,
    StateEncoder,
    TrainConfig,
    ppo_loss,
    train_scheduler,
    value_loss_and_gradients,
)
from tradesim.drl.env import ContextualBandit, DecisionEnv
from tradesim.drl.policy import _stack_records, dueling_combine
from tradesim.hybrid import (
    Chromosome,
    FitnessWeights,
    HybridConfig,
    RolloutEvaluator,
    adaptive_rates,
    fitness_from_metrics,
    hybrid_scheduling,
    satisfies_invariants,
)
from tradesim.lstm import (
    LstmConfig,
    TrainSpec,
    accuracy,
    build_dataset,
    forward,
    init_params,
    loss_and_gradients,
    train,
)
from tradesim.workload import (
    BurstSpec,
    FeatureScaling,
    RampSpec,
    ServiceSpec,
    TickHistory,
    WorkloadScenario,
    generate_tick_counts,
    save_scenario,
)

# --- shared builders -----------------------------------------------------------


def market_open_scenario(seed: int, base_rate: float = 55.0) -> WorkloadScenario:
    """Ramp 1k -> 3k user-equivalents, then a 3x burst at the open."""
    return WorkloadScenario(
        base_rate=base_rate,
        peak_rate=base_rate * 9,
        horizon=420,
        seed=seed,
        ramp=RampSpec(start_tick=60, duration_ticks=180, start_users=1000, end_users=3000),
        bursts=(BurstSpec(260, 60, 3.0),),
    )


def market_open_topology(scenario: WorkloadScenario) -> ClusterTopology:
    return uniform_topology(
        node_count=2, node_cpu=2000.0, services=scenario.service_mix, quota=0.08
    )


def scheduler_experiment(config: ExperimentConfig) -> dict:
    """One simulate run: its p95 and mean latency, and the fitness of its
    latency, mean node CPU utilization U and balance L, read from the trace."""
    summary, sim = run_experiment(config)
    assert sim.conservation_ok()
    node_work = np.zeros(sim.n)
    util_sum = 0.0
    for rec in sim.trace:  # with no observation noise, the true utilization
        node_work += rec.util[:, 0]
        util_sum += rec.util[:, 0].mean()
    U = util_sum / len(sim.trace)
    cv = float(node_work.std() / node_work.mean()) if node_work.mean() > 0 else 0.0
    weights = FitnessWeights(T_max=500.0)
    fitness = fitness_from_metrics(summary.mean_latency_ms, U, max(0.0, 1.0 - cv), weights)
    return {"p95": summary.p95_ms, "mean": summary.mean_latency_ms, "fitness": fitness}


# --- criteria -------------------------------------------------------------------


class TestC01LatencyCalibration:
    def test_c01_latency_component_calibration(self):
        model = LatencyModel(jitter_enabled=False)
        assert service_latency(model, rho=0.0, cache_hit_rate=0.0) == 85.0

        model = LatencyModel()  # calibrated lognormal jitter
        rng = np.random.default_rng(1)
        lat = 85.0 * sample_jitter(model, rng, 1_000_000)
        assert abs(float(lat.mean()) - 85.0) <= 5.0
        p95 = float(np.quantile(lat, 0.95))
        assert abs(p95 - 120.0) <= 12.0


class TestC02LoadLatencyTrend:
    def test_c02_load_latency_trend(self):
        # calibrated capacity = 0.4 x raw sustained rate, so the 2.0x level
        # drives utilization to ~0.8, the high-concurrency regime being mirrored
        svc = (ServiceSpec("svc", 1.0, 10.0, 500),)
        topo = ClusterTopology(
            nodes=(NodeSpec(10_000.0, 8192.0, 500.0),),
            services=svc,
            initial_placement=((1,),),
            initial_quota=(1.0,),
            initial_priority=(0.5,),
            latency=LatencyModel(jitter_enabled=False),
        )
        raw_capacity = 10_000.0 / 10.0
        calibrated = 0.4 * raw_capacity
        means = []
        for level in (0.4, 0.8, 1.2, 1.6, 2.0):
            scenario = WorkloadScenario(
                base_rate=level * calibrated, peak_rate=3 * level * calibrated,
                horizon=300, seed=11, service_mix=svc,
            )
            sim = ClusterSim(topo, seed=0, noise=NoiseSpec(std=0.0), latency_sample_cap=4)
            lat_sum = done_sum = 0.0
            for t in range(scenario.horizon):
                sim.step_counts(sim.no_op_action(), generate_tick_counts(scenario, t))
                state = sim.observe_state()
                if t >= 60:  # EWMA settled
                    done = sim.last_throughput
                    lat_sum += float(np.dot(state.latency_ms, done))
                    done_sum += float(done.sum())
            means.append(lat_sum / done_sum)
        assert all(b > a for a, b in zip(means, means[1:])), means
        ratio = means[-1] / means[0]
        assert 2.5 <= ratio <= 3.5, (means, ratio)


class TestC03SchedulerBenefit:
    def test_c03_hybrid_beats_round_robin(self, tmp_path):
        options = tmp_path / "scheduler.json"
        options.write_text(json.dumps({"population": 8, "elite": 2, "max_iter": 3, "eval_ticks": 20}))
        p95_gains, fitness_gains = [], []
        for seed in (1, 2, 3, 4, 5):
            scenario = market_open_scenario(seed)
            paths = {"scenario": tmp_path / f"scenario{seed}.json", "topology": tmp_path / "topo.json"}
            save_scenario(scenario, paths["scenario"])
            save_topology(market_open_topology(scenario), paths["topology"])
            rr, hy = (
                scheduler_experiment(ExperimentConfig(
                    scenario=str(paths["scenario"]), topology=str(paths["topology"]),
                    scheduler=kind, scheduler_config=str(options), seed=seed,
                    decision_interval=30, noise_std=0.0, cache_accesses_per_tick=0,
                ))
                for kind in ("round-robin", "hybrid")
            )
            p95_gains.append((rr["p95"] - hy["p95"]) / rr["p95"])
            fitness_gains.append((rr["fitness"] - hy["fitness"]) / rr["fitness"])
        assert float(np.mean(p95_gains)) >= 0.20, p95_gains
        assert float(np.mean(fitness_gains)) >= 0.10, fitness_gains


class TestC04ProactiveVsReactive:
    def test_c04_predictor_scales_before_burst(self, tmp_path):
        burst_start = 260
        train_scenario = market_open_scenario(1001, base_rate=60.0)
        topology = market_open_topology(train_scenario)
        sc_train = tmp_path / "train.json"
        topo_path = tmp_path / "topo.json"
        save_scenario(train_scenario, sc_train)
        save_topology(topology, topo_path)
        ckpt = tmp_path / "model.npz"
        code = main([
            "train-predictor", "--scenario", str(sc_train), "--out", str(ckpt),
            "--epochs", "40", "--hidden", "24", "--layers", "2",
            "--seq-len", "8", "--window", "10", "--horizon-ticks", "20",
            "--learning-rate", "0.005",
        ])
        assert code == 0

        for seed in (7, 8):
            run_scenario = market_open_scenario(seed, base_rate=60.0)
            sc_run = tmp_path / f"run{seed}.json"
            save_scenario(run_scenario, sc_run)
            summaries = {}
            for predictor in (None, str(ckpt)):
                config = ExperimentConfig(
                    scenario=str(sc_run), topology=str(topo_path),
                    scheduler="threshold-autoscaler", predictor=predictor,
                    out=str(tmp_path / "out"), seed=seed,
                    predictor_threshold=1.5, predictor_cooldown=30,
                )
                summaries[bool(predictor)], _ = run_experiment(config)
            reactive, proactive = summaries[False], summaries[True]
            assert proactive.first_scale_up_tick < burst_start, proactive.first_scale_up_tick
            assert reactive.first_scale_up_tick >= burst_start, reactive.first_scale_up_tick
            assert proactive.first_scale_up_tick < reactive.first_scale_up_tick
            ratio = proactive.queue_backlog_integral / reactive.queue_backlog_integral
            assert ratio <= 0.70, ratio


class TestC05GaSuite:
    def toy_setup(self):
        services = (
            ServiceSpec("orders", 0.6, 10.0, 1000),
            ServiceSpec("quotes", 0.4, 5.0, 500),
        )
        scenario = WorkloadScenario(
            base_rate=80.0, peak_rate=240.0, horizon=200, seed=5, service_mix=services
        )
        topology = ClusterTopology(
            nodes=(NodeSpec(600.0, 4096.0, 100.0), NodeSpec(600.0, 4096.0, 100.0)),
            services=services,
            initial_placement=((1, 0), (0, 1)),
            initial_quota=(0.2, 0.2),  # max 4-instance commit stays feasible
            initial_priority=(0.5, 0.5),
            latency=LatencyModel(jitter_enabled=False),
        )
        return scenario, topology

    def test_c05_adaptive_rate_unit_values_exact(self):
        assert adaptive_rates(10.0, 5.0, 10.0) == (0.3, 0.03)
        assert adaptive_rates(5.0, 5.0, 10.0) == (0.9, 0.1)
        assert adaptive_rates(7.5, 5.0, 10.0) == (0.6, 0.065)

    def test_c05_toy_matches_exhaustive_and_elitism_holds(self):
        scenario, topology = self.toy_setup()
        weights = FitnessWeights(T_max=300.0)
        evaluator = RolloutEvaluator(scenario, topology, weights, eval_ticks=30)
        quota, priority = (0.2, 0.2), (0.5, 0.5)

        best_exhaustive = float("inf")
        for cells in np.ndindex(3, 3, 3, 3):
            cand = Chromosome(
                placement=np.array(cells, dtype=int).reshape(2, 2),
                quota=np.array(quota), priority=np.array(priority),
            )
            if not satisfies_invariants(cand):
                continue
            m = evaluator.metrics(cand)
            best_exhaustive = min(
                best_exhaustive, fitness_from_metrics(m.T, m.U, m.L, weights)
            )

        for seed in range(10):
            config = HybridConfig(
                population=14, elite=2, max_iter=30, seed=seed, eval_ticks=30,
                mutation_sigma=0.0, max_instances=2, local_search_budget=8,
                rl_refinement=False, convergence_window=40,
            )
            # whole initial population on the oracle's quantized grid
            rng = np.random.default_rng(seed)
            init = [
                Chromosome(
                    placement=rng.integers(0, 3, size=(2, 2)),
                    quota=np.array(quota), priority=np.array(priority),
                )
                for _ in range(config.population)
            ]
            result = hybrid_scheduling(
                scenario, topology, config, weights, initial_population=init
            )
            assert result.best_fitness <= best_exhaustive + 1e-9, (seed, result.best_fitness)
            trace = [t.best_fitness for t in result.trace]
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
            for t in result.trace:
                assert 0.3 - 1e-9 <= t.pc_mean <= 0.9 + 1e-9
                assert 0.03 - 1e-9 <= t.pm_mean <= 0.1 + 1e-9


class TestC06DrlNumericSuite:
    def mixed_core(self, feature_dim=5, hidden=(8,)):
        from tradesim.drl import DuelingHead, GaussianHead

        layout = ActionLayout(
            heads=(
                CategoricalHead("delta", rows=2, n=3),
                GaussianHead("prio", n=2),
                DuelingHead("mig", n=4),
            )
        )
        return PolicyCore(feature_dim, layout, hidden)

    def test_c06_dueling_identity_exact(self):
        core = self.mixed_core()
        params = core.init_params(seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 5))
        q = core.dueling_q(params, x)
        v = core.head_distributions(params, x)["mig"]["v"]
        centered = q - v[:, None]
        for i in range(q.shape[1]):
            for j in range(q.shape[1]):
                assert np.all(np.abs((q[:, i] - q[:, j]) - (centered[:, i] - centered[:, j])) <= 1e-12)
        assert dueling_combine(np.array([[1.5]]), np.array([[0.5, -0.5]])).tolist() == [[2.0, 1.0]]

    def test_c06_clipped_objective_arithmetic_exact(self):
        core = self.mixed_core()
        params = core.init_params(seed=0)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(4, 5))
        records, logps = [], []
        for b in range(4):
            record, logp = core.act(params, feats[b], "sample", rng)
            records.append(record)
            logps.append(logp)
        records = _stack_records(records)
        logps = np.asarray(logps)
        adv = rng.normal(size=4)
        loss, _, _ = ppo_loss(core, params, feats, records, logps, adv, clip_eps=0.2)
        assert -loss == pytest.approx(float(adv.mean()), abs=1e-12)

        one_rec = {k: v[:1] for k, v in records.items()}
        loss, _, _ = ppo_loss(
            core, params, feats[:1], one_rec, logps[:1] - np.log(1.5), np.ones(1), clip_eps=0.2
        )
        assert -loss == pytest.approx(1.2, abs=1e-12)

    def test_c06_gradient_checks(self):
        rng = np.random.default_rng(9)
        core = self.mixed_core()
        old_params = core.init_params(seed=2)
        feats = rng.normal(size=(6, 5))
        records, logps = [], []
        for b in range(6):
            record, logp = core.act(old_params, feats[b], "sample", rng)
            records.append(record)
            logps.append(logp)
        records = _stack_records(records)
        logps = np.asarray(logps)
        params = {k: v + 0.01 * rng.normal(size=v.shape) for k, v in old_params.items()}
        adv = rng.normal(size=6)
        _, pgrads, _ = ppo_loss(core, params, feats, records, logps, adv, clip_eps=0.2)
        assert _fd_worst(params, pgrads,
                         lambda p: ppo_loss(core, p, feats, records, logps, adv, 0.2)[0],
                         rng) < 1e-4

        rets = rng.normal(size=6)
        _, vgrads = value_loss_and_gradients(core, params, feats, rets)
        assert _fd_worst(params, vgrads,
                         lambda p: value_loss_and_gradients(core, p, feats, rets)[0],
                         rng) < 1e-4

        cfg = LstmConfig(input_size=18, hidden_size=8, layers=2, dropout=0.0)
        lstm_params = init_params(cfg, seed=11)
        x = rng.normal(size=(3, 10, 18))
        y = rng.normal(size=3)
        _, lgrads = loss_and_gradients(x, y, lstm_params, cfg)
        assert _fd_worst(lstm_params, lgrads,
                         lambda p: loss_and_gradients(x, y, p, cfg)[0],
                         rng, eps=1e-5) < 1e-4


def _fd_worst(params, grads, loss_at, rng, probes=6, eps=1e-6):
    worst = 0.0
    for name in params:
        flat = params[name].reshape(-1)
        idxs = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_at(params)
            flat[idx] = orig - eps
            down = loss_at(params)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6))
    return worst


class TestC07BanditSanity:
    def test_c07_bandit_reaches_95_percent_on_three_seeds(self):
        for seed in (2, 3, 4):
            layout = ActionLayout(heads=(CategoricalHead("arm", rows=1, n=2),))
            core = PolicyCore(2, layout, hidden=(16,))
            config = TrainConfig(
                learning_rate=0.02, total_episodes=500, episode_length=8,
                update_horizon=64, minibatch=32, epochs=4, gamma=0.9, seed=seed,
            )
            bandit = ContextualBandit(seed=10 + seed)
            params, _ = train_scheduler(bandit, core, config)
            rate = bandit.optimal_rate(core, params)
            assert rate >= 0.95, (seed, rate)


class TestC08CacheSuite:
    def test_c08_ttl_semantics_exact(self):
        cache = TieredCache(CacheConfig(l1_capacity=4, l2_capacity=16))
        cache.put(b"k", b"v", now=0.0)
        assert cache.get(b"k", now=9.99)[2] == "L1"
        assert cache.get(b"k", now=10.01)[2] == "L2"  # L1 ttl 10s lapsed
        cache2 = TieredCache(CacheConfig(l1_capacity=4, l2_capacity=16))
        cache2.put(b"k", b"v", now=0.0)
        assert cache2.get(b"k", now=60.01)[2] == "L3"  # both memory TTLs lapsed
        assert cache2.get(b"k", now=1e9) is not None  # L3 permanent

    def test_c08_reference_model_equivalence(self):
        from test_cache import ReferenceModel

        cfg = CacheConfig(l1_capacity=6, l2_capacity=20)
        real, ref = TieredCache(cfg), ReferenceModel(cfg)
        rng = np.random.default_rng(123)
        now = 0.0
        keys = [b"key%d" % i for i in range(40)]
        for _ in range(10_000):
            now += float(rng.exponential(0.8))
            key = keys[int(rng.integers(len(keys)))]
            if rng.random() < 0.4:
                value = b"v%d" % int(rng.integers(1000))
                assert real.put(key, value, now) == ref.put(key, value, now)
            else:
                assert real.get(key, now) == ref.get(key, now)

    def test_c08_zipf_memory_hit_rate(self):
        cache = TieredCache(CacheConfig(l1_capacity=1000, l2_capacity=10_000))
        trace = zipf_trading_trace(n_keys=100_000, length=1_000_000, warmup=100_000, seed=7)
        run_read_trace(cache, trace, warmup=100_000)
        assert cache.stats.memory_hit_rate >= 0.80, cache.stats.memory_hit_rate

    def test_c08_ring_relocation_bound(self):
        n = 4
        ring = HashRing(shards=n, virtual_nodes=128)
        keys = [b"key:%d" % i for i in range(100_000)]
        before = [ring.assign(k) for k in keys]
        ring.add_shard(n)
        after = [ring.assign(k) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        assert moved / len(keys) <= 1.5 / (n + 1)


class TestC09Predictor:
    def test_c09_bptt_gradients(self):
        rng = np.random.default_rng(5)
        cfg = LstmConfig(input_size=18, hidden_size=8, layers=2, dropout=0.0)
        params = init_params(cfg, seed=7)
        x = rng.normal(size=(3, 8, 18))
        y = rng.normal(size=3)
        _, grads = loss_and_gradients(x, y, params, cfg)
        assert _fd_worst(params, grads,
                         lambda p: loss_and_gradients(x, y, p, cfg)[0],
                         rng, eps=1e-5) < 1e-4

    def test_c09_tidal_burst_accuracy(self):
        # daily tidal cycle with a recurring open burst; held-out final day
        day, days = 600, 4
        tidal = tuple(
            (t, 1.0 + 0.8 * float(np.sin(2 * np.pi * t / day) ** 2))
            for t in range(day * days)
        )
        scenario = WorkloadScenario(
            base_rate=200.0, peak_rate=800.0, horizon=day * days, seed=21,
            tidal_profile=tidal,
            bursts=tuple(BurstSpec(d * day + 480, 30, 2.5) for d in range(days)),
        )
        history = TickHistory(
            tick_length=1.0, ticks_per_day=day, market_open_tick=0, market_close_tick=day
        )
        for t in range(scenario.horizon):
            history.append(volume=float(generate_tick_counts(scenario, t).sum()))
        scaling = FeatureScaling(
            volume_scale=float(np.max(history.volume)), session_minutes=10.0
        )
        X, y = build_dataset(history, seq_len=10, window=12, horizon=20, scaling=scaling, stride=2)
        cfg = LstmConfig(hidden_size=32, layers=2, dropout=0.15)
        started = time.time()
        result = train(X, y, cfg, TrainSpec(learning_rate=4e-3, epochs=40, batch_size=32, seed=4))
        assert time.time() - started <= 300.0  # <= 5 minutes of training
        split = int(len(X) * 0.8)
        preds, _ = forward(X[split:], result.params, cfg)
        acc = accuracy(
            preds * scaling.volume_scale, y[split:] * scaling.volume_scale, tolerance=0.10
        )
        assert acc >= 0.85, acc
        lo, hi = result.residual_quantiles
        residuals = y[split:] - preds
        coverage = float(np.mean((residuals >= lo) & (residuals <= hi)))
        assert coverage >= 0.80, coverage  # 90%-nominal band, loose desk bound


class TestC10DeterminismAndLatency:
    def test_c10_repeated_commands_byte_identical(self, tmp_path):
        scenario = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=80, seed=3)
        topology = uniform_topology(node_count=2, node_cpu=2000.0, services=scenario.service_mix)
        sc, topo = tmp_path / "s.json", tmp_path / "t.json"
        save_scenario(scenario, sc)
        save_topology(topology, topo)
        out = tmp_path / "run"
        snapshots = []
        for _ in range(2):  # identical config including the output path
            code = main([
                "simulate", "--scenario", str(sc), "--topology", str(topo),
                "--scheduler", "threshold-autoscaler", "--seed", "5",
                "--out", str(out), "--noise-std", "0.01",
            ])
            assert code == 0
            snapshots.append({
                name: (out / name).read_bytes()
                for name in ("summary.json", "trace.csv", "resolved_config.json")
            })
        assert snapshots[0] == snapshots[1]
        for out in ("g1.csv", "g2.csv"):
            assert main(["generate", "--scenario", str(sc), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()

    def test_c10_decision_latency_under_5ms(self):
        scenario = WorkloadScenario(base_rate=30.0, peak_rate=90.0, horizon=40, seed=2)
        topology = uniform_topology(node_count=4, services=scenario.service_mix)
        encoder = StateEncoder(service_count=8, node_count=4)
        policy = SchedulerPolicy.build(encoder, seed=0)
        env = DecisionEnv(scenario, topology, encoder, policy, decision_interval=10)
        config = TrainConfig(
            learning_rate=1e-3, total_episodes=2, episode_length=4,
            update_horizon=8, minibatch=8, epochs=1, seed=0,
        )
        params, _ = train_scheduler(env, policy.core, config)
        policy.params = params

        sim = ClusterSim(topology, seed=1)
        for t in range(20):
            sim.step_counts(sim.no_op_action(), generate_tick_counts(scenario, t))
        state = sim.observe_state()
        rng = np.random.default_rng(3)
        policy.act(state, "sample", rng)  # warm-up
        n = 300
        started = time.perf_counter()
        for _ in range(n):
            action, _, _ = policy.act(state, "sample", rng)
        per_call = (time.perf_counter() - started) / n
        assert isinstance(action, SchedulingAction)
        assert per_call <= 0.005, per_call
