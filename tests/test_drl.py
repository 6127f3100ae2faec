from __future__ import annotations

import time

import numpy as np
import pytest

from tradesim.cluster import SystemState, uniform_topology
from tradesim.drl import (
    ActionLayout,
    CategoricalHead,
    DuelingHead,
    GaussianHead,
    PolicyCore,
    SchedulerPolicy,
    StateEncoder,
    TrainConfig,
    Trajectory,
    compute_returns_and_advantages,
    ppo_loss,
    train_scheduler,
    value_loss_and_gradients,
)
from tradesim.drl.env import ContextualBandit, DecisionEnv
from tradesim.drl.policy import (
    CLIP,
    LATENCY_REF,
    LOAD_REF,
    QUEUE_REF,
    THROUGHPUT_REF,
    _stack_records,
    dueling_combine,
)
from tradesim.workload import WorkloadScenario


def make_state(k=8, n=4, **overrides) -> SystemState:
    fields = dict(
        load=np.zeros(k),
        util=np.zeros((n, 3)),
        queue_len=np.zeros(k),
        hist_mean=np.zeros(k),
        hist_var=np.zeros(k),
        latency_ms=np.zeros(k),
        throughput=np.zeros(k),
    )
    fields.update(overrides)
    return SystemState(**fields)


def random_state(rng, k=8, n=4) -> SystemState:
    return make_state(
        k,
        n,
        load=rng.uniform(0, 2000, k),
        util=rng.uniform(0, 1, (n, 3)),
        queue_len=rng.uniform(0, 5000, k),
        hist_mean=rng.uniform(0, 2000, k),
        hist_var=rng.uniform(0, 1e6, k),
        latency_ms=rng.uniform(0, 1000, k),
        throughput=rng.uniform(0, 2000, k),
    )


def mixed_core(feature_dim=6, hidden=(16,)) -> PolicyCore:
    layout = ActionLayout(
        heads=(
            CategoricalHead("delta", rows=2, n=3),
            GaussianHead("prio", n=2),
            DuelingHead("mig", n=4),
        )
    )
    return PolicyCore(feature_dim, layout, hidden)


def sample_batch(core, params, rng, batch=6):
    feats = rng.normal(size=(batch, core.feature_dim))
    records = []
    logps = []
    for b in range(batch):
        record, logp = core.act(params, feats[b], "sample", rng)
        records.append(record)
        logps.append(logp)
    return feats, _stack_records(records), np.asarray(logps)


class TestEncodeState:
    def test_idle_state_is_origin(self):
        enc = StateEncoder()
        assert enc.encode(make_state()).tolist() == [0.0] * enc.dim

    def test_blocks_scaled_by_their_references_and_clipped(self):
        k, n = 8, 4
        state = make_state(
            load=np.full(k, LOAD_REF),
            util=np.full((n, 3), 0.5),
            queue_len=np.full(k, QUEUE_REF),
            hist_mean=np.full(k, LOAD_REF),
            hist_var=np.full(k, LOAD_REF**2),
            latency_ms=np.full(k, LATENCY_REF),
            throughput=np.full(k, THROUGHPUT_REF),
        )
        assert StateEncoder().encode(state).tolist() == [1.0] * k + [0.5] * 3 * n + [1.0] * 5 * k
        state.queue_len[:] = 100 * QUEUE_REF
        state.latency_ms[:] = -100 * LATENCY_REF
        vec = StateEncoder().encode(state)
        assert vec.max() == CLIP and vec.min() == -CLIP

    def test_full_mode_dimension_bookkeeping(self):
        enc = StateEncoder(service_count=8, node_count=4)
        state = make_state()
        k, n = len(state.load), len(state.util)
        # d_l + d_r + d_g + d_h + d_p: loads, the utilization matrix, queues,
        # history mean and variance, latency and throughput
        assert enc.dim == k + 3 * n + k + 2 * k + 2 * k
        assert enc.encode(state).shape == (enc.dim,)

    def test_normalized_components_bounded(self):
        enc = StateEncoder()
        rng = np.random.default_rng(0)
        for _ in range(100):
            vec = enc.encode(random_state(rng))
            assert np.all(vec >= -5.0) and np.all(vec <= 5.0)

    def test_dimension_mismatch_raises(self):
        enc = StateEncoder(service_count=5, node_count=4)
        with pytest.raises(ValueError):
            enc.encode(make_state(k=8, n=4))


class TestDueling:
    def test_direct_arithmetic(self):
        v = np.array([[1.5]])
        a = np.array([[0.5, -0.5]])  # already centered
        q = dueling_combine(v, a)
        assert q.tolist() == [[2.0, 1.0]]

    def test_uncentered_advantage_gets_centered(self):
        v = np.array([[1.0]])
        a = np.array([[3.0, 1.0]])  # mean 2 -> centered (1, -1)
        assert dueling_combine(v, a).tolist() == [[2.0, 0.0]]

    def test_q_differences_equal_advantage_differences(self):
        core = mixed_core()
        params = core.init_params(seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, core.feature_dim))
        q = core.dueling_q(params, x)
        v = core.head_distributions(params, x)["mig"]["v"]
        centered = q - v[:, None]
        for i in range(q.shape[1]):
            for j in range(q.shape[1]):
                assert np.allclose(q[:, i] - q[:, j], centered[:, i] - centered[:, j], atol=1e-12)

    def test_v_shift_does_not_move_argmax(self):
        core = mixed_core()
        params = core.init_params(seed=5)
        x = np.random.default_rng(2).normal(size=(3, core.feature_dim))
        q1 = core.dueling_q(params, x)
        params["mig.V.b"] = params["mig.V.b"] + 7.5
        q2 = core.dueling_q(params, x)
        assert np.array_equal(np.argmax(q1, axis=1), np.argmax(q2, axis=1))
        assert np.allclose(q2 - q1, 7.5, atol=1e-12)


class TestPpoLoss:
    def test_ratio_one_gives_mean_advantage(self):
        core = mixed_core()
        params = core.init_params(seed=0)
        rng = np.random.default_rng(4)
        feats, records, logps = sample_batch(core, params, rng)
        adv = rng.normal(size=len(logps))
        loss, _, stats = ppo_loss(core, params, feats, records, logps, adv, clip_eps=0.2)
        assert -loss == pytest.approx(float(adv.mean()), abs=1e-9)

    def test_single_transition_clip_arithmetic(self):
        # ratio 1.5, eps 0.2, advantage 1 -> objective min(1.5, 1.2) = 1.2
        core = mixed_core()
        params = core.init_params(seed=0)
        rng = np.random.default_rng(7)
        feats, records, logps = sample_batch(core, params, rng, batch=1)
        shifted = logps - np.log(1.5)  # pretend old policy was less likely
        loss, _, _ = ppo_loss(core, params, feats, records, shifted, np.ones(1), clip_eps=0.2)
        assert -loss == pytest.approx(1.2, abs=1e-9)

    def test_clipped_objective_never_exceeds_unclipped(self):
        core = mixed_core()
        old_params = core.init_params(seed=1)
        rng = np.random.default_rng(8)
        for trial in range(10):
            feats, records, logps = sample_batch(core, old_params, rng, batch=16)
            params = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in old_params.items()}
            adv = rng.normal(size=16)
            loss, _, _ = ppo_loss(core, params, feats, records, logps, adv, clip_eps=0.2)
            new_logp, _ = core.log_prob(params, feats, records)
            unclipped = float(np.mean(np.exp(new_logp - logps) * adv))
            assert -loss <= unclipped + 1e-12

    def test_gradients_match_finite_differences(self):
        core = mixed_core(feature_dim=5, hidden=(8,))
        old_params = core.init_params(seed=2)
        rng = np.random.default_rng(9)
        feats, records, logps = sample_batch(core, old_params, rng, batch=8)
        params = {k: v + 0.01 * rng.normal(size=v.shape) for k, v in old_params.items()}
        adv = rng.normal(size=8)
        _, grads, _ = ppo_loss(core, params, feats, records, logps, adv, clip_eps=0.2)

        def loss_at(p):
            val, _, _ = ppo_loss(core, p, feats, records, logps, adv, clip_eps=0.2)
            return val

        worst = _finite_diff_worst(params, grads, loss_at, rng, probes=8)
        assert worst < 1e-4

    def test_value_gradients_match_finite_differences(self):
        core = mixed_core(feature_dim=5, hidden=(8,))
        params = core.init_params(seed=6)
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(6, 5))
        rets = rng.normal(size=6)
        _, grads = value_loss_and_gradients(core, params, feats, rets)

        def loss_at(p):
            val, _ = value_loss_and_gradients(core, p, feats, rets)
            return val

        worst = _finite_diff_worst(params, grads, loss_at, rng, probes=8)
        assert worst < 1e-4


def _finite_diff_worst(params, grads, loss_at, rng, probes=8, eps=1e-6):
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
            denom = max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


class TestReturnsAndAdvantages:
    def make_traj(self, rewards, dones=None, values=None):
        traj = Trajectory()
        T = len(rewards)
        dones = dones or [False] * (T - 1) + [True]
        values = values if values is not None else [0.0] * T
        for t in range(T):
            traj.append(np.zeros(2), {"arm": np.array([0])}, 0.0, rewards[t], values[t], dones[t])
        return traj

    def test_geometric_sum_example(self):
        traj = self.make_traj([-1.0, -1.0, -1.0])
        compute_returns_and_advantages(traj, gamma=0.9, normalize=False)
        assert traj.returns[0] == pytest.approx(-2.71)

    def test_gamma_zero_returns_rewards(self):
        rewards = [0.3, -0.7, 0.1]
        traj = self.make_traj(rewards)
        compute_returns_and_advantages(traj, gamma=1e-12, normalize=False)
        assert np.allclose(traj.returns, rewards)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            T = int(rng.integers(2, 40))
            rewards = rng.normal(size=T).tolist()
            gamma = float(rng.uniform(0.1, 0.99))
            traj = self.make_traj(rewards)
            compute_returns_and_advantages(traj, gamma, normalize=False)
            brute = [
                sum(gamma**i * rewards[t + i] for i in range(T - t)) for t in range(T)
            ]
            assert np.allclose(traj.returns, brute)

    def test_advantages_normalized(self):
        rng = np.random.default_rng(12)
        traj = self.make_traj(rng.normal(size=50).tolist(), values=rng.normal(size=50).tolist())
        compute_returns_and_advantages(traj, 0.95)
        assert traj.advantages.mean() == pytest.approx(0.0, abs=1e-9)
        assert traj.advantages.std() == pytest.approx(1.0, abs=1e-6)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            compute_returns_and_advantages(Trajectory(), 0.9)


class TestActing:
    def test_greedy_is_deterministic(self):
        core = mixed_core()
        params = core.init_params(seed=1)
        x = np.random.default_rng(3).normal(size=core.feature_dim)
        r1, lp1 = core.act(params, x, "greedy")
        r2, lp2 = core.act(params, x, "greedy")
        assert lp1 == lp2
        assert all(np.array_equal(r1[k], r2[k]) for k in r1)

    def test_discrete_logp_nonpositive(self):
        layout = ActionLayout(heads=(CategoricalHead("arm", rows=1, n=4),))
        core = PolicyCore(3, layout, hidden=(8,))
        params = core.init_params(seed=2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            _, logp = core.act(params, rng.normal(size=3), "sample", rng)
            assert np.isfinite(logp) and logp <= 0.0

    def test_probabilities_sum_to_one_and_std_positive(self):
        core = mixed_core()
        params = core.init_params(seed=4)
        x = np.random.default_rng(6).normal(size=(10, core.feature_dim))
        dists = core.head_distributions(params, x)
        assert np.allclose(dists["delta"]["probs"].sum(axis=-1), 1.0, atol=1e-6)
        assert np.allclose(dists["mig"]["probs"].sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(dists["prio"]["std"] > 0.0)

    def test_sampling_frequencies_match_probabilities(self):
        layout = ActionLayout(heads=(CategoricalHead("arm", rows=1, n=3),))
        core = PolicyCore(2, layout, hidden=(8,))
        params = core.init_params(seed=7)
        x = np.array([0.3, -0.8])
        probs = core.head_distributions(params, x[None])["arm"]["probs"][0, 0]
        rng = np.random.default_rng(13)
        draws = np.zeros(3)
        n = 100_000
        for _ in range(n):
            record, _ = core.act(params, x, "sample", rng)
            draws[int(record["arm"][0])] += 1
        assert np.all(np.abs(draws / n - probs) < 0.02)


class TestSchedulerPolicy:
    def make_policy(self, seed=0):
        encoder = StateEncoder(service_count=8, node_count=4)
        return SchedulerPolicy.build(encoder, seed=seed)

    def test_act_produces_valid_action(self):
        policy = self.make_policy()
        rng = np.random.default_rng(1)
        state = random_state(np.random.default_rng(2))
        action, logp, record = policy.act(state, "sample", rng)
        assert action.instance_delta.shape == (8,)
        assert set(np.unique(action.instance_delta)).issubset({-1, 0, 1})
        assert np.all((action.priority > 0) & (action.priority < 1))
        assert np.all((action.quota > 0) & (action.quota < 1))
        assert action.migration.sum() <= 1
        assert np.isfinite(logp)

    def test_migration_choice_zero_is_no_migration(self):
        policy = self.make_policy()
        state = make_state()
        record = {
            "delta": np.ones(8, dtype=int),
            "priority": np.zeros(8),
            "quota": np.zeros(8),
            "migration": np.array([0]),
        }
        action = policy.to_scheduling_action(record, state)
        assert action.migration.sum() == 0

    def test_migration_targets_least_loaded_node(self):
        policy = self.make_policy()
        state = make_state()
        state.util[:, 0] = [0.9, 0.2, 0.5, 0.7]
        state.queue_len[:] = np.arange(8)
        record = {
            "delta": np.ones(8, dtype=int),
            "priority": np.zeros(8),
            "quota": np.zeros(8),
            "migration": np.array([1]),
        }
        action = policy.to_scheduling_action(record, state)
        service, dest = np.argwhere(action.migration == 1)[0]
        assert dest == 1  # least loaded node
        assert service == 7  # busiest service by queue

    def test_act_latency_under_5ms(self):
        policy = self.make_policy()
        state = random_state(np.random.default_rng(3))
        rng = np.random.default_rng(4)
        policy.act(state, "sample", rng)  # warm up
        t0 = time.perf_counter()
        n = 200
        for _ in range(n):
            policy.act(state, "sample", rng)
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 0.005


class TestTraining:
    def test_zero_learning_rate_keeps_params(self):
        bandit = ContextualBandit(seed=3)
        layout = ActionLayout(heads=(CategoricalHead("arm", rows=1, n=2),))
        core = PolicyCore(2, layout, hidden=(8,))
        cfg = TrainConfig(learning_rate=0.0, total_episodes=5, episode_length=8, seed=1)
        init = core.init_params(cfg.seed)
        params, _ = train_scheduler(bandit, core, cfg)
        assert all(np.array_equal(params[k], init[k]) for k in init)

    def test_fixed_seed_identical_curves(self):
        layout = ActionLayout(heads=(CategoricalHead("arm", rows=1, n=2),))
        core = PolicyCore(2, layout, hidden=(8,))
        cfg = TrainConfig(
            learning_rate=0.01, total_episodes=12, episode_length=8,
            update_horizon=32, minibatch=16, seed=5,
        )
        _, curve_a = train_scheduler(ContextualBandit(seed=3), core, cfg)
        _, curve_b = train_scheduler(ContextualBandit(seed=3), core, cfg)
        assert curve_a == curve_b

    def test_bandit_reaches_optimal_policy(self):
        layout = ActionLayout(heads=(CategoricalHead("arm", rows=1, n=2),))
        core = PolicyCore(2, layout, hidden=(16,))
        cfg = TrainConfig(
            learning_rate=0.02, total_episodes=300, episode_length=8,
            update_horizon=64, minibatch=32, epochs=4, gamma=0.9, seed=2,
        )
        bandit = ContextualBandit(seed=11)
        params, _ = train_scheduler(bandit, core, cfg)
        assert bandit.optimal_rate(core, params) >= 0.95

    def test_cluster_env_round_trip(self):
        scenario = WorkloadScenario(base_rate=50.0, peak_rate=150.0, horizon=40, seed=3)
        topology = uniform_topology(node_count=4, services=scenario.service_mix)
        encoder = StateEncoder(service_count=8, node_count=4)
        mapper = SchedulerPolicy.build(encoder, seed=0)
        env = DecisionEnv(scenario, topology, encoder, mapper, decision_interval=10)
        core = mapper.core
        cfg = TrainConfig(learning_rate=1e-3, total_episodes=2, episode_length=4,
                          update_horizon=8, minibatch=8, epochs=1, seed=0)
        params, curve = train_scheduler(env, core, cfg)
        assert len(curve) == 2
        assert all(np.isfinite(row["mean_reward"]) for row in curve)
        assert all(row["mean_reward"] <= 0.0 for row in curve)  # penalty-shaped rewards
