"""Coverage for the remaining module surfaces: RL elite refinement, policy
checkpoints, train-drl, exit codes."""

from __future__ import annotations

import numpy as np
import pytest

from tradesim.cli import EXIT_DIVERGENCE, EXIT_OK, main
from tradesim.cluster import LatencyModel, save_topology, uniform_topology
from tradesim.drl.policy import SchedulerPolicy, StateEncoder, load_policy, save_policy
from tradesim.errors import ConfigError, DivergenceError
from tradesim.hybrid import (
    Chromosome,
    FitnessWeights,
    Population,
    RolloutEvaluator,
    propose_refinements,
    rl_refine,
    satisfies_invariants,
)
from tradesim.optim import adam_init
from tradesim.workload import ServiceSpec, WorkloadScenario, save_scenario


class TestRlRefine:
    def setup_refine(self, seed=0):
        from tradesim.drl.policy import PolicyCore, cluster_layout

        services = (
            ServiceSpec("orders", 0.6, 10.0, 1000),
            ServiceSpec("quotes", 0.4, 5.0, 500),
        )
        scenario = WorkloadScenario(
            base_rate=60.0, peak_rate=180.0, horizon=120, seed=5, service_mix=services
        )
        topology = uniform_topology(
            node_count=2, node_cpu=800.0, services=services, quota=0.2,
            latency=LatencyModel(jitter_enabled=False),
        )
        weights = FitnessWeights(T_max=300.0)
        evaluator = RolloutEvaluator(scenario, topology, weights, eval_ticks=20)
        encoder = StateEncoder(service_count=2, node_count=2)
        core = PolicyCore(encoder.dim, cluster_layout(2), hidden=(16,))
        params = core.init_params(seed)
        return evaluator, encoder, core, params

    def refine(self, evaluator, encoder, core, params, adam, elite: Population, rng):
        T, U, L, fits = evaluator.evaluate(elite).T
        proposals = propose_refinements(
            elite, evaluator.final_states(elite), core, params, encoder, rng, max_instances=3
        )
        return fits, rl_refine(elite, fits, U, proposals, core, params, adam, evaluator)

    @staticmethod
    def elite(count: int) -> Population:
        return Population.of([
            Chromosome(
                placement=np.array([[1, 0], [0, 1]]),
                quota=np.array([0.2, 0.2]),
                priority=np.array([0.5, 0.5]),
            )
            for _ in range(count)
        ])

    def test_replacement_guard_never_worsens_elite(self):
        evaluator, encoder, core, params = self.setup_refine()
        rng = np.random.default_rng(3)
        fits, (refined, refined_fits, _, stats) = self.refine(
            evaluator, encoder, core, params, adam_init(params), self.elite(3), rng
        )
        assert stats.attempted == 3
        for f_new, f_old in zip(refined_fits, fits):
            assert f_new <= f_old + 1e-12
        for c in refined.chromosomes():
            assert satisfies_invariants(c)

    def test_refinement_is_deterministic(self):
        out = []
        for _ in range(2):
            evaluator, encoder, core, params = self.setup_refine(seed=1)
            rng = np.random.default_rng(9)
            _, (refined, refined_fits, new_params, _) = self.refine(
                evaluator, encoder, core, params, adam_init(params), self.elite(1), rng
            )
            out.append((refined_fits.tolist(), refined.keys(), new_params))
        assert out[0][:2] == out[1][:2]
        assert all(np.array_equal(out[0][2][k], out[1][2][k]) for k in out[0][2])


class TestPolicyCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        encoder = StateEncoder(service_count=8, node_count=4)
        policy = SchedulerPolicy.build(encoder, seed=3)
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.encoder == policy.encoder
        assert loaded.core.hidden == policy.core.hidden
        assert all(np.array_equal(loaded.params[k], policy.params[k]) for k in policy.params)
        state_rng = np.random.default_rng(0)
        from test_drl import random_state

        state = random_state(state_rng)
        a1, lp1, _ = policy.act(state, "greedy")
        a2, lp2, _ = loaded.act(state, "greedy")
        assert lp1 == lp2
        assert np.array_equal(a1.instance_delta, a2.instance_delta)

    def test_missing_checkpoint_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_policy(tmp_path / "missing.npz")


class TestTrainDrlCommand:
    def test_train_and_simulate_with_drl_scheduler(self, tmp_path):
        scenario = WorkloadScenario(base_rate=30.0, peak_rate=90.0, horizon=60, seed=4)
        topology = uniform_topology(node_count=2, node_cpu=2000.0, services=scenario.service_mix)
        sc, topo = tmp_path / "s.json", tmp_path / "t.json"
        save_scenario(scenario, sc)
        save_topology(topology, topo)
        ckpt = tmp_path / "policy.npz"
        code = main([
            "train-drl", "--scenario", str(sc), "--topology", str(topo),
            "--out", str(ckpt), "--episodes", "3", "--decision-interval", "15",
        ])
        assert code == EXIT_OK
        assert ckpt.exists() and ckpt.with_suffix(".curve.csv").exists()
        code = main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--scheduler", "drl", "--scheduler-config", str(tmp_path / "drl.json"),
            "--out", str(tmp_path / "run"), "--seed", "2",
        ])
        assert code != EXIT_OK  # scheduler config file missing -> config error
        (tmp_path / "drl.json").write_text('{"checkpoint": "%s"}' % ckpt)
        code = main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--scheduler", "drl", "--scheduler-config", str(tmp_path / "drl.json"),
            "--out", str(tmp_path / "run"), "--seed", "2",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "run" / "summary.json").exists()


class TestExitCodes:
    def test_divergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        import tradesim.cli as cli

        scenario = WorkloadScenario(base_rate=30.0, peak_rate=90.0, horizon=80, seed=4)
        sc = tmp_path / "s.json"
        save_scenario(scenario, sc)

        def exploding_train(*args, **kwargs):
            raise DivergenceError("loss went non-finite")

        monkeypatch.setattr(cli, "train", exploding_train)
        code = main([
            "train-predictor", "--scenario", str(sc), "--out", str(tmp_path / "m.npz"),
            "--epochs", "1", "--hidden", "4", "--layers", "1",
            "--seq-len", "4", "--window", "6", "--horizon-ticks", "5",
        ])
        assert code == EXIT_DIVERGENCE
