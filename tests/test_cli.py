from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest

import tradesim.cli as cli_module
import tradesim.lstm as lstm_module
from test_acceptance import market_open_scenario
from tradesim.baselines import (
    RandomScheduler,
    RoundRobinScheduler,
    ThresholdAutoscaler,
    action_from_chromosome,
    make_scheduler,
    scheduler_options,
)
from tradesim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ExperimentConfig,
    build_parser,
    main,
    run_experiment,
)
from tradesim.cluster import ClusterSim, NoiseSpec, save_topology, uniform_topology
from tradesim.drl.policy import SchedulerPolicy, StateEncoder, save_policy
from tradesim.errors import ConfigError
from tradesim.hybrid import Chromosome, HybridConfig
from tradesim.lstm import (
    FORECAST_BLOCK,
    FeatureScaling,
    ForecastModel,
    LstmConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from tradesim.optim import load_params, save_params
from tradesim.report import save_summary
from tradesim.workload import (
    BurstSpec,
    ServiceSpec,
    WorkloadScenario,
    generate_tick_counts,
    load_scenario,
    save_scenario,
    volume_history,
)



@pytest.fixture
def small_files(tmp_path):
    scenario = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
    topology = uniform_topology(node_count=2, node_cpu=2000.0, services=scenario.service_mix)
    sc_path = tmp_path / "scenario.json"
    topo_path = tmp_path / "topology.json"
    save_scenario(scenario, sc_path)
    save_topology(topology, topo_path)
    return sc_path, topo_path, tmp_path


def assert_peak_rss_per_phase(timings: dict) -> None:
    """A training command's timings file holds, per phase, the process's peak
    RSS in KiB after it: positive and never falling."""
    assert list(timings) == ["phase_ns", "peak_rss_kib"]
    peaks = timings["peak_rss_kib"]
    assert list(peaks) == list(timings["phase_ns"])
    assert all(isinstance(v, int) and v > 0 for v in peaks.values())
    assert list(peaks.values()) == sorted(peaks.values())


def make_sim(scenario=None, **kw):
    scenario = scenario or WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
    topo = uniform_topology(node_count=2, node_cpu=2000.0, services=scenario.service_mix)
    return ClusterSim(topo, seed=1, noise=NoiseSpec(std=0.0), **kw)


class TestThresholdAutoscaler:
    def test_mid_utilization_is_noop(self):
        sim = make_sim()
        sched = ThresholdAutoscaler()
        action = sched.decide(sim, np.full(sim.k, 0.5), tick=0)
        assert np.all(action.instance_delta == 0)

    def test_high_utilization_scales_up_one(self):
        sim = make_sim()
        sched = ThresholdAutoscaler()
        rho = np.full(sim.k, 0.5)
        rho[2] = 0.9
        action = sched.decide(sim, rho, tick=0)
        assert action.instance_delta[2] == 1
        assert action.instance_delta.sum() == 1

    def test_cooldown_blocks_repeat(self):
        sim = make_sim()
        sched = ThresholdAutoscaler(cooldown_ticks=30)
        rho = np.full(sim.k, 0.9)
        first = sched.decide(sim, rho, tick=0)
        assert first.instance_delta.sum() == sim.k
        second = sched.decide(sim, rho, tick=10)
        assert second.instance_delta.sum() == 0  # within cooldown
        third = sched.decide(sim, rho, tick=31)
        assert third.instance_delta.sum() == sim.k

    def test_low_utilization_scales_down(self):
        sim = make_sim()
        sim.placement[0, :] = [2, 1]
        sched = ThresholdAutoscaler()
        rho = np.full(sim.k, 0.5)
        rho[0] = 0.1
        action = sched.decide(sim, rho, tick=0)
        assert action.instance_delta[0] == -1


class TestBaselineFactories:
    def test_round_robin_is_noop(self):
        sim = make_sim()
        action = RoundRobinScheduler().decide(sim, np.zeros(sim.k), 0)
        assert np.all(action.instance_delta == 0)
        assert action.migration.sum() == 0

    def test_random_scheduler_deterministic_per_seed(self):
        sim = make_sim()
        a = RandomScheduler(seed=5).decide(sim, np.zeros(sim.k), 0)
        b = RandomScheduler(seed=5).decide(sim, np.zeros(sim.k), 0)
        assert np.array_equal(a.instance_delta, b.instance_delta)
        assert np.array_equal(a.quota, b.quota)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_scheduler("mystery", seed=0, scenario=None, topology=None, options={})

    def test_action_from_chromosome_moves_toward_target(self):
        sim = make_sim()
        target = Chromosome(
            placement=sim.placement + np.eye(sim.k, sim.n, dtype=int)[: sim.k],
            quota=np.full(sim.k, 0.08),
            priority=np.full(sim.k, 0.6),
        )
        action = action_from_chromosome(sim, target)
        assert np.all(action.instance_delta >= 0)
        assert np.allclose(action.quota, 0.08)


class TestSimulateCommand:
    def test_round_robin_within_uncontended_bound(self, small_files):
        sc, topo, tmp = small_files
        config = ExperimentConfig(
            scenario=str(sc), topology=str(topo), scheduler="round-robin",
            out=str(tmp / "run"), seed=1,
        )
        summary, sim = run_experiment(config)
        # flat load far below capacity: p95 within 2x the uncontended 85 ms
        assert summary.p95_ms <= 2 * 85.0
        assert sim.conservation_ok()

    def test_byte_identical_reruns(self, small_files):
        sc, topo, tmp = small_files
        out_a, out_b = tmp / "a", tmp / "b"
        for out in (out_a, out_b):
            code = main([
                "simulate", "--scenario", str(sc), "--topology", str(topo),
                "--scheduler", "threshold-autoscaler", "--seed", "7",
                "--out", str(out),
            ])
            assert code == EXIT_OK
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_missing_scenario_exits_config(self, small_files):
        _, topo, tmp = small_files
        code = main([
            "simulate", "--scenario", str(tmp / "nope.json"), "--topology", str(topo),
            "--out", str(tmp / "x"),
        ])
        assert code == EXIT_CONFIG

    def test_resolved_config_echo_reproduces_run(self, small_files, capsys):
        sc, topo, tmp = small_files
        code = main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--seed", "3", "--out", str(tmp / "echo"),
        ])
        assert code == EXIT_OK
        echoed = capsys.readouterr().out.split("\n}")[0] + "\n}"
        resolved = json.loads(echoed)
        assert resolved["scenario"] == str(sc)
        saved = json.loads((tmp / "echo" / "resolved_config.json").read_text())
        assert saved == resolved

    def test_resolved_config_reproduces_run(self, small_files):
        sc, topo, tmp = small_files
        out = tmp / "orig"
        code = main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--scheduler", "threshold-autoscaler", "--seed", "9", "--out", str(out),
        ])
        assert code == EXIT_OK
        first = {n: (out / n).read_bytes() for n in ("summary.json", "trace.csv")}
        code = main(["simulate", "--config", str(out / "resolved_config.json")])
        assert code == EXIT_OK
        second = {n: (out / n).read_bytes() for n in ("summary.json", "trace.csv")}
        assert first == second

    def test_service_rho_only_on_decision_ticks(self, small_files, monkeypatch):
        sc, topo, tmp = small_files
        rho_ticks, decided = [], []
        rho = ClusterSim.service_rho
        decide = ThresholdAutoscaler.decide

        def spy_rho(sim):
            value = rho(sim)
            rho_ticks.append((sim.tick, value))
            return value

        def spy_decide(scheduler, sim, service_rho, tick):
            decided.append((tick, service_rho))
            return decide(scheduler, sim, service_rho, tick)

        monkeypatch.setattr(ClusterSim, "service_rho", spy_rho)
        monkeypatch.setattr(ThresholdAutoscaler, "decide", spy_decide)
        config = ExperimentConfig(
            scenario=str(sc), topology=str(topo), scheduler="threshold-autoscaler",
            out=str(tmp / "run"), seed=1, decision_interval=7,
        )
        run_experiment(config)
        assert [t for t, _ in rho_ticks] == list(range(0, 60, 7))
        assert [t for t, _ in decided] == list(range(0, 60, 7))
        assert all(a is b for (_, a), (_, b) in zip(rho_ticks, decided))

    def test_hybrid_scheduler_runs(self, small_files, tmp_path):
        sc, topo, tmp = small_files
        sched_cfg = tmp_path / "hybrid.json"
        sched_cfg.write_text(json.dumps({
            "population": 6, "elite": 1, "max_iter": 2, "eval_ticks": 10,
            "local_search_budget": 1,
        }))
        config = ExperimentConfig(
            scenario=str(sc), topology=str(topo), scheduler="hybrid",
            scheduler_config=str(sched_cfg), out=str(tmp / "hy"), seed=2,
            decision_interval=20,
        )
        summary, sim = run_experiment(config)
        assert sim.conservation_ok()
        assert summary.achieved_tps > 0


def subparser_dests(name: str) -> list[str]:
    """The dests of one command's flags, as its subparser declares them."""
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.dest for a in commands.choices[name]._actions if a.dest != "help"]


class TestFlagEcho:
    # every flag set off its default; the input files do not exist, so each
    # command echoes its flags and then exits 1 before it runs
    @pytest.mark.parametrize("argv", [
        ["generate", "--scenario", "nope.json", "--out", "t.csv"],
        ["train-predictor", "--scenario", "nope.json", "--dataset", "nope.csv", "--out", "m.npz",
         "--seed", "4", "--epochs", "3", "--hidden", "5", "--layers", "2", "--dropout", "0.1",
         "--seq-len", "6", "--window", "7", "--horizon-ticks", "8", "--learning-rate", "0.02"],
        ["train-drl", "--scenario", "nope.json", "--topology", "nope-topo.json", "--out", "p.npz",
         "--seed", "4", "--episodes", "3", "--decision-interval", "5", "--learning-rate", "0.02"],
        ["compare", "--baseline", "nope.json", "--candidate", "nope-too.json", "--out", "c.csv"],
    ], ids=lambda argv: argv[0])
    def test_echo_holds_every_flag_as_parsed(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_CONFIG
        echoed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        assert list(echoed) == subparser_dests(argv[0])
        args = build_parser().parse_args(argv)
        assert echoed == {dest: getattr(args, dest) for dest in echoed}


class TestSimulateConfigFile:
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda cfg: {**cfg, "schedulr": "hybrid"}, "'schedulr'"),
            (lambda cfg: {k: v for k, v in cfg.items() if k != "topology"}, "'topology'"),
            (lambda cfg: [cfg], "JSON object"),
            (lambda cfg: "simulate", "JSON object"),
            (lambda cfg: {**cfg, "cache_keys": 0}, "at least one key"),
            (lambda cfg: {**cfg, "strict_deterministic": True}, "'strict_deterministic'"),
            (lambda cfg: {**cfg, "predictor_interval": 0}, "predictor_interval"),
            (lambda cfg: {**cfg, "predictor_interval": -3}, "predictor_interval"),
            (lambda cfg: {**cfg, "cache_accesses_per_tick": -5}, "cache_accesses_per_tick"),
            (lambda cfg: {**cfg, "predictor_threshold": 0.0}, "predictor_threshold"),
            (lambda cfg: {**cfg, "predictor_threshold": -1.0}, "predictor_threshold"),
            (lambda cfg: {**cfg, "predictor_cooldown": -5}, "predictor_cooldown"),
            (lambda cfg: {**cfg, "noise_std": -0.5}, "noise_std"),
            (lambda cfg: {**cfg, "noise_std": float("nan")}, "noise_std"),
            (lambda cfg: {**cfg, "decision_interval": "10"}, "'decision_interval'"),
            (lambda cfg: {**cfg, "cache_keys": "100"}, "'cache_keys'"),
            (lambda cfg: {**cfg, "seed": 1.5}, "'seed'"),
            (lambda cfg: {**cfg, "seed": -1}, "seed must be >= 0"),
        ],
        ids=["unknown-key", "missing-key", "array", "string", "no-cache-keys", "retired-key",
             "zero-predictor-interval", "negative-predictor-interval",
             "negative-cache-accesses", "zero-predictor-threshold",
             "negative-predictor-threshold", "negative-predictor-cooldown",
             "negative-noise", "nan-noise",
             "string-decision-interval", "string-cache-keys", "float-seed", "negative-seed"],
    )
    def test_bad_config_exits_config(self, small_files, edit, named, capsys):
        sc, topo, tmp = small_files
        cfg = tmp / "config.json"
        resolved = {"scenario": str(sc), "topology": str(topo), "out": str(tmp / "x")}
        cfg.write_text(json.dumps(edit(resolved)))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("noise_std", ["-0.5", "nan"])
    def test_bad_noise_flag_exits_config(self, small_files, noise_std, capsys):
        sc, topo, tmp = small_files
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--noise-std", noise_std, "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert "noise_std" in capsys.readouterr().err

    def test_negative_seed_flag_exits_config(self, small_files, capsys):
        sc, topo, tmp = small_files
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--seed", "-1", "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("base_rate", float("nan")),
                                              ("peak_rate", float("nan")),
                                              ("peak_rate", float("inf"))])
    def test_non_finite_scenario_rate_exits_config(self, small_files, field, value, capsys):
        sc, topo, tmp = small_files
        scenario = json.loads(sc.read_text())
        sc.write_text(json.dumps({**scenario, field: value}))
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "simulate", "train-predictor"])
    @pytest.mark.parametrize("field, value", [("tick_length", float("nan")),
                                              ("tick_length", float("inf")),
                                              ("tidal_profile", [[0, float("nan")]])])
    def test_non_finite_tick_length_or_tidal_multiplier_exits_config(
        self, small_files, command, field, value, capsys
    ):
        sc, topo, tmp = small_files
        scenario = json.loads(sc.read_text())
        sc.write_text(json.dumps({**scenario, field: value}))
        argv = {
            "generate": ["--out", str(tmp / "trace.csv")],
            "simulate": ["--topology", str(topo), "--out", str(tmp / "x")],
            "train-predictor": ["--out", str(tmp / "m.npz"), *TestTrainPredictorCommand.ARGS],
        }[command]
        assert main([command, "--scenario", str(sc), *argv]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "train-drl"])
    def test_scenario_and_topology_tick_lengths_must_agree(self, small_files, command, capsys):
        sc, topo, tmp = small_files
        scenario = json.loads(sc.read_text())
        sc.write_text(json.dumps({**scenario, "tick_length": 0.5}))
        code = main([command, "--scenario", str(sc), "--topology", str(topo),
                     "--out", str(tmp / "x" / "policy.npz"), "--decision-interval", "20"])
        assert code == EXIT_CONFIG
        assert "tick_length" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("ewma_alpha", 0), ("ewma_alpha", -1), ("ewma_alpha", 2.0), ("ewma_alpha", float("nan")),
        ("tick_length", 0), ("tick_length", -1.0), ("tick_length", float("nan")),
        ("tick_length", float("inf")),
    ])
    def test_bad_ewma_alpha_or_tick_length_exits_config(self, small_files, field, value, capsys):
        sc, topo, tmp = small_files
        topology = json.loads(topo.read_text())
        topo.write_text(json.dumps({**topology, field: value}))
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_negative_history_window_exits_config(self, small_files, capsys):
        sc, topo, tmp = small_files
        topology = json.loads(topo.read_text())
        topo.write_text(json.dumps({**topology, "history_window": -1}))
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert "history_window" in capsys.readouterr().err

    def test_non_finite_priority_exits_config(self, small_files, capsys):
        sc, topo, tmp = small_files
        topology = json.loads(topo.read_text())
        priority = [float("nan")] + topology["initial_priority"][1:]
        topo.write_text(json.dumps({**topology, "initial_priority": priority}))
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert "initial_priority" in capsys.readouterr().err

    def test_invalid_json_exits_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"scenario": ')
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err


class TestSchedulerConfig:
    @pytest.mark.parametrize(
        "kind, options, named",
        [
            ("hybrid", {"population": "ten"}, "population"),
            ("hybrid", {"eval_tick": 60}, "eval_ticks"),
            ("hybrid", {"population": 10.5}, "population"),
            ("hybrid", {"eval_ticks": 0}, "eval_ticks"),
            ("threshold-autoscaler", {"scale_up": 0.9}, "scale_up_at"),
            ("threshold-autoscaler", {"scale_up_at": "high"}, "scale_up_at"),
            ("threshold-autoscaler", {"scale_down_at": None}, "scale_down_at"),
            ("random", {"delta_span": True}, "delta_span"),
            ("round-robin", {"populaton": 10}, "populaton"),
            ("drl", {"checkpoint": 5}, "checkpoint"),
            ("drl", {"ckpt": "policy.npz"}, "checkpoint"),
            ("hybrid", [10, 2], "JSON object"),
            ("hybrid", {"max_instances": -1}, "max_instances"),
            ("hybrid", {"max_instances": 0}, "max_instances"),
            ("hybrid", {"local_search_budget": -2}, "local_search_budget"),
            ("hybrid", {"convergence_window": 0}, "convergence_window"),
            ("hybrid", {"convergence_window": -1}, "convergence_window"),
            ("hybrid", {"n_min": 6}, "'n_min'"),
            ("hybrid", {"n_max": 12}, "'n_max'"),
        ],
    )
    def test_bad_option_exits_config(self, small_files, kind, options, named, capsys):
        sc, topo, tmp = small_files
        cfg = tmp / "sched.json"
        cfg.write_text(json.dumps(options))
        code = main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--scheduler", kind, "--scheduler-config", str(cfg), "--out", str(tmp / "x"),
        ])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("population", [4, 20])
    def test_any_population_above_the_elite_runs(self, small_files, population):
        sc, topo, tmp = small_files
        cfg = tmp / "sched.json"
        cfg.write_text(json.dumps({"population": population}))
        code = main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--scheduler", "hybrid", "--scheduler-config", str(cfg), "--out", str(tmp / "x"),
        ])
        assert code == 0

    @pytest.mark.parametrize("max_instances, code", [(20, EXIT_CONFIG), (13, EXIT_CONFIG), (12, EXIT_OK)])
    def test_max_instances_checked_before_the_first_tick(
        self, small_files, capsys, max_instances, code
    ):
        # 8 services on 2 nodes: 13 instances of each on one node commit 1.04
        # of it at the quota floor, 12 commit 0.96
        sc, topo, tmp = small_files
        cfg = tmp / "sched.json"
        cfg.write_text(json.dumps({"max_instances": max_instances}))
        out = tmp / "x"
        assert main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--scheduler", "hybrid", "--scheduler-config", str(cfg), "--out", str(out),
        ]) == code
        assert (out / "summary.json").exists() == (code == EXIT_OK)
        if code == EXIT_CONFIG:
            err = capsys.readouterr().err
            assert f"max_instances {max_instances}" in err
            assert "largest accepted value is 12" in err

    def test_invalid_json_exits_config(self, small_files):
        sc, topo, tmp = small_files
        cfg = tmp / "sched.json"
        cfg.write_text("{population: 10")
        code = main([
            "simulate", "--scenario", str(sc), "--topology", str(topo),
            "--scheduler", "hybrid", "--scheduler-config", str(cfg), "--out", str(tmp / "x"),
        ])
        assert code == EXIT_CONFIG

    def test_defaults_filled_and_values_parsed(self):
        opts = scheduler_options("hybrid", {"population": 12, "max_iter": 3})
        assert opts["population"] == 12 and opts["max_iter"] == 3
        assert opts["eval_ticks"] == 30  # default
        assert scheduler_options("threshold-autoscaler", {"scale_up_at": 0.9}) == {
            "scale_up_at": 0.9, "scale_down_at": 0.3, "cooldown_ticks": 30,
        }
        assert scheduler_options("round-robin", {}) == {}
        # values are JSON-typed, not parsed: strings and integral floats are refused
        for kind, options in [("hybrid", {"population": "12"}), ("hybrid", {"max_iter": 3.0}),
                              ("threshold-autoscaler", {"scale_up_at": "0.9"})]:
            with pytest.raises(ConfigError, match=next(iter(options))):
                scheduler_options(kind, options)

    def test_hybrid_defaults_are_hybrid_configs(self):
        names = (
            "population", "elite", "max_iter", "eval_ticks",
            "local_search_budget", "convergence_window", "max_instances",
        )
        defaults = HybridConfig()
        assert scheduler_options("hybrid", {}) == {name: getattr(defaults, name) for name in names}

    def test_options_of_other_kinds_ignored(self):
        # one options dict can configure every scheduler of a comparison
        assert scheduler_options("round-robin", {"population": 8, "elite": 2}) == {}
        assert scheduler_options("random", {"scale_up_at": 0.9}) == {"delta_span": 1}


class TestCheckpointArguments:
    """A checkpoint path naming a file that is not a checkpoint exits 1."""

    @pytest.fixture(params=["text", "no-meta", "unknown-nested-key"])
    def not_a_checkpoint(self, request, tmp_path):
        path = tmp_path / "bad.npz"
        if request.param == "text":
            path.write_text("epoch,loss\n0,1.0\n")
        elif request.param == "no-meta":
            with open(path, "wb") as fh:
                np.savez(fh, w=np.zeros(3))
        else:  # every key either kind requires, each model part naming no field
            meta = {"config": {"extra": 1}, "scaling": {}, "seq_len": 4, "feature_window": 6,
                    "horizon": 3, "residual_quantiles": [0.0, 0.0], "encoder": {"extra": 1},
                    "hidden": [4], "migration_choices": 2}
            save_params(path, {"w": np.zeros(3)}, meta)
        return path

    def test_predictor(self, small_files, not_a_checkpoint, capsys):
        sc, topo, tmp = small_files
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--predictor", str(not_a_checkpoint), "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert str(not_a_checkpoint) in capsys.readouterr().err

    def test_drl_scheduler_checkpoint(self, small_files, not_a_checkpoint, capsys):
        sc, topo, tmp = small_files
        cfg = tmp / "drl.json"
        cfg.write_text(json.dumps({"checkpoint": str(not_a_checkpoint)}))
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--scheduler", "drl", "--scheduler-config", str(cfg),
                     "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        assert str(not_a_checkpoint) in capsys.readouterr().err


class TestCheckpointNames:
    """A checkpoint is written under the name given, whatever its suffix, and
    loads from there; given where the other kind belongs, it exits 1."""

    def simulate(self, small_files, *args) -> int:
        sc, topo, tmp = small_files
        return main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--out", str(tmp / "sim"), *args])

    def drl_config(self, tmp, checkpoint):
        cfg = tmp / "drl.json"
        cfg.write_text(json.dumps({"checkpoint": str(checkpoint)}))
        return ["--scheduler", "drl", "--scheduler-config", str(cfg)]

    def test_predictor(self, small_files, capsys):
        tmp = small_files[2]
        data = tmp / "volume.csv"
        data.write_text("tick,volume\n" + "".join(f"{t},{(t * 7) % 23}\n" for t in range(40)))
        out = tmp / "model.ckpt"
        assert main(["train-predictor", "--dataset", str(data), "--out", str(out),
                     *TestTrainPredictorCommand.ARGS]) == EXIT_OK
        assert f"checkpoint written to {out} " in capsys.readouterr().out
        assert out.is_file() and not (tmp / "model.ckpt.npz").exists()
        assert self.simulate(small_files, "--predictor", str(out)) == EXIT_OK
        capsys.readouterr()
        assert self.simulate(small_files, *self.drl_config(tmp, out)) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err

    def test_policy(self, small_files, capsys):
        sc, topo, tmp = small_files
        out = tmp / "policy.ckpt"
        assert main(["train-drl", "--scenario", str(sc), "--topology", str(topo),
                     "--out", str(out), "--episodes", "2", "--decision-interval", "20"]) == EXIT_OK
        assert f"policy written to {out}\n" in capsys.readouterr().out
        assert out.is_file() and not (tmp / "policy.ckpt.npz").exists()
        assert self.simulate(small_files, *self.drl_config(tmp, out)) == EXIT_OK
        capsys.readouterr()
        assert self.simulate(small_files, "--predictor", str(out)) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err


class TestGenerateCommand:
    def test_row_count_matches_poisson_draws(self, small_files, tmp_path):
        sc, _, _ = small_files
        out = tmp_path / "trace.csv"
        assert main(["generate", "--scenario", str(sc), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")[1:]
        scenario_obj = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
        expected = sum(int(generate_tick_counts(scenario_obj, t).sum()) for t in range(60))
        assert len(lines) == expected

    def test_per_tick_rows_match_draws(self, small_files, tmp_path):
        sc, _, _ = small_files
        out = tmp_path / "trace.csv"
        main(["generate", "--scenario", str(sc), "--out", str(out)])
        scenario_obj = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
        per_tick: dict[int, int] = {}
        for line in out.read_text().strip().split("\n")[1:]:
            tick = int(line.split(",")[0])
            per_tick[tick] = per_tick.get(tick, 0) + 1
        for t in range(60):
            assert per_tick.get(t, 0) == int(generate_tick_counts(scenario_obj, t).sum())


@dataclass(frozen=True)
class Request:
    arrival_tick: int
    service_id: int
    work_units: float
    payload_bytes: int


def per_request_trace_csv(scenario: WorkloadScenario, path) -> None:
    """The `generate` writer as it was: a `Request` per request, one row each."""
    with open(path, "w") as fh:
        fh.write("tick,service_id,work_units,payload_bytes\n")
        for t in range(scenario.horizon):
            requests = []
            for sid, count in enumerate(generate_tick_counts(scenario, t)):
                spec = scenario.service_mix[sid]
                requests.extend(
                    Request(t, sid, spec.work_units, spec.payload_bytes) for _ in range(int(count))
                )
            for r in requests:
                fh.write(f"{r.arrival_tick},{r.service_id},{r.work_units!r},{r.payload_bytes}\n")


class TestGenerateBytes:
    @pytest.mark.parametrize("services", [
        None,  # the default mix
        (ServiceSpec("a", 0.5, 0.1 + 0.2, 64), ServiceSpec("b", 0.0, 7.0, 1), ServiceSpec("c", 2.0, 1e-3, 9)),
    ], ids=["default-mix", "odd-mix"])
    def test_csv_equals_the_per_request_writer(self, tmp_path, services):
        # bursts and a zero-weight service: ticks of many, one and no requests
        scenario = WorkloadScenario(
            base_rate=30.0, peak_rate=300.0, horizon=80, seed=5,
            bursts=(BurstSpec(20, 10, 4.0),),
            **({"service_mix": services} if services else {}),
        )
        sc = tmp_path / "scenario.json"
        save_scenario(scenario, sc)
        assert main(["generate", "--scenario", str(sc), "--out", str(tmp_path / "new.csv")]) == EXIT_OK
        per_request_trace_csv(load_scenario(sc), tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestPredictorHistory:
    def test_simulate_hands_the_predictor_the_training_columns(self, small_files, monkeypatch):
        # training's history holds the volume alone; the history simulate
        # forecasts from must hold the same volume
        sc, topo, tmp = small_files
        config = LstmConfig(hidden_size=3, layers=1, dropout=0.0)
        save_checkpoint(ForecastModel(
            params=init_params(config, seed=2), config=config, scaling=FeatureScaling(40.0, 9.0),
            seq_len=4, feature_window=6, horizon=3,
        ), tmp / "model.npz")
        handed = []
        predict_and_warn = ForecastModel.predict_and_warn

        def recording(model, history, ends, *args):
            handed.append(list(history.volume))
            return predict_and_warn(model, history, ends, *args)

        monkeypatch.setattr(ForecastModel, "predict_and_warn", recording)
        run_experiment(ExperimentConfig(
            scenario=str(sc), topology=str(topo), predictor=str(tmp / "model.npz"),
            out=str(tmp / "run"), seed=1,
        ))
        trained = []
        dataset = cli_module.build_dataset
        monkeypatch.setattr(
            cli_module, "build_dataset",
            lambda history, **kw: trained.append(history) or dataset(history, **kw),
        )
        assert main([
            "train-predictor", "--scenario", str(sc), "--out", str(tmp / "trained.npz"),
            "--epochs", "0", "--hidden", "3", "--layers", "1", "--seq-len", "4",
            "--window", "6", "--horizon-ticks", "3",
        ]) == EXIT_OK
        [trained] = trained
        assert handed
        for volume in handed:
            assert volume == trained.volume[: len(volume)]


class TestForecastsBeforeTheLoop:
    def test_forecasts_run_in_bounded_blocks(self, tmp_path, monkeypatch):
        # a forecast every tick of 700 is more than two blocks of ends
        scenario = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=700, seed=3)
        topology = uniform_topology(node_count=2, node_cpu=2000.0, services=scenario.service_mix)
        save_scenario(scenario, tmp_path / "scenario.json")
        save_topology(topology, tmp_path / "topology.json")
        config = LstmConfig(hidden_size=3, layers=1, dropout=0.0)
        model = ForecastModel(
            params=init_params(config, seed=2), config=config, scaling=FeatureScaling(40.0, 9.0),
            seq_len=4, feature_window=6, horizon=3,
        )
        save_checkpoint(model, tmp_path / "model.npz")
        batches = []
        forward = lstm_module.forward
        monkeypatch.setattr(
            lstm_module, "forward",
            lambda sequences, *args: batches.append(len(sequences)) or forward(sequences, *args),
        )
        run_experiment(ExperimentConfig(
            scenario=str(tmp_path / "scenario.json"), topology=str(tmp_path / "topology.json"),
            predictor=str(tmp_path / "model.npz"), out=str(tmp_path / "run"), predictor_interval=1,
        ))
        ends = scenario.horizon - model.min_history()
        assert len(batches) == -(-ends // FORECAST_BLOCK) > 2
        assert max(batches) == FORECAST_BLOCK and sum(batches) == ends

    def test_batched_flags_equal_one_by_one_forecasts_on_c04(self, tmp_path):
        # c04's checkpoint and runs; each forecast alone, on the history up to its tick
        train_scenario = market_open_scenario(1001, base_rate=60.0)
        save_scenario(train_scenario, tmp_path / "train.json")
        assert main([
            "train-predictor", "--scenario", str(tmp_path / "train.json"),
            "--out", str(tmp_path / "model.npz"), "--epochs", "40", "--hidden", "24",
            "--layers", "2", "--seq-len", "8", "--window", "10", "--horizon-ticks", "20",
            "--learning-rate", "0.005",
        ]) == EXIT_OK
        model = load_checkpoint(tmp_path / "model.npz")
        for seed in (7, 8):
            scenario = market_open_scenario(seed, base_rate=60.0)
            config = ExperimentConfig(
                scenario="run.json", topology="topo.json", predictor_threshold=1.5,
                predictor_cooldown=30,
            )
            batched = cli_module._burst_flags(model, scenario, config)
            history = model.configure_history(volume_history(scenario))
            one_by_one = [False] * scenario.horizon
            for t in range(model.min_history(), scenario.horizon):
                if t % config.predictor_interval == 0:
                    head = replace(history, volume=history.volume[:t])
                    [forecast] = model.predict_and_warn(head, [t], config.predictor_threshold)
                    one_by_one[t] = forecast.burst_flag
            assert any(one_by_one), seed
            assert batched == one_by_one, seed


class TestCompareCommand:
    def test_identical_summaries_zero_table(self, small_files, tmp_path):
        sc, topo, tmp = small_files
        config = ExperimentConfig(
            scenario=str(sc), topology=str(topo), out=str(tmp / "c"), seed=4
        )
        from tradesim.report import save_summary

        summary, _ = run_experiment(config)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_summary(summary, a)
        save_summary(summary, b)
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--baseline", str(a), "--candidate", str(b), "--out", str(out)])
        assert code == EXIT_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert all(row.endswith(",0.0") for row in rows)

    def test_mismatched_scenarios_exit_config(self, tmp_path):
        from tradesim.report import save_summary

        base = _summary(scenario_id="flat")
        cand = _summary(scenario_id="burst")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_summary(base, a)
        save_summary(cand, b)
        assert main(["compare", "--baseline", str(a), "--candidate", str(b)]) == EXIT_CONFIG

    def test_missing_file_exits_config(self, tmp_path):
        code = main([
            "compare", "--baseline", str(tmp_path / "x.json"),
            "--candidate", str(tmp_path / "y.json"),
        ])
        assert code != EXIT_OK

    @pytest.mark.parametrize(
        "text",
        [
            lambda: None,
            lambda: "epoch,loss\n0,1.0\n",
            lambda: '{"a": 1}',
            lambda: json.dumps(asdict(_summary()) | {"p50_ms": 130.0}),  # p50 above p95
        ],
        ids=["missing", "not-json", "not-a-summary", "unordered-percentiles"],
    )
    def test_bad_summary_file_exits_config_naming_it(self, tmp_path, capsys, text):
        from tradesim.report import save_summary

        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        save_summary(_summary(), good)
        content = text()
        if content is not None:
            bad.write_text(content)
        for baseline, candidate in ((bad, good), (good, bad)):
            capsys.readouterr()
            code = main(["compare", "--baseline", str(baseline), "--candidate", str(candidate)])
            assert code == EXIT_CONFIG
            assert "bad.json" in capsys.readouterr().err


class TestWronglyTypedInputs:
    """A value of the wrong JSON type or out of its range, or a key a nested
    object does not have, in any input file exits 1 naming its key, never 2
    and never a run on a value the model does not define."""

    def checkpoint(self, tmp, kind):
        path = tmp / f"{kind}.npz"
        if kind == "predictor":
            config = LstmConfig(hidden_size=3, layers=1, dropout=0.0)
            save_checkpoint(ForecastModel(
                params=init_params(config, seed=2), config=config, scaling=FeatureScaling(40.0, 9.0),
                seq_len=4, feature_window=6, horizon=3,
            ), path)
        else:
            encoder = StateEncoder(service_count=8, node_count=2)
            save_policy(SchedulerPolicy.build(encoder, seed=0, hidden=(4,)), path)
        return path

    @pytest.mark.parametrize("kind, keys, value, named", [
        ("scenario", ["horizon"], 40.5, "horizon"),
        ("scenario", ["horizon"], True, "horizon"),
        ("scenario", ["seed"], 1.5, "seed"),
        ("scenario", ["seed"], "1", "seed"),
        ("scenario", ["base_rate"], 10**400, "base_rate"),
        ("scenario", ["tidal_profile"], [[0, "x"]], "tidal_profile"),
        ("scenario", ["tidal_profile"], [[0.5, 1.0]], "tidal_profile"),
        ("scenario", ["bursts"], [{"start_tick": 1.5, "duration": 5, "magnitude": 2.0}],
         "start_tick"),
        ("scenario", ["service_mix", 0, "name"], 5, "name"),
        ("scenario", ["service_mix", 0, "payload_bytes"], 1.5, "payload_bytes"),
        ("topology", ["history_window"], 2.5, "history_window"),
        ("topology", ["initial_quota", 0], "a", "initial_quota"),
        ("topology", ["latency", "jitter_enabled"], "no", "jitter_enabled"),
        ("topology", ["initial_placement", 0, 0], 1.5, "initial_placement"),
        ("predictor", ["seq_len"], "4", "seq_len"),
        ("predictor", ["seq_len"], 4.5, "seq_len"),
        ("predictor", ["residual_quantiles"], "ab", "residual_quantiles"),
        ("policy", ["migration_choices"], 5.0, "migration_choices"),
        ("policy", ["hidden"], ["64", 64], "hidden"),
        ("policy", ["encoder", "clip"], "x", "clip"),
        # values the model does not define, and encoder keys that are gone
        ("predictor", ["seq_len"], 0, "seq_len"),
        ("predictor", ["ticks_per_day"], 0, "ticks_per_day"),
        ("predictor", ["horizon"], 0, "horizon"),
        ("predictor", ["horizon"], -5, "horizon"),
        ("policy", ["hidden"], [], "hidden"),
        ("policy", ["hidden"], [0], "hidden"),
        ("policy", ["hidden"], [4, -3], "hidden"),
        ("policy", ["migration_choices"], 0, "migration_choices"),
        ("policy", ["migration_choices"], -1, "migration_choices"),
        ("policy", ["encoder", "service_count"], 3, "service_count"),
        ("policy", ["encoder", "node_count"], 4, "node_count"),
        ("policy", ["encoder", "mode"], "weird", "mode"),
        ("policy", ["encoder", "clip"], -1.0, "clip"),
        ("summary", ["seed"], 1.5, "seed"),
        ("summary", ["p50_ms"], "1", "p50_ms"),
        ("summary", ["achieved_tps"], True, "achieved_tps"),
        # a session clock the time features were never trained on
        ("predictor", ["market_open_tick"], -5, "market_open_tick"),
        ("predictor", ["market_close_tick"], -5, "market_close_tick"),
    ])
    def test_exits_config_naming_the_key(self, small_files, capsys, kind, keys, value, named):
        sc, topo, tmp = small_files
        argv = ["simulate", "--scenario", str(sc), "--topology", str(topo), "--out", str(tmp / "x")]
        if kind in ("predictor", "policy"):
            path = self.checkpoint(tmp, kind)
            params, data = load_params(path)
        else:
            path = {"scenario": sc, "topology": topo, "summary": tmp / "summary.json"}[kind]
            if kind == "summary":
                save_summary(_summary(), path)
            data = json.loads(path.read_text())
        *outer, last = keys
        target = data
        for key in outer:
            target = target[key]
        target[last] = value
        if kind in ("predictor", "policy"):
            save_params(path, params, data)
        else:
            path.write_text(json.dumps(data))
        if kind == "predictor":
            argv += ["--predictor", str(path)]
        elif kind == "policy":
            (tmp / "drl.json").write_text(json.dumps({"checkpoint": str(path)}))
            argv += ["--scheduler", "drl", "--scheduler-config", str(tmp / "drl.json")]
        elif kind == "summary":
            argv = ["compare", "--baseline", str(path), "--candidate", str(path)]
        assert main(argv) == EXIT_CONFIG
        assert named in capsys.readouterr().err


class TestPredictorCheckpointLayout:
    """A predictor checkpoint whose arrays are not the ones its meta's config
    lays out, by name and shape, in one floating dtype, exits 1 naming the
    first array at fault."""

    @pytest.mark.parametrize("edit, named", [
        ("hidden_size+1", "W0"),
        ("layers+1", "W2"),
        ("input_size+1", "W0"),
        ("drop W1", "W1"),
        ("extra W9", "W9"),
        ("int64", "W0"),
        ("by float32", "by"),
    ])
    def test_exits_config_naming_the_array(self, small_files, capsys, edit, named):
        sc, topo, tmp = small_files
        config = LstmConfig(hidden_size=3, layers=2, dropout=0.0)
        path = tmp / "predictor.npz"
        save_checkpoint(ForecastModel(
            params=init_params(config, seed=2), config=config, scaling=FeatureScaling(40.0, 9.0),
            seq_len=4, feature_window=6, horizon=3,
        ), path)
        params, meta = load_params(path)
        if edit.endswith("+1"):
            meta["config"][edit[:-2]] += 1
        elif edit == "drop W1":
            del params["W1"]
        elif edit == "extra W9":
            params["W9"] = params["W1"]
        elif edit == "int64":
            params = {k: v.astype(np.int64) for k, v in params.items()}
        else:
            params["by"] = params["by"].astype(np.float32)
        save_params(path, params, meta)
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo),
                     "--predictor", str(path), "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and repr(named) in err


class TestPolicyCheckpointLayout:
    """A policy checkpoint whose arrays are not the ones its meta lays out, by
    name and shape, in one floating dtype, exits 1 naming the first array at
    fault."""

    @pytest.mark.parametrize("edit, named", [
        ("hidden [5]", "trunk0.W"),
        ("migration_choices+1", "migration.A.W"),
        ("int64", "trunk0.W"),
        ("extra extra.W", "extra.W"),
        ("drop trunk0.W", "trunk0.W"),
    ])
    def test_exits_config_naming_the_array(self, small_files, capsys, edit, named):
        sc, topo, tmp = small_files
        path = tmp / "policy.npz"
        save_policy(SchedulerPolicy.build(StateEncoder(service_count=8, node_count=2), hidden=(4,)), path)
        params, meta = load_params(path)
        if edit == "hidden [5]":
            meta["hidden"] = [5]
        elif edit == "migration_choices+1":
            meta["migration_choices"] += 1
        elif edit == "int64":
            params = {k: v.astype(np.int64) for k, v in params.items()}
        elif edit == "extra extra.W":
            params["extra.W"] = params["trunk0.W"]
        else:
            del params["trunk0.W"]
        save_params(path, params, meta)
        (tmp / "drl.json").write_text(json.dumps({"checkpoint": str(path)}))
        code = main(["simulate", "--scenario", str(sc), "--topology", str(topo), "--scheduler", "drl",
                     "--scheduler-config", str(tmp / "drl.json"), "--out", str(tmp / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and repr(named) in err


class TestTrainPredictorCommand:
    ARGS = ["--epochs", "1", "--hidden", "4", "--layers", "1",
            "--seq-len", "3", "--window", "4", "--horizon-ticks", "2"]

    @pytest.mark.parametrize(
        "bad_row, named",
        [("7,abc", "line 9"), ("7", "line 9"), ("7,", "line 9"), ("7,nan", "line 9")],
    )
    def test_bad_dataset_row_exits_config(self, tmp_path, bad_row, named, capsys):
        rows = [f"{t},{10 + t}" for t in range(7)] + [bad_row] + ["8,18"]
        data = tmp_path / "volume.csv"
        data.write_text("tick,volume\n" + "\n".join(rows) + "\n")
        code = main(["train-predictor", "--dataset", str(data),
                     "--out", str(tmp_path / "m.npz"), *self.ARGS])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("ticks", [0, 3])
    def test_too_short_dataset_exits_config(self, tmp_path, ticks):
        data = tmp_path / "volume.csv"
        data.write_text("tick,volume\n" + "".join(f"{t},{t + 1}\n" for t in range(ticks)))
        code = main(["train-predictor", "--dataset", str(data),
                     "--out", str(tmp_path / "m.npz"), *self.ARGS])
        assert code == EXIT_CONFIG

    def dataset(self, tmp_path):
        data = tmp_path / "volume.csv"
        data.write_text("tick,volume\n" + "".join(f"{t},{(t * 7) % 23}\n" for t in range(40)))
        return data

    @pytest.mark.parametrize("flag, value", [
        ("--horizon-ticks", "0"), ("--horizon-ticks", "-1"), ("--seq-len", "0"),
        ("--epochs", "-2"), ("--learning-rate", "nan"), ("--learning-rate", "-1"),
        ("--seed", "-1"),
    ])
    def test_bad_numeric_flag_exits_config(self, tmp_path, flag, value, capsys):
        out = tmp_path / "m.npz"
        code = main(["train-predictor", "--dataset", str(self.dataset(tmp_path)),
                     "--out", str(out), *self.ARGS, flag, value])
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_and_learning_rate_accepted(self, tmp_path):
        code = main(["train-predictor", "--dataset", str(self.dataset(tmp_path)),
                     "--out", str(tmp_path / "m.npz"), *self.ARGS,
                     "--epochs", "0", "--learning-rate", "0"])
        assert code == EXIT_OK

    def test_phase_timings_written_beside_deterministic_outputs(self, tmp_path):
        data = tmp_path / "volume.csv"
        data.write_text("tick,volume\n" + "".join(f"{t},{(t * 7) % 23}\n" for t in range(40)))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run / "model.npz"
            code = main(["train-predictor", "--dataset", str(data), "--out", str(out),
                         *self.ARGS])
            assert code == EXIT_OK
            timings = json.loads(out.with_suffix(".timings.json").read_text())
            assert list(timings["phase_ns"]) == ["history", "dataset", "train", "save"]
            assert all(isinstance(v, int) and v >= 0 for v in timings["phase_ns"].values())
            assert_peak_rss_per_phase(timings)
            with np.load(out) as arrays:
                weights = {k: arrays[k].tobytes() for k in arrays.files}
            outputs.append((weights, out.with_suffix(".curve.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestTrainDrlCommand:
    def train(self, small_files, run: str, *flags: str) -> tuple[int, object]:
        sc_path, topo_path, tmp_path = small_files
        out = tmp_path / run / "policy.npz"
        code = main(["train-drl", "--scenario", str(sc_path), "--topology", str(topo_path),
                     "--out", str(out), "--episodes", "2", "--decision-interval", "20", *flags])
        return code, out

    @pytest.mark.parametrize("flag, value", [
        ("--decision-interval", "0"), ("--decision-interval", "-3"), ("--episodes", "-1"),
        ("--learning-rate", "nan"), ("--learning-rate", "-1"), ("--seed", "-1"),
    ])
    def test_bad_numeric_flag_exits_config(self, small_files, flag, value, capsys):
        code, out = self.train(small_files, "bad", flag, value)
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_zero_episodes_and_learning_rate_accepted(self, small_files):
        code, _ = self.train(small_files, "zero", "--episodes", "0", "--learning-rate", "0")
        assert code == EXIT_OK

    def test_phase_timings_written_beside_deterministic_outputs(self, small_files):
        outputs = []
        for run in ("a", "b"):
            code, out = self.train(small_files, run)
            assert code == EXIT_OK
            timings = json.loads(out.with_suffix(".timings.json").read_text())
            assert list(timings["phase_ns"]) == ["setup", "train", "save"]
            assert all(isinstance(v, int) and v >= 0 for v in timings["phase_ns"].values())
            assert_peak_rss_per_phase(timings)
            with np.load(out) as arrays:
                weights = {k: arrays[k].tobytes() for k in arrays.files}
            outputs.append((weights, out.with_suffix(".curve.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_timings_do_not_alter_the_policy_files(self, small_files):
        code, out = self.train(small_files, "c")
        assert code == EXIT_OK
        written = sorted(p.name for p in out.parent.iterdir())
        assert written == ["policy.curve.csv", "policy.npz", "policy.timings.json"]


class TestPredictorIntegration:
    def test_trained_predictor_scales_before_burst(self, tmp_path):
        # ramped scenario with a burst at a fixed phase; the predictor sees the
        # ramp in training and warns before the burst hits the cluster
        scenario = WorkloadScenario(
            base_rate=30.0, peak_rate=150.0, horizon=240, seed=9,
            bursts=(BurstSpec(150, 40, 3.0),),
            tidal_profile=((0, 1.0), (100, 1.6), (145, 2.2)),
        )
        topology = uniform_topology(node_count=2, node_cpu=1200.0, services=scenario.service_mix)
        sc_path, topo_path = tmp_path / "s.json", tmp_path / "t.json"
        save_scenario(scenario, sc_path)
        save_topology(topology, topo_path)
        ckpt = tmp_path / "model.npz"
        code = main([
            "train-predictor", "--scenario", str(sc_path), "--out", str(ckpt),
            "--epochs", "8", "--hidden", "12", "--layers", "1",
            "--seq-len", "6", "--window", "8", "--horizon-ticks", "10",
        ])
        assert code == EXIT_OK
        config = ExperimentConfig(
            scenario=str(sc_path), topology=str(topo_path),
            scheduler="threshold-autoscaler", predictor=str(ckpt),
            out=str(tmp_path / "p"), seed=1, predictor_threshold=1.5,
        )
        summary, sim = run_experiment(config)
        assert summary.scheduler.endswith("+predictor")
        assert sim.conservation_ok()


def _summary(**overrides):
    from tradesim.report import RunSummary

    base = dict(
        scenario_id="flat", scheduler="round-robin", seed=1,
        mean_latency_ms=90.0, std_latency_ms=20.0, p50_ms=85.0, p95_ms=120.0,
        p99_ms=150.0, mean_cpu_util=0.5, mean_mem_util=0.4, mean_net_util=0.2,
        achieved_tps=5000.0, sanitized_actions=0, cache_hit_rate=0.8,
    )
    base.update(overrides)
    return RunSummary(**base)
