"""Code that now exists once, against the copies it replaced.

The GA's feasible placement step (shared by `mutate` and `local_search`) and
the checkpoint writer/reader (shared by the LSTM predictor and the PPO policy)
each replaced two copies, and the batched hill-climb replaced a step-by-step
climb. The earlier copies live here, test-only, and the code that runs must
give equal results, compared by bytes: chromosomes and final random-generator
states, checkpoint arrays and `__meta__` bytes.

The GA rolls out each generation's candidates in one batch. A test-only
step-by-step reference of the same algorithm, which rolls out each candidate
where it is first needed, must give byte-equal whole GA runs.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tradesim.baselines import scheduler_options
from tradesim.cluster import uniform_topology
from tradesim.drl.policy import (
    PolicyCore,
    SchedulerPolicy,
    StateEncoder,
    cluster_layout,
    load_policy,
    save_policy,
)
from tradesim.errors import ConfigError
from tradesim.hybrid import (
    CONVERGENCE_EPS,
    INFEASIBLE,
    LOOKAHEAD,
    REFINE_LR,
    TOURNAMENT,
    Chromosome,
    FitnessWeights,
    GenerationTrace,
    HybridConfig,
    HybridResult,
    RefineStats,
    RolloutEvaluator,
    _draw_moves,
    _neighbor,
    _tournament_index,
    adaptive_rates,
    apply_record_to_chromosome,
    crossover,
    fitness_from_metrics,
    hybrid_scheduling,
    local_search,
    mutate,
    non_dominated_sort,
    random_chromosome,
    refine_reward,
    repair,
    satisfies_invariants,
    select_top_k,
)
from tradesim.lstm import (
    ForecastModel,
    LstmConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from tradesim.optim import AdamSpec, adam_init, adam_step, load_params, save_params
from tradesim.workload import BurstSpec, FeatureScaling, RampSpec, WorkloadScenario

# --- the GA placement step --------------------------------------------------------


def old_mutate(x, p_m, rng, sigma=0.05, max_instances=None):
    out = x.copy()
    flat = out.placement.reshape(-1)
    hit = rng.random(flat.size) < p_m
    if hit.any():
        signs = np.where(rng.random(flat.size) < 0.5, -1, 1)
        k, n = out.placement.shape
        for idx in np.flatnonzero(hit):
            row = idx // n
            step = signs[idx]
            if step < 0 and (flat[idx] == 0 or out.placement[row].sum() <= 1):
                step = 1
            if step > 0 and max_instances is not None and flat[idx] >= max_instances:
                if flat[idx] > 0 and out.placement[row].sum() > 1:
                    step = -1
                else:
                    continue
            flat[idx] += step
    for attr in ("quota", "priority"):
        arr = getattr(out, attr)
        hit = rng.random(arr.size) < p_m
        arr[hit] += sigma * rng.standard_normal(int(hit.sum()))
    return repair(out)


def old_local_search(x, fitness_fn, budget, rng, sigma=0.05, fitness_x=None, max_instances=None):
    if budget < 1:
        raise ValueError("budget must be >= 1")
    best = x.copy()
    best_f = fitness_fn(best) if fitness_x is None else fitness_x
    genes = best.genes()
    for step in range(budget):
        cand = best.copy()
        idx = int(rng.integers(genes))
        if idx < cand.placement.size:
            flat = cand.placement.reshape(-1)
            row = idx // cand.placement.shape[1]
            step_dir = -1 if rng.random() < 0.5 else 1
            if step_dir < 0 and (flat[idx] == 0 or cand.placement[row].sum() <= 1):
                step_dir = 1
            if step_dir > 0 and max_instances is not None and flat[idx] >= max_instances:
                if flat[idx] > 0 and cand.placement[row].sum() > 1:
                    step_dir = -1
                else:
                    continue
            flat[idx] += step_dir
        elif idx < cand.placement.size + cand.quota.size:
            cand.quota[idx - cand.placement.size] += sigma * rng.standard_normal()
        else:
            cand.priority[idx - cand.placement.size - cand.quota.size] += (
                sigma * rng.standard_normal()
            )
        repair(cand)
        f = fitness_fn(cand)
        if f < best_f:
            best, best_f = cand, f
    return best, best_f


def chromosome_bytes(c: Chromosome) -> list:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (c.placement, c.quota, c.priority)]


@st.composite
def placements(draw):
    """(k, n) instance counts, 0-3 per cell and at least one per service; rows
    of a single instance are common."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 3), min_size=k * n, max_size=k * n))
    placement = np.array(cells, dtype=int).reshape(k, n)
    for s in np.flatnonzero(placement.sum(axis=1) == 0):
        placement[s, draw(st.integers(0, n - 1))] = 1
    return placement


def make_chromosome(placement, seed) -> Chromosome:
    rng = np.random.default_rng(seed)
    k = placement.shape[0]
    return Chromosome(placement.copy(), rng.uniform(0.01, 0.05, k), rng.uniform(0.0, 1.0, k))


# zeros, cells at and above the cap, single-instance rows
EDGE_PLACEMENT = np.array([[0, 2, 1], [1, 0, 0], [0, 0, 3]])


class TestPlacementStep:
    @given(
        placement=placements(),
        max_instances=st.sampled_from([None, 1, 2, 3]),
        p_m=st.sampled_from([0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @example(placement=EDGE_PLACEMENT, max_instances=2, p_m=1.0, seed=0)
    @example(placement=EDGE_PLACEMENT, max_instances=None, p_m=1.0, seed=1)
    @example(placement=np.array([[1]]), max_instances=1, p_m=1.0, seed=2)
    def test_mutate_matches_earlier_copy(self, placement, max_instances, p_m, seed):
        x = make_chromosome(placement, seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mutate(x, p_m, rng, sigma=0.1, max_instances=max_instances)
        want = old_mutate(x, p_m, ref_rng, sigma=0.1, max_instances=max_instances)
        assert chromosome_bytes(got) == chromosome_bytes(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        placement=placements(),
        max_instances=st.sampled_from([None, 1, 2, 3]),
        budget=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    @example(placement=EDGE_PLACEMENT, max_instances=2, budget=20, seed=0)
    @example(placement=EDGE_PLACEMENT, max_instances=None, budget=20, seed=1)
    @example(placement=np.array([[1]]), max_instances=1, budget=8, seed=2)
    def test_local_search_matches_earlier_copy(self, placement, max_instances, budget, seed):
        x = make_chromosome(placement, seed)
        weights = np.random.default_rng(seed + 1).normal(size=placement.shape)
        seen: dict[str, list] = {"got": [], "want": []}
        batch_calls = 0

        def fitness(log):
            def fn(c):
                seen[log].append(chromosome_bytes(c))
                return float((c.placement * weights).sum() + c.quota.sum() - c.priority.sum())

            return fn

        def fitness_batch(chromos):
            nonlocal batch_calls
            batch_calls += 1
            return [fitness("got")(c) for c in chromos]

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, got_f = local_search(
            x, fitness_batch, _draw_moves(x, budget, rng, 0.1), max_instances=max_instances
        )
        want, want_f = old_local_search(
            x, fitness("want"), budget, ref_rng, sigma=0.1, max_instances=max_instances
        )
        assert chromosome_bytes(got) == chromosome_bytes(want)
        assert got_f == want_f
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # the batches hold every chromosome the step-by-step climb evaluated, in
        # its order, among the candidates of the paths it did not take
        batched = iter(seen["got"])
        assert all(any(b == w for b in batched) for w in seen["want"])
        assert batch_calls <= -(-budget // LOOKAHEAD)


# --- the GA against a step-by-step reference ------------------------------------------


def market_open(seed: int) -> WorkloadScenario:
    return WorkloadScenario(
        base_rate=55.0, peak_rate=55.0 * 9, horizon=100, seed=seed,
        ramp=RampSpec(10, 40, 1000, 3000), bursts=(BurstSpec(60, 30, 3.0),),
    )


def topology_of(kind: str, scenario: WorkloadScenario):
    if kind == "default":
        return uniform_topology(services=scenario.service_mix)
    # the c03/c04 topology
    return uniform_topology(node_count=2, node_cpu=2000.0, services=scenario.service_mix, quota=0.08)


def current_of(topology) -> Chromosome:
    return Chromosome(
        np.array(topology.initial_placement), np.array(topology.initial_quota),
        np.array(topology.initial_priority),
    )


def run_ga(scenario, topology, config):
    return hybrid_scheduling(
        scenario, topology, config, initial_population=[current_of(topology)], start_tick=40
    )


def step_by_step_ga(
    scenario, topology, config, start=None, params=None, adam_state=None, start_tick=40
) -> HybridResult:
    """`hybrid_scheduling` from the topology's configuration (or the chromosomes `start`,
    a policy's `params` and its `adam_state`), one step at a time: the same
    draws in the same order, but each candidate rolls out where it is first
    needed. The population rolls out at the start of its generation, each
    refinement candidate alone when its transition is scored, and each
    local-search neighbor alone when the climb compares it."""
    weights = FitnessWeights()
    k, n = topology.service_count, topology.node_count
    rng = np.random.default_rng([config.seed, 0xA11CE])
    evaluator = RolloutEvaluator(scenario, topology, weights, config.eval_ticks, start_tick)

    def fitness(m) -> float:
        return fitness_from_metrics(m.T, m.U, m.L, weights)

    encoder = StateEncoder(mode="full", service_count=k, node_count=n)
    core = PolicyCore(encoder.dim, cluster_layout(k), hidden=(32, 32))
    if params is None:
        params = core.init_params(config.seed)
    if adam_state is None:
        adam_state = adam_init(params)

    population = [repair(c.copy()) for c in (start or [current_of(topology)])]
    while len(population) < config.population:
        cand = random_chromosome(rng, k, n, config.max_instances)
        if satisfies_invariants(cand):
            population.append(cand)

    best, best_fitness = None, INFEASIBLE
    trace, totals, history = [], RefineStats(), []
    converged = False
    for generation in range(config.max_iter):
        metrics = evaluator.metrics_batch(population)
        fits = np.array([fitness(m) for m in metrics])
        gen_best = int(np.argmin(fits))
        if fits[gen_best] < best_fitness:
            best, best_fitness = population[gen_best].copy(), float(fits[gen_best])
        history.append(best_fitness)
        finite = fits[np.isfinite(fits)]
        q_avg = float((-finite).mean()) if finite.size else 0.0
        q_max = max(float((-finite).max()) if finite.size else 0.0, q_avg)
        elite_idx = select_top_k(fits, config.elite)
        elite = [population[i] for i in elite_idx]
        elite_fits = [float(fits[i]) for i in elite_idx]
        elite_metrics = [metrics[i] for i in elite_idx]
        pool_idx: list[int] = []
        for front in non_dominated_sort(np.array([[m.T, -m.U, -m.L] for m in metrics])):
            pool_idx.extend(front)
            if len(pool_idx) >= max(len(population) // 2, 2 * config.elite):
                break
        pool, pool_fits = [population[i] for i in pool_idx], fits[pool_idx]

        # the draws: every elite's action from the same params, the moves, the offspring
        actions = []
        if config.rl_refinement:
            for chromo, m in zip(elite, elite_metrics):
                features = encoder.encode(m.final_state)
                record, _ = core.act(params, features, "sample", rng)
                actions.append((features, record, *apply_record_to_chromosome(record, chromo)))
        moves = _draw_moves(elite[0], config.local_search_budget, rng, config.mutation_sigma)
        offspring, pc_values, pm_values = [], [], []
        while len(offspring) < config.population - config.elite:
            ia = _tournament_index(pool_fits, TOURNAMENT, rng)
            ib = _tournament_index(pool_fits, TOURNAMENT, rng)
            p_c, p_m = adaptive_rates(float(-min(pool_fits[ia], pool_fits[ib])), q_avg, q_max)
            pc_values.append(p_c)
            pm_values.append(p_m)
            c1, c2 = crossover(pool[ia], pool[ib], p_c, rng)
            for child in (c1, c2):
                if len(offspring) < config.population - config.elite:
                    offspring.append(
                        mutate(child, p_m, rng, config.mutation_sigma, config.max_instances)
                    )

        # refinement: score each transition, then one Adam step on their mean gradient
        transitions = []
        for i, (features, record, candidate, magnitude) in enumerate(actions):
            totals.attempted += 1
            if candidate.equals(elite[i]):
                continue
            m_new = evaluator.metrics(candidate)
            f_new = fitness(m_new)
            reward = refine_reward(elite_fits[i] - f_new, m_new.U - elite_metrics[i].U, magnitude)
            if not np.isfinite(reward):
                totals.discarded_nonfinite += 1
                continue
            transitions.append((features, record, reward))
            if f_new < elite_fits[i]:
                elite[i], elite_fits[i] = candidate, f_new
                totals.improved += 1
        if transitions:
            records = {
                name: np.stack([r[name] for _, r, _ in transitions]) for name in transitions[0][1]
            }
            _, cache = core.log_prob(params, np.stack([x for x, _, _ in transitions]), records)
            rewards = np.array([reward for _, _, reward in transitions])
            grads = core.logp_backward(params, cache, -rewards / len(transitions))
            params = adam_step(params, grads, adam_state, AdamSpec(learning_rate=REFINE_LR))

        # local search: one move and one rollout at a time
        for move in moves:
            cand = _neighbor(elite[0], move, config.max_instances)
            if cand is not None and (f := fitness(evaluator.metrics(cand))) < elite_fits[0]:
                elite[0], elite_fits[0] = cand, f

        if elite_fits[0] < best_fitness:
            best, best_fitness = elite[0].copy(), float(elite_fits[0])
            history[-1] = best_fitness
        population = [e.copy() for e in elite] + offspring
        trace.append(GenerationTrace(
            generation=generation,
            best_fitness=best_fitness,
            gen_best_fitness=float(fits[gen_best]),
            mean_fitness=float(finite.mean()) if finite.size else INFEASIBLE,
            pc_mean=float(np.mean(pc_values)),
            pm_mean=float(np.mean(pm_values)),
        ))
        w = config.convergence_window
        if len(history) > w and history[-w - 1] - history[-1] < CONVERGENCE_EPS:
            converged = True
            break
    return HybridResult(best, best_fitness, trace, totals, converged, population, params, adam_state)


CLI_DEFAULTS = scheduler_options("hybrid", {})
GA_CONFIGS = {
    "cli-defaults": dict(CLI_DEFAULTS),
    # HybridConfig's defaults before it took the CLI's: a long run with
    # multi-tree local search and convergence
    "config-defaults": dict(
        population=24, elite=4, max_iter=30, eval_ticks=120,
        local_search_budget=4, convergence_window=10, max_instances=3,
    ),
    "elite-1": dict(CLI_DEFAULTS, elite=1),
    "elite-3": dict(CLI_DEFAULTS, elite=3),
    "budget-1": dict(CLI_DEFAULTS, local_search_budget=1),
    "budget-3": dict(CLI_DEFAULTS, local_search_budget=3),
    "budget-5": dict(CLI_DEFAULTS, local_search_budget=5),
    "no-refinement": dict(CLI_DEFAULTS, rl_refinement=False),
}


@pytest.mark.parametrize("topology_kind", ["default", "c03"])
@pytest.mark.parametrize("config_name", list(GA_CONFIGS))
def test_hybrid_scheduling_matches_sequential_search(config_name, topology_kind):
    seed = 1
    scenario = market_open(2 * seed)
    topology = topology_of(topology_kind, scenario)
    config = HybridConfig(seed=seed, **GA_CONFIGS[config_name])
    assert_same_run(run_ga(scenario, topology, config), step_by_step_ga(scenario, topology, config))


def assert_same_run(batched: HybridResult, sequential: HybridResult) -> None:
    assert chromosome_bytes(batched.best) == chromosome_bytes(sequential.best)
    assert batched.best_fitness == sequential.best_fitness
    assert batched.trace == sequential.trace
    assert batched.refine_stats == sequential.refine_stats
    assert batched.converged == sequential.converged
    assert [chromosome_bytes(c) for c in batched.population] == [
        chromosome_bytes(c) for c in sequential.population
    ]
    assert params_bytes(batched.params) == params_bytes(sequential.params)
    assert batched.adam_state.t == sequential.adam_state.t
    assert params_bytes(batched.adam_state.m) == params_bytes(sequential.adam_state.m)
    assert params_bytes(batched.adam_state.v) == params_bytes(sequential.adam_state.v)


def params_bytes(params: dict) -> dict:
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in params.items()}


@pytest.mark.parametrize("topology_kind", ["default", "c03"])
def test_warm_started_ga_matches_sequential_search(topology_kind):
    # a rolling-horizon decision: the carried elites, policy and Adam state
    # continue at a later tick with fewer generations
    scenario = market_open(2)
    topology = topology_of(topology_kind, scenario)
    cold = run_ga(scenario, topology, HybridConfig(seed=1, **CLI_DEFAULTS))
    config = HybridConfig(seed=2, **dict(CLI_DEFAULTS, max_iter=2))
    start = [current_of(topology), cold.best, *cold.population[: config.elite]]
    # both runs update an Adam state in place
    batched = hybrid_scheduling(
        scenario, topology, config, initial_population=start, start_tick=50,
        policy_params=cold.params, adam_state=copy.deepcopy(cold.adam_state),
    )
    sequential = step_by_step_ga(
        scenario, topology, config, start=start, params=cold.params,
        adam_state=copy.deepcopy(cold.adam_state), start_tick=50,
    )
    assert batched.adam_state.t > cold.adam_state.t
    assert_same_run(batched, sequential)


@pytest.mark.parametrize("topology_kind", ["default", "c03"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_rollout_calls_per_generation_at_cli_defaults(monkeypatch, topology_kind, seed):
    # the first population, then one batch per generation: the refinement
    # candidates, local search's first tree and the next offspring
    scenario = market_open(2 * seed)
    topology = topology_of(topology_kind, scenario)
    sizes: list[int] = []
    rollouts = RolloutEvaluator._rollouts

    def counting(self, chromos):
        sizes.append(len(chromos))
        return rollouts(self, chromos)

    monkeypatch.setattr(RolloutEvaluator, "_rollouts", counting)
    result = run_ga(scenario, topology, HybridConfig(seed=seed, **CLI_DEFAULTS))
    assert len(sizes) <= 1 + len(result.trace)
    assert 4 * sizes.count(1) <= len(sizes)


# --- checkpoints ------------------------------------------------------------------


def old_save_checkpoint(model, path):
    meta = {
        "config": {
            "input_size": model.config.input_size,
            "hidden_size": model.config.hidden_size,
            "layers": model.config.layers,
            "dropout": model.config.dropout,
        },
        "scaling": {
            "volume_scale": model.scaling.volume_scale,
            "session_minutes": model.scaling.session_minutes,
        },
        "seq_len": model.seq_len,
        "feature_window": model.feature_window,
        "horizon": model.horizon,
        "residual_quantiles": list(model.residual_quantiles),
        "ticks_per_day": model.ticks_per_day,
        "market_open_tick": model.market_open_tick,
        "market_close_tick": model.market_close_tick,
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **model.params)


def old_save_policy(policy, path):
    meta = {
        "encoder": {
            "mode": policy.encoder.mode,
            "service_count": policy.encoder.service_count,
            "node_count": policy.encoder.node_count,
            "load_ref": policy.encoder.load_ref,
            "queue_ref": policy.encoder.queue_ref,
            "latency_ref": policy.encoder.latency_ref,
            "throughput_ref": policy.encoder.throughput_ref,
            "clip": policy.encoder.clip,
        },
        "hidden": list(policy.core.hidden),
        "migration_choices": policy.core.layout.dueling().n,
    }
    np.savez(
        path,
        __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **policy.params,
    )


def npz_arrays(path) -> list:
    with np.load(path) as data:
        return [
            (name, data[name].dtype.str, data[name].shape, data[name].tobytes())
            for name in data.files
        ]


def lstm_model() -> ForecastModel:
    config = LstmConfig(hidden_size=5, layers=2, dropout=0.1)
    return ForecastModel(
        params=init_params(config, seed=4),
        config=config,
        scaling=FeatureScaling(volume_scale=321.5, session_minutes=12.0),
        seq_len=6,
        feature_window=8,
        horizon=5,
        residual_quantiles=(-0.125, 0.3),
        ticks_per_day=720,
        market_open_tick=30,
        market_close_tick=690,
    )


def policy() -> SchedulerPolicy:
    return SchedulerPolicy.build(StateEncoder(mode="full", service_count=3, node_count=2), seed=6)


def written_by(save, *args, **kwargs):
    """Writes the file through a handle, so numpy adds no suffix to the name."""

    def write(path):
        with open(path, "wb") as fh:
            save(fh, *args, **kwargs)

    return write


class TestCheckpointFormat:
    def test_lstm_files_equal_earlier_writer(self, tmp_path):
        model = lstm_model()
        save_checkpoint(model, tmp_path / "new.npz")
        old_save_checkpoint(model, tmp_path / "old.npz")
        assert npz_arrays(tmp_path / "new.npz") == npz_arrays(tmp_path / "old.npz")

    def test_policy_files_equal_earlier_writer(self, tmp_path):
        pol = policy()
        save_policy(pol, tmp_path / "new.npz")
        old_save_policy(pol, tmp_path / "old.npz")
        assert npz_arrays(tmp_path / "new.npz") == npz_arrays(tmp_path / "old.npz")

    def test_lstm_round_trip(self, tmp_path):
        model = lstm_model()
        save_checkpoint(model, tmp_path / "m.npz")
        loaded = load_checkpoint(tmp_path / "m.npz")
        for name in ("config", "scaling", "seq_len", "feature_window", "horizon",
                     "residual_quantiles", "ticks_per_day", "market_open_tick",
                     "market_close_tick"):
            assert getattr(loaded, name) == getattr(model, name), name
        assert list(loaded.params) == list(model.params)
        assert all(loaded.params[k].tobytes() == model.params[k].tobytes() for k in model.params)

    def test_policy_round_trip(self, tmp_path):
        pol = policy()
        save_policy(pol, tmp_path / "p.npz")
        loaded = load_policy(tmp_path / "p.npz")
        assert loaded.encoder == pol.encoder
        assert loaded.core.hidden == pol.core.hidden
        assert loaded.core.layout == pol.core.layout
        assert list(loaded.params) == list(pol.params)
        assert all(loaded.params[k].tobytes() == pol.params[k].tobytes() for k in pol.params)

    def test_params_and_meta_round_trip(self, tmp_path):
        params = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([-0.0, np.pi])}
        meta = {"name": "x", "sizes": [2, 3], "scale": 0.1}
        save_params(tmp_path / "c.npz", params, meta)
        got_params, got_meta = load_params(tmp_path / "c.npz")
        assert got_meta == meta
        assert list(got_params) == ["w", "b"]
        assert all(got_params[k].tobytes() == params[k].tobytes() for k in params)

    @pytest.mark.parametrize(
        "write",
        [
            lambda p: p.write_text("epoch,loss\n0,1.0\n"),
            lambda p: p.write_bytes(b""),
            lambda p: p.write_bytes(b"PK\x03\x04 truncated"),
            written_by(np.save, np.zeros(3)),
            written_by(np.savez, w=np.zeros(3)),
            written_by(np.savez, __meta__=np.frombuffer(b"{bad", dtype=np.uint8)),
            written_by(np.savez, __meta__=np.frombuffer(b"5", dtype=np.uint8)),
        ],
        ids=["text", "empty", "truncated-zip", "npy", "no-meta", "meta-not-json", "meta-not-object"],
    )
    def test_not_a_checkpoint_is_config_error(self, tmp_path, write):
        path = tmp_path / "c.npz"
        write(path)
        for load in (load_params, load_checkpoint, load_policy):
            with pytest.raises(ConfigError, match="c.npz"):
                load(path)

    def test_missing_file_is_config_error(self, tmp_path):
        for load in (load_params, load_checkpoint, load_policy):
            with pytest.raises(ConfigError, match="not found"):
                load(tmp_path / "missing.npz")

    def test_named_file_is_read_not_its_npz_sibling(self, tmp_path):
        save_checkpoint(lstm_model(), tmp_path / "model.npz")
        (tmp_path / "model.ckpt").write_text("not a checkpoint\n")
        with pytest.raises(ConfigError, match="model.ckpt"):
            load_checkpoint(tmp_path / "model.ckpt")
