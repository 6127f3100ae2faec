"""Code that now exists once, against the copies it replaced.

The checkpoint writer/reader (shared by the LSTM predictor and the PPO policy)
replaced two copies; the earlier copies live here, test-only, and the code
that runs must give equal bytes.

The GA holds each generation's population as arrays, and each operator acts
on all rows at once. Test-only scalar references loop over chromosomes and
cells, reading the same random draws: today's scalar `repair` (the copy the
array repair replaced), a per-cell mutation, and a step-by-step hill-climb.
The array operators must give byte-equal chromosomes and final generator
states. The GA rolls out each generation's candidates in one batch; a
test-only step-by-step reference of the same algorithm, which rolls out each
candidate where it is first needed, must give byte-equal whole GA runs.

The simulator has one tick: the tick model's steps are each called from one
place in `src/`, so no second tick loop can grow back beside it. Likewise the
cache refreshes a hit's recency and drops an LRU victim in one place each, so
no per-key path can grow back beside its walk. Every JSON input is typed by
one decoder, `errors.from_json`, the one place that resolves annotations, and
the type-check schemes and hand-built loaders it replaced stay gone.
"""

from __future__ import annotations

import ast
import copy
import json
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tradesim.baselines import scheduler_options
from tradesim.cluster import QUOTA_FLOOR, ClusterSim, TickRecord, node_commit, uniform_topology
from tradesim.drl.env import DecisionEnv
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
    Chromosome,
    FitnessWeights,
    GenerationTrace,
    HybridConfig,
    HybridResult,
    Population,
    RefineStats,
    RolloutEvaluator,
    _breed,
    _draw_moves,
    _move_tree,
    _mutate,
    _neighbors,
    apply_records,
    hybrid_scheduling,
    local_search,
    non_dominated_sort,
    propose_refinements,
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

# --- the GA operators against scalar references ------------------------------------------


def scalar_repair(chromo: Chromosome) -> Chromosome:
    """The scalar `repair` the array repair replaced, as it was."""
    placement = np.maximum(chromo.placement, 0)
    for s in np.flatnonzero(placement.sum(axis=1) < 1):
        placement[s, int(np.argmin(placement.sum(axis=0)))] = 1
    chromo.placement = placement
    chromo.quota = np.clip(chromo.quota, QUOTA_FLOOR, 1.0)
    chromo.priority = np.clip(chromo.priority, 0.0, 1.0)
    if node_commit(placement, np.full_like(chromo.quota, QUOTA_FLOOR)).max() > 1.0:
        raise ConfigError("cannot satisfy per-node quota budget even at the quota floor")
    for _ in range(64):  # floor clipping can re-violate; iterate to feasibility
        worst = node_commit(placement, chromo.quota).max()
        if worst <= 1.0:
            break
        chromo.quota = np.maximum(chromo.quota / worst, QUOTA_FLOOR)
    else:
        chromo.quota = np.full_like(chromo.quota, QUOTA_FLOOR)
    return chromo


def step_cell(before: np.ndarray, placement: np.ndarray, s: int, j: int, step: int, cap: int) -> bool:
    """One cell's step, read from the placement `before` any cell moved."""
    cell, row_sum = before[s, j], before[s].sum()
    if step < 0 and (cell == 0 or row_sum <= 1):
        step = 1
    if step > 0 and cell >= cap:
        if cell == 0 or row_sum <= 1:
            return False
        step = -1
    placement[s, j] += step
    return True


def old_mutate(xs: list[Chromosome], p_m, rng, sigma, max_instances) -> list[Chromosome]:
    """`_mutate` chromosome by chromosome and cell by cell, on its draws: the
    placement hits and directions of all rows, then each continuous gene's
    hits and Gaussian steps, in row order."""
    k, n = xs[0].placement.shape
    hit = rng.random((len(xs), k, n)) < np.asarray(p_m)[:, None, None]
    down = rng.random(hit.shape) < 0.5
    out = [x.copy() for x in xs]
    for i, x in enumerate(out):
        before = x.placement.copy()
        for s, j in zip(*np.nonzero(hit[i])):
            step_cell(before, x.placement, s, j, -1 if down[i, s, j] else 1, max_instances)
    for attr in ("quota", "priority"):
        hits = rng.random((len(xs), k)) < np.asarray(p_m)[:, None]
        steps = iter(sigma * rng.standard_normal(int(hits.sum())))
        for i, s in zip(*np.nonzero(hits)):
            getattr(out[i], attr)[s] += next(steps)
    return [scalar_repair(x) for x in out]


def old_local_search(x, fitness_fn, budget, rng, sigma, max_instances):
    """The hill-climb one move and one evaluation at a time, on the draws of
    `_draw_moves`: every gene index, every direction, every Gaussian step."""
    k, n = x.placement.shape
    idx = rng.integers(k * n + 2 * k, size=budget)
    down = rng.random(budget) < 0.5
    normal = rng.standard_normal(budget)
    best, best_f = x.copy(), fitness_fn(x)
    for m in range(budget):
        cand = best.copy()
        if idx[m] < k * n:
            s, j = divmod(int(idx[m]), n)
            if not step_cell(best.placement, cand.placement, s, j, -1 if down[m] else 1, max_instances):
                continue
        elif idx[m] < k * n + k:
            cand.quota[idx[m] - k * n] += sigma * normal[m]
        else:
            cand.priority[idx[m] - k * n - k] += sigma * normal[m]
        scalar_repair(cand)
        f = fitness_fn(cand)
        if f < best_f:
            best, best_f = cand, f
    return best, best_f


def chromosome_bytes(c: Chromosome) -> list:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (c.placement, c.quota, c.priority)]


@st.composite
def placements(draw, k=None, n=None, cells=st.integers(0, 3)):
    """(k, n) instance counts, at least one per service; rows of a single
    instance are common."""
    k = k or draw(st.integers(1, 4))
    n = n or draw(st.integers(1, 4))
    values = draw(st.lists(cells, min_size=k * n, max_size=k * n))
    placement = np.array(values, dtype=np.int64).reshape(k, n)
    for s in np.flatnonzero(placement.sum(axis=1) <= 0):
        placement[s] = np.maximum(placement[s], 0)
        placement[s, draw(st.integers(0, n - 1))] = 1
    return placement


def make_chromosome(placement, seed) -> Chromosome:
    rng = np.random.default_rng(seed)
    k = placement.shape[0]
    return Chromosome(placement.copy(), rng.uniform(0.01, 0.05, k), rng.uniform(0.0, 1.0, k))


@st.composite
def populations(draw, cap=None, raw=False):
    """(P, k, n) chromosomes. `raw` ones are what repair sees: negative cells,
    services without an instance, quotas and priorities outside their range
    and over-committed nodes; the others are repaired-looking, with every
    cell at most `cap`."""
    k, n, P = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    if raw:
        cells = st.lists(st.integers(-1, 4), min_size=k * n, max_size=k * n)
        placement = [np.array(draw(cells), dtype=np.int64).reshape(k, n) for _ in range(P)]
        value = st.one_of(st.sampled_from([QUOTA_FLOOR, 0.0, 1.0, -0.0]), st.floats(-0.5, 1.5))
    else:
        placement = [draw(placements(k, n, st.integers(0, cap))) for _ in range(P)]
        value = st.floats(QUOTA_FLOOR, 0.6)
    genes = st.lists(value, min_size=k, max_size=k)
    return [Chromosome(pl, np.array(draw(genes)), np.array(draw(genes))) for pl in placement]


def rows_bytes(pop: Population) -> list:
    return [chromosome_bytes(c) for c in pop.chromosomes()]


# zeros, cells at and above the cap, single-instance rows
EDGE_PLACEMENT = np.array([[0, 2, 1], [1, 0, 0], [0, 0, 3]])


class TestArrayRepair:
    @given(populations(raw=True))
    @example([Chromosome(np.array([[0, 0], [-1, 2]]), np.array([0.9, -0.0]), np.array([-0.0, 1.5]))])
    @example([Chromosome(np.array([[4, 4, 4], [4, 4, 4]]), np.array([0.9, 0.02]), np.array([0.5, 0.5]))])
    @example([  # the second row cannot fit even at the quota floor
        Chromosome(np.array([[1, 0], [0, 1]]), np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        Chromosome(np.array([[60, 0], [50, 0]]), np.array([0.5, 0.5]), np.array([0.5, 0.5])),
    ])
    def test_rows_equal_scalar_repair(self, chromos):
        try:
            want = [chromosome_bytes(scalar_repair(c.copy())) for c in chromos]
        except ConfigError:
            with pytest.raises(ConfigError, match="quota floor"):
                repair(Population.of(chromos))
            return
        assert rows_bytes(repair(Population.of(chromos))) == want

    @given(populations(raw=True))
    def test_output_satisfies_invariants_and_is_idempotent(self, chromos):
        try:
            once = repair(Population.of(chromos))
        except ConfigError:
            return
        assert all(satisfies_invariants(c) for c in once.chromosomes())
        twice = repair(Population(once.placement.copy(), once.quota.copy(), once.priority.copy()))
        assert rows_bytes(twice) == rows_bytes(once)


class TestPlacementStep:
    @given(
        placement=placements(),
        max_instances=st.sampled_from([1, 2, 3, 10]),
        p_m=st.sampled_from([0.3, 0.7, 1.0]),
        copies=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @example(placement=EDGE_PLACEMENT, max_instances=2, p_m=1.0, copies=3, seed=0)
    @example(placement=EDGE_PLACEMENT, max_instances=10, p_m=1.0, copies=1, seed=1)
    @example(placement=np.array([[1]]), max_instances=1, p_m=1.0, copies=2, seed=2)
    def test_mutate_matches_earlier_copy(self, placement, max_instances, p_m, copies, seed):
        xs = [make_chromosome(placement, seed + i) for i in range(copies)]
        rates = np.linspace(p_m, p_m / 2, copies)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _mutate(Population.of(xs), rates, rng, 0.1, max_instances)
        want = old_mutate(xs, rates, ref_rng, 0.1, max_instances)
        assert rows_bytes(got) == [chromosome_bytes(c) for c in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        placement=placements(),
        max_instances=st.sampled_from([1, 2, 3, 10]),
        budget=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    @example(placement=EDGE_PLACEMENT, max_instances=2, budget=20, seed=0)
    @example(placement=EDGE_PLACEMENT, max_instances=10, budget=20, seed=1)
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

        def fitness_batch(pop):
            nonlocal batch_calls
            batch_calls += 1
            return np.array([fitness("got")(c) for c in pop.chromosomes()])

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        start = repair(Population.of([x]))
        (x,) = start.chromosomes()
        f_x = fitness("want")(x)
        seen["want"].clear()
        got, got_f = local_search(
            start, f_x, fitness_batch, _draw_moves(placement.shape, budget, rng, 0.1), max_instances
        )
        want, want_f = old_local_search(x, fitness("want"), budget, ref_rng, 0.1, max_instances)
        assert rows_bytes(got) == [chromosome_bytes(want)]
        assert got_f == want_f
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # the batches hold every chromosome the step-by-step climb evaluated, in
        # its order, among the candidates of the paths it did not take
        batched = iter(seen["got"])
        assert all(any(b == w for b in batched) for w in seen["want"][1:])
        assert batch_calls <= -(-budget // LOOKAHEAD)


def random_records(rng, E: int, k: int) -> dict[str, np.ndarray]:
    return {
        "delta": rng.integers(0, 3, size=(E, k)),
        "priority": rng.normal(size=(E, k)),
        "quota": rng.normal(size=(E, k)),
        "migration": rng.integers(0, 6, size=(E, 1)),
    }


class TestInstanceCap:
    """From chromosomes with every cell at or below `max_instances`, no
    operator makes a cell above it."""

    @given(
        data=st.data(),
        max_instances=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_offspring_refinements_and_neighbors_stay_capped(self, data, max_instances, seed):
        chromos = data.draw(populations(cap=max_instances))
        pool = repair(Population.of(chromos))
        assert pool.placement.max() <= max_instances
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 9))
        config = HybridConfig(population=count + 1, elite=1, max_instances=max_instances)
        fitness = rng.normal(size=len(pool))
        offspring, _, _ = _breed(pool, fitness, count, 0.0, 1.0, config, rng)
        refined, _ = apply_records(random_records(rng, len(pool), pool.quota.shape[1]), pool, max_instances)
        k, n = pool.placement.shape[1:]
        _, neighbors = _move_tree(pool, _draw_moves((k, n), 3, rng, 0.05), max_instances)
        for made in (offspring, refined, neighbors):
            assert made.placement.max(initial=0) <= max_instances
            assert all(satisfies_invariants(c) for c in made.chromosomes())

    def test_a_full_cluster_is_left_to_removals(self):
        # every cell at the cap: refinement can only remove or move nothing
        x = Chromosome(np.full((3, 2), 2), np.full(3, 0.1), np.full(3, 0.5))
        records = random_records(np.random.default_rng(0), 50, 3)
        refined, _ = apply_records(records, Population.of([x] * 50), 2)
        assert refined.placement.max() == 2
        assert np.all(refined.placement.sum(axis=2) <= 4)


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
    cap = config.max_instances
    rng = np.random.default_rng([config.seed, 0xA11CE])
    evaluator = RolloutEvaluator(scenario, topology, weights, config.eval_ticks, start_tick)

    def scores(row: Population) -> np.ndarray:  # T, U, L, fitness of one row
        assert len(row) == 1
        return evaluator.evaluate(row)[0]

    encoder = StateEncoder(service_count=k, node_count=n)
    core = PolicyCore(encoder.dim, cluster_layout(k), hidden=(32, 32))
    if params is None:
        params = core.init_params(config.seed)
    if adam_state is None:
        adam_state = adam_init(params)

    start = start or [current_of(topology)]
    fill = config.population - len(start)
    population = repair(Population.concat([Population.of(start), Population(
        rng.integers(0, cap + 1, size=(fill, k, n)),
        rng.uniform(QUOTA_FLOOR, 0.5, size=(fill, k)),
        rng.uniform(0.0, 1.0, size=(fill, k)),
    )]))

    best, best_fitness = None, INFEASIBLE
    trace, totals, history = [], RefineStats(), []
    converged = False
    for generation in range(config.max_iter):
        T, U, L, fits = evaluator.evaluate(population).T
        gen_best = int(np.argmin(fits))
        if fits[gen_best] < best_fitness:
            best, best_fitness = population.take([gen_best]), float(fits[gen_best])
        history.append(best_fitness)
        finite = fits[np.isfinite(fits)]
        q_avg = float((-finite).mean()) if finite.size else 0.0
        q_max = max(float((-finite).max()) if finite.size else 0.0, q_avg)
        elite_idx = select_top_k(fits, config.elite)
        elite = population.take(elite_idx)
        elite_fits = [float(fits[i]) for i in elite_idx]
        pool_idx: list[int] = []
        for front in non_dominated_sort(np.stack([T, -U, -L], axis=1)):
            pool_idx.extend(front)
            if len(pool_idx) >= max(len(population) // 2, 2 * config.elite):
                break

        # the draws: every elite's action from the same params, the moves, the offspring
        proposals = None
        if config.rl_refinement:
            states = evaluator.final_states(elite)
            proposals = propose_refinements(elite, states, core, params, encoder, rng, cap)
        moves = _draw_moves((k, n), config.local_search_budget, rng, config.mutation_sigma)
        offspring, pc_values, pm_values = _breed(
            population.take(pool_idx), fits[pool_idx], config.population - config.elite,
            q_avg, q_max, config, rng,
        )

        # refinement: score each transition, then one Adam step on their mean gradient
        if proposals is not None:
            coef = np.zeros(len(elite))
            transitions = []
            for i in range(len(elite)):
                totals.attempted += 1
                if not proposals.changed[i]:
                    continue
                candidate = proposals.candidates.take([i])
                _, U_new, _, f_new = scores(candidate)
                reward = refine_reward(
                    elite_fits[i] - f_new, U_new - U[elite_idx[i]], proposals.magnitude[i]
                )
                if not np.isfinite(reward):
                    totals.discarded_nonfinite += 1
                    continue
                transitions.append((i, reward))
                if f_new < elite_fits[i]:
                    for g in ("placement", "quota", "priority"):
                        getattr(elite, g)[i] = getattr(candidate, g)[0]
                    elite_fits[i] = float(f_new)
                    totals.improved += 1
            if transitions:
                for i, reward in transitions:
                    coef[i] = -reward / len(transitions)
                grads = core.logp_backward(params, proposals.cache, coef)
                params = adam_step(params, grads, adam_state, AdamSpec(learning_rate=REFINE_LR))

        # local search: one move and one rollout at a time
        for move in moves:
            cand, applies = _neighbors(elite.take([0]), move, cap)
            if applies[0] and (f := float(scores(cand)[3])) < elite_fits[0]:
                for g in ("placement", "quota", "priority"):
                    getattr(elite, g)[0] = getattr(cand, g)[0]
                elite_fits[0] = f

        if elite_fits[0] < best_fitness:
            best, best_fitness = elite.take([0]), float(elite_fits[0])
            history[-1] = best_fitness
        population = Population.concat([elite, offspring])
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
    return HybridResult(
        best.chromosomes()[0], best_fitness, trace, totals, converged, population.chromosomes(),
        params, adam_state,
    )


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
            "service_count": policy.encoder.service_count,
            "node_count": policy.encoder.node_count,
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
    return SchedulerPolicy.build(StateEncoder(service_count=3, node_count=2), seed=6)


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

    def test_policy_meta_encoder_holds_only_the_sizes(self, tmp_path):
        save_policy(policy(), tmp_path / "p.npz")
        _, meta = load_params(tmp_path / "p.npz")
        assert meta["encoder"] == {"service_count": 3, "node_count": 2}

    @pytest.mark.parametrize(
        "key, value",
        [("mode", "full"), ("load_ref", 500.0), ("queue_ref", 1000.0), ("latency_ref", 200.0),
         ("throughput_ref", 500.0), ("clip", 5.0)],
    )
    def test_policy_with_a_removed_encoder_key_is_config_error(self, tmp_path, key, value):
        # the encoder settings policy checkpoints held before they became constants
        save_policy(policy(), tmp_path / "p.npz")
        params, meta = load_params(tmp_path / "p.npz")
        meta["encoder"][key] = value
        save_params(tmp_path / "p.npz", params, meta)
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) \\['{key}'\\]"):
            load_policy(tmp_path / "p.npz")

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


# --- one simulator tick ---------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def call_sites(names: set[str]) -> Counter:
    """How often `src/` calls each of `names`, as a plain or dotted name."""
    calls = Counter()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    calls[name] += 1
    return calls


def test_tick_model_steps_have_one_call_site():
    steps = {"allocate_work", "drain", "utilization_step"}
    assert call_sites(steps) == Counter(dict.fromkeys(steps, 1))


def test_cache_tier_rules_have_one_call_site():
    rules = {"move_to_end", "popitem"}  # a hit's refresh, an LRU victim's drop
    assert call_sites(rules) == Counter(dict.fromkeys(rules, 1))


def defined_names() -> set[str]:
    """The names `src/` defines: functions, classes and assigned names."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_json_types_are_checked_in_one_place():
    assert call_sites({"get_type_hints"}) == Counter(get_type_hints=1)
    assert "get_type_hints(" in (SRC / "tradesim" / "errors.py").read_text()
    retired = {"_JSON_TYPES", "_int_option", "_float_option", "_path_option",
               "scenario_from_dict", "topology_from_dict"}
    assert not retired & defined_names()
    assert {"from_json", "json_value", "RampSpec"} <= defined_names()  # the walk sees definitions


def test_code_that_only_kept_old_paths_is_gone():
    # the PCG64 replay kept the cache key stream of scalar draws, and the
    # compact encoding served an encoder mode nothing set
    assert not {"Pcg64Draws", "encode_compact_state"} & defined_names()
    assert StateEncoder.__dataclass_fields__.keys() == {"service_count", "node_count"}


def test_feature_rows_have_one_extractor():
    # extract_features takes an array of ends, so the one-row wrapper, the
    # per-row slope and the forecast row cache are gone
    assert not {"FeatureVector", "_window_slope"} & defined_names()
    assert not {"_sequence", "_rows", "_rows_of"} & set(dir(ForecastModel))
    assert not {"_rows", "_rows_of"} & ForecastModel.__dataclass_fields__.keys()
    assert call_sites({"extract_features"}) == Counter(extract_features=2)
    tree = ast.parse((SRC / "tradesim" / "lstm.py").read_text())
    callers = Counter(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "extract_features"
    )
    assert callers == Counter(predict_and_warn=1, build_dataset=1)


def test_the_predictor_history_has_one_builder():
    # train-predictor and simulate --predictor draw their volume history with
    # one function, and forecasts take an array of ends, so the per-forecast
    # path is gone
    assert call_sites({"volume_history"}) == Counter(volume_history=2)
    assert not {"_session_history", "feature_sequence"} & defined_names()
    assert "predict" not in dir(ForecastModel)


def test_a_run_record_has_one_switch():
    # `record_trace` alone keeps a run record: `trace` is a plain list, filled
    # in by nothing when read, and a record holds only what its tick knows;
    # per-service contention is computed by `ClusterSim` alone
    assert "trace" not in vars(ClusterSim)
    assert [f.name for f in fields(TickRecord)] == ["tick", "completed", "util", "queue_len"]
    assert call_sites({"contention"}) == Counter(contention=2)


def test_a_decision_env_sim_keeps_no_run_record():
    scenario = WorkloadScenario(base_rate=120.0, peak_rate=600.0, horizon=30, seed=1)
    topology = uniform_topology(node_count=4, services=scenario.service_mix)
    encoder = StateEncoder(service_count=8, node_count=4)
    policy = SchedulerPolicy.build(encoder, seed=0)
    env = DecisionEnv(scenario, topology, encoder, policy)
    obs = env.reset([0, 1])
    rng = np.random.default_rng(0)
    env.step([policy.core.act(policy.params, x, "sample", rng)[0] for x in obs])
    assert env.sim.completed_total > 0
    assert not env.sim._served  # no drain steps kept
    assert env.sim.trace == [] and env.sim.latency_samples == []
