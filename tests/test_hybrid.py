from __future__ import annotations

import numpy as np
import pytest

import tradesim.baselines as baselines_module
from tradesim.baselines import HybridScheduler
from tradesim.cluster import ClusterSim, ClusterTopology, LatencyModel, NodeSpec
from tradesim.errors import ConfigError
from tradesim.hybrid import (
    LOOKAHEAD,
    QUOTA_FLOOR,
    Chromosome,
    FitnessWeights,
    HybridConfig,
    Population,
    RolloutEvaluator,
    _crossover,
    _draw_moves,
    _mutate,
    _tournament,
    adaptive_rates,
    apply_records,
    check_max_instances,
    fitness_from_metrics,
    hybrid_scheduling,
    local_search,
    non_dominated_sort,
    refine_reward,
    repair,
    satisfies_invariants,
    select_top_k,
)
from tradesim.workload import ServiceSpec, WorkloadScenario, generate_tick_counts


def toy_services() -> tuple[ServiceSpec, ...]:
    return (
        ServiceSpec("orders", 0.6, 10.0, 1000),
        ServiceSpec("quotes", 0.4, 5.0, 500),
    )


def toy_topology(node_cpu=800.0) -> ClusterTopology:
    return ClusterTopology(
        nodes=(NodeSpec(node_cpu, 4096.0, 100.0), NodeSpec(node_cpu, 4096.0, 100.0)),
        services=toy_services(),
        initial_placement=((1, 0), (0, 1)),
        initial_quota=(0.4, 0.4),
        initial_priority=(0.5, 0.5),
        latency=LatencyModel(jitter_enabled=False),
    )


def toy_scenario(rate=60.0, horizon=200, seed=5) -> WorkloadScenario:
    return WorkloadScenario(
        base_rate=rate, peak_rate=rate * 3, horizon=horizon, seed=seed,
        service_mix=toy_services(),
    )


def chromo(placement, quota=(0.4, 0.4), priority=(0.5, 0.5)) -> Chromosome:
    return Chromosome(
        placement=np.array(placement, dtype=int),
        quota=np.array(quota, dtype=float),
        priority=np.array(priority, dtype=float),
    )


def pop(*chromos: Chromosome) -> Population:
    return Population.of(list(chromos))


def same(a: Chromosome, b: Chromosome) -> bool:
    return all(np.array_equal(getattr(a, g), getattr(b, g)) for g in ("placement", "quota", "priority"))


def random_rows(rng, count: int, k: int, n: int, cap: int = 3) -> Population:
    """`count` repaired random chromosomes, the GA's random fill."""
    return repair(Population(
        rng.integers(0, cap + 1, size=(count, k, n)),
        rng.uniform(QUOTA_FLOOR, 0.5, size=(count, k)),
        rng.uniform(0.0, 1.0, size=(count, k)),
    ))


def copies(x: Chromosome, count: int) -> Population:
    return pop(*[x] * count)


class TestFitness:
    def test_boundary_all_max(self):
        w = FitnessWeights(T_max=100.0)
        assert fitness_from_metrics(100.0, 1.0, 1.0, w) == pytest.approx(0.4)

    def test_all_zero_metrics(self):
        w = FitnessWeights(T_max=100.0)
        assert fitness_from_metrics(0.0, 0.0, 0.0, w) == pytest.approx(0.6)

    def test_midpoint(self):
        w = FitnessWeights(T_max=100.0)
        assert fitness_from_metrics(50.0, 0.5, 0.5, w) == pytest.approx(0.5)

    def test_nonfinite_is_infeasible(self):
        w = FitnessWeights()
        assert fitness_from_metrics(float("nan"), 0.5, 0.5, w) == float("inf")

    def test_arrays_equal_scalars_elementwise(self):
        rng = np.random.default_rng(0)
        T, U, L = rng.uniform(0, 600, 50), rng.uniform(-0.2, 1.2, 50), rng.uniform(-0.2, 1.2, 50)
        T[3], U[7] = np.inf, np.nan
        w = FitnessWeights(T_max=300.0)
        want = [fitness_from_metrics(float(t), float(u), float(l), w) for t, u, l in zip(T, U, L)]
        assert fitness_from_metrics(T, U, L, w).tolist() == want


class TestAdaptiveRates:
    def test_best_candidate_protected(self):
        assert adaptive_rates(10.0, 5.0, 10.0) == pytest.approx((0.3, 0.03))

    def test_average_candidate_exploratory(self):
        assert adaptive_rates(5.0, 5.0, 10.0) == pytest.approx((0.9, 0.1))

    def test_midpoint_rates(self):
        assert adaptive_rates(7.5, 5.0, 10.0) == pytest.approx((0.6, 0.065))

    def test_below_average_clamps_to_exploratory(self):
        assert adaptive_rates(1.0, 5.0, 10.0) == pytest.approx((0.9, 0.1))

    def test_degenerate_population(self):
        assert adaptive_rates(5.0, 5.0, 5.0) == (0.9, 0.1)

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            adaptive_rates(5.0, 10.0, 5.0)

    def test_rates_bounded_over_range(self):
        for q in np.linspace(5.0, 10.0, 23):
            pc, pm = adaptive_rates(float(q), 5.0, 10.0)
            assert 0.3 <= pc <= 0.9
            assert 0.03 <= pm <= 0.1

    def test_arrays_equal_scalars_elementwise(self):
        q = np.linspace(3.0, 11.0, 17)
        for f_avg, f_max in ((5.0, 10.0), (5.0, 5.0)):
            pc, pm = adaptive_rates(q, f_avg, f_max)
            want = [adaptive_rates(float(v), f_avg, f_max) for v in q]
            assert list(zip(pc.tolist(), pm.tolist())) == want


class TestTournament:
    def test_single_candidate(self):
        assert _tournament(np.array([1.0]), (3,), np.random.default_rng(0)).tolist() == [0, 0, 0]

    def test_full_size_tournament_returns_global_best(self):
        rng = np.random.default_rng(1)
        fits = np.array([5.0, 3.0, 4.0, 1.0, 2.0, 6.0])
        # large tournament makes missing the best astronomically unlikely
        assert set(_tournament(fits, (20,), rng, size=64).tolist()) == {3}

    def test_binary_tournament_win_probability(self):
        # fitnesses {1, 2}: the fitter wins unless both draws hit the other -> 3/4
        fits = np.array([1.0, 2.0])
        wins = _tournament(fits, (100, 100), np.random.default_rng(2)) == 0
        assert wins.shape == (100, 100)
        assert wins.mean() == pytest.approx(0.75, abs=0.02)

    def test_ties_go_to_the_earlier_draw(self):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        fits = np.array([1.0, 1.0, 2.0, 1.0])
        picks = ref.integers(0, 4, size=(50, 2))
        want = [int(p[np.argmin(fits[p])]) for p in picks]
        assert _tournament(fits, (50,), rng).tolist() == want

    def test_empty_population_raises(self):
        with pytest.raises(ValueError):
            _tournament(np.array([]), (1,), np.random.default_rng(0))


class TestCrossover:
    def test_zero_probability_copies_parents(self):
        rng = np.random.default_rng(3)
        a = chromo([[2, 0], [0, 1]], quota=(0.3, 0.2))
        b = chromo([[0, 1], [1, 1]], quota=(0.1, 0.4))
        c1, c2 = _crossover(pop(a), pop(b), np.array([0.0]), rng).chromosomes()
        assert same(c1, a) and same(c2, b)

    def test_identical_parents_fixed_point(self):
        rng = np.random.default_rng(4)
        a = chromo([[1, 1], [0, 1]], quota=(0.25, 0.25))
        c1, c2 = _crossover(pop(a), pop(a), np.array([1.0]), rng).chromosomes()
        assert same(c1, a) and same(c2, a)

    def test_children_swap_genes_between_their_parents(self):
        # each gene of a pair's children is the two parents' genes, in some order
        rng = np.random.default_rng(5)
        a, b = random_rows(rng, 200, 3, 2), random_rows(rng, 200, 3, 2)
        children = _crossover(a, b, np.full(200, 0.9), rng)
        for g in ("placement", "quota", "priority"):
            first, second = getattr(children, g)[0::2], getattr(children, g)[1::2]
            pa, pb = getattr(a, g), getattr(b, g)
            assert np.all(((first == pa) & (second == pb)) | ((first == pb) & (second == pa)))

    def test_children_satisfy_invariants(self):
        rng = np.random.default_rng(5)
        a, b = random_rows(rng, 200, 3, 2), random_rows(rng, 200, 3, 2)
        children = repair(_crossover(a, b, np.full(200, 0.9), rng))
        assert len(children) == 400
        assert all(satisfies_invariants(c) for c in children.chromosomes())


class TestMutation:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(6)
        x = chromo([[2, 1], [1, 1]], quota=(0.2, 0.3))
        (y,) = _mutate(pop(x), np.array([0.0]), rng, 0.05, 3).chromosomes()
        assert same(y, x)

    def test_rate_one_sigma_zero_changes_every_placement_gene(self):
        rng = np.random.default_rng(7)
        x = chromo([[3, 2], [2, 3]], quota=(0.08, 0.08))
        for y in _mutate(copies(x, 20), np.ones(20), rng, 0.0, 10).chromosomes():
            assert np.all(y.placement != x.placement)
            assert np.array_equal(y.quota, x.quota)
            assert np.array_equal(y.priority, x.priority)

    def test_changed_gene_fraction_matches_binomial(self):
        # quota headroom keeps repair inactive so gene flips are independent
        rng = np.random.default_rng(8)
        x = chromo([[3, 3], [3, 3]], quota=(0.05, 0.05), priority=(0.5, 0.5))
        trials = 10_000
        y = _mutate(copies(x, trials), np.full(trials, 0.1), rng, 0.01, 10)
        changed = sum(int(np.sum(getattr(y, g) != getattr(x, g))) for g in ("placement", "quota", "priority"))
        frac = changed / (trials * 8)
        assert frac == pytest.approx(0.1, abs=0.01)

    def test_each_row_mutates_at_its_own_rate(self):
        rng = np.random.default_rng(10)
        x = chromo([[3, 3], [3, 3]], quota=(0.05, 0.05), priority=(0.5, 0.5))
        rates = np.repeat([0.0, 0.5], 5000)
        y = _mutate(copies(x, 10_000), rates, rng, 0.01, 10)
        changed = (y.placement != x.placement).reshape(10_000, -1).mean(axis=1)
        assert changed[:5000].max() == 0.0
        assert changed[5000:].mean() == pytest.approx(0.5, abs=0.02)

    def test_mutants_satisfy_invariants(self):
        rng = np.random.default_rng(9)
        y = _mutate(random_rows(rng, 300, 3, 2), np.full(300, 0.5), rng, 0.05, 3)
        assert all(satisfies_invariants(c) for c in y.chromosomes())


class TestSelectTopK:
    def test_whole_population(self):
        fits = np.array([4.0, 2.0, 3.0, 1.0])
        assert select_top_k(fits, 4) == [3, 1, 2, 0]

    def test_k_one_is_global_best(self):
        fits = np.array([4.0, 2.0, 3.0, 1.0])
        assert select_top_k(fits, 1) == [3]

    def test_matches_sort_oracle_with_stable_ties(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            fits = rng.integers(0, 5, size=n).astype(float)  # force ties
            k = int(rng.integers(1, n + 1))
            got = select_top_k(fits, k)
            want = [i for _, i in sorted(zip(fits, range(n)), key=lambda t: (t[0], t[1]))][:k]
            assert got == want

    def test_oversized_k_raises(self):
        with pytest.raises(ValueError):
            select_top_k(np.array([1.0]), 2)


class TestNonDominatedSort:
    def brute_force(self, obj):
        n = len(obj)
        remaining = set(range(n))
        fronts = []
        while remaining:
            front = []
            for i in remaining:
                dominated = any(
                    np.all(obj[j] <= obj[i]) and np.any(obj[j] < obj[i])
                    for j in remaining
                    if j != i
                )
                if not dominated:
                    front.append(i)
            fronts.append(sorted(front))
            remaining -= set(front)
        return fronts

    def test_single_point_one_front(self):
        assert non_dominated_sort(np.array([[1.0, 2.0, 3.0]])) == [[0]]

    def test_mutually_nondominating_share_front(self):
        fronts = non_dominated_sort(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert fronts == [[0, 1]]

    def test_matches_brute_force_on_random_populations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            obj = rng.integers(0, 6, size=(50, 3)).astype(float)
            got = [sorted(f) for f in non_dominated_sort(obj)]
            assert got == self.brute_force(obj)

    def test_scalar_minimizer_in_first_front(self):
        rng = np.random.default_rng(12)
        w = FitnessWeights(T_max=100.0)
        for _ in range(20):
            T = rng.uniform(0, 200, size=30)
            U = rng.uniform(0, 1, size=30)
            L = rng.uniform(0, 1, size=30)
            fits = [fitness_from_metrics(t, u, l, w) for t, u, l in zip(T, U, L)]
            objectives = np.stack([T, -U, -L], axis=1)
            fronts = non_dominated_sort(objectives)
            assert int(np.argmin(fits)) in fronts[0]


def batched(fitness_fn, sizes=None):
    """A batch fitness callable over a per-chromosome one; records batch sizes."""

    def fitness_batch(population):
        if sizes is not None:
            sizes.append(len(population))
        return np.array([fitness_fn(c) for c in population.chromosomes()])

    return fitness_batch


def moves(x: Chromosome, count: int, seed: int, sigma: float = 0.05) -> list:
    return _draw_moves(x.placement.shape, count, np.random.default_rng(seed), sigma)


def climb(x: Chromosome, fitness_fn, moves, sizes=None, max_instances=10):
    best, best_f = local_search(pop(x), fitness_fn(x), batched(fitness_fn, sizes), moves, max_instances)
    return best.chromosomes()[0], best_f


class TestLocalSearch:
    def test_no_improvement_returns_input(self):
        x = chromo([[1, 0], [0, 1]])
        best, best_f = climb(x, lambda c: 0.0, moves(x, 5, seed=0))
        assert same(best, x) and best_f == 0.0

    def test_never_worse_than_input(self):
        rng = np.random.default_rng(13)
        for x in random_rows(rng, 20, 2, 2).chromosomes():

            def noisy_fitness(c):
                return float(np.sum(c.placement) * 0.1 + c.quota.sum())

            _, f1 = climb(x, noisy_fitness, _draw_moves((2, 2), 8, rng, 0.05))
            assert f1 <= noisy_fitness(x)

    def test_reaches_single_gene_optimum(self):
        # convex landscape in one placement gene: optimum at placement[0,0] == 3
        def fitness_fn(c):
            return float((c.placement[0, 0] - 3) ** 2)

        x = chromo([[6, 1], [0, 1]])
        exhaustive_best = min(fitness_fn(chromo([[v, 1], [0, 1]])) for v in range(0, 10))
        sizes: list[int] = []
        best, best_f = climb(x, fitness_fn, moves(x, 60, seed=3), sizes)
        assert best_f == exhaustive_best == 0.0
        assert best.placement[0, 0] == 3
        # one batch per LOOKAHEAD steps, each at most the 2^L - 1 tree
        assert len(sizes) == 60 // LOOKAHEAD
        assert max(sizes) <= 2**LOOKAHEAD - 1

    def test_budget_must_be_positive(self):
        x = chromo([[1, 0], [0, 1]])
        assert moves(x, 0, seed=0) == []
        with pytest.raises(ValueError):
            climb(x, lambda c: 0.0, [])


class TestRefinement:
    def test_zero_delta_reward_is_zero(self):
        assert refine_reward(0.0, 0.0, 0.0) == 0.0

    def test_direct_reward_arithmetic(self):
        assert refine_reward(0.05, 0.0, 0.0) == pytest.approx(0.05)
        assert refine_reward(0.05, 0.3, 2.0) == pytest.approx(0.05 + 0.5 * 0.3 - 0.2 * 2.0)

    def test_zero_record_leaves_chromosome_unchanged(self):
        x = chromo([[1, 0], [0, 1]], quota=(0.5, 0.5), priority=(0.5, 0.5))
        records = {
            "delta": np.ones((1, 2), dtype=int),  # maps to 0 delta
            "priority": np.zeros((1, 2)),  # sigmoid(0) = 0.5 = current value
            "quota": np.zeros((1, 2)),
            "migration": np.array([[0]]),
        }
        refined, magnitude = apply_records(records, pop(x), 3)
        assert same(refined.chromosomes()[0], x)
        assert magnitude.tolist() == [0.0]

    def test_refined_always_satisfies_invariants(self):
        rng = np.random.default_rng(14)
        records = {
            "delta": rng.integers(0, 3, size=(100, 2)),
            "priority": rng.normal(size=(100, 2)),
            "quota": rng.normal(size=(100, 2)),
            "migration": rng.integers(0, 3, size=(100, 1)),
        }
        refined, _ = apply_records(records, random_rows(rng, 100, 2, 2), 3)
        assert all(satisfies_invariants(c) for c in refined.chromosomes())

    def test_additions_spread_over_the_least_committed_nodes(self):
        # four services each add one instance, in service order: each goes to
        # the node with the fewest instances so far, the lower index on a tie
        x = chromo([[1, 0], [1, 0], [0, 1], [0, 1]], quota=(0.1,) * 4, priority=(0.5,) * 4)
        records = {
            "delta": np.full((1, 4), 2), "priority": np.zeros((1, 4)),
            "quota": np.zeros((1, 4)), "migration": np.array([[0]]),
        }
        refined, magnitude = apply_records(records, pop(x), 3)
        assert refined.placement[0].tolist() == [[2, 0], [1, 1], [1, 1], [0, 2]]
        assert magnitude[0] == pytest.approx(4.0 + 4 * 0.2 * 0.4)

    def test_full_cells_take_no_instance(self):
        # every node already holds max_instances of service 0: its addition
        # and a migration to it are dropped, service 1 still grows
        x = chromo([[2, 2], [1, 0]], quota=(0.1, 0.1))
        records = {
            "delta": np.array([[2, 2]]), "priority": np.zeros((1, 2)),
            "quota": np.zeros((1, 2)), "migration": np.array([[1]]),
        }
        refined, _ = apply_records(records, pop(x), 2)
        assert refined.placement[0].tolist() == [[2, 2], [1, 1]]


class TestRepair:
    def test_every_service_keeps_an_instance(self):
        x = chromo([[0, 0], [1, 0]])
        assert satisfies_invariants(repair(pop(x)).chromosomes()[0])

    def test_quota_commitment_scaled_down(self):
        (x,) = repair(pop(chromo([[3, 0], [2, 0]], quota=(0.4, 0.4)))).chromosomes()
        commit = x.placement.T.astype(float) @ x.quota
        assert commit.max() <= 1.0 + 1e-9

    def test_infeasible_floor_raises(self):
        with pytest.raises(ConfigError, match="quota floor"):
            repair(pop(chromo([[60, 0], [50, 0]])))


class TestMaxInstancesBound:
    def test_worst_case_within_the_floor_budget_is_accepted(self):
        check_max_instances(12, 8)  # 8 services x 12 x 0.01 = 0.96
        check_max_instances(100, 1)

    @pytest.mark.parametrize("cap, services, largest", [(13, 8, 12), (20, 8, 12), (4, 30, 3), (2, 60, 1)])
    def test_larger_cap_names_the_largest_accepted(self, cap, services, largest):
        with pytest.raises(ConfigError, match=f"largest accepted value is {largest}$"):
            check_max_instances(cap, services)
        check_max_instances(largest, services)

    def test_scheduler_rejects_cap_when_built(self):
        scenario = WorkloadScenario(base_rate=40.0, peak_rate=120.0, horizon=60, seed=3)
        topology = toy_topology()
        config = HybridConfig(max_instances=51)  # 2 services x 51 x 0.01 > 1
        with pytest.raises(ConfigError, match="largest accepted value is 50"):
            HybridScheduler(scenario=scenario, topology=topology, config=config)


class TestHybridScheduling:
    def small_config(self, **kw) -> HybridConfig:
        cfg = dict(
            population=8, elite=2, max_iter=4, seed=3, eval_ticks=30,
            local_search_budget=2, convergence_window=10,
        )
        cfg.update(kw)
        return HybridConfig(**cfg)

    def test_single_iteration_returns_best_of_initial_population(self):
        result = hybrid_scheduling(
            toy_scenario(), toy_topology(), self.small_config(max_iter=1)
        )
        assert len(result.trace) == 1
        assert np.isfinite(result.best_fitness)
        assert satisfies_invariants(result.best)

    def test_best_fitness_trace_monotone_nonincreasing(self):
        result = hybrid_scheduling(
            toy_scenario(), toy_topology(), self.small_config(max_iter=6)
        )
        fits = [t.best_fitness for t in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(fits, fits[1:]))

    def test_population_size_tracks_target_each_generation(self, monkeypatch):
        # every generation breeds exactly population - elite offspring, for
        # an even and an odd offspring count
        import tradesim.hybrid as hybrid_module

        bred: list[int] = []
        breed = hybrid_module._breed

        def spy(*args, **kwargs):
            out = breed(*args, **kwargs)
            bred.append(len(out[0]))
            return out

        monkeypatch.setattr(hybrid_module, "_breed", spy)
        for elite in (2, 3):
            bred.clear()
            config = self.small_config(max_iter=6, elite=elite)
            hybrid_scheduling(toy_scenario(), toy_topology(), config)
            assert bred == [config.population - config.elite] * config.max_iter

    def test_population_size_exact_without_adaptation(self):
        for elite in (2, 3):
            config = self.small_config(max_iter=5, elite=elite)
            result = hybrid_scheduling(toy_scenario(), toy_topology(), config)
            assert len(result.population) == config.population

    def test_rates_within_bounds_each_generation(self):
        result = hybrid_scheduling(
            toy_scenario(), toy_topology(), self.small_config(max_iter=5)
        )
        for t in result.trace:
            assert 0.3 - 1e-9 <= t.pc_mean <= 0.9 + 1e-9
            assert 0.03 - 1e-9 <= t.pm_mean <= 0.1 + 1e-9

    def test_determinism_fixed_seed(self):
        a = hybrid_scheduling(toy_scenario(), toy_topology(), self.small_config())
        b = hybrid_scheduling(toy_scenario(), toy_topology(), self.small_config())
        assert a.best_fitness == b.best_fitness
        assert same(a.best, b.best)
        assert [t.best_fitness for t in a.trace] == [t.best_fitness for t in b.trace]

    def test_toy_instance_matches_exhaustive_search(self):
        # frozen continuous genes: GA explores placements only, so the
        # exhaustive enumeration over the same grid is a true optimum oracle
        scenario = toy_scenario(rate=80.0)
        topology = toy_topology(node_cpu=600.0)
        weights = FitnessWeights(T_max=300.0)
        evaluator = RolloutEvaluator(scenario, topology, weights, eval_ticks=30)

        quota = (0.2, 0.2)  # max 4-instance commit stays feasible: no repairs
        priority = (0.5, 0.5)
        best_exhaustive = float("inf")
        for p00 in range(0, 3):
            for p01 in range(0, 3):
                for p10 in range(0, 3):
                    for p11 in range(0, 3):
                        cand = chromo([[p00, p01], [p10, p11]], quota, priority)
                        if not satisfies_invariants(cand):
                            continue
                        if cand.placement.max() > 2:
                            continue
                        f = fitness_from_metrics(
                            *(lambda m: (m.T, m.U, m.L))(evaluator.metrics(cand)), weights
                        )
                        best_exhaustive = min(best_exhaustive, f)

        config = HybridConfig(
            population=14, elite=2, max_iter=30, seed=1, eval_ticks=30,
            mutation_sigma=0.0, max_instances=2, local_search_budget=8,
            rl_refinement=False, convergence_window=40,
        )
        rng = np.random.default_rng(1)
        init = [
            chromo(rng.integers(0, 3, size=(2, 2)), quota, priority)
            for _ in range(config.population)
        ]
        result = hybrid_scheduling(
            scenario, topology, config, weights, initial_population=init
        )
        assert result.best_fitness <= best_exhaustive + 1e-9

    def test_infeasible_config_rejected(self):
        with pytest.raises(ConfigError):
            HybridConfig(population=4, elite=4)


class TestRollingHorizon:
    """HybridScheduler carries the policy, its Adam state and the elites from
    one decision to the next, and a warm decision runs half the generations."""

    def decide_three_times(self, monkeypatch, max_iter=4):
        calls = []

        def spy(scenario, topology, config, **kwargs):
            adam = kwargs["adam_state"]
            call = dict(config=config, kwargs=kwargs, t_in=None if adam is None else adam.t)
            call["result"] = result = hybrid_scheduling(scenario, topology, config, **kwargs)
            call["t_out"] = result.adam_state.t
            calls.append(call)
            return result

        monkeypatch.setattr(baselines_module, "hybrid_scheduling", spy)
        config = HybridConfig(
            population=8, elite=2, max_iter=max_iter, seed=3, eval_ticks=30,
            local_search_budget=2, convergence_window=10,
        )
        scenario, topology = toy_scenario(), toy_topology()
        scheduler = HybridScheduler(scenario=scenario, topology=topology, config=config)
        sim = ClusterSim(topology, seed=0)
        actions, currents = [], []
        for tick in range(0, 30, 10):
            currents.append(chromo(sim.placement.copy(), sim.quota.copy(), sim.priority.copy()))
            actions.append(scheduler.decide(sim, sim.service_rho(), tick))
            for t in range(tick, tick + 10):
                action = actions[-1] if t == tick else sim.no_op_action()
                sim.step_counts(action, generate_tick_counts(scenario, t))
        return calls, actions, currents

    def test_second_decision_continues_policy_and_adam_state(self, monkeypatch):
        first, second, third = self.decide_three_times(monkeypatch)[0]
        assert first["kwargs"]["policy_params"] is None and first["t_in"] is None
        for previous, call in ((first, second), (second, third)):
            assert call["kwargs"]["policy_params"] is previous["result"].params
            assert call["kwargs"]["adam_state"] is previous["result"].adam_state
            assert call["t_in"] == previous["t_out"]
        assert 0 < first["t_out"] < second["t_out"]

    def test_warm_population_is_current_configuration_plus_carried_elites(self, monkeypatch):
        calls, _, currents = self.decide_three_times(monkeypatch)
        for call, current in zip(calls, currents):
            assert same(call["kwargs"]["initial_population"][0], current)
        assert len(calls[0]["kwargs"]["initial_population"]) == 1
        for previous, call in zip(calls, calls[1:]):
            _, *carried = call["kwargs"]["initial_population"]
            result = previous["result"]
            expected = [result.best, *result.population[: call["config"].elite]]
            assert len(carried) == len(expected)
            assert all(c is e for c, e in zip(carried, expected))

    @pytest.mark.parametrize("max_iter, warm", [(4, 2), (5, 2), (1, 1), (2, 1)])
    def test_warm_decisions_run_half_the_generations(self, monkeypatch, max_iter, warm):
        calls = self.decide_three_times(monkeypatch, max_iter=max_iter)[0]
        assert [c["config"].max_iter for c in calls] == [max_iter, warm, warm]
        assert [len(c["result"].trace) for c in calls] == [max_iter, warm, warm]
        assert [c["config"].seed for c in calls] == [3, 4, 5]

    def test_repeated_run_is_byte_identical(self, monkeypatch):
        runs = [self.decide_three_times(monkeypatch)[1] for _ in range(2)]
        for a, b in zip(*runs):
            for name in ("instance_delta", "migration", "priority", "quota"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
