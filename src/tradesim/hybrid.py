"""Hybrid GA+RL scheduler: adaptive crossover/mutation rates, elite
preservation, non-dominated pre-filtering, policy-guided elite refinement and
local search over cluster configurations, with a fixed population size.

Fitness is the weighted cost  w1*T/Tmax + w2*(1-U/Umax) + w3*(1-L/Lmax),
minimized. The adaptive-rate formulas consume quality values (negated cost)
so that better candidates receive the protective low rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import QUOTA_FLOOR, ClusterTopology, node_commit, rollout_batch
from .errors import ConfigError
from .optim import AdamSpec, AdamState, adam_init, adam_step, sigmoid
from .workload import WorkloadScenario, generate_tick_counts

INFEASIBLE = float("inf")

LOOKAHEAD = 2  # local-search steps whose accept/reject tree rolls out in one batch

TOURNAMENT = 2  # uniform draws per tournament pick

CONVERGENCE_EPS = 1e-4  # best-fitness gain over the convergence window that counts as none

# refinement reward: alpha * performance gain (fitness improvement) + beta *
# resource-efficiency gain (utilization increase) - gamma * action-magnitude cost
REFINE_ALPHA, REFINE_BETA, REFINE_GAMMA_COST = 1.0, 0.5, 0.2

REFINE_LR = 1e-3  # the refinement policy's Adam learning rate


@dataclass
class Chromosome:
    placement: np.ndarray  # (k, n) instance counts
    quota: np.ndarray  # (k,) per-instance fraction of node CPU
    priority: np.ndarray  # (k,)

    def copy(self) -> "Chromosome":
        return Chromosome(self.placement.copy(), self.quota.copy(), self.priority.copy())

    def genes(self) -> int:
        return self.placement.size + self.quota.size + self.priority.size

    def equals(self, other: "Chromosome") -> bool:
        return (
            np.array_equal(self.placement, other.placement)
            and np.array_equal(self.quota, other.quota)
            and np.array_equal(self.priority, other.priority)
        )


def repair(chromo: Chromosome) -> Chromosome:
    """Enforce invariants in place: >=1 instance per service, quotas in
    (0, 1], priorities in [0, 1], per-node quota commitment <= 1."""
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


def satisfies_invariants(chromo: Chromosome) -> bool:
    return (
        np.all(chromo.placement >= 0)
        and np.all(chromo.placement.sum(axis=1) >= 1)
        and np.all((chromo.quota > 0) & (chromo.quota <= 1))
        and np.all((chromo.priority >= 0) & (chromo.priority <= 1))
        and node_commit(chromo.placement, chromo.quota).max() <= 1.0 + 1e-9
    )


@dataclass(frozen=True)
class FitnessWeights:
    w1: float = 0.4
    w2: float = 0.35
    w3: float = 0.25
    T_max: float = 500.0  # ms normalizer
    U_max: float = 1.0
    L_max: float = 1.0

    def __post_init__(self) -> None:
        if min(self.w1, self.w2, self.w3) < 0:
            raise ConfigError("fitness weights must be >= 0")
        if min(self.T_max, self.U_max, self.L_max) <= 0:
            raise ConfigError("normalizers must be > 0")


def fitness_from_metrics(T: float, U: float, L: float, w: FitnessWeights) -> float:
    """Weighted scheduling cost; lower is better. Non-finite metrics are infeasible."""
    if not (np.isfinite(T) and np.isfinite(U) and np.isfinite(L)):
        return INFEASIBLE
    u = min(U, w.U_max)
    l = min(max(L, 0.0), w.L_max)
    return w.w1 * (T / w.T_max) + w.w2 * (1.0 - u / w.U_max) + w.w3 * (1.0 - l / w.L_max)


def adaptive_rates(f_prime: float, f_avg: float, f_max: float) -> tuple[float, float]:
    """Adaptive crossover/mutation rates on quality values (higher = better).

    P_c = 0.9 - 0.6*(f'-f_avg)/(f_max-f_avg), P_m = 0.1 - 0.07*(same ratio);
    ratio clamps to [0, 1], and a degenerate population (f_max == f_avg)
    keeps the exploratory (0.9, 0.1).
    """
    if f_max < f_avg:
        raise ValueError(f"f_max {f_max} < f_avg {f_avg}")
    if f_max == f_avg:
        return 0.9, 0.1
    ratio = min(max((f_prime - f_avg) / (f_max - f_avg), 0.0), 1.0)
    # scaled integer form keeps the endpoint rate values exact in floats
    return (9.0 - 6.0 * ratio) / 10.0, (10.0 - 7.0 * ratio) / 100.0


def refine_reward(perf_gain: float, efficiency_gain: float, cost: float) -> float:
    return REFINE_ALPHA * perf_gain + REFINE_BETA * efficiency_gain - REFINE_GAMMA_COST * cost


# --- rollout evaluation --------------------------------------------------------


@dataclass
class RolloutMetrics:
    T: float  # mean completed-request latency, ms
    U: float  # mean node CPU utilization
    L: float  # load-balance degree = 1 - cv(node work)
    final_state: object = None


class RolloutEvaluator:
    """Pure fitness: every candidate rolls out through the same scenario slice
    with its configuration held, no latency jitter and no observation noise.
    The candidates of a batch are stepped together by one call of the batched
    kernel (`cluster.rollout_batch`); results are memoized by chromosome, so a
    duplicate or repeated candidate never rolls out twice."""

    def __init__(
        self,
        scenario: WorkloadScenario,
        topology: ClusterTopology,
        weights: FitnessWeights,
        eval_ticks: int = 120,
        start_tick: int = 0,
    ):
        if eval_ticks < 1:
            raise ConfigError("eval_ticks must be >= 1")
        self.scenario = scenario
        self.topology = topology
        self.weights = weights
        self.eval_ticks = eval_ticks
        self.start_tick = start_tick
        self._arrivals: np.ndarray | None = None
        self._memo: dict[tuple, RolloutMetrics] = {}

    def arrivals(self) -> np.ndarray:
        """(eval_ticks, k) request counts per tick, shared by every rollout;
        ticks past the scenario horizon repeat its last tick."""
        if self._arrivals is None:
            last = self.scenario.horizon - 1
            self._arrivals = np.stack([
                generate_tick_counts(self.scenario, min(self.start_tick + t, last))
                for t in range(self.eval_ticks)
            ])
        return self._arrivals

    def metrics(self, chromo: Chromosome) -> RolloutMetrics:
        return self.metrics_batch([chromo])[0]

    def metrics_batch(self, chromos: list[Chromosome]) -> list[RolloutMetrics]:
        """Metrics of each chromosome; the memo misses roll out as one batch."""
        keys = [
            (c.placement.tobytes(), c.quota.tobytes(), c.priority.tobytes()) for c in chromos
        ]
        misses: dict[tuple, Chromosome] = {}
        for key, chromo in zip(keys, chromos):
            if key not in self._memo:
                misses.setdefault(key, chromo)
        if misses:
            self._memo.update(zip(misses, self._rollouts(list(misses.values()))))
        return [self._memo[key] for key in keys]

    def _rollouts(self, chromos: list[Chromosome]) -> list[RolloutMetrics]:
        batch = rollout_batch(
            self.topology,
            np.stack([c.placement for c in chromos]),
            np.stack([c.quota for c in chromos]),
            np.stack([c.priority for c in chromos]),
            self.arrivals(),
        )
        out = []
        for p, state in enumerate(batch.final_states):
            completed = float(batch.completed[p])
            T = float(batch.latency_sum[p]) / completed if completed else 0.0
            U = float(batch.util_sum[p]) / self.eval_ticks
            node_work = batch.node_work[p]
            mean_work = node_work.mean()
            cv = float(node_work.std() / mean_work) if mean_work > 0 else 0.0
            out.append(RolloutMetrics(T=T, U=U, L=max(0.0, 1.0 - cv), final_state=state))
        return out

    def fitness_batch(self, chromos: list[Chromosome]) -> list[float]:
        return [
            fitness_from_metrics(m.T, m.U, m.L, self.weights)
            for m in self.metrics_batch(chromos)
        ]


# --- GA operators ---------------------------------------------------------------


def random_chromosome(
    rng: np.random.Generator, k: int, n: int, max_instances: int = 3
) -> Chromosome:
    placement = rng.integers(0, max_instances + 1, size=(k, n))
    chromo = Chromosome(
        placement=placement.astype(int),
        quota=rng.uniform(QUOTA_FLOOR, 0.5, size=k),
        priority=rng.uniform(0.0, 1.0, size=k),
    )
    return repair(chromo)


def _tournament_index(fitnesses: np.ndarray, size: int, rng: np.random.Generator) -> int:
    """Index of the best of `size` uniform draws (with replacement)."""
    picks = rng.integers(0, len(fitnesses), size=size)
    return int(picks[np.argmin(fitnesses[picks])])


def crossover(
    a: Chromosome, b: Chromosome, p_c: float, rng: np.random.Generator
) -> tuple[Chromosome, Chromosome]:
    """Uniform per-gene crossover with probability p_c, else plain copies."""
    c1, c2 = a.copy(), b.copy()
    if rng.random() < p_c:
        for attr in ("placement", "quota", "priority"):
            ga, gb = getattr(c1, attr), getattr(c2, attr)
            swap = rng.random(ga.shape) < 0.5
            ga[swap], gb[swap] = gb[swap], ga[swap].copy()
    return repair(c1), repair(c2)


def _step_placement(
    placement: np.ndarray, idx: int, step: int, max_instances: int | None
) -> bool:
    """Move flat placement cell `idx` one instance in direction `step`, or the
    other way where that is infeasible: grow when removal would empty the cell
    or leave the service without an instance, shrink at `max_instances`.
    Returns False, changing nothing, when neither direction is feasible."""
    flat = placement.reshape(-1)
    row = placement[idx // placement.shape[1]]
    if step < 0 and (flat[idx] == 0 or row.sum() <= 1):
        step = 1
    if step > 0 and max_instances is not None and flat[idx] >= max_instances:
        if flat[idx] == 0 or row.sum() <= 1:
            return False
        step = -1
    flat[idx] += step
    return True


def mutate(
    x: Chromosome,
    p_m: float,
    rng: np.random.Generator,
    sigma: float = 0.05,
    max_instances: int | None = None,
) -> Chromosome:
    """Independent per-gene perturbation: placement +-1 (feasible direction,
    honoring the per-cell cap), continuous genes take a Gaussian step of
    scale sigma."""
    out = x.copy()
    hit = rng.random(out.placement.size) < p_m
    if hit.any():
        signs = np.where(rng.random(hit.size) < 0.5, -1, 1)
        for idx in np.flatnonzero(hit):
            _step_placement(out.placement, idx, signs[idx], max_instances)
    for attr in ("quota", "priority"):
        arr = getattr(out, attr)
        hit = rng.random(arr.size) < p_m
        arr[hit] += sigma * rng.standard_normal(int(hit.sum()))
    return repair(out)


def select_top_k(fitnesses: np.ndarray, k: int) -> list[int]:
    """Indices of the k lowest fitnesses, ties broken by insertion order."""
    if k > len(fitnesses):
        raise ValueError(f"k={k} exceeds population size {len(fitnesses)}")
    return [int(i) for i in np.argsort(fitnesses, kind="stable")[:k]]


def non_dominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Pareto fronts over rows of (T, -U, -L)-style minimization objectives."""
    obj = np.asarray(objectives, dtype=float)
    if not np.all(np.isfinite(obj)):
        raise ValueError("objectives must be finite")
    n = len(obj)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    for i in range(n):
        le_i = np.all(obj[i] <= obj, axis=1)
        lt_i = np.any(obj[i] < obj, axis=1)
        dominates = le_i & lt_i  # i dominates j
        for j in np.flatnonzero(dominates):
            dominated_by[i].append(int(j))
        domination_count += dominates
    fronts: list[list[int]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        nxt: list[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = sorted(nxt)
    return fronts


def _draw_moves(
    x: Chromosome, count: int, rng: np.random.Generator, sigma: float
) -> list[tuple[int, float]]:
    """The next `count` single-gene moves of the hill-climb: a flat gene index
    with a direction of -1/+1 for a placement cell, or a Gaussian step for a
    quota or priority. No draw depends on the incumbent."""
    genes, cells = x.genes(), x.placement.size
    moves = []
    for _ in range(count):
        idx = int(rng.integers(genes))
        if idx < cells:
            moves.append((idx, -1 if rng.random() < 0.5 else 1))
        else:
            moves.append((idx, sigma * rng.standard_normal()))
    return moves


def _neighbor(
    x: Chromosome, move: tuple[int, float], max_instances: int | None
) -> Chromosome | None:
    """x with one move applied and repaired; None where the placement cell
    can move neither way."""
    idx, step = move
    cand = x.copy()
    cells, k = cand.placement.size, cand.quota.size
    if idx < cells:
        if not _step_placement(cand.placement, idx, step, max_instances):
            return None
    elif idx < cells + k:
        cand.quota[idx - cells] += step
    else:
        cand.priority[idx - cells - k] += step
    return repair(cand)


def _move_tree(
    x: Chromosome, moves: list[tuple[int, float]], max_instances: int | None
) -> tuple[list[list[Chromosome | None]], list[Chromosome]]:
    """The accept/reject tree of hill-climb moves from incumbent x.

    Level j holds the candidate of move j from each incumbent the climb can
    hold before it; incumbent i of a level has children 2i (reject: i again)
    and 2i+1 (accept: its candidate). A move that cannot apply gives None,
    and so does every move from an incumbent that cannot exist. Returns the
    levels and their candidates in level order."""
    incumbents: list[Chromosome | None] = [x]
    levels = []
    for move in moves:
        level = [None if c is None else _neighbor(c, move, max_instances) for c in incumbents]
        levels.append(level)
        incumbents = [b for c, cand in zip(incumbents, level) for b in (c, cand)]
    return levels, [c for level in levels for c in level if c is not None]


def local_search(
    x: Chromosome,
    fitness_batch,
    moves: list[tuple[int, float]],
    fitness_x: float | None = None,
    max_instances: int | None = None,
) -> tuple[Chromosome, float]:
    """Hill-climb over single-gene neighbors, one step per move of `moves`
    (drawn by `_draw_moves`); never returns a worse solution.

    Every LOOKAHEAD moves, the candidates of their accept/reject tree are
    evaluated by one `fitness_batch` call (a list of chromosomes to a list of
    fitnesses), and the climb walks the path a step-by-step climb would take:
    the same comparisons and the same result."""
    if not moves:
        raise ValueError("local search needs at least one move")
    best = x.copy()
    best_f = fitness_x
    for start in range(0, len(moves), LOOKAHEAD):
        levels, candidates = _move_tree(best, moves[start : start + LOOKAHEAD], max_instances)
        batch = candidates if best_f is not None else [best] + candidates
        fits = iter(fitness_batch(batch) if batch else [])
        if best_f is None:
            best_f = next(fits)
        node = 0
        for level in levels:
            level_f = [None if c is None else next(fits) for c in level]
            cand, f = level[node], level_f[node]
            accept = cand is not None and f < best_f
            if accept:
                best, best_f = cand, f
            node = 2 * node + accept
    return best, best_f


# --- RL refinement ---------------------------------------------------------------


def apply_record_to_chromosome(
    record: dict[str, np.ndarray], chromo: Chromosome
) -> tuple[Chromosome, float]:
    """Delta-action on top of a chromosome; returns (refined, action magnitude).

    Instance deltas add/remove instances; the squashed continuous heads pull
    quota/priority a fifth of the way toward the emitted values; a migration
    choice moves one instance of the chosen service toward its least-committed
    node.
    """
    out = chromo.copy()
    delta = record["delta"].astype(int) - 1
    magnitude = float(np.abs(delta).sum())
    for s in np.flatnonzero(delta != 0):
        d = int(delta[s])
        if d > 0:
            out.placement[s, int(np.argmin(out.placement.sum(axis=0)))] += 1
        elif out.placement[s].sum() > 1:
            out.placement[s, int(np.argmax(out.placement[s]))] -= 1
    for name, attr in (("priority", "priority"), ("quota", "quota")):
        target = sigmoid(record[name])
        arr = getattr(out, attr)
        change = 0.2 * (target - arr)
        magnitude += float(np.abs(change).sum()) if attr == "quota" else 0.0
        setattr(out, attr, arr + change)

    choice = int(record["migration"][0]) if "migration" in record else 0
    if choice > 0:
        service = int(np.argsort(-out.placement.sum(axis=1), kind="stable")[(choice - 1) % out.placement.shape[0]])
        src = int(np.argmax(out.placement[service]))
        dst = int(np.argmin(out.placement.sum(axis=0)))
        if src != dst and out.placement[service, src] > 0:
            out.placement[service, src] -= 1
            out.placement[service, dst] += 1
            magnitude += 1.0
    return repair(out), magnitude


@dataclass
class RefineStats:
    attempted: int = 0
    improved: int = 0
    discarded_nonfinite: int = 0


@dataclass
class Refinement:
    """One elite's proposed transition: the policy's input and sampled
    delta-action, and the chromosome the action gives (None where it leaves
    the elite unchanged)."""

    features: np.ndarray
    record: dict[str, np.ndarray]
    candidate: Chromosome | None
    magnitude: float


def propose_refinements(
    elite: list[Chromosome],
    elite_metrics: list[RolloutMetrics],
    core,
    params,
    encoder,
    rng: np.random.Generator,
) -> list[Refinement]:
    """The policy acts once for every elite, in order, all with `params`."""
    proposals = []
    for chromo, m in zip(elite, elite_metrics):
        features = encoder.encode(m.final_state)
        record, _ = core.act(params, features, "sample", rng)
        candidate, magnitude = apply_record_to_chromosome(record, chromo)
        proposals.append(
            Refinement(features, record, None if candidate.equals(chromo) else candidate, magnitude)
        )
    return proposals


def rl_refine(
    elite: list[Chromosome],
    elite_fitness: list[float],
    elite_metrics: list[RolloutMetrics],
    proposals: list[Refinement],
    core,
    params,
    adam_state,
    evaluator: RolloutEvaluator,
) -> tuple[list[Chromosome], list[float], dict, RefineStats]:
    """One batched REINFORCE step (Williams, 1992) over the elite set.

    The candidates of `proposals` roll out in one `metrics_batch` call (all
    memo hits when the GA rolled them out already). Each candidate is one
    transition; a transition whose reward is not finite is discarded. The
    policy makes one Adam step on the mean gradient of -reward * logp over
    the rest, and a candidate replaces its elite only when its fitness
    improved.
    """
    stats = RefineStats(attempted=len(proposals))
    refined, refined_fitness = list(elite), list(elite_fitness)
    changed = [i for i, p in enumerate(proposals) if p.candidate is not None]
    new_metrics = evaluator.metrics_batch([proposals[i].candidate for i in changed])
    used: list[Refinement] = []
    rewards: list[float] = []
    for i, m_new in zip(changed, new_metrics):
        p, f_old = proposals[i], elite_fitness[i]
        f_new = fitness_from_metrics(m_new.T, m_new.U, m_new.L, evaluator.weights)
        reward = refine_reward(f_old - f_new, m_new.U - elite_metrics[i].U, p.magnitude)
        if not np.isfinite(reward):
            stats.discarded_nonfinite += 1
            continue
        used.append(p)
        rewards.append(reward)
        if f_new < f_old:
            refined[i], refined_fitness[i] = p.candidate, f_new
            stats.improved += 1
    if used:
        records = {name: np.stack([p.record[name] for p in used]) for name in used[0].record}
        _, cache = core.log_prob(params, np.stack([p.features for p in used]), records)
        grads = core.logp_backward(params, cache, -np.array(rewards) / len(used))
        params = adam_step(params, grads, adam_state, AdamSpec(learning_rate=REFINE_LR))
    return refined, refined_fitness, params, stats


# --- the full loop ----------------------------------------------------------------


@dataclass(frozen=True)
class HybridConfig:
    """The hybrid scheduler's settings; the defaults are the CLI's."""

    population: int = 10
    elite: int = 2
    max_iter: int = 4
    seed: int = 0
    eval_ticks: int = 30
    mutation_sigma: float = 0.05
    local_search_budget: int = 2
    convergence_window: int = 3
    max_instances: int = 3
    rl_refinement: bool = True

    def __post_init__(self) -> None:
        if min(self.max_iter, self.eval_ticks) < 1:
            raise ConfigError("max_iter and eval_ticks must be >= 1")
        if self.max_instances < 1:
            raise ConfigError("max_instances must be >= 1")
        if self.local_search_budget < 0:
            raise ConfigError("local_search_budget must be >= 0 (0 turns local search off)")
        if self.convergence_window < 1:
            raise ConfigError("convergence_window must be >= 1")
        if self.elite < 1 or self.elite >= self.population:
            raise ConfigError("need 1 <= elite < population")


@dataclass
class GenerationTrace:
    generation: int
    best_fitness: float  # best seen so far (monotone)
    gen_best_fitness: float
    mean_fitness: float
    pc_mean: float
    pm_mean: float


@dataclass
class HybridResult:
    best: Chromosome
    best_fitness: float
    trace: list[GenerationTrace]
    refine_stats: RefineStats
    converged: bool
    population: list[Chromosome]  # the next generation's: the elites first, then offspring
    params: dict  # the refinement policy's, after the last Adam step
    adam_state: AdamState


def _breed(
    pool: list[Chromosome],
    pool_fitness: np.ndarray,
    count: int,
    q_avg: float,
    q_max: float,
    config: HybridConfig,
    rng: np.random.Generator,
) -> tuple[list[Chromosome], list[float], list[float]]:
    """`count` offspring of the mating pool, two per tournament pair; returns
    them with each pair's adaptive P_c and P_m."""
    offspring: list[Chromosome] = []
    pc_values: list[float] = []
    pm_values: list[float] = []
    while len(offspring) < count:
        ia = _tournament_index(pool_fitness, TOURNAMENT, rng)
        ib = _tournament_index(pool_fitness, TOURNAMENT, rng)
        q_prime = float(-min(pool_fitness[ia], pool_fitness[ib]))
        p_c, p_m = adaptive_rates(q_prime, q_avg, q_max)
        pc_values.append(p_c)
        pm_values.append(p_m)
        c1, c2 = crossover(pool[ia], pool[ib], p_c, rng)
        offspring.append(mutate(c1, p_m, rng, config.mutation_sigma, config.max_instances))
        if len(offspring) < count:
            offspring.append(mutate(c2, p_m, rng, config.mutation_sigma, config.max_instances))
    return offspring, pc_values, pm_values


def hybrid_scheduling(
    scenario: WorkloadScenario,
    topology: ClusterTopology,
    config: HybridConfig,
    weights: FitnessWeights | None = None,
    initial_population: list[Chromosome] | None = None,
    start_tick: int = 0,
    policy_params=None,
    adam_state: AdamState | None = None,
) -> HybridResult:
    """Full optimization loop: evaluate, adapt rates, preserve+refine elites,
    breed offspring, iterate to convergence or the iteration cap.

    Each generation makes all of its random draws first (the policy's actions,
    local search's moves, the offspring), then rolls out every candidate it
    can need in one `metrics_batch` call, then refines, climbs and selects
    from the memo. Only a local-search tree past the first LOOKAHEAD moves
    rolls out on its own.

    `policy_params` and `adam_state` continue the refinement policy and its
    optimizer from an earlier run (`adam_state` is updated in place); the
    result carries both, with the population the next generation would have
    evaluated."""
    from .drl.policy import PolicyCore, StateEncoder, cluster_layout

    weights = weights or FitnessWeights()
    k, n = topology.service_count, topology.node_count
    rng = np.random.default_rng([config.seed, 0xA11CE])
    evaluator = RolloutEvaluator(scenario, topology, weights, config.eval_ticks, start_tick)

    encoder = StateEncoder(mode="full", service_count=k, node_count=n)
    core = PolicyCore(encoder.dim, cluster_layout(k), hidden=(32, 32))
    params = policy_params if policy_params is not None else core.init_params(config.seed)
    if adam_state is None:
        adam_state = adam_init(params)

    population = [repair(c.copy()) for c in (initial_population or [])[: config.population]]
    attempts = 0
    while len(population) < config.population:
        cand = random_chromosome(rng, k, n, config.max_instances)
        attempts += 1
        if satisfies_invariants(cand):
            population.append(cand)
        elif attempts > 100 * config.population:
            raise ConfigError("could not build a feasible initial population")

    best: Chromosome | None = None
    best_fitness = INFEASIBLE
    trace: list[GenerationTrace] = []
    refine_totals = RefineStats()
    best_history: list[float] = []
    converged = False

    for generation in range(config.max_iter):
        # memo hits after the first generation: the last batch rolled them out
        metrics = evaluator.metrics_batch(population)
        fitnesses = np.array(
            [fitness_from_metrics(m.T, m.U, m.L, weights) for m in metrics]
        )
        gen_best_idx = int(np.argmin(fitnesses))
        if fitnesses[gen_best_idx] < best_fitness:
            best_fitness = float(fitnesses[gen_best_idx])
            best = population[gen_best_idx].copy()
        best_history.append(best_fitness)

        # adaptive rates on quality (negated cost): best candidates protected
        quality = -fitnesses
        finite = np.isfinite(quality)
        q_avg = float(quality[finite].mean()) if finite.any() else 0.0
        q_max = float(quality[finite].max()) if finite.any() else 0.0
        q_max = max(q_max, q_avg)  # mean can exceed max by one ulp when converged

        elite_idx = select_top_k(fitnesses, config.elite)
        elite = [population[i] for i in elite_idx]
        elite_fitness = [float(fitnesses[i]) for i in elite_idx]
        elite_metrics = [metrics[i] for i in elite_idx]

        # non-dominated pre-filter of the mating pool
        objectives = np.array([[m.T, -m.U, -m.L] for m in metrics])
        fronts = non_dominated_sort(objectives)
        pool_idx: list[int] = []
        for front in fronts:
            pool_idx.extend(front)
            if len(pool_idx) >= max(len(population) // 2, 2 * config.elite):
                break

        # propose: every random draw of the generation, before any rollout
        proposals = (
            propose_refinements(elite, elite_metrics, core, params, encoder, rng)
            if config.rl_refinement else []
        )
        moves = _draw_moves(elite[0], config.local_search_budget, rng, config.mutation_sigma)
        offspring, pc_values, pm_values = _breed(
            [population[i] for i in pool_idx], fitnesses[pool_idx],
            config.population - config.elite, q_avg, q_max, config, rng,
        )

        # roll out once: the refinement candidates, local search's first move
        # tree from either incumbent it can start from, and the offspring
        batch = [p.candidate for p in proposals if p.candidate is not None]
        if moves:
            incumbents = [elite[0]]
            if proposals and proposals[0].candidate is not None:
                incumbents.append(proposals[0].candidate)
            for x in incumbents:
                batch += _move_tree(x, moves[:LOOKAHEAD], config.max_instances)[1]
        if generation < config.max_iter - 1:
            batch += offspring
        evaluator.metrics_batch(batch)

        # consume
        if config.rl_refinement:
            elite, elite_fitness, params, stats = rl_refine(
                elite, elite_fitness, elite_metrics, proposals, core, params, adam_state, evaluator
            )
            refine_totals.attempted += stats.attempted
            refine_totals.improved += stats.improved
            refine_totals.discarded_nonfinite += stats.discarded_nonfinite

        if moves:
            elite[0], elite_fitness[0] = local_search(
                elite[0], evaluator.fitness_batch, moves, fitness_x=elite_fitness[0],
                max_instances=config.max_instances,
            )

        if elite_fitness[0] < best_fitness:
            best_fitness = float(elite_fitness[0])
            best = elite[0].copy()
            best_history[-1] = best_fitness

        population = [e.copy() for e in elite] + offspring
        trace.append(
            GenerationTrace(
                generation=generation,
                best_fitness=best_fitness,
                gen_best_fitness=float(fitnesses[gen_best_idx]),
                mean_fitness=float(fitnesses[np.isfinite(fitnesses)].mean())
                if np.isfinite(fitnesses).any()
                else INFEASIBLE,
                pc_mean=float(np.mean(pc_values)),
                pm_mean=float(np.mean(pm_values)),
            )
        )

        w = config.convergence_window
        if len(best_history) > w and best_history[-w - 1] - best_history[-1] < CONVERGENCE_EPS:
            converged = True
            break

    assert best is not None
    return HybridResult(
        best, best_fitness, trace, refine_totals, converged, population, params, adam_state
    )

