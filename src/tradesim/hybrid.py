"""Hybrid GA+RL scheduler: adaptive crossover/mutation rates, elite
preservation, non-dominated pre-filtering, policy-guided elite refinement and
local search over cluster configurations, with a fixed population size.

A generation's chromosomes are held as arrays (`Population`): placement
(P, k, n), quota and priority (P, k). Repair, the random fill, tournament
selection, crossover, mutation, the non-dominated sort and local search's
neighbours each act on all rows in a few numpy calls. No operator adds an
instance to a placement cell at `max_instances`, and a scheduler whose
`max_instances` could fail repair's quota-floor check is rejected when built.

Fitness is the weighted cost  w1*T/Tmax + w2*(1-U/Umax) + w3*(1-L/Lmax),
minimized. The adaptive-rate formulas consume quality values (negated cost)
so that better candidates receive the protective low rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import QUOTA_FLOOR, ClusterTopology, SystemState, node_commit, rollout_batch
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

GENES = ("placement", "quota", "priority")


@dataclass
class Chromosome:
    placement: np.ndarray  # (k, n) instance counts
    quota: np.ndarray  # (k,) per-instance fraction of node CPU
    priority: np.ndarray  # (k,)

    def copy(self) -> "Chromosome":
        return Chromosome(self.placement.copy(), self.quota.copy(), self.priority.copy())


@dataclass
class Population:
    """P chromosomes as arrays, one row each."""

    placement: np.ndarray  # (P, k, n) int64 instance counts
    quota: np.ndarray  # (P, k)
    priority: np.ndarray  # (P, k)

    @classmethod
    def of(cls, chromos: list[Chromosome]) -> "Population":
        return cls(*(
            np.array([getattr(c, g) for c in chromos], dtype=d)
            for g, d in zip(GENES, (np.int64, float, float))
        ))

    @classmethod
    def concat(cls, parts: list["Population"]) -> "Population":
        return cls(*(np.concatenate([getattr(p, g) for p in parts]) for g in GENES))

    def __len__(self) -> int:
        return len(self.quota)

    def take(self, rows) -> "Population":
        return Population(self.placement[rows], self.quota[rows], self.priority[rows])

    def chromosomes(self) -> list[Chromosome]:
        return [Chromosome(*(getattr(self, g)[i].copy() for g in GENES)) for i in range(len(self))]

    def flat(self) -> np.ndarray:
        """(P, genes): each row's genes as floats."""
        P, k, n = self.placement.shape
        return np.concatenate(
            [self.placement.reshape(P, k * n).astype(float), self.quota, self.priority], axis=1
        )

    def keys(self) -> list[bytes]:
        """Each row's genes as bytes: equal rows, equal keys."""
        rows = self.flat()
        return rows.view(np.dtype((np.void, rows.shape[1] * 8)))[:, 0].tolist()


def _interleave(a: Population, b: Population) -> Population:
    """Rows a[0], b[0], a[1], b[1], ..."""
    return Population(*(
        np.stack([getattr(a, g), getattr(b, g)], axis=1).reshape(-1, *getattr(a, g).shape[1:])
        for g in GENES
    ))


def _floor_commit(placement: np.ndarray) -> np.ndarray:
    """(P,) the largest per-node quota commitment of each row at the quota floor."""
    return node_commit(placement, np.full(placement.shape[:-1], QUOTA_FLOOR)).max(axis=-1)


def repair(pop: Population) -> Population:
    """Enforce invariants on every row, in place: >=1 instance per service,
    quotas in (0, 1], priorities in [0, 1], per-node quota commitment <= 1."""
    placement = np.maximum(pop.placement, 0)
    for s in np.flatnonzero((placement.sum(axis=2) < 1).any(axis=0)):
        rows = np.flatnonzero(placement[:, s].sum(axis=1) < 1)
        placement[rows, s, np.argmin(placement[rows].sum(axis=1), axis=1)] = 1
    pop.placement = placement
    pop.priority = np.clip(pop.priority, 0.0, 1.0)
    if np.any(_floor_commit(placement) > 1.0):
        raise ConfigError("cannot satisfy per-node quota budget even at the quota floor")
    quota = np.clip(pop.quota, QUOTA_FLOOR, 1.0)
    # floor clipping can re-violate; iterate to feasibility on the rows still over
    rows, q, counts = np.arange(len(quota)), quota, placement
    worst = node_commit(counts, q).max(axis=-1)
    for _ in range(64):
        over = worst > 1.0
        if not over.all():
            quota[rows] = q
            rows, q, counts, worst = rows[over], q[over], counts[over], worst[over]
        if not len(rows):
            break
        q = np.maximum(q / worst[:, None], QUOTA_FLOOR)
        worst = node_commit(counts, q).max(axis=-1)
    else:
        q = np.full_like(q, QUOTA_FLOOR)
    quota[rows] = q
    pop.quota = quota
    return pop


def check_max_instances(max_instances: int, service_count: int) -> None:
    """Reject a per-cell cap at which repair can fail: the worst case puts
    `max_instances` of every service on one node."""
    def fits(cap: int) -> bool:
        return _floor_commit(np.full((1, service_count, 1), cap))[0] <= 1.0

    if fits(max_instances):
        return
    largest = min(max_instances, int(1.0 / (service_count * QUOTA_FLOOR)) + 1)
    while largest > 0 and not fits(largest):
        largest -= 1
    raise ConfigError(
        f"max_instances {max_instances}: {service_count} services at {max_instances} instances "
        f"on one node exceed its quota budget even at the quota floor {QUOTA_FLOOR}; "
        f"the largest accepted value is {largest}")


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


def fitness_from_metrics(T, U, L, w: FitnessWeights):
    """Weighted scheduling cost, elementwise over scalars or arrays; lower is
    better. Non-finite metrics are infeasible."""
    u = np.minimum(U, w.U_max)
    l = np.minimum(np.maximum(L, 0.0), w.L_max)
    cost = w.w1 * (T / w.T_max) + w.w2 * (1.0 - u / w.U_max) + w.w3 * (1.0 - l / w.L_max)
    return np.where(np.isfinite(T) & np.isfinite(U) & np.isfinite(L), cost, INFEASIBLE)[()]


def adaptive_rates(f_prime, f_avg: float, f_max: float):
    """Adaptive crossover/mutation rates on quality values (higher = better),
    elementwise over f_prime: P_c = 0.9 - 0.6*(f'-f_avg)/(f_max-f_avg),
    P_m = 0.1 - 0.07*(same ratio); the ratio clamps to [0, 1], and a
    degenerate population (f_max == f_avg) keeps the exploratory (0.9, 0.1)."""
    if f_max < f_avg:
        raise ValueError(f"f_max {f_max} < f_avg {f_avg}")
    if f_max == f_avg:
        ratio = np.zeros_like(f_prime, dtype=float)
    else:
        ratio = np.clip((np.asarray(f_prime) - f_avg) / (f_max - f_avg), 0.0, 1.0)
    # scaled integer form keeps the endpoint rate values exact in floats
    return (9.0 - 6.0 * ratio) / 10.0, (10.0 - 7.0 * ratio) / 100.0


def refine_reward(perf_gain, efficiency_gain, cost):
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
    kernel (`cluster.rollout_batch`); results are memoized by row bytes, so a
    duplicate or repeated candidate never rolls out twice. A final state is
    built only when asked for."""

    def __init__(self, scenario: WorkloadScenario, topology: ClusterTopology,
                 weights: FitnessWeights, eval_ticks: int = 120, start_tick: int = 0):
        if eval_ticks < 1:
            raise ConfigError("eval_ticks must be >= 1")
        self.scenario = scenario
        self.topology = topology
        self.weights = weights
        self.eval_ticks = eval_ticks
        self.start_tick = start_tick
        self._arrivals: np.ndarray | None = None
        self._memo: dict[bytes, int] = {}  # row key -> row of _scores and _states
        self._scores = np.empty((0, 4))  # T, U, L, fitness
        self._states: list[tuple] = []  # (final-state builder, its row)

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

    def _rows(self, pop: Population) -> np.ndarray:
        """The memo rows of pop's candidates; the misses roll out as one batch."""
        keys = pop.keys()
        misses: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self._memo:
                misses.setdefault(key, i)
        if misses:
            fresh = pop if len(misses) == len(pop) else pop.take(list(misses.values()))
            tul, state_of = self._rollouts(fresh)
            start = len(self._scores)
            self._memo.update(zip(misses, range(start, start + len(fresh))))
            fitness = fitness_from_metrics(*tul.T, self.weights)
            self._scores = np.concatenate([self._scores, np.column_stack([tul, fitness])])
            self._states += [(state_of, p) for p in range(len(fresh))]
        return np.fromiter(map(self._memo.__getitem__, keys), dtype=np.intp, count=len(keys))

    def _rollouts(self, pop: Population) -> tuple[np.ndarray, object]:
        """(len(pop), 3) T, U, L per candidate, and its final-state builder."""
        batch = rollout_batch(
            self.topology, pop.placement, pop.quota, pop.priority, self.arrivals()
        )
        zeros, done = np.zeros(len(pop)), batch.completed
        T = np.divide(batch.latency_sum, done, out=zeros.copy(), where=done > 0)
        mean_work = batch.node_work.mean(axis=1)
        cv = np.divide(batch.node_work.std(axis=1), mean_work, out=zeros, where=mean_work > 0)
        U = batch.util_sum / self.eval_ticks
        return np.column_stack([T, U, np.maximum(0.0, 1.0 - cv)]), batch.final_state

    def evaluate(self, pop: Population) -> np.ndarray:
        """(len(pop), 4): T, U, L and fitness of each row."""
        rows = self._rows(pop)  # before reading _scores, which it can replace
        return self._scores[rows]

    def fitness_batch(self, pop: Population) -> np.ndarray:
        return self.evaluate(pop)[:, 3]

    def final_states(self, pop: Population) -> list[SystemState]:
        return [state_of(p) for state_of, p in map(self._states.__getitem__, self._rows(pop))]

    def metrics(self, chromo: Chromosome) -> RolloutMetrics:
        pop = Population.of([chromo])
        T, U, L, _ = self.evaluate(pop)[0]
        return RolloutMetrics(float(T), float(U), float(L), self.final_states(pop)[0])


# --- GA operators, each over all rows ---------------------------------------------


def _tournament(fitnesses: np.ndarray, shape: tuple, rng, size: int = TOURNAMENT) -> np.ndarray:
    """Per entry of `shape`, the index of the best of `size` uniform draws
    (with replacement); ties go to the earlier draw."""
    picks = rng.integers(0, len(fitnesses), size=(*shape, size))
    best = np.argmin(fitnesses[picks], axis=-1)
    return np.take_along_axis(picks, best[..., None], axis=-1)[..., 0]


def _crossover(a: Population, b: Population, p_c: np.ndarray, rng) -> Population:
    """Uniform per-gene crossover of row pairs (a[i], b[i]) with probability
    p_c[i], else plain copies; the two children of pair i are rows 2i, 2i+1,
    not yet repaired."""
    cross = rng.random(len(a)) < p_c
    swap = {}
    for g in GENES:
        shape = getattr(a, g).shape
        swap[g] = (rng.random(shape) < 0.5) & cross.reshape(-1, *[1] * (len(shape) - 1))
    first = Population(*(np.where(swap[g], getattr(b, g), getattr(a, g)) for g in GENES))
    second = Population(*(np.where(swap[g], getattr(a, g), getattr(b, g)) for g in GENES))
    return _interleave(first, second)


def _step_cells(placement: np.ndarray, step: np.ndarray, max_instances: int) -> np.ndarray:
    """Each cell moved one instance in the direction of its step (-1, 0, +1),
    or the other way where that is infeasible (grow where removal would empty
    the cell or the service, shrink at `max_instances`); a cell that can move
    neither way stays. Feasibility is read before any cell moves."""
    stuck = (placement == 0) | (placement.sum(axis=-1, keepdims=True) <= 1)
    step = np.where((step < 0) & stuck, 1, step)
    return placement + np.where((step > 0) & (placement >= max_instances), -1 + stuck, step)


def _mutate(pop: Population, p_m: np.ndarray, rng, sigma: float, max_instances: int) -> Population:
    """Independent per-gene perturbation at row i's rate p_m[i]: a placement
    cell steps one instance (`_step_cells`), a quota or priority takes a
    Gaussian step of scale sigma."""
    rate = p_m[:, None, None]
    hit = rng.random(pop.placement.shape) < rate
    step = np.where(rng.random(hit.shape) < 0.5, -1, 1) * hit
    placement = _step_cells(pop.placement, step, max_instances)
    out = Population(placement, pop.quota.copy(), pop.priority.copy())
    for g in ("quota", "priority"):
        arr = getattr(out, g)
        hit = rng.random(arr.shape) < rate[..., 0]
        arr[hit] += sigma * rng.standard_normal(np.count_nonzero(hit))
    return repair(out)


def select_top_k(fitnesses: np.ndarray, k: int) -> list[int]:
    """Indices of the k lowest fitnesses, ties broken by insertion order."""
    if k > len(fitnesses):
        raise ValueError(f"k={k} exceeds population size {len(fitnesses)}")
    return [int(i) for i in np.argsort(fitnesses, kind="stable")[:k]]


def non_dominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Pareto fronts over rows of (T, -U, -L)-style minimization objectives,
    each front in index order, from one (P, P) domination matrix."""
    obj = np.asarray(objectives, dtype=float)
    if not np.all(np.isfinite(obj)):
        raise ValueError("objectives must be finite")
    a, b = obj[:, None], obj[None]
    dominates = np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)  # [i, j]: i dominates j
    dominated_by = dominates.sum(axis=0)
    left = np.ones(len(obj), dtype=bool)
    fronts: list[list[int]] = []
    while left.any():
        front = np.flatnonzero(left & (dominated_by == 0))
        fronts.append(front.tolist())
        left[front] = False
        dominated_by -= dominates[front].sum(axis=0)
    return fronts


def _draw_moves(shape: tuple[int, int], count: int, rng, sigma: float) -> list[tuple[int, float]]:
    """The next `count` single-gene moves of the hill-climb over chromosomes of
    (k, n) placements: a flat gene index with a direction of -1/+1 for a
    placement cell, or a Gaussian step for a quota or priority. No draw
    depends on the incumbent."""
    k, n = shape
    idx = rng.integers(k * n + 2 * k, size=count)
    direction = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    step = np.where(idx < k * n, direction, sigma * rng.standard_normal(count))
    return list(zip(idx.tolist(), step.tolist()))


def _neighbors(
    x: Population, move: tuple[int, float], max_instances: int
) -> tuple[Population, np.ndarray]:
    """Every row of x with one move applied, repaired in one call, and the
    mask of rows it applies to: a placement cell that can move neither way
    leaves its row as it was."""
    idx, step = move
    P, k, n = x.placement.shape
    out = Population(x.placement, x.quota.copy(), x.priority.copy())
    applies = np.ones(P, dtype=bool)
    if idx < k * n:
        s, j = divmod(idx, n)
        steps = np.zeros((k, n), dtype=np.int64)
        steps[s, j] = step
        out.placement = _step_cells(x.placement, steps, max_instances)
        applies = out.placement[:, s, j] != x.placement[:, s, j]
    elif idx < k * n + k:
        out.quota[:, idx - k * n] += step
    else:
        out.priority[:, idx - k * n - k] += step
    return repair(out), applies


def _move_tree(
    roots: Population, moves: list[tuple[int, float]], max_instances: int
) -> tuple[list[np.ndarray], Population]:
    """The accept/reject trees of hill-climb moves from each row of `roots`.

    Level j holds the candidate of move j from each incumbent a climb can
    hold before it, root by root; incumbent i of a level has children 2i
    (reject: i again) and 2i+1 (accept: its candidate). Returns the levels,
    each an array of candidate rows with -1 where a move cannot apply or the
    incumbent cannot exist, and the candidates in level order."""
    incumbents, valid = roots, np.ones(len(roots), dtype=bool)
    levels, found, offset = [], [], 0
    for move in moves:
        cands, applies = _neighbors(incumbents, move, max_instances)
        ok = valid & applies
        levels.append(np.where(ok, offset + np.cumsum(ok) - 1, -1))
        found.append(cands.take(ok))
        offset += len(found[-1])
        incumbents = _interleave(incumbents, cands)
        valid = np.stack([valid, ok], axis=1).reshape(-1)
    return levels, Population.concat(found)


def local_search(
    x: Population, fitness_x: float, fitness_batch, moves: list[tuple[int, float]],
    max_instances: int, first_tree: tuple | None = None,
) -> tuple[Population, float]:
    """Hill-climb of the one-row x (fitness `fitness_x`) over single-gene
    neighbours, one step per move of `moves` (drawn by `_draw_moves`); never
    returns a worse solution. Every LOOKAHEAD moves, their accept/reject tree
    (`first_tree`, where built already) is evaluated by one `fitness_batch`
    call (a Population to an array of fitnesses), and the climb walks the
    path a step-by-step climb would take, with the same result."""
    if not moves:
        raise ValueError("local search needs at least one move")
    best, best_f = x, fitness_x
    for start in range(0, len(moves), LOOKAHEAD):
        if start == 0 and first_tree is not None:
            levels, candidates = first_tree
        else:
            levels, candidates = _move_tree(best, moves[start : start + LOOKAHEAD], max_instances)
        fits = fitness_batch(candidates) if len(candidates) else np.empty(0)
        node = 0
        for level in levels:
            c = level[node]
            accept = bool(c >= 0 and fits[c] < best_f)
            if accept:
                best, best_f = candidates.take([c]), float(fits[c])
            node = 2 * node + accept
    return best, best_f


# --- RL refinement ---------------------------------------------------------------


def apply_records(
    records: dict[str, np.ndarray], elite: Population, max_instances: int
) -> tuple[Population, np.ndarray]:
    """Row i's delta-action on elite row i; returns the refined rows and each
    action's magnitude. Instance deltas remove one instance (from the
    service's fullest node, keeping one per service), then add one, service by
    service, on the least-committed node whose cell is below `max_instances`;
    quota and priority move a fifth of the way toward the squashed heads; a
    migration moves one instance of the chosen service from its fullest node
    to the least-committed node below the cap."""
    placement = elite.placement.copy()
    rows = np.arange(len(elite))
    delta = records["delta"].astype(int) - 1
    magnitude = np.abs(delta).sum(axis=1).astype(float)

    r, s = np.nonzero((delta < 0) & (placement.sum(axis=2) > 1))
    placement[r, s, np.argmax(placement[r, s], axis=1)] -= 1
    nodes = placement.sum(axis=1)  # instances per node, kept current below
    room = placement < max_instances  # a service's cells change only in its own step
    grow = (delta > 0) & room.any(axis=2)
    for s in np.flatnonzero(grow.any(axis=0)):
        r = np.flatnonzero(grow[:, s])
        dst = np.argmin(np.where(room[r, s], nodes[r], np.inf), axis=1)
        placement[r, s, dst] += 1
        nodes[r, dst] += 1
    change = {g: 0.2 * (sigmoid(records[g]) - getattr(elite, g)) for g in ("priority", "quota")}
    magnitude += np.abs(change["quota"]).sum(axis=1)

    choice = records["migration"][:, 0] if "migration" in records else np.zeros(len(elite), int)
    order = np.argsort(-placement.sum(axis=2), axis=1, kind="stable")
    service = order[rows, (choice - 1) % placement.shape[1]]
    src = np.argmax(placement[rows, service], axis=1)
    room = placement[rows, service] < max_instances
    dst = np.argmin(np.where(room, nodes, np.inf), axis=1)
    go = (choice > 0) & room[rows, dst] & (dst != src)
    placement[rows[go], service[go], src[go]] -= 1
    placement[rows[go], service[go], dst[go]] += 1
    magnitude += go
    quota, priority = elite.quota + change["quota"], elite.priority + change["priority"]
    return repair(Population(placement, quota, priority)), magnitude


@dataclass
class RefineStats:
    attempted: int = 0
    improved: int = 0
    discarded_nonfinite: int = 0


@dataclass
class Refinements:
    """Each elite's proposed transition: the policy's sampled delta-action and
    forward pass, the candidate the action gives and whether it differs from
    the elite."""

    records: dict[str, np.ndarray]  # each (E, ...)
    cache: dict  # the policy's forward pass, for `logp_backward`
    candidates: Population
    changed: np.ndarray  # (E,) bool
    magnitude: np.ndarray  # (E,)


def propose_refinements(
    elite: Population, states: list[SystemState], core, params, encoder,
    rng: np.random.Generator, max_instances: int,
) -> Refinements:
    """The policy acts once for every elite, all with `params`, in one batch."""
    features = np.stack([encoder.encode(state) for state in states])
    records, _, cache = core.act_batch(params, features, "sample", rng)
    candidates, magnitude = apply_records(records, elite, max_instances)
    changed = (candidates.flat() != elite.flat()).any(axis=1)
    return Refinements(records, cache, candidates, changed, magnitude)


def rl_refine(
    elite: Population, elite_fitness: np.ndarray, elite_U: np.ndarray, proposals: Refinements,
    core, params, adam_state, evaluator: RolloutEvaluator,
) -> tuple[Population, np.ndarray, dict, RefineStats]:
    """One batched REINFORCE step (Williams, 1992) over the elite set.

    Each changed candidate of `proposals` is one transition, scored from the
    memo; one whose reward is not finite is discarded. The policy makes one
    Adam step on the mean gradient of -reward * logp over the rest, back
    through the forward pass that drew the actions, and a candidate replaces
    its elite only when its fitness improved."""
    changed = np.flatnonzero(proposals.changed)
    _, U, _, f_new = evaluator.evaluate(proposals.candidates.take(changed)).T
    f_old = elite_fitness[changed]
    reward = refine_reward(f_old - f_new, U - elite_U[changed], proposals.magnitude[changed])
    finite = np.isfinite(reward)
    used = changed[finite]
    better = used[f_new[finite] < f_old[finite]]
    refined = Population(elite.placement.copy(), elite.quota.copy(), elite.priority.copy())
    for g in GENES:
        getattr(refined, g)[better] = getattr(proposals.candidates, g)[better]
    refined_fitness = elite_fitness.copy()
    refined_fitness[changed[finite]] = np.minimum(f_new[finite], f_old[finite])
    stats = RefineStats(len(elite), len(better), int(np.count_nonzero(~finite)))
    if used.size:
        coef = np.zeros(len(elite))
        coef[used] = -reward[finite] / used.size
        grads = core.logp_backward(params, proposals.cache, coef)
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
    pool: Population, pool_fitness: np.ndarray, count: int, q_avg: float, q_max: float,
    config: HybridConfig, rng: np.random.Generator,
) -> tuple[Population, np.ndarray, np.ndarray]:
    """`count` offspring of the mating pool, two per tournament pair; returns
    them with each pair's adaptive P_c and P_m. The draws: every tournament,
    then every crossover, then every mutation; mutation repairs."""
    parents = _tournament(pool_fitness, (-(-count // 2), 2), rng)
    p_c, p_m = adaptive_rates(-pool_fitness[parents].min(axis=1), q_avg, q_max)
    children = _crossover(pool.take(parents[:, 0]), pool.take(parents[:, 1]), p_c, rng)
    p_m_child = np.repeat(p_m, 2)[:count]
    offspring = _mutate(
        children.take(slice(count)), p_m_child, rng, config.mutation_sigma, config.max_instances
    )
    return offspring, p_c, p_m


def hybrid_scheduling(
    scenario: WorkloadScenario, topology: ClusterTopology, config: HybridConfig,
    weights: FitnessWeights | None = None, initial_population: list[Chromosome] | None = None,
    start_tick: int = 0, policy_params=None, adam_state: AdamState | None = None,
) -> HybridResult:
    """Full optimization loop: evaluate, adapt rates, preserve+refine elites,
    breed offspring, iterate to convergence or the iteration cap.

    Each generation makes all of its random draws first (the policy's actions,
    local search's moves, the offspring), then rolls out in one `evaluate`
    call the refinement candidates, local search's first move tree from either
    incumbent it can start from and the offspring, then refines, climbs and
    selects from the memo. `policy_params` and `adam_state` (updated in place)
    continue the refinement policy and its optimizer from an earlier run."""
    from .drl.policy import PolicyCore, StateEncoder, cluster_layout

    weights = weights or FitnessWeights()
    k, n = topology.service_count, topology.node_count
    cap = config.max_instances
    rng = np.random.default_rng([config.seed, 0xA11CE])
    evaluator = RolloutEvaluator(scenario, topology, weights, config.eval_ticks, start_tick)

    encoder = StateEncoder(k, n)
    core = PolicyCore(encoder.dim, cluster_layout(k), hidden=(32, 32))
    params = policy_params if policy_params is not None else core.init_params(config.seed)
    if adam_state is None:
        adam_state = adam_init(params)

    start = list(initial_population or [])[: config.population]
    fill = config.population - len(start)  # random rows
    population = repair(Population.concat([Population.of(start)] * bool(start) + [Population(
        rng.integers(0, cap + 1, size=(fill, k, n)),
        rng.uniform(QUOTA_FLOOR, 0.5, size=(fill, k)),
        rng.uniform(0.0, 1.0, size=(fill, k)),
    )]))

    best, best_fitness, converged = None, INFEASIBLE, False
    trace: list[GenerationTrace] = []
    refine_totals = RefineStats()
    best_history: list[float] = []

    for generation in range(config.max_iter):
        # memo hits after the first generation: the last batch rolled them out
        T, U, L, fitnesses = evaluator.evaluate(population).T
        gen_best_idx = int(np.argmin(fitnesses))
        if fitnesses[gen_best_idx] < best_fitness:
            best_fitness = float(fitnesses[gen_best_idx])
            best = population.take([gen_best_idx])
        best_history.append(best_fitness)

        # adaptive rates on quality (negated cost): best candidates protected
        finite = np.isfinite(fitnesses)
        quality = -fitnesses[finite]
        q_avg = float(quality.mean()) if finite.any() else 0.0
        q_max = float(quality.max()) if finite.any() else 0.0
        q_max = max(q_max, q_avg)  # mean can exceed max by one ulp when converged

        elite_idx = select_top_k(fitnesses, config.elite)
        elite = population.take(elite_idx)
        elite_fitness = fitnesses[elite_idx]

        # non-dominated pre-filter of the mating pool: the best fronts, whole
        pool_idx: list[int] = []
        for front in non_dominated_sort(np.stack([T, -U, -L], axis=1)):
            pool_idx.extend(front)
            if len(pool_idx) >= max(len(population) // 2, 2 * config.elite):
                break

        # propose: every random draw of the generation, before any rollout
        proposals = None
        if config.rl_refinement:
            states = evaluator.final_states(elite)
            proposals = propose_refinements(elite, states, core, params, encoder, rng, cap)
        moves = _draw_moves((k, n), config.local_search_budget, rng, config.mutation_sigma)
        offspring, pc_values, pm_values = _breed(
            population.take(pool_idx), fitnesses[pool_idx],
            config.population - config.elite, q_avg, q_max, config, rng,
        )

        # roll out once
        batch = [] if proposals is None else [proposals.candidates.take(proposals.changed)]
        if moves:
            roots = elite.take([0])
            if proposals is not None and proposals.changed[0]:
                roots = Population.concat([roots, proposals.candidates.take([0])])
            levels, tree = _move_tree(roots, moves[:LOOKAHEAD], cap)
            batch.append(tree)
        if generation < config.max_iter - 1:
            batch.append(offspring)
        if batch:
            evaluator.evaluate(Population.concat(batch))

        # consume
        unrefined = elite_fitness[0]
        if proposals is not None:
            elite, elite_fitness, params, stats = rl_refine(
                elite, elite_fitness, U[elite_idx], proposals, core, params, adam_state, evaluator
            )
            for name in ("attempted", "improved", "discarded_nonfinite"):
                setattr(refine_totals, name, getattr(refine_totals, name) + getattr(stats, name))

        if moves:
            root = int(elite_fitness[0] < unrefined)  # 1: the refinement candidate
            first_tree = ([level.reshape(len(roots), -1)[root] for level in levels], tree)
            climbed, elite_fitness[0] = local_search(
                elite.take([0]), float(elite_fitness[0]), evaluator.fitness_batch, moves, cap,
                first_tree,
            )
            elite = Population.concat([climbed, elite.take(slice(1, None))])

        if elite_fitness[0] < best_fitness:
            best_fitness = float(elite_fitness[0])
            best = elite.take([0])
            best_history[-1] = best_fitness

        population = Population.concat([elite, offspring])
        trace.append(GenerationTrace(
            generation, best_fitness, float(fitnesses[gen_best_idx]),
            float(fitnesses[finite].mean()) if finite.any() else INFEASIBLE,
            float(np.mean(pc_values)), float(np.mean(pm_values)),
        ))

        w = config.convergence_window
        if len(best_history) > w and best_history[-w - 1] - best_history[-1] < CONVERGENCE_EPS:
            converged = True
            break

    assert best is not None
    return HybridResult(best.chromosomes()[0], best_fitness, trace, refine_totals, converged,
                        population.chromosomes(), params, adam_state)
