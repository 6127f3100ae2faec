"""Episodes that share policy parameters step in lockstep, as the rows of one
`ClusterSim`, and must give what stepping them one at a time gives, bit for
bit: the P-row sim against P one-cluster sims, pre-drawn act noise against
noise drawn act by act, and the grouped trainer against the sequential one
kept in `tests/ppo_reference.py`."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ppo_reference
from test_scalar_tick import assert_arrays_equal
from tradesim.cluster import ClusterSim, NoiseSpec, SchedulingAction, reward, uniform_topology
from tradesim.drl.env import ContextualBandit, DecisionEnv
from tradesim.drl.policy import (
    ActionLayout,
    CategoricalHead,
    PolicyCore,
    SchedulerPolicy,
    StateEncoder,
    cluster_layout,
)
from tradesim.drl.ppo import TrainConfig, train_scheduler
from tradesim.workload import WorkloadScenario, default_service_mix

# --- the P-row sim against P one-cluster sims ------------------------------------------

K, N = 3, 2  # services and nodes of the generated clusters
SERVICES = default_service_mix()[:K]

# an entry of a priority or quota: in range, out of range or not finite
unit_entries = st.one_of(
    st.floats(-0.5, 1.5, allow_nan=False), st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0])
)


@st.composite
def row_actions(draw, rows: int) -> SchedulingAction:
    """One action per row: instance deltas, sparse migrations, priorities and
    quotas, some out of range or not finite."""
    return SchedulingAction(
        instance_delta=np.array(draw(st.lists(st.integers(-2, 2), min_size=rows * K,
                                              max_size=rows * K))).reshape(rows, K),
        migration=np.array(draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=rows * K * N,
                                         max_size=rows * K * N))).reshape(rows, K, N),
        priority=np.array(draw(st.lists(unit_entries, min_size=rows * K,
                                        max_size=rows * K))).reshape(rows, K),
        quota=np.array(draw(st.lists(unit_entries, min_size=rows * K,
                                     max_size=rows * K))).reshape(rows, K),
    )


@st.composite
def p_row_runs(draw):
    """Per-row initial configurations, then per tick a hold (None) or one
    action per row, and the tick's arrivals, which every row shares."""
    rows = draw(st.integers(1, 4))
    configs = [
        (draw(st.integers(1, 2)), draw(st.sampled_from([0.05, 0.1, 0.25]))) for _ in range(rows)
    ]
    ticks = draw(st.integers(1, 8))
    steps = [
        (
            draw(st.one_of(st.none(), row_actions(rows))),
            np.array(draw(st.lists(st.integers(0, 200), min_size=K, max_size=K))),
        )
        for _ in range(ticks)
    ]
    return configs, steps


@given(p_row_runs())
def test_a_p_row_sim_equals_p_one_cluster_sims(run):
    configs, steps = run
    singles = [
        ClusterSim(
            uniform_topology(node_count=N, node_cpu=1000.0, services=SERVICES,
                             instances_per_service=per_service, quota=quota),
            noise=NoiseSpec(std=0.0),
        )
        for per_service, quota in configs
    ]
    first = singles[0].topology
    batched = ClusterSim(
        replace(
            first,
            initial_placement=np.stack([s.topology.initial_placement for s in singles]),
            initial_quota=np.stack([s.topology.initial_quota for s in singles]),
            initial_priority=np.stack([s.topology.initial_priority for s in singles]),
        ),
        noise=NoiseSpec(std=0.0),
    )
    spec = batched.reward_spec
    for t, (action, counts) in enumerate(steps):
        prev_quota = batched.quota
        applied = batched.step_counts(action, counts)
        for p, one in enumerate(singles):
            what = f"tick {t}, row {p}"
            one_prev_quota = one.quota
            one_applied = one.step_counts(None if action is None else action.row(p), counts)
            row_applied = applied.row(p)
            for name in ("instance_delta", "migration", "priority", "quota"):
                assert_arrays_equal(
                    getattr(row_applied, name), getattr(one_applied, name), f"{what}: applied {name}"
                )
            for name in ("placement", "quota", "priority", "queue_len", "util_obs",
                         "last_latency_ms"):
                assert_arrays_equal(getattr(batched, name)[p], getattr(one, name), f"{what}: {name}")
            got = reward(prev_quota[p], batched.last_latency_ms[p], batched.util_obs[p],
                         row_applied, spec)
            want = reward(one_prev_quota, one.last_latency_ms, one.util_obs, one_applied, spec)
            assert_arrays_equal(got, want, f"{what}: reward")
        assert batched.sanitized_actions == sum(one.sanitized_actions for one in singles)
    scaled = [one.first_scale_up_tick for one in singles if one.first_scale_up_tick >= 0]
    assert batched.first_scale_up_tick == min(scaled, default=-1)


def test_each_row_places_its_own_instances():
    # one row adds, removes and moves instances; the other, with a zero
    # action, keeps its placement
    topology = uniform_topology(node_count=N, node_cpu=1000.0, services=SERVICES)
    sim = ClusterSim(
        replace(topology, initial_placement=np.stack([topology.initial_placement] * 2),
                initial_quota=np.stack([topology.initial_quota] * 2),
                initial_priority=np.stack([topology.initial_priority] * 2)),
        noise=NoiseSpec(std=0.0),
    )
    before = sim.placement.copy()
    migration = np.zeros((2, K, N), dtype=int)
    migration[0, 2, 1] = 1
    action = SchedulingAction(
        instance_delta=np.array([[1, -1, 0], [0, 0, 0]]), migration=migration,
        priority=np.full((2, K), 0.5), quota=np.full((2, K), 0.1),
    )
    applied = sim.step_counts(action, np.zeros(K, dtype=np.int64))
    assert_arrays_equal(sim.placement[1], before[1], "the still row")
    assert sim.placement[0].sum(axis=1).tolist() == [2, 1, 1]
    assert applied.migration[0, 2, 1] == 1 and sim.placement[0, 2].tolist() == [0, 1]


# --- pre-drawn act noise ------------------------------------------------------------------


def test_predrawn_noise_gives_the_acts_and_the_stream():
    # 90 acts on noise drawn up front equal 90 acts that each draw their own,
    # records and log-probabilities by bytes, and leave the generator where
    # they leave it
    encoder = StateEncoder(service_count=8, node_count=4)
    core = PolicyCore(encoder.dim, cluster_layout(8), hidden=(16,))
    params = core.init_params(3)
    feats = np.random.default_rng(0).normal(size=(90, encoder.dim))
    ahead, along = np.random.default_rng(5), np.random.default_rng(5)
    noise = [core.draw_noise(ahead) for _ in feats]
    for x, drawn in zip(feats, noise):
        got, got_logp = core.act(params, x, "sample", noise=drawn)
        want, want_logp = core.act(params, x, "sample", along)
        for name in want:
            assert_arrays_equal(got[name], want[name], name)
        assert_arrays_equal(got_logp, want_logp, "log-probability")
    assert ahead.bit_generator.state == along.bit_generator.state

    drawn = core.draw_noise(ahead, rows=7)
    got, got_logp, _ = core.act_batch(params, feats[:7], "sample", noise=drawn)
    want, want_logp, _ = core.act_batch(params, feats[:7], "sample", along)
    for name in want:
        assert_arrays_equal(got[name], want[name], name)
    assert_arrays_equal(got_logp, want_logp, "batch log-probabilities")
    assert ahead.bit_generator.state == along.bit_generator.state


def test_sampling_needs_noise_or_a_generator():
    core = PolicyCore(2, ActionLayout(heads=(CategoricalHead("arm", rows=1, n=2),)), hidden=(4,))
    with pytest.raises(ValueError, match="generator"):
        core.act(core.init_params(0), np.zeros(2), "sample")


# --- the grouped trainer against the sequential one ---------------------------------------


def decision_envs(horizon: int):
    scenario = WorkloadScenario(base_rate=120.0, peak_rate=600.0, horizon=horizon, seed=3)
    topology = uniform_topology(node_count=2, services=scenario.service_mix)
    encoder = StateEncoder(service_count=8, node_count=2)
    mapper = SchedulerPolicy.build(encoder, seed=0, hidden=(8,))
    return (
        DecisionEnv(scenario, topology, encoder, mapper),
        ppo_reference.DecisionEnv(scenario, topology, encoder, mapper),
        mapper.core,
    )


def bandits(horizon: int):
    layout = ActionLayout(heads=(CategoricalHead("arm", rows=1, n=2),))
    return (
        ContextualBandit(seed=3, steps_per_episode=horizon),
        ppo_reference.ContextualBandit(seed=3, steps_per_episode=horizon),
        PolicyCore(2, layout, hidden=(8,)),
    )


# (envs, env horizon, episode_length): the episodes take 4, 3 and 8 steps,
# the first ending on a short decision interval, the others truncated
ENVS = {
    "decision": (decision_envs, 35, 6),
    "decision-truncated": (decision_envs, 40, 3),
    "bandit": (bandits, 16, 8),
}


@pytest.mark.parametrize("env_case", sorted(ENVS))
@pytest.mark.parametrize("group", [1, 2, 3, None])  # None: learning rate 0, one group
def test_grouped_training_equals_sequential_training(env_case, group):
    make, horizon, episode_length = ENVS[env_case]
    env, reference_env, core = make(horizon)
    steps = min(episode_length, env.steps_per_episode)
    cfg = TrainConfig(
        learning_rate=0.0 if group is None else 0.01,
        total_episodes=7,
        episode_length=episode_length,
        update_horizon=steps * (group or 1) - (group or 1) + 1,  # the group's last episode fills it
        minibatch=8,
        epochs=2,
        seed=4,
    )
    groups = []
    reset = env.reset
    env.reset = lambda episodes: groups.append(list(episodes)) or reset(episodes)

    params, curve = train_scheduler(env, core, cfg)
    want_params, want_curve = ppo_reference.train(reference_env, core, cfg)

    size = group or cfg.total_episodes
    assert groups == [list(range(e, min(e + size, 7))) for e in range(0, 7, size)]
    assert params.keys() == want_params.keys()
    for name in want_params:
        assert_arrays_equal(params[name], want_params[name], name)
    assert [{k: repr(v) for k, v in row.items()} for row in curve] == [
        {k: repr(v) for k, v in row.items()} for row in want_curve
    ]
    if group is not None:
        assert any(row["loss"] != 0.0 for row in curve)  # the updates ran


def test_an_episode_done_early_is_refused():
    class ShortBandit(ContextualBandit):
        def step(self, records):
            obs, rewards, _, info = super().step(records)
            return obs, rewards, self._step >= 3, info

    core = PolicyCore(2, ActionLayout(heads=(CategoricalHead("arm", rows=1, n=2),)), hidden=(4,))
    cfg = TrainConfig(total_episodes=2, episode_length=8, update_horizon=10, seed=0)
    with pytest.raises(RuntimeError, match="3 of its 8 stated steps"):
        train_scheduler(ShortBandit(seed=0), core, cfg)
