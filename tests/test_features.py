import functools
import math
import re

import numpy as np
import pytest

from crowdirl import features
from crowdirl.errors import ValidationError
from crowdirl.features import (
    CostParams,
    agent_sum,
    expected_features,
    feature_rows,
    state_features,
)
from crowdirl.trajectory import (
    DEFAULT_SIGMA,
    AgentState,
    RolloutSet,
    ScenarioSpec,
    constant_velocity_rollout,
    rollout_openloop,
)
from fd_oracle import (
    agent_costs,
    control_weight,
    dense_feature_terms,
    expand,
    in_order_sum,
    reference_expected_features,
    reference_state_features,
    stage_cost,
    state_cost,
)


def _static_traj(positions, T=1, dt=0.1) -> RolloutSet:
    """One-row set of k agents sitting still at the given positions for T steps."""
    k = len(positions)
    state = np.zeros(4 * k)
    for i, (x, y) in enumerate(positions):
        state[4 * i], state[4 * i + 1] = x, y
    states = np.tile(state, (1, T + 1, 1))
    return RolloutSet(states=states, controls=np.zeros((1, T, k, 2)), dt=dt)


GOAL_DIST, PROXIMITY, EFFORT = range(3)


def _features(traj, agent, goal, sigma=DEFAULT_SIGMA) -> np.ndarray:
    """One agent's features (goal_dist, proximity, effort) along a one-row set."""
    return expected_features(traj, [agent], [goal], sigma)[0]


def test_features_vanish_on_goal_without_neighbors():
    traj = _static_traj([(2.0, 3.0)])
    phi = _features(traj, 0, goal=(2.0, 3.0))
    assert phi.tolist() == [0.0, 0.0, 0.0]


def test_features_single_kernel_evaluation():
    traj = _static_traj([(0.0, 0.0), (1.0, 0.0)])
    phi = _features(traj, 0, goal=(0.0, 0.0), sigma=1.0)
    assert phi[GOAL_DIST] == 0.0
    assert abs(phi[PROXIMITY] - math.exp(-1.0)) < 1e-12
    assert phi[EFFORT] == 0.0


def test_features_squared_goal_distance():
    traj = _static_traj([(2.0, 0.0)])
    phi = _features(traj, 0, goal=(0.0, 0.0))
    assert abs(phi[GOAL_DIST] - 4.0) < 1e-12


def test_features_control_averaging_excludes_terminal():
    # one step with ||u||^2 = 4, then check effort = 4 / T with T = 2
    spec = ScenarioSpec(
        k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=2, dt=0.1
    )
    controls = np.zeros((2, 1, 2))
    controls[0, 0] = [2.0, 0.0]
    traj = rollout_openloop(spec, controls)
    phi = _features(traj, 0, goal=(0.0, 0.0))
    assert abs(phi[EFFORT] - 2.0) < 1e-12


def test_features_index_out_of_range():
    with pytest.raises(ValidationError):
        _features(_static_traj([(0, 0)]), 1, goal=(0, 0))


def _agent_features(trajs, agent, goal):
    """One agent's row of expected_features over a list of one-row sets."""
    return expected_features(RolloutSet.stack(trajs), [agent], [goal], DEFAULT_SIGMA)[0]


def test_expected_features_mean_behavior():
    t_still = _static_traj([(1.0, 0.0)])
    spec = ScenarioSpec(
        k=1, x0=(AgentState(1, 0, 0, 0),), goals=None, horizon=1, dt=0.1
    )
    t_push = rollout_openloop(spec, np.full((1, 1, 2), [np.sqrt(2.0), 0.0][0]))
    one = _agent_features([t_still], 0, (0, 0))
    assert one.tolist() == _features(t_still, 0, (0, 0)).tolist()
    # duplication leaves the mean unchanged
    dup = _agent_features([t_still, t_still], 0, (0, 0))
    assert np.allclose(dup, one)
    # effort averages: 0 and 2 -> 1
    t2 = rollout_openloop(spec, np.array([[[np.sqrt(2.0), 0.0]]]))
    mixed = _agent_features([t_still, t2], 0, (0, 0))
    assert abs(mixed[EFFORT] - 1.0) < 1e-12


def test_expected_features_rejects_empty():
    with pytest.raises(ValidationError, match="at least one trajectory"):
        expected_features(RolloutSet.stack([]), [0], [(0, 0)], DEFAULT_SIGMA)


def test_expected_features_rejects_mixed_shapes():
    one_agent = _static_traj([(0, 0)], T=2)
    with pytest.raises(ValidationError, match="one k and T"):
        expected_features(RolloutSet.stack([one_agent, _static_traj([(0, 0), (1, 0)], T=2)]),
                          [0], [(0, 0)], DEFAULT_SIGMA)
    with pytest.raises(ValidationError, match="one k and T"):
        expected_features(RolloutSet.stack([one_agent, _static_traj([(0, 0)], T=3)]),
                          [0], [(0, 0)], DEFAULT_SIGMA)


def _reference_expected_features(trajs, agent, goal, sigma, crowd_sum=in_order_sum):
    """Per-trajectory loop: each feature a mean along one trajectory, summed in order.

    crowd_sum sums the kernel over the other agents, its last axis.
    """
    acc = np.zeros(3)
    for traj in trajs:
        pos = traj.states.reshape(traj.horizon + 1, traj.k, 4)[..., :2]
        goal_dist = float(np.mean(np.sum((pos[:, agent] - goal) ** 2, axis=-1)))
        d2 = np.sum((pos - pos[:, agent : agent + 1]) ** 2, axis=-1)
        proximity = float(np.mean(crowd_sum(np.exp(-d2 / (sigma * sigma))) - 1.0))
        effort = float(np.mean(np.sum(traj.controls[0, :, agent] ** 2, axis=-1)))
        acc += np.array([goal_dist, proximity, effort])
    return acc / len(trajs)


@pytest.mark.parametrize("k", [1, 3, 8, 9, 16, 17])
def test_expected_features_match_per_trajectory_loop_bit_for_bit(k):
    rng = np.random.default_rng(8)
    T = 30
    trajs = [
        RolloutSet(rng.uniform(-4, 4, (1, T + 1, 4 * k)), rng.normal(size=(1, T, k, 2)), 0.1)
        for _ in range(33)
    ]
    goals = rng.uniform(-4, 4, (k, 2))
    # a single trajectory exposes every per-trajectory rounding; sums over many can hide it
    for subset in (trajs[:1], trajs[:7], trajs):
        every = expected_features(RolloutSet.stack(subset), range(k), goals, 1.5)
        assert every.shape == (k, 3)
        for agent in range(k):
            ref = _reference_expected_features(subset, agent, goals[agent], 1.5)
            assert every[agent].tobytes() == ref.tobytes()
            # np.sum may add the kernel terms in another order: the same sums up to rounding
            np_sum = _reference_expected_features(subset, agent, goals[agent], 1.5,
                                                  functools.partial(np.sum, axis=-1))
            np.testing.assert_allclose(every[agent], np_sum, rtol=1e-14, atol=0.0)
            one = expected_features(RolloutSet.stack(subset), [agent], goals[agent : agent + 1], 1.5)
            assert one.shape == (1, 3) and one[0].tobytes() == ref.tobytes()


def _block_edges(k: int, T: int = 30) -> list[tuple[int, int]]:
    """(k, N) pairs for N on both sides of the derived block of all k agents."""
    rows = feature_rows(T, k, k)
    return [(k, N) for N in sorted({1, max(1, rows - 1), rows, rows + 1})]


@pytest.mark.parametrize("k, N", [e for k in (1, 3, 8) for e in _block_edges(k)])
def test_row_blocked_features_equal_per_agent_and_per_trajectory_calls(k, N):
    # sets on both sides of a row block: every agent at once, one agent at a
    # time and one trajectory at a time (summed in order) give the same bytes
    rng = np.random.default_rng(100 * k + N)
    T = 30
    trajs = RolloutSet(rng.uniform(-4, 4, (N, T + 1, 4 * k)), rng.normal(size=(N, T, k, 2)), 0.1)
    goals = rng.uniform(-4, 4, (k, 2))
    every = expected_features(trajs, range(k), goals, DEFAULT_SIGMA)
    one_agent = np.concatenate([expected_features(trajs, [i], goals[[i]], DEFAULT_SIGMA) for i in range(k)])
    assert every.tobytes() == one_agent.tobytes()
    rows = np.stack([expected_features(trajs[j : j + 1], range(k), goals, DEFAULT_SIGMA) for j in range(N)])
    assert every.tobytes() == (np.sum(rows, axis=0) / N).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 8, 12])
def test_feature_half_equals_the_strided_broadcast_reference_byte_for_byte(k):
    # the last agent sits 1 km out, where its kernel underflows to exactly 0.0
    rng = np.random.default_rng(40 + k)
    T, sigma = 30, 1.5
    size = feature_rows(T, 1, k) + 1  # past one block of any choice of agents
    states = rng.uniform(-4, 4, (size, T + 1, 4 * k))
    states[..., -4] += 1000.0 * (k > 1)
    controls = rng.normal(size=(size, T, k, 2))
    controls.flat[::5] = -0.0
    goals = rng.uniform(-4, 4, (k, 2))
    if k > 1:  # every kernel term of the far agent is 0.0
        assert np.all(reference_state_features(states, [k - 1], goals[-1:], sigma)[1] == 0.0)
    for agents in (list(range(k)), [k - 1], list(range(k - 1, -1, -2))):
        g = goals[agents]
        got = state_features(states, agents, g, sigma)
        ref = reference_state_features(states, agents, g, sigma)
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
        rows = feature_rows(T, len(agents), k)
        for N in sorted({1, max(1, rows - 1), rows + 1, size}):
            trajs = RolloutSet(states[:N], controls[:N], 0.1)
            got = expected_features(trajs, agents, g, sigma)
            assert got.tobytes() == reference_expected_features(trajs, agents, g, sigma).tobytes()
    nominal = RolloutSet(states[:1], controls[:1], 0.1)
    for model in agent_costs([CostParams.ones()] * k,
                             ScenarioSpec(k, states[0, 0], goals, T)):
        e = expand(model, nominal)
        ref = np.ascontiguousarray(dense_feature_terms(model, nominal)[:, :, e.rows, e.cols])
        assert e.basis.tobytes() == ref.tobytes()


@pytest.mark.parametrize("positive", [True, False])
def test_agent_sum_adds_the_rows_in_order_byte_for_byte(positive):
    # each element's sum is its own n terms added in one fixed order, whatever the block shape
    rng = np.random.default_rng(7 + positive)
    for n in [*range(1, 201), 255, 256, 257, 513]:
        terms = np.exp(rng.normal(0.0, 8.0, (n, 3, 5)))  # terms spread over many binades
        if not positive:
            terms *= rng.choice([-1.0, 1.0], terms.shape)
        ref = functools.reduce(np.add, terms).tobytes()
        assert agent_sum(terms).tobytes() == ref, n
        out = np.full(terms.shape[1:], np.nan)
        assert agent_sum(terms, out) is out and out.tobytes() == ref, n


@pytest.mark.parametrize("k", [1, 3, 8, 48])
def test_the_block_budget_never_moves_a_feature_bit(monkeypatch, k):
    rng = np.random.default_rng(900 + k)
    T, M = 10, 6
    trajs = RolloutSet(rng.uniform(-4, 4, (M, T + 1, 4 * k)), rng.normal(size=(M, T, k, 2)), 0.1)
    goals = rng.uniform(-4, 4, (k, 2))
    calls = [(range(k), goals), ([k - 1], goals[-1:])]
    default = [expected_features(trajs, a, g, 1.5).tobytes() for a, g in calls]
    for budget in (1, 2**30):  # one trajectory per block, and the whole set in one
        monkeypatch.setattr(features, "FEATURE_BUDGET", budget)
        assert [expected_features(trajs, a, g, 1.5).tobytes() for a, g in calls] == default, budget


@pytest.mark.parametrize("k", [1, 7, 8, 9, 200])
def test_a_one_state_slice_has_the_feature_bits_of_its_row_in_a_full_call(k):
    rng = np.random.default_rng(950 + k)
    states = rng.uniform(-4, 4, (3, 4, 4 * k))
    goals = rng.uniform(-4, 4, (k, 2))
    for agents in (list(range(k)), [k // 2]):  # the single agent gives (1, 1) slices
        full = state_features(states, agents, goals[agents], 1.5)
        for n in np.ndindex(states.shape[:-1]):
            one = state_features(states[n][None], agents, goals[agents], 1.5)
            for f, row in zip(full, one):
                assert row.shape == (1, len(agents)) and row.tobytes() == f[n].tobytes(), (agents, n)


def test_state_features_check_their_inputs_as_expected_features_does():
    states = np.random.default_rng(3).uniform(-4, 4, (5, 8))  # k = 2
    goals = [[0.0, 1.0], [2.0, -1.0]]
    with pytest.raises(ValidationError, match="sigma must be positive"):
        state_features(states, [0, 1], goals, 0.0)
    with pytest.raises(ValidationError, match="agent indices"):
        state_features(states, [5], goals[:1], DEFAULT_SIGMA)
    with pytest.raises(ValidationError, match="goals must be"):
        state_features(states, [0, 1], goals[:1], DEFAULT_SIGMA)
    with pytest.raises(ValidationError, match="must be one or more integers"):
        state_features(states, np.array([], int), np.zeros((0, 2)), DEFAULT_SIGMA)
    as_list = state_features(states, [0, 1], goals, DEFAULT_SIGMA)  # goals as a list
    as_array = state_features(states, np.arange(2), np.array(goals), DEFAULT_SIGMA)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(as_list, as_array))


@pytest.mark.parametrize("agents", [[2], [0, 2], [-1], [0, 1, 5], np.array([], int)])
def test_expected_features_rejects_out_of_range_agent(agents):
    trajs = RolloutSet.stack([_static_traj([(0, 0), (1, 0)])])
    with pytest.raises(ValidationError, match="agent indices"):
        expected_features(trajs, agents, np.zeros((len(agents), 2)), DEFAULT_SIGMA)


@pytest.mark.parametrize(
    "goals", [np.zeros(2), np.zeros((1, 2)), np.zeros((2, 3)), np.zeros((3, 2))]
)
def test_expected_features_rejects_misshapen_goals(goals):
    trajs = RolloutSet.stack([_static_traj([(0, 0), (1, 0)])])
    with pytest.raises(ValidationError, match="goals must be"):
        expected_features(trajs, [0, 1], goals, DEFAULT_SIGMA)


def test_permutation_equivariance_in_neighbors():
    rng = np.random.default_rng(5)
    pos = rng.uniform(-3, 3, size=(4, 2))
    traj_a = _static_traj([tuple(p) for p in pos])
    perm = [0, 3, 1, 2]  # keep agent 0, permute the others
    traj_b = _static_traj([tuple(pos[j]) for j in perm])
    fa = _features(traj_a, 0, (0, 0))
    fb = _features(traj_b, 0, (0, 0))
    assert np.allclose(fa, fb, atol=1e-12)


def test_proximity_monotone_in_pairwise_distance():
    base = _features(_static_traj([(0, 0), (1.0, 0.0)]), 0, (0, 0))[PROXIMITY]
    farther = _features(_static_traj([(0, 0), (1.3, 0.0)]), 0, (0, 0))[PROXIMITY]
    assert farther < base


@pytest.mark.parametrize("weights", [[-0.5, 0.2, 0.0], [1.0, -1e-300, 0.0]])
def test_a_negative_weight_is_refused(weights):
    with pytest.raises(ValidationError, match=re.escape(f"weights must be nonnegative, got {weights}")):
        CostParams(np.array(weights))


def test_a_negative_zero_weight_passes():
    th = CostParams(np.array([-0.0, 0.2, 0.0]))
    assert th.weights.tolist() == [0.0, 0.2, 0.0] and np.signbit(th.weights[0])


@pytest.mark.parametrize("weights", [[[1.0, 2.0, 3.0]], [[1.0], [2.0], [3.0]], 1.0])
def test_weights_that_are_no_vector_are_refused_not_flattened(weights):
    shape = np.shape(weights)
    with pytest.raises(ValidationError, match=re.escape(f"weights must have length 3, got {shape}")):
        CostParams(weights)


def test_stage_cost_model_reproduces_weighted_features(intersection_spec, theta_star):
    rng = np.random.default_rng(17)
    models = agent_costs(theta_star, intersection_spec)
    traj = rollout_openloop(
        intersection_spec, rng.uniform(-1, 1, (intersection_spec.horizon, 3, 2))
    )
    for i, model in enumerate(models):
        phi = _features(traj, i, intersection_spec.goals[i])
        direct = float(theta_star[i].weights @ phi)
        staged = trajectory_cost(model, traj)
        assert abs(direct - staged) < 1e-10


def trajectory_cost(model, traj):
    """Total cost of a one-row set under a stage model, summed term by term."""
    u = traj.controls[0, :, model.agent]
    return float(np.sum(state_cost(model, traj.states[0])) + control_weight(model) * np.sum(u * u))


def test_stage_cost_model_control_weight(intersection_spec, theta_star):
    model = agent_costs(theta_star, intersection_spec)[0]
    assert abs(control_weight(model) - 0.2 / intersection_spec.horizon) < 1e-15


def test_stage_cost_batched_evaluation(intersection_spec, theta_star):
    model = agent_costs(theta_star, intersection_spec)[1]
    nominal = constant_velocity_rollout(intersection_spec)
    batch = np.tile(nominal.states[0, 0], (7, 1))
    u = np.zeros((7, 2))
    vals = stage_cost(model)(batch, u)
    assert vals.shape == (7,)
    assert np.allclose(vals, vals[0])
