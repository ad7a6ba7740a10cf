import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crowdirl.cli import scenario_preset
from crowdirl.errors import ValidationError
from crowdirl.features import CostParams
from crowdirl.game import SolverConfig, build_policies, mean_rollout
from crowdirl.quadratic import cost_pattern, expand_model_along
from crowdirl.rng import substream
from crowdirl.trajectory import RolloutSet, constant_velocity_rollout
from fd_oracle import (
    AgentCost,
    DenseCost,
    agent_costs,
    control_weight,
    dense_arrays,
    dense_feature_terms,
    expand,
    expand_along,
    expand_terminal,
    fd_expand_model_along,
    fd_gradient,
    fd_hessian,
    reference_expansion,
    stage_cost,
    state_cost,
    taylor_expand,
)


def _quad_costfn(Q, q, c0):
    def costfn(x, u):
        z = np.concatenate([x, u], axis=-1)
        return 0.5 * np.einsum("...i,ij,...j->...", z, Q, z) + z @ q + c0

    return costfn


def test_taylor_expand_recovers_analytic_quadratic():
    rng = np.random.default_rng(1)
    d = 6  # 4k + 2 with k = 1
    A = rng.standard_normal((d, d))
    Q = A + A.T
    q = rng.standard_normal(d)
    costfn = _quad_costfn(Q, q, 0.7)
    x0, u0 = rng.standard_normal(4), rng.standard_normal(2)
    for h in (1e-4, 1e-3, 1e-2):
        H, l, c = taylor_expand(costfn, x0, u0, h)
        z0 = np.concatenate([x0, u0])
        assert np.allclose(H, Q, rtol=1e-6, atol=1e-6)
        assert np.allclose(l, Q @ z0 + q, rtol=1e-6, atol=1e-6)
        assert abs(c - costfn(x0[None], u0[None])[0]) < 1e-12


def test_taylor_expand_norm_squared_at_origin():
    costfn = lambda x, u: np.sum(x * x, axis=-1) + np.sum(u * u, axis=-1)
    H, l, c = taylor_expand(costfn, np.zeros(4), np.zeros(2), 1e-3)
    assert np.allclose(H, 2 * np.eye(6), atol=1e-6)
    assert np.allclose(l, 0, atol=1e-8)
    assert abs(c) < 1e-12


def test_taylor_expand_constant_and_linear():
    const = lambda x, u: np.full(x.shape[:-1], 3.5)
    H, l, _ = taylor_expand(const, np.ones(4), np.ones(2), 1e-3)
    assert np.allclose(H, 0, atol=1e-9)
    assert np.allclose(l, 0, atol=1e-9)

    a = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    lin = lambda x, u: np.concatenate([x, u], axis=-1) @ a
    H, l, _ = taylor_expand(lin, np.zeros(4), np.zeros(2), 1e-3)
    assert np.allclose(H, 0, atol=1e-8)
    assert np.allclose(l, a, atol=1e-8)


def test_taylor_expand_raises_on_nonfinite_probe():
    def costfn(x, u):
        out = np.sum(x, axis=-1)
        out = np.where(out > 0.0005, np.inf, out)
        return out

    with pytest.raises(ValidationError, match="non-finite"):
        taylor_expand(costfn, np.zeros(4), np.zeros(2), 1e-3)


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(2)

    def bumpy(z):
        return np.sin(z[:, 0]) * np.cos(z[:, 1]) + np.exp(-np.sum(z**2, axis=-1))

    H = fd_hessian(bumpy, rng.standard_normal(5), 1e-3)
    assert np.max(np.abs(H - H.T)) == 0.0


def test_gradient_matches_componentwise_differences():
    rng = np.random.default_rng(3)
    z0 = rng.standard_normal(6)

    def f(z):
        return np.sum(np.sin(z) + 0.3 * z**2, axis=-1)

    g = fd_gradient(f, z0, 1e-3)
    # independent per-coordinate central differences at a different step
    h = 2e-4
    for j in range(6):
        e = np.zeros(6)
        e[j] = h * max(1.0, abs(z0[j]))
        ref = (f((z0 + e)[None])[0] - f((z0 - e)[None])[0]) / (2 * e[j])
        assert abs(g[j] - ref) < 1e-6


def test_expand_along_stationary_quadratic(single_agent_spec):
    costfn = lambda x, u: np.sum(x * x, axis=-1) + np.sum(u * u, axis=-1)
    nominal = constant_velocity_rollout(single_agent_spec)
    H, _, _ = expand_along(costfn, nominal, agent=0, h=1e-3)
    assert len(H) == single_agent_spec.horizon
    for H_t in H:
        assert np.allclose(H_t, H[0], atol=1e-6)


def test_expand_along_pure_state_cost_zero_control_block(single_agent_spec):
    costfn = lambda x, u: np.sum(x * x, axis=-1)
    nominal = constant_velocity_rollout(single_agent_spec)
    H = expand_along(costfn, nominal, agent=0, h=1e-3)[0][0]
    assert np.allclose(H[4:, 4:], 0, atol=1e-8)  # H_uu
    assert np.allclose(H[:4, 4:], 0, atol=1e-8)  # H_xu


def test_fast_path_matches_full_expansion(intersection_spec, theta_star):
    """The separable fast path must agree with the full finite difference."""
    model = agent_costs(theta_star, intersection_spec)[0]
    nominal = constant_velocity_rollout(intersection_spec)
    fast = expand_along(stage_cost(model), nominal, 0, 1e-3, control_weight=control_weight(model))
    full = expand_along(stage_cost(model), nominal, 0, 1e-3)
    for H_f, l_f, c_f, H_l, l_l, c_l in zip(*fast, *full):
        assert np.allclose(H_f, H_l, atol=1e-6)
        assert np.allclose(l_f, l_l, atol=1e-7)
        assert abs(c_f - c_l) < 1e-12


def test_expand_model_along_terminal(intersection_spec, theta_star):
    model = agent_costs(theta_star, intersection_spec)[2]
    nominal = constant_velocity_rollout(intersection_spec)
    expansion = expand(model, nominal)
    assert expansion.horizon == intersection_spec.horizon
    Q, q, _ = (x[:, 0] for x in dense_arrays(expansion))
    assert Q.shape == (intersection_spec.horizon + 1, 12, 12)
    # row T equals a direct expansion of the state cost at the last state
    H, l, _ = expand_terminal(lambda x: state_cost(model, x), nominal.states[0, -1])
    assert np.allclose(Q[-1], H)
    assert np.allclose(q[-1], l)


# --- closed-form expansion against the finite-difference oracle -------------


def _assert_matches_oracle(model, nominal):
    got = expand(model, nominal)
    ref = fd_expand_model_along(model, nominal)
    assert got.horizon == ref.horizon == nominal.horizon
    Q, q, c = (x[:, 0] for x in dense_arrays(got))
    assert np.max(np.abs(Q - ref.Q)) <= 1e-6
    assert np.max(np.abs(q - ref.q)) <= 1e-6
    assert np.max(np.abs(c - ref.c)) <= 1e-12
    assert np.array_equal(got.R, ref.R)
    assert np.max(np.abs(got.r - ref.r)) <= 1e-6


@pytest.mark.parametrize("agent", [0, 1, 2])
def test_expansion_matches_oracle_on_intersection(agent):
    spec = scenario_preset("intersection_k3")
    models = agent_costs([CostParams(np.array([1.0, 2.0, 0.3]))] * 3, spec)
    _assert_matches_oracle(models[agent], constant_velocity_rollout(spec))


def test_expansion_matches_oracle_for_one_agent(single_agent_spec):
    model = agent_costs([CostParams(np.array([1.3, 4.0, 0.7]))], single_agent_spec)[0]
    _assert_matches_oracle(model, constant_velocity_rollout(single_agent_spec))


def test_expansion_matches_oracle_on_eight_agent_ring(ring8_spec):
    models = agent_costs([CostParams(np.array([1.0, 3.0, 0.2]))] * 8, ring8_spec)
    nominal = constant_velocity_rollout(ring8_spec)
    for agent in (0, 3):
        _assert_matches_oracle(models[agent], nominal)


def test_expansion_matches_oracle_along_a_controlled_nominal(intersection_spec, theta_star):
    nominal = mean_rollout(build_policies(theta_star, intersection_spec), intersection_spec)
    assert np.max(np.abs(nominal.controls)) > 0.1
    for model in agent_costs(theta_star, intersection_spec):
        _assert_matches_oracle(model, nominal)


def test_expansion_rejects_nonfinite_cost(single_agent_spec):
    model = agent_costs([CostParams(np.array([1e308, 0.0, 1.0]))], single_agent_spec)[0]
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="non-finite"):
        expand(model, constant_velocity_rollout(single_agent_spec))


@pytest.mark.parametrize("agent", [-1, 3])
def test_expansion_rejects_an_agent_out_of_range(intersection_spec, agent):
    nominal = constant_velocity_rollout(intersection_spec)
    with pytest.raises(ValidationError, match=rf"^agent indices \[{agent}\] must be one or more integers in \[0, 3\)$"):
        expand_model_along(nominal, [agent], intersection_spec.goals[:1], 1.5, np.ones((1, 3)))


@pytest.mark.parametrize("agent", [True, 1.0, np.array([], int)], ids=["True", "1.0", "empty"])
def test_expansion_rejects_an_agent_that_is_not_one_integer_index(intersection_spec, agent):
    nominal = constant_velocity_rollout(intersection_spec)
    with pytest.raises(ValidationError, match="^agent indices .* must be one or more integers"):
        expand_model_along(nominal, agent, intersection_spec.goals[:1], 1.5, np.ones((1, 3)))


@pytest.mark.parametrize("sigma", [-1.5, 0.0, math.nan, math.inf])
def test_expansion_rejects_a_kernel_width_that_is_not_positive_and_finite(intersection_spec, sigma):
    nominal = constant_velocity_rollout(intersection_spec)
    with pytest.raises(ValidationError, match="^sigma must be positive"):
        expand_model_along(nominal, [0], intersection_spec.goals[:1], sigma, np.ones((1, 3)))


def test_expansion_refuses_a_nominal_of_more_than_one_row(intersection_spec):
    # a nominal is one path until the solve takes a scene axis
    nominal = constant_velocity_rollout(intersection_spec)
    with pytest.raises(ValidationError, match=r"^the nominal must be one row, got 2 rows$"):
        expand_model_along(nominal + nominal, [0], intersection_spec.goals[:1], 1.5, np.ones((1, 3)))


@pytest.mark.parametrize("goal", [[1.0], np.zeros(3), np.zeros((2, 2))])
def test_expansion_rejects_a_goal_that_is_not_a_2_vector(single_agent_spec, goal):
    nominal = constant_velocity_rollout(single_agent_spec)
    with pytest.raises(ValidationError, match=r"^goals must be \(1, 2\)"):
        expand_model_along(nominal, [0], [goal], 1.5, np.ones((1, 3)))


def _dense_expansion(model, nominal):
    """The expansion formed directly as dense weighted arrays, with no theta-free terms."""
    states = nominal.states[0]
    T, k, i = nominal.horizon, model.k, model.agent
    s2 = model.sigma * model.sigma
    w_goal, w_prox, _ = model.weights
    pos = states.reshape(T + 1, k, 4)[..., :2]
    r = pos[:, i : i + 1] - pos
    e = np.exp(-np.sum(r * r, axis=-1) / s2)
    e[:, i] = 0.0
    grad = (2.0 / s2) * e[..., None] * r
    M = e[..., None, None] * ((4.0 / (s2 * s2)) * r[..., :, None] * r[..., None, :]
                              - (2.0 / s2) * np.eye(2))
    l = np.zeros((T + 1, k, 4))
    l[:, :, :2] = w_prox * grad
    l[:, i, :2] = 2.0 * w_goal * (pos[:, i] - model.goal) - w_prox * grad.sum(axis=1)
    H = np.zeros((T + 1, k, 4, k, 4))
    H[:, i, :2, :, :2] = -w_prox * M.transpose(0, 2, 1, 3)
    H[:, :, :2, i, :2] = -w_prox * M
    agents = np.arange(k)
    H[:, agents, :2, agents, :2] = w_prox * M.transpose(1, 0, 2, 3)
    H[:, i, :2, i, :2] = 2.0 * w_goal * np.eye(2) + w_prox * M.sum(axis=1)
    R = 2.0 * control_weight(model)
    u = nominal.controls[0, :, i]
    c = state_cost(model, states)
    c[:T] += 0.5 * R * np.sum(u * u, axis=-1)
    return (H.reshape(T + 1, 4 * k, 4 * k) / (T + 1), l.reshape(T + 1, 4 * k) / (T + 1), c, R,
            R * u)


def _assert_matches_dense(expansion, model, nominal):
    Q, q, c = (x[:, 0] for x in dense_arrays(expansion))
    for name, got, ref in zip("QqcRr", (Q, q, c, expansion.R[0], expansion.r[:, 0]),
                              _dense_expansion(model, nominal)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), name
    assert np.array_equal(Q, np.swapaxes(Q, 1, 2))


@pytest.mark.parametrize("preset", ["intersection_k3", "ring8"])
def test_weighted_feature_terms_match_the_dense_expansion(preset, ring8_spec):
    spec = ring8_spec if preset == "ring8" else scenario_preset(preset)
    nominal = constant_velocity_rollout(spec)
    for theta in ((1.0, 0.5, 0.2), (0.5, 8.0, 0.01), (0.0, 3.0, 0.0)):
        models = agent_costs([CostParams(np.array(theta))] * spec.k, spec)
        for model in models:
            _assert_matches_dense(expand(model, nominal), model, nominal)


def test_fill_writes_the_augmented_cost_of_the_dense_arrays(intersection_spec, theta_star):
    # fill writes the augmented cost [[Q, q], [q^T, 2c]]; a DenseCost of the Q, q and c read off it
    # writes it again
    nominal = constant_velocity_rollout(intersection_spec)
    for model in agent_costs(theta_star, intersection_spec):
        e = expand(model, nominal)
        out = np.full((e.horizon + 1, 1, e.state_dim + 1, e.state_dim + 1), np.nan)
        e.fill(out)
        dense = np.zeros_like(out)
        DenseCost(*(x[:, 0] for x in dense_arrays(e)), e.R, e.r).fill(dense)
        assert np.array_equal(out, dense)
        assert np.array_equal(out, np.swapaxes(out, 2, 3))
        assert not e.r.flags.writeable


def _pattern_nominals(spec):
    """Constant velocity, a controlled mean rollout, and one whose last agent is 1 km away."""
    coasting = constant_velocity_rollout(spec)
    thetas = [CostParams(np.array([1.0, 0.5, 0.2]))] * spec.k
    controlled = mean_rollout(build_policies(thetas, spec, SolverConfig(entropy_temp=1e-3)), spec)
    far = coasting.states.copy()
    far[..., -4] += 1000.0  # exp(-(1 km / sigma)^2) is exactly 0.0
    return coasting, controlled, RolloutSet(far, coasting.controls, coasting.dt)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_cost_pattern_is_fixed_by_k_and_agent(make_ring_spec, k):
    spec = make_ring_spec(k)
    n = 4 * k
    nominals = _pattern_nominals(spec)
    assert np.max(np.abs(nominals[1].controls)) > 0.1
    for model in agent_costs([CostParams(np.array([1.0, 3.0, 0.2]))] * k, spec):
        rows, cols = cost_pattern(k, model.agent)
        assert rows.size == cols.size == 10 * k - 3 and (rows[-1], cols[-1]) == (n, n)
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert len(pairs) == rows.size
        # each mirrored pair is listed once: off the diagonal, an entry's mirror is
        # listed only when both lie in one agent's 2x2 position block
        for r, c in pairs:
            assert r == c or (c, r) not in pairs or (max(r, c) < n and r // 4 == c // 4)
        for nominal in nominals:
            e = expand(model, nominal)
            # every expansion of the agent shares one cached, read-only stacked pattern
            assert e.rows is expand(model, nominals[0]).rows and e.cols is expand(model, nominals[0]).cols
            assert np.array_equal(e.rows[0], rows) and np.array_equal(e.cols[0], cols)
            assert not e.rows.flags.writeable and not e.cols.flags.writeable
            # fill is the dense feature terms weighted, bit for bit, zeros and their signs too
            aug = dense_feature_terms(model, nominal)
            w_goal, w_crowd, _ = model.weights
            ref = (w_goal * aug[0] + w_crowd * aug[1]) / (nominal.horizon + 1)
            ref[:-1, n, n] += e.R[0] * np.sum(e.controls[:, 0] * e.controls[:, 0], axis=-1)
            out = np.full((nominal.horizon + 1, 1, n + 1, n + 1), np.nan)
            e.fill(out)
            assert out[:, 0].tobytes() == ref.tobytes()
            assert np.array_equal(e.basis[:, :, 0], aug[:, :, rows, cols])
    # far away, an agent's kernel and its derivatives are exactly 0.0, yet its entries stay
    if k > 1:
        e = expand(agent_costs([CostParams.ones()] * k, spec)[0], nominals[2])
        far = (e.rows[0] // 4 == k - 1) | (e.cols[0] // 4 == k - 1)
        assert far.sum() == 10 and not np.any(e.basis[..., far])


def _stacks(k):
    """All k agents in order, and for k >= 3 a subset in unsorted order."""
    return [list(range(k))] + ([[k - 1, 0, k // 2]] if k >= 3 else [])


@pytest.mark.parametrize("k", [1, 2, 3, 8, 12])
def test_every_member_of_the_stack_is_its_agent_expanded_alone_bit_for_bit(make_ring_spec, k):
    # one pass over all agents gives each agent's basis, entries, R and r as
    # the per-agent pass does, zeros and their signs too, along every nominal
    spec = make_ring_spec(k)
    n1 = 4 * k + 1
    weights = substream(k).uniform(0.0, 3.0, (k, 3))
    for nominal in _pattern_nominals(spec):
        for agents in _stacks(k):
            e = expand_model_along(nominal, agents, spec.goals[agents], spec.sigma, weights[agents])
            assert (len(e), e.horizon, e.state_dim) == (len(agents), spec.horizon, n1 - 1)
            assert np.array_equal(e.agents, agents)
            out = np.full((spec.horizon + 1, len(agents), n1, n1), np.nan)
            e.fill(out)
            for x, i in enumerate(agents):
                rows, cols, basis, entries, R, r = reference_expansion(
                    nominal, i, spec.goals[i], spec.sigma, weights[i])
                assert np.array_equal(e.rows[x], rows) and np.array_equal(e.cols[x], cols)
                assert e.basis[:, :, x].tobytes() == basis.tobytes()
                assert e.R[x] == R and e.r[:, x].tobytes() == r.tobytes()
                ref = np.zeros((spec.horizon + 1, n1, n1))
                ref[:, rows, cols] = ref[:, cols, rows] = entries
                assert out[:, x].tobytes() == ref.tobytes()
            for a in (e.basis, e.controls, e.R, e.r):
                assert not a.flags.writeable


@st.composite
def _crowds(draw):
    """A one-row nominal of 1-12 agents, some coinciding or 1 km away, with goals, weights (k, 3) and sigma."""
    k, T = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    coords = st.floats(-5.0, 5.0)
    states = draw(arrays(float, (T + 1, k, 4), elements=coords))
    if k > 1 and draw(st.booleans()):  # two agents coincide along the whole nominal
        states[:, 1, :2] = states[:, 0, :2]
    if k > 1 and draw(st.booleans()):  # exp(-(1 km / sigma)^2) is exactly 0.0
        states[:, -1, :2] += 1000.0
    controls = draw(arrays(float, (T, k, 2), elements=coords))
    goals = draw(arrays(float, (k, 2), elements=coords))
    weights = draw(arrays(float, (k, 3), elements=st.one_of(st.just(0.0), st.floats(0.0, 3.0))))
    nominal = RolloutSet(states.reshape(1, T + 1, 4 * k), controls[None], 0.1)
    return nominal, goals, weights, draw(st.floats(0.3, 3.0))


@settings(deadline=None, max_examples=40)
@given(crowd=_crowds())
def test_the_filled_stack_is_symmetric_by_construction(crowd):
    # fill writes each stored entry and its mirror: finite, its own transpose
    # byte for byte, and each member the weighted dense feature terms
    nominal, goals, weights, sigma = crowd
    T, k, n1 = nominal.horizon, nominal.k, 4 * nominal.k + 1
    e = expand_model_along(nominal, range(k), goals, sigma, weights)
    out = np.full((T + 1, k, n1, n1), np.nan)
    e.fill(out)
    assert np.all(np.isfinite(out))
    assert out.tobytes() == np.ascontiguousarray(np.swapaxes(out, 2, 3)).tobytes()
    for i in range(k):
        aug = dense_feature_terms(AgentCost(weights[i], i, goals[i], k, T, sigma), nominal)
        w_goal, w_crowd, w_effort = weights[i]
        ref = (w_goal * aug[0] + w_crowd * aug[1]) / (T + 1)
        controls = nominal.controls[0, :, i]
        ref[:-1, -1, -1] += 2.0 * (w_effort / T) * np.sum(controls * controls, axis=-1)
        assert out[:, i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [3, 8])
def test_the_stack_reweighted_is_the_stack_expanded_at_those_weights(make_ring_spec, k):
    spec = make_ring_spec(k)
    nominal = constant_velocity_rollout(spec)
    w1, w2 = substream(k).uniform(0.0, 3.0, (2, k, 3))
    for agents in _stacks(k):
        again = expand_model_along(nominal, agents, spec.goals[agents], spec.sigma, w1[agents])
        again = again.reweighted(w2[agents])
        fresh = expand_model_along(nominal, agents, spec.goals[agents], spec.sigma, w2[agents])
        for got, want in zip((*dense_arrays(again), again.R, again.r), (*dense_arrays(fresh), fresh.R, fresh.r)):
            assert got.tobytes() == want.tobytes()


def test_the_stack_keeps_a_read_only_copy_of_its_weights(intersection_spec):
    nominal = constant_velocity_rollout(intersection_spec)
    w = np.array([[1.0, 0.5, 0.2], [2.0, 0.0, 0.3], [0.5, 1.5, 1.0]])
    e = expand_model_along(nominal, range(3), intersection_spec.goals, 1.5, w)
    w[0, 0] = 9.0
    assert e.weights.tolist() == [[1.0, 0.5, 0.2], [2.0, 0.0, 0.3], [0.5, 1.5, 1.0]]
    assert not e.weights.flags.writeable
    assert e.reweighted(w).weights.tobytes() == w.tobytes()


def test_the_stack_refuses_weights_and_outs_of_another_shape(intersection_spec):
    nominal = constant_velocity_rollout(intersection_spec)
    with pytest.raises(ValidationError, match=r"^weights must be \(3, 3\), got \(3,\)$"):
        expand_model_along(nominal, range(3), intersection_spec.goals, 1.5, np.ones(3))
    e = expand_model_along(nominal, range(3), intersection_spec.goals, 1.5, np.ones((3, 3)))
    with pytest.raises(ValidationError, match=r"^weights must be \(3, 3\), got \(1, 3\)$"):
        e.reweighted(np.ones((1, 3)))
    T, n1 = intersection_spec.horizon, 13
    for out in (np.empty((T + 1, 2, n1, n1)), np.empty((T + 1, n1, 3, n1)).swapaxes(1, 2)):
        with pytest.raises(ValidationError, match="^fill needs a C-contiguous out of shape"):
            e.fill(out)


@st.composite
def _scenes(draw):
    k = draw(st.integers(1, 4))
    T = draw(st.integers(5, 10))
    # The oracle's truncation error is about 4e-6 * theta1 / ((T+1) sigma^4)
    # per agent pair at steps of 1e-3 (positions within 1 m of the origin):
    # these ranges keep it below 1e-6.
    coords = st.floats(-1.0, 1.0)
    states = draw(arrays(float, (T + 1, k, 4), elements=coords)).reshape(T + 1, 4 * k)
    controls = draw(arrays(float, (T, k, 2), elements=coords))
    goal = draw(arrays(float, 2, elements=st.floats(-5.0, 5.0)))
    return RolloutSet(states[None], controls[None], 0.1), draw(st.integers(0, k - 1)), goal


_weights = arrays(float, 3, elements=st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=30)
@given(scene=_scenes(), w1=_weights, w2=_weights, sigma=st.floats(1.0, 3.0),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_expansion_matches_oracle_and_is_linear_in_theta(scene, w1, w2, sigma, a, b):
    nominal, agent, goal = scene

    def model(w):
        return AgentCost(weights=w, agent=agent, goal=goal, k=nominal.k,
                         horizon=nominal.horizon, sigma=sigma)

    def parts(e):  # Q, q, c, R, r
        return (*dense_arrays(e), e.R, e.r)

    _assert_matches_oracle(model(w1), nominal)
    mixed = expand(model(a * w1 + b * w2), nominal)
    e1 = expand(model(w1), nominal)
    e2 = expand(model(w2), nominal)
    for got, one, two in zip(parts(mixed), parts(e1), parts(e2)):
        assert np.max(np.abs(got - (a * one + b * two))) <= 1e-12
    # the terms expanded at w1 and re-weighted to a w1 + b w2 give that expansion
    # bit for bit, and the dense formula within rounding
    reweighted = e1.reweighted((a * w1 + b * w2)[None])
    for got, want in zip(parts(reweighted), parts(mixed)):
        assert np.array_equal(got, want)
    _assert_matches_dense(reweighted, model(a * w1 + b * w2), nominal)
