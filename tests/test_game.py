import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdirl.cli import scenario_preset
from crowdirl.errors import InternalError, SolverError, ValidationError
from crowdirl.features import (
    DEFAULT_SIGMA,
    CostParams,
    expected_features,
    stage_cost_models,
    state_features,
)
from crowdirl.game import (
    FEEDBACK_TILE,
    MAX_GAIN_CONDITION,
    PINV_CUTOFF,
    Game,
    PolicySequence,
    SolverConfig,
    _robust_inverse,
    _solve_gains,
    build_policies,
    condition_covariance,
    mean_rollout,
    min_eigenvalue,
    sample_rollouts,
    solve_lq_game,
)
from crowdirl.quadratic import expand_model_along, linearize_dynamics
from crowdirl.trajectory import (
    DEFAULT_U_MAX,
    AgentState,
    JointState,
    ScenarioSpec,
    Trajectory,
    clamp_control,
    constant_velocity_rollout,
    propagate_joint,
    rollout,
)
from crowdirl.rng import substream
from fd_oracle import DenseCost, cost_expansion, expand_along
from moment_oracle import exact_features
from test_trajectory import norm_where_clamp


# --- independent oracle: textbook affine discrete-time Riccati recursion ----
#
# Minimizes sum_t [x'Qx/2 + q'x + u'Ru/2 + r'u] + x'Qf x/2 + qf'x with
# x' = Ax + Bu, via the classic backward pass. Written without reference to
# the package solver so the two can disagree.


def textbook_affine_lqr(A, B, Q_seq, q_seq, R_seq, r_seq, Qf, qf):
    T = len(Q_seq)
    P, p = Qf, qf
    gains, ffs = [], []
    for t in range(T - 1, -1, -1):
        Q, q, R, r = Q_seq[t], q_seq[t], R_seq[t], r_seq[t]
        Huu = R + B.T @ P @ B
        K = np.linalg.solve(Huu, B.T @ P @ A)
        kff = np.linalg.solve(Huu, B.T @ p + r)
        Acl = A - B @ K
        P_next = Q + K.T @ R @ K + Acl.T @ P @ Acl
        p_next = q + K.T @ R @ kff - K.T @ r + Acl.T @ (p - P @ B @ kff)
        P, p = 0.5 * (P_next + P_next.T), p_next
        gains.append(K)
        ffs.append(kff)
    gains.reverse()
    ffs.reverse()
    return gains, ffs


def _solve_single_agent(spec, theta, cfg=SolverConfig()):
    models = stage_cost_models([theta], spec)
    nominal = constant_velocity_rollout(spec)
    expansion = expand_model_along(models[0], nominal)
    dyn = linearize_dynamics(1, spec.dt)
    policies = solve_lq_game(dyn, [expansion], cfg, nominal=nominal)
    return policies, expansion, dyn, nominal


def _textbook_gains(dyn, e):
    """Textbook LQR gains of a one-agent CostExpansion (row T is the terminal cost)."""
    T = e.horizon
    return textbook_affine_lqr(
        dyn.A, dyn.B[0], e.Q[:T], e.q[:T], [e.R * np.eye(2)] * T, e.r, e.Q[T], e.q[T]
    )


def _ring_spec(k: int, radius: float = 4.5) -> ScenarioSpec:
    angles = 2 * np.pi * np.arange(k) / k
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    agents = tuple(AgentState(*(radius * u), *(-1.2 * u)) for u in unit)
    return ScenarioSpec(k=k, x0=JointState(agents), goals=-radius * unit, horizon=30, dt=0.1)


def test_single_agent_matches_textbook_riccati(single_agent_spec):
    theta = CostParams(np.array([1.0, 0.0, 1.0]))
    policies, expansion, dyn, _ = _solve_single_agent(single_agent_spec, theta)
    gains, ffs = _textbook_gains(dyn, expansion)
    for t in range(single_agent_spec.horizon):
        assert np.allclose(policies.K[t, 0], gains[t], atol=1e-8)
        # package kff folds the (zero) nominal control: kff = -oracle_ff
        assert np.allclose(policies.kff[t, 0], -ffs[t], atol=1e-8)


def test_single_agent_mean_rollout_matches_oracle_trajectory(single_agent_spec):
    theta = CostParams(np.array([1.0, 0.0, 1.0]))
    policies, expansion, dyn, nominal = _solve_single_agent(single_agent_spec, theta)
    gains, ffs = _textbook_gains(dyn, expansion)
    dx = np.zeros(4)
    oracle_states = [nominal.states[0] + dx]
    for t in range(single_agent_spec.horizon):
        u = -gains[t] @ dx - ffs[t]
        dx = dyn.A @ dx + dyn.B[0] @ u
        oracle_states.append(nominal.states[t + 1] + dx)
    traj = mean_rollout(policies, single_agent_spec)
    assert np.max(np.abs(traj.states - np.stack(oracle_states))) < 1e-8


def test_pure_effort_cost_gives_flat_policy_and_inverse_sigma():
    spec = ScenarioSpec(
        k=1, x0=JointState((AgentState(0, 0, 0.5, 0),)), goals=np.array([[1.0, 0.0]]),
        horizon=5, dt=0.1,
    )
    theta3 = 0.8
    costfn = lambda x, u: theta3 * np.sum(u * u, axis=-1)
    nominal = constant_velocity_rollout(spec)
    stages = expand_along(costfn, nominal, agent=0)
    expansion = cost_expansion(stages, (np.zeros((4, 4)), np.zeros(4), 0.0), 4)
    dyn = linearize_dynamics(1, spec.dt)
    policies = solve_lq_game(dyn, [expansion], SolverConfig(entropy_temp=2.0), nominal=nominal)
    assert np.allclose(policies.K, 0, atol=1e-9)
    assert np.allclose(policies.kff, 0, atol=1e-9)
    assert np.allclose(policies.Sigma, 2.0 / (2 * theta3) * np.eye(2), atol=1e-6)


def test_decoupled_game_equals_independent_solves(intersection_spec):
    theta = CostParams(np.array([1.0, 0.0, 0.2]))  # proximity weight zero
    joint = build_policies([theta] * 3, intersection_spec)
    for i in range(3):
        sub = ScenarioSpec(
            k=1,
            x0=JointState((intersection_spec.x0.agents[i],)),
            goals=intersection_spec.goals[i : i + 1],
            horizon=intersection_spec.horizon,
            dt=intersection_spec.dt,
        )
        solo = build_policies([theta], sub)
        own = joint.K[:, i, :, 4 * i : 4 * i + 4]
        cross = np.delete(joint.K[:, i], np.s_[4 * i : 4 * i + 4], axis=-1)
        assert np.max(np.abs(own - solo.K[:, 0])) < 1e-9
        assert np.max(np.abs(cross)) < 1e-12
        assert np.max(np.abs(joint.kff[:, i] - solo.kff[:, 0])) < 1e-9
        assert np.max(np.abs(joint.Sigma[:, i] - solo.Sigma[:, 0])) < 1e-9


def test_min_eigenvalue_examples():
    assert abs(min_eigenvalue(np.eye(3)) - 1.0) < 1e-12
    assert abs(min_eigenvalue(np.diag([3.0, -2.0])) + 2.0) < 1e-12
    assert abs(min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) - 1.0) < 1e-10
    with pytest.raises(ValidationError):
        min_eigenvalue(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestConditionCovariance:
    def test_already_pd_is_untouched(self):
        S = np.diag([0.5, 2.0])
        out = condition_covariance(S, 1e-6)
        assert np.array_equal(out, S)

    def test_indefinite_shift(self):
        out = condition_covariance(np.diag([1.0, -1.0]), 1e-6)
        assert np.allclose(out, np.diag([2.0 + 1e-6, 1e-6]), atol=1e-15)

    def test_zero_matrix(self):
        out = condition_covariance(np.zeros((2, 2)), 1e-6)
        assert np.allclose(out, 1e-6 * np.eye(2))

    def test_randomized_floor_idempotence_minimality(self):
        rng = np.random.default_rng(123)
        eps = 1e-6
        for _ in range(200):
            lam = rng.uniform(-5, 5, size=2)
            ang = rng.uniform(0, np.pi)
            R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            S = R @ np.diag(lam) @ R.T
            S = 0.5 * (S + S.T)
            out = condition_covariance(S, eps)
            assert min_eigenvalue(out) >= eps - 1e-12
            again = condition_covariance(out, eps)
            assert np.allclose(again, out, atol=1e-15)
            shift = (out - S)[0, 0]
            assert np.allclose(out - S, shift * np.eye(2), atol=1e-12)
            if lam.min() < eps:
                assert abs(shift - (eps - lam.min())) < 1e-9

    @pytest.mark.parametrize("a, b, c", [
        (0.29621784042087357, 0.17214920138308412, 0.10004578891915161),
        (0.1694396984756563, 0.42913033744089385, 1.0868341254667249),
    ])
    def test_floor_below_rounding_still_yields_a_cholesky_factor(self, a, b, c):
        # rounded rank-one matrices: the smallest eigenvalue computes to 1e-17
        # or more, above a 1e-18 floor, yet LAPACK finds no Cholesky factor
        S = np.array([[a, b], [b, c]])
        out = condition_covariance(S, 1e-18)
        np.linalg.cholesky(out)
        assert min_eigenvalue(out) >= 1e-18
        assert np.allclose(out - S, (out - S)[0, 0] * np.eye(2), rtol=0, atol=1e-15)
        assert np.array_equal(condition_covariance(out, 1e-18), out)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            condition_covariance(np.array([[1.0, 0.1], [0.0, 1.0]]), 1e-6)


def test_conditioning_engages_in_crowded_low_effort_game():
    spec = ScenarioSpec(
        k=2,
        x0=JointState((AgentState(-1.5, 0, 1.0, 0), AgentState(1.5, 0.05, -1.0, 0))),
        goals=np.array([[1.5, 0.0], [-1.5, 0.05]]),
        horizon=30,
        dt=0.1,
    )
    theta = CostParams(np.array([0.5, 8.0, 0.01]))
    cfg = SolverConfig(entropy_temp=1.0)
    policies = build_policies([theta, theta], spec, cfg)
    assert policies.diagnostics.conditioned_stages > 0
    for t, i in np.ndindex(policies.horizon, policies.k):
        assert min_eigenvalue(policies.Sigma[t, i]) >= cfg.eps_psd - 1e-12
    # events carry (t, agent, shift); only applied shifts are logged
    for t, i, s in policies.diagnostics.events:
        assert 0 <= t < 30 and i in (0, 1) and s > 0.0


def test_small_curvature_already_above_the_floor_is_not_a_repair():
    # own-control curvature 2 * 1.5e-6 / T = 1e-7 sits below eps_psd, but its
    # covariance 1e7 I already clears the floor: nothing is shifted or logged
    spec = ScenarioSpec(
        k=1, x0=JointState((AgentState(4.5, 0, -1.2, 0),)), goals=np.array([[-4.5, 0.0]]),
        horizon=30, dt=0.1,
    )
    policies = build_policies([CostParams(np.array([0.0, 0.0, 1.5e-6]))], spec)
    assert policies.diagnostics.conditioned_stages == 0
    assert np.allclose(policies.Sigma, 1e7 * np.eye(2), rtol=1e-9, atol=0)


def test_sampling_seed_determinism(intersection_spec, theta_star):
    policies = build_policies(theta_star, intersection_spec, SolverConfig(entropy_temp=1e-3))
    a = sample_rollouts(policies, intersection_spec, 4, seed=77)
    b = sample_rollouts(policies, intersection_spec, 4, seed=77)
    for x, y in zip(a, b):
        assert np.array_equal(x.states, y.states)
        assert np.array_equal(x.controls, y.controls)
    c = sample_rollouts(policies, intersection_spec, 4, seed=78)
    assert not np.array_equal(a[0].states, c[0].states)


def test_sampling_batch_size_invariance(intersection_spec, ring8_spec, theta_star):
    # sizes on both sides of a feedback tile; at u_max = 1 on the ring the
    # clamp engages on most controls
    sizes = (1, FEEDBACK_TILE - 1, FEEDBACK_TILE, FEEDBACK_TILE + 1, 33)
    for spec, u_max in ((intersection_spec, DEFAULT_U_MAX), (ring8_spec, 1.0)):
        policies = build_policies(
            [theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1e-3)
        )
        ref = sample_rollouts(policies, spec, 40, seed=5, u_max=u_max)
        for M in sizes:
            got = sample_rollouts(policies, spec, M, seed=5, u_max=u_max)
            for a, b in zip(got, ref[:M], strict=True):
                assert np.array_equal(a.states, b.states)
                assert np.array_equal(a.controls, b.controls)
        norms = np.linalg.norm(np.stack([r.controls for r in ref]), axis=-1)
        assert np.all(norms <= u_max * (1 + 1e-15))
    assert np.mean(np.abs(norms - 1.0) <= 1e-12) > 0.5


def tiled_feedback(dx, K):
    """K @ dx of every row as one GEMM per FEEDBACK_TILE rows, padded with zero rows."""
    M, n = dx.shape
    rows = np.zeros((-(-M // FEEDBACK_TILE) * FEEDBACK_TILE, n))
    rows[:M] = dx
    gains = np.ascontiguousarray(K.reshape(-1, n).T)
    return (rows.reshape(-1, FEEDBACK_TILE, n) @ gains).reshape(-1, *K.shape[:2])[:M]


def reduced_feedback(dx, K):
    """K @ dx of every row as a broadcast product summed over the state axis."""
    return np.sum(dx[:, None, None, :] * K, axis=-1)


def _per_step_rollouts(policies, spec, noise, u_max, clamp=clamp_control, feedback=tiled_feedback):
    """Reference: the game's own time loop, before rollouts shared trajectory.rollout."""
    T, k = policies.horizon, policies.k
    M = 1 if noise is None else noise.shape[0]
    chol = np.linalg.cholesky(policies.Sigma)
    states = np.empty((M, T + 1, 4 * k))
    controls = np.empty((M, T, k, 2))
    states[:, 0] = spec.x0.as_array()
    for t in range(T):
        dx = states[:, t] - policies.nominal_states[t]
        u = policies.kff[t] - feedback(dx, policies.K[t])
        if noise is not None:
            u = u + np.sum(noise[:, t, :, None, :] * chol[t], axis=-1)
        controls[:, t] = clamp(u, u_max)
        states[:, t + 1] = propagate_joint(states[:, t], controls[:, t], spec.dt)
    return states, controls


def test_rollouts_equal_the_per_step_loop_bit_for_bit(ring8_spec, theta_star):
    spec, u_max = ring8_spec, 1.0
    policies = build_policies([theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1e-3))
    got = sample_rollouts(policies, spec, 6, seed=5, u_max=u_max)
    states, controls = _per_step_rollouts(
        policies, spec, substream(5).standard_normal((6, spec.horizon, spec.k, 2)), u_max)
    assert got.states.tobytes() == states.tobytes()
    assert got.controls.tobytes() == controls.tobytes()
    assert np.any(np.abs(np.linalg.norm(controls, axis=-1) - u_max) <= 1e-12)  # clamp engaged
    mean = mean_rollout(policies, spec, u_max)
    states, controls = _per_step_rollouts(policies, spec, None, u_max)
    assert mean.states.tobytes() == states[0].tobytes()
    assert mean.controls.tobytes() == controls[0].tobytes()


def test_hot_ring_rollouts_equal_the_norm_and_where_loop_bit_for_bit(ring8_spec, theta_star):
    # entropy_temp 1 makes most controls exceed u_max: the per-step noise sum
    # and the norm-and-where clamp are the reference for the noise term and scale
    spec, M, u_max = ring8_spec, 128, DEFAULT_U_MAX
    policies = build_policies([theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1.0))
    got = sample_rollouts(policies, spec, M, seed=9, u_max=u_max)
    noise = substream(9).standard_normal((M, spec.horizon, spec.k, 2))
    states, controls = _per_step_rollouts(policies, spec, noise, u_max, norm_where_clamp)
    assert got.states.tobytes() == states.tobytes()
    assert got.controls.tobytes() == controls.tobytes()
    clamped = np.abs(np.linalg.norm(controls, axis=-1) - u_max) <= 1e-12
    assert np.mean(clamped) > 0.9


@pytest.mark.parametrize("k", [3, 8, 12])
def test_mean_rollout_equals_row_0_of_a_padded_tile_bit_for_bit(k, theta_star):
    # the mean rollout used to step FEEDBACK_TILE identical rows from x0; now
    # only its feedback GEMM is padded, and row 0 keeps every bit
    spec, u_max = _ring_spec(k), 1.0
    policies = build_policies([theta_star[0]] * k, spec, SolverConfig(entropy_temp=1e-3))
    n = 4 * k
    gains = np.ascontiguousarray(np.swapaxes(policies.K.reshape(spec.horizon, 2 * k, n), 1, 2))

    def act(t, states):
        dx = (states - policies.nominal_states[t]).reshape(-1, FEEDBACK_TILE, n)
        return policies.kff[t] - (dx @ gains[t]).reshape(FEEDBACK_TILE, k, 2)

    x0 = np.tile(spec.x0.as_array(), (FEEDBACK_TILE, 1))
    states, controls = rollout(x0, spec.horizon, spec.dt, act, u_max)
    mean = mean_rollout(policies, spec, u_max)
    assert mean.states.tobytes() == states[0].tobytes()
    assert mean.controls.tobytes() == controls[0].tobytes()
    assert np.any(np.abs(np.linalg.norm(controls[0], axis=-1) - u_max) <= 1e-12)  # clamp engaged


@pytest.mark.parametrize(
    "spec", [scenario_preset("intersection_k3"), _ring_spec(8)], ids=["intersection_k3", "ring8"]
)
def test_tiled_feedback_stays_within_rounding_of_the_reduced_loop(spec, theta_star):
    # the reduced loop was the rollout arithmetic before the feedback became a
    # tiled GEMM; entropy_temp 1 clamps most controls on the ring
    M, u_max = 128, DEFAULT_U_MAX
    policies = build_policies([theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1.0))
    noise = substream(9).standard_normal((M, spec.horizon, spec.k, 2))
    got = sample_rollouts(policies, spec, M, seed=9, u_max=u_max)
    states, controls = _per_step_rollouts(policies, spec, noise, u_max, feedback=reduced_feedback)
    assert np.max(np.abs(got.states - states)) <= 1e-12
    assert np.max(np.abs(got.controls - controls)) <= 1e-12
    mean = mean_rollout(policies, spec, u_max)
    states, controls = _per_step_rollouts(policies, spec, None, u_max, feedback=reduced_feedback)
    assert np.max(np.abs(mean.states - states[0])) <= 1e-12
    assert np.max(np.abs(mean.controls - controls[0])) <= 1e-12


def test_vanishing_noise_collapses_to_mean(single_agent_spec):
    # floor must drop with the temperature, else conditioning re-inflates Sigma
    theta = CostParams(np.array([1.0, 0.0, 1.0]))
    policies, *_ = _solve_single_agent(
        single_agent_spec, theta, SolverConfig(entropy_temp=1e-300, eps_psd=1e-30)
    )
    mean = mean_rollout(policies, single_agent_spec)
    for r in sample_rollouts(policies, single_agent_spec, 2, seed=0):
        assert np.max(np.abs(r.states - mean.states)) < 1e-9


def test_sampled_control_mean_obeys_clt():
    # zero-gain zero-feedforward policy of two agents, one step, dt = 1, no
    # clamp: the step-0 controls are the scaled noise; bounds are 4 standard errors
    sigma = np.array([[[1.0, 0.6], [0.6, 2.0]], [[0.5, -0.3], [-0.3, 1.5]]])
    policies = PolicySequence(
        K=np.zeros((1, 2, 2, 8)), kff=np.zeros((1, 2, 2)), Sigma=sigma[None],
        nominal_states=np.zeros((2, 8)), dt=1.0,
    )
    spec = ScenarioSpec(
        k=2, x0=JointState((AgentState(0, 0, 0, 0),) * 2), goals=None, horizon=1, dt=1.0
    )
    M = 4000
    u = sample_rollouts(policies, spec, M, seed=2024, u_max=np.inf).controls[:, 0]  # (M, 2, 2)
    var = np.diagonal(sigma, axis1=1, axis2=2)  # (agent, component)
    assert np.all(np.abs(u.mean(axis=0)) < 4 * np.sqrt(var / M))
    # each agent's second moment is its Sigma; Var(x_a x_b) = S_aa S_bb + S_ab^2
    cov = np.einsum("mia,mib->iab", u, u) / M
    se = np.sqrt((var[:, :, None] * var[:, None, :] + sigma**2) / M)
    assert np.all(np.abs(cov - sigma) < 4 * se)
    # the agents' noise is independent: cross moments about 0
    cross = u[:, 0].T @ u[:, 1] / M
    assert np.all(np.abs(cross) < 4 * np.sqrt(np.outer(var[0], var[1]) / M))
    # consecutive rollouts read disjoint stretches of one stream: no lag-1 correlation
    z = (u / np.sqrt(var)).reshape(M, 4)
    lag = z[:-1].T @ z[1:] / (M - 1)
    assert np.all(np.abs(lag) < 4 / np.sqrt(M - 1))


def test_sampled_features_match_the_exact_moments_of_the_coupled_game(theta_star):
    # no clamp, so the joint state is Gaussian; at entropy_temp 1 the noise moves
    # every feature 20 to 350 standard errors away from the mean path's
    spec, M = scenario_preset("intersection_k3"), 4000
    policies = build_policies(theta_star, spec, SolverConfig(entropy_temp=1.0))
    rollouts = sample_rollouts(policies, spec, M, seed=3, u_max=np.inf)
    got = expected_features(rollouts, range(3), spec.goals)
    goal, crowd = state_features(rollouts.states, np.arange(3), spec.goals, DEFAULT_SIGMA)
    effort = np.sum(rollouts.controls**2, axis=-1)
    per_traj = np.stack([goal.mean(axis=1), crowd.mean(axis=1), effort.mean(axis=1)], axis=-1)
    se = per_traj.std(axis=0, ddof=1) / np.sqrt(M)
    assert np.all(np.abs(got - exact_features(policies, spec)) < 4 * se)


def test_exact_moments_collapse_to_the_mean_rollout_without_noise(theta_star):
    spec = scenario_preset("intersection_k3")
    policies = build_policies(theta_star, spec, SolverConfig(entropy_temp=1e-300, eps_psd=1e-30))
    mean = mean_rollout(policies, spec, u_max=np.inf)
    ref = expected_features([mean], range(3), spec.goals)
    assert np.max(np.abs(exact_features(policies, spec) - ref)) <= 1e-9


def test_nash_first_order_stationarity(intersection_spec, theta_star):
    models = stage_cost_models(theta_star, intersection_spec)
    nominal = constant_velocity_rollout(intersection_spec)
    expansions = [expand_model_along(m, nominal) for m in models]
    dyn = linearize_dynamics(3, intersection_spec.dt)
    policies = solve_lq_game(dyn, expansions, SolverConfig(), nominal=nominal)
    assert policies.diagnostics.conditioned_stages == 0  # PD game, saddle-free

    def agent_cost(agent, K_override, dx0):
        e = expansions[agent]
        dx = dx0.copy()
        total = 0.0
        for t in range(intersection_spec.horizon):
            us = []
            for j in range(3):
                K = K_override.get((j, t), policies.K[t, j])
                us.append(policies.kff[t, j] - K @ dx)
            u = us[agent]
            total += e.c[t] + e.q[t] @ dx + 0.5 * dx @ e.Q[t] @ dx
            total += e.r[t] @ u + 0.5 * e.R * u @ u
            dx = dyn.A @ dx + sum(dyn.B[j] @ us[j] for j in range(3))
        T = intersection_spec.horizon
        total += e.c[T] + e.q[T] @ dx + 0.5 * dx @ e.Q[T] @ dx
        return total

    rng = np.random.default_rng(31)
    dx0 = 0.05 * rng.standard_normal(12)
    for agent, t0 in ((0, 3), (1, 11), (2, 27)):
        base = agent_cost(agent, {}, dx0)
        for _ in range(5):
            dK = rng.standard_normal((2, 12))
            dK *= 1e-4 / np.linalg.norm(dK)
            pert = agent_cost(
                agent, {(agent, t0): policies.K[t0, agent] + dK}, dx0
            )
            assert pert >= base - 1e-6 * np.linalg.norm(dK)


def test_singular_gain_system_raises_with_timestep():
    # zero cost everywhere: the stacked stationarity system is singular
    spec = ScenarioSpec(
        k=1, x0=JointState((AgentState(0, 0, 0, 0),)), goals=None, horizon=3, dt=0.1
    )
    zero = lambda x, u: np.zeros(x.shape[:-1])
    nominal = constant_velocity_rollout(spec)
    stages = expand_along(zero, nominal, agent=0)
    expansion = cost_expansion(stages, (np.zeros((4, 4)), np.zeros(4), 0.0), 4)
    with pytest.raises(SolverError) as err:
        solve_lq_game(linearize_dynamics(1, 0.1), [expansion], SolverConfig(), nominal=nominal)
    assert err.value.timestep == 2


def test_gain_screen_falls_back_to_the_exact_condition():
    # ||S||_F ||S^-1||_F = 3 / 1.1e-12 overstates cond_2(S) = 1 / 1.1e-12 <= 1e12
    S = np.diag([1.0, 1.0, 1.0, 1.1e-12, 1.1e-12, 1.1e-12])
    assert np.linalg.norm(S) * np.linalg.norm(np.linalg.inv(S)) > MAX_GAIN_CONDITION
    assert np.linalg.cond(S) <= MAX_GAIN_CONDITION
    rhs = np.arange(12.0).reshape(6, 2)
    got = _solve_gains(S, np.concatenate([rhs, np.eye(6)], axis=1), 4)
    assert np.array_equal(got, np.linalg.solve(S, rhs))


@pytest.mark.parametrize(
    "S", [np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 5e-13]), np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])],
    ids=["cond-2e12", "exactly-singular"],
)
def test_gain_screen_rejects_ill_conditioned_systems(S):
    with pytest.raises(SolverError) as err:
        _solve_gains(S, np.concatenate([np.ones((6, 2)), np.eye(6)], axis=1), 7)
    assert err.value.timestep == 7


def test_solve_screens_the_gain_condition_through_its_identity_columns():
    # terminal cost on px alone and a tiny effort weight: at t = T-1 the gain
    # system diag(dt^4/4 + R, R) has an LU but cond_2 = 1.5e12, which only the
    # ||S||_F ||S^-1||_F screen over the solve's identity columns can flag
    T, dt = 3, 0.1
    Q = np.zeros((T + 1, 4, 4))
    Q[T, 0, 0] = 1.0
    R = dt**4 / 4 / 1.5e12
    expansion = DenseCost(Q, np.zeros((T + 1, 4)), np.zeros(T + 1), R, np.zeros((T, 2)))
    nominal = Trajectory(np.zeros((T + 1, 4)), np.zeros((T, 1, 2)), dt)
    with pytest.raises(SolverError) as err:
        solve_lq_game(linearize_dynamics(1, dt), [expansion], SolverConfig(), nominal=nominal)
    assert err.value.timestep == T - 1


def _per_step_reference(dyn, costs, cfg, nominal):
    """The augmented recursion with the gain condition, solve and covariance formed stage by stage."""
    k, n, T = dyn.k, dyn.state_dim, costs[0].horizon
    Qa = np.zeros((T + 1, k, n + 1, n + 1))
    for i, e in enumerate(costs):
        Qa[:, i, :n, :n] = e.Q
        Qa[:, i, :n, n] = Qa[:, i, n, :n] = e.q
        Qa[:, i, n, n] = 2.0 * e.c
    r = np.stack([e.r for e in costs], axis=1)
    R = np.array([e.R for e in costs])[:, None, None]
    A = np.eye(n + 1)
    A[:n, :n] = dyn.A
    Bt = np.zeros((k, 2, n + 1))
    Bt[..., :n] = np.swapaxes(dyn.B, 1, 2)
    B_all = Bt.reshape(2 * k, n + 1).T
    own, eye = np.arange(k), np.eye(2)
    Z = Qa[T]
    K_out, kff_out, Sigma_out = np.empty((T, k, 2, n)), np.empty((T, k, 2)), np.empty((T, k, 2, 2))
    events = []
    for t in range(T - 1, -1, -1):
        BtZ = Bt @ Z
        S = BtZ.reshape(2 * k, n + 1) @ B_all
        blocks = S.reshape(k, 2, k, 2)
        Huu_q = blocks[own, :, own, :] + R * eye
        Huu_q = 0.5 * (Huu_q + np.swapaxes(Huu_q, 1, 2))
        blocks[own, :, own, :] = Huu_q
        Y = (BtZ @ A).reshape(2 * k, n + 1)
        Y[:, n] += r[t].reshape(-1)
        if np.linalg.cond(S) > MAX_GAIN_CONDITION:
            raise SolverError("coupled gain system is numerically singular", timestep=t)
        sol = np.linalg.solve(S, Y)
        G = sol.reshape(k, 2, n + 1)
        sigma = cfg.entropy_temp * _robust_inverse(Huu_q)
        sigma = 0.5 * (sigma + np.swapaxes(sigma, 1, 2))
        shift = np.maximum(0.0, cfg.eps_psd - np.linalg.eigvalsh(sigma)[:, 0])
        for i in np.flatnonzero(shift > 0.0):
            sigma[i] = condition_covariance(sigma[i], cfg.eps_psd)
            events.append((t, int(i), float(shift[i])))
        K_out[t], kff_out[t], Sigma_out[t] = G[..., :n], nominal.controls[t] - G[..., n], sigma
        F = A - B_all @ sol
        RG = R * G
        RG[..., n] -= 2.0 * r[t]
        Z_new = Qa[t] + np.swapaxes(G, 1, 2) @ RG + F.T @ Z @ F
        Z = 0.5 * (Z_new + np.swapaxes(Z_new, 1, 2))
    return K_out, kff_out, Sigma_out, events


def _unaugmented_reference(dyn, costs, cfg, nominal):
    """The recursion on dx alone: [K | alpha] from [Yk | yff], then separate Z and zeta updates."""
    k, n, T = dyn.k, dyn.state_dim, costs[0].horizon
    Q = np.stack([e.Q for e in costs], axis=1)
    q = np.stack([e.q for e in costs], axis=1)
    r = np.stack([e.r for e in costs], axis=1)
    R = np.array([e.R for e in costs])[:, None, None]
    A, Bt = dyn.A, np.swapaxes(dyn.B, 1, 2)
    B_all = Bt.reshape(2 * k, n).T
    own, eye = np.arange(k), np.eye(2)
    Z, zeta = Q[T], q[T]
    K_out, kff_out, Sigma_out = np.empty((T, k, 2, n)), np.empty((T, k, 2)), np.empty((T, k, 2, 2))
    events = []
    for t in range(T - 1, -1, -1):
        BtZ = Bt @ Z
        S = BtZ.reshape(2 * k, n) @ B_all
        blocks = S.reshape(k, 2, k, 2)
        Huu_q = blocks[own, :, own, :] + R * eye
        Huu_q = 0.5 * (Huu_q + np.swapaxes(Huu_q, 1, 2))
        blocks[own, :, own, :] = Huu_q
        Yk = (BtZ @ A).reshape(2 * k, n)
        yff = r[t] + (Bt @ zeta[..., None])[..., 0]
        sol = np.linalg.solve(S, np.concatenate([Yk, yff.reshape(-1, 1)], axis=1))
        K_all, alpha_all = sol[:, :-1], sol[:, -1]
        K, alpha = K_all.reshape(k, 2, n), alpha_all.reshape(k, 2)
        sigma = cfg.entropy_temp * _robust_inverse(Huu_q)
        sigma = 0.5 * (sigma + np.swapaxes(sigma, 1, 2))
        shift = np.maximum(0.0, cfg.eps_psd - np.linalg.eigvalsh(sigma)[:, 0])
        for i in np.flatnonzero(shift > 0.0):
            sigma[i] = condition_covariance(sigma[i], cfg.eps_psd)
            events.append((t, int(i), float(shift[i])))
        K_out[t], kff_out[t], Sigma_out[t] = K, nominal.controls[t] - alpha, sigma
        F = A - B_all @ K_all
        beta = -B_all @ alpha_all
        Kt = np.swapaxes(K, 1, 2)
        Z_new = Q[t] + R * (Kt @ K) + F.T @ Z @ F
        zeta = (
            q[t] + (Kt @ (R[..., 0] * alpha - r[t])[..., None])[..., 0] + ((zeta + (Z @ beta)) @ F)
        )
        Z = 0.5 * (Z_new + np.swapaxes(Z_new, 1, 2))
    return K_out, kff_out, Sigma_out, events


def _expanded_scene(spec, theta):
    models = stage_cost_models([CostParams(np.array(theta))] * spec.k, spec)
    nominal = constant_velocity_rollout(spec)
    return [expand_model_along(m, nominal) for m in models], linearize_dynamics(spec.k, spec.dt), nominal


_REPAIRED = [
    pytest.param(scenario_preset("intersection_k3"), (0.5, 8.0, 0.01), 1.0, 15, id="intersection_k3"),
    pytest.param(_ring_spec(8), (1.0, 2.5, 0.3), 1e-3, 16, id="ring8"),
    pytest.param(_ring_spec(12), (0.5, 8.0, 0.01), 1.0, 60, id="ring12"),
]
REPAIRED_SCENES = pytest.mark.parametrize("spec, theta, temp, repaired", _REPAIRED)
_ONE_AGENT = ScenarioSpec(k=1, x0=JointState((AgentState(2.0, -1.0, 0.3, 0.1),)),
                          goals=np.array([[0.0, 0.0]]), horizon=10, dt=0.1)
# well-conditioned scenes: no repair runs, so only the recursion's reused
# buffers stand between the solve and the reference
_UNREPAIRED = [
    pytest.param(spec, (1.0, 0.5, 0.2), 1e-3, 0, id=f"{name}-unrepaired")
    for name, spec in [("intersection_k3", scenario_preset("intersection_k3")), ("ring8", _ring_spec(8)),
                       ("head_on_k2", scenario_preset("head_on_k2")), ("one_agent", _ONE_AGENT)]
]


@pytest.mark.parametrize("spec, theta, temp, repaired", _REPAIRED + _UNREPAIRED)
def test_solve_matches_the_per_step_recursion_bit_for_bit(spec, theta, temp, repaired):
    cfg = SolverConfig(entropy_temp=temp)
    costs, dyn, nominal = _expanded_scene(spec, theta)
    policies = solve_lq_game(dyn, costs, cfg, nominal=nominal)
    K, kff, Sigma, events = _per_step_reference(dyn, costs, cfg, nominal)
    assert np.array_equal(policies.K, K)
    assert np.array_equal(policies.kff, kff)
    assert np.array_equal(policies.Sigma, Sigma)
    assert policies.diagnostics.events == events
    assert len(events) == repaired


def test_successive_solves_of_one_game_share_no_storage():
    spec = scenario_preset("intersection_k3")
    cfg = SolverConfig(entropy_temp=1e-3)
    game = Game(stage_cost_models([CostParams(np.array([1.0, 0.5, 0.2]))] * 3, spec), spec, cfg)
    old_costs = list(game.costs)
    first = game.solve()
    for i in range(3):
        game.set_theta(i, CostParams(np.array([0.5, 8.0, 0.01])))
    second = game.solve()
    fresh = solve_lq_game(game.dyn, old_costs, cfg, nominal=game.nominal)
    for name in ("K", "kff", "Sigma"):
        assert np.array_equal(getattr(first, name), getattr(fresh, name))
        assert not np.array_equal(getattr(first, name), getattr(second, name))
        for other in ("K", "kff", "Sigma"):
            assert not np.shares_memory(getattr(first, name), getattr(second, other))


def _masked_inverse(M):
    """The gather/scatter form: inv of the nonsingular members alone, pinv of the rest."""
    out = np.empty_like(M)
    ok = np.abs(np.linalg.det(M)) >= 1e-300
    out[ok] = np.linalg.inv(M[ok])
    for i in zip(*np.nonzero(~ok)):
        out[i] = np.linalg.pinv(M[i], rcond=PINV_CUTOFF)
    return out


@pytest.mark.parametrize("singular", [None, (2, 1)], ids=["all-invertible", "one-singular"])
def test_robust_inverse_matches_the_masked_form_bit_for_bit(singular):
    M = substream(5).standard_normal((4, 3, 2, 2)) + 3.0 * np.eye(2)
    if singular is not None:
        M[singular] = [[1.0, 2.0], [2.0, 4.0]]
    assert np.array_equal(_robust_inverse(M), _masked_inverse(M))


def _relative_drift(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("spec, theta", [
    (scenario_preset("intersection_k3"), (1.0, 0.5, 0.2)),
    (_ring_spec(8), (1.0, 0.5, 0.2)),
], ids=["intersection_k3", "ring8"])
def test_augmented_recursion_stays_within_rounding_of_the_unaugmented_one(spec, theta):
    cfg = SolverConfig(entropy_temp=1e-3)
    costs, dyn, nominal = _expanded_scene(spec, theta)
    policies = solve_lq_game(dyn, costs, cfg, nominal=nominal)
    K, kff, Sigma, events = _unaugmented_reference(dyn, costs, cfg, nominal)
    assert policies.diagnostics.events == events == []
    for got, ref in ((policies.K, K), (policies.kff, kff), (policies.Sigma, Sigma)):
        assert _relative_drift(got, ref) <= 1e-12


@REPAIRED_SCENES
def test_augmented_recursion_keeps_every_repair_of_the_unaugmented_one(spec, theta, temp, repaired):
    # the same repaired (t, agent) stages; the bounds (K, Sigma, kff) sit just
    # above the measured drift between the two recursions (1.5e-10, 5.0e-12,
    # 4.8e-10 / 1.5e-9, 4.3e-7, 1.3e-5 / 2.6e-10, 3.1e-8, 5.3e-9 relative).
    # These scenes are ill-conditioned: one ulp more in every entry of Q moves
    # the unaugmented solve's K by 2.9e-11 / 2.3e-9 / 5.0e-10 relative.
    bounds = {15: (3e-10, 1e-11, 1e-9), 16: (3e-9, 1e-6, 3e-5), 60: (5e-10, 1e-7, 1e-8)}[repaired]
    cfg = SolverConfig(entropy_temp=temp)
    costs, dyn, nominal = _expanded_scene(spec, theta)
    policies = solve_lq_game(dyn, costs, cfg, nominal=nominal)
    K, kff, Sigma, events = _unaugmented_reference(dyn, costs, cfg, nominal)
    assert [(t, i) for t, i, _ in policies.diagnostics.events] == [(t, i) for t, i, _ in events]
    drift = [_relative_drift(got, ref) for got, ref in
             ((policies.K, K), (policies.Sigma, Sigma), (policies.kff, kff))]
    assert all(d <= b for d, b in zip(drift, bounds)), drift


def test_outer_reexpansion_refits_under_the_configured_clamp(intersection_spec):
    # at theta = (1, 2.5, 0.3) the mean path asks for more than 1 m/s^2, so the
    # refitted nominal must be the mean rollout clamped at u_max = 1, as sampled
    thetas = [CostParams(np.array([1.0, 2.5, 0.3]))] * 3
    cfg = SolverConfig(entropy_temp=1e-3, max_outer_iters=4)
    policies = build_policies(thetas, intersection_spec, cfg, u_max=1.0)
    velocities = policies.nominal_states.reshape(-1, 3, 4)[..., 2:]
    accel = np.linalg.norm(np.diff(velocities, axis=0), axis=-1) / intersection_spec.dt
    assert 0.99 < accel.max() <= 1.0 + 1e-9
    default = build_policies(thetas, intersection_spec, cfg)
    assert np.max(np.abs(default.nominal_states - policies.nominal_states)) > 0.1


def test_reexpansion_loop_is_stationary_for_quadratic_costs(single_agent_spec):
    # goal + effort costs are exactly quadratic: re-expanding around the new
    # mean reproduces the same game, so extra outer iterations change nothing
    theta = CostParams(np.array([1.0, 0.0, 0.5]))
    once = build_policies([theta], single_agent_spec, SolverConfig(max_outer_iters=1))
    thrice = build_policies([theta], single_agent_spec, SolverConfig(max_outer_iters=3))
    m1 = mean_rollout(once, single_agent_spec)
    m3 = mean_rollout(thrice, single_agent_spec)
    assert np.max(np.abs(m1.states - m3.states)) < 1e-9


def test_solver_rejects_mismatched_dimensions(single_agent_spec):
    theta = CostParams(np.array([1.0, 0.0, 1.0]))
    models = stage_cost_models([theta], single_agent_spec)
    nominal = constant_velocity_rollout(single_agent_spec)
    expansion = expand_model_along(models[0], nominal)
    with pytest.raises(ValidationError, match="2 agents"):
        solve_lq_game(linearize_dynamics(2, 0.1), [expansion], SolverConfig(), nominal=nominal)
    shorter = Trajectory(nominal.states[:-1], nominal.controls[:-1], nominal.dt)
    with pytest.raises(ValidationError, match="nominal"):
        solve_lq_game(linearize_dynamics(1, 0.1), [expansion], SolverConfig(), nominal=shorter)


def test_policy_sequence_validates_and_freezes_arrays():
    good = dict(K=np.zeros((2, 1, 2, 4)), kff=np.zeros((2, 1, 2)),
                Sigma=np.tile(np.eye(2), (2, 1, 1, 1)), nominal_states=np.zeros((3, 4)), dt=0.1)
    policies = PolicySequence(**good)
    assert (policies.horizon, policies.k) == (2, 1)
    for arr in (policies.K, policies.kff, policies.Sigma, policies.nominal_states):
        assert not arr.flags.writeable
    bad_sigma = good["Sigma"].copy()
    bad_sigma[1, 0, 0, 1] = 0.5
    for override in (
        {"K": np.zeros((2, 1, 2, 8))},
        {"kff": np.zeros((2, 2))},
        {"Sigma": np.eye(2)},
        {"nominal_states": np.zeros((2, 4))},
        {"K": np.full((2, 1, 2, 4), np.nan)},
        {"Sigma": bad_sigma},
    ):
        with pytest.raises(ValidationError):
            PolicySequence(**{**good, **override})


def test_unconditioned_covariance_is_reported_with_its_stage():
    sigma = np.tile(np.eye(2), (3, 2, 1, 1))
    sigma[1, 0] = np.diag([1.0, -1.0])
    policies = PolicySequence(K=np.zeros((3, 2, 2, 8)), kff=np.zeros((3, 2, 2)), Sigma=sigma,
                              nominal_states=np.zeros((4, 8)), dt=0.1)
    spec = ScenarioSpec(k=2, x0=JointState((AgentState(0, 0, 0, 0),) * 2), goals=None,
                        horizon=3, dt=0.1)
    with pytest.raises(InternalError, match=r"t=1, agent=0"):
        sample_rollouts(policies, spec, 2, seed=0)


# --- property tests -----------------------------------------------------------

INTERSECTION = scenario_preset("intersection_k3")
weight = st.floats(0.05, 5.0)


@settings(deadline=None, max_examples=15)
@given(goal=weight, proximity=st.floats(0.0, 10.0), effort=st.floats(0.01, 5.0),
       temp=st.floats(1e-4, 10.0))
def test_covariance_floor_holds_for_any_weights(goal, proximity, effort, temp):
    cfg = SolverConfig(entropy_temp=temp)
    theta = CostParams(np.array([goal, proximity, effort]))
    policies = build_policies([theta] * 3, INTERSECTION, cfg)
    assert np.linalg.eigvalsh(policies.Sigma).min() >= cfg.eps_psd


@settings(deadline=None, max_examples=15)
@given(thetas=st.lists(st.tuples(weight, weight), min_size=3, max_size=3))
def test_zero_crowding_weight_decouples_the_game(thetas):
    thetas = [CostParams(np.array([g, 0.0, e])) for g, e in thetas]
    joint = build_policies(thetas, INTERSECTION)
    for i in range(3):
        sub = ScenarioSpec(k=1, x0=JointState((INTERSECTION.x0.agents[i],)),
                           goals=INTERSECTION.goals[i : i + 1],
                           horizon=INTERSECTION.horizon, dt=INTERSECTION.dt)
        solo = build_policies([thetas[i]], sub)
        own = joint.K[:, i, :, 4 * i : 4 * i + 4]
        assert np.max(np.abs(own - solo.K[:, 0])) < 1e-9
        assert not np.any(np.delete(joint.K[:, i], np.s_[4 * i : 4 * i + 4], axis=-1))
        assert np.max(np.abs(joint.kff[:, i] - solo.kff[:, 0])) < 1e-9
        assert np.max(np.abs(joint.Sigma[:, i] - solo.Sigma[:, 0])) < 1e-9
