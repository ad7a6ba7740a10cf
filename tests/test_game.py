import inspect
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from crowdirl.cli import scenario_preset
from crowdirl.errors import InternalError, SolverError, ValidationError
from crowdirl.features import CostParams, expected_features, state_features
from crowdirl.game import (
    FEEDBACK_TILE,
    MAX_GAIN_CONDITION,
    PINV_CUTOFF,
    Game,
    PolicySequence,
    SolverConfig,
    _augmented_dynamics,
    _has_cholesky,
    _check_gain_condition,
    _robust_inverse,
    build_policies,
    condition_covariance,
    mean_rollout,
    min_eigenvalue,
    sample_rollouts,
    solve_lq_game,
    solve_scenario,
)
from crowdirl.irl import TrainingConfig, multi_agent_irl
from crowdirl.metrics import PredictorContext, make_predictor
from crowdirl.pipeline import synth_generate
from crowdirl.quadratic import expand_model_along
from crowdirl.trajectory import (
    DEFAULT_U_MAX,
    AgentState,
    RolloutSet,
    ScenarioSpec,
    clamp_control,
    constant_velocity_rollout,
    propagate_joint,
    rollout,
)
from crowdirl import game as game_module
from crowdirl import irl as irl_module
from crowdirl import metrics as metrics_module
from crowdirl import trajectory as trajectory_module
from crowdirl.rng import substream
from fd_oracle import DenseCost, cost_expansion, dense_arrays, double_integrator, expand_along
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


def _expand_all(thetas, spec, nominal):
    """The stack of every agent's cost expansion along nominal, at the scene's kernel width."""
    weights = np.array([t.weights for t in thetas])
    return expand_model_along(nominal, range(len(thetas)), spec.goals, spec.sigma, weights)


def _solve_single_agent(spec, theta, cfg=SolverConfig()):
    nominal = constant_velocity_rollout(spec)
    expansion = _expand_all([theta], spec, nominal)
    policies = solve_lq_game(expansion, cfg, nominal=nominal)
    return policies, expansion, double_integrator(1, spec.dt), nominal


def _textbook_gains(dyn, e):
    """Textbook LQR gains of a one-agent CostExpansion (row T is the terminal cost) under dyn = (A, B)."""
    (A, B), T = dyn, e.horizon
    Q, q, _ = (x[:, 0] for x in dense_arrays(e))
    return textbook_affine_lqr(A, B[0], Q[:T], q[:T], [e.R[0] * np.eye(2)] * T, e.r[:, 0], Q[T], q[T])


def _ring_spec(k: int, radius: float = 4.5) -> ScenarioSpec:
    angles = 2 * np.pi * np.arange(k) / k
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    agents = tuple(AgentState(*(radius * u), *(-1.2 * u)) for u in unit)
    return ScenarioSpec(k=k, x0=agents, goals=-radius * unit, horizon=30, dt=0.1)


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
    A, B = dyn
    dx = np.zeros(4)
    oracle_states = [nominal.states[0, 0] + dx]
    for t in range(single_agent_spec.horizon):
        u = -gains[t] @ dx - ffs[t]
        dx = A @ dx + B[0] @ u
        oracle_states.append(nominal.states[0, t + 1] + dx)
    traj = mean_rollout(policies, single_agent_spec)
    assert np.max(np.abs(traj.states[0] - np.stack(oracle_states))) < 1e-8


def test_pure_effort_cost_gives_flat_policy_and_inverse_sigma():
    spec = ScenarioSpec(
        k=1, x0=(AgentState(0, 0, 0.5, 0),), goals=np.array([[1.0, 0.0]]),
        horizon=5, dt=0.1,
    )
    theta3 = 0.8
    costfn = lambda x, u: theta3 * np.sum(u * u, axis=-1)
    nominal = constant_velocity_rollout(spec)
    stages = expand_along(costfn, nominal, agent=0)
    expansion = cost_expansion(stages, (np.zeros((4, 4)), np.zeros(4), 0.0), 4)
    policies = solve_lq_game(expansion, SolverConfig(entropy_temp=2.0), nominal=nominal)
    assert np.allclose(policies.K, 0, atol=1e-9)
    assert np.allclose(policies.kff, 0, atol=1e-9)
    assert np.allclose(policies.Sigma, 2.0 / (2 * theta3) * np.eye(2), atol=1e-6)


def test_decoupled_game_equals_independent_solves(intersection_spec):
    theta = CostParams(np.array([1.0, 0.0, 0.2]))  # proximity weight zero
    joint = build_policies([theta] * 3, intersection_spec)
    for i in range(3):
        sub = ScenarioSpec(
            k=1,
            x0=intersection_spec.x0[4 * i : 4 * i + 4],
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

    def test_rejects_non_finite_members_by_index(self):
        # LAPACK reads [[nan, 0], [0, 1]] as eigenvalues [0, -0], which used
        # to give lambda_min 0.0 and an all-NaN "repair"
        S = np.array([[np.nan, 0.0], [0.0, 1.0]])
        for check in (min_eigenvalue, lambda M: condition_covariance(M, 1e-6)):
            with pytest.raises(ValidationError, match="^matrix has a non-finite entry$"):
                check(S)
            stack = np.tile(np.eye(2), (4, 3, 1, 1))
            stack[2, 1] = S[::-1, ::-1]
            stack[3, 0, 0, 1] = stack[3, 0, 1, 0] = np.inf
            with pytest.raises(ValidationError,
                               match=r"^matrix \[2, 1\] of the stack has a non-finite entry$"):
                check(stack)

    def test_stack_needing_no_repair_passes_through_as_a_copy(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(30, 3, 2, 2))
        S = A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(2)
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        out, repaired, shift = game_module._repair(S, 1e-6)
        assert out is not S and out.tobytes() == S.tobytes()
        assert repaired.shape == shift.shape == (30, 3)
        assert not repaired.any() and shift.tobytes() == np.zeros((30, 3)).tobytes()


def _scalar_conditioned(S, eps):
    """The single-matrix repair loop condition_covariance ran before it took stacks."""
    shift = max(0.0, eps - float(np.linalg.eigvalsh(S)[0]))
    if shift == 0.0 and _has_cholesky(S):
        return S.copy()
    eye = np.eye(len(S))
    sigma = S + shift * eye
    bump = float(np.spacing(np.max(np.abs(sigma))))
    while float(np.linalg.eigvalsh(sigma)[0]) < eps or not _has_cholesky(sigma):
        shift += bump
        bump *= 2.0
        sigma = S + shift * eye
    return sigma


# (matrix, topped up beyond max(0, eps - lambda_min)) at a 1e-18 floor
_MIXED_STACK = [
    ([[0.5, -0.0], [-0.0, 2.0]], False),  # untouched, signed zeros and all
    ([[1.0, -0.0], [-0.0, 1.0]], False),
    ([[2.0, 1.0], [1.0, 2.0]], False),
    ([[1e7, 0.0], [0.0, 1e7]], False),
    ([[1.0, -0.0], [-0.0, 0.0]], False),  # shifted
    ([[0.0, -0.0], [-0.0, 0.0]], False),
    ([[2.0, -0.0], [-0.0, -1e-18]], False),
    # rounded rank-one matrices above the floor with no Cholesky factor
    ([[0.29621784042087357, 0.17214920138308412], [0.17214920138308412, 0.10004578891915161]], True),
    ([[0.1694396984756563, 0.42913033744089385], [0.42913033744089385, 1.0868341254667249]], True),
    # the shift rounds away the floor: at large diagonal entries, or next to a larger eigenvalue
    ([[126773243.7050385, 156245534.51641378], [156245534.51641378, 192569554.4488903]], True),
    ([[1.0, 0.0], [0.0, -1.0]], True),
    ([[1.0, 2.0], [2.0, 1.0]], True),
]


def test_stacked_conditioning_equals_the_per_member_calls_bit_for_bit():
    eps = 1e-18
    stack = np.array([m for m, _ in _MIXED_STACK]).reshape(4, 3, 2, 2)
    out = condition_covariance(stack, eps)
    per_member = np.array([condition_covariance(S, eps) for S in stack.reshape(-1, 2, 2)])
    scalar = np.array([_scalar_conditioned(S, eps) for S in stack.reshape(-1, 2, 2)])
    assert out.shape == stack.shape
    assert out.tobytes() == per_member.tobytes() == scalar.tobytes()
    for S, got, (_, topped) in zip(stack.reshape(-1, 2, 2), out.reshape(-1, 2, 2), _MIXED_STACK):
        shift = max(0.0, eps - min_eigenvalue(S))
        if shift == 0.0 and not topped:
            assert got.tobytes() == S.tobytes()  # -0.0 stays -0.0
        assert np.array_equal(got, S + shift * np.eye(2)) != topped
    lam = min_eigenvalue(out)
    assert lam.shape == (4, 3) and np.all(lam >= eps)
    assert isinstance(min_eigenvalue(out[0, 0]), float)
    np.linalg.cholesky(out)
    assert condition_covariance(out, eps).tobytes() == out.tobytes()


def test_stacked_eigenvalues_refuse_any_asymmetric_member():
    stack = np.tile(np.eye(2), (4, 1, 1))
    stack[2, 0, 1] = 0.5
    for call in (lambda: min_eigenvalue(stack), lambda: condition_covariance(stack, 1e-6)):
        with pytest.raises(ValidationError, match="not symmetric"):
            call()


def test_conditioning_engages_in_crowded_low_effort_game():
    spec = ScenarioSpec(
        k=2,
        x0=(AgentState(-1.5, 0, 1.0, 0), AgentState(1.5, 0.05, -1.0, 0)),
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
        k=1, x0=(AgentState(4.5, 0, -1.2, 0),), goals=np.array([[-4.5, 0.0]]),
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
        spec = replace(spec, u_max=u_max)
        policies = build_policies(
            [theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1e-3)
        )
        ref = sample_rollouts(policies, spec, 40, seed=5)
        for M in sizes:
            got = sample_rollouts(policies, spec, M, seed=5)
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


def _per_step_rollouts(policies, spec, noise, clamp=clamp_control, feedback=tiled_feedback):
    """Reference: the game's own time loop, before rollouts shared trajectory.rollout."""
    T, k = policies.horizon, policies.k
    M = 1 if noise is None else noise.shape[0]
    chol = np.linalg.cholesky(policies.Sigma)
    states = np.empty((M, T + 1, 4 * k))
    controls = np.empty((M, T, k, 2))
    states[:, 0] = spec.x0
    for t in range(T):
        dx = states[:, t] - policies.nominal_states[t]
        u = policies.kff[t] - feedback(dx, policies.K[t])
        if noise is not None:
            u = u + np.sum(noise[:, t, :, None, :] * chol[t], axis=-1)
        controls[:, t] = clamp(u, spec.u_max)
        states[:, t + 1] = propagate_joint(states[:, t], controls[:, t], spec.dt)
    return states, controls


def test_rollouts_equal_the_per_step_loop_bit_for_bit(ring8_spec, theta_star):
    spec = ring8_spec
    policies = build_policies([theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1e-3))
    # the reference factors Sigma itself; the rollouts read the factor the policies carry
    assert policies.L.tobytes() == np.linalg.cholesky(policies.Sigma).tobytes()
    for M, u_max in ((6, 1.0), (13, 1.0), (6, math.inf), (13, math.inf)):  # 13: a partial tile
        spec = replace(spec, u_max=u_max)
        got = sample_rollouts(policies, spec, M, seed=5)
        states, controls = _per_step_rollouts(
            policies, spec, substream(5).standard_normal((M, spec.horizon, spec.k, 2)))
        assert got.states.tobytes() == states.tobytes()
        assert got.controls.tobytes() == controls.tobytes()
        clamped = np.abs(np.linalg.norm(controls, axis=-1) - 1.0) <= 1e-12
        assert np.any(clamped) == (u_max == 1.0)  # the clamp engaged only where it binds
    for u_max in (1.0, math.inf):
        spec = replace(spec, u_max=u_max)
        mean = mean_rollout(policies, spec)
        states, controls = _per_step_rollouts(policies, spec, None)
        assert mean.states.tobytes() == states[0].tobytes()
        assert mean.controls.tobytes() == controls[0].tobytes()


def test_hot_ring_rollouts_equal_the_norm_and_where_loop_bit_for_bit(ring8_spec, theta_star):
    # entropy_temp 1 makes most controls exceed u_max: the per-step noise sum
    # and the norm-and-where clamp are the reference for the noise term and scale
    spec, M, u_max = ring8_spec, 128, DEFAULT_U_MAX
    policies = build_policies([theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1.0))
    got = sample_rollouts(policies, spec, M, seed=9)
    noise = substream(9).standard_normal((M, spec.horizon, spec.k, 2))
    states, controls = _per_step_rollouts(policies, spec, noise, norm_where_clamp)
    assert got.states.tobytes() == states.tobytes()
    assert got.controls.tobytes() == controls.tobytes()
    clamped = np.abs(np.linalg.norm(controls, axis=-1) - u_max) <= 1e-12
    assert np.mean(clamped) > 0.9


@pytest.mark.parametrize("k", [3, 8, 12])
def test_mean_rollout_equals_row_0_of_a_padded_tile_bit_for_bit(k, theta_star):
    # the mean rollout used to step FEEDBACK_TILE identical rows from x0; now
    # only its feedback GEMM is padded, and row 0 keeps every bit
    spec = replace(_ring_spec(k), u_max=1.0)
    policies = build_policies([theta_star[0]] * k, spec, SolverConfig(entropy_temp=1e-3))
    n = 4 * k
    gains = np.ascontiguousarray(np.swapaxes(policies.K.reshape(spec.horizon, 2 * k, n), 1, 2))

    def act(t, states):
        dx = (states - policies.nominal_states[t]).reshape(-1, FEEDBACK_TILE, n)
        return policies.kff[t] - (dx @ gains[t]).reshape(FEEDBACK_TILE, k, 2)

    x0 = np.tile(spec.x0, (FEEDBACK_TILE, 1))
    states, controls = rollout(x0, spec.horizon, spec.dt, act, spec.u_max)
    mean = mean_rollout(policies, spec)
    assert mean.states.tobytes() == states[0].tobytes()
    assert mean.controls.tobytes() == controls[0].tobytes()
    assert np.any(np.abs(np.linalg.norm(controls[0], axis=-1) - spec.u_max) <= 1e-12)  # clamp engaged


@pytest.mark.parametrize(
    "spec", [scenario_preset("intersection_k3"), _ring_spec(8)], ids=["intersection_k3", "ring8"]
)
def test_tiled_feedback_stays_within_rounding_of_the_reduced_loop(spec, theta_star):
    # the reduced loop was the rollout arithmetic before the feedback became a
    # tiled GEMM; entropy_temp 1 clamps most controls on the ring
    M = 128
    policies = build_policies([theta_star[0]] * spec.k, spec, SolverConfig(entropy_temp=1.0))
    noise = substream(9).standard_normal((M, spec.horizon, spec.k, 2))
    got = sample_rollouts(policies, spec, M, seed=9)
    states, controls = _per_step_rollouts(policies, spec, noise, feedback=reduced_feedback)
    assert np.max(np.abs(got.states - states)) <= 1e-12
    assert np.max(np.abs(got.controls - controls)) <= 1e-12
    mean = mean_rollout(policies, spec)
    states, controls = _per_step_rollouts(policies, spec, None, feedback=reduced_feedback)
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
        nominal_states=np.zeros((2, 8)),
    )
    spec = ScenarioSpec(
        k=2, x0=(AgentState(0, 0, 0, 0),) * 2, goals=None, horizon=1, dt=1.0,
        u_max=np.inf,
    )
    M = 4000
    u = sample_rollouts(policies, spec, M, seed=2024).controls[:, 0]  # (M, 2, 2)
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
    spec, M = replace(scenario_preset("intersection_k3"), u_max=np.inf), 4000
    policies = build_policies(theta_star, spec, SolverConfig(entropy_temp=1.0))
    rollouts = sample_rollouts(policies, spec, M, seed=3)
    got = expected_features(rollouts, range(3), spec.goals, spec.sigma)
    goal, crowd = state_features(rollouts.states, np.arange(3), spec.goals, spec.sigma)
    effort = np.sum(rollouts.controls**2, axis=-1)
    per_traj = np.stack([goal.mean(axis=1), crowd.mean(axis=1), effort.mean(axis=1)], axis=-1)
    se = per_traj.std(axis=0, ddof=1) / np.sqrt(M)
    assert np.all(np.abs(got - exact_features(policies, spec)) < 4 * se)


def test_exact_moments_collapse_to_the_mean_rollout_without_noise(theta_star):
    spec = replace(scenario_preset("intersection_k3"), u_max=np.inf)
    policies = build_policies(theta_star, spec, SolverConfig(entropy_temp=1e-300, eps_psd=1e-30))
    mean = mean_rollout(policies, spec)
    ref = expected_features(mean, range(3), spec.goals, spec.sigma)
    assert np.max(np.abs(exact_features(policies, spec) - ref)) <= 1e-9


def test_nash_first_order_stationarity(intersection_spec, theta_star):
    nominal = constant_velocity_rollout(intersection_spec)
    expansions = _expand_all(theta_star, intersection_spec, nominal)
    policies = solve_lq_game(expansions, SolverConfig(), nominal=nominal)
    A, B = double_integrator(3, intersection_spec.dt)
    assert policies.diagnostics.conditioned_stages == 0  # PD game, saddle-free

    def agent_cost(agent, K_override, dx0):
        Q, q, c = (x[:, agent] for x in dense_arrays(expansions))
        r, R = expansions.r[:, agent], expansions.R[agent]
        dx = dx0.copy()
        total = 0.0
        for t in range(intersection_spec.horizon):
            us = []
            for j in range(3):
                K = K_override.get((j, t), policies.K[t, j])
                us.append(policies.kff[t, j] - K @ dx)
            u = us[agent]
            total += c[t] + q[t] @ dx + 0.5 * dx @ Q[t] @ dx
            total += r[t] @ u + 0.5 * R * u @ u
            dx = A @ dx + sum(B[j] @ us[j] for j in range(3))
        T = intersection_spec.horizon
        total += c[T] + q[T] @ dx + 0.5 * dx @ Q[T] @ dx
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
        k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=3, dt=0.1
    )
    zero = lambda x, u: np.zeros(x.shape[:-1])
    nominal = constant_velocity_rollout(spec)
    stages = expand_along(zero, nominal, agent=0)
    expansion = cost_expansion(stages, (np.zeros((4, 4)), np.zeros(4), 0.0), 4)
    with pytest.raises(SolverError) as err:
        solve_lq_game(expansion, SolverConfig(), nominal=nominal)
    assert err.value.timestep == 2


def _step_solve(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solve step's LU of S X = rhs: a singular S leaves NaN, as under the solve's errstate."""
    with np.errstate(invalid="ignore"):
        return _umath_linalg.solve(S, rhs, signature="dd->d")


def test_the_steps_lu_is_np_linalg_solve_bit_for_bit():
    # the step calls numpy's private gufunc to skip np.linalg.solve's wrapper;
    # a numpy that renames it or changes its bits fails here
    rng = np.random.default_rng(3)
    for m in (2, 6, 16):
        S, rhs = rng.standard_normal((m, m)), rng.standard_normal((m, 2 * m + 1))
        assert _step_solve(S, rhs).tobytes() == np.linalg.solve(S, rhs).tobytes()
    assert np.all(np.isnan(_step_solve(np.zeros((2, 2)), np.eye(2))))


def test_gain_screen_falls_back_to_the_exact_condition():
    # ||S||_F ||S^-1||_F = 3 / 1.1e-12 overstates cond_2(S) = 1 / 1.1e-12 <= 1e12
    S = np.diag([1.0, 1.0, 1.0, 1.1e-12, 1.1e-12, 1.1e-12])
    assert np.linalg.norm(S) * np.linalg.norm(np.linalg.inv(S)) > MAX_GAIN_CONDITION
    assert np.linalg.cond(S) <= MAX_GAIN_CONDITION
    rhs = np.arange(12.0).reshape(6, 2)
    X = _step_solve(S, np.concatenate([rhs, np.eye(6)], axis=1))
    _check_gain_condition(S, X, 4)
    got = X[:, :2]
    assert np.array_equal(got, np.linalg.solve(S, rhs))


@pytest.mark.parametrize(
    "S", [np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 5e-13]), np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])],
    ids=["cond-2e12", "exactly-singular"],
)
def test_gain_screen_rejects_ill_conditioned_systems(S):
    X = _step_solve(S, np.concatenate([np.ones((6, 2)), np.eye(6)], axis=1))
    with pytest.raises(SolverError) as err:
        _check_gain_condition(S, X, 7)
    assert err.value.timestep == 7


def test_gain_screen_flags_a_failed_lu_of_a_conditioned_system():
    with pytest.raises(InternalError, match="timestep 5 has a zero pivot"):
        _check_gain_condition(np.eye(2), np.full((2, 3), np.nan), 5)


def test_solve_screens_the_gain_condition_through_its_identity_columns():
    # terminal cost on px alone and a tiny effort weight: at t = T-1 the gain
    # system diag(dt^4/4 + R, R) has an LU but cond_2 = 1.5e12, which only the
    # ||S||_F ||S^-1||_F screen over the solve's identity columns can flag
    T, dt = 3, 0.1
    Q = np.zeros((T + 1, 4, 4))
    Q[T, 0, 0] = 1.0
    R = dt**4 / 4 / 1.5e12
    expansion = DenseCost(Q, np.zeros((T + 1, 4)), np.zeros(T + 1), R, np.zeros((T, 2)))
    nominal = RolloutSet(np.zeros((1, T + 1, 4)), np.zeros((1, T, 1, 2)), dt)
    with pytest.raises(SolverError) as err:
        solve_lq_game(expansion, SolverConfig(), nominal=nominal)
    assert err.value.timestep == T - 1


def test_solve_refuses_a_nominal_of_more_than_one_row(single_agent_spec):
    # a nominal is one path until the solve takes a scene axis; row 0 alone must not be solved along
    theta = CostParams(np.array([1.0, 0.0, 1.0]))
    policies, expansion, _, nominal = _solve_single_agent(single_agent_spec, theta)
    assert policies.nominal_states.tobytes() == nominal.states.tobytes()
    with pytest.raises(ValidationError, match=r"^the nominal must be one row, got 2 rows$"):
        solve_lq_game(expansion, SolverConfig(), nominal=nominal + nominal)


def _per_step_reference(dyn, costs, cfg, nominal):
    """The augmented recursion with the gain condition, solve and covariance formed stage by stage.

    dyn = (A, B) is the unaugmented double integrator, padded here onto [x; 1].
    """
    (A_x, B_x), T = dyn, costs.horizon
    k, n = B_x.shape[:2]
    Qa = np.zeros((T + 1, k, n + 1, n + 1))
    Q, q, c = dense_arrays(costs)
    Qa[:, :, :n, :n] = Q
    Qa[:, :, :n, n] = Qa[:, :, n, :n] = q
    Qa[:, :, n, n] = 2.0 * c
    r = costs.r
    R = costs.R[:, None, None]
    A = np.eye(n + 1)
    A[:n, :n] = A_x
    Bt = np.zeros((k, 2, n + 1))
    Bt[..., :n] = np.swapaxes(B_x, 1, 2)
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
        K_out[t], kff_out[t], Sigma_out[t] = G[..., :n], nominal.controls[0, t] - G[..., n], sigma
        F = A - B_all @ sol
        RG = R * G
        RG[..., n] -= 2.0 * r[t]
        Z_new = Qa[t] + np.swapaxes(G, 1, 2) @ RG + F.T @ Z @ F
        Z = 0.5 * (Z_new + np.swapaxes(Z_new, 1, 2))
    return K_out, kff_out, Sigma_out, events


def _unaugmented_reference(dyn, costs, cfg, nominal):
    """The recursion on dx alone: [K | alpha] from [Yk | yff], then separate Z and zeta updates.

    dyn = (A, B) is the unaugmented double integrator.
    """
    (A, B), T = dyn, costs.horizon
    k, n = B.shape[:2]
    Q, q, _ = dense_arrays(costs)
    r = costs.r
    R = costs.R[:, None, None]
    Bt = np.swapaxes(B, 1, 2)
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
        K_out[t], kff_out[t], Sigma_out[t] = K, nominal.controls[0, t] - alpha, sigma
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
    nominal = constant_velocity_rollout(spec)
    costs = _expand_all([CostParams(np.array(theta))] * spec.k, spec, nominal)
    return costs, double_integrator(spec.k, spec.dt), nominal


_REPAIRED = [
    pytest.param(scenario_preset("intersection_k3"), (0.5, 8.0, 0.01), 1.0, 15, id="intersection_k3"),
    pytest.param(_ring_spec(8), (1.0, 2.5, 0.3), 1e-3, 16, id="ring8"),
    pytest.param(_ring_spec(12), (0.5, 8.0, 0.01), 1.0, 60, id="ring12"),
]
REPAIRED_SCENES = pytest.mark.parametrize("spec, theta, temp, repaired", _REPAIRED)
_ONE_AGENT = ScenarioSpec(k=1, x0=(AgentState(2.0, -1.0, 0.3, 0.1),),
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
    policies = solve_lq_game(costs, cfg, nominal=nominal)
    K, kff, Sigma, events = _per_step_reference(dyn, costs, cfg, nominal)
    assert np.array_equal(policies.K, K)
    assert np.array_equal(policies.kff, kff)
    assert np.array_equal(policies.Sigma, Sigma)
    assert policies.diagnostics.events == events
    assert len(events) == repaired


def test_successive_solves_of_one_game_share_no_storage():
    spec = scenario_preset("intersection_k3")
    cfg = SolverConfig(entropy_temp=1e-3)
    game = Game([CostParams(np.array([1.0, 0.5, 0.2]))] * 3, spec, cfg)
    old_costs = game.costs
    first = game.solve()
    game.set_thetas([CostParams(np.array([0.5, 8.0, 0.01]))] * 3)
    second = game.solve()
    fresh = solve_lq_game(old_costs, cfg, nominal=game.nominal)
    for name in ("K", "kff", "Sigma"):
        assert np.array_equal(getattr(first, name), getattr(fresh, name))
        assert not np.array_equal(getattr(first, name), getattr(second, name))
        for other in ("K", "kff", "Sigma"):
            assert not np.shares_memory(getattr(first, name), getattr(second, other))


def test_set_thetas_then_reexpanded_solve_equals_a_fresh_game_bit_for_bit(intersection_spec):
    # the outer re-expansion reads the weights set_thetas stored, not the construction's
    spec = intersection_spec
    cfg = SolverConfig(entropy_temp=1e-3, max_outer_iters=3, outer_tol=0.0)
    new = [CostParams(np.array(w)) for w in ((0.5, 8.0, 0.01), (1.0, 2.5, 0.3), (2.0, 0.5, 0.2))]
    game = Game([CostParams.ones()] * spec.k, spec, cfg)
    game.solve()
    game.set_thetas(new)
    got, ref = game.solve(), Game(new, spec, cfg).solve()
    for name in ("K", "kff", "Sigma"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert got.diagnostics.events == ref.diagnostics.events
    # the re-expanded solves differ from the first one, so the refit is read
    once = Game(new, spec, replace(cfg, max_outer_iters=1)).solve()
    assert not np.array_equal(got.K, once.K)


def test_game_requires_goals_and_one_weight_vector_per_agent(intersection_spec, theta_star):
    with pytest.raises(ValidationError, match="^scenario has no goals; infer them before building costs$"):
        Game(theta_star, replace(intersection_spec, goals=None))
    with pytest.raises(ValidationError, match="^need 3 weight vectors, got 2$"):
        Game(theta_star[:2], intersection_spec)


@pytest.mark.parametrize("count", [2, 4])
def test_set_thetas_takes_one_weight_vector_per_agent(intersection_spec, theta_star, count):
    # a short or long list is refused, never read as a partial update, and the game keeps its costs
    game = Game(theta_star, intersection_spec)
    costs = game.costs
    other = CostParams(np.array([0.5, 8.0, 0.01]))
    with pytest.raises(ValidationError, match=f"^need 3 weight vectors, got {count}$"):
        game.set_thetas([other] * count)
    with pytest.raises(ValidationError, match="^weight vectors must be CostParams$"):
        game.set_thetas([other, other, other.weights])
    assert game.costs is costs
    assert np.array_equal(game.costs.weights, [t.weights for t in theta_star])


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
    policies = solve_lq_game(costs, cfg, nominal=nominal)
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
    policies = solve_lq_game(costs, cfg, nominal=nominal)
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
    policies = build_policies(thetas, replace(intersection_spec, u_max=1.0), cfg)
    velocities = policies.nominal_states.reshape(-1, 3, 4)[..., 2:]
    accel = np.linalg.norm(np.diff(velocities, axis=0), axis=-1) / intersection_spec.dt
    assert 0.99 < accel.max() <= 1.0 + 1e-9
    default = build_policies(thetas, intersection_spec, cfg)
    assert np.max(np.abs(default.nominal_states - policies.nominal_states)) > 0.1


def test_the_scene_bound_clamps_every_control_of_every_path(monkeypatch, intersection_spec):
    # one spec.u_max reaches synthesis, the training samples, the outer
    # re-expansion's refit and every prediction; at 0.5 it binds on each of them
    bound = 0.5
    spec = replace(intersection_spec, u_max=bound)
    thetas = [CostParams(np.array([1.0, 2.5, 0.3]))] * 3
    solver = SolverConfig(max_outer_iters=3)
    applied = {}  # path -> the control arrays its rollouts applied

    def record(module, name, path):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            applied.setdefault(path, []).append(out[1] if isinstance(out, tuple) else out.controls)
            return out

        monkeypatch.setattr(module, name, recorded)

    record(game_module, "mean_rollout", "refit")
    record(irl_module, "sample_rollouts", "training samples")
    record(metrics_module, "mean_rollout", "mairl mean")
    record(metrics_module, "sample_rollouts", "mairl best-of")
    record(metrics_module, "rollout", "state feedback")
    demos = synth_generate(thetas, spec, 6, seed=1, solver_cfg=solver)
    applied["synth"] = [d.controls for d in demos]
    multi_agent_irl(demos, spec, TrainingConfig(max_iters=1, M=8, solver=solver))
    # gmm and ebm fit on demonstrations clamped at the default bound, so they ask for more
    wide = synth_generate(thetas, intersection_spec, 6, seed=2)
    for method, best_of in (("mairl", 1), ("mairl", 4), ("gmm", 1), ("ebm", 1)):
        ctx = PredictorContext(spec=spec, train_demos=wide, thetas=thetas, solver=solver,
                               best_of=best_of)
        make_predictor(method, ctx)(demos)
        if method in ("gmm", "ebm"):
            applied[method] = applied.pop("state feedback")
    assert sorted(applied) == sorted(["synth", "training samples", "refit", "mairl mean",
                                      "mairl best-of", "gmm", "ebm"])
    for path, controls in applied.items():
        norms = np.concatenate([np.linalg.norm(c, axis=-1).ravel() for c in controls])
        assert np.all(norms <= bound * (1 + 1e-15)), path
        assert np.any(np.abs(norms - bound) <= 1e-12), path  # the bound binds


@pytest.mark.parametrize("entry", [
    Game, solve_scenario, build_policies, mean_rollout, sample_rollouts, synth_generate,
    TrainingConfig, PredictorContext,
], ids=lambda entry: entry.__name__)
def test_no_entry_point_takes_a_bound_of_its_own(entry):
    # the bound is the scene's: a second one could drift from spec.u_max
    assert "u_max" not in inspect.signature(entry).parameters


def test_reexpansion_loop_is_stationary_for_quadratic_costs(single_agent_spec):
    # goal + effort costs are exactly quadratic: re-expanding around the new
    # mean reproduces the same game, so extra outer iterations change nothing
    theta = CostParams(np.array([1.0, 0.0, 0.5]))
    once = build_policies([theta], single_agent_spec, SolverConfig(max_outer_iters=1))
    thrice = build_policies([theta], single_agent_spec, SolverConfig(max_outer_iters=3))
    m1 = mean_rollout(once, single_agent_spec)
    m3 = mean_rollout(thrice, single_agent_spec)
    assert np.max(np.abs(m1.states - m3.states)) < 1e-9


def test_one_expansion_per_nominal_covers_every_agent(monkeypatch, intersection_spec):
    # Game construction expands every agent in one call along the
    # constant-velocity nominal; each further outer iteration in one call along its refitted nominal
    expanded, solves = [], []

    def expand(nominal, agents, *args):
        expanded.append((list(agents), nominal))  # holding the nominal keeps its id unique
        return expand_model_along(nominal, agents, *args)

    def solve(*args, **kwargs):
        solves.append(kwargs["nominal"])
        return solve_lq_game(*args, **kwargs)

    monkeypatch.setattr(game_module, "expand_model_along", expand)
    monkeypatch.setattr(game_module, "solve_lq_game", solve)
    thetas = [CostParams(np.array([1.0, 2.5, 0.3]))] * 3
    g = Game(thetas, intersection_spec, SolverConfig(entropy_temp=1e-3, max_outer_iters=4, outer_tol=1e-12))
    assert [(agents, id(nominal)) for agents, nominal in expanded] == [([0, 1, 2], id(g.nominal))]
    del expanded[:]
    g.solve()
    assert len(solves) == 4  # the mean path keeps moving by more than outer_tol
    # the first solve reads the construction's expansion, each later one its own
    assert solves[0] is g.nominal
    assert [(agents, id(nominal)) for agents, nominal in expanded] == [
        ([0, 1, 2], id(nominal)) for nominal in solves[1:]
    ]
    assert len({id(nominal) for nominal in solves}) == 4


@pytest.mark.parametrize("preset", ["intersection_k3", "head_on_k2", "ring8"])
def test_game_nominal_equals_the_stepped_zero_tape_bit_for_bit(preset, ring8_spec, theta_star):
    # the nominal is integrated in closed form; the reference steps the
    # unbounded zero action through the feedback loop, as the nominal once did
    spec = ring8_spec if preset == "ring8" else scenario_preset(preset)
    g = Game([theta_star[0]] * spec.k, spec, SolverConfig())
    zeros = np.zeros((spec.k, 2))
    states, controls = rollout(spec.x0[None], spec.horizon, spec.dt,
                               lambda t, x: zeros, math.inf)
    assert g.nominal.states.tobytes() == states[0].tobytes()
    assert g.nominal.controls.tobytes() == controls[0].tobytes()


def test_feedback_rollouts_step_through_propagate_joint_once_per_step(
    monkeypatch, intersection_spec, theta_star
):
    # the traced trajectory.propagate span sits on this call: one per step of a rollout set
    policies = build_policies(theta_star, intersection_spec, SolverConfig(entropy_temp=1e-3))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return propagate_joint(*args, **kwargs)

    monkeypatch.setattr(trajectory_module, "propagate_joint", counted)
    T = intersection_spec.horizon
    sample_rollouts(policies, intersection_spec, 12, seed=3)
    assert len(calls) == T
    del calls[:]
    mean_rollout(policies, intersection_spec)
    assert len(calls) == T


def test_double_integrator_reference_blocks():
    A, B = double_integrator(1, dt=1.0)
    assert np.array_equal(A[0], [1, 0, 1, 0])
    assert np.array_equal(A[2:, 2:], np.eye(2))  # velocity rows persist velocity exactly
    assert np.array_equal(B[0], [[0.5, 0], [0, 0.5], [1, 0], [0, 1]])
    A, B = double_integrator(2, dt=0.3)
    assert A.shape == (8, 8) and B.shape == (2, 8, 2)
    assert np.array_equal(A[:4, :4], A[4:, 4:])
    assert np.count_nonzero(A[:4, 4:]) == np.count_nonzero(A[4:, :4]) == 0
    assert np.count_nonzero(B[0][4:]) == np.count_nonzero(B[1][:4]) == 0


def test_double_integrator_reference_is_the_stepped_dynamics():
    rng = np.random.default_rng(0)
    A, B = double_integrator(2, dt=0.1)
    for _ in range(20):
        x = rng.standard_normal(8)
        u = rng.standard_normal((2, 2))
        assert np.allclose(A @ x + B[0] @ u[0] + B[1] @ u[1], propagate_joint(x, u, 0.1), atol=1e-14)


@pytest.mark.parametrize("dt", [0.1, 0.3, 1.0, 0.4, 1 / 3, 0.07])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 12, 16])
def test_augmented_dynamics_are_the_padded_textbook_blocks_bit_for_bit(k, dt):
    # read off propagate_joint, the solve's A and B hold 1, dt and (0.5 * dt) * dt, as written by hand
    A_x, B_x = double_integrator(k, dt)
    n = 4 * k
    ref_A, ref_Bt = np.eye(n + 1), np.zeros((k, 2, n + 1))
    ref_A[:n, :n], ref_Bt[..., :n] = A_x, np.swapaxes(B_x, 1, 2)
    A, Bt = _augmented_dynamics(k, dt)
    assert A.tobytes() == ref_A.tobytes() and A.shape == ref_A.shape  # sign bits included
    assert Bt.tobytes() == ref_Bt.tobytes() and Bt.shape == ref_Bt.shape
    assert not A.flags.writeable and not Bt.flags.writeable


def test_solver_rejects_mismatched_dimensions(single_agent_spec):
    # the nominal fixes the agent count, the state dimension and the horizon
    theta = CostParams(np.array([1.0, 0.0, 1.0]))
    nominal = constant_velocity_rollout(single_agent_spec)
    expansion = _expand_all([theta], single_agent_spec, nominal)
    twice = expand_model_along(nominal, [0, 0], single_agent_spec.goals[[0, 0]], 1.5, np.ones((2, 3)))
    with pytest.raises(ValidationError, match="^need cost expansions for 1 agents, got 2$"):
        solve_lq_game(twice, SolverConfig(), nominal=nominal)
    T = nominal.horizon
    wide = DenseCost(np.zeros((T + 1, 8, 8)), np.zeros((T + 1, 8)), np.zeros(T + 1), 1.0, np.zeros((T, 2)))
    with pytest.raises(ValidationError, match="^cost expansions do not match the nominal's state dimension 4$"):
        solve_lq_game(wide, SolverConfig(), nominal=nominal)
    shorter = RolloutSet(nominal.states[:, :-1], nominal.controls[:, :-1], nominal.dt)
    with pytest.raises(ValidationError, match=f"^nominal trajectory has horizon {T - 1}, the costs {T}$"):
        solve_lq_game(expansion, SolverConfig(), nominal=shorter)


def test_solver_takes_the_stack_of_agents_0_to_k_minus_1_in_order(intersection_spec):
    # member i of the stack is read as agent i's cost, so a stack in another order is refused
    nominal = constant_velocity_rollout(intersection_spec)
    goals, sigma = intersection_spec.goals, intersection_spec.sigma
    for agents in ([2, 0, 1], [0, 1, 1]):
        costs = expand_model_along(nominal, agents, goals[agents], sigma, np.ones((3, 3)))
        with pytest.raises(ValidationError, match=re.escape(f"cost expansions must be of agents 0..2 in order, got {agents}")):
            solve_lq_game(costs, SolverConfig(), nominal=nominal)


def test_policy_sequence_validates_and_freezes_arrays():
    good = dict(K=np.zeros((2, 1, 2, 4)), kff=np.zeros((2, 1, 2)),
                Sigma=np.tile(np.eye(2), (2, 1, 1, 1)), nominal_states=np.zeros((3, 4)))
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


def test_a_repaired_near_symmetric_covariance_builds_policies_and_an_asymmetric_one_is_refused():
    # the repair and PolicySequence share one symmetry rule, relative to the largest entry
    good = dict(K=np.zeros((1, 1, 2, 4)), kff=np.zeros((1, 1, 2)), nominal_states=np.zeros((2, 4)))
    repaired = condition_covariance(np.array([[2e6, 1.0], [1.0 + 1e-5, 3e6]]), 1e-6)
    assert PolicySequence(Sigma=repaired[None, None], **good).Sigma.tobytes() == repaired.tobytes()
    with pytest.raises(ValidationError, match="^Sigma must be symmetric$"):
        PolicySequence(Sigma=np.array([[[[1.0, 0.1], [0.0, 1.0]]]]), **good)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_min_eigenvalue_and_policies_share_one_symmetry_tolerance(scale):
    # an asymmetry of 1e-9 * max(1, the largest |entry|) passes both; twice that is refused by both
    good = dict(K=np.zeros((1, 1, 2, 4)), kff=np.zeros((1, 1, 2)), nominal_states=np.zeros((2, 4)))
    tol = 1e-9 * max(1.0, 2.0 * scale)
    for skew, passes in ((0.5 * tol, True), (2.0 * tol, False)):
        sigma = np.array([[2.0 * scale, 0.0], [skew, scale]])
        if passes:
            assert min_eigenvalue(sigma) > 0.0
            PolicySequence(Sigma=sigma[None, None], **good)
            continue
        with pytest.raises(ValidationError, match="^matrix is not symmetric within tolerance$"):
            min_eigenvalue(sigma)
        with pytest.raises(ValidationError, match="^Sigma must be symmetric$"):
            PolicySequence(Sigma=sigma[None, None], **good)


def test_unconditioned_covariance_is_reported_with_its_stage():
    # the factor every rollout reads is formed at construction, so that is where it fails
    sigma = np.tile(np.eye(2), (3, 2, 1, 1))
    sigma[1, 0] = np.diag([1.0, -1.0])
    with pytest.raises(ValidationError, match=r"t=1, agent=0"):
        PolicySequence(K=np.zeros((3, 2, 2, 8)), kff=np.zeros((3, 2, 2)), Sigma=sigma,
                       nominal_states=np.zeros((4, 8)))


@REPAIRED_SCENES
def test_policies_carry_the_read_only_factor_of_every_covariance(spec, theta, temp, repaired):
    policies = build_policies([CostParams(np.array(theta))] * spec.k, spec,
                              SolverConfig(entropy_temp=temp))
    assert policies.diagnostics.conditioned_stages == repaired
    assert policies.L.tobytes() == np.linalg.cholesky(policies.Sigma).tobytes()
    assert not policies.L.flags.writeable
    with pytest.raises(TypeError):
        PolicySequence(policies.K, policies.kff, policies.Sigma, policies.nominal_states,
                       L=policies.L)


def test_the_covariance_repair_has_one_path(monkeypatch, intersection_spec, theta_star):
    # one stacked repair per solve, which alone decides it; one factor per
    # policy, which rollouts read; no knob that nothing reads
    assert "dt" not in {f.name for f in fields(PolicySequence)}
    assert not hasattr(game_module, "_stage_cholesky")
    assert not {"speed", "heading"} & set(dir(AgentState))
    source = inspect.getsource(solve_lq_game)
    assert not any(name in source for name in ("eigvalsh", "cholesky", "condition_covariance"))
    calls = []
    repair = game_module._repair
    monkeypatch.setattr(game_module, "_repair", lambda *a: calls.append(a) or repair(*a))
    build_policies(theta_star, intersection_spec, SolverConfig(entropy_temp=1.0))
    assert len(calls) == 1 and calls[0][0].shape == (intersection_spec.horizon, 3, 2, 2)


@pytest.mark.parametrize("outer_tol", [-1.0, -1e-300, math.nan, math.inf])
def test_solver_config_refuses_an_outer_tolerance_that_is_negative_or_not_finite(outer_tol):
    with pytest.raises(ValidationError, match="outer_tol must be nonnegative and finite"):
        SolverConfig(max_outer_iters=3, outer_tol=outer_tol)
    assert SolverConfig(outer_tol=0.0).outer_tol == 0.0


@pytest.mark.parametrize("value", [2.5, True, 0])
@pytest.mark.parametrize("site", ["max_outer_iters", "M"])
def test_solver_and_sample_counts_must_be_integers_of_at_least_one(single_agent_spec, site, value):
    # SolverConfig took 2.5 and True; sample_rollouts handed them to numpy, which raised a TypeError
    policies = build_policies([CostParams.ones()], single_agent_spec)
    call = {"max_outer_iters": lambda: SolverConfig(max_outer_iters=value),
            "M": lambda: sample_rollouts(policies, single_agent_spec, value, 0)}[site]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == f"{site} must be an integer >= 1, got {value!r}"


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
        sub = ScenarioSpec(k=1, x0=INTERSECTION.x0[4 * i : 4 * i + 4],
                           goals=INTERSECTION.goals[i : i + 1],
                           horizon=INTERSECTION.horizon, dt=INTERSECTION.dt)
        solo = build_policies([thetas[i]], sub)
        own = joint.K[:, i, :, 4 * i : 4 * i + 4]
        assert np.max(np.abs(own - solo.K[:, 0])) < 1e-9
        assert not np.any(np.delete(joint.K[:, i], np.s_[4 * i : 4 * i + 4], axis=-1))
        assert np.max(np.abs(joint.kff[:, i] - solo.kff[:, 0])) < 1e-9
        assert np.max(np.abs(joint.Sigma[:, i] - solo.Sigma[:, 0])) < 1e-9
