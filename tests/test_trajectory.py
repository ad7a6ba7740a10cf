import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from crowdirl.baselines import gmm_fit
from crowdirl.errors import CostRangeError, ValidationError
from crowdirl.game import SolverConfig
from crowdirl.irl import TrainingConfig
from crowdirl.pipeline import PreprocessConfig
from crowdirl.trajectory import (
    DEFAULT_SIGMA,
    AgentState,
    RolloutSet,
    ScenarioSpec,
    _halves,
    check_dt,
    check_sigma,
    check_u_max,
    clamp_control,
    constant_velocity_rollout,
    integrate_controls,
    propagate_joint,
    rollout,
    rollout_openloop,
)
from fd_oracle import reference_step


def _step(state, control, dt):
    """propagate_joint on one agent: (4,) state, (2,) control."""
    return propagate_joint(np.asarray(state, float), np.asarray(control, float)[None], dt)


def test_propagate_zero_acceleration_unit_velocity():
    assert np.array_equal(_step([0, 0, 1, 0], [0, 0], 1.0), [1, 0, 1, 0])


def test_propagate_fixed_point_at_rest():
    assert np.array_equal(_step([0, 0, 0, 0], [0, 0], 0.1), [0, 0, 0, 0])


def test_propagate_hand_arithmetic():
    # p' = 0 + 1*0.5 + 0.5*2*0.25 = 0.75, v' = 1 + 2*0.5 = 2
    assert np.array_equal(_step([0, 0, 1, 0], [2, 0], 0.5), [0.75, 0.0, 2.0, 0.0])


def test_propagate_rejects_nonfinite_named_field():
    with pytest.raises(ValidationError, match="dt"):
        ScenarioSpec(k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=1, dt=0.0)


def test_propagate_is_affine_in_state_and_control():
    rng = np.random.default_rng(42)
    dt = 0.17
    for _ in range(50):
        s1, s2 = rng.standard_normal(4), rng.standard_normal(4)
        u1, u2 = rng.standard_normal(2), rng.standard_normal(2)
        a = rng.uniform(-2, 2)
        b = 1.0 - a
        mixed = _step(a * s1 + b * s2, a * u1 + b * u2, dt)
        parts = a * _step(s1, u1, dt) + b * _step(s2, u2, dt)
        assert np.allclose(mixed, parts, atol=1e-12)


def test_propagate_joint_matches_scalar_propagate():
    # reference: the exact double-integrator step written out per agent
    rng = np.random.default_rng(3)
    states = rng.standard_normal((5, 8))
    controls = rng.standard_normal((5, 2, 2))
    dt = 0.2
    out = propagate_joint(states, controls, dt)
    for r in range(5):
        for i in range(2):
            px, py, vx, vy = states[r, 4 * i : 4 * i + 4]
            ax, ay = controls[r, i]
            ref = [px + vx * dt + 0.5 * ax * dt * dt, py + vy * dt + 0.5 * ay * dt * dt,
                   vx + ax * dt, vy + ay * dt]
            assert np.allclose(out[r, 4 * i : 4 * i + 4], ref, atol=1e-14)


# --- trajectories ----------------------------------------------------------------


def test_rollout_openloop_static():
    spec = ScenarioSpec(
        k=1, x0=(AgentState(1, 1, 0, 0),), goals=None, horizon=1, dt=0.5
    )
    traj = rollout_openloop(spec, np.zeros((1, 1, 2)))
    assert len(traj) == 1 and np.array_equal(traj.states[0, 0], traj.states[0, 1])


def test_rollout_openloop_constant_push():
    spec = ScenarioSpec(
        k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=2, dt=1.0
    )
    controls = np.tile(np.array([1.0, 0.0]), (2, 1, 1))
    traj = rollout_openloop(spec, controls)
    assert np.allclose(traj.states[0, :, 0], [0.0, 0.5, 2.0])


def test_rollout_openloop_rejects_length_mismatch():
    spec = ScenarioSpec(
        k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=3, dt=1.0
    )
    with pytest.raises(ValidationError):
        rollout_openloop(spec, np.zeros((2, 1, 2)))


def propagation_residual(traj):
    """Max deviation between a set's recorded states and a replay of its controls."""
    replay = propagate_joint(traj.states[:, :-1], traj.controls, traj.dt)
    return float(np.max(np.abs(replay - traj.states[:, 1:])))


def test_trajectory_replay_consistency():
    rng = np.random.default_rng(8)
    spec = ScenarioSpec(
        k=2,
        x0=(AgentState(0, 0, 1, 0), AgentState(3, 1, -1, 0)),
        goals=None,
        horizon=20,
        dt=0.1,
    )
    traj = rollout_openloop(spec, rng.standard_normal((20, 2, 2)))
    assert propagation_residual(traj) < 1e-9


def _per_step_openloop(x0, tape, dt):
    """Reference: one propagate_joint per step on a single joint state."""
    states = np.empty((len(tape) + 1, x0.size))
    states[0] = x0
    for t in range(len(tape)):
        states[t + 1] = propagate_joint(states[t], tape[t], dt)
    return states


def test_openloop_rollout_equals_the_per_step_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    n, T, k, dt = 4, 25, 3, 0.1
    tapes = rng.standard_normal((n, T, k, 2))
    tapes[rng.random(tapes.shape) < 0.2] = -0.0
    x0 = rng.standard_normal((n, 4 * k))
    x0[:, ::3] = -0.0
    assert np.sum(np.signbit(tapes) & (tapes == 0.0)) > 100
    states, controls = rollout(x0, T, dt, lambda t, _: tapes[:, t], math.inf)
    assert controls.tobytes() == tapes.tobytes()  # the unbounded clamp keeps every -0.0
    for j in range(n):
        ref = _per_step_openloop(x0[j], tapes[j], dt)
        assert states[j].tobytes() == ref.tobytes()
        spec = ScenarioSpec(k=k, x0=x0[j], goals=None, horizon=T, dt=dt)
        traj = rollout_openloop(spec, tapes[j])
        assert traj.states.shape == (1, *ref.shape) and traj.states.tobytes() == ref.tobytes()
        assert traj.controls.tobytes() == tapes[j].tobytes()


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("T", [1, 30])
def test_closed_form_integration_equals_the_per_step_loop_bit_for_bit(n, k, T):
    rng = np.random.default_rng(1000 * n + 10 * k + T)
    x0 = rng.normal(0.0, 5.0, (n, 4 * k))
    tapes = rng.normal(0.0, 2.0, (n, T, k, 2))
    x0.flat[::3] = -0.0
    tapes.flat[::4] = -0.0
    for dt in (0.1, 1 / 3):
        ref = np.empty((n, T + 1, 4 * k))
        ref[:, 0] = x0
        for t in range(T):
            ref[:, t + 1] = propagate_joint(ref[:, t], tapes[:, t], dt)
        assert integrate_controls(x0, tapes, dt).tobytes() == ref.tobytes()
    # a coasting start: -0.0 velocities and zero tapes keep the loop's signed zeros
    x0[:, 2::4] = -0.0
    zeros = np.zeros((n, T, k, 2))
    ref, _ = rollout(x0, T, 0.1, lambda t, x: zeros[:, t], math.inf)
    got = integrate_controls(x0, zeros, 0.1)
    assert got.tobytes() == ref.tobytes() and np.any(np.signbit(got) & (got == 0.0))


def test_state_feedback_rollout_equals_the_per_step_loop_with_the_clamp_engaged():
    rng = np.random.default_rng(32)
    n, T, k, dt, u_max = 5, 20, 3, 0.1, 0.05
    x0 = rng.normal(0.0, 1.5, (n, 4 * k))
    gain = rng.standard_normal((2, 4))

    def act(s):  # (n, k, 4) agent states -> (n, k, 2) actions
        return np.sum(s[..., None, :] * gain, axis=-1)

    states, controls = rollout(x0, T, dt, lambda t, x: act(x.reshape(n, k, 4)), u_max)
    ref = np.empty((n, T + 1, 4 * k))
    ref[:, 0] = x0
    ref_u = np.empty((n, T, k, 2))
    for t in range(T):
        ref_u[:, t] = clamp_control(act(ref[:, t].reshape(n, k, 4)), u_max)
        ref[:, t + 1] = propagate_joint(ref[:, t], ref_u[:, t], dt)
    assert states.tobytes() == ref.tobytes()
    assert controls.tobytes() == ref_u.tobytes()
    raw = np.linalg.norm(act(x0.reshape(n, k, 4)), axis=-1)
    assert np.all(raw > u_max) and np.allclose(np.linalg.norm(controls, axis=-1), u_max)


def test_from_states_reconstructs_the_controls_of_a_replay():
    rng = np.random.default_rng(33)
    spec = ScenarioSpec(k=2, x0=rng.standard_normal(8), goals=None, horizon=12, dt=0.1)
    traj = rollout_openloop(spec, rng.standard_normal((12, 2, 2)))
    rebuilt = RolloutSet.from_states(traj.states, traj.dt)
    assert rebuilt.states.tobytes() == traj.states.tobytes() and rebuilt.dt == traj.dt
    assert np.allclose(rebuilt.controls, traj.controls, rtol=0, atol=1e-12)
    # two rows at once: each row's controls are those it gets alone
    pair = traj + rollout_openloop(spec, rng.standard_normal((12, 2, 2)))
    rows = RolloutSet.from_states(pair.states, pair.dt)
    alone = RolloutSet.stack([RolloutSet.from_states(row.states, row.dt) for row in pair])
    assert rows.controls.tobytes() == alone.controls.tobytes()
    assert np.allclose(rows.controls, pair.controls, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 3, 5), (1, 3, 0), (3, 8), ()])
def test_from_states_refuses_states_that_are_no_set_by_their_shape(shape):
    with pytest.raises(ValidationError) as err:
        RolloutSet.from_states(np.zeros(shape), 0.1)
    assert str(err.value) == f"states must be (M, T+1, 4k), got {shape}"


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_from_states_checks_dt_before_it_divides(dt):
    # the division by a zero, NaN or infinite dt would warn before the set's own check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(f"dt must be positive, got {dt!r}")):
            RolloutSet.from_states(np.zeros((1, 3, 4)), dt)


def test_trajectory_shape_validation():
    with pytest.raises(ValidationError):
        RolloutSet(states=np.zeros((1, 3, 4)), controls=np.zeros((1, 1, 1, 2)), dt=0.1)
    with pytest.raises(ValidationError):
        RolloutSet(states=np.zeros((1, 3, 4)), controls=np.zeros((1, 2, 1, 2)), dt=-1.0)


def test_trajectory_arrays_frozen():
    traj = constant_velocity_rollout(
        ScenarioSpec(k=1, x0=(AgentState(0, 0, 1, 0),), goals=None, horizon=2, dt=0.1)
    )
    with pytest.raises(ValueError):
        traj.states[0, 0, 0] = 99.0


def _rollout_set(M=3, T=2, k=2):
    rng = np.random.default_rng(0)
    states, controls = rng.standard_normal((M, T + 1, 4 * k)), rng.standard_normal((M, T, k, 2))
    return RolloutSet(states, controls, 0.1)


def test_rollout_set_indexes_into_one_row_sets():
    rs = _rollout_set()
    assert (len(rs), rs.horizon, rs.k, rs.dt) == (3, 2, 2, 0.1)
    for m, traj in enumerate(rs):
        assert isinstance(traj, RolloutSet) and len(traj) == 1
        assert np.array_equal(traj.states[0], rs.states[m])
        assert np.array_equal(traj.controls[0], rs.controls[m])
    assert np.array_equal(rs[-1].states[0], rs.states[2])
    tail = rs[1:]
    assert isinstance(tail, RolloutSet) and len(tail) == 2
    assert np.array_equal(tail[0].controls[0], rs.controls[1])
    assert tail.states.tobytes() == rs.states[1:].tobytes()
    assert not tail.states.flags.writeable  # a frozen copy, as every set holds
    every_other = rs[::2]
    assert every_other.dt == 0.1 and every_other.controls.tobytes() == rs.controls[::2].tobytes()
    with pytest.raises(IndexError):
        rs[3]
    with pytest.raises(ValidationError):  # a set holds at least one trajectory
        rs[3:]


@pytest.mark.parametrize("M", [1, 3])
def test_an_int_index_is_the_one_row_slice_and_stops_at_either_end(M):
    rs = _rollout_set(M=M)
    for m in [*range(-M, M), np.int64(M - 1)]:
        row, piece = rs[m], rs[m : m + 1 or None]  # m = -1 slices to the end
        assert (row.states.shape, row.dt) == ((1, 3, 8), rs.dt)
        assert row.states.tobytes() == piece.states.tobytes() == rs.states[m].tobytes()
        assert row.controls.tobytes() == piece.controls.tobytes() == rs.controls[m].tobytes()
    for m in (M, -M - 1):
        with pytest.raises(IndexError):
            rs[m]
    with pytest.raises(TypeError):
        rs[1.0]
    rows = list(rs)  # iteration stops at the IndexError after the last row
    assert len(rows) == M and RolloutSet.stack(rows).states.tobytes() == rs.states.tobytes()


@pytest.mark.parametrize("m", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
def test_a_bool_is_no_row_index(m):
    # True would otherwise pass range() as row 1
    with pytest.raises(TypeError, match="^a rollout set is indexed by an integer or a slice, not a bool"):
        _rollout_set()[m]


def test_rollout_set_sum_is_the_joined_set():
    rs = _rollout_set()
    joined = rs[:1] + rs[1:]
    assert isinstance(joined, RolloutSet)
    assert joined.states.tobytes() == rs.states.tobytes()
    assert joined.controls.tobytes() == rs.controls.tobytes()
    with pytest.raises(ValidationError, match="one k and T"):
        rs + _rollout_set(M=1, T=2, k=1)
    with pytest.raises(ValidationError, match="one dt"):
        rs + RolloutSet(rs.states, rs.controls, 0.2)
    with pytest.raises(TypeError):  # a list is no set; stack it first
        rs + list(rs)


def test_rollout_set_arrays_are_frozen_copies():
    states, controls = np.zeros((2, 3, 4)), np.zeros((2, 2, 1, 2))
    rs = RolloutSet(states, controls, 0.1)
    states[0, 0, 0] = 5.0
    assert rs.states[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        rs.states[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        rs.controls[0, 0, 0, 0] = 1.0


def test_rollout_set_stack_round_trips_and_stacks_sets():
    rs = _rollout_set()
    again = RolloutSet.stack(list(rs))
    assert np.array_equal(again.states, rs.states)
    assert np.array_equal(again.controls, rs.controls)
    restacked = RolloutSet.stack(rs)  # a set is a sequence of its trajectories: a new set of its rows
    assert restacked is not rs and restacked.states.tobytes() == rs.states.tobytes()
    mixed = RolloutSet.stack([rs[0], rs[1:]])  # a set in the sequence keeps its rows in order
    assert mixed.states.tobytes() == rs.states.tobytes()
    assert mixed.controls.tobytes() == rs.controls.tobytes()


def test_rollout_set_rejects_mixed_shapes_and_bad_values():
    one = _rollout_set(M=1, T=2, k=1)[0]
    with pytest.raises(ValidationError, match="one k and T"):
        RolloutSet.stack([one, _rollout_set(M=1, T=2, k=2)[0]])
    with pytest.raises(ValidationError, match="one k and T"):
        RolloutSet.stack([one, _rollout_set(M=1, T=3, k=1)[0]])
    with pytest.raises(ValidationError, match="one dt"):
        RolloutSet.stack([one, RolloutSet(one.states, one.controls, 0.2)])
    with pytest.raises(ValidationError, match="at least one"):
        RolloutSet.stack([])
    states, controls = np.zeros((2, 3, 4)), np.zeros((2, 2, 1, 2))
    for bad_states, bad_controls in (
        (states[:1], controls),  # M differs
        (np.zeros((0, 3, 4)), np.zeros((0, 2, 1, 2))),  # empty set
        (states, np.zeros((2, 3, 1, 2))),  # T differs
        (states[0], controls[0]),  # no set axis
    ):
        with pytest.raises(ValidationError):
            RolloutSet(bad_states, bad_controls, 0.1)
    for name in ("states", "controls"):
        arrays = {"states": states.copy(), "controls": controls.copy()}
        arrays[name].flat[-1] = np.nan
        with pytest.raises(ValidationError, match=f"{name} contain non-finite"):
            RolloutSet(dt=0.1, **arrays)
    with pytest.raises(ValidationError, match="dt"):
        RolloutSet(states, controls, 0.0)


@pytest.mark.parametrize("u_max", [-1.0, 0.0, math.nan])
def test_clamp_control_rejects_a_bound_that_is_not_positive(u_max):
    # -1.0 would reverse and double the control, 0.0 zero it and nan give NaN
    with pytest.raises(ValidationError, match="u_max must be positive"):
        clamp_control(np.array([[0.3, 0.4]]), u_max)


def test_clamp_control_scales_norm():
    u = np.array([4.0, 3.0])  # norm 5
    clamped = clamp_control(u, u_max=3.0)
    assert abs(np.linalg.norm(clamped) - 3.0) < 1e-12
    assert np.allclose(clamped / np.linalg.norm(clamped), u / 5.0)
    small = np.array([0.3, -0.1])
    assert np.array_equal(clamp_control(small, 3.0), small)


def norm_where_clamp(u, u_max):
    """Reference: the clamp as np.linalg.norm and np.where, before the explicit sum of squares."""
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    scale = np.where(norm > u_max, u_max / np.maximum(norm, 1e-300), 1.0)
    return u * scale


@pytest.mark.parametrize("u_max", [0.05, 3.0, math.inf])
def test_out_arguments_return_the_buffer_holding_the_bytes_of_the_plain_call(u_max):
    rng = np.random.default_rng(35)
    n, k, dt = 7, 3, 0.1
    u = rng.standard_normal((n, k, 2)) * 2.0
    u.flat[::5] = -0.0
    x = rng.standard_normal((n, 4 * k))
    buf = np.full((n, k, 2), np.nan)
    assert clamp_control(u, u_max, out=buf) is buf
    assert buf.tobytes() == clamp_control(u, u_max).tobytes()
    # a control that broadcasts to the buffer: one action for every row
    assert clamp_control(u[0], u_max, out=buf) is buf
    assert buf.tobytes() == np.broadcast_to(clamp_control(u[0], u_max), buf.shape).tobytes()
    xbuf = np.full((n, 4 * k), np.nan)
    assert propagate_joint(x, u, dt, out=xbuf) is xbuf
    assert xbuf.tobytes() == propagate_joint(x, u, dt).tobytes()
    with pytest.raises(ValidationError, match="C-contiguous"):
        propagate_joint(x, u, dt, out=np.empty((4 * k, n)).T)


def _awkward(rng, shape, scale):
    """Normals with -0.0, subnormals, values whose products fall subnormal and values that overflow."""
    a = rng.normal(0.0, scale, shape)
    kind = rng.choice(5, shape, p=[0.4, 0.15, 0.15, 0.25, 0.05])
    a[kind == 1] = -0.0
    a[kind == 2] = 5e-324 * rng.integers(-4, 5, np.count_nonzero(kind == 2))
    a[kind == 3] *= 1e-306
    a[kind == 4] = 1.7e308 * rng.choice([-1.0, 1.0], np.count_nonzero(kind == 4))
    return a


@pytest.mark.parametrize("u_max", [3.0, math.inf])
@pytest.mark.parametrize("n", [1, 8, 33])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_rollout_equals_a_loop_of_the_reference_step_byte_for_byte(k, n, u_max):
    rng = np.random.default_rng(100 * k + n)
    T, dt = 12, 0.1
    x0 = _awkward(rng, (n, 4 * k), 5.0)
    tapes = _awkward(rng, (n, T, k, 2), 2.0)
    x0[0, [0, 2]] = 1.7e308  # p + v*dt overflows on the first step

    def act(t, x):  # feedback on the positions, so every stored state is read
        return tapes[:, t] - 1e-3 * x.reshape(n, k, 4)[..., :2]

    states, controls = rollout(x0, T, dt, act, u_max)
    ref = np.empty((n, T + 1, 4 * k))
    ref_u = np.empty((n, T, k, 2))
    ref[:, 0] = x0
    with np.errstate(all="ignore"):
        for t in range(T):
            ref_u[:, t] = clamp_control(act(t, ref[:, t]), u_max)
            ref[:, t + 1] = reference_step(ref[:, t], ref_u[:, t], dt)
    assert np.isinf(ref[0, 1, 0])
    assert states.tobytes() == ref.tobytes()
    assert controls.tobytes() == ref_u.tobytes()


def _with_nan_payloads(rng, a, frac=0.15):
    """a with a share of its entries replaced by quiet NaNs of random payloads and signs."""
    a = a.copy()
    hit = rng.random(a.shape) < frac
    bits = (np.uint64(0x7FF8000000000000) | rng.integers(1, 2**51, hit.sum(), dtype=np.uint64)
            | (rng.integers(0, 2, hit.sum(), dtype=np.uint64) << np.uint64(63)))
    a[hit] = bits.view(np.float64)
    return a


@pytest.mark.parametrize("k", [1, 3, 8])
def test_propagate_joint_equals_the_concatenate_form_with_and_without_out_and_halves(k):
    rng = np.random.default_rng(36 + k)
    n, dt = 12, 0.1
    x = _with_nan_payloads(rng, _awkward(rng, (n, 4 * k), 5.0))
    u = _with_nan_payloads(rng, _awkward(rng, (n, k, 2), 2.0))
    x[0, [0, 2]] = 1.7e308  # p + v*dt overflows
    x[1], u[1] = np.tile([5e-324, -0.0, 5e-324, -0.0], k), -0.0  # a row the step leaves as it is
    with np.errstate(all="ignore"):
        ref = reference_step(x, u, dt)  # the step interleaved by np.concatenate
        assert propagate_joint(x[0], u[0], dt).tobytes() == ref[0].tobytes()
        for with_out in (False, True):
            for with_halves in (False, True):
                out = np.full((n, 4 * k), np.nan) if with_out else None
                halves = _halves(x) if with_halves else None
                got = propagate_joint(x, u, dt, out=out, halves=halves)
                assert got.tobytes() == ref.tobytes()
                assert got is out or not with_out
                if with_halves:  # they hold the next state's columns
                    o = ref.reshape(n, k, 4)
                    assert halves[0].tobytes() == np.ascontiguousarray(o[..., :2]).tobytes()
                    assert halves[1].tobytes() == np.ascontiguousarray(o[..., 2:]).tobytes()
    nan_bits = set(ref[np.isnan(ref)].view(np.uint64).tolist())
    assert len(nan_bits) > 2 and np.isinf(ref[0, 0])  # payloads and signs survive the step
    assert ref[1].tobytes() == x[1].tobytes()  # subnormals and -0.0
    with pytest.raises(ValidationError, match="C-contiguous"):
        propagate_joint(x, u, dt, out=np.empty((n, 4 * k + 4)))


@pytest.mark.parametrize("u_max", [1e-300, 0.05, 3.0, 1e300])
def test_clamp_control_equals_the_norm_and_where_form_bit_for_bit(u_max):
    rng = np.random.default_rng(34)
    u = rng.standard_normal((50, 3, 2)) * 10.0 ** rng.uniform(-300, 150, (50, 3, 2))
    u[rng.random(u.shape) < 0.1] = 0.0
    u[rng.random(u.shape) < 0.1] = -0.0
    assert np.sum(np.signbit(u) & (u == 0.0)) > 10
    got = clamp_control(u, u_max)
    with np.errstate(over="ignore"):  # the reference divides by 1e-300 where it discards
        ref = norm_where_clamp(u, u_max)
    assert got.tobytes() == ref.tobytes()
    clamped = np.linalg.norm(u, axis=-1) > u_max
    assert (u_max == 1e300) == (not np.any(clamped))
    assert np.all(np.linalg.norm(got, axis=-1) <= u_max * (1 + 1e-15))


@pytest.mark.parametrize("u_max", [0.0, -0.0, -1.0, math.nan, -math.inf])
def test_rollout_rejects_a_bound_that_is_not_positive_before_any_step(u_max):
    calls = []

    def act(t, states):
        calls.append(t)
        return np.zeros((len(states), 1, 2))

    with pytest.raises(ValidationError, match="u_max must be positive"):
        rollout(np.zeros((2, 4)), 5, 0.1, act, u_max)
    assert calls == []


@pytest.mark.parametrize("u_max", [0.0, -1.0, math.nan, -math.inf])
def test_scenario_spec_rejects_a_bound_that_is_not_positive(u_max):
    with pytest.raises(ValidationError, match="u_max must be positive"):
        ScenarioSpec(k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=1,
                     u_max=u_max)


def test_scenario_spec_keeps_its_bound_through_every_copy():
    spec = ScenarioSpec(k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=2,
                        u_max=math.inf)
    assert (spec.u_max, spec.sigma) == (math.inf, DEFAULT_SIGMA)
    spec = dataclasses.replace(spec, u_max=0.5, sigma=0.7)
    assert (spec.u_max, spec.sigma) == (0.5, 0.7)
    moved = (AgentState(1, 0, 0, 0),)
    for copy in (dataclasses.replace(spec, goals=np.array([[1.0, 2.0]])),
                 dataclasses.replace(spec, x0=moved), dataclasses.replace(spec, horizon=5)):
        assert (copy.u_max, copy.sigma) == (0.5, 0.7)
    with pytest.raises(ValidationError, match="u_max must be positive"):
        dataclasses.replace(spec, u_max=0.0)
    with pytest.raises(ValidationError, match="sigma must be positive"):
        dataclasses.replace(spec, sigma=0.0)


@pytest.mark.parametrize("sigma", [0.0, -0.0, -1.5, math.nan, math.inf, -math.inf])
def test_scenario_spec_rejects_a_kernel_width_that_is_not_positive_and_finite(sigma):
    with pytest.raises(ValidationError, match=f"^sigma must be positive, got {sigma!r}$"):
        ScenarioSpec(k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=1,
                     sigma=sigma)


def _spec(**fields):
    return ScenarioSpec(k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=1, **fields)


# every real setting, by the name its message starts with: a call that stores
# the value and returns what it stored (None where nothing keeps it)
REAL_SETTINGS = [
    ("eps_psd", lambda v: SolverConfig(eps_psd=v).eps_psd),
    ("entropy_temp", lambda v: SolverConfig(entropy_temp=v).entropy_temp),
    ("outer_tol", lambda v: SolverConfig(outer_tol=v).outer_tol),
    ("beta", lambda v: TrainingConfig(beta=v).beta),
    ("tol", lambda v: TrainingConfig(tol=v).tol),
    ("resample_dt", lambda v: PreprocessConfig(resample_dt=v).resample_dt),
    ("standstill_speed", lambda v: PreprocessConfig(standstill_speed=v).standstill_speed),
    ("tol", lambda v: gmm_fit(np.arange(4.0), K=1, tol=v) and None),
    ("sigma", check_sigma),
    ("u_max", check_u_max),
    ("dt", check_dt),
    ("dt", lambda v: _spec(dt=v).dt),
    ("sigma", lambda v: _spec(sigma=v).sigma),
    ("u_max", lambda v: _spec(u_max=v).u_max),
    ("dt", lambda v: RolloutSet(np.zeros((1, 2, 4)), np.zeros((1, 1, 1, 2)), v).dt),
]


@pytest.mark.parametrize("value", [True, np.True_, "1", None, [1.0]], ids=repr)
@pytest.mark.parametrize("name, setting", REAL_SETTINGS)
def test_a_real_setting_refuses_a_bool_a_string_none_and_a_list(name, setting, value):
    with pytest.raises(ValidationError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
        setting(value)


@pytest.mark.parametrize("name, setting", REAL_SETTINGS)
def test_a_real_setting_stores_an_int_as_its_float(name, setting):
    for value in (1, np.int64(1), np.float32(1.0)):
        stored = setting(value)
        assert stored is None or (type(stored) is float and stored == 1.0)


def test_scenario_spec_keeps_one_frozen_flat_start_from_rows_or_a_flat_array():
    rows = (AgentState(1.5, -0.0, 0.3, 0.1), AgentState(-2.0, 0.25, -1.2, 0.0))
    flat = np.array(rows).ravel()
    starts = [ScenarioSpec(k=2, x0=x0, goals=None, horizon=1).x0
              for x0 in (rows, np.array(rows), flat, flat.tolist())]
    for x0 in starts:
        assert x0.shape == (8,) and x0.dtype == np.float64 and not x0.flags.writeable
        assert x0.tobytes() == flat.tobytes()
    flat[0] = 99.0  # the spec keeps a copy
    assert starts[2][0] == 1.5


@pytest.mark.parametrize("x0", [np.zeros(12), np.zeros((3, 4)), np.zeros((4, 2)), np.zeros((2, 4, 1)),
                                (AgentState(0, 0, 0, 0),)])
def test_scenario_spec_refuses_a_start_of_another_shape_naming_k(x0):
    message = f"x0 must be (8,) or (2, 4) for k=2, got {np.shape(x0)}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ScenarioSpec(k=2, x0=x0, goals=None, horizon=1)


@pytest.mark.parametrize("fields, message", [
    ({"k": 2.0}, "k must be an integer >= 1, got 2.0"),
    ({"k": True, "x0": np.zeros(4)}, "k must be an integer >= 1, got True"),
    ({"k": 0, "x0": ()}, "k must be an integer >= 1, got 0"),
    ({"horizon": 2.5}, "horizon must be an integer >= 1, got 2.5"),
    ({"horizon": 0}, "horizon must be an integer >= 1, got 0"),
    ({"horizon": True}, "horizon must be an integer >= 1, got True"),
    ({"x0": ((1, 2, 3, 4), (1, 2, 3))}, "x0 must be (8,) or (2, 4) for k=2, got no array of numbers"),
    ({"x0": "abcd"}, "x0 must be (8,) or (2, 4) for k=2, got no array of numbers"),
], ids=["float-k", "boolean-k", "zero-k", "float-horizon", "zero-horizon", "boolean-horizon", "ragged-x0",
        "text-x0"])
def test_scenario_spec_refuses_what_it_cannot_hold_with_a_validation_error(fields, message):
    # each used to pass, failing later with a TypeError, or to raise numpy's own ValueError
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ScenarioSpec(**{"k": 2, "x0": np.zeros(8), "goals": None, "horizon": 1, **fields})


@pytest.mark.parametrize("index, value, message", [
    (2, math.nan, "x0 agent 0: vx must be finite, got nan"),
    (5, math.inf, "x0 agent 1: py must be finite, got inf"),
    (7, -math.inf, "x0 agent 1: vy must be finite, got -inf"),
])
def test_scenario_spec_refuses_a_non_finite_start_by_agent_and_field(index, value, message):
    x0 = np.zeros(8)
    x0[index] = value
    for start in (x0, x0.reshape(2, 4)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScenarioSpec(k=2, x0=start, goals=None, horizon=1)
    spec = ScenarioSpec(k=2, x0=np.zeros(8), goals=None, horizon=1)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):  # a copy is checked again
        dataclasses.replace(spec, x0=x0)


def test_openloop_path_that_overflows_is_out_of_range_without_a_warning():
    spec = ScenarioSpec(k=1, x0=(AgentState(1.0, 0.0, 1.0, 0.0),), goals=None, horizon=2, dt=1e308)
    with pytest.raises(CostRangeError, match="^the open-loop path overflows$") as info:
        constant_velocity_rollout(spec)  # pyproject turns any RuntimeWarning into an error
    assert info.value.source == "states"
