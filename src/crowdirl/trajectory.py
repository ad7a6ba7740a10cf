"""State and trajectory primitives for planar multi-agent motion.

Internally each agent is a planar double integrator: position and velocity
evolve exactly under piecewise-constant acceleration over a step, which keeps
the dynamics linear in both state and control. (Interchange files hold
another per-agent layout; `pipeline` converts to and from it.)

A joint state is a (4k,) array of (px, py, vx, vy) per agent. `RolloutSet`
is the one track type: M paths of joint states and controls as frozen
arrays, a single path being a set of one row. All functions are pure, apart
from the `out=` buffers that the stepping functions fill.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CostRangeError, ValidationError

STATE_DIM = 4  # per-agent (px, py, vx, vy)
CONTROL_DIM = 2  # per-agent (ax, ay)
DEFAULT_DT = 0.1
DEFAULT_U_MAX = 3.0
DEFAULT_SIGMA = 1.5  # m, the width of the crowding kernel


class AgentState(NamedTuple):
    """Planar position (m) and velocity (m/s) of one agent: one row of a (k, 4) start state."""

    px: float
    py: float
    vx: float
    vy: float


JointState = tuple  # only bench/inputs.py spells a start this way; goes with ROADMAP item 1


def check_u_max(u_max: float) -> float:
    """The control bound as a float; it must be > 0, and inf means no clamp."""
    return check_real(u_max, "u_max must be positive (inf for no clamp), got {!r}", finite=False)


def check_count(name: str, value, least: int = 1) -> int:
    """A count setting as an int; it must be an integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(value, message: str, positive: bool = True, finite: bool = True) -> float:
    """A real setting as a float; it must be an int or a float (numpy's too), not a bool or a string.

    It must also be > 0 (>= 0 unless positive) and finite (or inf unless
    finite), which refuses NaN; otherwise ValidationError(message), its {!r} the value.
    """
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        real = float(value)
        if (real > 0 if positive else real >= 0) and (real < math.inf or not finite):
            return real
    raise ValidationError(message.format(value))


def check_dt(dt: float) -> float:
    """The time step as a float; it must be positive and finite."""
    return check_real(dt, "dt must be positive, got {!r}")


def check_sigma(sigma: float) -> float:
    """The crowding kernel width as a float; it must be positive and finite."""
    return check_real(sigma, "sigma must be positive, got {!r}")


def clamp_control(u: np.ndarray, u_max: float, out: np.ndarray | None = None) -> np.ndarray:
    """Scale control vectors so that ||u|| <= u_max (> 0, checked); shape (..., 2) preserved.

    The scale u_max / max(||u||, u_max) is u_max / ||u|| where the bound binds
    and exactly 1.0 elsewhere; ||u|| is sqrt(u_x**2 + u_y**2). An out that u
    broadcasts to is filled and returned.
    """
    u_max = check_u_max(u_max)
    u = np.asarray(u, dtype=float)
    if u_max == math.inf:  # inf / inf would be NaN; no norm exceeds it, so the scale is 1.0
        return np.multiply(u, 1.0, out)
    sq = u * u
    scale = np.add(sq[..., 0], sq[..., 1], np.empty(u.shape[:-1]))  # then ||u||, then the scale, in place
    np.sqrt(scale, scale)
    np.maximum(scale, u_max, out=scale)  # a positional out of np.maximum is deprecated
    np.divide(u_max, scale, scale)
    return np.multiply(u, scale[..., None], out)


def _halves(states: np.ndarray) -> tuple[np.ndarray, ...]:
    """Contiguous copies p, v (..., k, 2) of the position and velocity columns of states (..., 4k).

    With them come their views (..., k) as complex128, one 16-byte (x, y)
    pair per agent, so that copying the pairs moves their bytes unchanged.
    """
    s = states.reshape(states.shape[:-1] + (states.shape[-1] // STATE_DIM, STATE_DIM))
    p, v = s[..., :2].copy(), s[..., 2:].copy()
    return p, v, p.view(np.complex128)[..., 0], v.view(np.complex128)[..., 0]


def propagate_joint(
    states: np.ndarray,
    controls: np.ndarray,
    dt: float,
    out: np.ndarray | None = None,
    halves: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Vectorized step: states (..., 4k), controls (..., k, 2) -> (..., 4k), or into a C-contiguous out.

    The step advances contiguous position and velocity halves p, v (..., k, 2)
    in place, as p + v*dt + 0.5*u*dt*dt and v + u*dt in that order, then
    interleaves them: the result, read as complex128, holds agent j's (x, y)
    position pair at 2j and its velocity pair at 2j + 1, and two copies of
    16-byte pairs fill it bit for bit. Without `halves` they are copies of
    states' columns; a caller stepping one set passes its own `_halves` of
    states, formed once, and they hold the next state's columns afterwards.
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if out is None:
        out = np.empty(states.shape)
    elif out.shape != states.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValidationError(f"propagate_joint needs a C-contiguous float out of shape {states.shape}")
    if halves is None:
        halves = _halves(states)
    p, v, p_pairs, v_pairs = halves
    p += v * dt
    p += 0.5 * controls * dt * dt
    v += controls * dt
    pairs = out.view(np.complex128)
    pairs[..., 0::2] = p_pairs
    pairs[..., 1::2] = v_pairs
    return out


def _agents_of(states: np.ndarray) -> int:
    """k of states shaped (M, T+1, 4k) with M, k >= 1; ValidationError otherwise."""
    n = states.shape[-1] if states.ndim else 0
    if states.ndim != 3 or len(states) == 0 or n % STATE_DIM != 0 or n == 0:
        raise ValidationError(f"states must be (M, T+1, 4k), got {states.shape}")
    return n // STATE_DIM


@dataclass(frozen=True)
class RolloutSet:
    """M trajectories of one k and T as frozen arrays (M, T+1, 4k) and (M, T, k, 2) at step dt.

    The one track type: a set of rollouts or demonstrations, or a single
    path (a game's nominal, its mean rollout) as a set of one row, checked
    once as a whole and held as finite, frozen C-order float copies. Solver
    rows satisfy states[m, t+1] == propagate_joint(states[m, t], controls[m, t], dt);
    ingested controls are reconstructed estimates. Like a list of M
    trajectories it has len(), iteration and +: [m] is the one-row set
    [m:m+1] (IndexError past either end), and a nonempty slice, or the sum of
    two sets of one k, T and dt, is a set. A caller holding a list of sets
    stacks it once.
    """

    states: np.ndarray
    controls: np.ndarray
    dt: float

    def __post_init__(self):
        states = np.array(self.states, dtype=float, order="C")
        controls = np.array(self.controls, dtype=float, order="C")
        k = _agents_of(states)
        if controls.ndim != 4 or (len(controls), *controls.shape[2:]) != (len(states), k, CONTROL_DIM):
            raise ValidationError(f"controls must be (M, T, {k}, 2), got {controls.shape}")
        T = controls.shape[1]
        if states.shape[1] != T + 1:
            raise ValidationError(f"lengths inconsistent: {states.shape[1]} states vs {T} controls")
        if T < 1:
            raise ValidationError("a trajectory needs at least one step")
        dt = check_dt(self.dt)
        for name, arr in (("states", states), ("controls", controls)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contain non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dt", dt)

    @property
    def horizon(self) -> int:
        return self.controls.shape[1]

    @property
    def k(self) -> int:
        return self.controls.shape[2]

    @classmethod
    def from_states(cls, states, dt: float) -> "RolloutSet":
        """Tracked states (M, T+1, 4k); each control is the velocity change over its step / dt, dt checked first."""
        dt = check_dt(dt)
        states = np.asarray(states, dtype=float)
        vel = states.reshape(*states.shape[:-1], _agents_of(states), STATE_DIM)[..., 2:]
        return cls(states, (vel[:, 1:] - vel[:, :-1]) / dt, dt)

    @classmethod
    def stack(cls, sets) -> "RolloutSet":
        """One set from a nonempty sequence of sets of one k, T and dt."""
        if not sets:
            raise ValidationError("a rollout set needs at least one trajectory")
        first = sets[0]
        if any((s.k, s.horizon) != (first.k, first.horizon) or s.dt != first.dt for s in sets):
            raise ValidationError("a rollout set needs trajectories of one k and T and one dt")
        return cls(np.concatenate([s.states for s in sets]),
                   np.concatenate([s.controls for s in sets]), first.dt)

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, m):
        if isinstance(m, (bool, np.bool_)):  # True would pass range() as row 1
            raise TypeError(f"a rollout set is indexed by an integer or a slice, not a bool, got {m!r}")
        if not isinstance(m, slice):
            m = range(len(self))[m]  # IndexError out of range, so iteration stops after the last row
            m = slice(m, m + 1)
        return RolloutSet(self.states[m], self.controls[m], self.dt)

    def __add__(self, other):
        return RolloutSet.stack([self, other]) if isinstance(other, RolloutSet) else NotImplemented


@dataclass(frozen=True)
class ScenarioSpec:
    """Initial joint state, per-agent goals, horizon, control bound and kernel width of one interaction.

    x0 is any array-like of shape (4k,) or (k, 4), such as a tuple of k
    AgentState rows; it is kept as a frozen, finite (4k,) float copy.
    u_max (> 0, inf for none) bounds the norm of every control the scene's
    policies apply: synthesis, training samples, the outer re-expansion's
    refit and every prediction read it here, so they share one bound. The
    game's cost expansion and training's features read sigma (m, the
    crowding kernel's width) here too, so they share one feature basis.
    """

    k: int
    x0: np.ndarray
    goals: np.ndarray | None  # (k, 2); None means "infer from demonstrations"
    horizon: int
    dt: float = DEFAULT_DT
    u_max: float = DEFAULT_U_MAX
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        check_count("k", self.k)
        check_count("horizon", self.horizon)
        try:
            shape = (x0 := np.array(self.x0, dtype=float)).shape
        except (TypeError, ValueError):  # ragged rows or text
            shape = "no array of numbers"
        if shape not in ((STATE_DIM * self.k,), (self.k, STATE_DIM)):
            raise ValidationError(f"x0 must be ({STATE_DIM * self.k},) or ({self.k}, 4) for "
                                  f"k={self.k}, got {shape}")
        x0 = x0.reshape(-1)
        bad = np.flatnonzero(~np.isfinite(x0))
        if bad.size:
            agent, field = divmod(int(bad[0]), STATE_DIM)
            raise ValidationError(f"x0 agent {agent}: {AgentState._fields[field]} must be finite, "
                                  f"got {float(x0[bad[0]])!r}")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "dt", check_dt(self.dt))
        object.__setattr__(self, "u_max", check_u_max(self.u_max))
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        if self.goals is not None:
            goals = np.array(self.goals, dtype=float)
            if goals.shape != (self.k, 2):
                raise ValidationError(f"goals must be ({self.k}, 2), got {goals.shape}")
            if not np.all(np.isfinite(goals)):
                raise ValidationError("goals contain non-finite values")
            goals.setflags(write=False)
            object.__setattr__(self, "goals", goals)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite path is refused by its caller
def rollout(
    x0: np.ndarray, horizon: int, dt: float, act, u_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """The one feedback loop: states (n, T+1, 4k) and applied controls (n, T, k, 2) from x0 (n, 4k).

    Per step, act(t, states (n, 4k)) gives controls that broadcast to
    (n, k, 2), possibly in a buffer it reuses: they are clamped to u_max (> 0,
    checked before the first step) into the step's own block and propagated
    by one `propagate_joint` call for all n rows, which advances contiguous
    position and velocity copies (n, k, 2) kept from step to step, their
    (x, y) pair views formed once. Both arrays are kept time-major,
    contiguous per step, and returned as transposed views; a RolloutSet
    copies them into (n, T+1, ...) order. A tape fixed in advance needs no
    loop: `integrate_controls` gives the same bits.
    """
    u_max = check_u_max(u_max)
    x0 = np.asarray(x0, dtype=float)
    n, k = x0.shape[0], x0.shape[1] // STATE_DIM
    states = np.empty((horizon + 1, n, x0.shape[1]))
    controls = np.empty((horizon, n, k, CONTROL_DIM))
    states[0] = x0
    halves = _halves(x0)  # kept equal to the columns of states[t], with their pair views
    for t in range(horizon):
        clamp_control(act(t, states[t]), u_max, out=controls[t])
        propagate_joint(states[t], controls[t], dt, out=states[t + 1], halves=halves)
    return np.swapaxes(states, 0, 1), np.swapaxes(controls, 0, 1)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite path is refused by its caller
def integrate_controls(x0: np.ndarray, controls: np.ndarray, dt: float) -> np.ndarray:
    """States (n, T+1, 4k) from x0 (n, 4k) under open-loop tapes (n, T, k, 2), with no loop.

    v is the running sum [v0, u0*dt, u1*dt, ...] and p every other entry of the
    running sum [p0, v0*dt, 0.5*u0*dt*dt, v1*dt, ...]; np.add.accumulate adds in
    sequence, so these are T `propagate_joint` steps' products and sums, bit for bit.
    """
    u = np.asarray(controls, dtype=float)
    n, T, k = u.shape[:3]
    s0 = np.asarray(x0, dtype=float).reshape(n, 1, k, STATE_DIM)
    v = np.add.accumulate(np.concatenate([s0[..., 2:], u * dt], axis=1), axis=1)
    steps = np.stack([v[:, :-1] * dt, 0.5 * u * dt * dt], axis=2).reshape(n, 2 * T, k, 2)
    p = np.add.accumulate(np.concatenate([s0[..., :2], steps], axis=1), axis=1)[:, ::2]
    return np.concatenate([p, v], axis=-1).reshape(n, T + 1, k * STATE_DIM)


def rollout_openloop(spec: ScenarioSpec, controls: np.ndarray) -> RolloutSet:
    """The one-row set of a fixed (T, k, 2) control tape from spec.x0 (`integrate_controls`, no clamp)."""
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (spec.horizon, spec.k, CONTROL_DIM):
        raise ValidationError(
            f"controls must be ({spec.horizon}, {spec.k}, 2), got {controls.shape}"
        )
    states = integrate_controls(spec.x0[None], controls[None], spec.dt)
    if not np.all(np.isfinite(states)):  # a finite start and tape whose path overflows
        raise CostRangeError("the open-loop path overflows", "states")
    return RolloutSet(states, controls[None], spec.dt)


def constant_velocity_rollout(spec: ScenarioSpec) -> RolloutSet:
    """Zero-control one-row set; the nominal around which costs are expanded."""
    return rollout_openloop(spec, np.zeros((spec.horizon, spec.k, CONTROL_DIM)))
