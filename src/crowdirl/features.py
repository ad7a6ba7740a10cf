"""Trajectory feature basis and the weighted cost it induces.

Three features per agent, each averaged along the trajectory: squared distance
to the goal, a Gaussian crowding kernel of width `ScenarioSpec.sigma` summed
over the other agents, and squared control effort. State features average
over all T+1 states, control effort over the T controls; `expected_features`
forms them for any list of agents over a whole `RolloutSet` in one pass. An
agent's cost is the dot product of its weight vector `CostParams` with this
feature vector; `quadratic.expand_model_along` re-expresses the same costs
of any list of agents, through one `state_terms` call for all of them (the
argument shapes of `expected_features`) and `agent_sum`, as per-step terms
the game solver expands.

The kernel is laid out agent-major, (k, a, N) over N joint states with the
other agent j on the leading axis, so every elementwise pass is one long
contiguous run. `agent_sum` adds its k rows one after another, so each
element's sum depends only on its own k terms and no feature bit depends on
how many states or trajectories a block holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CostRangeError, ValidationError
from .trajectory import STATE_DIM, RolloutSet, check_sigma

NUM_FEATURES = 3
FEATURE_BUDGET = 2**16  # kernel elements per expected_features block: each half of its (2, k, a, N) buffer


def _check_features(phi: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(phi)):  # finite states far enough out overflow a square
        raise CostRangeError("features contain non-finite values", "states")
    if np.any(phi < 0):
        raise ValidationError(f"features must be nonnegative, got {phi}")
    return phi


@dataclass(frozen=True)
class CostParams:
    """Weight vector over the feature basis: a read-only copy, finite and nonnegative.

    The one owner of the weight rule: a negative entry (-0.0 is none) would make a cost nonconvex.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (NUM_FEATURES,):
            raise ValidationError(f"weights must have length {NUM_FEATURES}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain non-finite values")
        if np.any(w < 0):
            raise ValidationError(f"weights must be nonnegative, got {w.tolist()}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def ones(cls) -> "CostParams":
        return cls(np.ones(NUM_FEATURES))


def _check_terms(k: int, agents, goals, sigma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The agent indices, goals (a, 2) and kernel width of a feature call over k agents, checked."""
    sigma = check_sigma(sigma)
    idx = np.asarray(agents)
    if idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu" or not np.all((idx >= 0) & (idx < k)):
        raise ValidationError(f"agent indices {agents!r} must be one or more integers in [0, {k})")
    goals = np.asarray(goals, dtype=float)
    if goals.shape != (idx.size, 2):
        raise ValidationError(f"goals must be ({idx.size}, 2), got shape {goals.shape}")
    return idx, goals, sigma


def agent_sum(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of terms (n, ...) over axis 0, the rows added in order into out (a new array if None)."""
    if out is None:
        out = np.empty_like(terms[0])
    np.copyto(out, terms[0])
    for t in terms[1:]:
        out += t
    return out


def state_terms(
    states: np.ndarray, agents: Sequence[int], goals, sigma: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Goal distance (a, N) and crowding kernel (k, a, N) of agents a at the N joint states (..., 4k).

    The N states are the leading axes of states in order; goals is (a, 2).
    kernel[j, x, n] = exp(-||p_agents[x] - p_j||^2 / sigma^2) at state n, self
    term 1 included. The other agent j leads, so every pass over the kernel,
    and `agent_sum` over j, runs along rows of N contiguous states. The x and
    y positions are copied once into (2, k, N) rows; the x and y differences
    are formed in place in the two halves of out[:2*k*a*N] (flat; a new one
    if None), the kernel in the first, and the second is free afterwards.
    q / -sigma^2 is -q / sigma^2. The inputs are taken as checked.
    """
    s = np.asarray(states, dtype=float)
    s = s.reshape(-1, s.shape[-1] // STATE_DIM, STATE_DIM)
    n, k, a = len(s), s.shape[1], len(agents)
    pos = s[..., :2].T.copy()  # (2, k, N)
    own = pos[:, agents]  # (2, a, N)
    if out is None:
        out = np.empty(2 * k * a * n)
    d = out[: 2 * k * a * n].reshape(2, k, a, n)
    d[...] = pos[:, :, None]  # a copy, then p_j - p_x over whole (a, N) rows: no N-long inner loops
    d -= own[:, None]
    d *= d
    kernel = np.add(d[0], d[1], out=d[0])
    kernel /= -(sigma * sigma)
    own -= goals.T[..., None]  # the kernel is formed: own's rows become the goal offsets
    own *= own
    goal_dist = np.add(own[0], own[1], out=own[0])
    return goal_dist, np.exp(kernel, out=kernel)


def _state_features(
    states: np.ndarray, agents: np.ndarray, goals: np.ndarray, sigma: float, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Goal distance and crowding (a, N) at N joint states, unchecked; out as `state_terms` takes it."""
    goal_dist, kernel = state_terms(states, agents, goals, sigma, out)
    crowding = agent_sum(kernel, out[kernel.size : kernel.size + kernel[0].size].reshape(kernel.shape[1:]))
    crowding -= 1.0  # the self term exp(0)
    return goal_dist, crowding


def state_features(
    states: np.ndarray, agents: Sequence[int], goals, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Goal distance and crowding of the given agents at joint states (..., 4k).

    goals is (len(agents), 2); both results are (..., len(agents)). The crowding
    term sums the `state_terms` kernel over every j with `agent_sum` and removes
    its self term exp(0) = 1; it is exactly zero for k == 1. sigma, the agent
    indices and the goals' shape are checked as `expected_features` checks them.
    """
    s = np.asarray(states, dtype=float)
    k = s.shape[-1] // STATE_DIM
    idx, goals, sigma = _check_terms(k, agents, goals, sigma)
    out = np.empty(2 * k * idx.size * (s.size // s.shape[-1]))
    terms = _state_features(s, idx, goals, sigma, out)
    return tuple(np.ascontiguousarray(f.T).reshape(s.shape[:-1] + (idx.size,)) for f in terms)


def feature_rows(horizon: int, agents: int, k: int) -> int:
    """Trajectories per `expected_features` block: as many as keep its kernel within FEATURE_BUDGET."""
    return max(1, FEATURE_BUDGET // ((horizon + 1) * agents * k))


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as an error
def expected_features(
    trajs: RolloutSet,
    agents: Sequence[int],
    goals,
    sigma: float,
) -> np.ndarray:
    """Mean feature vectors (len(agents), 3) of the given agents over a rollout set.

    goals is (len(agents), 2), one row per index.
    sigma is the crowding kernel's width, a scene's `ScenarioSpec.sigma`.
    The per-trajectory rows are formed `feature_rows` trajectories at a time,
    each on its own, so the block size never changes a bit of the result:
    the goal distance and crowding at the block's states, its kernel in one
    buffer made once per call, and the effort as each control's sum of
    squares u_x**2 + u_y**2. Each time series is averaged along one
    contiguous run, in one agent's order.
    """
    idx, goals, sigma = _check_terms(trajs.k, agents, goals, sigma)
    M, a, steps = len(trajs), idx.size, trajs.horizon + 1
    per_traj = np.empty((M, a, NUM_FEATURES))
    step = min(M, feature_rows(trajs.horizon, a, trajs.k))
    buffer = np.empty(2 * trajs.k * a * step * steps)  # a block's x and y differences
    for start in range(0, M, step):
        rows = slice(start, start + step)
        goal_dist, proximity = _state_features(trajs.states[rows], idx, goals, sigma, buffer)
        for j, f in enumerate((goal_dist, proximity)):
            per_traj[rows, :, j] = np.mean(f.reshape(a, -1, steps), axis=-1).T
        sq = np.take(trajs.controls[rows], idx, axis=2)  # a copy, faster than fancy indexing
        sq *= sq
        effort = sq[..., 0] + sq[..., 1]
        # the copy makes each time series contiguous, so its mean sums in one agent's order
        per_traj[rows, :, 2] = np.mean(np.swapaxes(effort, 1, 2).copy(), axis=-1)
    return _check_features(np.sum(per_traj, axis=0) / len(trajs))
