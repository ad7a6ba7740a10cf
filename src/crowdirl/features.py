"""Trajectory feature basis and the weighted cost it induces.

Three features per agent, each averaged along the trajectory: squared distance
to the goal, a Gaussian crowding kernel of width `ScenarioSpec.sigma` summed
over the other agents, and squared control effort. State features average
over all T+1 states, control effort over the T controls; `expected_features`
forms them for any list of agents over a whole `RolloutSet` in one pass. An
agent's cost is the dot product of its weight vector `CostParams` with this
feature vector; `quadratic.expand_model_along` re-expresses the same cost,
through the same `state_terms` and `agent_sum`, as per-step terms the game
solver expands.

The kernel is laid out agent-major, (k, a, N) over N joint states with the
other agent j on the leading axis, so every elementwise pass is one long
contiguous run; `agent_sum` adds its k rows in the order np.add.reduce
would sum them along a contiguous axis, which keeps every feature bit of
the (..., a, k) layout that `np.sum(kernel, axis=-1)` reduced.
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
    """Weight vector over the feature basis; kept nonnegative by projection."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (NUM_FEATURES,):
            raise ValidationError(f"weights must have length {NUM_FEATURES}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain non-finite values")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def ones(cls) -> "CostParams":
        return cls(np.ones(NUM_FEATURES))

    def project_nonneg(self) -> "CostParams":
        return CostParams(np.maximum(self.weights, 0.0))


def _check_terms(k: int, agents, goals, sigma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The agent indices, goals (a, 2) and kernel width of a feature call over k agents, checked."""
    sigma = check_sigma(sigma)
    idx = np.asarray(agents)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or not np.all((idx >= 0) & (idx < k)):
        raise ValidationError(f"agent indices {agents!r} must be integers in [0, {k})")
    goals = np.asarray(goals, dtype=float)
    if goals.shape != (idx.size, 2):
        raise ValidationError(f"goals must be ({idx.size}, 2), got shape {goals.shape}")
    return idx, goals, sigma


def agent_sum(terms: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Sum of terms (n, ...) over axis 0: the bits of np.sum(x, axis=-1) where x[..., j] = terms[j].

    np.add.reduce sums n contiguous numbers pairwise: below 8 terms one after
    another; from 8 to 128 as eight running sums r0..r7 over strides of 8,
    joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remaining n % 8
    terms one at a time; above 128 as the sum of two parts split at a multiple
    of 8; and it adds the result to its identity 0.0 (adding it to each part
    instead gives the same bits). Here every step adds whole terms, so each
    pass runs along their contiguous trailing axes. scratch, shaped like terms
    (a new one if None), holds the running sums; the result is scratch[0].
    """
    if scratch is None:
        scratch = np.empty_like(terms)
    n, out = len(terms), scratch[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        agent_sum(terms[:half], scratch)
        out += agent_sum(terms[half:], scratch[1:])
        return out
    if n < 8:  # one after another
        rest = terms[2:]
        if n == 1:
            np.copyto(out, terms[0])
        else:
            np.add(terms[0], terms[1], out=out)
    else:  # no call's output overlaps its inputs, so none needs a temporary copy
        whole = n - n % 8
        rest, r = terms[whole:], terms[:8]
        if whole > 8:
            r = np.add(terms[:8], terms[8:16], out=scratch[4:12])
            for i in range(16, whole, 8):
                r += terms[i : i + 8]
        pairs = np.add(r[0::2], r[1::2], out=scratch[:4])  # r0+r1, r2+r3, r4+r5, r6+r7
        quads = np.add(pairs[0::2], pairs[1::2], out=scratch[4:6])
        np.add(quads[0], quads[1], out=out)
    for t in rest:
        out += t
    out += 0.0  # the identity: a sum of -0.0 terms is 0.0
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
    crowding = agent_sum(kernel, out[kernel.size : 2 * kernel.size].reshape(kernel.shape))
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
        effort = sq[..., 0] + sq[..., 1]  # the pair sum np.sum forms
        # the copy makes each time series contiguous, so its mean sums in one agent's order
        per_traj[rows, :, 2] = np.mean(np.swapaxes(effort, 1, 2).copy(), axis=-1)
    return _check_features(np.sum(per_traj, axis=0) / len(trajs))
