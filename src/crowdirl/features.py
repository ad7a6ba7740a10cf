"""Trajectory feature basis and the weighted cost it induces.

Three features per agent, each averaged along the trajectory: squared distance
to the goal, a Gaussian crowding kernel of width `ScenarioSpec.sigma` summed
over the other agents, and squared control effort. State features average
over all T+1 states, control effort over the T controls; `expected_features`
forms them for any list of agents over a whole `RolloutSet` in one pass. An
agent's cost is the dot product of its weight vector `CostParams` with this
feature vector; `quadratic.expand_model_along` re-expresses the same cost,
through the same `state_terms`, as per-step terms the game solver expands.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CostRangeError, ValidationError
from .trajectory import STATE_DIM, RolloutSet, check_sigma

NUM_FEATURES = 3
FEATURE_BUDGET = 2**16  # kernel elements per expected_features block: its (rows, T+1, a, k) arrays


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


def state_terms(
    states: np.ndarray, agents: Sequence[int], goals, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Goal distance (..., a) and crowding kernel (..., a, k) of agents a at joint states (..., 4k).

    goals is (a, 2); kernel[..., x, j] = exp(-||p_agents[x] - p_j||^2 / sigma^2), self term 1 included.
    It is formed in place from contiguous copies of the position columns; q / -sigma^2 is -q / sigma^2.
    """
    s = np.asarray(states, dtype=float)
    s = s.reshape(s.shape[:-1] + (-1, STATE_DIM))
    px, py = s[..., 0].copy(), s[..., 1].copy()  # (..., k)
    ox, oy = px[..., agents], py[..., agents]  # (..., a)
    goal_dist = (ox - goals[:, 0]) ** 2 + (oy - goals[:, 1]) ** 2
    dx, dy = px[..., None, :] - ox[..., None], py[..., None, :] - oy[..., None]  # (..., a, k)
    dx *= dx
    dy *= dy
    dx += dy
    dx /= -(sigma * sigma)
    return goal_dist, np.exp(dx, out=dx)


def state_features(
    states: np.ndarray, agents: Sequence[int], goals, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Goal distance and crowding of the given agents at joint states (..., 4k).

    goals is (len(agents), 2); both results are (..., len(agents)). The crowding
    term sums the `state_terms` kernel over every j and removes its self term
    exp(0) = 1; it is exactly zero for k == 1.
    """
    goal_dist, kernel = state_terms(states, agents, goals, sigma)
    return goal_dist, np.sum(kernel, axis=-1) - 1.0


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
    `state_features` on the block's states, and the effort as each control's
    sum of squares u_x**2 + u_y**2.
    """
    sigma = check_sigma(sigma)
    idx = np.asarray(agents)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or not np.all((idx >= 0) & (idx < trajs.k)):
        raise ValidationError(f"agent indices {agents!r} must be integers in [0, {trajs.k})")
    goals = np.asarray(goals, dtype=float)
    if goals.shape != (idx.size, 2):
        raise ValidationError(f"goals must be ({idx.size}, 2), got shape {goals.shape}")
    per_traj = np.empty((len(trajs), idx.size, NUM_FEATURES))
    step = feature_rows(trajs.horizon, idx.size, trajs.k)
    for start in range(0, len(trajs), step):
        rows = slice(start, start + step)
        goal_dist, proximity = state_features(trajs.states[rows], idx, goals, sigma)
        sq = np.take(trajs.controls[rows], idx, axis=2)  # a copy, faster than fancy indexing
        sq *= sq
        effort = sq[..., 0] + sq[..., 1]  # the pair sum np.sum forms
        for j, f in enumerate((goal_dist, proximity, effort)):
            # the copy makes each time series contiguous, so its mean sums in one agent's order
            per_traj[rows, :, j] = np.mean(np.swapaxes(f, 1, 2).copy(), axis=-1)
    return _check_features(np.sum(per_traj, axis=0) / len(trajs))
