"""Stagewise quadratic expansion of trajectory costs.

Each agent's cost is expanded along a nominal trajectory into a quadratic in
the deviations (dx, du) at every step, held as one `CostExpansion` over the
whole horizon: state curvature Q, gradient q and offset c for steps 0..T
(row T is the terminal cost), plus the control curvature R and control
gradient r. The cost is theta . phi over three closed-form features with no
state-control coupling, so the expansion is exact and linear in theta. Agent
i's goal and crowding terms occupy 16k - 7 entries of the augmented cost
[[Q, q], [q^T, 2c]], fixed by (k, i) alone (`cost_pattern`):
`expand_model_along` takes the agent's goal, the kernel width sigma and its
weight vector, writes the terms there once per nominal, theta-free,
`CostExpansion.reweighted` weights them anew, and the solve reads each step
through `fill`.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CostRangeError, InternalError, ValidationError
from .features import _check_terms, agent_sum, state_terms
from .trajectory import STATE_DIM, RolloutSet


def _eval_batch(f, probes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(probes), dtype=float)
    if vals.shape != (probes.shape[0],):
        raise ValidationError(
            f"cost function must map (n, d) -> (n,), got output shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        bad = probes[~np.isfinite(vals)][0]
        raise ValidationError(f"cost function returned non-finite value near {bad}")
    return vals


class CostExpansion:
    """One agent's quadratic cost theta . phi along a nominal, in deviations (dx, du).

    Step t < T costs c[t] + q[t].dx + dx.Q[t].dx/2 + r[t].du + R |du|^2/2 and
    row T is the terminal cost c[T] + q[T].dx + dx.Q[T].dx/2, with Q (T+1, n, n),
    q (T+1, n), c (T+1,) and r (T, 2). The cost occupies the fixed entries
    (rows[e], cols[e]) of the augmented cost [[Q, q], [q^T, 2c]] that
    `expand_model_along` lays out, (n, n) last; every other entry is 0.
    basis[f, t, e] is the goal (f = 0) or crowding (f = 1) feature's part of
    entry e at state t; the effort feature reads the nominal controls (T, 2).
    Formed and checked finite here: the entries (w0 basis[0] + w1 basis[1]) / (T+1)
    plus R |u|^2 on 2c for t < T, R = 2 w2 / T and r = R u. Q is exactly
    symmetric because the terms are; the solve reads the cost only through `fill`.
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflow is reported below, as an error
    def __init__(self, rows, cols, basis, controls, weights: np.ndarray):
        w_goal, w_crowd, w_effort = (float(w) for w in weights)
        entries = (w_goal * basis[0] + w_crowd * basis[1]) / (len(controls) + 1)
        R = 2.0 * (w_effort / len(controls))
        entries[:-1, -1] += R * np.sum(controls * controls, axis=-1)
        r = R * controls
        if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(r))):
            raise CostRangeError("cost expansion contains non-finite values", "weights")
        r.setflags(write=False)
        self.rows, self.cols, self.basis, self.controls = rows, cols, basis, controls
        self._entries, self.R, self.r = entries, R, r

    def reweighted(self, weights: np.ndarray) -> "CostExpansion":
        """The expansion of the same terms at new weights (theta0, theta1, theta2)."""
        return CostExpansion(self.rows, self.cols, self.basis, self.controls, weights)

    @property
    def horizon(self) -> int:
        return self.r.shape[0]

    @property
    def state_dim(self) -> int:
        return int(self.rows[-1])

    def fill(self, out: np.ndarray) -> None:
        """Write the augmented cost [[Q, q], [q^T, 2c]] of every step into out (T+1, n+1, n+1)."""
        out[...] = 0.0
        out[:, self.rows, self.cols] = self._entries


@lru_cache(maxsize=None)
def cost_pattern(k: int, agent: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols) of the 16k - 7 augmented-cost entries of an agent's cost, and their mirrors.

    With i = agent, j over the other agents and n = 4k, in order: the (i, i),
    (i, j), (j, i) and (j, j) position blocks, each 2x2 row by row, then row n
    and column n over every position, (n, n) last. Entry mirror[e] sits at (cols[e], rows[e]).
    """
    n = STATE_DIM * k
    pos = STATE_DIM * np.arange(k)[:, None] + np.arange(2)  # (k, 2): each agent's position rows
    own, others = pos[agent][None], np.delete(pos, agent, axis=0)
    mine, edge, every = np.broadcast_to(own, others.shape), np.array([[n]]), pos.reshape(1, -1)
    # block b holds the entries (a[b, x], c[b, y]) of its row set a and column set c
    blocks = [(own, own), (mine, others), (others, mine), (others, others),
              (edge, every), (every, edge), (edge, edge)]
    parts = [np.broadcast_arrays(a[:, :, None], c[:, None, :]) for a, c in blocks]
    rows, cols = (np.concatenate([part[x].ravel() for part in parts]) for x in (0, 1))
    index = np.empty((n + 1, n + 1), dtype=np.intp)
    index[rows, cols] = np.arange(rows.size)
    mirror = index[cols, rows]
    for a in (rows, cols, mirror):
        a.setflags(write=False)
    return rows, cols, mirror


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported below, as an error
def expand_model_along(nominal: RolloutSet, agent: int, goal, sigma: float, weights) -> CostExpansion:
    """Exact quadratic expansion of one agent's cost theta . phi along a nominal.

    Every state of the one-row nominal is expanded at once. With r_j = p_i - p_j and
    e_j = exp(-|r_j|^2 / sigma^2), read off `features.state_terms` (which
    also gives the goal distance and, summed by `agent_sum`, the crowding
    offset; there p_j - p_i = -r_j exactly), the kernel e_j has gradient -2 e_j r_j / sigma^2
    in p_i and +2 e_j r_j / sigma^2 in p_j, and curvature
    M_j = e_j (4 r_j r_j^T / sigma^4 - 2 I / sigma^2) on the (i, i) and (j, j)
    position blocks, -M_j on (i, j) and (j, i). The goal term |p_i - g|^2 has
    gradient 2 (p_i - g) and curvature 2 I on p_i. These terms go straight into
    the entries of `cost_pattern(k, i)`, where an entry that is 0.0 along this
    nominal stays as 0.0. They are checked once, finite and each equal to its
    mirror, then weighted by theta = weights. goal is the agent's 2-vector
    and sigma the crowding kernel's width; the agent index, goal and sigma
    are checked as `features.expected_features` checks them.
    """
    if len(nominal) != 1:
        raise ValidationError(f"the nominal must be one row, got {len(nominal)} rows")
    T, k, states = nominal.horizon, nominal.k, nominal.states[0]
    idx, goals, sigma = _check_terms(k, [agent], [goal], sigma)
    i, g, s2 = int(idx[0]), goals[0], sigma * sigma
    goal_value, kernel = state_terms(states, idx, goals, sigma)
    crowd_value = agent_sum(kernel)[0] - 1.0  # the crowding feature, as state_features forms it
    e = kernel[:, 0].T.copy()  # (T+1, k)
    e[:, i] = 0.0  # no self term

    pos = states.reshape(T + 1, k, STATE_DIM)[..., :2]
    r = pos[:, i : i + 1] - pos  # (T+1, k, 2); zero at j == i
    grad = (2.0 / s2) * e[..., None] * r  # d e_j / d p_j
    # r r^T is formed before scaling, so that each M_j is exactly symmetric
    M = e[..., None, None] * (
        (4.0 / (s2 * s2)) * (r[..., :, None] * r[..., None, :]) - (2.0 / s2) * np.eye(2)
    )  # (T+1, k, 2, 2)

    # the goal (0) and crowding (1) features' parts of each entry, in pattern order
    rows, cols, mirror = cost_pattern(k, i)
    basis = np.zeros((2, T + 1, rows.size))
    goal, crowd = basis
    m = 4 * (k - 1)  # entries in all (i, j) blocks; as many in the (j, i) and (j, j) ones
    goal[:, 0:4:3] = 2.0  # 2 I
    crowd[:, :4] = M.sum(axis=1).reshape(T + 1, 4)
    M_j = M[:, np.arange(k) != i].reshape(T + 1, m)
    np.negative(M_j, out=crowd[:, 4 : 4 + m])
    crowd[:, 4 + m : 4 + 2 * m] = crowd[:, 4 : 4 + m]
    crowd[:, 4 + 2 * m : 4 + 3 * m] = M_j
    edge = basis[..., 4 + 3 * m : 4 + 3 * m + 2 * k]
    l = edge.reshape(2, T + 1, k, 2)  # a view: the reshape splits the last axis
    l[0, :, i] = 2.0 * (pos[:, i] - g)
    l[1] = grad
    l[1, :, i] = -grad.sum(axis=1)
    basis[..., 4 + 3 * m + 2 * k : -1] = edge
    goal[:, -1] = 2.0 * goal_value[0]
    crowd[:, -1] = 2.0 * crowd_value
    if not np.all(np.isfinite(basis)):
        raise CostRangeError("cost function returned non-finite values along the nominal", "states")
    if not np.array_equal(basis, basis[..., mirror]):
        raise InternalError("feature curvature is not exactly symmetric")
    basis.setflags(write=False)
    return CostExpansion(rows, cols, basis, nominal.controls[0, :, i], weights)
