"""Stagewise quadratic expansion of trajectory costs.

The costs of any list of agents are expanded along a nominal trajectory into
quadratics in the deviations (dx, du) at every step, held as one
`CostExpansion`: a stack over the agents, the way a `RolloutSet` is a stack
over trajectories. Each member holds state curvature Q, gradient q and
offset c for steps 0..T (row T is the terminal cost), plus the control
curvature R and control gradient r. The cost is theta . phi over three
closed-form features with no state-control coupling, so the expansion is
exact and linear in theta. Agent i's goal and crowding terms occupy 10k - 3
entries of its augmented cost [[Q, q], [q^T, 2c]], fixed by (k, i) alone
(`cost_pattern`), each mirrored pair once: `expand_model_along` takes the
agents' goals, the kernel width sigma and their weight vectors, writes the
terms of every agent there in one pass per nominal, theta-free,
`CostExpansion.reweighted` weights them all anew, and the solve reads every
step of every agent through one `fill`, which writes each entry and its mirror.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CostRangeError, ValidationError
from .features import NUM_FEATURES, _check_terms, agent_sum, state_terms
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
    """The quadratic costs theta . phi of a agents along a nominal, in deviations (dx, du).

    Member x is agent agents[x]. Its step t < T costs
    c[t] + q[t].dx + dx.Q[t].dx/2 + r[t, x].du + R[x] |du|^2/2 and its row T
    is the terminal cost c[T] + q[T].dx + dx.Q[T].dx/2, with Q (T+1, n, n),
    q (T+1, n), c (T+1,), R (a,) and r (T, a, 2). The cost occupies the
    fixed entries (rows[x, e], cols[x, e]) of the member's augmented cost
    [[Q, q], [q^T, 2c]] that `cost_pattern` lays out, (n, n) last, and their
    mirrors (cols[x, e], rows[x, e]); every other entry is 0. basis[f, t, x, e]
    is the goal (f = 0) or crowding (f = 1) feature's part of entry e at
    state t; the effort feature reads the nominal controls (T, a, 2). Formed
    and checked finite here, for every member at once from weights (a, 3):
    the entries (w0 basis[0] + w1 basis[1]) / (T+1) plus R |u|^2 on 2c for
    t < T, R = 2 w2 / T and r = R u. The solve reads the costs only through `fill`.
    `weights` is a read-only copy of the (a, 3) weights the stack was formed at.
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflow is reported below, as an error
    def __init__(self, agents, rows, cols, flat, basis, controls, weights):
        w = np.array(weights, dtype=float)
        if w.shape != (len(agents), NUM_FEATURES):
            raise ValidationError(f"weights must be ({len(agents)}, {NUM_FEATURES}), got {w.shape}")
        entries = (w[:, 0, None] * basis[0] + w[:, 1, None] * basis[1]) / (len(controls) + 1)
        R = 2.0 * (w[:, 2] / len(controls))
        entries[:-1, :, -1] += R * np.sum(controls * controls, axis=-1)
        r = R[:, None] * controls
        if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(r))):
            raise CostRangeError("cost expansion contains non-finite values", "weights")
        for arr in (w, R, r):
            arr.setflags(write=False)
        self.agents, self.rows, self.cols, self.basis, self.controls = agents, rows, cols, basis, controls
        self._flat, self._entries, self.weights, self.R, self.r = flat, entries, w, R, r

    def reweighted(self, weights: np.ndarray) -> "CostExpansion":
        """The expansion of the same terms at new weights (a, 3), one row (theta0, theta1, theta2) per member."""
        return CostExpansion(self.agents, self.rows, self.cols, self._flat, self.basis, self.controls, weights)

    def __len__(self) -> int:
        return len(self.agents)

    @property
    def horizon(self) -> int:
        return self.r.shape[0]

    @property
    def state_dim(self) -> int:
        return int(self.rows[0, -1])

    def fill(self, out: np.ndarray) -> None:
        """Write every member's augmented cost [[Q, q], [q^T, 2c]] of every step into a C-contiguous out (T+1, a, n+1, n+1).

        One scatter writes each entry and its mirror, so Q is symmetric by construction.
        """
        n1 = self.state_dim + 1
        if out.shape != (self.horizon + 1, len(self), n1, n1) or not out.flags.c_contiguous:
            raise ValidationError(f"fill needs a C-contiguous out of shape {(self.horizon + 1, len(self), n1, n1)}")
        out[...] = 0.0
        out.reshape(len(out), -1)[:, self._flat] = self._entries.reshape(len(out), 1, -1)


@lru_cache(maxsize=None)
def cost_pattern(k: int, agent: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the 10k - 3 augmented-cost entries of an agent's cost, each mirrored pair once.

    With i = agent, j over the other agents and n = 4k, in order: the (i, i),
    (i, j) and (j, j) position blocks, each 2x2 row by row, then row n over
    every position, (n, n) last; the (j, i) blocks and column n are their mirrors.
    """
    n = STATE_DIM * k
    pos = STATE_DIM * np.arange(k)[:, None] + np.arange(2)  # (k, 2): each agent's position rows
    own, others = pos[agent][None], np.delete(pos, agent, axis=0)
    mine, edge, every = np.broadcast_to(own, others.shape), np.array([[n]]), pos.reshape(1, -1)
    # block b holds the entries (a[b, x], c[b, y]) of its row set a and column set c
    blocks = [(own, own), (mine, others), (others, others), (edge, every), (edge, edge)]
    parts = [np.broadcast_arrays(a[:, :, None], c[:, None, :]) for a, c in blocks]
    rows, cols = (np.concatenate([part[x].ravel() for part in parts]) for x in (0, 1))
    for a in (rows, cols):
        a.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=64)  # keyed by agent lists; a game asks for range(k) alone
def _stack_pattern(k: int, agents: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The `cost_pattern`s of a stack of agents, read-only: the agents (a,), then rows and cols (a, 10k - 3).

    flat (2, a * (10k - 3)) is each entry's place (row 0) and its mirror's (row 1) in a flat (a, n+1, n+1)
    stack of augmented costs; others (a, k - 1) is the other agents of each member in order.
    """
    rows, cols = (np.stack([cost_pattern(k, i)[x] for i in agents]) for x in range(2))
    a, n1, idx = len(agents), STATE_DIM * k + 1, np.array(agents)
    member = n1 * n1 * np.arange(a)[:, None]
    flat = np.stack([(member + n1 * rows + cols).ravel(), (member + n1 * cols + rows).ravel()])
    others = np.array([np.delete(np.arange(k), i) for i in agents]).reshape(a, k - 1)
    for arr in (idx, rows, cols, flat, others):
        arr.setflags(write=False)
    return idx, rows, cols, flat, others


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported below, as an error
def expand_model_along(nominal: RolloutSet, agents, goals, sigma: float, weights) -> CostExpansion:
    """Exact quadratic expansion of the costs theta . phi of the given agents along a nominal.

    Every state of the one-row nominal is expanded for every agent at once.
    For agent i, with r_j = p_i - p_j and e_j = exp(-|r_j|^2 / sigma^2),
    read off one `features.state_terms` call (which also gives the goal
    distance and, summed by `agent_sum`, the crowding offset; there
    p_j - p_i = -r_j exactly), the kernel e_j has gradient -2 e_j r_j / sigma^2
    in p_i and +2 e_j r_j / sigma^2 in p_j, and curvature
    M_j = e_j (4 r_j r_j^T / sigma^4 - 2 I / sigma^2) on the (i, i) and (j, j)
    position blocks, -M_j on (i, j) and (j, i). The goal term |p_i - g|^2 has
    gradient 2 (p_i - g) and curvature 2 I on p_i. These terms go straight into
    the entries of `cost_pattern(k, i)`, each mirrored pair once, where an
    entry that is 0.0 along this nominal stays as 0.0. They are checked
    finite once for the whole stack, then weighted by theta = weights (a, 3).
    agents, goals (a, 2) and sigma are checked as
    `features.expected_features` checks them; member x of the stack is agents[x].
    """
    if len(nominal) != 1:
        raise ValidationError(f"the nominal must be one row, got {len(nominal)} rows")
    T, k, states = nominal.horizon, nominal.k, nominal.states[0]
    idx, goals, sigma = _check_terms(k, agents, goals, sigma)
    a, s2 = idx.size, sigma * sigma
    idx, rows, cols, flat, others = _stack_pattern(k, tuple(idx.tolist()))
    goal_value, kernel = state_terms(states, idx, goals, sigma)  # (a, T+1), (k, a, T+1)
    crowd_value = agent_sum(kernel) - 1.0  # the crowding feature, as state_features forms it
    member = np.arange(a)
    e = kernel.T.copy()  # (T+1, a, k)
    e[:, member, idx] = 0.0  # no self term

    pos = states.reshape(T + 1, k, STATE_DIM)[..., :2]
    r = pos[:, idx, None] - pos[:, None]  # (T+1, a, k, 2); zero at j == i
    grad = (2.0 / s2) * e[..., None] * r  # d e_j / d p_j
    # M_j row by row, (T+1, a, k, 4): r r^T is formed before scaling, so each M_j is exactly
    # symmetric and fill's two writes of its xy and yx agree; 2 I / sigma^2 comes off the diagonal alone
    M = np.empty(r.shape[:-1] + (4,))
    rx, ry = r[..., 0], r[..., 1]
    np.multiply(rx, rx, M[..., 0])
    np.multiply(rx, ry, M[..., 1])
    M[..., 2] = M[..., 1]
    np.multiply(ry, ry, M[..., 3])
    M *= 4.0 / (s2 * s2)
    M[..., 0:4:3] -= 2.0 / s2
    M *= e[..., None]

    # the goal (0) and crowding (1) features' parts of each entry, in pattern order
    basis = np.zeros((2, T + 1, a, rows.shape[1]))
    goal, crowd = basis
    m = 4 * (k - 1)  # entries in all (i, j) blocks; as many in the (j, j) ones
    goal[..., 0:4:3] = 2.0  # 2 I
    crowd[..., :4] = M.sum(axis=2)
    M_j = M[:, member[:, None], others].reshape(T + 1, a, m)
    np.negative(M_j, crowd[..., 4 : 4 + m])
    crowd[..., 4 + m : 4 + 2 * m] = M_j
    l = basis[..., 4 + 2 * m : -1].reshape(2, T + 1, a, k, 2)  # a view: the reshape splits the last axis
    l[0][:, member, idx] = 2.0 * (pos[:, idx] - goals)
    l[1] = grad
    l[1][:, member, idx] = -grad.sum(axis=2)
    goal[..., -1] = 2.0 * goal_value.T
    crowd[..., -1] = 2.0 * crowd_value.T
    if not np.all(np.isfinite(basis)):
        raise CostRangeError("cost function returned non-finite values along the nominal", "states")
    controls = nominal.controls[0][:, idx]  # (T, a, 2)
    for arr in (basis, controls):
        arr.setflags(write=False)
    return CostExpansion(idx, rows, cols, flat, basis, controls, weights)
