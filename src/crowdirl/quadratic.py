"""Stagewise quadratic expansion of trajectory costs.

Each agent's cost is expanded along a nominal trajectory into a quadratic in
the deviations (dx, du) at every step, held as one `CostExpansion` of arrays
over the whole horizon: state curvature Q, gradient q and offset c for steps
0..T (row T is the terminal cost), plus the control curvature R and control
gradient r. The cost is theta . phi over three features with closed-form
derivatives and no state-control coupling, so the expansion is exact and
computed for all nominal states at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import StageCostModel
from .trajectory import CONTROL_DIM, STATE_DIM, Trajectory

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class CostExpansion:
    """One agent's quadratic cost along a nominal, in deviations (dx, du).

    Step t < T costs c[t] + q[t].dx + dx.Q[t].dx/2 + r[t].du + R |du|^2/2 and
    row T is the terminal cost c[T] + q[T].dx + dx.Q[T].dx/2. The cost has no
    state-control coupling and its control curvature is R times the identity.
    Shapes: Q (T+1, n, n) symmetric, q (T+1, n), c (T+1,), r (T, 2). All
    arrays are read-only copies, checked once for the whole horizon.
    """

    Q: np.ndarray
    q: np.ndarray
    c: np.ndarray
    R: float
    r: np.ndarray

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        q = np.array(self.q, dtype=float)
        c = np.array(self.c, dtype=float)
        r = np.array(self.r, dtype=float)
        if Q.ndim != 3 or Q.shape[0] < 2 or Q.shape[1] < 1 or Q.shape[1] != Q.shape[2]:
            raise ValidationError(f"Q must be (T+1, n, n) with T, n >= 1, got {Q.shape}")
        T1, n = Q.shape[:2]
        if q.shape != (T1, n):
            raise ValidationError(f"q must be ({T1}, {n}), got {q.shape}")
        if c.shape != (T1,):
            raise ValidationError(f"c must be ({T1},), got {c.shape}")
        if r.shape != (T1 - 1, CONTROL_DIM):
            raise ValidationError(f"r must be ({T1 - 1}, 2), got {r.shape}")
        if not all(np.all(np.isfinite(a)) for a in (Q, q, c, r, self.R)):
            raise ValidationError("cost expansion contains non-finite values")
        if np.max(np.abs(Q - np.swapaxes(Q, 1, 2))) > SYMMETRY_TOL:
            raise ValidationError("Q is not symmetric within tolerance")
        for name, arr in (("Q", Q), ("q", q), ("c", c), ("r", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "R", float(self.R))

    @property
    def horizon(self) -> int:
        return self.r.shape[0]

    @property
    def state_dim(self) -> int:
        return self.Q.shape[1]


@dataclass(frozen=True)
class LinearDynamics:
    """Time-invariant joint double integrator: x' = A x + sum_i B[i] u_i."""

    A: np.ndarray  # (4k, 4k)
    B: np.ndarray  # (k, 4k, 2)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got {A.shape}")
        if B.ndim != 3 or B.shape[0] < 1 or B.shape[1:] != (n, CONTROL_DIM):
            raise ValidationError(f"B must be (k, {n}, 2) with k >= 1, got {B.shape}")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def k(self) -> int:
        return self.B.shape[0]

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]


def linearize_dynamics(k: int, dt: float) -> LinearDynamics:
    """Exact discrete double-integrator blocks for k agents at step dt."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt!r}")
    a_blk = np.array(
        [[1.0, 0.0, dt, 0.0],
         [0.0, 1.0, 0.0, dt],
         [0.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 0.0, 1.0]]
    )
    b_blk = np.array(
        [[0.5 * dt * dt, 0.0],
         [0.0, 0.5 * dt * dt],
         [dt, 0.0],
         [0.0, dt]]
    )
    n = STATE_DIM * k
    A = np.zeros((n, n))
    B = np.zeros((k, n, CONTROL_DIM))
    for i in range(k):
        sl = slice(STATE_DIM * i, STATE_DIM * (i + 1))
        A[sl, sl] = a_blk
        B[i, sl] = b_blk
    return LinearDynamics(A, B)


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


def expand_model_along(model: StageCostModel, nominal: Trajectory) -> CostExpansion:
    """Exact quadratic expansion of one agent's StageCostModel along a nominal.

    Every nominal state is expanded at once. With r_j = p_i - p_j and
    e_j = exp(-|r_j|^2 / sigma^2), the kernel e_j has gradient -2 e_j r_j / sigma^2
    in p_i and +2 e_j r_j / sigma^2 in p_j, and curvature
    M_j = e_j (4 r_j r_j^T / sigma^4 - 2 I / sigma^2) on the (i, i) and (j, j)
    position blocks, -M_j on (i, j) and (j, i). The goal term adds 2 theta0 I
    to agent i's own position block; state terms carry the 1/(T+1) factor.
    The effort term theta2/T * |u|^2 gives R = 2 theta2/T and r = R u. Offsets are cost values at the nominal, so a
    non-finite cost raises ValidationError.
    """
    states = nominal.states
    T, k, i = nominal.horizon, model.k, model.agent
    n = STATE_DIM * k
    s2 = model.sigma * model.sigma
    w_goal, w_prox, _ = model.theta.weights
    c_state = _eval_batch(model.state_cost, states)

    pos = states.reshape(T + 1, k, STATE_DIM)[..., :2]
    r = pos[:, i : i + 1] - pos  # (T+1, k, 2); zero at j == i
    e = np.exp(-np.sum(r * r, axis=-1) / s2)
    e[:, i] = 0.0  # no self term
    grad = (2.0 / s2) * e[..., None] * r  # d e_j / d p_j
    M = e[..., None, None] * (
        (4.0 / (s2 * s2)) * r[..., :, None] * r[..., None, :] - (2.0 / s2) * np.eye(2)
    )  # (T+1, k, 2, 2)

    l = np.zeros((T + 1, k, STATE_DIM))
    l[:, :, :2] = w_prox * grad
    l[:, i, :2] = 2.0 * w_goal * (pos[:, i] - model.goal) - w_prox * grad.sum(axis=1)
    H = np.zeros((T + 1, k, STATE_DIM, k, STATE_DIM))
    H[:, i, :2, :, :2] = -w_prox * M.transpose(0, 2, 1, 3)
    H[:, :, :2, i, :2] = -w_prox * M
    agents = np.arange(k)
    H[:, agents, :2, agents, :2] = w_prox * M.transpose(1, 0, 2, 3)
    H[:, i, :2, i, :2] = 2.0 * w_goal * np.eye(2) + w_prox * M.sum(axis=1)
    Hx = H.reshape(T + 1, n, n) / (T + 1)
    lx = l.reshape(T + 1, n) / (T + 1)

    R = 2.0 * model.control_weight
    u = nominal.agent_controls(i)
    c = c_state.copy()
    c[:T] += 0.5 * R * np.sum(u * u, axis=-1)
    return CostExpansion(Q=Hx, q=lx, c=c, R=R, r=R * u)
