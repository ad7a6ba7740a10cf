"""Stagewise quadratic expansion of trajectory costs.

Each agent's running cost is expanded at every step of a nominal trajectory
into a quadratic in the deviation variables (dx, du): a symmetric curvature
matrix, a gradient and an offset. The cost is theta . phi over three features
with closed-form derivatives, so the expansion is exact and computed for all
nominal states at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import StageCostModel
from .trajectory import CONTROL_DIM, STATE_DIM, Trajectory

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class QuadraticStage:
    """Quadratic cost c + l.z + z.H.z/2 in z = (dx, du) for one timestep."""

    H: np.ndarray  # (d, d), symmetric
    l: np.ndarray  # (d,)
    c: float
    state_dim: int

    def __post_init__(self):
        H = np.array(self.H, dtype=float)
        l = np.array(self.l, dtype=float).ravel()
        d = l.size
        if H.shape != (d, d):
            raise ValidationError(f"H must be ({d}, {d}), got {H.shape}")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(l)) and np.isfinite(self.c)):
            raise ValidationError("quadratic stage contains non-finite values")
        if np.max(np.abs(H - H.T), initial=0.0) > SYMMETRY_TOL:
            raise ValidationError("H is not symmetric within tolerance")
        if not 0 < self.state_dim <= d:
            raise ValidationError(f"state_dim {self.state_dim} out of range for d={d}")
        H.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "l", l)

    @property
    def control_dim(self) -> int:
        return self.l.size - self.state_dim

    @property
    def H_xx(self) -> np.ndarray:
        return self.H[: self.state_dim, : self.state_dim]

    @property
    def H_xu(self) -> np.ndarray:
        return self.H[: self.state_dim, self.state_dim :]

    @property
    def H_uu(self) -> np.ndarray:
        return self.H[self.state_dim :, self.state_dim :]

    @property
    def l_x(self) -> np.ndarray:
        return self.l[: self.state_dim]

    @property
    def l_u(self) -> np.ndarray:
        return self.l[self.state_dim :]


@dataclass(frozen=True)
class TerminalQuadratic:
    """Quadratic state-only cost c + l.dx + dx.H.dx/2 at the horizon end."""

    H: np.ndarray  # (n, n)
    l: np.ndarray  # (n,)
    c: float

    def __post_init__(self):
        H = np.array(self.H, dtype=float)
        l = np.array(self.l, dtype=float).ravel()
        if H.shape != (l.size, l.size):
            raise ValidationError(f"H must be square matching l, got {H.shape} vs {l.size}")
        if np.max(np.abs(H - H.T), initial=0.0) > SYMMETRY_TOL:
            raise ValidationError("terminal H is not symmetric within tolerance")
        H.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "l", l)

    @classmethod
    def zero(cls, n: int) -> "TerminalQuadratic":
        return cls(np.zeros((n, n)), np.zeros(n), 0.0)


@dataclass(frozen=True)
class LinearDynamics:
    """Time-invariant joint double integrator: x' = A x + sum_i B_i u_i."""

    A: np.ndarray  # (4k, 4k)
    B: tuple[np.ndarray, ...]  # k matrices (4k, 2)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = tuple(np.array(b, dtype=float) for b in self.B)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got {A.shape}")
        for b in B:
            if b.shape != (n, CONTROL_DIM):
                raise ValidationError(f"each B_i must be ({n}, 2), got {b.shape}")
            b.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def k(self) -> int:
        return len(self.B)

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
    B = []
    for i in range(k):
        sl = slice(STATE_DIM * i, STATE_DIM * (i + 1))
        A[sl, sl] = a_blk
        Bi = np.zeros((n, CONTROL_DIM))
        Bi[sl, :] = b_blk
        B.append(Bi)
    return LinearDynamics(A, tuple(B))


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


def expand_model_along(
    model: StageCostModel, nominal: Trajectory
) -> tuple[list[QuadraticStage], TerminalQuadratic]:
    """Exact stages plus terminal quadratic of one agent's StageCostModel.

    Every nominal state is expanded at once. With r_j = p_i - p_j and
    e_j = exp(-|r_j|^2 / sigma^2), the kernel e_j has gradient -2 e_j r_j / sigma^2
    in p_i and +2 e_j r_j / sigma^2 in p_j, and curvature
    M_j = e_j (4 r_j r_j^T / sigma^4 - 2 I / sigma^2) on the (i, i) and (j, j)
    position blocks, -M_j on (i, j) and (j, i). The goal term adds 2 theta0 I
    to agent i's own position block; state terms carry the 1/(T+1) factor.
    The effort term theta2/T * |u|^2 gives H_uu = 2 theta2/T I and
    l_u = 2 theta2/T u. Offsets are cost values at the nominal, so a
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

    w_u = model.control_weight
    u = nominal.agent_controls(i)
    Hz = np.zeros((T, n + CONTROL_DIM, n + CONTROL_DIM))
    Hz[:, :n, :n] = Hx[:T]
    Hz[:, n:, n:] = 2.0 * w_u * np.eye(CONTROL_DIM)
    lz = np.concatenate([lx[:T], 2.0 * w_u * u], axis=1)
    c = c_state[:T] + w_u * np.sum(u * u, axis=-1)
    stages = [
        QuadraticStage(H=Hz[t], l=lz[t], c=float(c[t]), state_dim=n) for t in range(T)
    ]
    return stages, TerminalQuadratic(H=Hx[T], l=lx[T], c=float(c_state[T]))
