"""Finite-difference oracle for the closed-form quadratic expansion.

Central differences of a batch-capable cost function, with steps h scaled by
max(1, |coordinate|). Expansions are plain (H, l, c) arrays of the cost as a
quadratic c + l.z + z.H.z/2 in z = (dx, du), or in dx alone for a terminal
cost. `fd_expand_model_along` expands a StageCostModel the way
`crowdirl.quadratic.expand_model_along` does, but numerically, so the two can
be checked against each other. `DenseCost` carries hand-built or
finite-difference costs into `solve_lq_game`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crowdirl.features import StageCostModel
from crowdirl.quadratic import _eval_batch
from crowdirl.trajectory import Trajectory

DEFAULT_FD_STEP = 1e-3


@dataclass(frozen=True)
class DenseCost:
    """A cost held as dense arrays, read by the solve as a CostExpansion is; not validated.

    Step t < T costs c[t] + q[t].dx + dx.Q[t].dx/2 + r[t].du + R |du|^2/2 and
    row T is the terminal cost. Shapes: Q (T+1, n, n), q (T+1, n), c (T+1,),
    r (T, 2).
    """

    Q: np.ndarray
    q: np.ndarray
    c: np.ndarray
    R: float
    r: np.ndarray

    @property
    def horizon(self) -> int:
        return self.r.shape[0]

    @property
    def state_dim(self) -> int:
        return self.Q.shape[1]

    def fill(self, out: np.ndarray) -> None:
        """Write the augmented cost [[Q, q], [q^T, 2c]] of every step into out (T+1, n+1, n+1)."""
        n = self.state_dim
        out[:, :n, :n] = self.Q
        out[:, :n, n] = out[:, n, :n] = self.q
        out[:, n, n] = 2.0 * self.c


def _fd_steps(z0: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(z0))


def fd_gradient(f, z0: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient of a batch-capable scalar function.

    f maps (n, d) -> (n,); steps are h scaled by max(1, |coordinate|).
    """
    z0 = np.asarray(z0, dtype=float).ravel()
    d = z0.size
    steps = _fd_steps(z0, h)
    probes = np.concatenate([z0 + np.diag(steps), z0 - np.diag(steps)], axis=0)
    vals = _eval_batch(f, probes)
    return (vals[:d] - vals[d:]) / (2.0 * steps)


def fd_hessian(f, z0: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Hessian, symmetrized; same batching contract."""
    z0 = np.asarray(z0, dtype=float).ravel()
    d = z0.size
    steps = _fd_steps(z0, h)
    E = np.diag(steps)

    probes = [z0[None, :]]
    probes.append(z0 + E)
    probes.append(z0 - E)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for i, j in pairs:
        probes.append((z0 + E[i] + E[j])[None, :])
        probes.append((z0 + E[i] - E[j])[None, :])
        probes.append((z0 - E[i] + E[j])[None, :])
        probes.append((z0 - E[i] - E[j])[None, :])
    vals = _eval_batch(f, np.concatenate(probes, axis=0))

    f0 = vals[0]
    fp = vals[1 : 1 + d]
    fm = vals[1 + d : 1 + 2 * d]
    H = np.zeros((d, d))
    H[np.diag_indices(d)] = (fp - 2.0 * f0 + fm) / steps**2
    off = vals[1 + 2 * d :].reshape(-1, 4)
    for (i, j), (fpp, fpm, fmp, fmm) in zip(pairs, off):
        val = (fpp - fpm - fmp + fmm) / (4.0 * steps[i] * steps[j])
        H[i, j] = val
        H[j, i] = val
    return 0.5 * (H + H.T)


def taylor_expand(costfn, x_nom, u_nom, h: float = DEFAULT_FD_STEP):
    """Quadratic fit of costfn(x, u) around a nominal point.

    costfn must accept batched inputs: x (n, 4k) and u (n, 2) -> (n,).
    """
    x_nom = np.asarray(x_nom, dtype=float).ravel()
    u_nom = np.asarray(u_nom, dtype=float).ravel()
    nx = x_nom.size
    z0 = np.concatenate([x_nom, u_nom])

    def f(z: np.ndarray) -> np.ndarray:
        return costfn(z[:, :nx], z[:, nx:])

    c = float(_eval_batch(f, z0[None, :])[0])
    l = fd_gradient(f, z0, h)
    H = fd_hessian(f, z0, h)
    return H, l, c


def expand_along(
    costfn,
    nominal: Trajectory,
    agent: int,
    h: float = DEFAULT_FD_STEP,
    control_weight: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (H, l, c) of every step of the nominal trajectory: (T, d, d), (T, d), (T,).

    With control_weight given, the control dependence is taken as exactly
    w*||u||^2 with no state coupling: only the state block is differenced,
    and the control blocks are filled in analytically.
    """
    stages = []
    for t in range(nominal.horizon):
        x_nom = nominal.states[t]
        u_nom = nominal.agent_controls(agent)[t]
        if control_weight is None:
            stages.append(taylor_expand(costfn, x_nom, u_nom, h))
        else:
            stages.append(_expand_separable(costfn, x_nom, u_nom, h, control_weight))
    H, l, c = zip(*stages)
    return np.stack(H), np.stack(l), np.array(c)


def _expand_separable(
    costfn, x_nom: np.ndarray, u_nom: np.ndarray, h: float, w: float
) -> tuple[np.ndarray, np.ndarray, float]:
    x_nom = np.asarray(x_nom, dtype=float).ravel()
    u_nom = np.asarray(u_nom, dtype=float).ravel()
    nx, nu = x_nom.size, u_nom.size

    def f_state(x: np.ndarray) -> np.ndarray:
        return costfn(x, np.broadcast_to(u_nom, (x.shape[0], nu)))

    c = float(_eval_batch(f_state, x_nom[None, :])[0])
    lx = fd_gradient(f_state, x_nom, h)
    Hxx = fd_hessian(f_state, x_nom, h)

    d = nx + nu
    H = np.zeros((d, d))
    H[:nx, :nx] = Hxx
    H[nx:, nx:] = 2.0 * w * np.eye(nu)
    l = np.concatenate([lx, 2.0 * w * u_nom])
    return H, l, c


def expand_terminal(state_costfn, x_nom, h: float = DEFAULT_FD_STEP):
    """Quadratic fit of a state-only cost at the horizon-end nominal state."""
    x_nom = np.asarray(x_nom, dtype=float).ravel()
    c = float(_eval_batch(state_costfn, x_nom[None, :])[0])
    l = fd_gradient(state_costfn, x_nom, h)
    H = fd_hessian(state_costfn, x_nom, h)
    return H, l, c


def cost_expansion(stages, terminal, state_dim: int) -> DenseCost:
    """DenseCost of stacked stage (H, l, c) arrays and a terminal (H, l, c).

    R is read off the first stage's H_uu and the H_xu blocks are dropped, so
    this fits costs with no state-control coupling and H_uu = R I.
    """
    (H, l, c), (H_T, l_T, c_T) = stages, terminal
    n = state_dim
    return DenseCost(
        Q=np.concatenate([H[:, :n, :n], np.asarray(H_T)[None]]),
        q=np.concatenate([l[:, :n], np.asarray(l_T)[None]]),
        c=np.append(c, c_T),
        R=float(H[0, n, n]),
        r=l[:, n:],
    )


def fd_expand_model_along(
    model: StageCostModel, nominal: Trajectory, h: float = DEFAULT_FD_STEP
) -> DenseCost:
    """Finite-difference counterpart of quadratic.expand_model_along."""
    stages = expand_along(
        model, nominal, model.agent, h, control_weight=model.control_weight
    )
    terminal = expand_terminal(model.state_cost, nominal.states[-1], h)
    return cost_expansion(stages, terminal, nominal.states.shape[1])
