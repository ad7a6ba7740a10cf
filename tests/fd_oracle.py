"""Finite-difference oracle for the closed-form quadratic expansion.

Central differences of a batch-capable cost function, with steps h scaled by
max(1, |coordinate|). Expansions are plain (H, l, c) arrays of the cost as a
quadratic c + l.z + z.H.z/2 in z = (dx, du), or in dx alone for a terminal
cost. `AgentCost` holds one agent's cost parameters and `agent_costs` makes
one per agent of a scene; `expand` hands a record to
`crowdirl.quadratic.expand_model_along` (a stack of one), and
`fd_expand_model_along` expands it the same way, but numerically, so the two
can be checked against each other; `stage_cost` is the per-step cost it
differences. `reference_expansion` is the expansion of one agent in a pass of
its own, the byte reference for every member of the stacked expansion.
`dense_feature_terms` lays the closed-form feature terms out densely, the
reference for the expansion's fixed sparse pattern, which holds each
mirrored pair of entries once and has `fill` write both. `reference_state_features`
and `reference_expected_features` are the feature half as broadcast from the
strided position columns, the crowding kernel summed over the other agents in
order by `in_order_sum`: the byte reference for `crowdirl.features`.
`DenseCost` carries hand-built or finite-difference costs of one agent into
`solve_lq_game` as a stack of one, and `dense_arrays` reads any stack's dense
Q, q and c back through its `fill`.
`double_integrator` writes the textbook blocks of the joint double
integrator by hand, the reference for the dynamics the solve reads off
`crowdirl.trajectory.propagate_joint`; `reference_step` is that step as one
expression over the strided columns, its byte reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crowdirl.errors import CostRangeError
from crowdirl.features import _check_terms, agent_sum, state_terms
from crowdirl.quadratic import CostExpansion, _eval_batch, cost_pattern, expand_model_along
from crowdirl.trajectory import DEFAULT_SIGMA, STATE_DIM, RolloutSet, ScenarioSpec

DEFAULT_FD_STEP = 1e-3


@dataclass(frozen=True)
class AgentCost:
    """One agent's cost theta . phi: weights (3,) of any sign, agent index, goal (2,), agent count, horizon, kernel width."""

    weights: np.ndarray
    agent: int
    goal: np.ndarray
    k: int
    horizon: int
    sigma: float = DEFAULT_SIGMA


def agent_costs(thetas, spec: ScenarioSpec) -> list[AgentCost]:
    """One AgentCost per agent of a scene with goals, at its kernel width; thetas is one CostParams per agent."""
    return [AgentCost(thetas[i].weights, i, spec.goals[i], spec.k, spec.horizon, spec.sigma) for i in range(spec.k)]


def expand(model: AgentCost, nominal: RolloutSet) -> CostExpansion:
    """crowdirl's closed-form expansion of the record's cost along nominal, a stack of one."""
    return expand_model_along(nominal, [model.agent], model.goal[None], model.sigma, model.weights[None])


@np.errstate(over="ignore", invalid="ignore")
def reference_expansion(nominal: RolloutSet, agent: int, goal, sigma: float, weights):
    """One agent's expansion in a pass of its own: rows, cols, basis (2, T+1, P), entries (T+1, P), R and r (T, 2).

    The per-agent form that `expand_model_along` stacks: the same terms,
    written into `cost_pattern(k, agent)` (each mirrored pair once), checked
    and weighted as it checks and weights each member.
    """
    T, k, states = nominal.horizon, nominal.k, nominal.states[0]
    idx, goals, sigma = _check_terms(k, [agent], [goal], sigma)
    i, g, s2 = int(idx[0]), goals[0], sigma * sigma
    goal_value, kernel = state_terms(states, idx, goals, sigma)
    crowd_value = agent_sum(kernel)[0] - 1.0
    e = kernel[:, 0].T.copy()  # (T+1, k)
    e[:, i] = 0.0

    pos = states.reshape(T + 1, k, STATE_DIM)[..., :2]
    r = pos[:, i : i + 1] - pos
    grad = (2.0 / s2) * e[..., None] * r
    M = e[..., None, None] * (
        (4.0 / (s2 * s2)) * (r[..., :, None] * r[..., None, :]) - (2.0 / s2) * np.eye(2)
    )  # (T+1, k, 2, 2)

    rows, cols = cost_pattern(k, i)
    basis = np.zeros((2, T + 1, rows.size))
    goal, crowd = basis
    m = 4 * (k - 1)
    goal[:, 0:4:3] = 2.0
    crowd[:, :4] = M.sum(axis=1).reshape(T + 1, 4)
    M_j = M[:, np.arange(k) != i].reshape(T + 1, m)
    np.negative(M_j, out=crowd[:, 4 : 4 + m])
    crowd[:, 4 + m : 4 + 2 * m] = M_j
    l = basis[..., 4 + 2 * m : -1].reshape(2, T + 1, k, 2)
    l[0, :, i] = 2.0 * (pos[:, i] - g)
    l[1] = grad
    l[1, :, i] = -grad.sum(axis=1)
    goal[:, -1] = 2.0 * goal_value[0]
    crowd[:, -1] = 2.0 * crowd_value
    if not np.all(np.isfinite(basis)):
        raise CostRangeError("cost function returned non-finite values along the nominal", "states")

    controls = nominal.controls[0, :, i]
    w_goal, w_crowd, w_effort = (float(w) for w in weights)
    entries = (w_goal * basis[0] + w_crowd * basis[1]) / (T + 1)
    R = 2.0 * (w_effort / T)
    entries[:-1, -1] += R * np.sum(controls * controls, axis=-1)
    return rows, cols, basis, entries, R, R * controls


@dataclass(frozen=True)
class DenseCost:
    """One agent's cost held as dense arrays, a stack of one to the solve as a CostExpansion is; not validated.

    Step t < T costs c[t] + q[t].dx + dx.Q[t].dx/2 + r[t].du + R |du|^2/2 and
    row T is the terminal cost. Shapes: Q (T+1, n, n), q (T+1, n), c (T+1,);
    R and r (T, 2) are held as the stack's R (1,) and r (T, 1, 2).
    """

    Q: np.ndarray
    q: np.ndarray
    c: np.ndarray
    R: float
    r: np.ndarray
    agents = np.zeros(1, dtype=int)

    def __post_init__(self):
        object.__setattr__(self, "R", np.reshape(self.R, 1))
        object.__setattr__(self, "r", np.reshape(self.r, (-1, 1, 2)))

    def __len__(self) -> int:
        return 1

    @property
    def horizon(self) -> int:
        return self.r.shape[0]

    @property
    def state_dim(self) -> int:
        return self.Q.shape[1]

    def fill(self, out: np.ndarray) -> None:
        """Write the augmented cost [[Q, q], [q^T, 2c]] of every step into out (T+1, 1, n+1, n+1)."""
        n, one = self.state_dim, out[:, 0]
        one[:, :n, :n] = self.Q
        one[:, :n, n] = one[:, n, :n] = self.q
        one[:, n, n] = 2.0 * self.c


def dense_arrays(cost) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, q, c) (T+1, a, ...) of a CostExpansion or DenseCost stack, read off the augmented costs its fill writes."""
    n = cost.state_dim
    out = np.empty((cost.horizon + 1, len(cost), n + 1, n + 1))
    cost.fill(out)
    return out[..., :n, :n], out[..., :n, n], out[..., n, n] / 2.0


def double_integrator(k: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Textbook discrete double integrator of k agents: x' = A x + sum_i B[i] u_i, A (4k, 4k), B (k, 4k, 2)."""
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
    B = np.zeros((k, n, 2))
    for i in range(k):
        sl = slice(STATE_DIM * i, STATE_DIM * (i + 1))
        A[sl, sl] = a_blk
        B[i, sl] = b_blk
    return A, B


def reference_step(states: np.ndarray, controls: np.ndarray, dt: float) -> np.ndarray:
    """One step (..., 4k) from the strided position and velocity columns, interleaved again."""
    s = states.reshape(states.shape[:-1] + (-1, STATE_DIM))
    p, v = s[..., :2], s[..., 2:]
    return np.concatenate([p + v * dt + 0.5 * controls * dt * dt, v + controls * dt],
                          axis=-1).reshape(states.shape)


def in_order_sum(x: np.ndarray) -> np.ndarray:
    """Sum of x over its last axis, the terms added one after another."""
    total = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


def reference_state_features(states: np.ndarray, agents, goals, sigma: float):
    """Goal distance and crowding (..., a): the kernel broadcast from strided position columns."""
    s = np.asarray(states, dtype=float)
    s = s.reshape(s.shape[:-1] + (-1, STATE_DIM))
    px, py = s[..., 0], s[..., 1]
    ox, oy = px[..., agents], py[..., agents]
    goal_dist = (ox - goals[:, 0]) ** 2 + (oy - goals[:, 1]) ** 2
    dx, dy = px[..., None, :] - ox[..., None], py[..., None, :] - oy[..., None]
    return goal_dist, in_order_sum(np.exp(-(dx * dx + dy * dy) / (sigma * sigma))) - 1.0


def reference_expected_features(trajs: RolloutSet, agents, goals, sigma: float) -> np.ndarray:
    """Mean features (a, 3) of a whole set in one block; effort as np.sum of squared controls."""
    goal_dist, proximity = reference_state_features(trajs.states, agents, goals, sigma)
    effort = np.sum(trajs.controls[:, :, agents] ** 2, axis=-1)
    per_traj = np.stack([np.mean(np.swapaxes(f, 1, 2).copy(), axis=-1)
                         for f in (goal_dist, proximity, effort)], axis=-1)
    return np.sum(per_traj, axis=0) / len(trajs)


def control_weight(model: AgentCost) -> float:
    """Coefficient w of the model's per-step effort term w * ||u||^2."""
    return float(model.weights[2]) / model.horizon


def state_cost(model: AgentCost, x: np.ndarray) -> np.ndarray:
    """The model's per-step state term; x has shape (..., 4k), result (...,)."""
    g, p = reference_state_features(x, [model.agent], model.goal[None], model.sigma)
    w = model.weights
    return (w[0] * g[..., 0] + w[1] * p[..., 0]) / (model.horizon + 1)


def stage_cost(model: AgentCost):
    """The model's per-step cost as a function (x (..., 4k), u (..., 2)) -> (...,)."""

    def cost(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return state_cost(model, x) + control_weight(model) * np.sum(u * u, axis=-1)

    return cost


def dense_feature_terms(model: AgentCost, nominal: RolloutSet) -> np.ndarray:
    """The goal (0) and crowding (1) features' augmented costs [[H, l], [l^T, 2c]], (2, T+1, n+1, n+1).

    Laid out densely by the same expressions, in the same order, as
    `expand_model_along` forms them; its CostExpansion holds these terms at
    the member's entries, and every other entry here is 0.
    """
    T, k, i = nominal.horizon, model.k, model.agent
    n = STATE_DIM * k
    s2 = model.sigma * model.sigma
    goal_value, crowd_value = reference_state_features(
        nominal.states[0], [i], model.goal[None], model.sigma)
    pos = nominal.states[0].reshape(T + 1, k, STATE_DIM)[..., :2]
    r = pos[:, i : i + 1] - pos
    e = np.exp(-np.sum(r * r, axis=-1) / s2)
    e[:, i] = 0.0
    grad = (2.0 / s2) * e[..., None] * r
    M = e[..., None, None] * (
        (4.0 / (s2 * s2)) * (r[..., :, None] * r[..., None, :]) - (2.0 / s2) * np.eye(2)
    )
    aug = np.zeros((2, T + 1, n + 1, n + 1))
    H = aug[:, :, :n, :n].reshape(2, T + 1, k, STATE_DIM, k, STATE_DIM)
    l = aug[:, :, n, :n].reshape(2, T + 1, k, STATE_DIM)
    H[0, :, i, :2, i, :2] = 2.0 * np.eye(2)
    crowd, agents = H[1], np.arange(k)
    crowd[:, i, :2, :, :2] = -M.transpose(0, 2, 1, 3)
    crowd[:, :, :2, i, :2] = -M
    crowd[:, agents, :2, agents, :2] = M.transpose(1, 0, 2, 3)
    crowd[:, i, :2, i, :2] = M.sum(axis=1)
    l[0, :, i, :2] = 2.0 * (pos[:, i] - model.goal)
    l[1, :, :, :2] = grad
    l[1, :, i, :2] = -grad.sum(axis=1)
    aug[:, :, :n, n] = aug[:, :, n, :n]
    aug[:, :, n, n] = 2.0 * np.stack([goal_value[:, 0], crowd_value[:, 0]])
    return aug


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
    nominal: RolloutSet,
    agent: int,
    h: float = DEFAULT_FD_STEP,
    control_weight: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (H, l, c) of every step of the one-row nominal set: (T, d, d), (T, d), (T,).

    With control_weight given, the control dependence is taken as exactly
    w*||u||^2 with no state coupling: only the state block is differenced,
    and the control blocks are filled in analytically.
    """
    stages = []
    for t in range(nominal.horizon):
        x_nom = nominal.states[0, t]
        u_nom = nominal.controls[0, t, agent]
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
    model: AgentCost, nominal: RolloutSet, h: float = DEFAULT_FD_STEP
) -> DenseCost:
    """Finite-difference counterpart of quadratic.expand_model_along."""
    stages = expand_along(
        stage_cost(model), nominal, model.agent, h, control_weight=control_weight(model)
    )
    terminal = expand_terminal(lambda x: state_cost(model, x), nominal.states[0, -1], h)
    return cost_expansion(stages, terminal, nominal.states.shape[2])
