"""Entropy-regularized linear-quadratic dynamic game solver.

A backward recursion stacks every agent's first-order optimality condition at
each timestep into one coupled linear system, yielding simultaneous affine
feedback laws (a feedback Nash point of the quadratic game). It runs on the
augmented state [dx; 1] of deviations from the nominal the costs were
expanded along, which every solve takes, and each agent's `CostExpansion`
fills one (n+1, n+1) cost per step. Each step writes into buffers allocated
once per solve: one LU of the right-hand side [B^T Z A | I] gives every
agent's [K | alpha] and the inverse that screens the condition, and one
symmetrized update every value matrix. Each policy is Gaussian around its
feedback mean, with covariance the tempered inverse of the agent's
control-space curvature of its Q-function, formed for all T*k stages after
the sweep. Where that curvature loses positive definiteness (near-straight
nominals) the covariance is repaired by the smallest uniform diagonal shift
that restores a configurable eigenvalue floor, trading modeled decision
randomness for tractability; the diagnostics record every repaired stage.

`Game` is the one place a scenario's game is built and solved: it owns the
dynamics, the constant-velocity nominal, every agent's expansion along it
(formed once, re-weighted by `set_theta`) and the outer re-expansion loop.
Synthesis and evaluation reach it through `build_policies`; the IRL loop
holds a `Game` and sets every agent's weights once per sweep. Policies are
arrays indexed [t, agent]: gains K (T, k, 2, 4k), feedforward kff (T, k, 2)
and covariances Sigma (T, k, 2, 2).

Rollouts hand the feedback law to `trajectory.rollout`, which steps every
agent of all M rollouts at once; the noise of the whole set is one
(M, T, k, 2) draw from the Philox stream of the seed, read in row order, and
is scaled by the lower-triangular covariance factors for every step before
the time loop. The feedback of a step is one stacked GEMM over fixed tiles of
FEEDBACK_TILE rows, the M rows padded with zero-noise rows from x0; the mean
rollout is a set of one zero-noise row. Rollouts are returned
as one `RolloutSet`, bit-reproducible for a given seed regardless of the
batch size: rollout m always reads the same stretch of the stream and sits
at the same place in a product of the same shape. The bits depend on the
BLAS kernel, as the solve's do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import InternalError, SolverError, ValidationError
from .features import CostParams, ProximityConfig, StageCostModel, stage_cost_models
from .quadratic import CostExpansion, LinearDynamics, expand_model_along, linearize_dynamics
from .rng import substream
from .trajectory import (
    CONTROL_DIM,
    DEFAULT_U_MAX,
    STATE_DIM,
    RolloutSet,
    ScenarioSpec,
    Trajectory,
    constant_velocity_rollout,
    rollout,
)

MAX_GAIN_CONDITION = 1e12
PINV_CUTOFF = 1e-10
FEEDBACK_TILE = 8  # rollout rows per feedback GEMM (see _rollout_batch)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the game solve.

    entropy_temp scales policy covariance (decision randomness); eps_psd is
    the eigenvalue floor enforced on covariances; max_outer_iters > 1 enables
    re-expansion of the cost around the latest mean rollout, with outer_tol
    the mean-trajectory change at which that loop stops.
    """

    eps_psd: float = 1e-6
    entropy_temp: float = 1.0
    max_outer_iters: int = 1
    outer_tol: float = 1e-6

    def __post_init__(self):
        for key, value in (("eps_psd", self.eps_psd), ("entropy_temp", self.entropy_temp)):
            if not (value > 0 and np.isfinite(value)):
                raise ValidationError(f"{key} must be positive and finite, got {value!r}")
        if self.max_outer_iters < 1:
            raise ValidationError("max_outer_iters must be >= 1")


@dataclass
class SolverDiagnostics:
    """Per-solve record of covariance repairs: (timestep, agent, shift > 0)."""

    horizon: int = 0
    k: int = 0
    events: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def conditioned_stages(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class PolicySequence:
    """Time-varying affine Gaussian feedback of all agents plus their reference path.

    Agent i at step t plays u = kff[t, i] - K[t, i] (x - nominal_states[t])
    plus zero-mean noise of covariance Sigma[t, i], where nominal_states is
    the trajectory the costs were expanded around. Shapes:
    K (T, k, 2, 4k), kff (T, k, 2), Sigma (T, k, 2, 2) symmetric,
    nominal_states (T+1, 4k). All four arrays are read-only copies.
    """

    K: np.ndarray
    kff: np.ndarray
    Sigma: np.ndarray
    nominal_states: np.ndarray
    dt: float
    diagnostics: SolverDiagnostics = field(default_factory=SolverDiagnostics)

    def __post_init__(self):
        K = np.array(self.K, dtype=float)
        kff = np.array(self.kff, dtype=float)
        Sigma = np.array(self.Sigma, dtype=float)
        nominal = np.array(self.nominal_states, dtype=float)
        if K.ndim != 4 or K.shape[0] < 1 or K.shape[1] < 1 or K.shape[2:] != (
            CONTROL_DIM, STATE_DIM * K.shape[1]
        ):
            raise ValidationError(f"K must be (T, k, 2, 4k) with T, k >= 1, got {K.shape}")
        T, k, _, n = K.shape
        if kff.shape != (T, k, CONTROL_DIM):
            raise ValidationError(f"kff must be ({T}, {k}, 2), got {kff.shape}")
        if Sigma.shape != (T, k, CONTROL_DIM, CONTROL_DIM):
            raise ValidationError(f"Sigma must be ({T}, {k}, 2, 2), got {Sigma.shape}")
        if nominal.shape != (T + 1, n):
            raise ValidationError(
                f"nominal_states must be ({T + 1}, {n}), got {nominal.shape}"
            )
        for name, arr in (("K", K), ("kff", kff), ("Sigma", Sigma)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"PolicySequence.{name} contains non-finite values")
        if np.max(np.abs(Sigma - np.swapaxes(Sigma, -1, -2))) > 1e-9:
            raise ValidationError("Sigma must be symmetric")
        for name, arr in (("K", K), ("kff", kff), ("Sigma", Sigma), ("nominal_states", nominal)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.K.shape[1]

    @property
    def horizon(self) -> int:
        return self.K.shape[0]


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
    if np.max(np.abs(M - M.T), initial=0.0) > 1e-9 * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    return float(np.linalg.eigvalsh(M)[0])


def condition_covariance(sigma_raw: np.ndarray, eps_psd: float) -> np.ndarray:
    """Minimal uniform diagonal shift making the eigenvalues >= eps_psd.

    Returns sigma_raw + s*I with s = max(0, eps_psd - lambda_min), the
    smallest such shift, topped up until the result has a Cholesky factor;
    already well-conditioned inputs pass through unchanged. Idempotent.
    """
    sigma_raw = np.asarray(sigma_raw, dtype=float)
    lam = min_eigenvalue(sigma_raw)
    shift = max(0.0, eps_psd - lam)
    if shift == 0.0 and _has_cholesky(sigma_raw):
        return sigma_raw.copy()
    eye = np.eye(sigma_raw.shape[0])
    sigma = sigma_raw + shift * eye
    # On large diagonal entries the shift rounds, which can leave the floor
    # short by a few ulps, and a floor below the eigensolver's rounding can
    # pass a matrix with no Cholesky factor; top it up with growing steps
    # until both hold.
    bump = float(np.spacing(np.max(np.abs(sigma))))
    while min_eigenvalue(sigma) < eps_psd or not _has_cholesky(sigma):
        shift += bump
        bump *= 2.0
        sigma = sigma_raw + shift * eye
    return sigma


def _has_cholesky(S: np.ndarray) -> np.ndarray:
    """Mask over the stack S (..., n, n): which matrices have a Cholesky factor."""
    try:
        np.linalg.cholesky(S)
        return np.ones(S.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        if S.ndim == 2:
            return np.zeros((), dtype=bool)
        return np.array([_has_cholesky(s) for s in S])


@np.errstate(over="ignore", invalid="ignore")
def solve_lq_game(
    dyn: LinearDynamics,
    costs: Sequence[CostExpansion],
    cfg: SolverConfig = SolverConfig(),
    *,
    nominal: Trajectory,
) -> PolicySequence:
    """Backward recursion over stacked first-order conditions, all agents at once.

    costs[i] is agent i's quadratic cost in deviations from the nominal; its
    row T seeds the value recursion at the horizon end. The returned policies
    act on deviations from the nominal trajectory.

    Steps write into buffers allocated once per call; overflow raises no numpy warning.
    """
    k, n = dyn.k, dyn.state_dim
    if len(costs) != k:
        raise ValidationError(f"need cost expansions for {k} agents, got {len(costs)}")
    T = costs[0].horizon
    if any(e.horizon != T for e in costs):
        raise ValidationError("all agents must supply the same horizon T >= 1")
    if any(e.state_dim != n for e in costs):
        raise ValidationError(f"cost expansions do not match the dynamics' state dimension {n}")
    if nominal.horizon != T or nominal.states.shape[1] != n:
        raise ValidationError("nominal trajectory does not match costs/dynamics")

    # On the augmented state [dx; 1], agent i's stage cost is
    # Qa[t, i] = [[Q, q], [q^T, 2c]] and its policy u_i = -[K | alpha] [dx; 1].
    m, n1 = CONTROL_DIM * k, n + 1
    Qa = np.empty((T + 1, k, n1, n1))
    for i, e in enumerate(costs):
        e.fill(Qa[:, i])
    r = np.stack([e.r for e in costs], axis=1)  # (T, k, 2)
    m2r = -2.0 * r
    R = np.array([e.R for e in costs])[:, None, None]
    A = np.zeros((n1, n1))
    A[:n, :n], A[n, n] = dyn.A, 1.0
    Bt = np.zeros((k, CONTROL_DIM, n1))
    Bt[..., :n] = np.swapaxes(dyn.B, 1, 2)
    B_all = Bt.reshape(m, n1).T  # (n+1, 2k): every agent's B side by side
    # where each agent's own 2x2 block of the (2k, 2k) gain system sits in its ravel
    own = (2 * m + 2) * np.arange(k)[:, None, None] + m * np.arange(2)[:, None] + np.arange(2)
    R_eye = R * np.eye(CONTROL_DIM)  # (k, 2, 2): the effort curvature of each agent
    # One right-hand side [B^T Z A | I] for every step: the identity columns
    # give S^-1 for the condition screen; the others are overwritten per step.
    rhs = np.zeros((k, CONTROL_DIM, n1 + m))
    rhs_A, rhs = rhs[..., :n1], rhs.reshape(m, n1 + m)
    rhs[:, n1:] = np.eye(m)
    gains_out = np.empty((T, m, n1))
    Huu_out = np.empty((T, k, CONTROL_DIM, CONTROL_DIM))
    # Every step writes into these buffers; each product keeps its operand
    # shapes and each sum its association, so the bits are those of fresh arrays.
    Z, P, FtZ, S = Qa[T].copy(), np.empty((k, n1, n1)), np.empty((k, n1, n1)), np.empty((m, m))
    BtZ, RG, F, Huu_T = np.empty_like(Bt), np.empty_like(Bt), np.empty_like(A), np.empty_like(R_eye)
    G = gains_out.reshape(T, k, CONTROL_DIM, n1)  # G[t, i] = [K | alpha] of agent i
    S_flat, Ft, Pt, Gt = S.reshape(-1), F.T, P.swapaxes(1, 2), G.swapaxes(2, 3)

    for t in range(T - 1, -1, -1):
        np.matmul(Bt, Z, out=BtZ)  # (k, 2, n+1)
        # Stacked stationarity system: row block i is agent i's gradient wrt
        # its own control, column block j the coupling to agent j's control.
        np.matmul(BtZ.reshape(m, n1), B_all, out=S)
        # Control-space curvature of each agent's Q-function.
        Huu_q = np.add(S_flat[own], R_eye, out=Huu_out[t])
        Huu_T[...] = Huu_q.swapaxes(1, 2)
        Huu_q += Huu_T
        Huu_q *= 0.5
        S_flat[own] = Huu_q
        # S [K | alpha] = B^T Z A, with each agent's r added to the last column
        np.matmul(BtZ, A, out=rhs_A)
        rhs_A[..., n] += r[t]
        gains_out[t] = _solve_gains(S, rhs, t)  # (2k, n+1)

        # Closed-loop value recursion for every agent; the stage cost of
        # u_i = -G_i [dx; 1] is G_i^T (R G_i - 2 r e_n^T) before symmetrization.
        np.subtract(A, np.matmul(B_all, gains_out[t], out=F), out=F)
        np.multiply(R, G[t], out=RG)
        RG[..., n] += m2r[t]
        np.matmul(Gt[t], RG, out=P)
        np.matmul(np.matmul(Ft, Z, out=FtZ), F, out=Z)
        P += Qa[t]  # Z_new = (Qa[t] + G^T RG) + F^T Z F
        P += Z
        np.multiply(np.add(P, Pt, out=Z), 0.5, out=Z)

    K_out = gains_out[..., :n].reshape(T, k, CONTROL_DIM, n)
    kff_out = nominal.controls - gains_out[..., n].reshape(T, k, CONTROL_DIM)
    # Nothing in the recursion reads the covariances, so they are formed for
    # all stages at once; repairs are logged in recursion order.
    Sigma = cfg.entropy_temp * _robust_inverse(Huu_out)
    Sigma = 0.5 * (Sigma + np.swapaxes(Sigma, -1, -2))
    shift = np.maximum(0.0, cfg.eps_psd - np.linalg.eigvalsh(Sigma)[..., 0])
    repair = (shift > 0.0) | ~_has_cholesky(Sigma)
    diag = SolverDiagnostics(horizon=T, k=k)
    for t_rev, i in np.argwhere(repair[::-1]):
        t = T - 1 - int(t_rev)
        raw = Sigma[t, i].copy()
        Sigma[t, i] = condition_covariance(raw, cfg.eps_psd)
        # a stage above the floor with no Cholesky factor logs its top-up
        diag.events.append((t, int(i), float(shift[t, i] or Sigma[t, i, 0, 0] - raw[0, 0])))

    return PolicySequence(K_out, kff_out, Sigma, nominal.states, nominal.dt, diag)


def _solve_gains(S: np.ndarray, rhs: np.ndarray, t: int) -> np.ndarray:
    """X with S X = B from one LU, where rhs is [B | I]; SolverError(t) if cond_2(S) > 1e12.

    The last m = len(S) columns of rhs must be the identity: their solution is
    S^-1. The exact (SVD) condition is computed only if the bound
    ||S||_F ||S^-1||_F exceeds MAX_GAIN_CONDITION; each Frobenius norm is the
    square root of the raveled dot product, as np.linalg.norm forms it.
    """
    m = S.shape[0]
    try:
        X = np.linalg.solve(S, rhs)
        s, x = S.ravel(order="K"), X[:, -m:].ravel(order="K")
        bound = math.sqrt(s.dot(s)) * math.sqrt(x.dot(x))
    except np.linalg.LinAlgError:
        X, bound = None, math.inf
    if not bound <= MAX_GAIN_CONDITION and np.linalg.cond(S) > MAX_GAIN_CONDITION:
        raise SolverError("coupled gain system is numerically singular", timestep=t)
    if X is None:
        raise InternalError(f"gain system at timestep {t} has a zero pivot yet cond_2 <= 1e12")
    return X[:, :-m]


def _robust_inverse(M: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices; singular ones get a cutoff pseudo-inverse."""
    ok = np.abs(np.linalg.det(M)) >= 1e-300
    # singular members are inverted as the identity, then overwritten
    out = np.linalg.inv(np.where(ok[..., None, None], M, np.eye(M.shape[-1])))
    for i in zip(*np.nonzero(~ok)):
        out[i] = np.linalg.pinv(M[i], rcond=PINV_CUTOFF)
    return out


class Game:
    """One scenario's game: dynamics, nominal, per-agent costs and the solve.

    Every agent's cost is expanded once along the constant-velocity nominal
    and re-weighted when its weights change. With cfg.max_outer_iters > 1
    each solve re-expands the costs around the latest mean rollout (clamped
    at u_max, as sampling clamps) until it moves less than cfg.outer_tol.
    """

    def __init__(
        self,
        models: Sequence[StageCostModel],
        spec: ScenarioSpec,
        cfg: SolverConfig = SolverConfig(),
        u_max: float = DEFAULT_U_MAX,
    ):
        if len(models) != spec.k:
            raise ValidationError(f"need {spec.k} cost models, got {len(models)}")
        self.models = list(models)
        self.spec = spec
        self.cfg = cfg
        self.u_max = u_max
        self.dyn = linearize_dynamics(spec.k, spec.dt)
        self.nominal = constant_velocity_rollout(spec)
        self.costs = [expand_model_along(m, self.nominal) for m in self.models]

    def set_theta(self, agent: int, theta: CostParams) -> None:
        """Replace one agent's cost weights; the next solve uses them."""
        self.models[agent] = replace(self.models[agent], theta=theta)
        self.costs[agent] = self.costs[agent].reweighted(theta.weights)

    def solve(self) -> PolicySequence:
        """Policies of the game at the current weights."""
        nominal, costs = self.nominal, self.costs
        for it in range(self.cfg.max_outer_iters):
            policies = solve_lq_game(self.dyn, costs, self.cfg, nominal=nominal)
            if it + 1 == self.cfg.max_outer_iters:
                break
            refit = mean_rollout(policies, self.spec, self.u_max)
            if float(np.max(np.abs(refit.states - nominal.states))) < self.cfg.outer_tol:
                break
            nominal = refit
            costs = [expand_model_along(m, nominal) for m in self.models]
        return policies


def solve_scenario(
    models: Sequence[StageCostModel],
    spec: ScenarioSpec,
    cfg: SolverConfig = SolverConfig(),
    u_max: float = DEFAULT_U_MAX,
) -> PolicySequence:
    """Solve the game of the given cost models once (see Game)."""
    return Game(models, spec, cfg, u_max).solve()


def _rollout_batch(
    policies: PolicySequence,
    spec: ScenarioSpec,
    noise: np.ndarray,
    u_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate M rollouts at once; noise is (M, T, k, 2) standard normals."""
    T, k = policies.horizon, policies.k
    if spec.k != k or spec.horizon != T:
        raise ValidationError("scenario does not match the policy sequence")
    n = STATE_DIM * k
    gains = np.ascontiguousarray(np.swapaxes(policies.K.reshape(T, CONTROL_DIM * k, n), 1, 2))
    # batch invariance comes from fixed row tiles, not from reduction order:
    # padded (zero-noise rows from x0) to whole tiles, rollout m always sits
    # at the same place in a GEMM of the same shape, whatever M is
    M = noise.shape[0]
    Mp = -(-M // FEEDBACK_TILE) * FEEDBACK_TILE
    # the noise term L[t, i] @ noise[m, t, i] of every step at once, over
    # the nonzero entries of the lower-triangular Cholesky factor; laid
    # out (T, Mp, k, 2) so that each step reads one contiguous block
    L = _stage_cholesky(policies)[:, None]  # (T, 1, k, 2, 2)
    z = np.swapaxes(noise, 0, 1)  # (T, M, k, 2)
    eps = np.zeros((T, Mp, k, CONTROL_DIM))
    eps[:, :M, :, 0] = z[..., 0] * L[..., 0, 0]
    eps[:, :M, :, 1] = z[..., 0] * L[..., 1, 0] + z[..., 1] * L[..., 1, 1]

    def act(t: int, states: np.ndarray) -> np.ndarray:
        dx = states - policies.nominal_states[t]  # gains[t]: (4k, 2k)
        feedback = dx.reshape(-1, FEEDBACK_TILE, n) @ gains[t]
        return policies.kff[t] - feedback.reshape(Mp, k, CONTROL_DIM) + eps[t]

    states, controls = rollout(np.tile(spec.x0.as_array(), (Mp, 1)), T, spec.dt, act, u_max)
    return states[:M], controls[:M]


def _stage_cholesky(policies: PolicySequence) -> np.ndarray:
    """Cholesky factors of every Sigma[t, i]; shape (T, k, 2, 2)."""
    try:
        return np.linalg.cholesky(policies.Sigma)
    except np.linalg.LinAlgError as exc:
        t, i = np.argwhere(~_has_cholesky(policies.Sigma))[0]
        raise InternalError(
            f"covariance at (t={t}, agent={i}) is not positive definite; "
            "it must have been conditioned at solve time"
        ) from exc


def mean_rollout(
    policies: PolicySequence, spec: ScenarioSpec, u_max: float = DEFAULT_U_MAX
) -> Trajectory:
    """Deterministic rollout under the feedback means: row 0 of a zero-noise set."""
    noise = np.zeros((1, policies.horizon, policies.k, CONTROL_DIM))
    states, controls = _rollout_batch(policies, spec, noise, u_max)
    return Trajectory(states[0], controls[0], spec.dt)


def sample_rollouts(
    policies: PolicySequence,
    spec: ScenarioSpec,
    M: int,
    seed: int,
    u_max: float = DEFAULT_U_MAX,
) -> RolloutSet:
    """Draw M stochastic rollouts; bit-deterministic for a given seed.

    The set's noise is one (M, T, k, 2) draw of standard normals from the
    Philox stream keyed by seed, filled in row order: rollout m reads normals
    m*S to (m+1)*S - 1 of that stream, S = T*k*2, so its bits do not depend
    on M.
    """
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    noise = substream(seed).standard_normal((M, policies.horizon, policies.k, CONTROL_DIM))
    states, controls = _rollout_batch(policies, spec, noise, u_max)
    return RolloutSet(states, controls, spec.dt)


def build_policies(
    thetas,
    spec: ScenarioSpec,
    solver_cfg: SolverConfig = SolverConfig(),
    proximity: ProximityConfig = ProximityConfig(),
    u_max: float = DEFAULT_U_MAX,
) -> PolicySequence:
    """Convenience wrapper: weight vectors -> solved policies for a scenario."""
    return solve_scenario(stage_cost_models(thetas, spec, proximity), spec, solver_cfg, u_max)
