"""Entropy-regularized linear-quadratic dynamic game solver.

A backward recursion stacks every agent's first-order optimality condition at
each timestep into one coupled linear system, yielding simultaneous affine
feedback laws (a feedback Nash point of the quadratic game). It runs on the
augmented state [dx; 1] of deviations from the nominal the costs were
expanded along, which every solve takes, with A and B read off the one
definition of the step, the exactly linear `trajectory.propagate_joint`; one
`CostExpansion`, the stack of every agent's cost, fills the (n+1, n+1) cost of
every agent and step in one scatter. Each step writes into buffers allocated
once per solve, each ufunc's out passed positionally (a keyword out costs
numpy a keyword parse per call): one LU of [B^T Z A] gives every agent's
[K | alpha], and one symmetrized update every value matrix. The steps' gain
systems are kept, and after the sweep one batched inverse screens their
condition. Each policy is Gaussian around its feedback mean, its covariance
the tempered inverse of the agent's control-space curvature of its
Q-function, formed for all T*k stages after the sweep. Where that curvature
loses positive definiteness (near-straight nominals) the covariance is
repaired by the smallest uniform diagonal shift that restores a configurable
eigenvalue floor, trading modeled decision randomness for tractability; the
diagnostics record each repair. Closed-form 2x2 screens send only the stages
they cannot clear to LAPACK's determinant and to the repair.

`Game` is the one place a scenario's game is built and solved: it owns the
constant-velocity nominal, the stack of all agents' expansions along the
nominal at the kernel width `spec.sigma` (formed in one pass, re-weighted all
at once by `set_thetas`; the stack holds the one copy of every agent's
weights) and the outer re-expansion loop. Synthesis and evaluation reach it through
`build_policies`; the IRL loop holds a `Game` and sets every agent's weights
with one `set_thetas` per sweep. Policies are
arrays indexed [t, agent]: gains K (T, k, 2, 4k), feedforward kff (T, k, 2)
and covariances Sigma (T, k, 2, 2).

Rollouts hand the feedback law to `trajectory.rollout`, which clamps every
control at the scene's `spec.u_max` and steps every agent of all M rollouts
at once; the noise of the whole set is one
(M, T, k, 2) draw from the Philox stream of the seed, read in row order, and
is scaled by the lower-triangular covariance factors for every step before
the time loop. `sample_rollouts` fills that draw inline, or takes it already
started by `rng.start_normals` (the training loop starts each sweep's draw,
on a helper thread when it is large, before it solves the game). The
feedback of a step is one stacked GEMM over fixed tiles of FEEDBACK_TILE
rows, the M rows padded with zero-noise rows from x0; the mean rollout is a
set of one zero-noise row. Rollouts are returned
as one `RolloutSet`, bit-reproducible for a given seed regardless of the
batch size: rollout m always reads the same stretch of the stream and sits
at the same place in a product of the same shape. The bits depend on the
BLAS kernel, as the solve's do.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InternalError, SolverError, ValidationError
from .features import CostParams
from .quadratic import CostExpansion, expand_model_along
from .rng import PendingNormals, check_key, normals
from .trajectory import (
    CONTROL_DIM,
    STATE_DIM,
    RolloutSet,
    ScenarioSpec,
    check_count,
    check_real,
    constant_velocity_rollout,
    propagate_joint,
    rollout,
)

MAX_GAIN_CONDITION = 1e12
PINV_CUTOFF = 1e-10
DET_CUTOFF = 1e-300  # |det| below which `_robust_inverse` takes the pseudo-inverse
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
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
        for key in ("eps_psd", "entropy_temp"):
            message = key + " must be positive and finite, got {!r}"
            object.__setattr__(self, key, check_real(getattr(self, key), message))
        check_count("max_outer_iters", self.max_outer_iters)
        object.__setattr__(self, "outer_tol", check_real(
            self.outer_tol, "outer_tol must be nonnegative and finite, got {!r}", positive=False))


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
    nominal_states (T+1, 4k). All four arrays are read-only copies; L, set here and not an
    argument, is the read-only Cholesky factor of each Sigma[t, i] that every rollout reads.
    A solve's policies hold the solve's own fresh arrays and factor L instead (see `_of_solve`).
    """

    K: np.ndarray
    kff: np.ndarray
    Sigma: np.ndarray
    nominal_states: np.ndarray
    diagnostics: SolverDiagnostics = field(default_factory=SolverDiagnostics)
    L: np.ndarray = field(init=False, repr=False)

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
        _refuse_non_finite(K=K, kff=kff, Sigma=Sigma)
        if not _symmetric(Sigma):
            raise ValidationError("Sigma must be symmetric")
        try:
            L = np.linalg.cholesky(Sigma)
        except np.linalg.LinAlgError:
            t, i = np.argwhere(~_has_cholesky(Sigma))[0]
            raise ValidationError(f"Sigma at (t={t}, agent={i}) has no Cholesky factor; "
                                  "repair it with condition_covariance") from None
        self._hold(K, kff, Sigma, nominal, L)

    @classmethod
    def _of_solve(cls, K, kff, Sigma, nominal_states, diagnostics, L) -> "PolicySequence":
        """The policies of a solve, holding its fresh arrays as they are: no copy, no second factor.

        The solve has made the shapes, the symmetric, repaired Sigma and its
        factor L; a non-finite K or kff, which overflowing weights give, is still refused.
        """
        _refuse_non_finite(K=K, kff=kff)
        self = object.__new__(cls)
        object.__setattr__(self, "diagnostics", diagnostics)
        self._hold(K, kff, Sigma, nominal_states, L)
        return self

    def _hold(self, K, kff, Sigma, nominal_states, L) -> None:
        """Hold the five arrays, read-only."""
        for name, arr in zip(("K", "kff", "Sigma", "nominal_states", "L"), (K, kff, Sigma, nominal_states, L)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.K.shape[1]

    @property
    def horizon(self) -> int:
        return self.K.shape[0]


def _refuse_non_finite(**arrays: np.ndarray) -> None:
    """ValidationError naming the first of the policy arrays given that holds a non-finite value."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"PolicySequence.{name} contains non-finite values")


def _symmetric(M: np.ndarray) -> bool:
    """Whether every finite matrix of a stack (..., n, n) is symmetric within 1e-9 * max(1, its largest |entry|)."""
    MT = np.swapaxes(M, -1, -2)
    if np.array_equal(M, MT):  # the tolerance is only needed where symmetry is not exact
        return True
    scale = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1), keepdims=True, initial=0.0))
    return not np.any(np.abs(M - MT) > 1e-9 * scale)


def min_eigenvalue(M: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of each symmetric matrix of a stack (..., n, n); a float for one matrix.

    A member with a non-finite entry is refused by its index in the stack.
    """
    M = np.asarray(M, dtype=float)
    finite = np.isfinite(M).all(axis=(-2, -1))
    if not finite.all():
        where = f" {np.argwhere(~finite)[0].tolist()} of the stack" if M.ndim > 2 else ""
        raise ValidationError(f"matrix{where} has a non-finite entry")
    if not _symmetric(M):
        raise ValidationError("matrix is not symmetric within tolerance")
    lam = np.linalg.eigvalsh(M)[..., 0]
    return float(lam) if M.ndim == 2 else lam


def condition_covariance(sigma_raw: np.ndarray, eps_psd: float) -> np.ndarray:
    """Minimal uniform diagonal shift making the eigenvalues >= eps_psd, member by member.

    sigma_raw is one matrix or a stack (..., n, n). Each member S becomes
    S + s*I with s = max(0, eps_psd - lambda_min(S)), the smallest such
    shift, topped up until the result has a Cholesky factor; members already
    above the floor with a factor pass through bit for bit. Idempotent. A
    member with a non-finite entry is refused by its index in the stack.
    """
    return _repair(sigma_raw, eps_psd)[0]


def _repair(sigma_raw: np.ndarray, eps_psd: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """condition_covariance, plus which members it changed and the shift each logs.

    That is max(0, eps_psd - lambda_min) of the raw member, or its top-up where that is 0.
    """
    sigma_raw = np.asarray(sigma_raw, dtype=float)
    shift = np.maximum(0.0, eps_psd - np.reshape(min_eigenvalue(sigma_raw), -1))
    raw = sigma_raw.reshape(-1, *sigma_raw.shape[-2:])
    short = (shift > 0.0) | ~_has_cholesky(raw)
    if not short.any():  # no member needs a shift or a top-up
        unshifted = np.zeros(sigma_raw.shape[:-2])
        return sigma_raw.copy(), unshifted.astype(bool), unshifted
    repaired, s, sigma, eye = short.copy(), shift.copy(), raw.copy(), np.eye(raw.shape[-1])
    sigma[short] = raw[short] + s[short, None, None] * eye
    # On large diagonal entries the shift rounds, which can leave the floor
    # short by a few ulps, and a floor below the eigensolver's rounding can
    # pass a matrix with no Cholesky factor; top each such member up with
    # growing steps until both hold.
    bump = np.spacing(np.max(np.abs(sigma), axis=(1, 2)))
    while short.any():
        short[short] = (min_eigenvalue(sigma[short]) < eps_psd) | ~_has_cholesky(sigma[short])
        s[short] += bump[short]
        bump[short] *= 2.0
        sigma[short] = raw[short] + s[short, None, None] * eye
    logged = np.where(shift > 0.0, shift, sigma[:, 0, 0] - raw[:, 0, 0]).reshape(sigma_raw.shape[:-2])
    return sigma.reshape(sigma_raw.shape), repaired.reshape(logged.shape), logged


def _has_cholesky(S: np.ndarray) -> np.ndarray:
    """Mask over the stack S (..., n, n): which matrices have a Cholesky factor."""
    try:
        np.linalg.cholesky(S)
        return np.ones(S.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        if S.ndim == 2:
            return np.zeros((), dtype=bool)
        return np.array([_has_cholesky(s) for s in S])


@lru_cache(maxsize=None)
def _augmented_dynamics(k: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only A (4k+1, 4k+1) and Bt (k, 2, 4k+1) of k agents' step on [x; 1], read off `propagate_joint`.

    The step is linear: column j of A is its image of unit state j, Bt[i, c] that of agent i's unit control c.
    """
    n, m = STATE_DIM * k, CONTROL_DIM * k
    A, Bt = np.eye(n + 1), np.zeros((k, CONTROL_DIM, n + 1))
    A[:n, :n] = propagate_joint(np.eye(n), np.zeros((n, k, CONTROL_DIM)), dt).T
    Bt.reshape(m, n + 1)[:, :n] = propagate_joint(np.zeros((m, n)), np.eye(m).reshape(m, k, CONTROL_DIM), dt)
    A.setflags(write=False)
    Bt.setflags(write=False)
    return A, Bt


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_lq_game(
    costs: CostExpansion,
    cfg: SolverConfig = SolverConfig(),
    *,
    nominal: RolloutSet,
) -> PolicySequence:
    """Backward recursion over stacked first-order conditions, all agents at once.

    costs is one stack whose member i is agent i's quadratic cost in
    deviations from the nominal, for agents 0..k-1 in order; its row T seeds
    the value recursion at the horizon end. The nominal, a one-row set, fixes
    k and dt, and so the dynamics; the returned policies act on deviations from it.

    Steps write into buffers allocated once per call; overflow raises no numpy
    warning. `_check_gains` screens every step's gain system after the sweep.
    """
    if len(nominal) != 1:
        raise ValidationError(f"the nominal must be one row, got {len(nominal)} rows")
    k, n = nominal.k, STATE_DIM * nominal.k
    if len(costs) != k:
        raise ValidationError(f"need cost expansions for {k} agents, got {len(costs)}")
    if not np.array_equal(costs.agents, np.arange(k)):
        raise ValidationError(f"cost expansions must be of agents 0..{k - 1} in order, got {costs.agents.tolist()}")
    if costs.state_dim != n:
        raise ValidationError(f"cost expansions do not match the nominal's state dimension {n}")
    T = costs.horizon
    if nominal.horizon != T:
        raise ValidationError(f"nominal trajectory has horizon {nominal.horizon}, the costs {T}")

    # On the augmented state [dx; 1], agent i's stage cost is
    # Qa[t, i] = [[Q, q], [q^T, 2c]] and its policy u_i = -[K | alpha] [dx; 1].
    m, n1 = CONTROL_DIM * k, n + 1
    Qa = np.empty((T + 1, k, n1, n1))
    costs.fill(Qa)
    r = costs.r  # (T, k, 2)
    m2r = -2.0 * r
    R = costs.R[:, None, None]
    A, Bt = _augmented_dynamics(k, nominal.dt)
    B_all = Bt.reshape(m, n1).T  # (n+1, 2k): every agent's B side by side
    # where each agent's own 2x2 block of the (2k, 2k) gain system sits in its ravel
    own = (2 * m + 2) * np.arange(k)[:, None, None] + m * np.arange(2)[:, None] + np.arange(2)
    R_eye = R * np.eye(CONTROL_DIM)  # (k, 2, 2): the effort curvature of each agent
    gains_out = np.empty((T, m, n1))
    Huu_out = np.empty((T, k, CONTROL_DIM, CONTROL_DIM))
    S_out = np.empty((T, m, m))  # every step's gain system, screened after the sweep
    # Every step writes into these buffers, each passed as the ufunc's
    # positional out; each product keeps its operand shapes and each sum its
    # association, so the bits are those of fresh arrays.
    Z, P, FtZ = Qa[T].copy(), np.empty((k, n1, n1)), np.empty((k, n1, n1))
    BtZ, RG, F, Huu_2 = np.empty_like(Bt), np.empty_like(Bt), np.empty_like(A), np.empty_like(R_eye)
    rhs = np.empty_like(Bt)  # B^T Z A, with each agent's r added to the last column
    G = gains_out.reshape(T, k, CONTROL_DIM, n1)  # G[t, i] = [K | alpha] of agent i
    S_flat, Ft, Pt, Gt = S_out.reshape(T, -1), F.T, P.swapaxes(1, 2), G.swapaxes(2, 3)
    BtZ_m, rhs_m, rhs_r, RG_r = BtZ.reshape(m, n1), rhs.reshape(m, n1), rhs[..., n], RG[..., n]

    for t in range(T - 1, -1, -1):
        S, S_t = S_out[t], S_flat[t]  # views: a 1-d fancy index is a fifth of a 2-d one
        np.matmul(Bt, Z, BtZ)  # (k, 2, n+1)
        # Stacked stationarity system: row block i is agent i's gradient wrt
        # its own control, column block j the coupling to agent j's control.
        np.matmul(BtZ_m, B_all, S)
        # Control-space curvature of each agent's Q-function, symmetrized.
        Huu_q = np.add(S_t[own], R_eye, Huu_out[t])
        np.add(Huu_q, Huu_q.swapaxes(1, 2), Huu_2)
        np.multiply(Huu_2, 0.5, Huu_q)
        S_t[own] = Huu_q
        # S [K | alpha] = B^T Z A + r e_n^T, one LU by the LAPACK gufunc behind
        # np.linalg.solve (half its time at k = 3 is the wrapper); a singular
        # S leaves NaN, here and in every step below it.
        np.matmul(BtZ, A, rhs)
        rhs_r += r[t]
        _umath_linalg.solve(S, rhs_m, gains_out[t], signature="dd->d")  # (2k, n+1)

        # Closed-loop value recursion for every agent; the stage cost of
        # u_i = -G_i [dx; 1] is G_i^T (R G_i - 2 r e_n^T) before symmetrization.
        np.matmul(B_all, gains_out[t], F)
        np.subtract(A, F, F)
        np.multiply(R, G[t], RG)
        RG_r += m2r[t]
        np.matmul(Gt[t], RG, P)
        np.matmul(np.matmul(Ft, Z, FtZ), F, Z)
        P += Qa[t]  # Z_new = (Qa[t] + G^T RG) + F^T Z F
        P += Z
        np.multiply(np.add(P, Pt, Z), 0.5, Z)

    _check_gains(S_out)
    K_out = gains_out[..., :n].reshape(T, k, CONTROL_DIM, n).copy()
    kff_out = nominal.controls[0] - gains_out[..., n].reshape(T, k, CONTROL_DIM)
    return _policies(K_out, kff_out, Huu_out, cfg, nominal.states[0])


def _policies(K: np.ndarray, kff: np.ndarray, Huu: np.ndarray, cfg: SolverConfig,
              nominal_states: np.ndarray) -> PolicySequence:
    """A solve's policies, each covariance the tempered inverse of its stage's curvature Huu (T, k, 2, 2).

    Nothing in the recursion reads the covariances, so all stages are formed
    at once: `_robust_inverse`, `_repair` of the members that fail the floor
    screen (logged in recursion order) and one Cholesky factor, all held uncopied.
    """
    T, k = Huu.shape[:2]
    Sigma = cfg.entropy_temp * _robust_inverse(Huu)
    Sigma = 0.5 * (Sigma + np.swapaxes(Sigma, -1, -2))
    short, diag = ~_floor_screen(Sigma, cfg.eps_psd), SolverDiagnostics(horizon=T, k=k)  # non-finite is short
    if short.any():
        finite = np.isfinite(Sigma).all(axis=(-2, -1))
        if not finite.all():
            t, i = np.argwhere(~finite)[0]
            raise ValidationError(f"entropy_temp {cfg.entropy_temp!r} gives a non-finite policy "
                                  f"covariance at (t={t}, agent={i})")
        repaired, shift = np.zeros_like(short), np.zeros(short.shape)
        Sigma[short], repaired[short], shift[short] = _repair(Sigma[short], cfg.eps_psd)
        diag.events = [(T - 1 - t, i, float(shift[T - 1 - t, i]))  # in recursion order
                       for t, i in np.argwhere(repaired[::-1]).tolist()]
    return PolicySequence._of_solve(K, kff, Sigma, nominal_states, diag, np.linalg.cholesky(Sigma))


def _inverse_screen(M: np.ndarray) -> np.ndarray:
    """Mask over the 2x2 members of M (..., 2, 2): which clear `_robust_inverse`'s cutoff with room.

    Each closed-form determinant a*d - b*c must be at least twice the cutoff
    and 2**-20 of |a*d|: past that bound the cancellation is mild, and it and
    LAPACK's LU determinant are within a relative 1e-9 of the exact value,
    so the member takes the plain inverse. A non-finite member fails.
    """
    ad = M[..., 0, 0] * M[..., 1, 1]
    det = ad - M[..., 0, 1] * M[..., 1, 0]
    return det - np.maximum(2.0**-20 * np.abs(ad), 2.0 * DET_CUTOFF) >= 0.0


def _floor_screen(S: np.ndarray, eps_psd: float) -> np.ndarray:
    """Mask over the symmetric 2x2 members of S (..., 2, 2): which clear the floor with room (no shift, a factor).

    The closed-form smallest eigenvalue s - hypot((a-c)/2, b), s = (a+c)/2,
    formed from halves so that nothing overflows, must clear eps_psd by
    5e-13 s plus the smallest normal float. Where it is positive,
    |a| + |b| + |c| <= 5 s, so the room is at least 1e-13 (|a| + |b| + |c|),
    some 450 ulps of the entries: more than the rounding of this formula,
    of `eigvalsh` and of the factor's pivot c - b^2/a. A non-finite member fails.
    """
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    ha, hc = 0.5 * a, 0.5 * c
    s = ha + hc
    lam = s - np.hypot(ha - hc, b)
    return lam - 5e-13 * s >= eps_psd + _TINY


def _check_gains(S: np.ndarray) -> None:
    """SolverError(t) at the first t from T-1 down whose gain system S[t] (T, m, m) has cond_2 > 1e12.

    Steps below a singular one are NaN. One batched inverse (the gufunc behind np.linalg.inv; a singular
    member gives NaN) screens all: cond_2(S) <= ||S||_F ||S^-1||_F, taken only where that exceeds 1e12.
    Where cond_2 passes, the inverse must be finite.
    """
    S_inv = _umath_linalg.inv(S, signature="d->d")
    bound = np.sqrt(np.einsum("tij,tij->t", S, S)) * np.sqrt(np.einsum("tij,tij->t", S_inv, S_inv))
    for t in np.flatnonzero(~(bound <= MAX_GAIN_CONDITION))[::-1]:
        if np.linalg.cond(S[t]) > MAX_GAIN_CONDITION:
            raise SolverError("coupled gain system is numerically singular", timestep=int(t))
        if not np.all(np.isfinite(S_inv[t])):
            raise InternalError(f"gain system at timestep {t} has no finite inverse yet cond_2 <= 1e12")


def _robust_inverse(M: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 matrices; singular ones get a cutoff pseudo-inverse.

    LAPACK's determinant decides only the members `_inverse_screen` cannot clear.
    """
    ok = _inverse_screen(M)
    ok[~ok] = np.abs(np.linalg.det(M[~ok])) >= DET_CUTOFF
    # singular members are inverted as the identity, then overwritten
    out = np.linalg.inv(np.where(ok[..., None, None], M, np.eye(M.shape[-1])))
    for i in zip(*np.nonzero(~ok)):
        out[i] = np.linalg.pinv(M[i], rcond=PINV_CUTOFF)
    return out


class Game:
    """One scenario's game: nominal, the stack of every agent's cost and the solve.

    Every agent's cost is expanded in one pass along the constant-velocity
    nominal at the kernel width spec.sigma, and all are re-weighted at once
    by `set_thetas`; the weights live only in that stack (`costs.weights`).
    With cfg.max_outer_iters > 1 each solve re-expands the costs at them
    around the latest mean rollout until it moves less than cfg.outer_tol;
    that refit is clamped at spec.u_max, the bound of every rollout.
    """

    def __init__(self, thetas: Sequence[CostParams], spec: ScenarioSpec, cfg: SolverConfig = SolverConfig()):
        if spec.goals is None:
            raise ValidationError("scenario has no goals; infer them before building costs")
        self.spec = spec
        self.cfg = cfg
        self.nominal = constant_velocity_rollout(spec)
        self.costs = self._expand(self.nominal, self._weights(thetas))

    def _weights(self, thetas: Sequence[CostParams]) -> np.ndarray:
        """The (k, 3) weights of one CostParams per agent."""
        if len(thetas) != self.spec.k:
            raise ValidationError(f"need {self.spec.k} weight vectors, got {len(thetas)}")
        if not all(isinstance(t, CostParams) for t in thetas):
            raise ValidationError("weight vectors must be CostParams")
        return np.array([t.weights for t in thetas])

    def _expand(self, nominal: RolloutSet, weights: np.ndarray) -> CostExpansion:
        """Every agent's cost at weights (k, 3), expanded along nominal."""
        return expand_model_along(nominal, range(self.spec.k), self.spec.goals, self.spec.sigma, weights)

    def set_thetas(self, thetas: Sequence[CostParams]) -> None:
        """Replace every agent's cost weights, one CostParams per agent; the next solve uses them."""
        self.costs = self.costs.reweighted(self._weights(thetas))

    def solve(self) -> PolicySequence:
        """Policies of the game at the current weights."""
        nominal, costs = self.nominal, self.costs
        for it in range(self.cfg.max_outer_iters):
            policies = solve_lq_game(costs, self.cfg, nominal=nominal)
            if it + 1 == self.cfg.max_outer_iters:
                break
            refit = mean_rollout(policies, self.spec)
            if float(np.max(np.abs(refit.states - nominal.states))) < self.cfg.outer_tol:
                break
            nominal = refit
            costs = self._expand(nominal, costs.weights)
        return policies


def solve_scenario(thetas: Sequence[CostParams], spec: ScenarioSpec,
                   cfg: SolverConfig = SolverConfig()) -> PolicySequence:
    """Solve the game at the given weight vectors once (see Game)."""
    return Game(thetas, spec, cfg).solve()


def _rollout_batch(
    policies: PolicySequence, spec: ScenarioSpec, noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate M rollouts at once, clamped at spec.u_max; noise is (M, T, k, 2) standard normals.

    Each step's dx, tiled GEMM and control (kff - feedback) + eps go into buffers made once per set.
    """
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
    L = policies.L[:, None]  # (T, 1, k, 2, 2)
    z = np.swapaxes(noise, 0, 1)  # (T, M, k, 2)
    eps = np.zeros((T, Mp, k, CONTROL_DIM))
    eps[:, :M, :, 0] = z[..., 0] * L[..., 0, 0]
    eps[:, :M, :, 1] = z[..., 0] * L[..., 1, 0] + z[..., 1] * L[..., 1, 1]
    dx = np.empty((Mp // FEEDBACK_TILE, FEEDBACK_TILE, n))
    feedback = np.empty((Mp // FEEDBACK_TILE, FEEDBACK_TILE, CONTROL_DIM * k))
    u = np.empty((Mp, k, CONTROL_DIM))

    nominal, kff, feedback_u = policies.nominal_states, policies.kff, feedback.reshape(u.shape)

    def act(t: int, states: np.ndarray) -> np.ndarray:
        np.subtract(states.reshape(dx.shape), nominal[t], dx)
        np.matmul(dx, gains[t], feedback)  # gains[t]: (4k, 2k)
        np.subtract(kff[t], feedback_u, u)
        return np.add(u, eps[t], u)

    states, controls = rollout(np.tile(spec.x0, (Mp, 1)), T, spec.dt, act, spec.u_max)
    return states[:M], controls[:M]


def mean_rollout(policies: PolicySequence, spec: ScenarioSpec) -> RolloutSet:
    """Deterministic rollout under the feedback means, clamped at spec.u_max: a zero-noise set of one."""
    noise = np.zeros((1, policies.horizon, policies.k, CONTROL_DIM))
    return RolloutSet(*_rollout_batch(policies, spec, noise), spec.dt)


def sample_rollouts(policies: PolicySequence, spec: ScenarioSpec, M: int, seed: int,
                    noise: PendingNormals | None = None) -> RolloutSet:
    """Draw M stochastic rollouts clamped at spec.u_max; bit-deterministic for a given seed.

    The set's noise is one (M, T, k, 2) draw of standard normals from the
    Philox stream keyed by seed, filled in row order: rollout m reads normals
    m*S to (m+1)*S - 1 of that stream, S = T*k*2, so its bits do not depend
    on M. `noise` is that draw already started (`rng.start_normals`), for
    exactly this seed and shape; without it the draw fills inline.
    """
    M = check_count("M", M)
    shape = (M, policies.horizon, policies.k, CONTROL_DIM)
    if noise is None:
        z = normals(seed, shape)
    elif (noise.seed, noise.shape) != (check_key(seed), shape):
        raise ValidationError(
            f"the started draw is seed {noise.seed}, shape {noise.shape}; "
            f"this set needs seed {seed}, shape {shape}")
    else:
        z = noise.result()
    states, controls = _rollout_batch(policies, spec, z)
    return RolloutSet(states, controls, spec.dt)


def build_policies(thetas, spec: ScenarioSpec, solver_cfg: SolverConfig = SolverConfig()) -> PolicySequence:
    """Convenience wrapper: weight vectors -> solved policies for a scenario."""
    return solve_scenario(thetas, spec, solver_cfg)
