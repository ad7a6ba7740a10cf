"""Reference predictors the learned policies are compared against.

Two families: a Gaussian mixture over (state, action) pairs fitted with EM
and queried through conditioning, and an implicit behavior-cloning policy
that picks actions by minimizing a quadratic energy. Each EM iteration works
on every mixture component at once; a model's conditioning constants are
formed once (`gmm_conditioner`), so a query does elementwise work only. The
third baseline, constant velocity, is the zero-control `cv` predictor in
`metrics.make_predictor`. Each one predicts agents independently, which is
exactly the failure mode that interaction-aware models are meant to expose.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CostRangeError, InternalError, ValidationError
from .rng import substream
from .trajectory import check_count, check_real

logger = logging.getLogger(__name__)

COV_FLOOR = 1e-8
RIDGE_LAMBDA = 1e-6


# --- Gaussian mixture model -------------------------------------------------


@dataclass(frozen=True)
class GmmModel:
    """Mixture weights, means and covariances; covariances are kept PD.

    converged is False when EM stopped at its iteration cap before the
    log-likelihood change fell below tol.
    """

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    covariances: np.ndarray  # (K, d, d)
    log_likelihoods: np.ndarray = field(default_factory=lambda: np.array([]))
    converged: bool = True

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        mu = np.array(self.means, dtype=float)
        cov = np.array(self.covariances, dtype=float)
        K = w.size
        if mu.ndim != 2 or mu.shape[0] != K:
            raise ValidationError(f"means must be ({K}, d), got {mu.shape}")
        d = mu.shape[1]
        if cov.shape != (K, d, d):
            raise ValidationError(f"covariances must be ({K}, {d}, {d}), got {cov.shape}")
        _check_finite(weights=w, means=mu, covariances=cov)
        if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
            raise ValidationError("mixture weights must be nonnegative and sum to 1")
        if np.linalg.eigvalsh(cov)[:, 0].min() < COV_FLOOR * 0.5:
            raise ValidationError("component covariance below the PD floor")
        for arr in (w, mu, cov):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _check_finite(**fields):
    """Refuse a NaN or infinite entry, naming the field it is in."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} must be finite")


def _log_gaussians(diff: np.ndarray, covs: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(K, n) log N(x_j; mu_c, Sigma_c) from the deviations diff[c, :, j] = x_j - mu_c.

    Every component at once: one batched Cholesky and inverse, then one product
    by the d x d inverse factors whitens all n deviations (an n-column LU solve
    costs far more). work, of diff's shape, is overwritten; the EM loop passes
    the same one each iteration instead of allocating it.
    """
    L = np.linalg.cholesky(covs)
    sol = np.matmul(np.linalg.inv(L), diff, out=work)
    sol *= sol
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    return -0.5 * ((diff.shape[1] * np.log(2.0 * np.pi) + logdet)[:, None] + sol.sum(axis=1))


def _check_sum(value, fit: str):
    """value, if finite; else the training pairs overflow the fit's sums of squares."""
    if not np.all(np.isfinite(value)):
        raise CostRangeError(f"{fit} contains non-finite values", "states")
    return value


def _floor_covariances(covs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Symmetrized (..., d, d) covariances with every eigenvalue raised to COV_FLOOR.

    Also returns whether any eigenvalue was below the floor.
    """
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    vals, vecs = np.linalg.eigh(covs)
    floored = (vecs * np.maximum(vals, COV_FLOOR)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return floored, bool(np.any(vals < COV_FLOOR))


def _kmeans_pp_init(samples: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = samples.shape[0]
    centers = [samples[rng.integers(n)]]
    for _ in range(1, K):
        d2 = np.min(
            np.stack([np.sum((samples - c) ** 2, axis=1) for c in centers]), axis=0
        )
        total = _check_sum(d2.sum(), "gmm fit")
        if total <= 0:
            centers.append(samples[rng.integers(n)])
            continue
        centers.append(samples[rng.choice(n, p=d2 / total)])
    return np.stack(centers)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as an error
def gmm_fit(
    samples: np.ndarray,
    K: int,
    seed: int = 0,
    max_em_iters: int = 200,
    tol: float = 1e-6,
) -> GmmModel:
    """EM fit with k-means++ initialization and an eigenvalue floor.

    Each iteration works on all K components at once, on one (d, n) copy of
    the samples. A component whose responsibilities sum below 1e-12 is
    reseeded at the sample farthest from the other means, with the sample
    covariance and one sample's share of the weight.

    The per-iteration log-likelihood trace is stored on the returned model.
    EM never lowers it, so a drop of more than 1e-9 after an M-step that
    floored no eigenvalue and reseeded no component raises InternalError.
    Flooring and reseeding leave EM's update, so the step after either is not
    checked. Samples whose sums of squares overflow raise CostRangeError.
    """
    check_count("K", K)
    max_em_iters = check_count("max_em_iters", max_em_iters)
    tol = check_real(tol, "tol must be finite and >= 0, got {!r}", positive=False)  # NaN would never stop EM
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape
    if n < K * (d + 1):
        raise ValidationError(
            f"need at least K*(d+1)={K * (d + 1)} samples to fit {K} components, got {n}"
        )
    xt = np.ascontiguousarray(samples.T)  # (d, n)
    rng = substream(seed, 0xE11)
    means = _kmeans_pp_init(samples, K, rng)
    sample_cov, _ = _floor_covariances(_check_sum(np.cov(xt).reshape(d, d), "gmm fit"))
    covs = np.stack([sample_cov] * K)
    weights = np.full(K, 1.0 / K)
    diff = xt - means[:, :, None]  # (K, d, n), kept at the current means
    work = np.empty_like(diff)

    loglik_trace = []
    prev = -np.inf
    constrained = True  # whether the last M-step floored or reseeded; none ran yet
    converged = False
    for _ in range(max_em_iters):
        # E-step in log space.
        logs = np.log(weights)[:, None] + _log_gaussians(diff, covs, work)  # (K, n)
        m = logs.max(axis=0)
        norm = m + np.log(np.sum(np.exp(logs - m), axis=0))
        loglik = float(_check_sum(np.sum(norm), "gmm fit"))
        resp = np.exp(logs - norm)  # (K, n)

        if not constrained and loglik < loglik_trace[-1] - 1e-9:
            raise InternalError(
                f"EM log-likelihood decreased: {loglik_trace[-1]} -> {loglik}"
            )
        loglik_trace.append(loglik)

        # M-step; an empty component's mean and covariance are replaced below
        nk = resp.sum(axis=1)
        live = nk >= 1e-12
        scale = np.where(live, nk, 1.0)
        means = (resp @ samples) / scale[:, None]
        np.subtract(xt, means[:, :, None], out=diff)
        weighted = np.multiply(resp[:, None, :], diff, out=work)
        covs, constrained = _floor_covariances(
            weighted @ np.swapaxes(diff, 1, 2) / scale[:, None, None])
        for c in np.flatnonzero(~live):
            far = int(np.argmax(np.min(np.sum(diff[live] ** 2, axis=1), axis=0)))
            means[c] = samples[far]
            np.subtract(xt, means[c][:, None], out=diff[c])
            covs[c] = sample_cov
            nk[c] = nk.sum() / n
            live[c] = constrained = True
            logger.warning("reseeded empty mixture component %d from farthest point", c)
        weights = nk / nk.sum()

        if abs(loglik - prev) < tol:
            converged = True
            break
        prev = loglik
    if not converged:
        logger.warning(
            "EM stopped at max_em_iters=%d before the log-likelihood change fell below tol=%g",
            max_em_iters, tol,
        )

    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihoods=np.array(loglik_trace),
        converged=converged,
    )


def gmm_conditioner(model: GmmModel, n_cond: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map x_obs -> E[tail | first n_cond coordinates = x_obs] under the mixture.

    The per-model constants are formed here, once: for each component c the
    gain W_c = Sigma_ba Sigma_aa^-1 (one batched solve), the inverse Cholesky
    factor of Sigma_aa and c_c = log w_c - (n_cond log 2 pi + log|Sigma_aa|) / 2.
    The map takes x_obs (..., n_cond) to (..., dim - n_cond), one row per row,
    with elementwise products over the n_cond observed coordinates: no LAPACK
    call per query, and a row's value does not depend on the rows beside it.
    """
    if not 0 < n_cond < model.dim:
        raise ValidationError("conditioning slice does not match the model dimension")
    mu_a, mu_b = model.means[:, :n_cond], model.means[:, n_cond:]
    S_aa = model.covariances[:, :n_cond, :n_cond]
    S_ba = model.covariances[:, n_cond:, :n_cond]
    gain = np.swapaxes(np.linalg.solve(np.swapaxes(S_aa, 1, 2), np.swapaxes(S_ba, 1, 2)), 1, 2)
    L = np.linalg.cholesky(S_aa)
    whiten = np.linalg.inv(L)  # (K, n_cond, n_cond)
    log_norm = np.log(model.weights) - 0.5 * (
        n_cond * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    )

    def conditional_mean(x_obs) -> np.ndarray:
        x_obs = np.asarray(x_obs, dtype=float)
        if x_obs.ndim == 0 or x_obs.shape[-1] != n_cond:
            raise ValidationError("conditioning slice does not match the model dimension")
        diff = (x_obs[..., None, :] - mu_a)[..., None, :]  # (..., K, 1, n_cond)
        z = np.sum(whiten * diff, axis=-1)  # (..., K, n_cond)
        log_post = log_norm - 0.5 * np.sum(z * z, axis=-1)  # (..., K)
        log_post -= log_post.max(axis=-1, keepdims=True)
        post = np.exp(log_post)
        post /= post.sum(axis=-1, keepdims=True)
        cond_means = mu_b + np.sum(gain * diff, axis=-1)  # (..., K, dim - n_cond)
        return np.sum(post[..., None] * cond_means, axis=-2)

    return conditional_mean


def gmm_conditional_mean(model: GmmModel, x_obs: np.ndarray, n_cond: int) -> np.ndarray:
    """E[tail | first n_cond coordinates = x_obs] under the mixture.

    x_obs is (..., n_cond); the result is (..., dim - n_cond), one row per row.
    One call of `gmm_conditioner`; a caller with many queries of one model
    keeps the conditioner instead.
    """
    return gmm_conditioner(model, n_cond)(x_obs)


# --- implicit (energy-based) behavior cloning -------------------------------


@dataclass(frozen=True)
class EnergyParams:
    """Quadratic action energy E(x, u) = (u - (Lx + b))' W (u - (Lx + b)) / 2."""

    W: np.ndarray  # (d_u, d_u), symmetric PD
    L: np.ndarray  # (d_u, d_x)
    b: np.ndarray  # (d_u,)

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        L = np.array(self.L, dtype=float)
        b = np.array(self.b, dtype=float).ravel()
        du = b.size
        if W.shape != (du, du) or L.shape[0] != du:
            raise ValidationError("energy parameter shapes are inconsistent")
        _check_finite(W=W, L=L, b=b)
        if np.max(np.abs(W - W.T)) > 1e-9 or np.linalg.eigvalsh(W)[0] <= 0:
            raise ValidationError("W must be symmetric positive definite")
        for arr in (W, L, b):
            arr.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "b", b)


def ebm_minimizer(params: EnergyParams, x) -> np.ndarray:
    """Closed-form argmin of the energy in u; x is (..., d_x), the result (..., d_u)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != params.L.shape[1]:
        raise ValidationError(f"x must be (..., {params.L.shape[1]}), got shape {x.shape}")
    return (params.L @ x[..., None])[..., 0] + params.b


def ebm_argmin(params: EnergyParams, x, candidates: np.ndarray) -> np.ndarray:
    """Lowest-energy candidate action for a state x (d_x,); ties break to the lowest index."""
    candidates = np.asarray(candidates, dtype=float)
    d_u = params.L.shape[0]
    if candidates.ndim != 2 or candidates.shape[0] == 0 or candidates.shape[1] != d_u:
        raise ValidationError(f"candidates must be a nonempty (n, {d_u}) array, got shape {candidates.shape}")
    x = np.asarray(x, dtype=float)
    if x.shape != (params.L.shape[1],):
        raise ValidationError(f"x must be ({params.L.shape[1]},), got shape {x.shape}")
    r = candidates - (params.L @ x + params.b)
    energies = 0.5 * np.einsum("ni,ij,nj->n", r, params.W, r)
    return candidates[int(np.argmin(energies))]


def action_grid(lo: float, hi: float, n: int, dim: int = 2) -> np.ndarray:
    """Row-major regular grid of candidate actions over [lo, hi]^dim, n >= 1 points per axis."""
    axes = [np.linspace(lo, hi, check_count("n", n))] * check_count("dim", dim)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as an error
def ebm_train(states: np.ndarray, actions: np.ndarray) -> EnergyParams:
    """Least-squares fit of the energy minimizer map u ~ Lx + b (W = I).

    Falls back to ridge regression (lambda = 1e-6) with a warning when the
    regression is rank-deficient. Pairs whose sums of squares overflow raise CostRangeError.
    """
    X = np.asarray(states, dtype=float)
    U = np.asarray(actions, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if U.ndim == 1:
        U = U[:, None]
    if X.shape[0] != U.shape[0] or X.shape[0] < 1:
        raise ValidationError("states and actions must be equally many (>= 1) rows")
    n, dx = X.shape
    du = U.shape[1]
    if n < dx * du:
        logger.warning("only %d pairs for a %dx%d map; fit may be underdetermined", n, du, dx)
    A = np.concatenate([X, np.ones((n, 1))], axis=1)  # (n, dx+1)
    gram = _check_sum(A.T @ A, "energy fit")
    if np.linalg.matrix_rank(A) < dx + 1:
        logger.warning("rank-deficient regression; using ridge fallback")
        G = gram + RIDGE_LAMBDA * np.eye(dx + 1)
        coef = np.linalg.solve(G, A.T @ U)
    else:
        coef, *_ = np.linalg.lstsq(A, U, rcond=None)
    L = coef[:dx].T
    b = coef[dx]
    residual = float(np.sqrt(_check_sum(np.mean((A @ coef - U) ** 2), "energy fit")))
    logger.info("energy fit residual (rms): %.3e", residual)
    return EnergyParams(W=np.eye(du), L=L, b=b)
