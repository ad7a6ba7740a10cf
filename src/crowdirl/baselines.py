"""Reference predictors the learned policies are compared against.

Two families: a Gaussian mixture over (state, action) pairs fitted with EM
and queried through conditioning, and an implicit behavior-cloning policy
that picks actions by minimizing a quadratic energy. The third baseline,
constant velocity, is the zero-control `cv` predictor in
`metrics.make_predictor`. Each one predicts agents independently, which is
exactly the failure mode that interaction-aware models are meant to expose.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import CostRangeError, ValidationError
from .rng import substream

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
        if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
            raise ValidationError("mixture weights must be nonnegative and sum to 1")
        for c in cov:
            if np.linalg.eigvalsh(c)[0] < COV_FLOOR * 0.5:
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


def _log_gaussian(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = mean.size
    L = np.linalg.cholesky(cov)
    # one product by the d x d inv(L) whitens all n samples; an n-column LU solve costs far more
    sol = np.linalg.inv(L) @ (x - mean).T
    maha = np.sum(sol * sol, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def _log_components(weights, means, covs, x: np.ndarray) -> np.ndarray:
    """(K, n) stack of log w_c + log N(x; mu_c, Sigma_c) over the rows of x."""
    return np.stack([np.log(w) + _log_gaussian(x, mu, cov) for w, mu, cov in zip(weights, means, covs)])


def gmm_pdf(model: GmmModel, x) -> float | np.ndarray:
    """Mixture density at x; x may be (d,) or (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != model.dim:
        raise ValidationError(f"x has dimension {pts.shape[1]}, model expects {model.dim}")
    logs = _log_components(model.weights, model.means, model.covariances, pts)
    m = logs.max(axis=0)
    dens = np.exp(m) * np.sum(np.exp(logs - m), axis=0)
    return float(dens[0]) if single else dens


def _check_sum(value, fit: str):
    """value, if finite; else the training pairs overflow the fit's sums of squares."""
    if not np.all(np.isfinite(value)):
        raise CostRangeError(f"{fit} contains non-finite values", "states")
    return value


def _floor_covariance(cov: np.ndarray) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    return (vecs * np.maximum(vals, COV_FLOOR)) @ vecs.T


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

    The per-iteration log-likelihood trace is stored on the returned model;
    it is checked to be non-decreasing (1e-9 slack) as an internal invariant.
    Samples whose sums of squares overflow raise CostRangeError.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape
    if n < K * (d + 1):
        raise ValidationError(
            f"need at least K*(d+1)={K * (d + 1)} samples to fit {K} components, got {n}"
        )
    rng = substream(seed, 0xE11)
    means = _kmeans_pp_init(samples, K, rng)
    cov = _check_sum(np.cov(samples.T).reshape(d, d), "gmm fit")
    covs = np.stack([_floor_covariance(cov)] * K)
    weights = np.full(K, 1.0 / K)

    loglik_trace = []
    prev = -np.inf
    converged = False
    for _ in range(max_em_iters):
        # E-step in log space.
        logs = _log_components(weights, means, covs, samples)  # (K, n)
        m = logs.max(axis=0)
        norm = m + np.log(np.sum(np.exp(logs - m), axis=0))
        loglik = float(_check_sum(np.sum(norm), "gmm fit"))
        resp = np.exp(logs - norm)  # (K, n)

        if loglik_trace and loglik < loglik_trace[-1] - 1e-9:
            raise ValidationError(
                f"EM log-likelihood decreased: {loglik_trace[-1]} -> {loglik}"
            )
        loglik_trace.append(loglik)

        # M-step with empty-component reseeding.
        nk = resp.sum(axis=1)
        for c in range(K):
            if nk[c] < 1e-12:
                far = int(np.argmax(np.min(
                    np.sum((samples[None, :, :] - means[:, None, :]) ** 2, axis=2), axis=0
                )))
                means[c] = samples[far]
                covs[c] = _floor_covariance(np.cov(samples.T).reshape(d, d))
                weights[c] = 1.0 / n
                nk[c] = 1e-12
                logger.warning("reseeded empty mixture component %d from farthest point", c)
                continue
            means[c] = resp[c] @ samples / nk[c]
            diff = samples - means[c]
            covs[c] = _floor_covariance((resp[c] * diff.T) @ diff / nk[c])
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


def gmm_sample(model: GmmModel, seed: int, n: int | None = None) -> np.ndarray:
    """Draw from the mixture; (d,) for n=None, else (n, d). Seed-deterministic."""
    rng = substream(seed, 0x5A)
    count = 1 if n is None else n
    comps = rng.choice(model.n_components, size=count, p=model.weights)
    out = np.empty((count, model.dim))
    for c in range(model.n_components):
        idx = np.where(comps == c)[0]
        if idx.size:
            L = np.linalg.cholesky(model.covariances[c])
            out[idx] = model.means[c] + rng.standard_normal((idx.size, model.dim)) @ L.T
    return out[0] if n is None else out


def gmm_conditional_mean(model: GmmModel, x_obs: np.ndarray, n_cond: int) -> np.ndarray:
    """E[tail | first n_cond coordinates = x_obs] under the mixture.

    x_obs is (..., n_cond); the result is (..., dim - n_cond), one row per row.
    """
    x_obs = np.asarray(x_obs, dtype=float)
    if not 0 < n_cond < model.dim or x_obs.ndim == 0 or x_obs.shape[-1] != n_cond:
        raise ValidationError("conditioning slice does not match the model dimension")
    log_post = np.empty(x_obs.shape[:-1] + (model.n_components,))
    cond_means = np.empty(x_obs.shape[:-1] + (model.n_components, model.dim - n_cond))
    for c in range(model.n_components):
        mu, cov = model.means[c], model.covariances[c]
        a, b = mu[:n_cond], mu[n_cond:]
        Saa = cov[:n_cond, :n_cond]
        Sba = cov[n_cond:, :n_cond]
        diff = (x_obs - a)[..., None]  # (..., n_cond, 1)
        cond_means[..., c, :] = b + (Sba @ np.linalg.solve(Saa, diff))[..., 0]
        # log N(x_obs; a, Saa) like _log_gaussian, but with one single-column solve
        # per row, so that a row's value does not depend on the rows beside it
        L = np.linalg.cholesky(Saa)
        z = np.linalg.solve(L, diff)[..., 0]
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        log_post[..., c] = np.log(model.weights[c]) - 0.5 * (
            n_cond * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=-1)
        )
    log_post -= log_post.max(axis=-1, keepdims=True)
    post = np.exp(log_post)
    post /= post.sum(axis=-1, keepdims=True)
    return (post[..., None, :] @ cond_means)[..., 0, :]


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
        if np.max(np.abs(W - W.T)) > 1e-9 or np.linalg.eigvalsh(W)[0] <= 0:
            raise ValidationError("W must be symmetric positive definite")
        for arr in (W, L, b):
            arr.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "b", b)


def ebm_energy(params: EnergyParams, x, u) -> float:
    """Nonnegative energy, zero exactly at the analytic minimizer."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    r = u - (params.L @ x + params.b)
    return float(0.5 * r @ params.W @ r)


def ebm_minimizer(params: EnergyParams, x) -> np.ndarray:
    """Closed-form argmin of the energy in u; x is (..., d_x), the result (..., d_u)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != params.L.shape[1]:
        raise ValidationError(f"x must be (..., {params.L.shape[1]}), got shape {x.shape}")
    return (params.L @ x[..., None])[..., 0] + params.b


def ebm_argmin(params: EnergyParams, x, candidates: np.ndarray) -> np.ndarray:
    """Lowest-energy candidate action; ties break to the lowest index."""
    candidates = np.asarray(candidates, dtype=float)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise ValidationError("candidates must be a nonempty (n, d_u) array")
    x = np.asarray(x, dtype=float).ravel()
    r = candidates - (params.L @ x + params.b)
    energies = 0.5 * np.einsum("ni,ij,nj->n", r, params.W, r)
    return candidates[int(np.argmin(energies))]


def action_grid(lo: float, hi: float, n: int, dim: int = 2) -> np.ndarray:
    """Row-major regular grid of candidate actions over [lo, hi]^dim."""
    axes = [np.linspace(lo, hi, n)] * dim
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
