"""Exact feature expectations of an unclamped affine Gaussian game policy.

With linear dynamics x' = A x + B u (B = [B_0 | ... | B_k-1]) and every agent
playing u_i = kff_i - K_i (x - x_nom) plus independent N(0, Sigma_i) noise,
the joint state is Gaussian at every step. Its mean m and covariance P
propagate in closed form, with the joint gain K and block-diagonal Sigma:

    E u = kff - K (m - x_nom),   Cov u = K P K^T + Sigma,
    m' = A m + B E u,            P' = (A - B K) P (A - B K)^T + B Sigma B^T.

Each feature expectation follows from these moments: the goal and effort
terms are a squared mean plus a trace, and for a planar d ~ N(mu, S)

    E exp(-|d|^2 / sigma^2) = det(I + 2 S / sigma^2)^(-1/2) exp(-mu^T (sigma^2 I + 2 S)^-1 mu).

Written from these formulas alone, with no reference to the sampler or the
solver, so that either can disagree with it. It holds only with no control
clamp (u_max = inf).
"""
from __future__ import annotations

import numpy as np

from fd_oracle import double_integrator


def state_control_moments(policies, spec):
    """Means and covariances of every state (T+1, n), (T+1, n, n) and control (T, 2k), (T, 2k, 2k)."""
    T, k = policies.horizon, policies.k
    n, m2 = 4 * k, 2 * k
    A, B = double_integrator(k, spec.dt)
    B = np.concatenate(list(B), axis=1)
    m, P = spec.x0, np.zeros((n, n))
    xm, xc, um, uc = [m], [P], [], []
    for t in range(T):
        K = policies.K[t].reshape(m2, n)
        Sigma = np.zeros((m2, m2))
        for i in range(k):
            Sigma[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = policies.Sigma[t, i]
        u_mean = policies.kff[t].reshape(m2) - K @ (m - policies.nominal_states[t])
        um.append(u_mean)
        uc.append(K @ P @ K.T + Sigma)
        F = A - B @ K
        m = A @ m + B @ u_mean
        P = F @ P @ F.T + B @ Sigma @ B.T
        xm.append(m)
        xc.append(P)
    return np.array(xm), np.array(xc), np.array(um), np.array(uc)


def _expected_kernel(mu, S, sigma):
    """E exp(-|d|^2 / sigma^2) for d ~ N(mu, S) in the plane."""
    s2 = sigma * sigma
    scale = np.linalg.det(np.eye(2) + 2.0 * S / s2) ** -0.5
    return scale * np.exp(-mu @ np.linalg.solve(s2 * np.eye(2) + 2.0 * S, mu))


def exact_features(policies, spec):
    """(k, 3) expected goal distance, crowding (at spec.sigma) and effort of every agent."""
    T, k, sigma = policies.horizon, policies.k, spec.sigma
    xm, xc, um, uc = state_control_moments(policies, spec)
    out = np.zeros((k, 3))
    for a in range(k):
        p = slice(4 * a, 4 * a + 2)
        d = xm[:, p] - spec.goals[a]
        out[a, 0] = np.mean(np.sum(d * d, axis=1) + np.trace(xc[:, p, p], axis1=1, axis2=2))
        crowd = 0.0
        for j in range(k):
            if j == a:
                continue
            q = slice(4 * j, 4 * j + 2)
            for t in range(T + 1):
                S = xc[t, p, p] + xc[t, q, q] - xc[t, p, q] - xc[t, q, p]
                crowd += _expected_kernel(xm[t, p] - xm[t, q], S, sigma)
        out[a, 1] = crowd / (T + 1)
        c = slice(2 * a, 2 * a + 2)
        out[a, 2] = np.mean(np.sum(um[:, c] ** 2, axis=1) + np.trace(uc[:, c, c], axis1=1, axis2=2))
    return out
