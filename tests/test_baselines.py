import logging
import math

import numpy as np
import pytest

from crowdirl.baselines import (
    EnergyParams,
    GmmModel,
    action_grid,
    ebm_argmin,
    ebm_energy,
    ebm_minimizer,
    ebm_train,
    gmm_conditional_mean,
    gmm_fit,
    gmm_pdf,
    gmm_sample,
)
from crowdirl.errors import ValidationError
from crowdirl.metrics import PredictorContext, make_predictor
from crowdirl.trajectory import AgentState, JointState, ScenarioSpec, rollout_openloop


def _single_gaussian(mu, cov) -> GmmModel:
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return GmmModel(weights=np.array([1.0]), means=mu[None, :], covariances=cov[None, :, :])


class TestGmmPdf:
    def test_standard_normal_mode(self):
        model = _single_gaussian([0.0], [[1.0]])
        assert abs(gmm_pdf(model, [0.0]) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12

    def test_mixture_collapse_of_equal_components(self):
        two = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 1)),
            covariances=np.ones((2, 1, 1)),
        )
        one = _single_gaussian([0.0], [[1.0]])
        for x in (-1.3, 0.0, 0.7):
            assert abs(gmm_pdf(two, [x]) - gmm_pdf(one, [x])) < 1e-14

    def test_isotropic_2d_closed_form(self):
        model = _single_gaussian([0.0, 0.0], np.eye(2))
        expected = math.exp(-1.0) / (2 * math.pi)
        assert abs(gmm_pdf(model, [1.0, 1.0]) - expected) < 1e-12

    def test_lattice_quadrature_integrates_to_one(self):
        """Midpoint-rule integral over a generous box, 1e6 points, within 2%."""
        model = GmmModel(
            weights=np.array([0.4, 0.6]),
            means=np.array([[-1.0, 0.5], [2.0, -0.5]]),
            covariances=np.stack([np.eye(2) * 0.8, [[1.2, 0.3], [0.3, 0.9]]]),
        )
        n = 1000
        xs = np.linspace(-9.0, 10.0, n, endpoint=False) + 19.0 / (2 * n)
        ys = np.linspace(-8.0, 8.0, n, endpoint=False) + 16.0 / (2 * n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        total = float(np.sum(gmm_pdf(model, pts))) * (19.0 / n) * (16.0 / n)
        assert abs(total - 1.0) < 0.02


def _two_clusters() -> np.ndarray:
    rng = np.random.default_rng(100)
    a = rng.normal(-5.0, 1.0, size=(1000, 1))
    b = rng.normal(5.0, 1.0, size=(1000, 1))
    return np.concatenate([a, b])


class TestGmmFit:
    def test_two_separated_components_recovered(self):
        model = gmm_fit(_two_clusters(), K=2, seed=4)
        mus = np.sort(model.means.ravel())
        assert abs(mus[0] + 5.0) < 0.1 and abs(mus[1] - 5.0) < 0.1
        assert np.all(np.diff(model.log_likelihoods) >= -1e-9)
        assert model.converged

    def test_iteration_cap_is_reported(self, caplog):
        with caplog.at_level(logging.WARNING, logger="crowdirl.baselines"):
            model = gmm_fit(_two_clusters(), K=2, seed=4, max_em_iters=2)
        assert model.converged is False
        assert len(model.log_likelihoods) == 2
        assert "max_em_iters=2" in caplog.text

    def test_k1_closed_form_mle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
        model = gmm_fit(X, K=1, seed=0)
        assert np.allclose(model.means[0], X.mean(axis=0), atol=1e-9)
        assert np.allclose(model.covariances[0], np.cov(X.T, bias=True), atol=1e-9)

    def test_degenerate_data_hits_floor(self):
        X = np.tile([1.5, -2.0], (50, 1))
        model = gmm_fit(X, K=1, seed=0)
        assert np.allclose(model.covariances[0], 1e-8 * np.eye(2), atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            gmm_fit(np.zeros((5, 2)), K=2, seed=0)


class TestGmmSample:
    def test_seed_repeat_identical(self):
        model = _single_gaussian([1.0, 2.0], np.eye(2))
        assert np.array_equal(gmm_sample(model, seed=5), gmm_sample(model, seed=5))

    def test_floor_covariance_sticks_to_mean(self):
        model = _single_gaussian([3.0, -1.0], 1e-8 * np.eye(2))
        draw = gmm_sample(model, seed=11)
        assert np.max(np.abs(draw - [3.0, -1.0])) < 1e-3

    def test_moments_within_clt_bounds(self):
        model = _single_gaussian([0.0], [[1.0]])
        draws = gmm_sample(model, seed=99, n=10_000)
        assert abs(float(np.mean(draws))) < 0.03  # 3 / sqrt(1e4)
        assert abs(float(np.var(draws)) - 1.0) < 0.05


def test_gmm_conditional_mean_tracks_regression_line():
    # joint (x, u) with u = 2x: conditional mean must follow the line
    rng = np.random.default_rng(21)
    x = rng.normal(0.0, 1.0, size=(4000, 1))
    u = 2.0 * x + rng.normal(0.0, 0.05, size=(4000, 1))
    model = gmm_fit(np.concatenate([x, u], axis=1), K=2, seed=3)
    for q in (-1.0, 0.0, 1.0):
        est = gmm_conditional_mean(model, [q], n_cond=1)
        assert abs(float(est[0]) - 2.0 * q) < 0.15


class TestEbm:
    def test_energy_zero_at_minimizer(self):
        p = EnergyParams(W=np.eye(2), L=np.array([[1.0, 0.0], [0.0, 1.0]]), b=np.zeros(2))
        x = np.array([0.3, -0.4])
        assert ebm_energy(p, x, ebm_minimizer(p, x)) == 0.0

    def test_energy_unit_offset(self):
        p = EnergyParams(W=np.eye(2), L=np.zeros((2, 2)), b=np.zeros(2))
        assert abs(ebm_energy(p, np.zeros(2), [1.0, 0.0]) - 0.5) < 1e-15

    def test_energy_scales_with_w(self):
        p1 = EnergyParams(W=np.eye(2), L=np.zeros((2, 2)), b=np.zeros(2))
        p2 = EnergyParams(W=2 * np.eye(2), L=np.zeros((2, 2)), b=np.zeros(2))
        u = [0.7, -0.2]
        assert abs(ebm_energy(p2, np.zeros(2), u) - 2 * ebm_energy(p1, np.zeros(2), u)) < 1e-15

    def test_argmin_returns_grid_member_and_respects_ties(self):
        p = EnergyParams(W=np.eye(1), L=np.zeros((1, 1)), b=np.zeros(1))
        # two candidates equidistant from the minimizer 0: tie -> lowest index
        cands = np.array([[1.0], [-1.0]])
        assert ebm_argmin(p, [0.0], cands)[0] == 1.0
        with pytest.raises(ValidationError):
            ebm_argmin(p, [0.0], np.empty((0, 1)))

    def test_argmin_grid_within_half_spacing(self):
        p = EnergyParams(W=np.eye(2), L=np.zeros((2, 2)), b=np.array([0.1, -0.2]))
        for n in (11, 21, 41):
            grid = action_grid(-3.0, 3.0, n)
            spacing = 6.0 / (n - 1)
            pick = ebm_argmin(p, np.zeros(2), grid)
            assert np.max(np.abs(pick - [0.1, -0.2])) <= 0.5 * spacing + 1e-12

    def test_train_recovers_linear_policy_exactly(self):
        rng = np.random.default_rng(15)
        L = np.array([[0.5, -1.0, 0.2, 0.0], [0.0, 0.3, -0.7, 1.1]])
        b = np.array([0.4, -0.9])
        X = rng.standard_normal((200, 4))
        U = X @ L.T + b
        p = ebm_train(X, U)
        assert np.max(np.abs(p.L - L)) < 1e-8
        assert np.max(np.abs(p.b - b)) < 1e-8

    def test_train_constant_actions(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((100, 3))
        U = np.tile([1.0, -2.0], (100, 1))
        p = ebm_train(X, U)
        assert np.max(np.abs(p.L)) < 1e-10
        assert np.allclose(p.b, [1.0, -2.0], atol=1e-10)

    def test_train_single_pair_ridge_path(self):
        p = ebm_train(np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]]))
        assert np.all(np.isfinite(p.L)) and np.all(np.isfinite(p.b))


class TestConstantVelocity:
    """The constant-velocity baseline is the metrics module's `cv` predictor."""

    @staticmethod
    def _predict(start, horizon, dt):
        spec = ScenarioSpec(k=1, x0=JointState((start,)), goals=None, horizon=horizon, dt=dt)
        predict = make_predictor("cv", PredictorContext(spec=spec, train_demos=[]))
        # the predictor reads only the demo's start state, so its controls are arbitrary
        wiggle = np.random.default_rng(0).standard_normal((horizon, 1, 2))
        return spec, predict(rollout_openloop(spec, wiggle))[:, 0]

    def test_at_rest_stays(self):
        _, out = self._predict(AgentState(1, 1, 0, 0), horizon=4, dt=0.1)
        assert np.allclose(out, np.tile([1.0, 1.0], (5, 1)))

    def test_unit_velocity_advances(self):
        _, out = self._predict(AgentState(0, 0, 1, 0), horizon=3, dt=1.0)
        assert np.allclose(out[:, 0], [0.0, 1.0, 2.0, 3.0])
        assert np.allclose(out[:, 1], 0.0)

    def test_matches_zero_control_rollout(self):
        spec, out = self._predict(AgentState(0.5, -0.2, 0.8, -0.3), horizon=6, dt=0.25)
        roll = rollout_openloop(spec, np.zeros((6, 1, 2)))
        assert np.array_equal(out, roll.positions(0))
