import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from crowdirl import baselines
from crowdirl.baselines import (
    EnergyParams,
    GmmModel,
    action_grid,
    ebm_argmin,
    ebm_minimizer,
    ebm_train,
    gmm_conditional_mean,
    gmm_conditioner,
    gmm_fit,
)
from crowdirl.cli import main
from crowdirl.errors import InternalError, ValidationError
from crowdirl.metrics import PredictorContext, _demo_state_action_pairs, make_predictor
from crowdirl.pipeline import read_demonstrations
from crowdirl.rng import substream
from crowdirl.trajectory import (
    AgentState,
    RolloutSet,
    ScenarioSpec,
    clamp_control,
    constant_velocity_rollout,
    propagate_joint,
    rollout_openloop,
)


def _single_gaussian(mu, cov) -> GmmModel:
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return GmmModel(weights=np.array([1.0]), means=mu[None, :], covariances=cov[None, :, :])


def _log_density(model: GmmModel, pts) -> np.ndarray:
    """The mixture density at the rows of pts, through the E-step's per-component log-densities."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    diff = pts.T - model.means[:, :, None]
    logs = np.log(model.weights)[:, None] + baselines._log_gaussians(diff, model.covariances, np.empty_like(diff))
    return np.exp(logs).sum(axis=0)


class TestLogGaussians:
    """Closed forms of the per-component log-density that gmm_fit's E-step reads."""

    def test_standard_normal_mode(self):
        assert abs(_log_density(_single_gaussian([0.0], [[1.0]]), [0.0])[0] - 1.0 / math.sqrt(2 * math.pi)) < 1e-12

    def test_isotropic_2d_closed_form(self):
        model = _single_gaussian([0.0, 0.0], np.eye(2))
        assert abs(_log_density(model, [1.0, 1.0])[0] - math.exp(-1.0) / (2 * math.pi)) < 1e-12

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
        total = float(np.sum(_log_density(model, pts))) * (19.0 / n) * (16.0 / n)
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

    @pytest.mark.parametrize("setting, message", [
        ({"max_em_iters": 2.5}, "max_em_iters must be an integer >= 1, got 2.5"),
        ({"max_em_iters": 0}, "max_em_iters must be an integer >= 1, got 0"),
        ({"tol": math.nan}, "tol must be finite and >= 0, got nan"),
        ({"tol": math.inf}, "tol must be finite and >= 0, got inf"),
        ({"tol": -1e-6}, "tol must be finite and >= 0, got -1e-06"),
    ])
    def test_iteration_cap_and_tolerance_are_checked(self, setting, message):
        with pytest.raises(ValidationError) as err:
            gmm_fit(_two_clusters(), K=2, seed=4, **setting)
        assert str(err.value) == message

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


def _lu_log_gaussian(x, mean, cov):
    """The log-density with the whitening as an LU solve on all samples at once."""
    L = np.linalg.cholesky(cov)
    sol = np.linalg.solve(L, (x - mean).T)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (mean.size * np.log(2.0 * np.pi) + logdet + np.sum(sol * sol, axis=0))


def _floor_one(cov):
    """One covariance with its eigenvalues raised to the floor, as gmm_fit floors them."""
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    return (vecs * np.maximum(vals, baselines.COV_FLOOR)) @ vecs.T


def _reference_gmm_fit(samples, K, seed, max_em_iters=200, tol=1e-6):
    """EM one component at a time, each E-step whitening by an LU solve.

    Starts from gmm_fit's k-means++ draw and floored sample covariance. It has
    no reseeding: the data it is run on never empties a component.
    """
    means = baselines._kmeans_pp_init(samples, K, substream(seed, 0xE11))
    covs = np.stack([_floor_one(np.cov(samples.T))] * K)
    weights = np.full(K, 1.0 / K)
    trace, prev = [], -np.inf
    for _ in range(max_em_iters):
        logs = np.stack([np.log(w) + _lu_log_gaussian(samples, mu, cov)
                         for w, mu, cov in zip(weights, means, covs)])
        m = logs.max(axis=0)
        norm = m + np.log(np.sum(np.exp(logs - m), axis=0))
        loglik = float(np.sum(norm))
        trace.append(loglik)
        resp = np.exp(logs - norm)
        nk = resp.sum(axis=1)
        assert np.all(nk >= 1e-12)
        for c in range(K):
            means[c] = resp[c] @ samples / nk[c]
            diff = samples - means[c]
            covs[c] = _floor_one((resp[c] * diff.T) @ diff / nk[c])
        weights = nk / nk.sum()
        if abs(loglik - prev) < tol:
            break
        prev = loglik
    return GmmModel(weights=weights, means=means, covariances=covs, log_likelihoods=np.array(trace))


def _lu_conditional_mean(model, x_obs, n_cond):
    """E[tail | head = x_obs] with LU solves per row and component."""
    x_obs = np.asarray(x_obs, dtype=float)
    log_post = np.empty(x_obs.shape[:-1] + (model.n_components,))
    cond_means = np.empty(x_obs.shape[:-1] + (model.n_components, model.dim - n_cond))
    for c in range(model.n_components):
        mu, cov = model.means[c], model.covariances[c]
        a, b = mu[:n_cond], mu[n_cond:]
        Saa = cov[:n_cond, :n_cond]
        Sba = cov[n_cond:, :n_cond]
        diff = (x_obs - a)[..., None]
        cond_means[..., c, :] = b + (Sba @ np.linalg.solve(Saa, diff))[..., 0]
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


@pytest.fixture(scope="module")
def round_trip_pairs(tmp_path_factory):
    """The README round trip's gmm training pairs: 20 of 30 synthesized demos."""
    path = tmp_path_factory.mktemp("round_trip") / "demos.traj"
    assert main(["--seed", "11", "--entropy-temp", "1e-3", "synth", str(path),
                 "--preset", "intersection_k3", "--theta", "1.0,0.5,0.2", "--n", "30"]) == 0
    return np.concatenate(_demo_state_action_pairs(read_demonstrations(path)[0][:20]), axis=1)


class TestWhitening:
    """Every component whitens with one product by inv(L); an LU solve differs by rounding."""

    def test_random_well_conditioned_covariances_stay_within_rounding(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d, K = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            A = rng.normal(size=(K, d, d))
            covs = A @ A.transpose(0, 2, 1) + d * np.eye(d)
            means = rng.normal(size=(K, d))
            x = means[0] + 2.0 * rng.normal(size=(50, d))
            diff = x.T - means[:, :, None]
            got = baselines._log_gaussians(diff, covs, np.empty_like(diff))
            for c in range(K):
                ref = _lu_log_gaussian(x, means[c], covs[c])
                assert np.max(np.abs(got[c] - ref) / np.abs(ref)) <= 4e-15

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_round_trip_fit_keeps_its_em_count(self, round_trip_pairs, seed):
        got = gmm_fit(round_trip_pairs, K=3, seed=seed)
        ref = _reference_gmm_fit(round_trip_pairs, K=3, seed=seed)
        assert len(got.log_likelihoods) == len(ref.log_likelihoods)
        for name in ("weights", "means", "covariances", "log_likelihoods"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(b)), name


class TestConditionalMeanReference:
    """The conditioner's per-model constants give the per-row LU answer to rounding."""

    @staticmethod
    def _within(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_round_trip_model(self, round_trip_pairs):
        model = gmm_fit(round_trip_pairs, K=3, seed=1)
        states = round_trip_pairs[:, :4]
        self._within(gmm_conditional_mean(model, states, 4), _lu_conditional_mean(model, states, 4))

    @pytest.mark.parametrize("K", [1, 3, 5])
    @pytest.mark.parametrize("n_cond", [1, 2, 4])
    def test_random_models(self, K, n_cond):
        rng = np.random.default_rng(10 * K + n_cond)
        dim = n_cond + 2
        A = rng.normal(size=(K, dim, dim))
        model = GmmModel(weights=rng.dirichlet(np.ones(K)), means=rng.normal(size=(K, dim)),
                         covariances=A @ A.transpose(0, 2, 1) + 0.5 * np.eye(dim))
        rows = rng.normal(0.0, 2.0, size=(5, 8, n_cond))
        self._within(gmm_conditioner(model, n_cond)(rows), _lu_conditional_mean(model, rows, n_cond))


class TestEmInvariant:
    """Only an M-step that floored no eigenvalue and reseeded nothing must raise the likelihood."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_floored_collapse_onto_a_far_point_fits(self, seed):
        X = np.concatenate([np.random.default_rng(125).normal(size=(60, 2)), [[1e4, 1e4]]])
        model = gmm_fit(X, K=3, seed=seed)
        assert model.converged
        assert np.isclose(model.weights.min(), 1 / 61)  # the far point, alone, at the floor

    def test_decrease_after_an_unconstrained_step_is_refused(self, monkeypatch):
        log_gaussians = baselines._log_gaussians
        calls = []

        def drop_on_third_call(*args):
            calls.append(1)
            out = log_gaussians(*args)
            return out - 1.0 if len(calls) == 3 else out

        monkeypatch.setattr(baselines, "_log_gaussians", drop_on_third_call)
        with pytest.raises(InternalError, match="decreased"):
            gmm_fit(_two_clusters(), K=2, seed=4)

    def test_reseeded_component_keeps_a_sample_share(self, caplog):
        rng = np.random.default_rng(145)
        X = np.concatenate([rng.normal(size=(40, 2)), np.full((2, 2), 1e3),
                            rng.normal(size=(40, 2)) + 50])
        with caplog.at_level(logging.WARNING, logger="crowdirl.baselines"):
            model = gmm_fit(X, K=6, seed=145)
        assert caplog.text.count("reseeded empty mixture component 4") == 1
        assert model.converged
        assert model.weights[4] > 1 / len(X)


class TestLibraryInputs:
    @pytest.mark.parametrize("field", ["weights", "means", "covariances"])
    def test_gmm_model_refuses_nan(self, field):
        fields = dict(weights=[1.0], means=[[0.0]], covariances=[[[1.0]]])
        fields[field] = np.full(np.shape(fields[field]), np.nan)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            GmmModel(**fields)

    @pytest.mark.parametrize("field", ["W", "L", "b"])
    def test_energy_params_refuse_nan(self, field):
        fields = dict(W=np.eye(2), L=np.zeros((2, 3)), b=np.zeros(2))
        fields[field] = np.full(fields[field].shape, np.nan)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            EnergyParams(**fields)

    @pytest.mark.parametrize("K", [0, -1, 2.5, True, "3"])
    def test_gmm_fit_refuses_a_non_integer_or_empty_k(self, K):
        with pytest.raises(ValidationError, match="K must be an integer >= 1"):
            gmm_fit(_two_clusters(), K=K, seed=0)


    @pytest.mark.parametrize("n, dim, name", [(-1, 2, "n"), (1.5, 2, "n"), (0, 2, "n"), (3, 0, "dim"),
                                              (3, True, "dim")])
    def test_action_grid_takes_counts(self, n, dim, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 1"):
            action_grid(-1.0, 1.0, n, dim=dim)

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros(4), np.zeros((1, 3))])
    def test_ebm_argmin_refuses_an_x_of_another_length(self, x):
        p = EnergyParams(W=np.eye(2), L=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ValidationError, match=r"^x must be \(3,\), got shape"):
            ebm_argmin(p, x, action_grid(-1.0, 1.0, 3))

    @pytest.mark.parametrize("n_cond", [-1, 0, 4])
    def test_gmm_conditioner_refuses_a_slice_that_is_not_a_proper_head(self, n_cond):
        model = _single_gaussian(np.zeros(4), np.eye(4))
        with pytest.raises(ValidationError, match="^conditioning slice does not match the model dimension$"):
            gmm_conditioner(model, n_cond)

    @pytest.mark.parametrize("width", [1, 3])
    def test_ebm_argmin_refuses_candidates_of_another_width(self, width):
        p = EnergyParams(W=np.eye(2), L=np.zeros((2, 3)), b=np.zeros(2))
        message = rf"^candidates must be a nonempty \(n, 2\) array, got shape \(4, {width}\)$"
        with pytest.raises(ValidationError, match=message):
            ebm_argmin(p, np.zeros(3), np.zeros((4, width)))


def test_gmm_conditional_mean_tracks_regression_line():
    # joint (x, u) with u = 2x: conditional mean must follow the line
    rng = np.random.default_rng(21)
    x = rng.normal(0.0, 1.0, size=(4000, 1))
    u = 2.0 * x + rng.normal(0.0, 0.05, size=(4000, 1))
    model = gmm_fit(np.concatenate([x, u], axis=1), K=2, seed=3)
    for q in (-1.0, 0.0, 1.0):
        est = gmm_conditional_mean(model, [q], n_cond=1)
        assert abs(float(est[0]) - 2.0 * q) < 0.15


def _random_state_actions(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.5, size=(n, 4))
    U = X[:, 2:] * [-0.4, 0.3] + rng.normal(0.0, 0.2, size=(n, 2))
    return X, U


def test_gmm_conditional_mean_of_equal_components_is_that_of_one():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    two = GmmModel(weights=np.array([0.5, 0.5]), means=np.array([[0.5, -1.0]] * 2), covariances=np.stack([cov, cov]))
    one = _single_gaussian([0.5, -1.0], cov)
    for x in (-1.3, 0.0, 0.7):
        assert abs(gmm_conditional_mean(two, [x], 1)[0] - gmm_conditional_mean(one, [x], 1)[0]) < 1e-14


class TestBatchedQueries:
    """Rows (..., d) give, row for row, the bytes of one call per row."""

    def test_gmm_conditional_mean_rows_match_row_calls(self):
        X, U = _random_state_actions(400, seed=4)
        model = gmm_fit(np.concatenate([X, U], axis=1), K=3, seed=1)
        rows = np.random.default_rng(5).normal(0.0, 2.0, size=(60, 4))
        got = gmm_conditional_mean(model, rows, 4)
        assert got.shape == (60, 2)
        for row, out in zip(rows, got):
            assert out.tobytes() == gmm_conditional_mean(model, row, 4).tobytes()
        grid = gmm_conditional_mean(model, rows.reshape(6, 10, 4), 4)
        assert grid.tobytes() == got.tobytes()

    def test_ebm_minimizer_rows_match_row_calls(self):
        params = ebm_train(*_random_state_actions(200, seed=6))
        rows = np.random.default_rng(7).normal(0.0, 2.0, size=(60, 4))
        got = ebm_minimizer(params, rows)
        assert got.shape == (60, 2)
        for row, out in zip(rows, got):
            assert out.tobytes() == ebm_minimizer(params, row).tobytes()
        assert ebm_minimizer(params, rows.reshape(6, 10, 4)).tobytes() == got.tobytes()

    def test_wrong_trailing_dimension_rejected(self):
        X, U = _random_state_actions(200, seed=8)
        model = gmm_fit(np.concatenate([X, U], axis=1), K=2, seed=1)
        params = ebm_train(X, U)
        for bad in (np.zeros((5, 3)), np.zeros(5), np.zeros((2, 3, 6))):
            with pytest.raises(ValidationError):
                gmm_conditional_mean(model, bad, 4)
            with pytest.raises(ValidationError):
                ebm_minimizer(params, bad)


def _per_agent_rollout(x0, spec, act, u_max):
    """Reference: one agent of one demo per `act` call, as the predictors once stepped."""
    k = spec.k
    states = np.empty((spec.horizon + 1, 4 * k))
    states[0] = x0
    for t in range(spec.horizon):
        per = states[t].reshape(k, 4)
        u = np.stack([clamp_control(act(per[i]), u_max) for i in range(k)])
        states[t + 1] = propagate_joint(states[t], u, spec.dt)
    return states.reshape(spec.horizon + 1, k, 4)[:, :, :2]


class TestStateFeedbackPredictors:
    K_AGENTS, T = 3, 12

    def _demos(self, n, seed):
        rng = np.random.default_rng(seed)
        k, T = self.K_AGENTS, self.T
        out = []
        for _ in range(n):
            spec = ScenarioSpec(k=k, x0=rng.normal(0.0, 1.5, 4 * k), goals=None, horizon=T, dt=0.1)
            out.append(rollout_openloop(spec, rng.normal(0.0, 0.6, (T, k, 2))))
        return RolloutSet.stack(out)

    @pytest.mark.parametrize("method", ["gmm", "ebm"])
    @pytest.mark.parametrize("u_max", [0.05, 5.0])
    def test_matches_per_agent_loop(self, method, u_max):
        train, held = self._demos(6, seed=11), self._demos(5, seed=12)
        spec = ScenarioSpec(k=self.K_AGENTS, x0=held.states[0, 0], goals=None,
                            horizon=self.T, dt=0.1, u_max=u_max)
        ctx = PredictorContext(spec=spec, train_demos=train, seed=2)
        got = make_predictor(method, ctx)(held)
        assert got.shape == (5, self.T + 1, self.K_AGENTS, 2)
        # the reference model is fitted the way make_predictor fits it
        if method == "gmm":
            pairs = np.concatenate(_demo_state_action_pairs(train), axis=1)
            model = gmm_fit(pairs, K=ctx.gmm_components, seed=ctx.seed)
            act = lambda s: gmm_conditional_mean(model, s, 4)  # noqa: E731
        else:
            params = ebm_train(*_demo_state_action_pairs(train))
            act = lambda s: ebm_minimizer(params, s)  # noqa: E731
        engaged = False
        for demo, pred in zip(held, got):
            ref = _per_agent_rollout(demo.states[0, 0], spec, act, u_max)
            assert pred.tobytes() == ref.tobytes()
            raw = act(demo.states[0, 0].reshape(self.K_AGENTS, 4))
            engaged |= bool(np.any(np.linalg.norm(raw, axis=-1) > u_max))
        assert engaged == (u_max < 1.0)

    def test_cv_matches_per_demo_constant_velocity_rollouts(self):
        held = self._demos(6, seed=14)
        assert len({demo.states[0, 0].tobytes() for demo in held}) == 6
        spec = ScenarioSpec(k=self.K_AGENTS, x0=held.states[0, 0], goals=None,
                            horizon=self.T, dt=0.1)
        got = make_predictor("cv", PredictorContext(spec=spec, train_demos=[]))(held)
        shape = (self.T + 1, self.K_AGENTS, 4)
        ref = np.stack([
            constant_velocity_rollout(replace(spec, x0=demo.states[0, 0])).states.reshape(shape)
            for demo in held
        ])[..., :2]
        assert got.tobytes() == ref.tobytes()

    def test_training_rows_in_demo_agent_step_order(self):
        train = self._demos(2, seed=13)
        X, U = _demo_state_action_pairs(train)
        xs, us = [], []
        for demo in train:
            for i in range(demo.k):
                xs.append(demo.states[0, :-1, 4 * i : 4 * i + 4])
                us.append(demo.controls[0, :, i])
        assert X.tobytes() == np.concatenate(xs).tobytes()
        assert U.tobytes() == np.concatenate(us).tobytes()


class TestEbm:
    def test_argmin_returns_grid_member_and_respects_ties(self):
        p = EnergyParams(W=np.eye(1), L=np.zeros((1, 1)), b=np.zeros(1))
        # two candidates equidistant from the minimizer 0: tie -> lowest index
        cands = np.array([[1.0], [-1.0]])
        assert ebm_argmin(p, [0.0], cands)[0] == 1.0
        with pytest.raises(ValidationError):
            ebm_argmin(p, [0.0], np.empty((0, 1)))

    def test_argmin_picks_the_minimizer_when_it_is_a_candidate(self):
        p = EnergyParams(W=np.eye(2), L=np.array([[1.0, 0.0], [0.0, 1.0]]), b=np.zeros(2))
        x = np.array([0.3, -0.4])
        cands = np.array([[0.3, -0.3], ebm_minimizer(p, x), [0.2, -0.4]])
        assert ebm_argmin(p, x, cands).tobytes() == cands[1].tobytes()

    def test_argmin_is_unchanged_by_scaling_w(self):
        cands = np.random.default_rng(3).normal(size=(50, 2))
        W = np.array([[2.0, 0.5], [0.5, 1.0]])
        picks = [ebm_argmin(EnergyParams(W=s * W, L=np.zeros((2, 2)), b=np.array([0.2, -0.1])), np.zeros(2), cands)
                 for s in (1.0, 2.0, 1e3)]
        assert all(pick.tobytes() == picks[0].tobytes() for pick in picks)

    def test_argmin_weighs_the_residual_by_w(self):
        # [1, 0] is farther from the minimizer 0 than [0, 0.2], but W makes the second coordinate dearer
        cands = np.array([[0.0, 0.2], [1.0, 0.0]])
        for W, want in ((np.eye(2), 0), (np.diag([1.0, 100.0]), 1)):
            p = EnergyParams(W=W, L=np.zeros((2, 2)), b=np.zeros(2))
            assert ebm_argmin(p, np.zeros(2), cands).tobytes() == cands[want].tobytes()

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
        spec = ScenarioSpec(k=1, x0=(start,), goals=None, horizon=horizon, dt=dt)
        predict = make_predictor("cv", PredictorContext(spec=spec, train_demos=[]))
        # the predictor reads only the demo's start state, so its controls are arbitrary
        wiggle = np.random.default_rng(0).standard_normal((horizon, 1, 2))
        return spec, predict(rollout_openloop(spec, wiggle))[0, :, 0]

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
        assert np.array_equal(out, roll.states[0, :, :2])
