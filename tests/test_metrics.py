import math
from dataclasses import replace

import numpy as np
import pytest

from crowdirl import metrics
from crowdirl.baselines import ebm_minimizer, ebm_train, gmm_conditional_mean, gmm_fit
from crowdirl.errors import CostRangeError, ValidationError
from crowdirl.features import CostParams
from crowdirl.game import SolverConfig, build_policies, mean_rollout, sample_rollouts
from crowdirl.metrics import (
    CdfSeries,
    EntropyReport,
    MetricReport,
    PredictorContext,
    ade,
    efe,
    emit_report,
    error_cdf_svg,
    evaluate_method,
    fde,
    make_predictor,
    parse_report_csv,
    read_report,
    render_cdf_svg,
    render_overlay_svg,
    rmse,
    report_rows,
    rmse_cdf,
    score_predictions,
    trajectory_entropy,
)
from crowdirl.pipeline import synth_generate
from crowdirl.rng import substream
from crowdirl.trajectory import (
    RolloutSet,
    clamp_control,
    propagate_joint,
)

QUIET = SolverConfig(entropy_temp=1e-3)


class TestDisplacementMetrics:
    def test_identical_sequences(self):
        p = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert ade(p, p) == 0.0 and fde(p, p) == 0.0 and efe(p, p) == 0.0

    def test_345_offset(self):
        gt = np.zeros((4, 2))
        pred = gt + [3.0, 4.0]
        assert ade(pred, gt) == 5.0
        assert fde(pred, gt) == 5.0

    def test_mean_of_varying_errors(self):
        gt = np.zeros((2, 2))
        pred = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert ade(pred, gt) == 1.0

    def test_fde_independent_of_ade(self):
        gt = np.zeros((3, 2))
        pred = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        assert fde(pred, gt) == 2.0
        assert ade(pred, gt) == 1.0

    def test_bounds_and_final_element(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            gt = rng.standard_normal((7, 2))
            pred = rng.standard_normal((7, 2))
            errs = np.linalg.norm(pred - gt, axis=1)
            assert ade(pred, gt) <= errs.max() + 1e-15
            assert fde(pred, gt) == errs[-1]
            assert rmse(pred, gt) >= ade(pred, gt) - 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ade(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRmseCdf:
    def test_all_zero_errors(self):
        series = rmse_cdf([0.0, 0.0], [0.5])
        assert series.fractions.tolist() == [1.0]

    def test_counting(self):
        series = rmse_cdf([1.0, 3.0], [2.0])
        assert series.fractions.tolist() == [0.5]

    def test_thresholds_below_min(self):
        series = rmse_cdf([1.0, 3.0], [0.5])
        assert series.fractions.tolist() == [0.0]

    def test_monotone_and_permutation_invariant(self):
        errs = [0.3, 1.2, 0.7, 2.5, 0.1]
        ths = np.linspace(0, 3, 13)
        a = rmse_cdf(errs, ths)
        b = rmse_cdf(errs[::-1], ths)
        assert np.all(np.diff(a.fractions) >= 0)
        assert np.array_equal(a.fractions, b.fractions)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CdfSeries(thresholds=np.array([1.0, 0.5]), fractions=np.array([0.0, 1.0]))


def _xy(row: RolloutSet, i: int) -> np.ndarray:
    """(T+1, 2) positions of agent i in a one-row set."""
    return row.states[0, :, 4 * i : 4 * i + 2]


def _heading_traj(headings, dt=0.1) -> RolloutSet:
    """One-row set of one agent whose T+1 states carry exactly the given unit-speed headings."""
    n = len(headings)
    states = np.zeros((1, n, 4))
    for t, h in enumerate(headings):
        states[0, t, 2] = math.cos(h)
        states[0, t, 3] = math.sin(h)
    return RolloutSet(states, np.zeros((1, n - 1, 1, 2)), dt)


class TestTrajectoryEntropy:
    def test_identical_headings_zero_bits(self):
        rep = trajectory_entropy(_heading_traj([0.4] * 9), bins=8)
        assert rep.bits == 0.0

    def test_two_opposite_sectors_one_bit(self):
        # equal mass in two bins: exactly 1 bit
        rep = trajectory_entropy(_heading_traj([0.0, np.pi] * 5), bins=8)
        assert abs(rep.bits - 1.0) < 1e-12

    def test_uniform_eight_bins_three_bits(self):
        width = 2 * np.pi / 8
        centers = [-np.pi + (j + 0.5) * width for j in range(8)]
        rep = trajectory_entropy(_heading_traj(centers * 3), bins=8)
        assert rep.bits == 3.0

    def test_rotation_by_bin_width_invariant(self):
        rng = np.random.default_rng(6)
        headings = rng.uniform(-np.pi, np.pi, 200)
        width = 2 * np.pi / 8
        rotated = ((headings + width + np.pi) % (2 * np.pi)) - np.pi
        a = trajectory_entropy(_heading_traj(list(headings)), bins=8)
        b = trajectory_entropy(_heading_traj(list(rotated)), bins=8)
        assert abs(a.bits - b.bits) < 1e-9

    def test_bound(self):
        rng = np.random.default_rng(7)
        headings = list(rng.uniform(-np.pi, np.pi, 500))
        rep = trajectory_entropy(_heading_traj(headings), bins=8)
        assert 0.0 <= rep.bits <= 3.0
        with pytest.raises(ValidationError):
            EntropyReport(bits=3.5, bins=8)

    def test_empty_dataset(self):
        with pytest.raises(ValidationError):
            trajectory_entropy(RolloutSet.stack([]), bins=8)

    @pytest.mark.parametrize("bins", [2.5, 1, True])
    def test_bins_must_be_an_integer_of_at_least_two(self, bins):
        with pytest.raises(ValidationError) as err:
            trajectory_entropy(_heading_traj([0.4] * 9), bins=bins)
        assert str(err.value) == f"bins must be an integer >= 2, got {bins!r}"


class TestReports:
    def _demo_and_pred(self, intersection_spec, theta_star):
        demos = synth_generate(theta_star, intersection_spec, 3, seed=0, solver_cfg=QUIET)
        perfect = [
            np.stack([_xy(d, i) for i in range(3)], axis=1) for d in demos
        ]
        return demos, perfect

    def test_perfect_predictions_zero_errors(self, intersection_spec, theta_star):
        demos, perfect = self._demo_and_pred(intersection_spec, theta_star)
        rep = score_predictions("oracle", "scene", demos, perfect)
        assert rep.ade == 0.0 and rep.fde == 0.0
        assert np.all(rep.rmse_per_traj == 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 12])
    @pytest.mark.parametrize("n", [1, 5, 17])
    def test_scores_equal_the_per_demo_agent_loop_bit_for_bit(self, k, n):
        # reference: the loop that scored one demo and one agent at a time
        rng = np.random.default_rng(100 * k + n)
        T = int(rng.integers(5, 40))
        for scale in (0.01, 1.0, 100.0):
            demos = [RolloutSet.from_states(rng.normal(0.0, scale, (1, T + 1, 4 * k)), 0.1)
                     for _ in range(n)]
            preds = rng.normal(0.0, scale, (n, T + 1, k, 2))
            ades, fdes, rmses = np.zeros(k), np.zeros(k), []
            for demo, pred in zip(demos, preds):
                sq = 0.0
                for i in range(k):
                    gt = _xy(demo, i)
                    ades[i] += ade(pred[:, i], gt)
                    fdes[i] += fde(pred[:, i], gt)
                    sq += float(np.mean(np.sum((pred[:, i] - gt) ** 2, axis=1)))
                rmses.append(math.sqrt(sq / k))
            rep = score_predictions("m", "s", RolloutSet.stack(demos), list(preds))
            assert rep.per_agent_ade.tobytes() == (ades / n).tobytes()
            assert rep.per_agent_fde.tobytes() == (fdes / n).tobytes()
            assert rep.rmse_per_traj.tobytes() == np.array(rmses).tobytes()
            # the best-of pick's error of every demo, as a candidate, against demo 0
            errs = [np.mean([ade(_xy(c, i), _xy(demos[0], i)) for i in range(k)])
                    for c in demos]
            positions = metrics._positions(RolloutSet.stack(demos).states)
            rows = metrics._displacement_rows(positions, positions[0])[0]
            assert np.mean(rows, axis=-1).tobytes() == np.array(errs).tobytes()

    def test_csv_roundtrip(self, tmp_path, intersection_spec, theta_star):
        demos, perfect = self._demo_and_pred(intersection_spec, theta_star)
        rep = score_predictions("oracle", "scene", demos, perfect)
        path = tmp_path / "report.csv"
        emit_report([rep], "csv", path)
        rows = parse_report_csv(path)
        assert len(rows) == 4  # 3 agents + aggregate
        assert rows[-1]["agent"] == "all"
        assert rows[-1]["ade_m"] == rep.ade

    def _two_reports(self, intersection_spec, theta_star):
        demos, perfect = self._demo_and_pred(intersection_spec, theta_star)
        return [score_predictions(m, "scene", demos, [p + off for p in perfect])
                for m, off in (("near", 0.1), ("far", [0.3, -0.4]))]

    @pytest.mark.parametrize("name", ["per_agent_ade", "per_agent_fde", "rmse_per_traj"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_report_errors_must_be_finite_and_non_negative(self, name, bad):
        # a NaN error once passed here and was written to a report its reader refuses
        errors = {"per_agent_ade": [0.1, 0.2], "per_agent_fde": [0.3, 0.4], "rmse_per_traj": [0.5]}
        errors[name] = [bad, *errors[name][1:]]
        with pytest.raises(ValidationError, match=f"^{name} must be finite and >= 0$"):
            MetricReport(method="m", scenario="s", **errors)

    def test_predictions_are_one_array_of_one_track_per_demo(self, intersection_spec, theta_star):
        demos, perfect = self._demo_and_pred(intersection_spec, theta_star)
        T = intersection_spec.horizon
        assert score_predictions("m", "s", demos, np.stack(perfect)).ade == 0.0
        for bad in (np.stack(perfect[:2]), np.stack(perfect)[:, :-1], np.stack(perfect)[..., :1]):
            with pytest.raises(ValidationError, match=rf"predictions shape .* != \(3, {T + 1}, 3, 2\)"):
                score_predictions("m", "s", demos, bad)

    def test_overlay_maps_every_point_as_one_at_a_time(self, intersection_spec, theta_star):
        demos, perfect = self._demo_and_pred(intersection_spec, theta_star)
        preds = np.stack(perfect) + np.random.default_rng(0).normal(size=np.shape(perfect))
        preds[0, 0, 0] = -0.0
        assert render_overlay_svg(demos, preds) == _overlay_point_by_point(demos, preds)

    def test_report_rows_hold_each_agent_then_the_aggregate(self):
        rep = MetricReport(method="m", scenario="s", per_agent_ade=np.array([1.0, 2.0]),
                           per_agent_fde=np.array([3.0, 5.0]), rmse_per_traj=np.array([0.5]))
        row = lambda agent, a, f: {"method": "m", "scenario": "s", "agent": agent,
                                   "ade_m": a, "fde_m": f, "efe_m": a}
        rows = report_rows([rep])
        assert rows == [row("0", 1.0, 3.0), row("1", 2.0, 5.0), row("all", 1.5, 4.0)]
        assert all(type(r[c]) is float for r in rows for c in ("ade_m", "fde_m", "efe_m"))

    def test_csv_and_jsonl_reports_read_back(self, tmp_path, intersection_spec, theta_star):
        reps = self._two_reports(intersection_spec, theta_star)
        for fmt in ("csv", "jsonl"):
            emit_report(reps, fmt, tmp_path / f"r.{fmt}")
        rows = report_rows(reps)
        assert read_report(tmp_path / "r.csv") == (rows, {})
        assert read_report(str(tmp_path / "r.jsonl")) == (
            rows, {r.method: r.rmse_per_traj.tolist() for r in reps})

    def test_svg_report_is_the_cdf_plot_of_its_errors(self, tmp_path, intersection_spec, theta_star):
        reps = self._two_reports(intersection_spec, theta_star)
        emit_report(reps, "svg", tmp_path / "r.svg")
        errors = {r.method: r.rmse_per_traj for r in reps}
        assert (tmp_path / "r.svg").read_text() == error_cdf_svg(errors)
        # 25 thresholds from 0 to 5 % past the largest error of any method
        thresholds = np.linspace(0.0, max(map(max, errors.values())) * 1.05, 25)
        assert error_cdf_svg(errors) == render_cdf_svg(
            {m: rmse_cdf(e, thresholds) for m, e in errors.items()})

    def test_empty_report_emits_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report([], "csv", path)
        assert parse_report_csv(path) == []

    def test_emission_is_deterministic(self, tmp_path, intersection_spec, theta_star):
        demos, perfect = self._demo_and_pred(intersection_spec, theta_star)
        rep = score_predictions("oracle", "scene", demos, perfect)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_report([rep], "jsonl", p1)
        emit_report([rep], "jsonl", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ranking_sorts_by_ade_then_fde(self):
        mk = lambda m, a, f: MetricReport(
            method=m, scenario="s",
            per_agent_ade=np.array([a]), per_agent_fde=np.array([f]),
            rmse_per_traj=np.array([a]),
        )
        ranked = rank_methods([mk("slow", 2.0, 1.0), mk("tie_b", 1.0, 2.0),
                               mk("tie_a", 1.0, 1.0), mk("fast", 0.5, 3.0)])
        assert [r.method for r in ranked] == ["fast", "tie_a", "tie_b", "slow"]

    def test_svg_outputs_are_stable_and_wellformed(self, tmp_path, intersection_spec, theta_star):
        demos, perfect = self._demo_and_pred(intersection_spec, theta_star)
        rep = score_predictions("oracle", "scene", demos, perfect)
        svg1 = render_cdf_svg({"oracle": rmse_cdf([0.1, 0.2], np.linspace(0, 1, 5))})
        svg2 = render_cdf_svg({"oracle": rmse_cdf([0.1, 0.2], np.linspace(0, 1, 5))})
        assert svg1 == svg2
        assert svg1.startswith("<svg") and svg1.rstrip().endswith("</svg>")
        overlay = render_overlay_svg(demos, perfect)
        assert overlay.count("stroke-dasharray") == 3 * len(perfect)
        emit_report([rep], "svg", tmp_path / "cdf.svg")
        assert (tmp_path / "cdf.svg").read_text().startswith("<svg")


def _overlay_point_by_point(demos, predictions) -> str:
    """The overlay with each point mapped to pixels on its own, one agent's track at a time."""
    W, H, m = metrics.SVG_W, metrics.SVG_H, metrics.SVG_MARGIN
    pts = np.concatenate([d.states.reshape(-1, 4)[:, :2] for d in demos])
    lo, hi = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
    span = np.maximum(hi - lo, 1e-9)

    def to_px(p):
        return (m + (W - 2 * m) * (p[0] - lo[0]) / span[0],
                H - m - (H - 2 * m) * (p[1] - lo[1]) / span[1])

    k = demos[0].k
    demo_tracks = [np.stack([_xy(d, i) for i in range(k)], axis=1) for d in demos]
    parts = metrics._svg_head("demonstrations vs predictions")
    for tracks, dashed, opacity in ((demo_tracks, False, 0.35), (predictions, True, 1.0)):
        for track in tracks:
            for i in range(k):
                pixels = np.array([to_px(p) for p in track[:, i]])
                parts.append(metrics._polyline(pixels, metrics.PALETTE[i % len(metrics.PALETTE)],
                                               dashed, opacity))
    return "\n".join(parts + ["</svg>"]) + "\n"


class TestPredictors:
    @pytest.mark.parametrize("best_of", [0, -3, 2.5, True, "2", None])
    def test_best_of_must_be_an_integer_of_at_least_one(self, intersection_spec, best_of):
        # 0 and -3 once scored the feedback mean, and 2.5 failed inside numpy
        with pytest.raises(ValidationError, match="^best_of must be an integer >= 1, got "):
            PredictorContext(spec=intersection_spec, train_demos=[], best_of=best_of)
        assert PredictorContext(spec=intersection_spec, train_demos=[], best_of=np.int64(2)).best_of == 2

    def test_cv_exact_on_constant_velocity_demo(self, intersection_spec):
        # zero-cost agents keep their initial velocity; cv predicts exactly
        thetas = [CostParams(np.array([0.0, 0.0, 1.0]))] * 3
        demos = synth_generate(
            thetas, intersection_spec, 2, seed=1,
            solver_cfg=SolverConfig(entropy_temp=1e-300, eps_psd=1e-30),
        )
        ctx = PredictorContext(spec=intersection_spec, train_demos=demos)
        rep = evaluate_method("cv", "scene", demos, ctx)
        assert rep.ade < 1e-9

    def test_cv_equals_the_stepped_zero_action_bit_for_bit(self, intersection_spec, theta_star):
        # the zero tapes are integrated in closed form; the reference steps the
        # unbounded zero action through the state-feedback loop, as cv once did
        x0 = intersection_spec.x0.copy()
        x0[[1, 3]] = -0.0  # agent 0 starts at y = -0.0 with vy = -0.0
        other = replace(intersection_spec, x0=x0)
        demos = (synth_generate(theta_star, intersection_spec, 2, seed=1, solver_cfg=QUIET)
                 + synth_generate(theta_star, other, 3, seed=2, solver_cfg=QUIET))
        ctx = PredictorContext(spec=intersection_spec, train_demos=demos)
        got = make_predictor("cv", ctx)(demos)
        ref = metrics._rollout_state_feedback(
            demos, replace(intersection_spec, u_max=math.inf), lambda s: np.zeros_like(s[..., :2]))
        assert got.shape == ref.shape == (5, intersection_spec.horizon + 1, 3, 2)
        assert got.tobytes() == ref.tobytes()
        assert np.all(np.signbit(got[2:, 0, 0, 1]))

    @pytest.mark.parametrize("method", ["gmm", "ebm"])
    def test_fitted_predictors_equal_the_per_step_loop_bit_for_bit(
        self, intersection_spec, theta_star, method
    ):
        # reference: each step reads and writes one strided (n, 4k) slice of (n, T+1, 4k)
        spec = intersection_spec
        demos = synth_generate(theta_star, spec, 4, seed=1, solver_cfg=QUIET)
        ctx = PredictorContext(spec=spec, train_demos=demos)
        X, U = metrics._demo_state_action_pairs(demos)
        if method == "gmm":
            model = gmm_fit(np.concatenate([X, U], axis=1), K=ctx.gmm_components, seed=ctx.seed)
        else:
            params = ebm_train(X, U)

        def act(s):
            return gmm_conditional_mean(model, s, 4) if method == "gmm" else ebm_minimizer(params, s)

        x0 = RolloutSet.stack(demos).states[:, 0]
        n, T, k = len(demos), spec.horizon, spec.k
        states = np.empty((n, T + 1, 4 * k))
        states[:, 0] = x0
        for t in range(T):
            u = clamp_control(act(states[:, t].reshape(n, k, 4)), spec.u_max)
            states[:, t + 1] = propagate_joint(states[:, t], u, spec.dt)
        ref = states.reshape(n, T + 1, k, 4)[..., :2]
        assert make_predictor(method, ctx)(demos).tobytes() == ref.tobytes()

    def test_overflowing_errors_raise_cost_range_error(self, intersection_spec, theta_star):
        demos = synth_generate(theta_star, intersection_spec, 2, seed=1, solver_cfg=QUIET)
        states = demos[1].states.copy()
        states[0, 2, 0] = 1e160  # finite, but its square overflows
        far = demos[0] + RolloutSet.from_states(states, demos.dt)
        ctx = PredictorContext(spec=intersection_spec, train_demos=far)
        with pytest.raises(CostRangeError, match="displacement errors overflow") as info:
            evaluate_method("cv", "scene", far, ctx)
        assert info.value.source == "states"

    def test_irl_predictor_requires_thetas(self, intersection_spec, theta_star):
        demos = synth_generate(theta_star, intersection_spec, 2, seed=1, solver_cfg=QUIET)
        ctx = PredictorContext(spec=intersection_spec, train_demos=demos)
        with pytest.raises(ValidationError):
            make_predictor("mairl", ctx)

    def test_unknown_method(self, intersection_spec, theta_star):
        demos = synth_generate(theta_star, intersection_spec, 2, seed=1, solver_cfg=QUIET)
        ctx = PredictorContext(spec=intersection_spec, train_demos=demos)
        with pytest.raises(ValidationError):
            make_predictor("transformer", ctx)

    def test_mairl_predictor_close_at_true_weights(self, intersection_spec, theta_star):
        demos = synth_generate(theta_star, intersection_spec, 6, seed=1, solver_cfg=QUIET)
        ctx = PredictorContext(
            spec=intersection_spec, train_demos=demos, thetas=theta_star, solver=QUIET
        )
        rep = evaluate_method("mairl", "scene", demos, ctx)
        assert rep.ade < 0.1  # only residual policy noise separates them

    def test_best_of_n_improves_or_matches(self, intersection_spec, theta_star):
        demos = synth_generate(theta_star, intersection_spec, 4, seed=2, solver_cfg=QUIET)
        base = PredictorContext(
            spec=intersection_spec, train_demos=demos, thetas=theta_star, solver=QUIET
        )
        best5 = PredictorContext(
            spec=intersection_spec, train_demos=demos, thetas=theta_star, solver=QUIET,
            best_of=5, seed=3,
        )
        r1 = evaluate_method("mairl", "s", demos, base)
        r5 = evaluate_method("mairl", "s", demos, best5)
        assert r5.ade <= r1.ade + 0.02

    def test_demos_of_one_start_are_solved_and_rolled_out_once(
        self, intersection_spec, theta_star, monkeypatch
    ):
        demos = synth_generate(theta_star, intersection_spec, 4, seed=1, solver_cfg=QUIET)
        calls = {"build_policies": 0, "mean_rollout": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(metrics, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(metrics, name, counted)
        ctx = PredictorContext(
            spec=intersection_spec, train_demos=demos, thetas=theta_star, solver=QUIET
        )
        got = make_predictor("mairl", ctx)(demos)
        assert calls == {"build_policies": 1, "mean_rollout": 1}
        assert len({pred.tobytes() for pred in got}) == 1

    @pytest.mark.parametrize("best_of", [1, 3])
    def test_interleaved_starts_match_a_per_demo_solve(self, intersection_spec, theta_star, best_of):
        other = replace(intersection_spec, x0=intersection_spec.x0 + 0.05)
        a = synth_generate(theta_star, intersection_spec, 2, seed=1)
        b = synth_generate(theta_star, other, 2, seed=2)
        demos = RolloutSet.stack([a[0], b[0], a[1], b[1]])
        ctx = PredictorContext(spec=intersection_spec, train_demos=demos, thetas=theta_star,
                               best_of=best_of, seed=4)
        got = make_predictor("mairl", ctx)(demos)
        shape = (intersection_spec.horizon + 1, 3, 4)
        # reference: one solve and one rollout (set) per demonstration
        picks = []
        for demo, pred in zip(demos, got):
            demo_spec = replace(intersection_spec, x0=demo.states[0, 0])
            policies = build_policies(theta_star, demo_spec, ctx.solver)
            if best_of == 1:
                best = mean_rollout(policies, demo_spec)
            else:
                cands = sample_rollouts(policies, demo_spec, best_of, ctx.seed)
                errs = [np.mean([ade(_xy(c, i), _xy(demo, i)) for i in range(3)])
                        for c in cands]
                picks.append(int(np.argmin(errs)))
                best = cands[picks[-1]]
            assert pred.tobytes() == best.states.reshape(shape)[..., :2].tobytes()
        if best_of > 1:  # the two demos of the first start pick different rollouts of one set
            assert picks[0] != picks[2]


def rank_methods(reports):
    """Sort by aggregate ADE, breaking ties by FDE, then by label."""
    return sorted(reports, key=lambda r: (r.ade, r.fde, r.method))


def split_dataset(demos, train_frac=0.6, seed=0):
    """Seed-shuffled train/validation split (default 60-40)."""
    order = substream(seed, 0x5317).permutation(len(demos))
    cut = int(round(train_frac * len(demos)))
    return [demos[j] for j in order[:cut]], [demos[j] for j in order[cut:]]


def test_split_dataset_is_seeded_partition(intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 10, seed=4, solver_cfg=QUIET)
    train, val = split_dataset(demos, 0.6, seed=8)
    assert len(train) == 6 and len(val) == 4
    rows = {t.states.tobytes() for t in [*train, *val]}
    assert len(rows) == 10 and rows == {t.states.tobytes() for t in demos}
    train2, val2 = split_dataset(demos, 0.6, seed=8)
    assert [t.states.tobytes() for t in train] == [t.states.tobytes() for t in train2]
