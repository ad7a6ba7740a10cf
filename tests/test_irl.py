import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from crowdirl import irl as irl_module
from crowdirl import rng
from crowdirl.errors import SolverError, ValidationError
from crowdirl.features import CostParams, expected_features
from crowdirl.game import Game, SolverConfig, build_policies, mean_rollout, sample_rollouts
from crowdirl.irl import (
    SHARED_AGENT,
    IterationRecord,
    TrainingConfig,
    TrainingTrace,
    _training_game,
    infer_goals,
    multi_agent_irl,
    single_agent_maxent_irl,
)
from crowdirl.pipeline import synth_generate
from crowdirl.rng import derive_seed, start_normals
from crowdirl.trajectory import DEFAULT_SIGMA, AgentState, RolloutSet, ScenarioSpec

QUIET_SOLVER = SolverConfig(entropy_temp=1e-3)


def _cfg(**kw) -> TrainingConfig:
    base = dict(
        beta=0.03, max_iters=10, tol=0.0, M=8, seed=7,
        solver=QUIET_SOLVER,
    )
    base.update(kw)
    return TrainingConfig(**base)


def _matched_demos(spec, solver, M, seed):
    """Rollouts of the training start (all weights one) drawn with the first visit's seed."""
    policies = build_policies([CostParams.ones()] * spec.k, spec, solver)
    return sample_rollouts(policies, spec, M, derive_seed(seed, 0))


def test_update_theta_fixed_point_on_matched_features(single_agent_spec):
    cfg = _cfg(max_iters=1, M=6, seed=13)
    demos = _matched_demos(single_agent_spec, cfg.solver, cfg.M, cfg.seed)
    _, trace = multi_agent_irl(demos, single_agent_spec, cfg)
    rec = trace.records[0]
    assert np.all(rec.gap == 0.0)
    assert np.array_equal(rec.theta_after, rec.theta_before)


def _assert_projected_updates(trace, beta):
    """Every record moves theta with its gap and clips at zero, bit for bit."""
    last = {}
    for rec in trace.records:
        assert np.array_equal(rec.theta_after, np.maximum(rec.theta_before + beta * rec.gap, 0.0))
        assert rec.gap_norm == float(np.linalg.norm(rec.gap))
        if rec.agent in last:
            assert np.array_equal(rec.theta_before, last[rec.agent])
        last[rec.agent] = rec.theta_after


def test_update_theta_moves_with_the_gap(intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 4, seed=5, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=2, M=4)
    for train in (multi_agent_irl, single_agent_maxent_irl):
        _, trace = train(demos, intersection_spec, cfg)
        _assert_projected_updates(trace, cfg.beta)


def test_update_theta_clamps_at_orthant_boundary(intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 4, seed=5, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(beta=100.0, max_iters=1, M=4)
    for train in (multi_agent_irl, single_agent_maxent_irl):
        _, trace = train(demos, intersection_spec, cfg)
        _assert_projected_updates(trace, cfg.beta)
        clipped = [r for r in trace.records if np.any(r.theta_before + cfg.beta * r.gap < 0)]
        assert clipped and all(np.any(r.theta_after == 0.0) for r in clipped)


def test_infer_goals_mean_final_position(intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 6, seed=3, solver_cfg=QUIET_SOLVER)
    goals = infer_goals(demos)
    finals = np.mean(demos.states[:, -1], axis=0)
    for i in range(3):
        assert np.allclose(goals[i], finals[4 * i : 4 * i + 2])


@pytest.mark.parametrize("knob, value", [
    ("beta", 0.0), ("beta", -1.0), ("beta", float("inf")), ("beta", float("nan")),
    ("tol", -1.0), ("tol", float("inf")), ("tol", float("nan")),
])
def test_training_config_rejects_out_of_range_knobs(knob, value):
    with pytest.raises(ValidationError, match=f"{knob} must be"):
        _cfg(**{knob: value})
    _cfg(tol=0.0)  # the workloads train with --tol 0


@pytest.mark.parametrize("value", [2.5, True, 0])
@pytest.mark.parametrize("count", ["M", "max_iters"])
def test_training_counts_must_be_integers_of_at_least_one(count, value):
    # 2.5 used to construct and fail inside numpy during training
    with pytest.raises(ValidationError) as err:
        _cfg(**{count: value})
    assert str(err.value) == f"{count} must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("change", ["k", "T", "dt"])
def test_demonstrations_of_another_scene_shape_are_refused(intersection_spec, theta_star, change):
    demos = synth_generate(theta_star, intersection_spec, 2, seed=0, solver_cfg=QUIET_SOLVER)
    spec = {
        "k": ScenarioSpec(k=2, x0=intersection_spec.x0[:8], goals=intersection_spec.goals[:2],
                          horizon=30, dt=0.1),
        "T": replace(intersection_spec, horizon=29),
        "dt": replace(intersection_spec, dt=0.1 + 1e-13),  # a dt compares exactly, as the files' do
    }[change]
    for train in (multi_agent_irl, single_agent_maxent_irl):
        with pytest.raises(ValidationError) as err:
            train(demos, spec, _cfg(max_iters=1))
        assert str(err.value) == ("demonstrations (k=3, T=30, dt=0.1) do not match the scenario "
                                  f"(k={spec.k}, T={spec.horizon}, dt={spec.dt})")


def test_feature_gap_exactly_zero_on_matched_draws(intersection_spec):
    # Demos drawn from the game at the training start with the first visit's
    # seed: the first gap compares identical trajectory sets and is exactly
    # zero, but only if training solves the same game, outer
    # re-expansion included.
    solver = SolverConfig(entropy_temp=1e-3, max_outer_iters=3)
    cfg = _cfg(max_iters=1, M=6, seed=13, solver=solver)
    demos = _matched_demos(intersection_spec, solver, cfg.M, cfg.seed)
    for train in (multi_agent_irl, single_agent_maxent_irl):
        _, trace = train(demos, intersection_spec, cfg)
        assert np.all(trace.records[0].gap == 0.0), train.__name__


def test_feature_gap_zero_against_own_mean_rollout(single_agent_spec):
    cfg = _cfg(max_iters=1, M=4, solver=SolverConfig(entropy_temp=1e-300, eps_psd=1e-30))
    policies = build_policies([CostParams.ones()], single_agent_spec, cfg.solver)
    demo = mean_rollout(policies, single_agent_spec)
    _, trace = multi_agent_irl(demo, single_agent_spec, cfg)
    assert trace.records[0].gap_norm < 1e-9


def test_feature_gap_goal_component_sign(intersection_spec):
    # static demos stay far from the goals; goal-seeking policies end nearer:
    # policies accrue less goal_dist, so that gap component is negative.
    x0 = intersection_spec.x0
    static = np.tile(x0 * np.tile([1, 1, 0, 0], 3), (1, intersection_spec.horizon + 1, 1))
    demo = RolloutSet(static, np.zeros((1, intersection_spec.horizon, 3, 2)), intersection_spec.dt)
    cfg = _cfg(max_iters=1, M=4)
    for train in (multi_agent_irl, single_agent_maxent_irl):
        _, trace = train(demo, intersection_spec, cfg)
        assert all(r.gap[0] < 0 for r in trace.records)


def test_feature_gap_rejects_mismatched_dataset(single_agent_spec, intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 2, seed=0, solver_cfg=QUIET_SOLVER)
    for train in (multi_agent_irl, single_agent_maxent_irl):
        with pytest.raises(ValidationError):
            train(demos, single_agent_spec, _cfg())
        with pytest.raises(ValidationError):
            train(RolloutSet.stack([]), intersection_spec, _cfg())


def test_multi_agent_irl_reduces_gap(intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 10, seed=123, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=25, M=16)
    thetas, trace = multi_agent_irl(demos, intersection_spec, cfg)
    assert len(thetas) == 3
    assert all(np.all(t.weights >= 0) for t in thetas)
    # projection safety holds after every single update, not just at the end
    assert all(np.all(r.theta_after >= 0) for r in trace.records)
    per_sweep = trace.gap_norms().reshape(trace.sweeps, 3).max(axis=1)
    assert per_sweep[-1] < 0.35 * per_sweep[0]


def test_mairl_gaps_of_the_first_sweep_average_to_the_sairl_gap(intersection_spec, theta_star):
    # both learners start at all-ones weights and draw the sweep's one rollout
    # set with the same seed, so they measure the same per-agent rows
    demos = synth_generate(theta_star, intersection_spec, 5, seed=4, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=1, M=6)
    _, trace_m = multi_agent_irl(demos, intersection_spec, cfg)
    _, trace_s = single_agent_maxent_irl(demos, intersection_spec, cfg)
    gaps = np.array([r.gap for r in trace_m.records])
    assert gaps.shape == (3, 3) and not np.all(gaps == gaps[0])
    assert np.mean(gaps, axis=0).tobytes() == trace_s.records[0].gap.tobytes()


def test_jacobi_sweeps_settle_on_the_eight_agent_ring(ring8_spec):
    # every agent moves against the same joint sample at once; at beta = 0.1
    # the per-sweep max gap still falls without oscillating (5.1 -> 0.20 here)
    k = ring8_spec.k
    demos = synth_generate([CostParams(np.array([1.0, 0.5, 0.2]))] * k, ring8_spec, 8, seed=5,
                           solver_cfg=QUIET_SOLVER)
    _, trace = multi_agent_irl(demos, ring8_spec, _cfg(beta=0.1, max_iters=20, M=32))
    per_sweep = trace.gap_norms().reshape(trace.sweeps, k).max(axis=1)
    assert np.all(per_sweep[1:] < per_sweep[:-1] * 1.1)
    assert per_sweep[-1] < 0.1 * per_sweep[0]


def test_training_is_bitwise_reproducible(intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 5, seed=9, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=3, M=4)
    t1, tr1 = multi_agent_irl(demos, intersection_spec, cfg)
    t2, tr2 = multi_agent_irl(demos, intersection_spec, cfg)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.weights, b.weights)
    for r1, r2 in zip(tr1.records, tr2.records):
        assert np.array_equal(r1.gap, r2.gap)
        assert r1.gap_norm == r2.gap_norm


def test_k1_multi_and_single_agent_traces_coincide():
    spec = ScenarioSpec(
        k=1,
        x0=(AgentState(1.5, -0.5, -0.4, 0.2),),
        goals=np.array([[0.0, 0.0]]),
        horizon=12,
        dt=0.1,
    )
    theta_star = [CostParams(np.array([1.0, 0.0, 0.4]))]
    demos = synth_generate(theta_star, spec, 6, seed=21, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=6, M=6)
    thetas_m, trace_m = multi_agent_irl(demos, spec, cfg)
    theta_s, trace_s = single_agent_maxent_irl(demos, spec, cfg)
    assert np.array_equal(thetas_m[0].weights, theta_s.weights)
    assert len(trace_m.records) == len(trace_s.records)
    for rm, rs in zip(trace_m.records, trace_s.records):
        assert rm.agent == 0 and rs.agent == SHARED_AGENT
        assert np.array_equal(rm.gap, rs.gap)
        assert np.array_equal(rm.theta_after, rs.theta_after)


def test_convergence_flag_and_tolerance(intersection_spec, theta_star):
    demos = synth_generate(theta_star, intersection_spec, 5, seed=11, solver_cfg=QUIET_SOLVER)
    # enormous tolerance: converges after the first sweep
    cfg = _cfg(max_iters=50, tol=100.0)
    _, trace = multi_agent_irl(demos, intersection_spec, cfg)
    assert trace.converged and trace.sweeps == 1
    # zero tolerance: runs out the budget without converging
    cfg = _cfg(max_iters=2, tol=0.0)
    _, trace = multi_agent_irl(demos, intersection_spec, cfg)
    assert not trace.converged and trace.sweeps == 2


def test_trace_gap_norm_trend_on_recovery(intersection_spec, theta_star):
    """Median gap over the last tenth of updates is below the first tenth."""
    demos = synth_generate(theta_star, intersection_spec, 10, seed=42, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=20, M=16)
    _, trace = multi_agent_irl(demos, intersection_spec, cfg)
    norms = trace.gap_norms()
    tenth = max(1, len(norms) // 10)
    assert np.median(norms[-tenth:]) <= np.median(norms[:tenth])


def test_trace_jsonl_roundtrip(tmp_path, intersection_spec, theta_star):
    import json

    demos = synth_generate(theta_star, intersection_spec, 4, seed=2, solver_cfg=QUIET_SOLVER)
    _, trace = multi_agent_irl(demos, intersection_spec, _cfg(max_iters=2, M=4))
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(trace.records) + 1  # records + status line
    rec = json.loads(lines[0])
    assert set(rec) == {
        "sweep", "agent", "theta_before", "theta_after", "gap", "gap_norm",
        "conditioned_stages",
    }
    status = json.loads(lines[-1])
    assert status == {"converged": trace.converged, "sweeps": trace.sweeps}


def test_training_game_refits_under_the_training_clamp(intersection_spec, theta_star):
    solver = SolverConfig(entropy_temp=1e-3, max_outer_iters=4)
    demos = synth_generate(theta_star, intersection_spec, 4, seed=3, solver_cfg=solver)
    spec = replace(intersection_spec, u_max=1.0)
    game, _ = _training_game(demos, spec, _cfg(solver=solver))
    ref = build_policies([CostParams.ones()] * 3, spec, solver)
    assert np.array_equal(game.solve().nominal_states, ref.nominal_states)


# References: an independent Jacobi multi-agent loop (one solve and one rollout
# set per sweep, one expected_features call per agent, every theta set after
# the sweep) and the single-agent loop as it was before both learners shared
# one feature-matching loop.
def _reference_update(trace, sweep, agent, theta, gap, beta, policies):
    theta_new = CostParams(np.maximum(theta.weights + beta * gap, 0.0))
    trace.records.append(IterationRecord(
        sweep=sweep, agent=agent, theta_before=theta.weights.copy(),
        theta_after=theta_new.weights.copy(), gap=gap, gap_norm=float(np.linalg.norm(gap)),
        conditioned_stages=policies.diagnostics.conditioned_stages,
    ))
    return theta_new


def _reference_game(dataset, spec, cfg, sigma):
    """The training game at kernel width sigma, and the demo features with sigma passed explicitly."""
    game, _ = _training_game(dataset, replace(spec, sigma=sigma), cfg)
    return game, expected_features(dataset, range(spec.k), game.spec.goals, sigma)


def _reference_multi_agent_irl(dataset, spec, cfg, sigma=DEFAULT_SIGMA):
    game, demo_phi = _reference_game(dataset, spec, cfg, sigma)
    goals = game.spec.goals
    thetas = [CostParams.ones() for _ in range(spec.k)]
    trace = TrainingTrace()
    for sweep in range(cfg.max_iters):
        policies = game.solve()
        seed = derive_seed(cfg.seed, sweep)
        rollouts = sample_rollouts(policies, spec, cfg.M, seed)
        for i in range(spec.k):
            gap = expected_features(rollouts, [i], goals[[i]], sigma)[0] - demo_phi[i]
            thetas[i] = _reference_update(trace, sweep, i, thetas[i], gap, cfg.beta, policies)
        game.set_thetas(thetas)
        if trace.close_sweep(sweep, cfg.tol):
            break
    return thetas, trace


def _reference_single_agent_irl(dataset, spec, cfg, sigma=DEFAULT_SIGMA):
    game, demo_phi = _reference_game(dataset, spec, cfg, sigma)
    goals = game.spec.goals
    theta = CostParams.ones()
    trace = TrainingTrace()
    for sweep in range(cfg.max_iters):
        policies = game.solve()
        seed = derive_seed(cfg.seed, sweep)
        rollouts = sample_rollouts(policies, spec, cfg.M, seed)
        gaps = expected_features(rollouts, range(spec.k), goals, sigma) - demo_phi
        agg = np.mean(gaps, axis=0)
        theta = _reference_update(trace, sweep, SHARED_AGENT, theta, agg, cfg.beta, policies)
        game.set_thetas([theta] * spec.k)
        if trace.close_sweep(sweep, cfg.tol):
            break
    return [theta], trace


@pytest.mark.parametrize("train, reference", [
    (multi_agent_irl, _reference_multi_agent_irl),
    (single_agent_maxent_irl, _reference_single_agent_irl),
], ids=["mairl", "sairl"])
def test_shared_loop_equals_the_separate_loops_bit_for_bit(
    monkeypatch, intersection_spec, theta_star, train, reference
):
    demos = synth_generate(theta_star, intersection_spec, 5, seed=17, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=3, M=4)
    calls, set_thetas = [], Game.set_thetas
    monkeypatch.setattr(Game, "set_thetas",
                        lambda game, thetas: calls.append(len(thetas)) or set_thetas(game, thetas))
    got, trace = train(demos, intersection_spec, cfg)
    monkeypatch.undo()
    assert calls == [intersection_spec.k] * 3  # the game takes every agent's weights once per sweep
    ref, ref_trace = reference(demos, intersection_spec, cfg)
    got = got if isinstance(got, list) else [got]
    assert [t.weights.tobytes() for t in got] == [t.weights.tobytes() for t in ref]
    assert (trace.sweeps, trace.converged) == (ref_trace.sweeps, ref_trace.converged) == (3, False)
    assert len(trace.records) == len(ref_trace.records) == 3 * len(ref)
    for r, e in zip(trace.records, ref_trace.records):
        assert (r.sweep, r.agent, r.conditioned_stages) == (e.sweep, e.agent, e.conditioned_stages)
        assert r.gap.tobytes() == e.gap.tobytes() and r.gap_norm == e.gap_norm
        assert r.theta_before.tobytes() == e.theta_before.tobytes()
        assert r.theta_after.tobytes() == e.theta_after.tobytes()


@pytest.mark.parametrize("train, reference", [
    (multi_agent_irl, _reference_multi_agent_irl),
    (single_agent_maxent_irl, _reference_single_agent_irl),
], ids=["mairl", "sairl"])
def test_training_reads_the_kernel_width_of_its_scene(intersection_spec, theta_star, train, reference):
    demos = synth_generate(theta_star, intersection_spec, 5, seed=17, solver_cfg=QUIET_SOLVER)
    cfg = _cfg(max_iters=2, M=4)
    got, trace = train(demos, replace(intersection_spec, sigma=1.0), cfg)
    _, ref_trace = reference(demos, intersection_spec, cfg, sigma=1.0)
    _, default_trace = train(demos, intersection_spec, cfg)
    rows = [[r.theta_after.tobytes(), r.gap.tobytes()] for r in trace.records]
    assert rows == [[r.theta_after.tobytes(), r.gap.tobytes()] for r in ref_trace.records]
    assert rows != [[r.theta_after.tobytes(), r.gap.tobytes()] for r in default_trace.records]


@pytest.mark.parametrize("floor, cpus, on_helper", [
    (0, {0, 1}, True), (2**62, {0, 1}, False), (0, {0}, False),
], ids=["helper", "above-every-draw", "one-cpu"])
def test_training_on_the_ring_is_the_same_wherever_the_noise_is_drawn(
    monkeypatch, record_draw_threads, tmp_path, ring8_spec, floor, cpus, on_helper
):
    # a crowd-sized draw (k = 8, M = 128: 61,440 normals) on the helper, or
    # inline, gives the same weights and trace bytes as the reference loop
    demos = synth_generate([CostParams(np.array([1.0, 0.5, 0.2]))] * 8, ring8_spec, 8, seed=5,
                           solver_cfg=QUIET_SOLVER)
    cfg = _cfg(beta=0.01, max_iters=2, M=128)
    ref, ref_trace = _reference_multi_agent_irl(demos, ring8_spec, cfg)
    ref_trace.to_jsonl(tmp_path / "ref.jsonl")

    monkeypatch.setattr(rng, "HELPER_FLOOR", floor)
    monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: len(cpus))
    threads = record_draw_threads()
    samples = []
    sample = irl_module.sample_rollouts
    monkeypatch.setattr(irl_module, "sample_rollouts", lambda *a: samples.append(a) or sample(*a))
    got, trace = multi_agent_irl(demos, ring8_spec, cfg)
    trace.to_jsonl(tmp_path / "got.jsonl")

    assert [t.weights.tobytes() for t in got] == [t.weights.tobytes() for t in ref]
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert len(samples) == trace.sweeps == 2  # one sample_rollouts call per sweep
    assert [t is not threading.main_thread() for t in threads] == [on_helper] * 2


def test_a_solver_error_during_a_pending_draw_leaves_no_thread_behind(
    monkeypatch, two_cpus, record_draw_threads, intersection_spec, theta_star
):
    demos = synth_generate(theta_star, intersection_spec, 4, seed=3, solver_cfg=QUIET_SOLVER)
    monkeypatch.setattr(rng, "HELPER_FLOOR", 0)
    start_normals(0, (8,)).result()  # the helper thread exists before the call
    threads = record_draw_threads(delay=0.05)

    def failing_solve(self):
        deadline = time.monotonic() + 10
        while not threads and time.monotonic() < deadline:  # fail while the draw runs
            time.sleep(0.001)
        raise SolverError("no policy")

    monkeypatch.setattr(Game, "solve", failing_solve)
    before = threading.enumerate()
    with pytest.raises(SolverError, match="no policy"):
        multi_agent_irl(demos, intersection_spec, _cfg(max_iters=2))
    assert threading.active_count() == len(before)
    assert set(threading.enumerate()) == set(before)
    assert len(threads) == 1 and threads[0] is not threading.main_thread()
