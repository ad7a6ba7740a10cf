"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria involving training use the synthetic ground-truth harness:
demonstrations are generated from known cost weights and the learners must
match their feature expectations and predict held-out demonstrations.
"""
import time

import numpy as np

from crowdirl.baselines import EnergyParams, action_grid, ebm_argmin, ebm_train, gmm_fit
from crowdirl.cli import main, scenario_preset
from crowdirl.features import CostParams
from crowdirl.game import (
    SolverConfig,
    build_policies,
    condition_covariance,
    min_eigenvalue,
    solve_lq_game,
)
from crowdirl.irl import TrainingConfig, multi_agent_irl, single_agent_maxent_irl
from crowdirl.metrics import (
    PredictorContext,
    ade,
    evaluate_method,
    fde,
    rmse_cdf,
    trajectory_entropy,
)
from crowdirl.pipeline import (
    PreprocessConfig,
    Track,
    combinatorial_scenarios,
    filter_tracks,
    read_demonstrations,
    synth_generate,
    write_demonstrations,
)
from crowdirl.quadratic import expand_model_along
from crowdirl.trajectory import (
    AgentState,
    RolloutSet,
    ScenarioSpec,
    constant_velocity_rollout,
)
from fd_oracle import dense_arrays, double_integrator
from test_game import textbook_affine_lqr

HARNESS_SOLVER = SolverConfig(entropy_temp=1e-3, eps_psd=1e-6)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_solver_oracle_equivalence():
    start = time.perf_counter()
    spec = ScenarioSpec(
        k=1,
        x0=(AgentState(2.0, -1.0, 0.3, 0.1),),
        goals=np.array([[0.0, 0.0]]),
        horizon=10,
        dt=0.1,
    )
    theta = CostParams(np.array([1.0, 0.0, 1.0]))
    nominal = constant_velocity_rollout(spec)
    e = expand_model_along(nominal, [0], spec.goals, spec.sigma, theta.weights[None])
    policies = solve_lq_game(e, SolverConfig(), nominal=nominal)
    A, B = double_integrator(1, spec.dt)
    T = spec.horizon
    Q, q, _ = (x[:, 0] for x in dense_arrays(e))
    gains, ffs = textbook_affine_lqr(A, B[0], Q[:T], q[:T], [e.R[0] * np.eye(2)] * T, e.r[:, 0], Q[T], q[T])
    err = max(
        max(np.max(np.abs(policies.K[t, 0] - gains[t])) for t in range(10)),
        max(np.max(np.abs(policies.kff[t, 0] + ffs[t])) for t in range(10)),
    )
    elapsed = time.perf_counter() - start
    _report(1, "solver-oracle equivalence", err < 1e-8 and elapsed < 1.0,
            f"max err {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_decoupling_equality(intersection_spec):
    start = time.perf_counter()
    theta = CostParams(np.array([1.0, 0.0, 0.2]))
    joint = build_policies([theta] * 3, intersection_spec)
    worst = 0.0
    for i in range(3):
        sub = ScenarioSpec(
            k=1,
            x0=intersection_spec.x0[4 * i : 4 * i + 4],
            goals=intersection_spec.goals[i : i + 1],
            horizon=intersection_spec.horizon,
            dt=intersection_spec.dt,
        )
        solo = build_policies([theta], sub)
        own = joint.K[:, i, :, 4 * i : 4 * i + 4]
        cross = np.delete(joint.K[:, i], np.s_[4 * i : 4 * i + 4], axis=-1)
        worst = max(
            worst,
            float(np.max(np.abs(own - solo.K[:, 0]))),
            float(np.max(np.abs(cross))),
            float(np.max(np.abs(joint.kff[:, i] - solo.kff[:, 0]))),
            float(np.max(np.abs(joint.Sigma[:, i] - solo.Sigma[:, 0]))),
        )
    elapsed = time.perf_counter() - start
    _report(2, "decoupling equality", worst < 1e-9 and elapsed < 1.0,
            f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_conditioning_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    eps = 1e-6
    ok = True
    for _ in range(1000):
        lam = rng.uniform(-5.0, 5.0, size=2)
        ang = rng.uniform(0.0, np.pi)
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        S = R @ np.diag(lam) @ R.T
        S = 0.5 * (S + S.T)
        out = condition_covariance(S, eps)
        lam_out = min_eigenvalue(out)
        shift = float((out - S)[0, 0])
        ok &= lam_out >= eps - 1e-12
        ok &= np.allclose(condition_covariance(out, eps), out, atol=1e-15)
        lam_in = float(np.linalg.eigvalsh(S)[0])
        if lam_in < eps:
            ok &= shift - (eps - lam_in) <= 1e-12
        else:
            ok &= shift == 0.0
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(3, "conditioning suite", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _recovery_harness(theta_star, seed=123):
    """Train both learners on 20 demos and evaluate on 10 held-out ones."""
    spec = scenario_preset("intersection_k3")
    all_demos = synth_generate(theta_star, spec, 30, seed=seed, solver_cfg=HARNESS_SOLVER)
    train, held = all_demos[:20], all_demos[20:]
    cfg = TrainingConfig(
        beta=0.03, max_iters=80, tol=0.0, M=32, seed=7,
        solver=HARNESS_SOLVER,
    )
    thetas_m, trace_m = multi_agent_irl(train, spec, cfg)
    theta_s, trace_s = single_agent_maxent_irl(train, spec, cfg)
    ctx_m = PredictorContext(spec=spec, train_demos=train, thetas=thetas_m,
                             solver=HARNESS_SOLVER)
    ctx_s = PredictorContext(spec=spec, train_demos=train, thetas=[theta_s] * spec.k,
                             solver=HARNESS_SOLVER)
    rep_m = evaluate_method("mairl", "intersection", held, ctx_m)
    rep_s = evaluate_method("sairl", "intersection", held, ctx_s)
    gaps = trace_m.gap_norms().reshape(trace_m.sweeps, spec.k).max(axis=1)
    return gaps, rep_m, rep_s


def test_criterion_4_ground_truth_recovery(theta_star):
    start = time.perf_counter()
    gaps, rep_m, _ = _recovery_harness(theta_star)
    elapsed = time.perf_counter() - start
    ratio = gaps[-1] / gaps[0]
    ok = ratio <= 0.10 and rep_m.ade <= 0.15 and elapsed <= 300.0
    _report(4, "ground-truth recovery", ok,
            f"gap {gaps[0]:.3f}->{gaps[-1]:.3f} (ratio {ratio:.3f}), "
            f"held-out ADE {rep_m.ade:.3f} m, {elapsed:.0f}s")


def test_criterion_5_multi_vs_single_agent():
    hetero = [
        CostParams(np.array([1.6, 0.1, 0.15])),
        CostParams(np.array([0.5, 2.5, 0.3])),
        CostParams(np.array([1.0, 0.8, 0.6])),
    ]
    _, rep_m, rep_s = _recovery_harness(hetero, seed=321)
    ok = rep_m.ade <= 0.8 * rep_s.ade
    _report(5, "multi- vs single-agent dominance", ok,
            f"multi {rep_m.ade:.3f} m vs single {rep_s.ade:.3f} m "
            f"(ratio {rep_m.ade / rep_s.ade:.2f})")


def test_criterion_6_metric_exactness():
    gt = np.zeros((5, 2))
    offset = gt + [3.0, 4.0]
    ok = abs(ade(offset, gt) - 5.0) <= 1e-12 and abs(fde(offset, gt) - 5.0) <= 1e-12
    series = rmse_cdf([1.0, 3.0, 2.0, 0.5], [0.0, 0.5, 2.0, 5.0])
    ok &= series.fractions.tolist() == [0.0, 0.25, 0.75, 1.0]
    width = 2 * np.pi / 8
    centers = [-np.pi + (j + 0.5) * width for j in range(8)]
    states = np.zeros((len(centers) * 2, 4))
    for t, h in enumerate(centers * 2):
        states[t, 2:] = [np.cos(h), np.sin(h)]
    traj = RolloutSet(states[None], np.zeros((1, len(centers) * 2 - 1, 1, 2)), 0.1)
    ent = trajectory_entropy(traj, bins=8)
    ok &= ent.bits == 3.0
    _report(6, "metric exactness", bool(ok), f"entropy {ent.bits} bits")


def test_criterion_7_gmm_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    samples = np.concatenate(
        [rng.normal(-5.0, 1.0, (1000, 1)), rng.normal(5.0, 1.0, (1000, 1))]
    )
    model = gmm_fit(samples, K=2, seed=9)
    mus = np.sort(model.means.ravel())
    elapsed = time.perf_counter() - start
    ok = (
        abs(mus[0] + 5.0) < 0.1
        and abs(mus[1] - 5.0) < 0.1
        and bool(np.all(np.diff(model.log_likelihoods) >= -1e-9))
        and elapsed < 10.0
    )
    _report(7, "gmm oracle", ok, f"means {mus.round(3).tolist()}, {elapsed:.2f}s")


def test_criterion_8_ebm_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    L = np.array([[0.4, -0.8, 0.1, 0.3], [0.2, 0.5, -0.6, 0.0]])
    b = np.array([0.25, -0.4])
    X = rng.standard_normal((300, 4))
    params = ebm_train(X, X @ L.T + b)
    fit_err = max(float(np.max(np.abs(params.L - L))), float(np.max(np.abs(params.b - b))))

    probe = EnergyParams(W=np.eye(2), L=np.zeros((2, 2)), b=np.array([0.1, -0.2]))
    first_order = True
    for n in (11, 21, 41, 81):
        spacing = 6.0 / (n - 1)
        pick = ebm_argmin(probe, np.zeros(2), action_grid(-3.0, 3.0, n))
        first_order &= bool(np.max(np.abs(pick - probe.b)) <= 0.5 * spacing + 1e-12)
    elapsed = time.perf_counter() - start
    ok = fit_err < 1e-8 and first_order and elapsed < 5.0
    _report(8, "ebm oracle", ok, f"fit err {fit_err:.2e}, {elapsed:.2f}s")


def test_criterion_9_pipeline_laws(tmp_path, intersection_spec, theta_star):
    # catalog size law at the 4 x 5^3 configuration
    n, length = 5, 40
    line = np.linspace(0.0, 4.0, length)
    flat = np.zeros(length)
    shapes = {"E": (line, flat), "W": (-line, flat), "N": (flat, line), "S": (flat, -line)}

    def mk(d, j):
        xs, ys = shapes[d]
        vx = np.gradient(xs, 0.1)
        vy = np.gradient(ys, 0.1)
        return Track(f"{d}{j}", 0.0, 0.1, np.stack([xs + 0.01 * j, ys, vx, vy], axis=1))

    groups = {d: [mk(d, j) for j in range(n)] for d in "EWNS"}
    catalog = combinatorial_scenarios(
        groups, ["W-E-S", "W-E-N", "S-N-W", "S-N-E"], T=30
    )
    ok = catalog.size == 500

    # clip window enforcement
    cfg = PreprocessConfig()
    xs = np.linspace(-30.0, 30.0, 121)
    ys = np.linspace(-20.0, 25.0, 121)
    wide = Track("wide", 0.0, 0.1, np.stack(
        [xs, ys, np.gradient(xs, 0.1), np.gradient(ys, 0.1)], axis=1))
    kept = filter_tracks({"wide": wide}, cfg)
    for trk in kept.values():
        ok &= bool(np.all((trk.states[:, 0] >= -20) & (trk.states[:, 0] <= 20)))
        ok &= bool(np.all((trk.states[:, 1] >= -10) & (trk.states[:, 1] <= 15)))
    ok &= bool(kept)

    # interchange round trip
    demos = synth_generate(theta_star, intersection_spec, 5, seed=3, solver_cfg=HARNESS_SOLVER)
    path = tmp_path / "demos.traj"
    write_demonstrations(path, demos, intersection_spec.goals, {})
    back, _ = read_demonstrations(path)
    rt = max(float(np.max(np.abs(a.states - b.states))) for a, b in zip(demos, back))
    ok &= rt < 1e-9
    _report(9, "pipeline laws", bool(ok), f"catalog {catalog.size}, round trip {rt:.1e}")


def test_criterion_10_cli_determinism(tmp_path):
    demos = tmp_path / "demos.traj"
    rc = main(["--seed", "11", "--entropy-temp", "0.001", "synth", str(demos),
               "--preset", "intersection_k3", "--n", "8"])
    assert rc == 0
    blobs = []
    for run in ("a", "b", "c"):
        theta = tmp_path / f"theta_{run}.json"
        trace = tmp_path / f"trace_{run}.jsonl"
        rc = main(["--seed", "0", "--entropy-temp", "0.001",
                   "--beta", "0.03", "--rollouts", "8", "--iters", "5", "--tol", "0",
                   "train", str(demos), "--method", "mairl",
                   "--out", str(theta), "--trace-out", str(trace)])
        assert rc in (0, 3)
        blobs.append((theta.read_bytes(), trace.read_bytes()))
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(10, "cli determinism", ok,
            "theta+trace byte-identical across three repeat runs")
