"""Feature-matching inverse reinforcement learning over game rollouts.

The multi-agent variant runs block coordinate descent: agents are visited in
a fixed round-robin order, and each visit re-solves the game at the current
weights, samples rollouts, measures that agent's feature-expectation gap
against the demonstrations, and moves only that agent's weights along the
gap. The single-agent variant shares one weight vector across all agents and
aggregates their gaps before each update.

Weights multiply cost features, so matching requires moving *with* the gap:
if the policy accrues more of a feature than the experts do, that feature
must become more expensive. Updates are projected onto the nonnegative
orthant to keep every agent's control cost convex.

Both loops build their costs with `stage_cost_models` and solve through one
`game.Game`, the same game synthesis and evaluation solve (outer
re-expansion under `solver.max_outer_iters` included), and take feature
expectations from `features.expected_features`. Each update record in
the trace holds the sampled gap and theta_after = max(theta_before +
beta * gap, 0).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .features import (
    CostParams,
    ProximityConfig,
    expected_features,
    stage_cost_models,
)
from .game import Game, SolverConfig, sample_rollouts
from .game import solve_lq_game  # noqa: F401  re-exported; bench/tests checks this alias
from .rng import derive_seed
from .trajectory import DEFAULT_U_MAX, ScenarioSpec, Trajectory

SHARED_AGENT = -1  # trace marker for updates of a shared weight vector


@dataclass(frozen=True)
class TrainingConfig:
    """Learning-rate, budget and sampling knobs of the training loop."""

    beta: float = 3e-4
    max_iters: int = 500
    tol: float = 1e-3
    M: int = 32
    seed: int = 0
    u_max: float = DEFAULT_U_MAX
    solver: SolverConfig = field(default_factory=SolverConfig)
    proximity: ProximityConfig = field(default_factory=ProximityConfig)

    def __post_init__(self):
        if not self.beta > 0:
            raise ValidationError(f"beta must be positive, got {self.beta!r}")
        if self.M < 1:
            raise ValidationError(f"M must be >= 1, got {self.M}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    """One coordinate update: which agent moved, from where to where, and why."""

    sweep: int
    agent: int  # SHARED_AGENT for single-agent (shared theta) updates
    theta_before: np.ndarray
    theta_after: np.ndarray
    gap: np.ndarray
    gap_norm: float
    conditioned_stages: int

    def as_dict(self) -> dict:
        return {
            "sweep": self.sweep,
            "agent": self.agent,
            "theta_before": [float(v) for v in self.theta_before],
            "theta_after": [float(v) for v in self.theta_after],
            "gap": [float(v) for v in self.gap],
            "gap_norm": float(self.gap_norm),
            "conditioned_stages": self.conditioned_stages,
        }


@dataclass
class TrainingTrace:
    """Full update history plus the final convergence status."""

    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    sweeps: int = 0

    def gap_norms(self) -> np.ndarray:
        return np.array([r.gap_norm for r in self.records])

    def sweep_max_gap(self, sweep: int) -> float:
        norms = [r.gap_norm for r in self.records if r.sweep == sweep]
        return max(norms) if norms else float("inf")

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.as_dict(), sort_keys=True) + "\n")
            fh.write(
                json.dumps(
                    {"converged": self.converged, "sweeps": self.sweeps},
                    sort_keys=True,
                )
                + "\n"
            )


def _apply_update(theta: CostParams, gap: np.ndarray, beta: float) -> CostParams:
    return CostParams(theta.weights + beta * gap).project_nonneg()


def infer_goals(dataset: Sequence[Trajectory]) -> np.ndarray:
    """Per-agent goal estimate: mean final demonstrated position."""
    if not dataset:
        raise ValidationError("cannot infer goals from an empty dataset")
    finals = np.stack([traj.states[-1] for traj in dataset])  # (N, 4k)
    k = finals.shape[1] // 4
    return np.stack([finals[:, 4 * i : 4 * i + 2].mean(axis=0) for i in range(k)])


def _check_dataset(dataset: Sequence[Trajectory], spec: ScenarioSpec) -> None:
    if not dataset:
        raise ValidationError("demonstration dataset is empty")
    for traj in dataset:
        if traj.k != spec.k or traj.horizon != spec.horizon:
            raise ValidationError(
                f"demonstration with k={traj.k}, T={traj.horizon} does not match "
                f"scenario k={spec.k}, T={spec.horizon}"
            )
        if abs(traj.dt - spec.dt) > 1e-12:
            raise ValidationError(f"demonstration dt={traj.dt} != scenario dt={spec.dt}")


def _training_game(
    dataset: Sequence[Trajectory], spec: ScenarioSpec, cfg: TrainingConfig
) -> tuple[Game, list[np.ndarray]]:
    """Game at the all-ones start weights (goals inferred if the spec has none), plus demo features."""
    _check_dataset(dataset, spec)
    if spec.goals is None:
        spec = spec.with_goals(infer_goals(dataset))
    models = stage_cost_models([CostParams.ones()] * spec.k, spec, cfg.proximity)
    demo_phi = [
        expected_features(dataset, i, spec.goals[i], cfg.proximity).as_array()
        for i in range(spec.k)
    ]
    return Game(models, spec, cfg.solver), demo_phi


def multi_agent_irl(
    dataset: Sequence[Trajectory],
    spec: ScenarioSpec,
    cfg: TrainingConfig = TrainingConfig(),
) -> tuple[list[CostParams], TrainingTrace]:
    """Block coordinate descent over per-agent weight vectors.

    Deterministic given (dataset, cfg): each (sweep, agent) visit rolls out
    with a seed derived from (cfg.seed, sweep, agent). Non-convergence within
    cfg.max_iters sweeps is reported via trace.converged, not an error.
    """
    game, demo_phi = _training_game(dataset, spec, cfg)
    goals = game.spec.goals
    thetas = [CostParams.ones() for _ in range(spec.k)]

    trace = TrainingTrace()
    for sweep in range(cfg.max_iters):
        for i in range(spec.k):
            policies = game.solve()
            rollouts = sample_rollouts(
                policies, spec, cfg.M, derive_seed(cfg.seed, sweep, i), cfg.u_max
            )
            phi = expected_features(rollouts, i, goals[i], cfg.proximity).as_array()
            gap = phi - demo_phi[i]
            theta_new = _apply_update(thetas[i], gap, cfg.beta)
            trace.records.append(
                IterationRecord(
                    sweep=sweep,
                    agent=i,
                    theta_before=thetas[i].weights.copy(),
                    theta_after=theta_new.weights.copy(),
                    gap=gap,
                    gap_norm=float(np.linalg.norm(gap)),
                    conditioned_stages=policies.diagnostics.conditioned_stages,
                )
            )
            thetas[i] = theta_new
            game.set_theta(i, theta_new)
        trace.sweeps = sweep + 1
        if trace.sweep_max_gap(sweep) < cfg.tol:
            trace.converged = True
            break
    return thetas, trace


def single_agent_maxent_irl(
    dataset: Sequence[Trajectory],
    spec: ScenarioSpec,
    cfg: TrainingConfig = TrainingConfig(),
) -> tuple[CostParams, TrainingTrace]:
    """Shared-weight variant: one theta builds every agent's cost.

    Per sweep the game is solved once, one rollout set is drawn, each agent's
    gap is measured and the mean gap drives a single shared update.
    """
    game, demo_phi = _training_game(dataset, spec, cfg)
    goals = game.spec.goals
    theta = CostParams.ones()

    trace = TrainingTrace()
    for sweep in range(cfg.max_iters):
        policies = game.solve()
        rollouts = sample_rollouts(
            policies, spec, cfg.M, derive_seed(cfg.seed, sweep, 0), cfg.u_max
        )
        gaps = [
            expected_features(rollouts, i, goals[i], cfg.proximity).as_array() - demo_phi[i]
            for i in range(spec.k)
        ]
        agg = np.mean(gaps, axis=0)
        theta_new = _apply_update(theta, agg, cfg.beta)
        trace.records.append(
            IterationRecord(
                sweep=sweep,
                agent=SHARED_AGENT,
                theta_before=theta.weights.copy(),
                theta_after=theta_new.weights.copy(),
                gap=agg,
                gap_norm=float(np.linalg.norm(agg)),
                conditioned_stages=policies.diagnostics.conditioned_stages,
            )
        )
        theta = theta_new
        for i in range(spec.k):
            game.set_theta(i, theta)
        trace.sweeps = sweep + 1
        if trace.sweep_max_gap(sweep) < cfg.tol:
            trace.converged = True
            break
    return theta, trace
