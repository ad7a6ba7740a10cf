"""Feature-matching inverse reinforcement learning over game rollouts.

Both learners run one loop of Jacobi sweeps over one (blocks, 3) weight
array and a map from each agent to its block. A sweep solves the game once,
samples one rollout set from it, measures every agent's feature-expectation
gap against the demonstrations under that one joint sample, and moves each
block's weights along the mean gap of its agents; the game takes all the new
weights at the end of the sweep. The multi-agent variant gives every agent
its own block; the single-agent variant ties all agents to one block.

Weights multiply cost features, so matching requires moving *with* the gap:
if the policy accrues more of a feature than the experts do, that feature
must become more expensive. Each sweep's step is projected once onto the
nonnegative orthant, the weights `features.CostParams` admits, which keeps
every agent's control cost convex.

The loop hands its weight vectors to one `game.Game` (the game synthesis
and evaluation solve, outer re-expansion included), all of them in one
`Game.set_thetas` call per sweep, and takes every agent's row from one
`features.expected_features` call per sweep; the
demonstrations, one `RolloutSet`, are featurized once, both at the scene's
kernel width `spec.sigma`. A sweep's noise draw depends only on
(cfg.seed, sweep), so it starts before the game is solved: one of at least
`rng.HELPER_FLOOR` normals (61,440 at k = 8, M = 128) fills on one helper
thread during the solve, a smaller one fills inline in `sample_rollouts`.
The bits are those of an inline draw. Each update record in the trace holds the sampled
gap and theta_after = max(theta_before + beta * gap, 0); the records of a
sweep share its solve.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .features import NUM_FEATURES, CostParams, expected_features
from .game import Game, SolverConfig, sample_rollouts
from .game import solve_lq_game  # noqa: F401  re-exported; bench/tests checks this alias
from .rng import check_key, derive_seed, start_normals
from .trajectory import CONTROL_DIM, RolloutSet, ScenarioSpec, check_count, check_real

SHARED_AGENT = -1  # trace marker for updates of a shared weight vector


@dataclass(frozen=True)
class TrainingConfig:
    """Learning-rate, budget and sampling knobs of the training loop.

    The control bound of the sampled rollouts is the scenario's spec.u_max,
    and the crowding kernel width of every feature is its spec.sigma.
    """

    beta: float = 3e-4
    max_iters: int = 500
    tol: float = 1e-3
    M: int = 32
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        object.__setattr__(self, "beta", check_real(self.beta, "beta must be positive and finite, got {!r}"))
        object.__setattr__(self, "tol", check_real(
            self.tol, "tol must be nonnegative and finite, got {!r}", positive=False))
        check_count("M", self.M)
        check_count("max_iters", self.max_iters)
        check_key(self.seed)


@dataclass(frozen=True)
class IterationRecord:
    """One block update: which agent moved, from where to where, and why."""

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

    def conditioned_stages(self) -> int:
        """Repaired covariance stages of all solves; the records of a sweep share one."""
        return sum({r.sweep: r.conditioned_stages for r in self.records}.values())

    def close_sweep(self, sweep: int, tol: float) -> bool:
        """Count the sweep; converged once its largest gap norm is below tol."""
        self.sweeps = sweep + 1
        self.converged = self.sweep_max_gap(sweep) < tol
        return self.converged

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


def infer_goals(demos: RolloutSet) -> np.ndarray:
    """Per-agent goal estimate: mean final demonstrated position."""
    finals = demos.states[:, -1]  # (N, 4k)
    return finals.reshape(len(finals), -1, 4)[..., :2].mean(axis=0)


def _training_game(
    demos: RolloutSet, spec: ScenarioSpec, cfg: TrainingConfig
) -> tuple[Game, np.ndarray]:
    """All-ones start game (goals inferred if the spec has none) and the (k, 3) demo features."""
    if (demos.k, demos.horizon, demos.dt) != (spec.k, spec.horizon, spec.dt):
        raise ValidationError(
            f"demonstrations (k={demos.k}, T={demos.horizon}, dt={demos.dt}) do not match "
            f"the scenario (k={spec.k}, T={spec.horizon}, dt={spec.dt})"
        )
    if spec.goals is None:
        spec = replace(spec, goals=infer_goals(demos))
    demo_phi = expected_features(demos, range(spec.k), spec.goals, spec.sigma)
    return Game([CostParams.ones()] * spec.k, spec, cfg.solver), demo_phi


def _feature_matching(
    demos: RolloutSet, spec: ScenarioSpec, cfg: TrainingConfig, shared: bool
) -> tuple[list[CostParams], TrainingTrace]:
    """The one training loop: Jacobi sweeps over one (blocks, 3) weight array.

    owner[i] is agent i's block: its own, or block 0 when shared. A sweep
    solves the game once, samples one rollout set seeded from (cfg.seed,
    sweep), steps every block along its agents' mean feature gap, projects
    the step once onto what `CostParams` admits, max(step, 0), and hands the
    game weights[owner] in one `set_thetas` call.
    """
    game, demo_phi = _training_game(demos, spec, cfg)
    owner = np.zeros(spec.k, dtype=int) if shared else np.arange(spec.k)
    weights = np.ones((owner[-1] + 1, NUM_FEATURES))

    trace = TrainingTrace()
    shape = (cfg.M, spec.horizon, spec.k, CONTROL_DIM)
    for sweep in range(cfg.max_iters):
        seed = derive_seed(cfg.seed, sweep)
        noise = start_normals(seed, shape)  # a large draw fills on the helper during the solve
        policies = game.solve()
        rollouts = sample_rollouts(policies, spec, cfg.M, seed, noise)
        del noise  # its normals are in the rollouts; one array less under the features
        gaps = expected_features(rollouts, range(spec.k), game.spec.goals, game.spec.sigma) - demo_phi
        del rollouts  # one rollout set alive at a time keeps the peak memory down
        if shared:
            gaps = np.mean(gaps, axis=0, keepdims=True)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step is refused next
            step = weights + cfg.beta * gaps
        if not np.all(np.isfinite(step)):
            raise ValidationError(f"beta {cfg.beta!r} overflows the weight step of sweep {sweep}")
        before, weights = weights, np.maximum(step, 0.0)
        for b, gap in enumerate(gaps):
            trace.records.append(IterationRecord(
                sweep=sweep, agent=SHARED_AGENT if shared else b,  # at k = 1 the labels differ
                theta_before=before[b].copy(), theta_after=weights[b].copy(), gap=gap.copy(),
                gap_norm=float(np.linalg.norm(gap)),
                conditioned_stages=policies.diagnostics.conditioned_stages,
            ))
        game.set_thetas([CostParams(w) for w in weights[owner]])
        if trace.close_sweep(sweep, cfg.tol):
            break
    return [CostParams(w) for w in weights], trace


def multi_agent_irl(
    demos: RolloutSet,
    spec: ScenarioSpec,
    cfg: TrainingConfig = TrainingConfig(),
) -> tuple[list[CostParams], TrainingTrace]:
    """Jacobi feature matching over per-agent weight vectors.

    Every sweep solves the game once and draws one rollout set, seeded from
    (cfg.seed, sweep); each agent's theta moves along its own feature gap
    under that joint sample. Deterministic given (demos, cfg).
    Non-convergence within cfg.max_iters sweeps is reported via
    trace.converged, not an error.
    """
    return _feature_matching(demos, spec, cfg, shared=False)


def single_agent_maxent_irl(
    demos: RolloutSet,
    spec: ScenarioSpec,
    cfg: TrainingConfig = TrainingConfig(),
) -> tuple[CostParams, TrainingTrace]:
    """Shared-weight variant: one theta builds every agent's cost.

    Per sweep the game is solved once, one rollout set is drawn, each agent's
    gap is measured and the mean gap drives a single shared update.
    """
    (theta,), trace = _feature_matching(demos, spec, cfg, shared=True)
    return theta, trace
