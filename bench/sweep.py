"""Informational layer sweep over agent count k and rollout count M.

Never part of a gated run. On the ring scene of crowd_k8 it records the
per-call time of expand_model_along (one agent), solve_lq_game (all agents),
and sample_rollouts and expected_features (one agent's features over the
rollouts) for k in {2, 3, 5, 8, 12} and M in {8, 32, 128}, so layer
optimisations can be sized against a measured curve.

    python3 bench/sweep.py > bench/layer_sweep.json

Prints one JSON document: machine facts plus one row per point, each with
its REPS samples and their median. Progress goes to stderr.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time
from types import SimpleNamespace

from run import BLAS_ENV, SRC, _facts

KS = (2, 3, 5, 8, 12)
MS = (8, 32, 128)
REPS = 3
SEED = 1


def _timed(fn, *args):
    samples, result = [], None
    for _ in range(REPS):
        start = time.perf_counter()
        result = fn(*args)
        samples.append(time.perf_counter() - start)
    return samples, result


def sweep() -> dict:
    import numpy as np
    from crowdirl.features import CostParams, ProximityConfig, expected_features, stage_cost_models
    from crowdirl.game import SolverConfig, sample_rollouts, solve_lq_game
    from crowdirl.quadratic import expand_model_along, linearize_dynamics
    from crowdirl.trajectory import constant_velocity_rollout

    from inputs import ring_spec

    solver = SolverConfig(entropy_temp=1e-3, eps_psd=1e-6)
    rows = []

    def row(layer, k, m, samples):
        rows.append({"layer": layer, "k": k, "M": m, "median_s": statistics.median(samples),
                     "samples_s": samples})

    for k in KS:
        spec = ring_spec(k, SEED)
        models = stage_cost_models([CostParams(np.array([1.0, 0.5, 0.2]))] * k, spec, ProximityConfig())
        nominal = constant_velocity_rollout(spec)
        samples, _ = _timed(expand_model_along, models[0], nominal)
        row("expand_model_along", k, None, samples)
        expansions = [expand_model_along(m, nominal) for m in models]
        dyn = linearize_dynamics(k, spec.dt)
        samples, policies = _timed(
            lambda: solve_lq_game(dyn, [e[0] for e in expansions], solver,
                                  terminal=[e[1] for e in expansions], nominal=nominal))
        row("solve_lq_game", k, None, samples)
        for m in MS:
            samples, rollouts = _timed(sample_rollouts, policies, spec, m, SEED)
            row("sample_rollouts", k, m, samples)
            samples, _ = _timed(expected_features, rollouts, 0, spec.goals[0])
            row("expected_features", k, m, samples)
        print(f"k={k} done", file=sys.stderr, flush=True)
    facts = _facts(SimpleNamespace(workload="layer_sweep", seed=SEED, trace=0))
    return {"facts": {**facts, "reps": REPS}, "rows": rows}


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    print(json.dumps(sweep(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
