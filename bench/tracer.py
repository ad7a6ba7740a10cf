"""Span tracing of crowdirl's layers from outside the package.

A `Tracer` replaces each traced function with a wrapper in every crowdirl
module that holds a reference to it, so calls made through any import path
are recorded (for example `solve_lq_game` in both `game` and `irl`). Spans
(name, start, end, parent) stay in memory until the run ends; counts are
taken at the same boundaries. Leaving the `with` block restores every
original binding. A traced name the package no longer defines is listed in
`missing`, so a renamed entry point shows instead of reading as zero time.
"""
from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # "module.attr" names patch() could not find

    # --- recording ------------------------------------------------------------

    def wrap(self, func, name, on_call=None):
        """Wrapper recording one span per call; `name` may be a callable of args.

        on_call(counts, args, kwargs, result) runs after the span has closed.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name(args) if callable(name) else name, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if on_call is not None:
                on_call(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def count_only(self, func, on_call):
        """Wrapper that records counts but no span (for very hot helpers)."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            on_call(counts, args, kwargs, result)
            return result

        counted.__wrapped__ = func
        return counted

    def patch(self, module, attr: str, wrapper_factory) -> None:
        """Rebind module.attr, and every crowdirl alias of it, to a wrapper.

        A name the module no longer has is recorded in `missing`.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = wrapper_factory(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "crowdirl" or mod_name.startswith("crowdirl.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # --- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        own = self.self_times()
        agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s, self_s in zip(self.spans, own):
            row = agg[s[NAME]]
            row[0] += 1
            row[1] += s[END] - s[START]
            row[2] += self_s
        return {k: tuple(v) for k, v in agg.items()}

    def count_under(self, name: str, ancestor_prefix: str) -> int:
        """Spans called `name` with an ancestor whose name starts with the prefix."""
        n = 0
        for s in self.spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p >= 0 and not self.spans[p][NAME].startswith(ancestor_prefix):
                p = self.spans[p][PARENT]
            n += p >= 0
        return n

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end (s, from the first span), parent."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    f'{{"id": {i}, "name": "{s[NAME]}", "start": {s[START] - t0!r}, '
                    f'"end": {s[END] - t0!r}, "parent": {s[PARENT]}}}\n'
                )


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every crowdirl layer."""
    from crowdirl import baselines, cli, features, game, irl, metrics, pipeline, quadratic, trajectory

    def span(module, attr, name, on_call=None):
        tracer.patch(module, attr, lambda f: tracer.wrap(f, name, on_call))

    def add(**keys):
        def on_call(counts, args, kwargs, result):
            for key, fn in keys.items():
                counts[key] += fn(args, kwargs, result)
        return on_call

    span(quadratic, "expand_model_along", "quadratic.expand")
    tracer.patch(quadratic, "_eval_batch", lambda f: tracer.count_only(
        f, add(**{"quadratic.cost_rows": lambda a, k, r: len(a[1])})))

    def solve_counts(counts, args, kwargs, result):
        diag = result.diagnostics
        counts["game.solve.stages"] += diag.horizon * diag.k
        counts["game.conditioned_stages"] += diag.conditioned_stages

    span(game, "solve_lq_game", "game.solve", solve_counts)
    span(game, "solve_scenario", "game.scenario")
    span(game, "build_policies", "game.build")
    span(game, "sample_rollouts", "game.sample",
         add(**{"game.sample.rollouts": lambda a, k, r: len(r)}))
    span(game, "mean_rollout", "game.mean_rollout")
    span(features, "expected_features", "features.expected",
         add(**{"features.expected.trajs": lambda a, k, r: len(a[0])}))
    span(trajectory, "propagate_joint", "trajectory.propagate")

    def irl_counts(counts, args, kwargs, result):
        counts["irl.sweeps"] += result[1].sweeps
        counts["irl.updates"] += len(result[1].records)

    span(irl, "multi_agent_irl", "irl.mairl", irl_counts)
    span(irl, "single_agent_maxent_irl", "irl.sairl", irl_counts)

    span(baselines, "gmm_fit", "baselines.gmm_fit",
         add(**{"baselines.gmm_fit.em_iters": lambda a, k, r: len(r.log_likelihoods)}))
    span(baselines, "gmm_conditional_mean", "baselines.gmm_cond_mean")
    span(baselines, "ebm_train", "baselines.ebm_train")
    span(baselines, "ebm_minimizer", "baselines.ebm_minimizer")

    span(metrics, "evaluate_method", lambda a: f"metrics.eval.{a[0]}",
         add(**{"metrics.predictions": lambda a, k, r: len(a[2])}))
    span(metrics, "score_predictions", "metrics.score")

    span(pipeline, "parse_frames", "pipeline.parse",
         add(**{"pipeline.parse.frames": lambda a, k, r: len(r)}))
    span(pipeline, "tracks_from_frames", "pipeline.tracks")
    span(pipeline, "filter_tracks", "pipeline.tracks")
    span(pipeline, "combinatorial_scenarios", "pipeline.catalog",
         add(**{"pipeline.catalog.entries": lambda a, k, r: r.size}))
    span(pipeline, "write_demonstrations", "pipeline.write",
         add(**{"pipeline.write.bytes": lambda a, k, r: os.path.getsize(a[0])}))
    span(pipeline, "read_demonstrations", "pipeline.read",
         add(**{"pipeline.read.bytes": lambda a, k, r: os.path.getsize(a[0])}))
    span(pipeline, "synth_generate", "pipeline.synth")

    span(cli, "main", "cli.main")


# name, unit, better: the per-layer metrics every traced run reports
LAYER_METRICS = [
    ("quadratic.expand.calls", "count", "lower"),
    ("quadratic.expand.self_s", "s", "lower"),
    ("quadratic.cost_rows", "count", "lower"),
    ("game.solve.calls", "count", "lower"),
    ("game.solve.self_s", "s", "lower"),
    ("game.solve.stages", "count", "lower"),
    ("game.conditioned_stages", "count", "lower"),
    ("game.scenario.calls", "count", "lower"),
    ("game.scenario.self_s", "s", "lower"),
    ("game.sample.calls", "count", "lower"),
    ("game.sample.rollouts", "count", "lower"),
    ("game.sample.self_s", "s", "lower"),
    ("game.mean_rollout.calls", "count", "lower"),
    ("game.mean_rollout.self_s", "s", "lower"),
    ("features.expected.calls", "count", "lower"),
    ("features.expected.trajs", "count", "lower"),
    ("features.expected.self_s", "s", "lower"),
    ("trajectory.propagate.calls", "count", "lower"),
    ("trajectory.propagate.self_s", "s", "lower"),
    ("irl.sweeps", "count", "lower"),
    ("irl.updates", "count", "lower"),
    ("irl.self_s", "s", "lower"),
    ("irl.expand_per_update", "ratio", "lower"),
    ("irl.solve_per_update", "ratio", "lower"),
    ("baselines.gmm_fit.calls", "count", "lower"),
    ("baselines.gmm_fit.em_iters", "count", "lower"),
    ("baselines.gmm_fit.self_s", "s", "lower"),
    ("baselines.gmm_cond_mean.calls", "count", "lower"),
    ("baselines.gmm_cond_mean.self_s", "s", "lower"),
    ("baselines.ebm_train.self_s", "s", "lower"),
    ("baselines.ebm_minimizer.calls", "count", "lower"),
    ("baselines.ebm_minimizer.self_s", "s", "lower"),
    *[(f"metrics.eval.{m}.s", "s", "lower") for m in ("cv", "gmm", "ebm", "mairl", "sairl")],
    ("metrics.score.self_s", "s", "lower"),
    ("metrics.policy_solves_per_prediction", "ratio", "lower"),
    ("pipeline.parse.frames", "count", "lower"),
    ("pipeline.parse.self_s", "s", "lower"),
    ("pipeline.tracks.self_s", "s", "lower"),
    ("pipeline.catalog.entries", "count", "lower"),
    ("pipeline.catalog.self_s", "s", "lower"),
    ("pipeline.write.calls", "count", "lower"),
    ("pipeline.write.bytes", "bytes", "lower"),
    ("pipeline.write.self_s", "s", "lower"),
    ("pipeline.read.calls", "count", "lower"),
    ("pipeline.read.bytes", "bytes", "lower"),
    ("pipeline.read.self_s", "s", "lower"),
    ("pipeline.synth.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float) -> dict[str, float]:
    """Every LAYER_METRICS value from the recorded spans and counts.

    traced_wall is the traced pass's raw wall time; overhead is the traced
    minus the untraced wall, both at the reference host speed.
    """
    agg = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    updates = counts["irl.updates"]
    predictions = counts["metrics.predictions"]
    out = {
        "quadratic.expand.calls": calls("quadratic.expand"),
        "quadratic.expand.self_s": self_s("quadratic.expand"),
        "game.solve.calls": calls("game.solve"),
        "game.solve.self_s": self_s("game.solve"),
        "game.scenario.calls": calls("game.scenario"),
        "game.scenario.self_s": self_s("game.scenario"),
        "game.sample.calls": calls("game.sample"),
        "game.sample.self_s": self_s("game.sample"),
        "game.mean_rollout.calls": calls("game.mean_rollout"),
        "game.mean_rollout.self_s": self_s("game.mean_rollout"),
        "features.expected.calls": calls("features.expected"),
        "features.expected.self_s": self_s("features.expected"),
        "trajectory.propagate.calls": calls("trajectory.propagate"),
        "trajectory.propagate.self_s": self_s("trajectory.propagate"),
        "irl.self_s": self_s("irl.mairl", "irl.sairl"),
        "irl.expand_per_update": tracer.count_under("quadratic.expand", "irl.") / updates if updates else 0.0,
        "irl.solve_per_update": tracer.count_under("game.solve", "irl.") / updates if updates else 0.0,
        "baselines.gmm_fit.calls": calls("baselines.gmm_fit"),
        "baselines.gmm_fit.self_s": self_s("baselines.gmm_fit"),
        "baselines.gmm_cond_mean.calls": calls("baselines.gmm_cond_mean"),
        "baselines.gmm_cond_mean.self_s": self_s("baselines.gmm_cond_mean"),
        "baselines.ebm_train.self_s": self_s("baselines.ebm_train"),
        "baselines.ebm_minimizer.calls": calls("baselines.ebm_minimizer"),
        "baselines.ebm_minimizer.self_s": self_s("baselines.ebm_minimizer"),
        **{f"metrics.eval.{m}.s": incl(f"metrics.eval.{m}") for m in ("cv", "gmm", "ebm", "mairl", "sairl")},
        "metrics.score.self_s": self_s("metrics.score"),
        "metrics.policy_solves_per_prediction": (
            tracer.count_under("game.solve", "metrics.eval.") / predictions if predictions else 0.0
        ),
        "pipeline.parse.self_s": self_s("pipeline.parse"),
        "pipeline.tracks.self_s": self_s("pipeline.tracks"),
        "pipeline.catalog.self_s": self_s("pipeline.catalog"),
        "pipeline.write.calls": calls("pipeline.write"),
        "pipeline.write.self_s": self_s("pipeline.write"),
        "pipeline.read.calls": calls("pipeline.read"),
        "pipeline.read.self_s": self_s("pipeline.read"),
        "pipeline.synth.self_s": self_s("pipeline.synth"),
        "cli.commands": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "trace.wall_s": traced_wall,
        "trace.untraced_s": traced_wall - sum(tracer.self_times()),
        "trace.overhead_s": overhead,
    }
    return {name: out[name] if name in out else counts[name] for name, _, _ in LAYER_METRICS}
