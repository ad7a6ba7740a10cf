"""The three benchmark workloads and the bookkeeping they share.

Each workload turns a seed into inputs, then runs one pass of commands in a
closed loop with one client: a command starts when the previous one returns.
A pass has four timed phases (data, train, eval, other); `Run` times every
operation into its phase, counts failed operations and hashes every artifact
a pass writes.

Why these workloads:
- roundtrip_k3: the README round trip through `crowdirl.cli.main` at the
  acceptance harness's sizes; every layer runs, and training dominates.
- crowd_k8: an 8-agent ring through the library, where the O(k^4 T)
  finite-difference expansion and M=128 rollouts dominate and neither the
  baselines nor the ingestion pipeline run.
- catalog_k3: a tracker frame stream through `preprocess`, then short
  trainings and evaluations on many distinct catalog entries, so ingestion,
  interchange I/O, per-command CLI cost and many distinct solves show.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from crowdirl import cli, irl, metrics, pipeline
from crowdirl.features import CostParams
from crowdirl.game import SolverConfig

from inputs import DIRECTIONS, GROUP_SIZE, frame_stream, ring_spec, split_interchange

PHASES = ("data", "train", "eval", "other")
EXIT_NO_CONVERGENCE = 3  # train at a fixed sweep budget: weights are written
THETA_STAR = (1.0, 0.5, 0.2)
SOLVER = SolverConfig(entropy_temp=1e-3, eps_psd=1e-6)


class Run:
    """Phase timers, operation accounting and artifact digests of one pass."""

    def __init__(self, root: Path):
        self.root = root
        self.ops: list[tuple[str, float, float]] = []  # (phase, start, end)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def cli(self, phase: str, argv: list[str], ok=(0,)) -> int | None:
        """One in-process `crowdirl` command; exit codes outside `ok` fail."""
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:
            rc = None
            out.write(traceback.format_exc())
        finally:
            self.ops.append((phase, start, time.perf_counter()))
        if rc not in ok:
            self.failed += 1
            self.errors.append(f"crowdirl {' '.join(map(str, argv))} -> {rc}: {out.getvalue()[-400:]}")
        return rc

    def call(self, phase: str, fn, *args, **kwargs):
        """One library call; an uncaught exception fails it and returns None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {traceback.format_exc()[-400:]}")
            return None
        finally:
            self.ops.append((phase, start, time.perf_counter()))

    def seconds(self, phase: str, scale=None) -> float:
        """Time spent in one phase: raw, or each operation through scale(start, end)."""
        return sum(scale(s, e) if scale else e - s for p, s, e in self.ops if p == phase)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(f"check failed: {what}")

    def hash_files(self, *patterns: str) -> None:
        for pattern in patterns:
            for path in sorted(self.root.glob(pattern)):
                self.digests[path.relative_to(self.root).as_posix()] = (
                    hashlib.sha256(path.read_bytes()).hexdigest()
                )

    def hash_value(self, name: str, *arrays) -> None:
        h = hashlib.sha256()
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        self.digests[name] = h.hexdigest()


def _gap_ratio(trace_lines: list[dict]) -> float:
    """Median per-sweep max gap over the last quarter of sweeps / first sweep's.

    The median over the tail damps the Monte Carlo noise of single sweeps.
    """
    records = [r for r in trace_lines if "gap_norm" in r]
    sweeps = max(r["sweep"] for r in records) + 1
    per_sweep = [max(r["gap_norm"] for r in records if r["sweep"] == s) for s in range(sweeps)]
    tail = per_sweep[-max(1, sweeps // 4):]
    return statistics.median(tail) / per_sweep[0]


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _aggregate_ade(report: Path) -> float:
    return next(r["ade_m"] for r in _read_jsonl(report) if r.get("agent") == "all")


def _check_weights(run: Run, path: Path, k: int, sweeps: int) -> None:
    payload = json.loads(path.read_text())
    thetas = np.asarray(payload["thetas"], dtype=float)
    run.check(thetas.shape == (k, 3), f"{path.name} holds {k} weight vectors")
    run.check(bool(np.all(np.isfinite(thetas)) and np.all(thetas >= 0)), f"{path.name} weights finite, >= 0")
    run.check(payload["sweeps"] == sweeps, f"{path.name} ran {sweeps} sweeps")


def _safely(run: Run, fn, *args):
    """Run a result check; a missing or malformed artifact fails the check."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, StopIteration, TypeError) as exc:
        run.check(False, f"{fn.__name__}: {exc!r}")
        return math.nan


class Workload:
    """A pass runs data, train, evaluate and other once each, in that order.

    Then data runs data_reps - 1 and evaluate eval_reps - 1 more times, in
    turn, rewriting the same files: their times are medians over the
    repeats, and every repeat must write byte-identical artifacts.
    """

    name = ""
    data_reps = eval_reps = 1

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.inputs = inputs

    def data(self, run: Run) -> None: ...

    def train(self, run: Run) -> None: ...

    def evaluate(self, run: Run) -> None: ...

    def other(self, run: Run) -> None:
        pass

    def quality(self, run: Run) -> dict[str, float]: ...


class RoundTrip(Workload):
    """README round trip on intersection_k3 at the acceptance harness's sizes.

    The demonstrations and the eval commands are the README's (synth with
    --seed 11, eval with the default seed), so every workload seed scores
    the same data; the workload seed keys the training rollouts. GMM's EM
    iteration count swings from about 20 to 200 with its data and its init
    seed, which would otherwise make eval_s a property of the seed.
    """

    name = "roundtrip_k3"
    data_reps, eval_reps = 9, 7
    sweeps = 80
    synth_seed = 11

    def data(self, run):
        run.cli("data", ["--seed", self.synth_seed, "--entropy-temp", "1e-3", "synth",
                         run.root / "demos.traj", "--preset", "intersection_k3",
                         "--theta", ",".join(map(str, THETA_STAR)), "--n", 30])
        run.hash_files("demos.traj")

    def train(self, run):
        root = run.root
        train, held = split_interchange((root / "demos.traj").read_text(), 20)
        (root / "train.traj").write_text(train)
        (root / "held.traj").write_text(held)
        fit = ["--beta", 0.03, "--iters", self.sweeps, "--tol", 0, "--rollouts", 32]
        for method in ("mairl", "sairl"):
            run.cli("train", ["--seed", self.seed, "--entropy-temp", "1e-3", *fit, "train",
                              root / "train.traj", "--method", method,
                              "--out", root / f"theta_{method}.json",
                              "--trace-out", root / f"trace_{method}.jsonl"],
                    ok=(0, EXIT_NO_CONVERGENCE))
        run.hash_files("theta_*.json", "trace_*.jsonl")

    def evaluate(self, run):
        root = run.root
        for method in metrics.BASELINE_NAMES:
            theta = ["--theta", root / f"theta_{method}.json"] if method in ("mairl", "sairl") else []
            run.cli("eval", ["--entropy-temp", "1e-3", "eval", root / "held.traj",
                             "--train", root / "train.traj", "--baseline", method, *theta, "--scenario", self.name,
                             "--out", root / f"{method}.jsonl", "--format", "jsonl"])
        run.hash_files(*[f"{m}.jsonl" for m in metrics.BASELINE_NAMES])

    def other(self, run):
        root = run.root
        run.cli("other", ["compare", *[root / f"{m}.jsonl" for m in metrics.BASELINE_NAMES],
                          "--out", root / "ranking.jsonl"])
        run.hash_files("ranking.jsonl")

    def quality(self, run):
        root = run.root
        for method in ("mairl", "sairl"):
            _safely(run, _check_weights, run, root / f"theta_{method}.json", 3, self.sweeps)
        ranking = _safely(run, _read_jsonl, root / "ranking.jsonl")
        run.check(isinstance(ranking, list) and len(ranking) == len(metrics.BASELINE_NAMES),
                  "compare ranks every baseline")
        ade = _safely(run, _aggregate_ade, root / "mairl.jsonl")
        ratio = _safely(run, lambda p: _gap_ratio(_read_jsonl(p)), root / "trace_mairl.jsonl")
        # the acceptance suite's bounds for ground-truth recovery (criterion 4)
        run.check(ade <= 0.15, f"held-out mairl ADE {ade} <= 0.15 m")
        run.check(ratio <= 0.10, f"gap ratio {ratio} <= 0.10")
        return {"heldout_ade_m": ade, "gap_ratio": ratio}


class Crowd(Workload):
    """Eight pedestrians swapping across a ring, driven through the library."""

    name = "crowd_k8"
    data_reps = eval_reps = 3
    k = 8
    n_train, n_held = 16, 8
    sweeps = 3

    def data(self, run):
        self.spec = ring_spec(self.k, self.seed)
        thetas = [CostParams(np.array(THETA_STAR))] * self.k
        self.demos = run.call("data", pipeline.synth_generate, thetas, self.spec,
                              self.n_train + self.n_held, self.seed, solver_cfg=SOLVER) or []
        run.check(len(self.demos) == self.n_train + self.n_held, "synthesized every demonstration")
        run.hash_value("demos", *[d.states for d in self.demos])

    def train(self, run):
        cfg = irl.TrainingConfig(beta=0.01, max_iters=self.sweeps, tol=0.0, M=128,
                                 seed=self.seed + 1, solver=SOLVER)
        self.thetas, self.trace = run.call(
            "train", irl.multi_agent_irl, self.demos[: self.n_train], self.spec, cfg) or (None, None)
        if self.trace is not None:
            run.hash_value("weights", *[th.weights for th in self.thetas])
            self.trace.to_jsonl(run.root / "trace_mairl.jsonl")
            run.hash_files("trace_mairl.jsonl")

    def evaluate(self, run):
        self.report = None
        if self.thetas is None:
            return
        ctx = metrics.PredictorContext(spec=self.spec, train_demos=self.demos[: self.n_train],
                                       thetas=self.thetas, solver=SOLVER)
        self.report = run.call("eval", metrics.evaluate_method, "mairl", self.name,
                               self.demos[self.n_train:], ctx)
        if self.report is not None:
            metrics.emit_report([self.report], "jsonl", run.root / "mairl.jsonl")
            run.hash_files("mairl.jsonl")

    def quality(self, run):
        if self.trace is None or self.report is None:
            run.check(False, "training and evaluation produced results")
            return {"heldout_ade_m": math.nan, "gap_ratio": math.nan}
        weights = np.array([r.theta_after for r in self.trace.records])
        run.check(self.trace.sweeps == self.sweeps, f"trained {self.sweeps} sweeps")
        run.check(bool(np.all(np.isfinite(weights)) and np.all(weights >= 0)), "weights finite, >= 0")
        ade = self.report.ade
        ratio = _gap_ratio([r.as_dict() for r in self.trace.records])
        # ceilings about 10 % and 5 % above the worst of 40 recorded seeds (0.489 m, 0.907)
        run.check(ade <= 0.53, f"held-out mairl ADE {ade} <= 0.53 m")
        run.check(ratio <= 0.95, f"gap ratio {ratio} <= 0.95")
        return {"heldout_ade_m": ade, "gap_ratio": ratio}


class Catalog(Workload):
    """Tracker stream -> 500-entry catalog -> per-entry train and held-out eval."""

    name = "catalog_k3"
    data_reps = eval_reps = 4
    stride = 25  # 20 of the 500 entries, 5 per category
    held_offset = 12  # evaluate on another entry of the same category
    sweeps = 3
    entries = 500

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        (inputs / "raw.jsonl").write_text("\n".join(frame_stream(seed)) + "\n")
        self.pairs = []

    def _flags(self):
        return ["--seed", self.seed + 1, "--entropy-temp", "1e-3"]

    def data(self, run):
        run.cli("data", ["preprocess", self.inputs / "raw.jsonl", run.root / "catalog"])
        run.hash_files("catalog/*")

    def train(self, run):
        cat_dir = run.root / "catalog"
        try:
            files = [e["file"] for e in json.loads((cat_dir / "catalog.json").read_text())["entries"]]
        except (OSError, ValueError, KeyError) as exc:
            run.check(False, f"catalog.json readable: {exc!r}")
            return
        run.check(len(files) == self.entries, f"catalog has {self.entries} entries")
        self.pairs = [(idx, files[idx], files[idx + self.held_offset])
                      for idx in range(0, len(files) - self.held_offset, self.stride)]
        fit = ["--beta", 0.03, "--iters", self.sweeps, "--tol", 0, "--rollouts", 8]
        for idx, train, _ in self.pairs:
            run.cli("train", [*self._flags(), *fit, "train", cat_dir / train, "--method", "mairl",
                              "--out", run.root / f"theta_{idx:04d}.json",
                              "--trace-out", run.root / f"trace_{idx:04d}.jsonl"],
                    ok=(0, EXIT_NO_CONVERGENCE))
        run.hash_files("theta_*.json", "trace_*.jsonl")

    def evaluate(self, run):
        for idx, _, held in self.pairs:
            for method in ("mairl", "cv"):
                extra = ["--theta", run.root / f"theta_{idx:04d}.json"] if method == "mairl" else []
                run.cli("eval", [*self._flags(), "eval", run.root / "catalog" / held, "--baseline", method,
                                 *extra, "--scenario", held,
                                 "--out", run.root / f"{method}_{idx:04d}.jsonl", "--format", "jsonl"])
        run.hash_files("mairl_*.jsonl", "cv_*.jsonl")

    def quality(self, run):
        root = run.root
        summary = _safely(run, lambda p: json.loads(p.read_text()), root / "catalog" / "catalog.json")
        if isinstance(summary, dict):
            run.check(summary.get("total_entries") == self.entries, "500 catalog entries")
            run.check(summary.get("tracks_kept") == len(DIRECTIONS) * GROUP_SIZE,
                      "standstill and out-of-window tracks dropped")
            run.check(len(list((root / "catalog").glob("*.traj"))) == self.entries, "one file per entry")
        run.check(len(self.pairs) == self.entries // self.stride, "every strided entry trained")
        ades, ratios = [], []
        for idx, _, _ in self.pairs:
            _safely(run, _check_weights, run, root / f"theta_{idx:04d}.json", 3, self.sweeps)
            ades.append(_safely(run, _aggregate_ade, root / f"mairl_{idx:04d}.jsonl"))
            ratios.append(_safely(run, lambda p: _gap_ratio(_read_jsonl(p)), root / f"trace_{idx:04d}.jsonl"))
        if not ades:
            return {"heldout_ade_m": math.nan, "gap_ratio": math.nan}
        ade, ratio = float(np.mean(ades)), float(np.mean(ratios))
        # ceilings about 7 % and 2 % above the worst of 43 recorded seeds (0.521 m, 0.979)
        run.check(ade <= 0.56, f"mean held-out mairl ADE {ade} <= 0.56 m")
        run.check(ratio <= 1.0, f"mean gap ratio {ratio} <= 1.0")
        return {"heldout_ade_m": ade, "gap_ratio": ratio}


WORKLOADS = {w.name: w for w in (RoundTrip, Crowd, Catalog)}
