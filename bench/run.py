"""crowdirl benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload roundtrip_k3 --seed 1 --seconds 10 --trace 0

Workloads: roundtrip_k3, crowd_k8, catalog_k3 (see bench/workloads.py for
what each runs and why). The workload seed makes every input; the program
only sees the generated files and scenes.

One run imports crowdirl from ./src (nothing is installed or built), times
that import in this process and in four fresh interpreters (`setup_s` is the
median), then runs passes of the workload until --seconds have elapsed; at
least one pass runs, and metrics are medians over passes. BLAS is pinned to
one thread and the process runs a single thread.

With --trace 0 the last stdout line holds the end-to-end metrics. Their
times are seconds at a reference host speed (see speed.py); the raw wall
seconds and the measured host speed are in the `facts` line. With --trace 1
an untimed warm-up of the data phase runs first, then one untraced pass and
a traced pass whose spans give the per-layer metrics in raw seconds; the
span list is written to .bench_work/spans-<workload>-s<seed>.jsonl. The
tracing overhead is the difference of the two passes' walls, each scaled by
the host speed measured just before and after it: an approximate figure,
since the host speed drifts within a pass too.

Outputs are checked in every run: every operation must succeed, result
files must pass the workload's checks, and the digests of every artifact
must agree between passes, between repeats of the data phase, between the
traced and untraced passes, and with earlier runs of the same seed in this
checkout (kept in .bench_work/digests/, keyed by a digest of the sources).

Other entry points: `python3 bench/sweep.py` records per-call layer times
over k and M (informational, never gated); `python3 -m pytest bench/tests`
runs the benchmark's self-tests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, crowdirl; t = time.perf_counter() - t; "
    "import speed; print(repr(t), repr(speed.median_kernel_seconds()))"
)
WORKLOAD_NAMES = ("roundtrip_k3", "crowd_k8", "catalog_k3")
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "data_s": "s", "train_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB", "heldout_ade_m": "m", "gap_ratio": "ratio", "ok_ops_frac": "frac",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _setup_times() -> list[tuple[float, float]]:
    """(import seconds, kernel seconds) of numpy + crowdirl, here and in fresh interpreters."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import crowdirl  # noqa: F401
    elapsed = time.perf_counter() - start
    import speed
    samples = [(elapsed, speed.median_kernel_seconds())]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH_DIR)])}
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        imported, kernel = out.stdout.split()
        samples.append((float(imported), float(kernel)))
    return samples


def _facts(args) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit, "src_lines": src_lines,
    }


def _run_pass(workload, root: Path, repeat: bool, speed=None):
    """One pass of the workload, with the data and evaluate repeats if `repeat`.

    With a HostSpeed sampler running, phase times are scaled to the reference
    host speed. Returns the pass's Run, its phase times, its quality figures
    and the raw wall time of its first data, train, evaluate and other phases.
    """
    from workloads import PHASES, Run

    root.mkdir(parents=True)
    run = Run(root)
    start = time.perf_counter()
    workload.data(run)
    workload.train(run)
    workload.evaluate(run)
    workload.other(run)
    wall = time.perf_counter() - start
    repeats = []
    for rep in range(1, max(workload.data_reps, workload.eval_reps) if repeat else 1):
        # alternate the phases so back-to-back rewrites of one set of files do not pile up
        for phase, fn, reps in (("data", workload.data, workload.data_reps),
                                ("eval", workload.evaluate, workload.eval_reps)):
            if rep >= reps:
                continue
            again = Run(root)
            fn(again)
            repeats.append((phase, again))
            run.attempted += again.attempted
            run.failed += again.failed
            run.errors += again.errors
            run.check(bool(again.digests) and all(run.digests.get(k) == v for k, v in again.digests.items()),
                      f"{phase} artifacts identical in repeat {rep}")
    quality = workload.quality(run)
    scale = speed.scaled if speed else None
    times = {f"{phase}_s": statistics.median([run.seconds(phase, scale)]
                                             + [r.seconds(phase, scale) for p, r in repeats if p == phase])
             for phase in ("data", "eval")}
    times["train_s"] = run.seconds("train", scale)
    times["wall_s"] = times["data_s"] + times["train_s"] + times["eval_s"] + run.seconds("other", scale)
    times["raw_wall_s"] = sum(run.seconds(p) for p in PHASES)
    return run, times, quality, wall


def _code_fingerprint() -> str:
    """Digest of the program and benchmark sources: one value per commit."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_history(run, workload_name: str, seed: int, digests: dict) -> None:
    """Compare digests with an earlier run of the same code and seed in this checkout."""
    path = WORK / "digests" / _code_fingerprint() / f"{workload_name}-s{seed}.json"
    if path.exists():
        run.check(json.loads(path.read_text()) == digests, f"artifact digests match the earlier run ({path.name})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "crowdirl" / "__init__.py").is_file():
        _fail(f"no crowdirl sources under {SRC}; run from a checkout of the repository")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    setup = _setup_times()
    import tracer as tracing
    from speed import NOMINAL_S, HostSpeed, median_kernel_seconds
    from workloads import WORKLOADS

    facts = _facts(args)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, inputs)
        passes = []
        if args.trace == 0:
            start = time.perf_counter()
            with HostSpeed() as speed:
                while not passes or time.perf_counter() - start < args.seconds:
                    passes.append(_run_pass(workload, workdir / f"pass{len(passes)}", True, speed))
        else:
            from workloads import Run

            def scaled_pass(name):
                """Append one pass; return its wall at the reference host speed."""
                kernel = median_kernel_seconds()
                passes.append(_run_pass(workload, workdir / name, False))
                return passes[-1][3] * NOMINAL_S * 2 / (kernel + median_kernel_seconds())

            (workdir / "warmup").mkdir()
            workload.data(Run(workdir / "warmup"))  # first-call costs land here, untimed
            untraced_s = scaled_pass("untraced")
            tracer = tracing.Tracer()
            with tracer:
                tracing.install_layers(tracer)
                traced_s = scaled_pass("traced")
            passes[1][0].check(not tracer.missing, f"traced entry points exist (missing: {tracer.missing})")
            tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.jsonl")

        first = passes[0][0]
        for run, _, _, _ in passes[1:]:
            first.check(run.digests == first.digests, f"artifacts of {run.root.name} match {first.root.name}")
        _check_history(first, args.workload, args.seed, first.digests)
        attempted = sum(p[0].attempted for p in passes)
        failed = sum(p[0].failed for p in passes)
        errors = [e for p in passes for e in p[0].errors]

        if args.trace == 0:
            metrics = {"setup_s": statistics.median(t * NOMINAL_S / k for t, k in setup)}
            for key in ("wall_s", "data_s", "train_s", "eval_s"):
                metrics[key] = statistics.median(p[1][key] for p in passes)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for key in ("heldout_ade_m", "gap_ratio"):
                metrics[key] = statistics.median(p[2][key] for p in passes)
            metrics["ok_ops_frac"] = (attempted - failed) / attempted
            units = E2E_UNITS
            facts["raw_wall_s"] = [p[1]["raw_wall_s"] for p in passes]
            facts["host_speed"] = NOMINAL_S / statistics.median(speed.durations)
        else:
            metrics = tracing.layer_metrics(tracer, passes[1][3], traced_s - untraced_s)
            facts["tracing_overhead_s"] = metrics["trace.overhead_s"]
            facts["raw_wall_s"] = [p[3] for p in passes]
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts["passes"] = len(passes)
    facts["setup_import_s"] = [t for t, _ in setup]
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
