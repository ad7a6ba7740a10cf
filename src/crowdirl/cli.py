"""Batch command-line front end.

Subcommands cover the full pipeline: `preprocess` raw tracker frames into a
scenario catalog, `synth` ground-truth demonstrations from known weights,
`train` weight vectors from demonstrations, `eval` methods against held-out
demonstrations, `plot` report curves and `compare` methods across reports.

Every run is driven by one nested config (JSON file via --config, overridden
by flags; flags win) and a single seed; outputs are byte-deterministic given
(config, seed). Exit codes: 0 success, 2 input/usage error, 3 training ended
without convergence, 4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .errors import CrowdIrlError, FormatError, InternalError, SolverError, ValidationError
from .features import CostParams, ProximityConfig
from .game import SolverConfig
from .irl import TrainingConfig, infer_goals, multi_agent_irl, single_agent_maxent_irl
from .metrics import (
    BASELINE_NAMES,
    FITTED_BASELINES,
    PredictorContext,
    cdf_thresholds,
    emit_report,
    make_predictor,
    parse_report_csv,
    render_overlay_svg,
    rmse_cdf,
    render_cdf_svg,
    score_predictions,
)
from .pipeline import (
    DIRECTIONS,
    PreprocessConfig,
    combinatorial_scenarios,
    filter_tracks,
    header_goals,
    json_kind,
    parse_frames,
    read_demonstrations,
    read_text_lines,
    synth_generate,
    synth_provenance,
    tracks_from_frames,
    travel_direction,
    write_catalog,
    write_demonstrations,
)
from .rng import KEY_LIMIT
from .trajectory import (
    DEFAULT_U_MAX,
    AgentState,
    JointState,
    ScenarioSpec,
    Trajectory,
    check_u_max,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4
LOG_LEVELS = ("debug", "info", "warning", "error")


def _defaults(cls, *names: str) -> dict:
    """A config dataclass's field defaults (every field unless some are named), tuples as lists."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    return {n: list(fields[n]) if isinstance(fields[n], tuple) else fields[n] for n in names or fields}


# every key a library dataclass declares takes its default from there
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "u_max": DEFAULT_U_MAX,
    "solver": _defaults(SolverConfig),
    "training": _defaults(TrainingConfig, "beta", "max_iters", "tol", "M"),
    "proximity": _defaults(ProximityConfig),
    "preprocess": {
        **_defaults(PreprocessConfig),
        "scheme": ["W-E-S", "W-E-N", "S-N-W", "S-N-E"],
        "group_size": 5,
        "scenario_len": 30,
    },
    "eval": _defaults(PredictorContext, "best_of", "gmm_components"),
}

# flag destination -> config path
_FLAG_PATHS = {
    "seed": ("seed",),
    "u_max": ("u_max",),
    "eps_psd": ("solver", "eps_psd"),
    "entropy_temp": ("solver", "entropy_temp"),
    "beta": ("training", "beta"),
    "iters": ("training", "max_iters"),
    "tol": ("training", "tol"),
    "rollouts": ("training", "M"),
    "sigma": ("proximity", "sigma"),
    "best_of": ("eval", "best_of"),
}


def _config_keys(tree: dict, prefix: str = "") -> list[str]:
    out = []
    for key, value in tree.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            out.extend(_config_keys(value, dotted + "."))
        else:
            out.append(f"{dotted} = {json.dumps(value)}")
    return out


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise FormatError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise FormatError(f"config key {dotted!r} must be a section")
            out[key] = _merge_config(base[key], value, dotted + ".")
        elif json_kind(value) != json_kind(base[key]):
            raise FormatError(
                f"config key {dotted!r} must be {json_kind(base[key])}, got {json.dumps(value)}"
            )
        else:
            if isinstance(base[key], int):
                _check_integer(dotted, value)
            out[key] = type(base[key])(value)  # a number takes its default's type
    return out


def _check_integer(dotted: str, value) -> None:
    """An integer key takes a whole number: the seed in [0, 2**64), every other one (a count) >= 1."""
    least = 0 if dotted == "seed" else 1
    if not ((isinstance(value, int) or float(value).is_integer()) and value >= least):
        raise ValidationError(f"{dotted} must be an integer >= {least}, got {value!r}")
    if dotted == "seed" and value >= KEY_LIMIT:
        raise ValidationError(f"seed must be an integer below 2**64, got {value!r}")


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path: str | None, flag_values: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        file_cfg = _read_json(path, "config")
        if not isinstance(file_cfg, dict):
            raise FormatError("config file must hold a JSON object")
        cfg = _merge_config(cfg, file_cfg)
    for dest, value in flag_values.items():
        if value is None or dest not in _FLAG_PATHS:
            continue
        node = cfg
        *parents, leaf = _FLAG_PATHS[dest]
        for p in parents:
            node = node[p]
        node[leaf] = value
    _check_integer("seed", cfg["seed"])  # the flags that set these skip the merge's check
    _check_integer("eval.best_of", cfg["eval"]["best_of"])
    check_u_max(cfg["u_max"])
    _training_config(cfg)  # checks the solver and proximity sections too
    _preprocess_config(cfg)
    return cfg


def _training_config(cfg: dict) -> TrainingConfig:
    return TrainingConfig(**cfg["training"], seed=cfg["seed"], u_max=cfg["u_max"],
                          solver=SolverConfig(**cfg["solver"]),
                          proximity=ProximityConfig(**cfg["proximity"]))


def _preprocess_config(cfg: dict) -> PreprocessConfig:
    """The preprocess section as a checked config; also checks its scheme."""
    p = cfg["preprocess"]
    for i, cat in enumerate(p["scheme"]):
        if not (isinstance(cat, str) and all(d in DIRECTIONS for d in cat.split("-"))):
            raise ValidationError(f"preprocess.scheme entry {json.dumps(cat)} must be "
                                  f"directions from {', '.join(DIRECTIONS)} joined by '-'")
        # a repeated direction casts one track as two agents, a repeated entry doubles its scenes
        if len(set(cat.split("-"))) < len(cat.split("-")) or cat in p["scheme"][:i]:
            raise ValidationError(f"preprocess.scheme entry {json.dumps(cat)} repeats a "
                                  "direction or an earlier entry")
    return PreprocessConfig(**{f.name: p[f.name] for f in dataclasses.fields(PreprocessConfig)})


# --- scenario presets ---------------------------------------------------------


def scenario_preset(name: str) -> ScenarioSpec:
    """Built-in interaction scenes used by synth and the demos."""
    if name == "head_on_k2":
        x0 = JointState(
            (
                AgentState(-3.0, 0.0, 1.2, 0.0),
                AgentState(3.0, 0.15, -1.2, 0.0),
            )
        )
        goals = np.array([[3.0, 0.0], [-3.0, 0.15]])
        return ScenarioSpec(k=2, x0=x0, goals=goals, horizon=50, dt=0.1)
    if name == "intersection_k3":
        x0 = JointState(
            (
                AgentState(0.0, 2.2, 0.0, -1.2),  # heading south
                AgentState(1.8, 0.3, -1.2, 0.0),  # heading west
                AgentState(-1.8, -0.3, 1.2, 0.0),  # heading east
            )
        )
        goals = np.array([[0.0, -1.4], [-1.8, 0.3], [1.8, -0.3]])
        return ScenarioSpec(k=3, x0=x0, goals=goals, horizon=30, dt=0.1)
    raise ValidationError(f"unknown scenario preset {name!r}")


def parse_thetas(text: str, k: int) -> list[CostParams]:
    """Parse 'a,b,c;d,e,f;...' into k weight vectors (one repeated if single)."""
    groups = [g for g in text.split(";") if g.strip()]
    if len(groups) == 1:
        groups = groups * k
    if len(groups) != k:
        raise ValidationError(f"need 1 or {k} weight groups, got {len(groups)}")
    out = []
    for g in groups:
        try:
            vals = [float(v) for v in g.split(",")]
        except ValueError:
            raise ValidationError(f"weight group {g!r} is not comma-separated numbers") from None
        out.append(CostParams(np.array(vals)))
        if np.any(out[-1].weights < 0):
            raise ValidationError(f"weight group {g!r} has a negative weight")
    return out


def _spec_from_demos(demos: list[Trajectory], header: dict) -> ScenarioSpec:
    """Scenario implied by a demonstration file: demo 0's x0, header or inferred goals.

    train admits only files whose demonstrations share one start; eval's
    predictors start each demo from its own x0.
    """
    k, dt = demos[0].k, demos[0].dt
    goals = header_goals(header)
    if goals is None:
        goals = infer_goals(demos)
    return ScenarioSpec(
        k=k,
        x0=JointState.from_array(demos[0].states[0]),
        goals=goals,
        horizon=demos[0].horizon,
        dt=dt,
    )


# --- subcommands ----------------------------------------------------------------


def cmd_preprocess(args, cfg: dict) -> int:
    pre = _preprocess_config(cfg)
    scheme, group_size, scenario_len = (cfg["preprocess"][key]
                                        for key in ("scheme", "group_size", "scenario_len"))

    frames = parse_frames(read_text_lines(args.raw))
    tracks = filter_tracks(tracks_from_frames(frames, pre), pre)

    groups: dict[str, list] = {}
    for name in sorted(tracks):
        groups.setdefault(travel_direction(tracks[name]), []).append(tracks[name])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    usable = {d: trks[:group_size] for d, trks in groups.items() if len(trks) >= group_size}
    feasible = [cat for cat in scheme if all(d in usable for d in cat.split("-"))]
    catalog = combinatorial_scenarios(usable, feasible, scenario_len)  # empty when none is feasible

    summary = {
        "tracks_kept": len(tracks),
        "direction_counts": {d: len(t) for d, t in sorted(groups.items())},
        "categories": catalog.count_by_category(),
        "total_entries": catalog.size,
        "entries": write_catalog(out_dir, catalog, pre.resample_dt),
    }
    # one string, one write: json.dump would issue a write call per token
    (out_dir / "catalog.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                                          encoding="utf-8")
    print(
        f"kept {len(tracks)} tracks; catalog entries: {summary['total_entries']} "
        f"({', '.join(f'{k}={v}' for k, v in summary['categories'].items()) or 'none'})"
    )
    return EXIT_OK


def cmd_synth(args, cfg: dict) -> int:
    spec = scenario_preset(args.preset)
    if args.horizon is not None:
        spec = ScenarioSpec(spec.k, spec.x0, spec.goals, int(args.horizon), spec.dt)
    thetas = parse_thetas(args.theta, spec.k)
    seed = cfg["seed"]
    provenance = synth_provenance(thetas, seed)
    if args.n == 0:
        write_demonstrations(args.out, [], goals=spec.goals, provenance=provenance, spec=spec)
        print(f"wrote header-only demonstration file to {args.out}")
        return EXIT_OK
    try:
        demos = synth_generate(thetas, spec, args.n, seed, SolverConfig(**cfg["solver"]),
                               ProximityConfig(**cfg["proximity"]), cfg["u_max"])
    except SolverError as exc:  # the weights are the user's, so this is an input error
        raise ValidationError(f"weights --theta {args.theta!r} give no solvable game: {exc}") from exc
    write_demonstrations(args.out, demos, goals=spec.goals, provenance=provenance)
    print(f"wrote {len(demos)} demonstrations ({spec.k} agents, T={spec.horizon}) to {args.out}")
    return EXIT_OK


def cmd_train(args, cfg: dict) -> int:
    demos, header = read_demonstrations(args.demos)
    if not demos:
        raise FormatError(f"{args.demos} holds no demonstrations")
    # training solves one game from one start; a mean start is no demo's scene
    for j, demo in enumerate(demos):
        if not np.array_equal(demo.states[0], demos[0].states[0]):
            raise FormatError(
                f"{args.demos}: demonstration {j} starts from a different joint state than "
                "demonstration 0; train needs demonstrations of one start"
            )
    spec = _spec_from_demos(demos, header)
    tcfg = _training_config(cfg)

    if args.method == "mairl":
        thetas, trace = multi_agent_irl(demos, spec, tcfg)
        theta_lists = [[float(v) for v in th.weights] for th in thetas]
    else:
        theta, trace = single_agent_maxent_irl(demos, spec, tcfg)
        theta_lists = [[float(v) for v in theta.weights] for _ in range(spec.k)]

    payload = {
        "method": args.method,
        "k": spec.k,
        "thetas": theta_lists,
        "converged": trace.converged,
        "sweeps": trace.sweeps,
        "final_max_gap": trace.sweep_max_gap(trace.sweeps - 1),
        "config": cfg,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if args.trace_out:
        trace.to_jsonl(args.trace_out)
    if args.diagnostics:
        print(
            json.dumps(
                {"conditioned_stage_visits": trace.conditioned_stages(),
                 "updates": len(trace.records)},
                sort_keys=True,
            )
        )
    status = "converged" if trace.converged else "did not converge"
    print(
        f"{args.method}: {status} after {trace.sweeps} sweeps "
        f"(final max gap {payload['final_max_gap']:.3e}); weights -> {args.out}"
    )
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def _load_thetas(path: str, k: int) -> list[CostParams]:
    payload = _read_json(path, "weight file")
    rows = payload.get("thetas") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise FormatError(f"weight file {path} must hold an object with a 'thetas' list")
    try:
        weights = [np.array(t, dtype=float) for t in rows]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"weight file {path}: 'thetas' entries must be lists of numbers") from exc
    thetas = [CostParams(w) for w in weights]
    for i, w in enumerate(weights):
        if np.any(w < 0):
            raise FormatError(f"weight file {path}: 'thetas' row {i} has a negative weight")
    if len(thetas) != k:
        raise FormatError(f"weight file holds {len(thetas)} agents, demos have {k}")
    return thetas


def cmd_eval(args, cfg: dict) -> int:
    demos, header = read_demonstrations(args.demos)
    if not demos:
        raise FormatError(f"{args.demos} holds no demonstrations")
    spec = _spec_from_demos(demos, header)
    method = args.baseline
    if method not in BASELINE_NAMES:
        raise ValidationError(f"unknown baseline {method!r}; choose from {BASELINE_NAMES}")
    train_demos = demos  # a --train file is read only by the baselines that fit on it
    if args.train_demos and method in FITTED_BASELINES:
        train_demos, _ = read_demonstrations(args.train_demos)
    thetas = None
    if method in ("mairl", "sairl"):
        if not args.theta:
            raise ValidationError(f"--theta FILE is required for baseline {method!r}")
        thetas = _load_thetas(args.theta, spec.k)

    ctx = PredictorContext(spec=spec, train_demos=train_demos, thetas=thetas,
                           solver=SolverConfig(**cfg["solver"]),
                           proximity=ProximityConfig(**cfg["proximity"]),
                           u_max=cfg["u_max"], seed=cfg["seed"], **cfg["eval"])
    try:
        predictions = make_predictor(method, ctx)(demos)
    except SolverError as exc:  # only mairl and sairl solve, at the weight file's weights
        raise ValidationError(f"weight file {args.theta} gives no solvable game: {exc}") from exc
    report = score_predictions(method, args.scenario, demos, predictions)
    emit_report([report], args.format, args.out)
    print(
        f"{method} on {args.scenario}: ADE {report.ade:.4f} m, FDE {report.fde:.4f} m "
        f"-> {args.out}"
    )
    if args.overlay:
        svg = render_overlay_svg(demos, predictions)
        with open(args.overlay, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


def _read_report_any(path: str) -> tuple[list[dict], dict[str, list[float]]]:
    """Rows plus per-method rmse lists from a csv or jsonl report."""
    if not path.endswith(".jsonl"):
        return parse_report_csv(path), {}
    rows, rmse_lists = [], {}
    for line_no, line in enumerate(read_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if "rmse_per_traj" in rec:
                rmse_lists[str(rec["method"])] = [float(v) for v in rec["rmse_per_traj"]]
            elif "method" in rec:
                rows.append({**rec, "method": str(rec["method"]), "scenario": str(rec["scenario"]),
                             "ade_m": float(rec["ade_m"]), "fde_m": float(rec["fde_m"])})
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
            raise FormatError(f"{path} line {line_no}: malformed report line ({exc!r})") from exc
    return rows, rmse_lists


def cmd_plot(args, cfg: dict) -> int:
    all_rmse: dict[str, list[float]] = {}
    for path in args.reports:
        _, rmse_lists = _read_report_any(path)
        all_rmse.update(rmse_lists)
    if not any(all_rmse.values()):
        raise FormatError("no per-trajectory RMSE data found; plot needs jsonl reports")
    thresholds = cdf_thresholds(max(max(v) for v in all_rmse.values() if v))
    series = {m: rmse_cdf(np.array(v), thresholds) for m, v in sorted(all_rmse.items())}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_cdf_svg(series))
    print(f"wrote CDF plot for {len(series)} method(s) to {args.out}")
    return EXIT_OK


def cmd_compare(args, cfg: dict) -> int:
    aggregates = []
    for path in args.reports:
        rows, _ = _read_report_any(path)
        for row in rows:
            if row.get("agent") == "all":
                aggregates.append(row)
    if not aggregates:
        raise FormatError("no aggregate rows found in the given reports")
    aggregates.sort(key=lambda r: (r["ade_m"], r["fde_m"], r["method"]))
    print(f"{'rank':<5} {'method':<10} {'scenario':<16} {'ade_m':>10} {'fde_m':>10}")
    for rank, row in enumerate(aggregates, start=1):
        print(
            f"{rank:<5} {row['method']:<10} {row['scenario']:<16} "
            f"{row['ade_m']:>10.4f} {row['fde_m']:>10.4f}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for row in aggregates:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    epilog = "config keys and defaults:\n  " + "\n  ".join(_config_keys(DEFAULT_CONFIG))
    parser = argparse.ArgumentParser(
        prog="crowdirl",
        description=__doc__,
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, help="global seed (uint64)")
    parser.add_argument("--eps-psd", dest="eps_psd", type=float, help="covariance eigenvalue floor")
    parser.add_argument("--entropy-temp", dest="entropy_temp", type=float, help="policy covariance scale")
    parser.add_argument("--beta", type=float, help="weight-update learning rate")
    parser.add_argument("--iters", type=int, help="max training sweeps")
    parser.add_argument("--tol", type=float, help="feature-gap convergence threshold")
    parser.add_argument("--rollouts", type=int, help="rollouts per feature expectation")
    parser.add_argument("--best-of", dest="best_of", type=int, help="evaluate best of N sampled rollouts")
    parser.add_argument(
        "--u-max", dest="u_max", type=float, help="control magnitude clamp (> 0; inf for none)"
    )
    parser.add_argument("--sigma", type=float, help="proximity kernel width")
    parser.add_argument(
        "--log-level", dest="log_level", choices=LOG_LEVELS, default="warning",
        help="least severe log record printed to stderr (default: warning)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw frame stream -> scenario catalog")
    p.add_argument("raw", help="line-delimited frame stream")
    p.add_argument("out", help="output directory")

    p = sub.add_parser("synth", help="generate ground-truth demonstrations")
    p.add_argument("out", help="output demonstration file")
    p.add_argument("--preset", default="intersection_k3", help="scenario preset name")
    p.add_argument("--theta", default="1.0,0.5,0.2", help="weights 'a,b,c' or per-agent 'a,b,c;...'")
    p.add_argument("--n", type=int, default=20, help="number of demonstrations")
    p.add_argument("--horizon", type=int, default=None, help="override preset horizon")

    p = sub.add_parser("train", help="learn cost weights from demonstrations")
    p.add_argument("demos", help="demonstration file")
    p.add_argument("--method", choices=("mairl", "sairl"), default="mairl")
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--trace-out", dest="trace_out", help="write per-update trace JSONL")
    p.add_argument("--diagnostics", action="store_true", help="print solver conditioning stats")

    p = sub.add_parser("eval", help="score a method against demonstrations")
    p.add_argument("demos", help="evaluation demonstration file")
    p.add_argument("--baseline", required=True, help=f"one of {', '.join(BASELINE_NAMES)}")
    p.add_argument("--theta", help="weight file (required for mairl/sairl)")
    p.add_argument("--train", dest="train_demos",
                   help="demonstrations gmm and ebm fit on (default: DEMOS); other baselines never read it")
    p.add_argument("--scenario", default="default", help="scenario label for reports")
    p.add_argument("--out", required=True, help="report file to write")
    p.add_argument("--format", choices=("csv", "jsonl", "svg"), default="csv")
    p.add_argument("--overlay", help="also write a trajectory overlay SVG here")

    p = sub.add_parser("plot", help="render CDF curves from jsonl reports")
    p.add_argument("reports", nargs="+", help="report files")
    p.add_argument("--out", required=True, help="SVG file to write")

    p = sub.add_parser("compare", help="rank methods across reports")
    p.add_argument("reports", nargs="+", help="report files")
    p.add_argument("--out", help="optional JSONL ranking output")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every `main` call in this process parses with, built on the first call.

    `build_parser` still returns a fresh parser, so a caller that changes the one
    it gets never changes what `main` parses. The shared parser holds no function
    and no mutable default, and parsing or printing help leaves it as it was.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    # the package's log records go to one formatted stderr handler for this
    # command only, so repeated in-process calls never stack handlers
    logger = logging.getLogger("crowdirl")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level.upper())
    try:
        cfg = load_config(args.config, vars(args))
        # subcommand NAME runs cmd_NAME, looked up per call so a rebound cmd_* takes effect
        return globals()[f"cmd_{args.command}"](args, cfg)
    except (FormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, InternalError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CrowdIrlError as exc:  # pragma: no cover - catch-all for subclasses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
