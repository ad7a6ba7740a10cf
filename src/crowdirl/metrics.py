"""Displacement metrics, report generation and the scoring protocol.

Metric math (ADE, FDE, per-trajectory RMSE, CDF curves, heading entropy) is
kept exact and branch-free; the scoring protocol turns a method name plus
training data into per-demonstration position predictions and aggregates the
errors into reports. Reports serialize to CSV, JSONL or deterministic SVG
(fixed canvas and palette so outputs are byte-stable for a given input), and
this module alone reads them back and plots them.

EFE is reported as full-horizon ADE on tracker-derived inputs; that reading
is an interpretation of this artifact and is labeled as such in emitted
reports.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .baselines import ebm_minimizer, ebm_train, gmm_conditioner, gmm_fit
from .errors import CostRangeError, FormatError, ValidationError
from .features import CostParams
from .game import SolverConfig, build_policies, mean_rollout, sample_rollouts
from .pipeline import json_kind, read_text_lines
from .trajectory import (
    CONTROL_DIM,
    STATE_DIM,
    RolloutSet,
    ScenarioSpec,
    check_count,
    integrate_controls,
    rollout,
)

EFE_NOTE = "efe_m is full-horizon ADE on tracker-derived inputs (artifact interpretation)"
BASELINE_NAMES = ("cv", "gmm", "ebm", "mairl", "sairl")
FITTED_BASELINES = ("gmm", "ebm")  # the only ones that read PredictorContext.train_demos


# --- metric math -------------------------------------------------------------


def _check_paired(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[0] < 1 or pred.shape[1] != 2:
        raise ValidationError(
            f"prediction and ground truth must be equal (n, 2) arrays, got {pred.shape} vs {gt.shape}"
        )
    return pred, gt


def ade(pred, gt) -> float:
    """Mean Euclidean displacement over aligned steps."""
    pred, gt = _check_paired(pred, gt)
    return float(np.mean(np.linalg.norm(pred - gt, axis=1)))


def fde(pred, gt) -> float:
    """Euclidean displacement at the final step only."""
    pred, gt = _check_paired(pred, gt)
    return float(np.linalg.norm(pred[-1] - gt[-1]))


def efe(pred, gt) -> float:
    """Full-horizon forecasting error; see module docstring for the reading."""
    return ade(pred, gt)


def rmse(pred, gt) -> float:
    """Root-mean-square displacement over aligned steps."""
    pred, gt = _check_paired(pred, gt)
    return float(np.sqrt(np.mean(np.sum((pred - gt) ** 2, axis=1))))


@dataclass(frozen=True)
class CdfSeries:
    """Fraction of trajectories at or below each ascending error threshold."""

    thresholds: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        th = np.array(self.thresholds, dtype=float)
        fr = np.array(self.fractions, dtype=float)
        if th.shape != fr.shape or th.ndim != 1:
            raise ValidationError("thresholds and fractions must be equal 1-d arrays")
        if np.any(np.diff(th) < 0) or np.any(np.diff(fr) < -1e-12):
            raise ValidationError("thresholds and fractions must be nondecreasing")
        if np.any((fr < 0) | (fr > 1)):
            raise ValidationError("fractions must lie in [0, 1]")
        th.setflags(write=False)
        fr.setflags(write=False)
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "fractions", fr)


def rmse_cdf(errors: Sequence[float], thresholds: Sequence[float]) -> CdfSeries:
    """Counting CDF: fraction of errors <= each threshold."""
    errors = np.asarray(errors, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    if errors.size == 0:
        raise ValidationError("rmse_cdf needs at least one error value")
    fractions = np.array([np.mean(errors <= t) for t in thresholds])
    return CdfSeries(thresholds=thresholds, fractions=fractions)


@dataclass(frozen=True)
class EntropyReport:
    bits: float
    bins: int

    def __post_init__(self):
        if not 0.0 <= self.bits <= math.log2(self.bins) + 1e-12:
            raise ValidationError(
                f"entropy {self.bits} outside [0, log2({self.bins})]"
            )


def trajectory_entropy(dataset: RolloutSet, bins: int = 8) -> EntropyReport:
    """Shannon entropy (bits) of per-step headings pooled across the dataset.

    Headings fall into `bins` equal circular sectors of (-pi, pi]; the number
    is only comparable across datasets binned identically.
    """
    bins = check_count("bins", bins, 2)
    v = dataset.states.reshape(-1, STATE_DIM)[:, 2:]  # demo, step, agent order
    speed = np.linalg.norm(v, axis=1)
    pooled = np.where(speed > 0, np.arctan2(v[:, 1], v[:, 0]), 0.0)
    width = 2.0 * np.pi / bins
    idx = np.floor((pooled + np.pi) / width).astype(int) % bins
    counts = np.bincount(idx, minlength=bins)
    p = counts / counts.sum()
    nz = p[p > 0]
    return EntropyReport(bits=float(-np.sum(nz * np.log2(nz))), bins=bins)


# --- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """Aggregated errors of one method on one scenario's demonstrations."""

    method: str
    scenario: str
    per_agent_ade: np.ndarray  # (k,)
    per_agent_fde: np.ndarray
    rmse_per_traj: np.ndarray  # (n_demos,)

    def __post_init__(self):
        for name in ("per_agent_ade", "per_agent_fde", "rmse_per_traj"):
            arr = np.array(getattr(self, name), dtype=float)
            if not np.all((arr >= 0) & (arr < math.inf)):  # NaN fails both comparisons
                raise ValidationError(f"{name} must be finite and >= 0")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def ade(self) -> float:
        return float(np.mean(self.per_agent_ade))

    @property
    def fde(self) -> float:
        return float(np.mean(self.per_agent_fde))

    @property
    def k(self) -> int:
        return self.per_agent_ade.size


def _displacement_rows(pred, gt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADE, FDE and mean squared displacement (..., k) of positions (..., T+1, k, 2).

    Each row holds the bits of `ade`, `fde` and the mean squared norm of one
    agent's track: a step's squared norm is dx*dx + dy*dy, as np.linalg.norm
    sums it along an axis; each agent's T+1 steps are made contiguous, so
    np.mean sums them as one row; and the final norm is the square root of a
    (1, 2) @ (2, 1) product, the dot np.linalg.norm takes of a single pair.
    """
    d = pred - gt
    sq = d * d
    step_sq = np.moveaxis(sq[..., 0] + sq[..., 1], -2, -1).copy()  # (..., k, T+1)
    last = np.ascontiguousarray(d[..., -1, :, :])  # (..., k, 2)
    fdes = np.sqrt(last[..., None, :] @ last[..., :, None])[..., 0, 0]
    return np.mean(np.sqrt(step_sq), axis=-1), fdes, np.mean(step_sq, axis=-1)


def _positions(states: np.ndarray) -> np.ndarray:
    """Positions (..., k, 2) of joint states (..., 4k), as a view."""
    return states.reshape(*states.shape[:-1], -1, STATE_DIM)[..., :2]


def score_predictions(
    method: str,
    scenario: str,
    demos: RolloutSet,
    predictions: np.ndarray,
) -> MetricReport:
    """Aggregate displacement errors of per-demo position predictions.

    predictions (n, T+1, k, 2) holds one position track per demonstration
    and is compared stepwise against them; per-agent errors
    are summed over demonstrations in order and averaged, and each demo's
    mean squared errors summed over agents in order. An error that overflows
    raises CostRangeError (source "states"), silently.
    """
    n, T, k = len(demos), demos.horizon, demos.k
    preds = np.asarray(predictions, dtype=float)
    if preds.shape != (n, T + 1, k, 2):
        raise ValidationError(f"predictions shape {preds.shape} != ({n}, {T + 1}, {k}, 2)")
    with np.errstate(over="ignore", invalid="ignore"):
        ades, fdes, msq = _displacement_rows(preds, _positions(demos.states))
        rmses = np.sqrt(np.add.accumulate(msq, axis=1)[:, -1] / k)
        ades, fdes = (np.add.accumulate(rows, axis=0)[-1] for rows in (ades, fdes))
    if not np.all(np.isfinite([*ades, *fdes, *rmses])):
        raise CostRangeError("displacement errors overflow", "states")
    return MetricReport(
        method=method,
        scenario=scenario,
        per_agent_ade=ades / n,
        per_agent_fde=fdes / n,
        rmse_per_traj=rmses,
    )


# --- scoring protocol ---------------------------------------------------------


@dataclass(frozen=True)
class PredictorContext:
    """Everything a method needs to turn a demo's start state into positions.

    Read-only and cache-free: make_predictor does all fitting and solving.
    Every prediction's controls are clamped at spec.u_max, and the games of
    mairl/sairl cost crowding with the kernel width spec.sigma.
    """

    spec: ScenarioSpec
    train_demos: RolloutSet
    thetas: Sequence[CostParams] | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    best_of: int = 1
    seed: int = 0
    gmm_components: int = 3

    def __post_init__(self):
        check_count("best_of", self.best_of)


Predictor = Callable[[RolloutSet], np.ndarray]  # demos -> (n, T+1, k, 2) positions


def _demo_state_action_pairs(demos: RolloutSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent (state, action) rows of the demonstrations, in demo, agent, step order."""
    X = demos.states[:, :-1].reshape(len(demos), demos.horizon, demos.k, STATE_DIM)
    return (X.transpose(0, 2, 1, 3).reshape(-1, STATE_DIM),
            demos.controls.transpose(0, 2, 1, 3).reshape(-1, CONTROL_DIM))


def _rollout_state_feedback(demos: RolloutSet, spec: ScenarioSpec, act: Callable) -> np.ndarray:
    """Positions (n, T+1, k, 2) rolled out from each demo's start state, clamped at spec.u_max.

    act maps (n, k, 4) agent states to (n, k, 2) actions: one call per step
    moves every demo and agent at once.
    """
    x0 = demos.states[:, 0]
    states, _ = rollout(x0, spec.horizon, spec.dt,
                        lambda t, x: act(x.reshape(len(x), spec.k, STATE_DIM)), spec.u_max)
    return _positions(states)


def make_predictor(method: str, ctx: PredictorContext) -> Predictor:
    """Position predictor for one of the named methods: demos -> (n, T+1, k, 2).

    cv extrapolates each agent's initial velocity: the zero tapes of all demos
    integrated at once in closed form (`integrate_controls`). gmm and ebm are
    fitted here on the training demonstrations and rolled out under state
    feedback, every demo and agent at once. mairl/sairl solve the game at the
    supplied weights once per distinct start and give each of its demos the feedback mean (or
    the closest of one set of ctx.best_of sampled rollouts when best_of > 1).
    """
    spec = ctx.spec
    if method == "cv":
        def predict_cv(demos: RolloutSet) -> np.ndarray:
            x0 = demos.states[:, 0]
            tapes = np.zeros((len(x0), spec.horizon, spec.k, CONTROL_DIM))
            return _positions(integrate_controls(x0, tapes, spec.dt))

        return predict_cv

    if method == "gmm":
        pairs = np.concatenate(_demo_state_action_pairs(ctx.train_demos), axis=1)
        model = gmm_fit(pairs, K=ctx.gmm_components, seed=ctx.seed)
        act = gmm_conditioner(model, STATE_DIM)
        return lambda demos: _rollout_state_feedback(demos, spec, act)

    if method == "ebm":
        params = ebm_train(*_demo_state_action_pairs(ctx.train_demos))
        return lambda demos: _rollout_state_feedback(
            demos, spec, lambda s: ebm_minimizer(params, s))

    if method in ("mairl", "sairl"):
        if ctx.thetas is None or len(ctx.thetas) != spec.k:
            raise ValidationError(f"method {method!r} needs {spec.k} weight vectors")

        def predict_irl(demos: RolloutSet) -> np.ndarray:
            positions = _positions(demos.states)
            rows_by_start: dict[bytes, list[int]] = {}
            for j, x0 in enumerate(demos.states[:, 0]):
                rows_by_start.setdefault(x0.tobytes(), []).append(j)
            out = np.empty(positions.shape)
            for rows in rows_by_start.values():
                start_spec = replace(spec, x0=demos.states[rows[0], 0])
                policies = build_policies(ctx.thetas, start_spec, ctx.solver)
                if ctx.best_of <= 1:
                    mean = mean_rollout(policies, start_spec)
                    out[rows] = _positions(mean.states)
                    continue
                cands = _positions(sample_rollouts(policies, start_spec, ctx.best_of, ctx.seed).states)
                for j in rows:
                    with np.errstate(over="ignore"):  # an overflow is refused when scored
                        errs = np.mean(_displacement_rows(cands, positions[j])[0], axis=-1)
                    out[j] = cands[int(np.argmin(errs))]
            return out

        return predict_irl

    raise ValidationError(f"unknown method {method!r}; choose from {BASELINE_NAMES}")


def evaluate_method(
    method: str, scenario: str, eval_demos: RolloutSet, ctx: PredictorContext
) -> MetricReport:
    predictions = make_predictor(method, ctx)(eval_demos)
    return score_predictions(method, scenario, eval_demos, predictions)


# --- emission -----------------------------------------------------------------


def report_rows(reports: Sequence[MetricReport]) -> list[dict]:
    """Flatten reports into per-agent rows plus an 'all' aggregate row each."""
    def row(rep: MetricReport, agent: str, ade_m: float, fde_m: float) -> dict:
        return {"method": rep.method, "scenario": rep.scenario, "agent": agent,
                "ade_m": ade_m, "fde_m": fde_m, "efe_m": ade_m}  # EFE is full-horizon ADE

    rows = []
    for rep in reports:
        rows.extend(row(rep, str(i), float(a), float(f))
                    for i, (a, f) in enumerate(zip(rep.per_agent_ade, rep.per_agent_fde)))
        rows.append(row(rep, "all", rep.ade, rep.fde))
    return rows


CSV_COLUMNS = ("method", "scenario", "agent", "ade_m", "fde_m", "efe_m")


def emit_report(reports: Sequence[MetricReport], fmt: str, path) -> None:
    """Serialize reports; byte-deterministic for identical inputs."""
    if fmt == "csv":
        lines = [f"# {EFE_NOTE}", ",".join(CSV_COLUMNS)]
        for row in report_rows(reports):
            lines.append(
                ",".join(
                    row[c] if isinstance(row[c], str) else repr(float(row[c]))
                    for c in CSV_COLUMNS
                )
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "jsonl":
        recs = [{"note": EFE_NOTE}] + report_rows(reports)
        for rep in reports:
            recs.append(
                {
                    "method": rep.method,
                    "scenario": rep.scenario,
                    "rmse_per_traj": [float(v) for v in rep.rmse_per_traj],
                }
            )
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in recs)
    elif fmt == "svg":
        text = error_cdf_svg({r.method: r.rmse_per_traj for r in reports})
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def report_errors(values) -> list[float]:
    """Report errors as floats; ValueError unless each is a finite number >= 0."""
    out = [float(v) for v in values]
    if not all(0.0 <= v < math.inf for v in out):  # NaN fails both comparisons
        raise ValueError(f"errors must be finite and >= 0, got {out}")
    return out


def parse_report_csv(path) -> list[dict]:
    """Read back a CSV report; inverse of emit_report(..., 'csv', ...)."""
    lines = [
        (line_no, ln.split(","))
        for line_no, ln in enumerate(read_text_lines(path), start=1)
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines or tuple(lines[0][1]) != CSV_COLUMNS:
        raise FormatError(f"{path}: missing or malformed CSV header")
    rows = []
    for line_no, parts in lines[1:]:
        if len(parts) != len(CSV_COLUMNS):
            raise FormatError(
                f"{path} line {line_no}: row has {len(parts)} fields, expected {len(CSV_COLUMNS)}"
            )
        try:
            values = report_errors(parts[3:])
        except ValueError as exc:
            raise FormatError(
                f"{path} line {line_no}: non-numeric or out-of-range value ({exc})") from exc
        rows.append(dict(zip(CSV_COLUMNS, parts[:3] + values)))
    return rows


def read_report(path) -> tuple[list[dict], dict[str, list[float]]]:
    """Rows plus per-method RMSE lists of a report; inverse of emit_report(..., 'csv' or 'jsonl', ...).

    A path ending in .jsonl is read as JSON lines, any other as CSV, which
    holds no RMSE lists. A CSV row needs all six fields; a JSON row needs
    string method and scenario and number ade_m and fde_m, and efe_m is
    checked only where present.
    """
    if not str(path).endswith(".jsonl"):
        return parse_report_csv(path), {}
    rows, rmse_lists = [], {}
    for line_no, line in enumerate(read_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError(f"not a JSON object: {line.strip()}")
            if "rmse_per_traj" in rec:
                rmse_lists[_json_string(rec, "method")] = _json_errors(rec["rmse_per_traj"])
            elif "method" in rec:
                keys = ("ade_m", "fde_m", "efe_m") if "efe_m" in rec else ("ade_m", "fde_m")
                rows.append({**rec, "method": _json_string(rec, "method"),
                             "scenario": _json_string(rec, "scenario"),
                             **dict(zip(keys, _json_errors([rec[key] for key in keys])))})
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
            raise FormatError(f"{path} line {line_no}: malformed report line ({exc!r})") from exc
    return rows, rmse_lists


def _json_string(rec: dict, key: str) -> str:
    if not isinstance(rec[key], str):
        raise TypeError(f"{key!r} must be a string, got {json_kind(rec[key])}")
    return rec[key]


def _json_errors(values) -> list[float]:
    """report_errors of a JSON list of numbers; a string or a boolean is no number."""
    if not isinstance(values, list):
        raise TypeError(f"errors must be a list, got {json_kind(values)}")
    for v in values:
        if json_kind(v) != "a number":
            raise ValueError(f"errors must be finite and >= 0, got {json_kind(v)} {v!r}")
    return report_errors(values)


# --- deterministic SVG ----------------------------------------------------------

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
SVG_W, SVG_H, SVG_MARGIN = 640, 440, 56


def _svg_head(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}" '
        f'viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<title>{title}</title>',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
    ]


def _polyline(points: np.ndarray, color: str, dashed: bool, opacity: float = 1.0) -> str:
    pts = " ".join(f"{p[0]:.2f},{p[1]:.2f}" for p in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'stroke-opacity="{opacity:.2f}"{dash} points="{pts}"/>'
    )


def error_cdf_svg(errors_by_method: dict[str, Sequence[float]]) -> str:
    """The CDF plot of every report: 25 thresholds from 0 to 5 % past the largest error."""
    top = max((float(np.max(e, initial=0.0)) for e in errors_by_method.values()), default=0.0)
    thresholds = np.linspace(0.0, max(top, 1e-9) * 1.05, 25)
    return render_cdf_svg({m: rmse_cdf(e, thresholds) for m, e in errors_by_method.items()})


def render_cdf_svg(series_by_method: dict[str, CdfSeries]) -> str:
    """Cumulative error curves, one per method, on a fixed canvas."""
    if not series_by_method:
        raise ValidationError("nothing to plot")
    xmax = max(float(s.thresholds[-1]) for s in series_by_method.values())
    xmax = max(xmax, 1e-9)
    inner_w = SVG_W - 2 * SVG_MARGIN
    inner_h = SVG_H - 2 * SVG_MARGIN

    def to_px(x, y):
        return (
            SVG_MARGIN + inner_w * (x / xmax),
            SVG_H - SVG_MARGIN - inner_h * y,
        )

    parts = _svg_head("trajectory error CDF")
    parts.append(
        f'<rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for idx, (label, series) in enumerate(sorted(series_by_method.items())):
        color = PALETTE[idx % len(PALETTE)]
        pts = np.array([to_px(t, f) for t, f in zip(series.thresholds, series.fractions)])
        parts.append(_polyline(pts, color, dashed=False))
        parts.append(
            f'<text x="{SVG_W - SVG_MARGIN - 120}" y="{SVG_MARGIN + 16 + 14 * idx}" '
            f'font-family="monospace" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append(
        f'<text x="{SVG_W // 2}" y="{SVG_H - 14}" font-family="monospace" font-size="12" '
        f'text-anchor="middle" fill="#333333">RMSE threshold (m)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_overlay_svg(demos: RolloutSet, predictions: np.ndarray) -> str:
    """Demonstrations as solid faded lines, predictions (n, T+1, k, 2) dashed, color per agent."""
    positions = _positions(demos.states)  # (n, T+1, k, 2)
    lo = positions.min(axis=(0, 1, 2)) - 0.5
    hi = positions.max(axis=(0, 1, 2)) + 0.5
    span = np.maximum(hi - lo, 1e-9)
    # x grows right from the left margin, y up from the bottom one
    origin = np.array([SVG_MARGIN, SVG_H - SVG_MARGIN])
    scale = np.array([SVG_W - 2 * SVG_MARGIN, -(SVG_H - 2 * SVG_MARGIN)])
    parts = _svg_head("demonstrations vs predictions")
    for tracks, dashed, opacity in ((positions, False, 0.35), (np.asarray(predictions), True, 1.0)):
        pixels = origin + scale * (tracks - lo) / span
        parts.extend(_polyline(pixels[j, :, i], PALETTE[i % len(PALETTE)], dashed, opacity)
                     for j in range(len(pixels)) for i in range(demos.k))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
