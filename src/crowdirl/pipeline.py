"""Ingest, preprocess and synthesize demonstration trajectories.

Raw input is a line-delimited stream of tracker frames (one JSON object per
line carrying a timestamp and detected objects). Frames become per-id tracks
resampled onto a uniform time grid, standstill and out-of-range data are
dropped, and surviving tracks are stacked into T x 4k arrays of Cartesian
joint states, either directly or combinatorially, crossing direction groups
into scenario catalogs; only the writer converts them to the dataset layout,
once. A catalog shares each track among many entries, so its writer checks,
converts and formats each track's block once and joins every entry's rows
from that text. A synthetic generator produces ground-truth demonstrations by
rolling out game policies at known cost weights, emitted in the same
interchange format the readers accept.

Interchange file layout: one JSON header line (k, T, dt, goals, count,
provenance) followed by `count` blocks of T comma-separated rows, each row a
4k dataset-layout state (position, speed, heading per agent). T counts rows,
i.e. steps + 1.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, ValidationError
from .features import CostParams, ProximityConfig
from .game import SolverConfig, build_policies, sample_rollouts
from .trajectory import (
    DEFAULT_U_MAX,
    ScenarioSpec,
    Trajectory,
    from_dataset_array,
    to_dataset_array,
)

logger = logging.getLogger(__name__)

AGENT_CLASSES = ("pedestrian", "bicycle", "scooter", "car", "other")
_FRAME_KEYS = {"t", "objects"}
_OBJECT_KEYS = {"id", "x", "y", "w", "l", "angle", "class", "speed", "acc"}
_HEADER_KEYS = {"k", "T", "dt", "goals", "count", "provenance"}
GAP_SPLIT_FACTOR = 5
DIRECTIONS = ("E", "W", "N", "S")  # every value travel_direction returns
_FLOAT_MAX = sys.float_info.max


def json_kind(value) -> str:
    """JSON type of a parsed value; int and float are both a finite number."""
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        # NaN, infinity, or an integer beyond float range fail both comparisons
        return "a number" if -_FLOAT_MAX <= value <= _FLOAT_MAX else "a non-finite number"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, list):
        return "a list"
    return "null" if value is None else "an object"


@dataclass(frozen=True)
class RawFrameObject:
    """One tracked object in one frame, as reported by the sensor."""

    object_id: str
    x: float
    y: float
    width: float
    length: float
    angle: float
    agent_class: str
    speed: float
    accuracy: float

    def __post_init__(self):
        if self.agent_class not in AGENT_CLASSES:
            raise FormatError(f"unknown agent class {self.agent_class!r}")
        if self.speed < 0:
            raise FormatError(f"speed must be >= 0, got {self.speed}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise FormatError(f"accuracy must be in [0, 1], got {self.accuracy}")


@dataclass(frozen=True)
class RawFrame:
    timestamp: float
    objects: tuple[RawFrameObject, ...]


@dataclass(frozen=True)
class PreprocessConfig:
    """Spatial clip window, standstill threshold and resampling grid."""

    x_range: tuple[float, float] = (-20.0, 20.0)
    y_range: tuple[float, float] = (-10.0, 15.0)
    standstill_speed: float = 0.2
    min_track_len: int = 10
    resample_dt: float = 0.1

    def __post_init__(self):
        for name in ("x_range", "y_range"):
            lo_hi = tuple(getattr(self, name))
            if not (len(lo_hi) == 2 and all(json_kind(v) == "a number" for v in lo_hi)
                    and lo_hi[0] < lo_hi[1]):
                raise ValidationError(
                    f"{name} must be two finite numbers lo < hi, got {list(lo_hi)}")
            object.__setattr__(self, name, lo_hi)  # a JSON list is stored as the tuple it means
        if self.resample_dt <= 0:
            raise ValidationError("resample_dt must be positive")


@dataclass(frozen=True)
class Track:
    """Uniformly sampled single-agent track in Cartesian states."""

    track_id: str
    t0: float
    dt: float
    states: np.ndarray  # (n, 4): px, py, vx, vy

    def __post_init__(self):
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 4:
            raise ValidationError(f"track states must be (n, 4), got {states.shape}")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]


def _parse_object(obj: dict, line_no: int) -> RawFrameObject:
    if not isinstance(obj, dict):
        raise FormatError(f"line {line_no}: frame object must be a JSON object")
    unknown = set(obj) - _OBJECT_KEYS
    if unknown:
        raise FormatError(f"line {line_no}: unknown object keys {sorted(unknown)}")
    missing = _OBJECT_KEYS - set(obj)
    if missing:
        raise FormatError(f"line {line_no}: missing object keys {sorted(missing)}")
    oid = obj["id"]
    if isinstance(oid, bool) or not isinstance(oid, (str, int)):
        raise FormatError(f"line {line_no}: key 'id' must be a string or an integer, "
                          f"got {json_kind(oid)}")
    x, y, width, length, angle, speed, accuracy = [
        _number_field(obj, key, line_no) for key in ("x", "y", "w", "l", "angle", "speed", "acc")]
    return RawFrameObject(object_id=str(oid), x=x, y=y, width=width, length=length, angle=angle,
                          agent_class=str(obj["class"]), speed=speed, accuracy=accuracy)


def _number_field(rec: dict, key: str, line_no: int) -> float:
    value = rec[key]
    if json_kind(value) != "a number":
        raise FormatError(f"line {line_no}: key {key!r} must be a finite number, "
                          f"got {json_kind(value)}")
    return float(value)


def parse_frames(stream: Iterable[str] | str) -> list[RawFrame]:
    """Parse a line-delimited frame stream; timestamps must strictly increase."""
    if isinstance(stream, str):
        stream = stream.splitlines()
    frames: list[RawFrame] = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise FormatError(f"line {line_no}: frame must be a JSON object")
        unknown = set(rec) - _FRAME_KEYS
        if unknown:
            raise FormatError(f"line {line_no}: unknown frame keys {sorted(unknown)}")
        if _FRAME_KEYS - set(rec):
            raise FormatError(f"line {line_no}: frame needs keys 't' and 'objects'")
        t = _number_field(rec, "t", line_no)
        if frames and t <= frames[-1].timestamp:
            raise FormatError(
                f"line {line_no}: timestamp {t} not after previous frame "
                f"at {frames[-1].timestamp}"
            )
        objs = rec["objects"]
        if not isinstance(objs, list):
            raise FormatError(f"line {line_no}: 'objects' must be a list")
        frames.append(
            RawFrame(timestamp=t, objects=tuple(_parse_object(o, line_no) for o in objs))
        )
    return frames


def tracks_from_frames(
    frames: Sequence[RawFrame], cfg: PreprocessConfig = PreprocessConfig()
) -> dict[str, Track]:
    """Group detections by id, split at gaps, resample onto a uniform grid.

    Velocities come from the reported speed and box angle; time gaps longer
    than GAP_SPLIT_FACTOR * resample_dt split a track (with a warning).
    """
    raw: dict[str, list[tuple[float, float, float, float, float]]] = {}
    for frame in frames:
        for obj in frame.objects:
            vx = obj.speed * math.cos(obj.angle)
            vy = obj.speed * math.sin(obj.angle)
            raw.setdefault(obj.object_id, []).append(
                (frame.timestamp, obj.x, obj.y, vx, vy)
            )

    out: dict[str, Track] = {}
    max_gap = GAP_SPLIT_FACTOR * cfg.resample_dt
    for track_id, samples in raw.items():
        times = np.array([s[0] for s in samples])
        segments: list[slice] = []
        start = 0
        for j in range(1, len(samples)):
            if times[j] - times[j - 1] > max_gap:
                segments.append(slice(start, j))
                start = j
        segments.append(slice(start, len(samples)))
        if len(segments) > 1:
            logger.warning(
                "track %s has %d gaps > %.2fs; splitting into %d tracks",
                track_id, len(segments) - 1, max_gap, len(segments),
            )
        for part, seg in enumerate(segments):
            name = track_id if len(segments) == 1 else f"{track_id}#{part}"
            out[name] = _resample_segment(name, samples[seg], cfg.resample_dt)
    return out


def _resample_segment(name: str, samples, dt: float) -> Track:
    arr = np.array(samples, dtype=float)  # (n, 5): t, x, y, vx, vy
    t = arr[:, 0]
    n_out = int(math.floor((t[-1] - t[0]) / dt + 1e-9)) + 1
    grid = t[0] + dt * np.arange(n_out)
    cols = [np.interp(grid, t, arr[:, j]) for j in range(1, 5)]
    return Track(track_id=name, t0=float(t[0]), dt=dt, states=np.stack(cols, axis=1))


def _longest_inrange_run(states: np.ndarray, cfg: PreprocessConfig) -> slice:
    ok = (
        (states[:, 0] >= cfg.x_range[0])
        & (states[:, 0] <= cfg.x_range[1])
        & (states[:, 1] >= cfg.y_range[0])
        & (states[:, 1] <= cfg.y_range[1])
    )
    best = slice(0, 0)
    start = None
    for j, good in enumerate(np.append(ok, False)):
        if good and start is None:
            start = j
        elif not good and start is not None:
            if j - start > best.stop - best.start:
                best = slice(start, j)
            start = None
    return best


def filter_tracks(
    tracks: dict[str, Track], cfg: PreprocessConfig = PreprocessConfig()
) -> dict[str, Track]:
    """Drop standstill tracks, clip to the spatial window, drop short leftovers.

    Idempotent: surviving tracks pass unchanged through a second application.
    """
    out: dict[str, Track] = {}
    for name, track in tracks.items():
        speeds = np.linalg.norm(track.states[:, 2:], axis=1)
        if float(np.mean(speeds)) < cfg.standstill_speed:
            continue
        run = _longest_inrange_run(track.states, cfg)
        length = run.stop - run.start
        if length < cfg.min_track_len:
            continue
        out[name] = Track(
            track_id=track.track_id,
            t0=track.t0 + run.start * track.dt,
            dt=track.dt,
            states=track.states[run],
        )
    return out


def travel_direction(track: Track) -> str:
    """Cardinal direction of net displacement: E/W along x, N/S along y."""
    d = track.states[-1, :2] - track.states[0, :2]
    if abs(d[0]) >= abs(d[1]):
        return "E" if d[0] >= 0 else "W"
    return "N" if d[1] >= 0 else "S"


def assemble_joint(tracks: Sequence[Track], T: int) -> np.ndarray:
    """Stack k tracks (aligned from their own starts) into a (T, 4k) array.

    Rows are Cartesian joint states (x, y, vx, vy per agent), converted to
    the dataset layout only when written; column blocks follow the given
    track order. Every track must supply at least T samples.
    """
    if not tracks:
        raise ValidationError("need at least one track")
    shortest = min(tracks, key=len)
    if len(shortest) < T:
        raise ValidationError(
            f"track {shortest.track_id!r} covers only {len(shortest)} < {T} steps"
        )
    return np.concatenate([trk.states[:T] for trk in tracks], axis=1)


@dataclass(frozen=True)
class CatalogEntry:
    category: str
    track_ids: tuple[str, ...]
    array: np.ndarray  # (T, 4k) Cartesian joint states


@dataclass(frozen=True)
class ScenarioCatalog:
    categories: tuple[str, ...]
    entries: tuple[CatalogEntry, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def count_by_category(self) -> dict[str, int]:
        counts = {c: 0 for c in self.categories}
        for e in self.entries:
            counts[e.category] += 1
        return counts


def combinatorial_scenarios(
    groups: dict[str, Sequence[Track]],
    scheme: Sequence[str],
    T: int,
) -> ScenarioCatalog:
    """Cross direction groups into joint scenarios, one category per scheme name.

    A category like 'W-E-S' takes the cross product of the named groups, so a
    scheme of c categories over groups of n tracks yields c * n^arity entries.
    """
    sizes = set()
    for cat in scheme:
        for direction in cat.split("-"):
            if direction not in groups:
                raise ValidationError(f"category {cat!r} needs missing direction group {direction!r}")
            sizes.add(len(groups[direction]))
    if len(sizes) > 1:
        raise ValidationError(f"direction groups must be equally sized, got sizes {sorted(sizes)}")

    entries: list[CatalogEntry] = []
    for cat in scheme:
        directions = cat.split("-")
        for combo in itertools.product(*(groups[d] for d in directions)):
            entries.append(
                CatalogEntry(
                    category=cat,
                    track_ids=tuple(trk.track_id for trk in combo),
                    array=assemble_joint(combo, T),
                )
            )
    return ScenarioCatalog(categories=tuple(scheme), entries=tuple(entries))


# --- synthetic ground truth --------------------------------------------------


def synth_generate(
    theta_star: Sequence[CostParams],
    spec: ScenarioSpec,
    n_demos: int,
    seed: int,
    solver_cfg: SolverConfig = SolverConfig(),
    proximity: ProximityConfig = ProximityConfig(),
    u_max: float = DEFAULT_U_MAX,
) -> list[Trajectory]:
    """Roll out demonstrations from known weights; deterministic per seed."""
    if n_demos < 1:
        raise ValidationError("n_demos must be >= 1")
    policies = build_policies(theta_star, spec, solver_cfg, proximity, u_max)
    return list(sample_rollouts(policies, spec, n_demos, seed, u_max))


def synth_provenance(theta_star: Sequence[CostParams], seed: int) -> dict:
    return {
        "generator": "game-policy-rollout",
        "theta_star": [[float(v) for v in th.weights] for th in theta_star],
        "seed": int(seed),
    }


# --- interchange files -------------------------------------------------------


def write_demonstrations(
    path,
    trajs: Sequence[Trajectory],
    goals: np.ndarray | None,
    provenance: dict | None = None,
    spec: ScenarioSpec | None = None,
) -> None:
    """Write a demonstration set in the interchange format (see module doc).

    An empty set is allowed (header-only file) when a spec supplies the
    header dimensions.
    """
    if not trajs:
        if spec is None:
            raise ValidationError("an empty demonstration set needs an explicit spec")
        k, T_steps, dt = spec.k, spec.horizon, spec.dt
    else:
        k, T_steps, dt = trajs[0].k, trajs[0].horizon, trajs[0].dt
    for traj in trajs:
        if traj.k != k or traj.horizon != T_steps or abs(traj.dt - dt) > 1e-12:
            raise ValidationError("all trajectories in one file must share (k, T, dt)")
    lines = [_header_line(k, T_steps + 1, dt, goals, len(trajs), provenance)]
    for traj in trajs:
        lines.extend(_dataset_rows(traj.states))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_line(k: int, rows: int, dt: float, goals, count: int, provenance: dict | None) -> str:
    header = {
        "k": k,
        "T": rows,  # rows per block
        "dt": dt,
        "goals": None if goals is None else [[float(g[0]), float(g[1])] for g in np.asarray(goals)],
        "count": count,
        "provenance": provenance or {},
    }
    return json.dumps(header, sort_keys=True)


def _dataset_rows(states: np.ndarray) -> list[str]:
    # repr of a Python float is the shortest string that reads back exactly
    return [",".join(map(repr, row)) for row in to_dataset_array(states).tolist()]


def write_catalog(out_dir, catalog: ScenarioCatalog, dt: float) -> list[dict]:
    """Write entry i as `{category}_{i:04d}.traj` in out_dir; return each entry's metadata.

    Each file holds what write_demonstrations writes for the entry's one
    trajectory (goals None, provenance its category), byte for byte. The
    dataset conversion is elementwise within an agent's column block, so each
    distinct block is checked and formatted once per call, keyed by its
    bytes, and an entry's rows are its blocks' row text joined by commas.
    """
    dt = float(dt)
    block_rows: dict[bytes, list[str]] = {}
    entries_meta = []
    for idx, entry in enumerate(catalog.entries):
        k = entry.array.shape[1] // 4
        per_agent = []
        for block in (entry.array[:, 4 * j:4 * j + 4] for j in range(k)):
            key = block.tobytes()
            if key not in block_rows:
                try:
                    Trajectory.from_states(block, dt)  # the checks the entry's trajectory applies
                except ValidationError:
                    Trajectory.from_states(entry.array, dt)  # the entry's own message, states first
                    raise
                block_rows[key] = _dataset_rows(block)
            per_agent.append(block_rows[key])
        lines = [_header_line(k, len(entry.array), dt, None, 1, {"category": entry.category})]
        lines.extend(map(",".join, zip(*per_agent)))
        fname = f"{entry.category}_{idx:04d}.traj"
        with open(Path(out_dir) / fname, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        entries_meta.append({"category": entry.category, "tracks": list(entry.track_ids),
                             "file": fname})
    return entries_meta


def read_text_lines(path) -> list[str]:
    """Lines of a UTF-8 text file without their newlines; FormatError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def read_demonstrations(path) -> tuple[list[Trajectory], dict]:
    """Read an interchange file back into trajectories plus its header.

    Controls are reconstructed from consecutive velocities (u = dv / dt);
    they are exact for generated data and estimates for resampled data.
    """
    lines = read_text_lines(path)
    if not lines or not lines[0].strip():
        raise FormatError("missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid header JSON: {exc.msg}") from exc
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    unknown = set(header) - _HEADER_KEYS
    if unknown:
        raise FormatError(f"unknown header keys {sorted(unknown)}")
    missing = _HEADER_KEYS - set(header)
    if missing:
        raise FormatError(f"missing header keys {sorted(missing)}")

    for key, least in (("k", 1), ("T", 2), ("count", 0)):
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise FormatError(f"header key {key!r} must be an integer >= {least}, got {value!r}")
    k, rows_per, count, dt, goals = (header[key] for key in ("k", "T", "count", "dt", "goals"))
    if json_kind(dt) != "a number" or dt <= 0:
        raise FormatError(f"header key 'dt' must be a positive finite number, got {dt!r}")
    pair = ["a number"] * 2
    if goals is not None and not (
        isinstance(goals, list)
        and len(goals) == k
        and all(isinstance(g, list) and [json_kind(v) for v in g] == pair for g in goals)
    ):
        raise FormatError(f"header key 'goals' must be null or {k} pairs of finite numbers")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count * rows_per:
        raise FormatError(
            f"expected {count * rows_per} data rows ({count} blocks of {rows_per}), got {len(body)}"
        )

    # every row is checked and parsed into one list and the whole file converted at once;
    # the conversion is elementwise, so each block reads bit for bit as it would alone
    width = 4 * k
    values: list[float] = []
    for i, ln in enumerate(body):
        b, row = divmod(i, rows_per)
        if "_" in ln:  # float() reads "1_0" as 10.0; repr never writes an underscore
            raise FormatError(f"non-numeric value in block {b}: digit-group underscore in row {row}")
        fields = ln.split(",")
        if len(fields) != width:
            raise FormatError(f"block {b}: row {row} has {len(fields)} values, expected {width}")
        try:
            values += map(float, fields)
        except ValueError as exc:
            raise FormatError(f"non-numeric value in block {b}: {exc}") from exc
    states = from_dataset_array(np.array(values).reshape(count, rows_per, width))
    return [Trajectory.from_states(s, dt) for s in states], header


def header_goals(header: dict) -> np.ndarray | None:
    goals = header.get("goals")
    return None if goals is None else np.asarray(goals, dtype=float)
