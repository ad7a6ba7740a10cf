"""Ingest, preprocess and synthesize demonstration trajectories.

Raw input is a line-delimited stream of tracker frames (one JSON object per
line carrying a timestamp and detected objects). Frames become per-id tracks
resampled onto a uniform time grid, standstill and out-of-range data are
dropped, and surviving tracks are grouped by travel direction and crossed
into scenario catalogs (`direction_catalog` holds the policy), each entry a
choice of tracks. A catalog shares each track among many entries, so its
writer checks, converts to the dataset layout and formats each track's rows
once and joins every entry's rows from that text. A synthetic generator
produces ground-truth demonstrations by rolling out game policies at known
cost weights, emitted in the same interchange format the readers accept.
A demonstration set is one `RolloutSet` throughout: the generator returns
the set it sampled, the reader builds one from the whole body, and the
writer formats a whole set at once.

This module is the one definition of the interchange file: one JSON header
line (k, T, dt, goals, count, provenance) followed by `count` >= 1 blocks of
T comma-separated rows, each row a 4k dataset-layout state (position, speed,
heading per agent, heading in (-pi, pi]). T counts rows, i.e. steps + 1. The
provenance is an object; a synthesized file records in it the control bound
`u_max` its demonstrations were clamped at and the crowding kernel width
`sigma` of the games they were rolled out in. The writer and the reader run
one header check, so the writer refuses what the reader would, and a body is
read by numpy's C reader alone: a field it cannot read is refused, naming
its block and row.
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
from .features import CostParams
from .game import SolverConfig, build_policies, sample_rollouts
from .trajectory import STATE_DIM, RolloutSet, ScenarioSpec, check_count, check_real

logger = logging.getLogger(__name__)

AGENT_CLASSES = ("pedestrian", "bicycle", "scooter", "car", "other")
_FRAME_KEYS = {"t", "objects"}
_OBJECT_KEYS = {"id", "x", "y", "w", "l", "angle", "class", "speed", "acc"}
_HEADER_KEYS = {"k", "T", "dt", "goals", "count", "provenance"}
GAP_SPLIT_FACTOR = 5
DIRECTIONS = ("E", "W", "N", "S")  # every value travel_direction returns
_FLOAT_MAX = sys.float_info.max
# numpy's C reader strips these information separators around a number as if they were
# blanks; no field of the format holds one, so a body that does is refused
_C_PADDING = "\x1c\x1d\x1e\x1f"


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
    """Spatial clip window, standstill threshold and resampling grid, then the catalog's shape.

    scheme lists the catalog's categories, each distinct directions joined by
    '-'; group_size tracks per direction are crossed into scenes of
    scenario_len rows.
    """

    x_range: tuple[float, float] = (-20.0, 20.0)
    y_range: tuple[float, float] = (-10.0, 15.0)
    standstill_speed: float = 0.2
    min_track_len: int = 10
    resample_dt: float = 0.1
    scheme: tuple[str, ...] = ("W-E-S", "W-E-N", "S-N-W", "S-N-E")
    group_size: int = 5
    scenario_len: int = 30

    def __post_init__(self):
        for name in ("x_range", "y_range"):
            lo_hi = tuple(getattr(self, name))
            if not (len(lo_hi) == 2 and all(json_kind(v) == "a number" for v in lo_hi)
                    and lo_hi[0] < lo_hi[1]):
                raise ValidationError(
                    f"{name} must be two finite numbers lo < hi, got {list(lo_hi)}")
            object.__setattr__(self, name, lo_hi)  # a JSON list is stored as the tuple it means
        object.__setattr__(self, "resample_dt", check_real(
            self.resample_dt, "resample_dt must be positive and finite, got {!r}"))
        object.__setattr__(self, "standstill_speed", check_real(
            self.standstill_speed, "standstill_speed must be finite and >= 0, got {!r}", positive=False))
        scheme = tuple(self.scheme)
        for i, cat in enumerate(scheme):
            if not (isinstance(cat, str) and all(d in DIRECTIONS for d in cat.split("-"))):
                raise ValidationError(f"preprocess.scheme entry {json.dumps(cat)} must be "
                                      f"directions from {', '.join(DIRECTIONS)} joined by '-'")
            # a repeated direction casts one track as two agents, a repeated entry doubles its scenes
            if len(set(cat.split("-"))) < len(cat.split("-")) or cat in scheme[:i]:
                raise ValidationError(f"preprocess.scheme entry {json.dumps(cat)} repeats a "
                                      "direction or an earlier entry")
        object.__setattr__(self, "scheme", scheme)
        for name, least in (("min_track_len", 1), ("group_size", 1), ("scenario_len", 2)):
            check_count(name, getattr(self, name), least)  # a scene of scenario_len rows needs one step


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
        objects = tuple(_parse_object(o, line_no) for o in objs)
        ids = [o.object_id for o in objects]  # tracks are keyed by str(id): 7 and "7" are one
        if len(set(ids)) < len(ids):
            repeated = next(oid for n, oid in enumerate(ids) if oid in ids[:n])
            raise FormatError(f"line {line_no}: object id {repeated!r} is listed twice in one frame")
        frames.append(RawFrame(timestamp=t, objects=objects))
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


@dataclass(frozen=True)
class CatalogEntry:
    category: str
    tracks: tuple[Track, ...]  # one per agent, in column order; the scene is their first T rows


@dataclass(frozen=True)
class ScenarioCatalog:
    categories: tuple[str, ...]
    entries: tuple[CatalogEntry, ...]
    T: int  # rows of every entry

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
    Every track the scheme names must supply at least T samples.
    """
    sizes = set()
    for cat in scheme:
        for direction in cat.split("-"):
            if direction not in groups:
                raise ValidationError(f"category {cat!r} needs missing direction group {direction!r}")
            sizes.add(len(groups[direction]))
    if len(sizes) > 1:
        raise ValidationError(f"direction groups must be equally sized, got sizes {sorted(sizes)}")
    for trk in (t for cat in scheme for d in cat.split("-") for t in groups[d]):
        if len(trk) < T:
            raise ValidationError(f"track {trk.track_id!r} covers only {len(trk)} < {T} steps")

    entries = [CatalogEntry(category=cat, tracks=combo) for cat in scheme
               for combo in itertools.product(*(groups[d] for d in cat.split("-")))]
    return ScenarioCatalog(categories=tuple(scheme), entries=tuple(entries), T=T)


def direction_catalog(tracks: dict[str, Track],
                      cfg: PreprocessConfig) -> tuple[dict[str, int], ScenarioCatalog]:
    """The catalog `preprocess` writes, with the number of tracks per travel direction.

    Tracks are grouped by direction in name order. Each direction offers its
    first group_size tracks that cover scenario_len rows, and only the scheme's
    categories whose every direction offers a full group are crossed. The
    counts include the tracks too short for a scene.
    """
    groups: dict[str, list] = {}
    for name in sorted(tracks):
        groups.setdefault(travel_direction(tracks[name]), []).append(tracks[name])
    # each direction's first group_size tracks that can fill a scene of scenario_len rows
    fill = {d: [t for t in trks if len(t) >= cfg.scenario_len] for d, trks in groups.items()}
    usable = {d: trks[:cfg.group_size] for d, trks in fill.items() if len(trks) >= cfg.group_size}
    feasible = [cat for cat in cfg.scheme if all(d in usable for d in cat.split("-"))]
    catalog = combinatorial_scenarios(usable, feasible, cfg.scenario_len)  # empty when none is feasible
    return {d: len(t) for d, t in sorted(groups.items())}, catalog


# --- synthetic ground truth --------------------------------------------------


def synth_generate(
    theta_star: Sequence[CostParams],
    spec: ScenarioSpec,
    n_demos: int,
    seed: int,
    solver_cfg: SolverConfig = SolverConfig(),
) -> RolloutSet:
    """Roll out demonstrations from known weights, clamped at spec.u_max; deterministic per seed."""
    n_demos = check_count("n_demos", n_demos)
    policies = build_policies(theta_star, spec, solver_cfg)
    return sample_rollouts(policies, spec, n_demos, seed)


def synth_provenance(theta_star: Sequence[CostParams], seed: int, spec: ScenarioSpec) -> dict:
    return {
        "generator": "game-policy-rollout",
        "theta_star": [[float(v) for v in th.weights] for th in theta_star],
        "seed": int(seed),
        "u_max": float(spec.u_max),  # the bound the demos were clamped at; no clamp is written Infinity
        "sigma": float(spec.sigma),  # the crowding kernel width of their games
    }


# --- interchange files -------------------------------------------------------


def _to_dataset_array(states: np.ndarray) -> np.ndarray:
    """Cartesian (..., 4k) -> dataset layout (..., 4k): px, py, speed, heading in (-pi, pi]."""
    states = np.asarray(states, dtype=float)
    s = states.reshape(states.shape[:-1] + (states.shape[-1] // STATE_DIM, STATE_DIM))
    vx, vy = s[..., 2], s[..., 3]
    speed = np.hypot(vx, vy)
    # heading is undefined at rest: a stationary agent is written with heading 0
    heading = np.where(speed > 0.0, np.arctan2(vy, vx), 0.0)
    heading = np.where(heading <= -np.pi, np.pi, heading)
    return np.stack([s[..., 0], s[..., 1], speed, heading], axis=-1).reshape(states.shape)


def _from_dataset_array(rows: np.ndarray) -> np.ndarray:
    """Dataset layout (..., 4k), its speeds >= 0 -> Cartesian (..., 4k)."""
    r = rows.reshape(rows.shape[:-1] + (rows.shape[-1] // STATE_DIM, STATE_DIM))
    speed, heading = r[..., 2], r[..., 3]
    # exact rest: a zero speed must not leak heading rounding into velocity
    vx = np.where(speed == 0.0, 0.0, speed * np.cos(heading))
    vy = np.where(speed == 0.0, 0.0, speed * np.sin(heading))
    return np.stack([r[..., 0], r[..., 1], vx, vy], axis=-1).reshape(rows.shape)


def write_demonstrations(
    path, demos: RolloutSet, goals: np.ndarray | None, provenance: dict | None = None
) -> None:
    """Write a demonstration set in the interchange format (see module doc).

    goals are None or a finite (k, 2) array. The header passes the reader's
    check before the file is opened; ValidationError carries the reader's
    message, and so a header the reader would refuse is never written.
    """
    try:  # ragged or non-numeric goals stay as given, for the check to refuse
        goals = None if goals is None else np.asarray(goals, dtype=float).tolist()
    except (TypeError, ValueError):
        pass
    header = {"k": demos.k, "T": demos.horizon + 1, "dt": demos.dt, "goals": goals,
              "count": len(demos), "provenance": {} if provenance is None else provenance}
    try:
        _check_header(header)
        line = json.dumps(header, sort_keys=True)
    except FormatError as exc:
        raise ValidationError(str(exc)) from exc
    except (TypeError, ValueError) as exc:  # json.dumps: a value with no JSON form, or a cycle
        raise ValidationError(f"header key 'provenance' has no JSON form: {exc}") from exc
    lines = [line, *_dataset_rows(demos.states.reshape(-1, STATE_DIM * demos.k))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _dataset_rows(states: np.ndarray) -> list[str]:
    # repr of a Python float is the shortest string that reads back exactly
    return [",".join(map(repr, row)) for row in _to_dataset_array(states).tolist()]


def write_catalog(out_dir, catalog: ScenarioCatalog, dt: float) -> list[dict]:
    """Write entry i as `{category}_{i:04d}.traj` in out_dir; return each entry's metadata.

    Each file holds what write_demonstrations writes for the entry's one
    trajectory (goals None, provenance its category), byte for byte. The
    dataset conversion is elementwise within an agent's column block, so each
    distinct track's first T rows are checked and formatted once per call, and
    an entry's rows are its tracks' row text joined by commas.
    """
    dt, T = float(dt), catalog.T
    track_rows: dict[int, list[str]] = {}  # keyed by id(): a Track holding an array has no hash
    entries_meta = []
    for idx, entry in enumerate(catalog.entries):
        for trk in entry.tracks:
            if id(trk) not in track_rows:
                try:
                    RolloutSet.from_states(trk.states[None, :T], dt)  # the checks the entry's set applies
                except ValidationError:  # the entry's own message, states first
                    joint = np.concatenate([t.states[:T] for t in entry.tracks], axis=1)
                    RolloutSet.from_states(joint[None], dt)
                    raise
                track_rows[id(trk)] = _dataset_rows(trk.states[:T])
        header = {"k": len(entry.tracks), "T": T, "dt": dt, "goals": None, "count": 1,
                  "provenance": {"category": entry.category}}
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(map(",".join, zip(*(track_rows[id(t)] for t in entry.tracks))))
        fname = f"{entry.category}_{idx:04d}.traj"
        with open(Path(out_dir) / fname, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        entries_meta.append({"category": entry.category, "tracks": [t.track_id for t in entry.tracks],
                             "file": fname})
    return entries_meta


def read_text_lines(path) -> list[str]:
    """Lines of a UTF-8 text file without their newlines; FormatError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def read_demonstrations(path) -> tuple[RolloutSet, dict]:
    """Read an interchange file back into one demonstration set plus its header.

    Controls are reconstructed from consecutive velocities (u = dv / dt);
    they are exact for generated data and estimates for resampled data.
    The header's count must be at least 1. Every FormatError names the file.
    """
    lines = read_text_lines(path)
    try:
        return _parse_demonstrations(lines)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _check_header(header) -> tuple[int, int, int, float]:
    """k, rows per block, count and dt of a parsed header; FormatError names what is wrong."""
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    unknown = set(header) - _HEADER_KEYS
    if unknown:
        raise FormatError(f"unknown header keys {sorted(unknown)}")
    missing = _HEADER_KEYS - set(header)
    if missing:
        raise FormatError(f"missing header keys {sorted(missing)}")

    for key, least in (("k", 1), ("T", 2), ("count", 1)):
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
    provenance = header["provenance"]
    if not isinstance(provenance, dict):
        raise FormatError(f"header key 'provenance' must be an object, got {provenance!r}")
    bound = provenance.get("u_max", math.inf)  # a file may record no bound
    if not (bound == math.inf or json_kind(bound) == "a number") or not bound > 0:
        raise FormatError(f"provenance key 'u_max' must be a positive number, got {bound!r}")
    width = provenance.get("sigma", 1.0)  # nor a kernel width
    if json_kind(width) != "a number" or not width > 0:
        raise FormatError(f"provenance key 'sigma' must be a positive finite number, got {width!r}")
    return k, rows_per, count, dt


def _parse_demonstrations(lines: list[str]) -> tuple[RolloutSet, dict]:
    """The file's set and its header."""
    if not lines or not lines[0].strip():
        raise FormatError("missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid header JSON: {exc.msg}") from exc
    k, rows_per, count, dt = _check_header(header)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count * rows_per:
        raise FormatError(
            f"expected {count * rows_per} data rows ({count} blocks of {rows_per}), got {len(body)}"
        )
    # read whole and converted elementwise, each block reads bit for bit as it would alone
    data = _read_body(body, rows_per, STATE_DIM * k).reshape(count, rows_per, STATE_DIM * k)
    # the C reader reads nan, inf and 1e400; speeds are every fourth value from the third
    for what, bad in (("a non-finite value", ~np.isfinite(data)), ("a negative speed", data[..., 2::4] < 0)):
        if np.any(bad):
            b, row = np.argwhere(bad)[0][:2]
            raise FormatError(f"block {b}: row {row} has {what}")
    # every block's controls in one pass, each the velocity change over its step / dt
    states = _from_dataset_array(data)
    vel = states.reshape(count, rows_per, k, STATE_DIM)[..., 2:]
    with np.errstate(over="ignore"):  # finite velocities whose change / dt overflows are refused here
        controls = (vel[:, 1:] - vel[:, :-1]) / dt
    finite = np.isfinite(controls).reshape(count, -1).all(axis=1)
    if not finite.all():  # argmin names the first block that is not
        raise FormatError(f"block {np.argmin(finite)}: reconstructed controls contain non-finite values")
    return RolloutSet(states, controls, dt), header


def _read_body(body: list[str], rows_per: int, width: int) -> np.ndarray:
    """The body as one (rows, width) array, read whole by numpy's C reader.

    The reader rounds each field as float() does. When it refuses the body,
    reads another width or meets a _C_PADDING character, some row has another
    field count, is refused by the reader alone or holds padding, and the row
    loop raises FormatError naming the first such row.
    """
    text = "\n".join(body)
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
        if data.shape == (len(body), width) and not any(c in text for c in _C_PADDING):
            return data
    except ValueError:
        pass
    for i, ln in enumerate(body):
        b, row = divmod(i, rows_per)
        fields = ln.count(",") + 1
        if fields != width:
            raise FormatError(f"block {b}: row {row} has {fields} values, expected {width}")
        try:
            np.loadtxt([ln], delimiter=",", comments=None, dtype=float)
            readable = not any(c in ln for c in _C_PADDING)
        except ValueError:
            readable = False
        if not readable:
            raise FormatError(f"block {b}: row {row} has a non-numeric value")


def header_goals(header: dict) -> np.ndarray | None:
    goals = header.get("goals")
    return None if goals is None else np.asarray(goals, dtype=float)
