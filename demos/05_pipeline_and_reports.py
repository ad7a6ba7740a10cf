"""From raw tracker frames to scenario catalogs, metrics and report files.

Builds a synthetic frame stream in the sensor's wire format, runs the full
preprocessing chain (tracks, filtering, direction groups, combinatorial
catalog), writes and re-reads the trajectory interchange format, and emits a
metric report in all three formats. The files go to a temporary directory
that is removed when the script ends.
"""
import json
import tempfile
from pathlib import Path

import numpy as np

from crowdirl import (
    CostParams,
    MetricReport,
    PreprocessConfig,
    ScenarioSpec,
    SolverConfig,
    direction_catalog,
    emit_report,
    filter_tracks,
    parse_frames,
    read_demonstrations,
    synth_generate,
    tracks_from_frames,
    trajectory_entropy,
    write_demonstrations,
)
from crowdirl.cli import scenario_preset

workdir = tempfile.TemporaryDirectory(prefix="crowdirl_demo_")
out = Path(workdir.name)
print(f"writing outputs under {out}")

print("\n== frames -> tracks -> catalog ==")
starts = {"E": (-15, 0, 1.2, 0.0, 0.0), "W": (15, 1, -1.2, 0.0, np.pi),
          "N": (0, -8, 0.0, 1.2, np.pi / 2), "S": (0.5, 12, 0.0, -1.2, -np.pi / 2)}
lines = []
for j in range(40):
    t = 0.1 * j
    objs = []
    for d, (x0, y0, vx, vy, ang) in starts.items():
        for m in range(2):
            objs.append({"id": f"{d}{m}", "x": x0 + vx * t, "y": y0 + vy * t + 0.4 * m,
                         "w": 0.5, "l": 0.5, "angle": ang, "class": "pedestrian",
                         "speed": 1.2, "acc": 0.9})
    lines.append(json.dumps({"t": t, "objects": objs}))

frames = parse_frames(lines)
cfg = PreprocessConfig(scheme=("W-E-S", "S-N-W"), group_size=2)
tracks = filter_tracks(tracks_from_frames(frames, cfg), cfg)
print(f"parsed {len(frames)} frames into {len(tracks)} filtered tracks")
direction_counts, catalog = direction_catalog(tracks, cfg)  # the catalog `preprocess` writes
print("direction groups:", direction_counts)
print(f"catalog: {catalog.size} joint scenarios "
      f"({json.dumps(catalog.count_by_category())}) of {catalog.T} rows, "
      f"tracks {[t.track_id for t in catalog.entries[0].tracks]} first")

print("\n== interchange files ==")
spec = scenario_preset("intersection_k3")
theta = CostParams(np.array([1.0, 0.5, 0.2]))
demos = synth_generate([theta] * 3, spec, 6, seed=11,
                       solver_cfg=SolverConfig(entropy_temp=1e-3))
demo_file = out / "demos.traj"
write_demonstrations(demo_file, demos, spec.goals, {"origin": "demo script"})
back, header = read_demonstrations(demo_file)
err = float(np.max(np.abs(demos.states - back.states)))
print(f"wrote {header['count']} demonstrations, round-trip error {err:.1e}")
print(f"heading entropy of the set: {trajectory_entropy(back).bits:.3f} bits (8 bins)")

print("\n== reports ==")
perfect = list(demos.states.reshape(len(demos), -1, 3, 4)[..., :2])  # (T+1, k, 2) positions per demo
noisy = [p + 0.25 for p in perfect]
from crowdirl.metrics import score_predictions

reports = [
    score_predictions("oracle", "intersection", demos, perfect),
    score_predictions("offset", "intersection", demos, noisy),
]
for fmt in ("csv", "jsonl", "svg"):
    emit_report(reports, fmt, out / f"report.{fmt}")
print("emitted report.csv / report.jsonl / report.svg")
print((out / "report.csv").read_text().splitlines()[1])
for rep in reports:
    print(f"  {rep.method}: ADE {rep.ade:.3f} m, FDE {rep.fde:.3f} m")
workdir.cleanup()
