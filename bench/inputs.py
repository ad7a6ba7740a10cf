"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed, so one workload seed always
gives the same scenes, frame streams and file splits.
"""
from __future__ import annotations

import json
import math

import numpy as np

from crowdirl.trajectory import AgentState, JointState, ScenarioSpec

FRAME_DT = 0.1
FRAMES = 50
GROUP_SIZE = 5  # walkers per travel direction; the CLI default group_size
DIRECTIONS = {"E": 0.0, "N": 0.5 * math.pi, "W": math.pi, "S": -0.5 * math.pi}
def ring_spec(k: int, seed: int, horizon: int = 30) -> ScenarioSpec:
    """k pedestrians on a ~4.5 m ring, each walking at 1.2 m/s to its antipode.

    The seed rotates the ring and jitters every radius and angle. Within the
    3 s horizon the agents converge on the centre and crowd each other.
    """
    rng = np.random.default_rng([seed, k])
    ang = (
        rng.uniform(0.0, 2.0 * math.pi / k)
        + 2.0 * math.pi * np.arange(k) / k
        + rng.normal(0.0, 0.05, k)
    )
    radius = 4.5 + rng.normal(0.0, 0.1, k)
    pos = radius[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    goals = -pos
    vel = 1.2 * goals / np.linalg.norm(goals, axis=1, keepdims=True)
    x0 = JointState(tuple(AgentState(*pos[i], *vel[i]) for i in range(k)))
    return ScenarioSpec(k=k, x0=x0, goals=goals, horizon=horizon, dt=0.1)


def _arc(x0, y0, heading, speed, turn, t):
    """Exact position and heading of a constant-speed, constant-turn walker."""
    h = heading + turn * t
    x = x0 + speed / turn * (np.sin(h) - math.sin(heading))
    y = y0 - speed / turn * (np.cos(h) - math.cos(heading))
    return x, y, h


def frame_stream(seed: int) -> list[str]:
    """Tracker-style line-delimited frames, one JSON object per line.

    GROUP_SIZE walkers head in each of the four travel directions across a
    shared crossing, so preprocess builds 4 * GROUP_SIZE**3 catalog entries.
    Walker i of a direction starts 2 + 1.2 i m before the crossing in its own
    lane, so every catalog entry has the same kind of encounter for any
    seed; the seed jitters start, speed, heading and a slow turn. Three
    standstill objects and three walkers outside the spatial window ride
    along and must be dropped by the filters.
    """
    rng = np.random.default_rng([seed, 0xF4A])
    t = np.arange(FRAMES) * FRAME_DT
    objects = {}  # id -> (x, y, speed, angle) arrays over frames
    for d, heading in DIRECTIONS.items():
        for i in range(GROUP_SIZE):
            along = -2.0 - 1.2 * i + rng.uniform(-0.2, 0.2)
            across = -0.8 + 0.4 * i + rng.uniform(-0.1, 0.1)
            cx, cy = math.cos(heading), math.sin(heading)
            x0, y0 = along * cx - across * cy, along * cy + across * cx
            speed = 1.2 + rng.uniform(-0.1, 0.1)
            turn = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.05)
            h0 = heading + rng.normal(0.0, 0.02)
            x, y, h = _arc(x0, y0, h0, speed, turn, t)
            objects[f"p{d}{i}"] = (x, y, np.full(FRAMES, speed), h)
    for i in range(3):
        x = np.full(FRAMES, rng.uniform(-5.0, 5.0))
        y = np.full(FRAMES, rng.uniform(-5.0, 5.0))
        objects[f"still{i}"] = (x, y, np.full(FRAMES, 0.05), np.zeros(FRAMES))
        x, y, h = _arc(25.0 + 2.0 * i, rng.uniform(-5.0, 5.0), 0.0, 1.2, 0.05, t)
        objects[f"far{i}"] = (x, y, np.full(FRAMES, 1.2), h)

    lines = []
    for j in range(FRAMES):
        objs = [
            {
                "id": oid, "x": float(x[j]), "y": float(y[j]), "w": 0.6, "l": 0.5,
                "angle": float(h[j]), "class": "pedestrian", "speed": float(v[j]),
                "acc": 0.9,
            }
            for oid, (x, y, v, h) in sorted(objects.items())
        ]
        lines.append(json.dumps({"t": float(t[j]), "objects": objs}))
    return lines


def split_interchange(text: str, first: int) -> tuple[str, str]:
    """Split an interchange file into its first `first` blocks and the rest."""
    lines = text.splitlines(keepends=True)
    header = json.loads(lines[0])
    rows = header["T"]
    body = lines[1:]
    cut = first * rows
    parts = []
    for count, block in ((first, body[:cut]), (header["count"] - first, body[cut:])):
        parts.append(json.dumps({**header, "count": count}, sort_keys=True) + "\n" + "".join(block))
    return parts[0], parts[1]
