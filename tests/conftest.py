import threading
import time

import numpy as np
import pytest

from crowdirl import rng

from crowdirl.features import CostParams
from crowdirl.trajectory import AgentState, ScenarioSpec


@pytest.fixture
def single_agent_spec() -> ScenarioSpec:
    """One agent drifting near the origin with a goal at (0, 0)."""
    return ScenarioSpec(
        k=1,
        x0=(AgentState(2.0, -1.0, 0.3, 0.1),),
        goals=np.array([[0.0, 0.0]]),
        horizon=10,
        dt=0.1,
    )


@pytest.fixture
def intersection_spec() -> ScenarioSpec:
    """Three pedestrians crossing paths: southbound, westbound, eastbound."""
    return ScenarioSpec(
        k=3,
        x0=(
            AgentState(0.0, 2.2, 0.0, -1.2),
            AgentState(1.8, 0.3, -1.2, 0.0),
            AgentState(-1.8, -0.3, 1.2, 0.0),
        ),
        goals=np.array([[0.0, -1.4], [-1.8, 0.3], [1.8, -0.3]]),
        horizon=30,
        dt=0.1,
    )


@pytest.fixture
def theta_star() -> list[CostParams]:
    return [CostParams(np.array([1.0, 0.5, 0.2]))] * 3


def ring_spec(k: int) -> ScenarioSpec:
    """k agents on a 4.5 m ring walking at 1.2 m/s towards their antipodes."""
    radius = 4.5
    angles = 2 * np.pi * np.arange(k) / k
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    agents = tuple(AgentState(*(radius * u), *(-1.2 * u)) for u in unit)
    return ScenarioSpec(k=k, x0=agents, goals=-radius * unit, horizon=30, dt=0.1)


@pytest.fixture
def make_ring_spec():
    """ring_spec, for tests that build rings of several sizes.

    A fixture rather than an import: in a session that also collects
    bench/tests, `import conftest` may find that directory's conftest.
    """
    return ring_spec


@pytest.fixture
def ring8_spec() -> ScenarioSpec:
    return ring_spec(8)


@pytest.fixture
def two_cpus(monkeypatch):
    """A host with two usable CPUs, whatever this one has."""
    monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def record_draw_threads(monkeypatch):
    """Patch rng.normals to note the thread of every draw (and sleep delay seconds in it)."""
    def record(delay=0.0):
        threads, draw = [], rng.normals

        def noted(seed, shape):
            threads.append(threading.current_thread())
            time.sleep(delay)
            return draw(seed, shape)

        monkeypatch.setattr(rng, "normals", noted)
        return threads

    return record
