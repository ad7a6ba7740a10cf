"""The benchmark reads crowdirl by name; every name it reads must exist.

A name the package no longer defines only shows when the benchmark runs, as a
missing entry point or an ImportError, so these read the names out of the
benchmark's own sources. The benchmark command (`bench/run.py`) loads run.py,
workloads.py, inputs.py, tracer.py and speed.py. `bench/sweep.py` is not part
of that command and is not covered here: it still fails at its imports of
names the package has dropped (`ProximityConfig`, `stage_cost_models`,
`linearize_dynamics`), which stays open until the sweep is mended.

The benchmark's own tests cannot run in the same pytest session as these, so
the operations the benchmark applies to library results are pinned here too.
"""
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from crowdirl import pipeline
from crowdirl.game import SolverConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
COMMAND_MODULES = ("run.py", "workloads.py", "inputs.py", "tracer.py", "speed.py")
# span(module, "name", ...) and tracer.patch(module, "name", ...)
TRACED = re.compile(r'\b(?:span|tracer\.patch)\((\w+), "(\w+)"')


def test_every_traced_name_exists_in_its_module():
    pairs = TRACED.findall(TRACER.read_text(encoding="utf-8"))
    assert len(pairs) >= 20
    missing = [f"crowdirl.{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(f"crowdirl.{module}"), name)]
    assert missing == []


def _module(dotted: str):
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        return None


def _exists(dotted: str) -> bool:
    parent, name = dotted.rsplit(".", 1)
    return hasattr(importlib.import_module(parent), name) or _module(dotted) is not None


def _names_taken_from_crowdirl(source: str) -> set[str]:
    """Dotted crowdirl names a module's source reads.

    Every `from crowdirl[.mod] import name`, and every `module.name` read on
    a crowdirl module bound by an import (`from crowdirl import metrics`, then
    `metrics.PredictorContext`).
    """
    tree = ast.parse(source)
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "crowdirl":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.add(dotted)
                if _module(dotted) is not None:
                    modules[alias.asname or alias.name] = dotted
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "crowdirl":
                    bound = alias.asname or alias.name.split(".")[0]
                    modules[bound] = alias.name if alias.asname else bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def test_every_name_the_benchmark_command_takes_from_crowdirl_exists():
    names = set().union(*(_names_taken_from_crowdirl((BENCH / f).read_text(encoding="utf-8"))
                          for f in COMMAND_MODULES))
    # the scene inputs, the workloads' library calls and the tracer's modules are all read
    assert {"crowdirl.trajectory.JointState", "crowdirl.metrics.PredictorContext",
            "crowdirl.irl.multi_agent_irl", "crowdirl.game.SolverConfig", "crowdirl.quadratic"} <= names
    assert not _exists("crowdirl.metrics.NoSuchName") and not _exists("crowdirl.no_such_module")
    assert sorted(name for name in names if not _exists(name)) == []


@pytest.mark.parametrize("k, seed", [(8, 1), (3, 2)])
def test_the_benchmark_ring_scene_starts_from_a_frozen_flat_array(k, seed):
    # inputs.py spells its start as JointState(tuple(AgentState(...) ...)); that
    # spelling must still build the scene the benchmark measures
    loader = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(inputs)
    scene = inputs.ring_spec(k, seed)
    assert scene.x0.shape == (4 * k,) and scene.x0.dtype == np.float64
    assert not scene.x0.flags.writeable
    rows = scene.x0.reshape(k, 4)
    assert rows[:, :2].tobytes() == (-scene.goals).tobytes()
    assert np.allclose(np.hypot(rows[:, 2], rows[:, 3]), 1.2, rtol=0.0, atol=1e-12)


def test_demonstration_sets_take_every_operation_the_benchmark_applies(tmp_path, intersection_spec,
                                                                       theta_star):
    # workloads.py tests the truth of synth_generate's result, takes its len and
    # iterates it, and trains and scores on slices of it; bench/tests adds two
    # read_demonstrations results and iterates the sum
    demos = pipeline.synth_generate(theta_star, intersection_spec, 5, 3, solver_cfg=SolverConfig())
    pipeline.write_demonstrations(tmp_path / "a.traj", demos[:2], intersection_spec.goals)
    pipeline.write_demonstrations(tmp_path / "b.traj", demos[2:], intersection_spec.goals)
    pipeline.write_demonstrations(tmp_path / "all.traj", demos, intersection_spec.goals)
    a, b, whole = (pipeline.read_demonstrations(tmp_path / f"{name}.traj")[0]
                   for name in ("a", "b", "all"))
    for got, n in ((demos, 5), (a, 2), (b, 3), (whole, 5)):
        assert got and len(got) == n
        assert [d.states.tobytes() for d in got] == [s.tobytes() for s in got.states]
        assert got[n - 1].states.tobytes() == got.states[-1].tobytes()
        head, tail = got[:1], got[1:]
        assert (len(head), len(tail)) == (1, n - 1)
        assert tail[0].controls.tobytes() == got.controls[1].tobytes()
        joined = head + tail
        assert joined.states.tobytes() == got.states.tobytes()
        assert joined.controls.tobytes() == got.controls.tobytes()
    assert [d.states.tobytes() for d in a + b] == [d.states.tobytes() for d in whole]
