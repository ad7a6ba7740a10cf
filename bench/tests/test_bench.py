"""Self-tests of the benchmark: tracing, inputs, scaling, metric lists and a second seed.

Run from the repository root with `python3 -m pytest bench/tests`.
"""
import json
import subprocess
import sys

import numpy as np
import pytest

import crowdirl
from crowdirl import cli, game, irl, metrics, pipeline
from crowdirl.features import CostParams

import speed
import tracer as tracing
from inputs import frame_stream, split_interchange
from run import BENCH_DIR, E2E_UNITS, ROOT, WORKLOAD_NAMES


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "crowdirl" or name.startswith("crowdirl.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_wrappers_rebind_every_alias_and_restore_the_originals():
    before = _bindings()
    with tracing.Tracer() as tracer:
        tracing.install_layers(tracer)
        assert tracer.missing == []
        assert game.solve_lq_game is irl.solve_lq_game is crowdirl.solve_lq_game
        assert game.solve_lq_game.__wrapped__ is before[("crowdirl.game", "solve_lq_game")]
        assert game.build_policies is metrics.build_policies is pipeline.build_policies
        assert hasattr(game.build_policies, "__wrapped__")
    assert _bindings() == before


def test_a_traced_name_the_package_lacks_is_reported():
    with tracing.Tracer() as tracer:
        tracer.patch(game, "no_such_entry_point", lambda f: tracer.wrap(f, "x"))
    assert tracer.missing == ["crowdirl.game.no_such_entry_point"]


def test_spans_nest_and_self_times_are_nonnegative():
    spec = cli.scenario_preset("intersection_k3")
    with tracing.Tracer() as tracer:
        tracing.install_layers(tracer)
        policies = game.build_policies([CostParams(np.array([1.0, 0.5, 0.2]))] * 3, spec)
        game.sample_rollouts(policies, spec, 4, 0)
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"game.build", "game.scenario", "quadratic.expand", "game.solve",
            "game.sample", "trajectory.propagate"} <= names
    for span in tracer.spans:
        assert span[tracing.START] <= span[tracing.END]
        if span[tracing.PARENT] >= 0:
            parent = tracer.spans[span[tracing.PARENT]]
            assert parent[tracing.START] <= span[tracing.START] <= span[tracing.END] <= parent[tracing.END]
    assert min(tracer.self_times()) >= 0.0
    assert tracer.counts["game.sample.rollouts"] == 4
    assert tracer.counts["game.solve.stages"] == spec.horizon * spec.k


def test_frame_stream_yields_exactly_500_catalog_entries(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text("\n".join(frame_stream(7)) + "\n")
    assert cli.main(["preprocess", str(raw), str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "catalog.json").read_text())
    assert summary["total_entries"] == 500
    assert summary["tracks_kept"] == 20  # standstill and out-of-window objects dropped
    assert set(summary["categories"].values()) == {125}


def test_split_interchange_keeps_every_block(tmp_path):
    spec = cli.scenario_preset("intersection_k3")
    demos = pipeline.synth_generate([CostParams(np.array([1.0, 0.5, 0.2]))] * 3, spec, 5, 3)
    pipeline.write_demonstrations(tmp_path / "all.traj", demos, spec.goals)
    head, tail = split_interchange((tmp_path / "all.traj").read_text(), 3)
    (tmp_path / "a.traj").write_text(head)
    (tmp_path / "b.traj").write_text(tail)
    a, _ = pipeline.read_demonstrations(tmp_path / "a.traj")
    b, _ = pipeline.read_demonstrations(tmp_path / "b.traj")
    assert [d.states.tobytes() for d in a + b] == [
        d.states.tobytes() for d in pipeline.read_demonstrations(tmp_path / "all.traj")[0]
    ]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_second_seed_passes_every_correctness_check(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert out.returncode == 0, out.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_ops_frac"]["value"] == 1.0


def test_host_speed_scaling_removes_sampling_and_rescales():
    sampler = speed.HostSpeed()
    sampler.starts = [1.0, 1.25, 5.0]
    sampler.durations = [2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S, 8 * speed.NOMINAL_S]
    # two samples inside [0.9, 1.5]: their time is removed, the host ran at half speed
    net = 0.6 - 4 * speed.NOMINAL_S
    assert sampler.scaled(0.9, 1.5) == pytest.approx(net / 2)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
