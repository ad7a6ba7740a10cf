import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from crowdirl import cli, game, metrics, pipeline
from crowdirl.cli import (
    DEFAULT_CONFIG,
    build_parser,
    load_config,
    main,
    parse_thetas,
)
from crowdirl.errors import FormatError
from crowdirl.features import ProximityConfig
from crowdirl.game import SolverConfig
from crowdirl.irl import TrainingConfig
from crowdirl.metrics import (
    PredictorContext,
    emit_report,
    evaluate_method,
    parse_report_csv,
    render_overlay_svg,
)
from crowdirl.pipeline import (
    PreprocessConfig,
    filter_tracks,
    header_goals,
    parse_frames,
    read_demonstrations,
    tracks_from_frames,
    write_demonstrations,
)
from crowdirl.trajectory import Trajectory, to_dataset_array

SRC = Path(__file__).resolve().parents[1] / "src"
FAST_TRAIN = [
    "--entropy-temp", "0.001", "--beta", "0.03", "--rollouts", "8",
]


def _synth(tmp_path, name="demos.traj", n=6, theta="1.0,0.5,0.2", temp="0.001", extra=()):
    path = tmp_path / name
    rc = main(
        ["--seed", "11", "--entropy-temp", temp, "--eps-psd", "1e-18", "synth",
         str(path), "--preset", "intersection_k3", "--theta", theta, "--n", str(n),
         *extra]
    )
    assert rc == 0
    return path


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = load_config(None, {})
        assert cfg == DEFAULT_CONFIG

    def test_file_merge_and_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "training": {"beta": 0.5}}))
        cfg = load_config(str(cfg_path), {"beta": 0.25})
        assert cfg["seed"] == 5
        assert cfg["training"]["beta"] == 0.25  # flag wins

    def test_unknown_keys_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"solver": {"entropy": 1.0}}))
        with pytest.raises(FormatError, match="solver.entropy"):
            load_config(str(cfg_path), {})

    def test_removed_fd_step_key_exits_2(self, tmp_path, capsys):
        # the quadratic expansion is exact, so there is no step to configure
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"fd_step": 1e-3}))
        rc = main(["--config", str(cfg_path), "synth", str(tmp_path / "d.traj"),
                   "--preset", "intersection_k3", "--n", "1"])
        assert rc == 2
        assert "unknown config key 'fd_step'" in capsys.readouterr().err
        assert not (tmp_path / "d.traj").exists()

    @pytest.mark.parametrize("override, message", [
        ({"seed": "x"}, "'seed' must be a number"),
        ({"solver": {"eps_psd": "abc"}}, "'solver.eps_psd' must be a number"),
        ({"training": {"M": None}}, "'training.M' must be a number"),
        ({"seed": True}, "'seed' must be a number"),
        ({"u_max": float("nan")}, "'u_max' must be a number"),
        ({"preprocess": {"scheme": "W-E-S"}}, "'preprocess.scheme' must be a list"),
        ({"preprocess": {"x_range": 3}}, "'preprocess.x_range' must be a list"),
        ({"seed": 10**400}, "'seed' must be a number"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"training": {"M": 2.5}}, "training.M must be an integer >= 1, got 2.5"),
        ({"training": {"M": 0}}, "training.M must be an integer >= 1, got 0"),
        ({"training": {"max_iters": 0.5}}, "training.max_iters must be an integer >= 1, got 0.5"),
        ({"solver": {"max_outer_iters": 1.5}},
         "solver.max_outer_iters must be an integer >= 1, got 1.5"),
        ({"preprocess": {"min_track_len": 9.5}},
         "preprocess.min_track_len must be an integer >= 1, got 9.5"),
        ({"preprocess": {"group_size": 2.5}}, "preprocess.group_size must be an integer >= 1, got 2.5"),
        ({"preprocess": {"scenario_len": 30.5}},
         "preprocess.scenario_len must be an integer >= 1, got 30.5"),
        ({"seed": 2**64}, "seed must be an integer below 2**64, got 18446744073709551616"),
    ])
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, override, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(override))
        rc = main(["--config", str(cfg_path), "train", str(tmp_path / "d.traj"),
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("seed, message", [
        ("-1", "seed must be an integer >= 0, got -1"),
        (str(2**64), "seed must be an integer below 2**64"),
    ])
    def test_seed_flag_is_checked_like_the_config_key(self, tmp_path, capsys, seed, message):
        # the flag is checked as the config key is: stream keys are uint64, never wrapped
        out = tmp_path / "d.traj"
        assert main([f"--seed={seed}", "synth", str(out), "--n", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert main(["--seed", str(2**64 - 1), "synth", str(out), "--n", "1"]) == 0

    @pytest.mark.parametrize("flag, message", [
        ("--tol=nan", "tol must be nonnegative and finite, got nan"),
        ("--tol=-1", "tol must be nonnegative and finite, got -1.0"),
        ("--beta=inf", "beta must be positive and finite, got inf"),
    ])
    def test_training_knob_out_of_range_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, flag, message
    ):
        demos = _synth(tmp_path, n=2)
        monkeypatch.setattr(cli, "multi_agent_irl", None)  # never reached
        out = tmp_path / "t.json"
        assert main([flag, "train", str(demos), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_numbers_are_interchangeable_and_a_list_stays_a_list(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"seed": 3.0, "training": {"beta": 1}, "preprocess": {"scheme": ["W-E-S"]}}
        ))
        cfg = load_config(str(cfg_path), {})
        assert cfg["seed"] == 3.0 and cfg["training"]["beta"] == 1
        assert cfg["preprocess"]["scheme"] == ["W-E-S"]

    def test_numbers_are_stored_as_their_defaults_type(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"training": {"M": 8.0}, "solver": {"entropy_temp": 1}}))
        cfg = load_config(str(cfg_path), {})
        assert type(cfg["training"]["M"]) is int and cfg["training"]["M"] == 8
        assert type(cfg["solver"]["entropy_temp"]) is float and cfg["solver"]["entropy_temp"] == 1.0
        demos = _synth(tmp_path, n=2)
        out = tmp_path / "t.json"
        rc = main(["--config", str(cfg_path), "--iters", "1", "train", str(demos), "--out", str(out)])
        assert rc in (0, 3)
        recorded = json.loads(out.read_text())["config"]
        assert recorded["training"]["M"] == 8 and type(recorded["training"]["M"]) is int
        assert type(recorded["solver"]["entropy_temp"]) is float

    def test_each_default_section_is_its_dataclass_defaults(self):
        def as_json(instance, *names: str) -> str:  # JSON tells 1 from 1.0, writes a tuple as a list
            fields = dataclasses.asdict(instance)
            return json.dumps({name: fields[name] for name in names or fields})

        cfg = {key: json.dumps(value) for key, value in DEFAULT_CONFIG.items()}
        assert cfg["solver"] == as_json(SolverConfig())
        assert cfg["training"] == as_json(TrainingConfig(), "beta", "max_iters", "tol", "M")
        assert cfg["proximity"] == as_json(ProximityConfig())
        assert json.dumps(dict(list(DEFAULT_CONFIG["preprocess"].items())[:5])) == as_json(
            PreprocessConfig())
        assert cfg["eval"] == as_json(PredictorContext(spec=None, train_demos=()),
                                      "best_of", "gmm_components")
        assert json.dumps({key: DEFAULT_CONFIG[key] for key in ("seed", "u_max")}) == as_json(
            TrainingConfig(), "seed", "u_max")

    def test_removed_threads_key_and_flag_exit_2(self, tmp_path, capsys):
        # no worker pool exists, so there is no thread count to configure
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"threads": 4}))
        rc = main(["--config", str(cfg_path), "synth", str(tmp_path / "d.traj"),
                   "--preset", "intersection_k3", "--n", "1"])
        assert rc == 2
        assert "unknown config key 'threads'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "synth", str(tmp_path / "d.traj")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("u_max", ["-1", "nan", "0", "-0.0", "-inf"])
    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_bound_that_is_not_positive_exits_2(self, tmp_path, capsys, command, u_max):
        # -1 would reverse every control, nan switch the clamp off, 0 freeze every agent
        demos = _synth(tmp_path, n=2)
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", str(out), "--n", "2"],
            "train": ["train", str(demos), "--out", str(out)],
            "eval": ["eval", str(demos), "--baseline", "cv", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([f"--u-max={u_max}", "--iters", "1", *argv]) == 2
        assert "u_max must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, key", [("--entropy-temp", "entropy_temp"), ("--eps-psd", "eps_psd")])
    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_infinite_solver_setting_exits_2_naming_the_key(self, tmp_path, capsys, command, flag, key):
        # both used to pass the config and fail only after a solve, as non-finite Sigma
        demos = _synth(tmp_path, n=2)
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", str(out), "--n", "2"],
            "train": ["train", str(demos), "--out", str(out)],
            "eval": ["eval", str(demos), "--baseline", "cv", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([flag, "inf", "--iters", "1", *argv]) == 2
        assert f"{key} must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("u_max", [-1, 0, -0.5])
    def test_bound_that_is_not_positive_in_a_config_file_exits_2(self, tmp_path, capsys, u_max):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"u_max": u_max}))
        out = tmp_path / "d.traj"
        assert main(["--config", str(cfg_path), "synth", str(out), "--n", "2"]) == 2
        assert "u_max must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_bound_means_no_clamp(self, tmp_path):
        # at entropy_temp 1 most sampled controls exceed 3 m/s^2
        out = tmp_path / "d.traj"
        assert main(["--u-max", "inf", "--seed", "1", "synth", str(out), "--n", "4"]) == 0
        demos, _ = read_demonstrations(out)
        assert max(np.linalg.norm(d.controls, axis=-1).max() for d in demos) > 3.0

    @pytest.mark.parametrize("best_of", ["0", "-3"])
    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_best_of_that_is_not_positive_exits_2(self, tmp_path, capsys, command, best_of):
        # -3 used to mean the mean rollout without a word
        demos = _synth(tmp_path, n=2)
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", str(out), "--n", "2"],
            "train": ["train", str(demos), "--out", str(out)],
            "eval": ["eval", str(demos), "--baseline", "cv", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([f"--best-of={best_of}", "--iters", "1", *argv]) == 2
        assert f"eval.best_of must be an integer >= 1, got {best_of}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("gmm_components", 0), ("gmm_components", -2), ("gmm_components", 1.5),
        ("best_of", 0), ("best_of", -3), ("best_of", 2.5),
    ])
    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_count_that_is_not_positive_in_a_config_file_exits_2(
        self, tmp_path, capsys, command, key, value
    ):
        demos = _synth(tmp_path, n=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eval": {key: value}}))
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", str(out), "--n", "2"],
            "eval": ["eval", str(demos), "--baseline", "gmm", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(["--config", str(cfg_path), *argv]) == 2
        assert f"eval.{key} must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_counts_in_a_config_file_are_accepted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eval": {"best_of": 2.0, "gmm_components": 1}}))
        cfg = load_config(str(cfg_path), {})
        assert cfg["eval"] == {"best_of": 2.0, "gmm_components": 1}

    def test_help_lists_every_config_key(self):
        text = build_parser().format_help()
        for line in (
            "seed = 0",
            "solver.eps_psd = 1e-06",
            "solver.entropy_temp = 1.0",
            "training.beta = 0.0003",
            "training.M = 32",
            "proximity.sigma = 1.5",
            "preprocess.resample_dt = 0.1",
            "eval.best_of = 1",
        ):
            assert line in text

    def test_parse_thetas(self):
        [one] = parse_thetas("1,2,3", 1)
        assert one.weights.tolist() == [1.0, 2.0, 3.0]
        three = parse_thetas("1,0,0;0,1,0;0,0,1", 3)
        assert three[2].weights.tolist() == [0.0, 0.0, 1.0]
        rep = parse_thetas("1,2,3", 2)
        assert np.array_equal(rep[0].weights, rep[1].weights)

    @pytest.mark.parametrize("theta, group", [
        ("a,b,c", "'a,b,c'"), ("1,,2", "'1,,2'"), ("1,0,0;0,x,0;0,0,1", "'0,x,0'"),
    ])
    def test_non_numeric_theta_exits_2_naming_the_group(self, tmp_path, capsys, theta, group):
        rc = main(["synth", str(tmp_path / "out.traj"), "--preset", "intersection_k3",
                   "--theta", theta, "--n", "1"])
        assert rc == 2
        assert f"weight group {group}" in capsys.readouterr().err
        assert not (tmp_path / "out.traj").exists()

    @pytest.mark.parametrize("theta", ["0,0,0", "0,1,0"])  # no weight at all; crowding only
    def test_weights_without_a_solvable_game_exit_2_naming_them(self, tmp_path, capsys, theta):
        # zero effort weight leaves the gain system singular; the weights are the user's input
        out = tmp_path / "out.traj"
        assert main(["synth", str(out), "--theta", theta, "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert f"weights --theta '{theta}' give no solvable game" in err and "(timestep " in err
        assert not out.exists()

    @pytest.mark.parametrize("theta, group", [
        ("1,0.5,-0.2", "'1,0.5,-0.2'"), ("1,0,0;0,-1,0;0,0,1", "'0,-1,0'"),
    ])
    def test_negative_theta_exits_2_naming_the_group(self, tmp_path, capsys, theta, group):
        rc = main(["synth", str(tmp_path / "out.traj"), "--preset", "intersection_k3",
                   f"--theta={theta}", "--n", "1"])
        assert rc == 2
        assert f"weight group {group} has a negative weight" in capsys.readouterr().err
        assert not (tmp_path / "out.traj").exists()


class TestSynth:
    def test_writes_demonstrations_with_provenance(self, tmp_path):
        path = _synth(tmp_path)
        demos, header = read_demonstrations(path)
        assert len(demos) == 6
        assert header["provenance"]["seed"] == 11
        assert header["provenance"]["theta_star"][0] == [1.0, 0.5, 0.2]

    def test_zero_count_header_only(self, tmp_path):
        path = _synth(tmp_path, name="empty.traj", n=0)
        demos, header = read_demonstrations(path)
        assert demos == [] and header["count"] == 0

    def test_repeat_seed_identical_bytes(self, tmp_path):
        a = _synth(tmp_path, name="a.traj")
        b = _synth(tmp_path, name="b.traj")
        assert a.read_bytes() == b.read_bytes()

    def test_head_on_preset(self, tmp_path):
        path = tmp_path / "duel.traj"
        rc = main(["--entropy-temp", "0.001", "synth", str(path), "--preset", "head_on_k2", "--n", "2"])
        assert rc == 0
        demos, header = read_demonstrations(path)
        assert header["k"] == 2 and demos[0].k == 2

    def test_floor_below_eigensolver_rounding_still_samples(self, tmp_path):
        # at eps_psd 1e-18 a repaired covariance on this scene clears the floor
        # with no Cholesky factor; the repair tops it up until it has one
        rc = main(["--seed", "11", "--entropy-temp", "0.001", "--eps-psd", "1e-18", "synth",
                   str(tmp_path / "d.traj"), "--preset", "intersection_k3",
                   "--theta", "0.5,8,0.01", "--n", "6"])
        assert rc == 0
        assert len(read_demonstrations(tmp_path / "d.traj")[0]) == 6

    def test_overflowing_weights_solve_silently_and_decide_as_before(self, tmp_path, monkeypatch):
        # at goal weight 1e200 the gain screen's bound is NaN and every
        # covariance determinant overflows; the solve warns about neither, and
        # its output is that of the solve run without its error-state guard
        def synth(name, action):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main(["--entropy-temp", "1e-3", "synth", str(tmp_path / name), "--preset",
                             "intersection_k3", "--theta", "1e200,1,1", "--n", "2"]) == 0
            return (tmp_path / name).read_bytes()

        quiet = synth("quiet.traj", "error")
        monkeypatch.setattr(game, "solve_lq_game", game.solve_lq_game.__wrapped__)
        assert synth("unguarded.traj", "ignore") == quiet


class TestTrain:
    def test_converges_with_loose_tolerance(self, tmp_path):
        demos = _synth(tmp_path)
        out = tmp_path / "theta.json"
        rc = main([*FAST_TRAIN, "--iters", "30", "--tol", "0.5", "train",
                   str(demos), "--method", "mairl", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True and len(payload["thetas"]) == 3

    def test_max_iters_without_convergence_exits_3(self, tmp_path):
        demos = _synth(tmp_path)
        out = tmp_path / "theta.json"
        rc = main([*FAST_TRAIN, "--iters", "1", "--tol", "0", "train",
                   str(demos), "--method", "mairl", "--out", str(out)])
        assert rc == 3
        assert json.loads(out.read_text())["converged"] is False  # still written

    def test_missing_demo_file_exits_2(self, tmp_path):
        rc = main(["train", str(tmp_path / "nope.traj"), "--out", str(tmp_path / "t.json")])
        assert rc == 2

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        demos = _synth(tmp_path)
        outputs = []
        for run in ("r1", "r2", "r3"):
            theta = tmp_path / f"theta_{run}.json"
            trace = tmp_path / f"trace_{run}.jsonl"
            rc = main([*FAST_TRAIN, "--seed", "0",
                       "--iters", "4", "--tol", "0", "train", str(demos),
                       "--method", "mairl", "--out", str(theta),
                       "--trace-out", str(trace)])
            assert rc == 3  # tol 0 never converges; files still written
            outputs.append((theta.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_sairl_shared_weights(self, tmp_path):
        demos = _synth(tmp_path)
        out = tmp_path / "theta_s.json"
        rc = main([*FAST_TRAIN, "--iters", "2", "--tol", "0", "train",
                   str(demos), "--method", "sairl", "--out", str(out)])
        assert rc == 3
        payload = json.loads(out.read_text())
        assert payload["thetas"][0] == payload["thetas"][1] == payload["thetas"][2]

    def test_trains_from_demo_0s_start_bit_for_bit(self, tmp_path, monkeypatch):
        # the mean of six equal starts is an ulp off them; training must not see it
        demos, _ = read_demonstrations(_synth(tmp_path))
        assert not np.array_equal(np.mean([d.states[0] for d in demos], axis=0), demos[0].states[0])
        specs, train = [], cli.multi_agent_irl

        def recording(dataset, spec, cfg):
            specs.append(spec)
            return train(dataset, spec, cfg)

        monkeypatch.setattr(cli, "multi_agent_irl", recording)
        rc = main([*FAST_TRAIN, "--iters", "1", "train", str(tmp_path / "demos.traj"),
                   "--out", str(tmp_path / "t.json")])
        assert rc in (0, 3)
        assert specs[0].x0.as_array().tobytes() == demos[0].states[0].tobytes()

    def test_demonstrations_from_different_starts_exit_2(self, tmp_path, capsys):
        demos, header = read_demonstrations(_synth(tmp_path))
        moved = demos[2].states.copy()
        moved[:, 0::4] += 0.5  # every agent starts half a metre further east
        demos[2] = Trajectory.from_states(moved, demos[2].dt)
        mixed = tmp_path / "mixed.traj"
        write_demonstrations(mixed, demos, goals=header_goals(header))
        capsys.readouterr()
        rc = main(["train", str(mixed), "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "demonstration 2 starts from a different joint state" in capsys.readouterr().err
        # eval predicts each demo from its own start and still takes the file
        rc = main(["eval", str(mixed), "--baseline", "cv", "--out", str(tmp_path / "cv.csv")])
        assert rc == 0

    def test_diagnostics_flag_prints_json(self, tmp_path, capsys):
        demos = _synth(tmp_path)
        capsys.readouterr()  # drop synth output
        out = tmp_path / "theta.json"
        main([*FAST_TRAIN, "--iters", "1", "--tol", "100", "train", str(demos),
              "--method", "mairl", "--out", str(out), "--diagnostics"])
        lines = capsys.readouterr().out.strip().splitlines()
        diag = json.loads(lines[0])
        assert set(diag) == {"conditioned_stage_visits", "updates"}

    def test_diagnostics_count_each_sweeps_solve_once(self, tmp_path, capsys):
        # trained on demos at theta (0.5, 8, 0.01), the weights reach a game
        # whose solve repairs covariance stages within three sweeps
        demos = tmp_path / "demos.traj"
        assert main(["--seed", "3", "--entropy-temp", "0.001", "synth", str(demos),
                     "--theta", "0.5,8,0.01", "--n", "6"]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "trace.jsonl"
        main(["--seed", "0", "--entropy-temp", "0.001", "--beta", "0.03", "--rollouts", "4",
              "--iters", "3", "--tol", "0", "train", str(demos), "--method", "mairl",
              "--out", str(tmp_path / "theta.json"), "--trace-out", str(trace_path),
              "--diagnostics"])
        diag = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        records = [json.loads(line) for line in trace_path.read_text().splitlines()][:-1]
        per_sweep = {}
        for rec in records:
            per_sweep.setdefault(rec["sweep"], set()).add(rec["conditioned_stages"])
        assert all(len(v) == 1 for v in per_sweep.values())  # one solve per sweep
        solves = [v.pop() for _, v in sorted(per_sweep.items())]
        assert diag == {"conditioned_stage_visits": sum(solves), "updates": 9}
        assert sum(solves) > 0


class TestEval:
    def test_cv_exact_on_coasting_demos(self, tmp_path):
        # zero state cost and vanishing noise: agents coast, cv predicts exactly
        demos = _synth(tmp_path, theta="0,0,1", temp="1e-12")
        report = tmp_path / "cv.csv"
        rc = main(["--entropy-temp", "1e-12", "--eps-psd", "1e-18", "eval",
                   str(demos), "--baseline", "cv", "--out", str(report)])
        assert rc == 0
        rows = parse_report_csv(report)
        agg = [r for r in rows if r["agent"] == "all"][0]
        assert agg["ade_m"] < 1e-3

    def test_unknown_baseline_exits_2(self, tmp_path):
        demos = _synth(tmp_path)
        rc = main(["eval", str(demos), "--baseline", "lstm", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_mairl_requires_theta_file(self, tmp_path):
        demos = _synth(tmp_path)
        rc = main(["eval", str(demos), "--baseline", "mairl", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_degenerate_weights_exit_2(self, tmp_path, capsys):
        # all-zero weights make the stacked gain system singular; the weights are the user's
        demos = _synth(tmp_path)
        theta = tmp_path / "zero.json"
        theta.write_text(json.dumps({"thetas": [[0.0, 0.0, 0.0]] * 3}))
        out = tmp_path / "x.csv"
        capsys.readouterr()
        rc = main(["eval", str(demos), "--baseline", "mairl", "--theta", str(theta), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"weight file {theta} gives no solvable game" in err and "(timestep " in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "{}",
        "[1]",
        "not json",
        '{"thetas": 5}',
        '{"thetas": [["a", 1, 1]]}',
    ])
    def test_malformed_weight_file_exits_2(self, tmp_path, capsys, text):
        demos = _synth(tmp_path)
        theta = tmp_path / "bad.json"
        theta.write_text(text)
        rc = main(["eval", str(demos), "--baseline", "mairl",
                   "--theta", str(theta), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert str(theta) in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_weight_file_exits_2_naming_the_row(self, tmp_path, capsys):
        demos = _synth(tmp_path)
        theta = tmp_path / "neg.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2], [1.0, 0.5, -0.2], [1.0, 0.5, 0.2]]}))
        rc = main(["eval", str(demos), "--baseline", "mairl",
                   "--theta", str(theta), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert f"weight file {theta}: 'thetas' row 1 has a negative weight" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("baseline", ["gmm", "ebm"])
    def test_empty_training_file_exits_2(self, tmp_path, capsys, baseline):
        held = _synth(tmp_path)
        empty = _synth(tmp_path, name="empty.traj", n=0)
        rc = main(["eval", str(held), "--train", str(empty), "--baseline", baseline,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "at least one trajectory" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("baseline", ["cv", "mairl", "sairl"])
    def test_baselines_that_fit_nothing_never_read_the_training_file(
        self, tmp_path, monkeypatch, baseline
    ):
        demos = _synth(tmp_path)
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3}))
        reads = []
        monkeypatch.setattr(cli, "read_demonstrations",
                            lambda path: reads.append(path) or read_demonstrations(path))
        argv = ["--entropy-temp", "0.001", "eval", str(demos), "--baseline", baseline,
                "--theta", str(theta), "--format", "jsonl", "--out"]
        assert main([*argv, str(tmp_path / "plain.jsonl")]) == 0
        assert main([*argv, str(tmp_path / "train.jsonl"),
                     "--train", str(tmp_path / "missing.traj")]) == 0
        assert reads == [str(demos)] * 2
        assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "train.jsonl").read_bytes()

    @pytest.mark.parametrize("baseline", ["gmm", "ebm"])
    def test_fitted_baselines_read_the_training_file(self, tmp_path, monkeypatch, capsys, baseline):
        held = _synth(tmp_path)
        train = _synth(tmp_path, name="train.traj", n=9)
        reads = []
        monkeypatch.setattr(cli, "read_demonstrations",
                            lambda path: reads.append(path) or read_demonstrations(path))
        argv = ["eval", str(held), "--baseline", baseline, "--format", "jsonl", "--out"]
        assert main([*argv, str(tmp_path / "plain.jsonl")]) == 0
        assert main([*argv, str(tmp_path / "train.jsonl"), "--train", str(train)]) == 0
        assert reads == [str(held), str(held), str(train)]
        assert (tmp_path / "plain.jsonl").read_bytes() != (tmp_path / "train.jsonl").read_bytes()
        missing = tmp_path / "missing.traj"
        assert main([*argv, str(tmp_path / "x.jsonl"), "--train", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda ln: ln + ",0.5", "block 1: row 4 has 13 values, expected 12"),
        (lambda ln: ln.split(",", 1)[1], "block 1: row 4 has 11 values, expected 12"),
        (lambda ln: "1_0," + ln.split(",", 1)[1],
         "non-numeric value in block 1: digit-group underscore in row 4"),
    ])
    def test_malformed_row_exits_2_naming_block_and_row(self, tmp_path, capsys, edit, message):
        demos = _synth(tmp_path, n=3)
        lines = demos.read_text().splitlines()
        at = 1 + json.loads(lines[0])["T"] + 4  # block 1, row 4
        lines[at] = edit(lines[at])
        demos.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", str(demos), "--baseline", "cv", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_theta_roundtrip_through_eval(self, tmp_path):
        demos = _synth(tmp_path)
        theta = tmp_path / "theta.json"
        main([*FAST_TRAIN, "--iters", "8", "--tol", "0", "train", str(demos),
              "--method", "mairl", "--out", str(theta)])
        report = tmp_path / "mairl.jsonl"
        rc = main(["--entropy-temp", "0.001", "eval", str(demos), "--baseline", "mairl",
                   "--theta", str(theta), "--out", str(report), "--format", "jsonl"])
        assert rc == 0
        recs = [json.loads(l) for l in report.read_text().splitlines()]
        assert any("rmse_per_traj" in r for r in recs)


    def test_overlay_draws_the_scored_predictions(self, tmp_path, monkeypatch):
        # best_of 3 re-samples every candidate set on each prediction
        demos = _synth(tmp_path)
        theta = tmp_path / "theta.json"
        main([*FAST_TRAIN, "--iters", "2", "--tol", "0", "train", str(demos),
              "--method", "mairl", "--out", str(theta)])
        calls = []
        make_predictor = cli.make_predictor

        def counting(method, ctx):
            predict = make_predictor(method, ctx)

            def counted(eval_demos):
                calls.append((predict, ctx, eval_demos))
                return predict(eval_demos)
            return counted

        for module in (cli, metrics):
            monkeypatch.setattr(module, "make_predictor", counting)
        report, overlay = tmp_path / "mairl.jsonl", tmp_path / "mairl.svg"
        assert main(["--entropy-temp", "0.001", "--best-of", "3", "eval", str(demos),
                     "--baseline", "mairl", "--theta", str(theta), "--out", str(report),
                     "--format", "jsonl", "--overlay", str(overlay)]) == 0
        assert len(calls) == 1
        # the bytes of scoring and drawing two separate predictions, as eval once did
        predict, ctx, eval_demos = calls[0]
        emit_report([evaluate_method("mairl", "default", eval_demos, ctx)], "jsonl",
                    tmp_path / "ref.jsonl")
        assert report.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        assert overlay.read_text() == render_overlay_svg(eval_demos, predict(eval_demos))


class TestPlotCompare:
    def _reports(self, tmp_path):
        demos = _synth(tmp_path)
        cv = tmp_path / "cv.jsonl"
        main(["--entropy-temp", "0.001", "eval", str(demos), "--baseline", "cv",
              "--out", str(cv), "--format", "jsonl"])
        gmm = tmp_path / "gmm.jsonl"
        main(["--entropy-temp", "0.001", "eval", str(demos), "--baseline", "gmm",
              "--out", str(gmm), "--format", "jsonl"])
        return cv, gmm

    def test_plot_renders_svg(self, tmp_path):
        cv, gmm = self._reports(tmp_path)
        out = tmp_path / "cdf.svg"
        rc = main(["plot", str(cv), str(gmm), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<svg") and "cv" in text and "gmm" in text

    def test_plot_equals_the_svg_report_of_eval(self, tmp_path):
        demos = _synth(tmp_path)
        jsonl, svg, plotted = (tmp_path / n for n in ("ebm.jsonl", "ebm.svg", "plot.svg"))
        for path, fmt in ((jsonl, "jsonl"), (svg, "svg")):
            assert main(["--entropy-temp", "0.001", "eval", str(demos), "--baseline", "ebm",
                         "--out", str(path), "--format", fmt]) == 0
        assert main(["plot", str(jsonl), "--out", str(plotted)]) == 0
        assert plotted.read_bytes() == svg.read_bytes()

    def test_compare_ranks_and_writes(self, tmp_path, capsys):
        cv, gmm = self._reports(tmp_path)
        out = tmp_path / "rank.jsonl"
        rc = main(["compare", str(cv), str(gmm), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "rank" in stdout and "cv" in stdout
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        ades = [r["ade_m"] for r in rows]
        assert ades == sorted(ades)


def _walker_frames(n_per_dir=2, steps=40, dt=0.1, wobble=0.0):
    # wobble varies the reported box angles and speeds (so the velocities), not the positions
    starts = {
        "E": (-15.0, 0.0, 1.2, 0.0, 0.0),
        "W": (15.0, 1.0, -1.2, 0.0, np.pi),
        "N": (0.0, -8.0, 0.0, 1.2, np.pi / 2),
        "S": (0.5, 12.0, 0.0, -1.2, -np.pi / 2),
    }
    lines = []
    for j in range(steps):
        t = j * dt
        objs = []
        for d, (x0, y0, vx, vy, ang) in starts.items():
            for m in range(n_per_dir):
                objs.append({
                    "id": f"{d}{m}", "x": x0 + vx * t, "y": y0 + vy * t + 0.3 * m,
                    "w": 0.5, "l": 0.5, "angle": ang + wobble * math.sin(j + m),
                    "class": "pedestrian", "speed": 1.2 + wobble * math.cos(j), "acc": 0.9,
                })
        lines.append(json.dumps({"t": t, "objects": objs}))
    return "\n".join(lines) + "\n"


class TestPreprocess:
    def test_empty_input_empty_catalog(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text("")
        rc = main(["preprocess", str(raw), str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "catalog.json").read_text())
        assert summary["total_entries"] == 0

    def test_malformed_line_exits_2(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"t": 0.0, "objects": []}\nnot json\n')
        rc = main(["preprocess", str(raw), str(tmp_path / "out")])
        assert rc == 2

    def test_catalog_built_from_walkers(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(_walker_frames())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "preprocess": {"scheme": ["W-E-S", "S-N-W"], "group_size": 2, "scenario_len": 30}
        }))
        out_dir = tmp_path / "out"
        rc = main(["--config", str(cfg), "preprocess", str(raw), str(out_dir)])
        assert rc == 0
        summary = json.loads((out_dir / "catalog.json").read_text())
        assert summary["total_entries"] == 16  # 2 categories * 2^3
        assert summary["categories"] == {"W-E-S": 8, "S-N-W": 8}
        entry = summary["entries"][0]
        demos, header = read_demonstrations(out_dir / entry["file"])
        assert header["k"] == 3
        assert demos[0].horizon == 29  # 30 rows

    def test_catalog_rows_are_the_tracked_states_converted_once(self, tmp_path):
        # each written row is to_dataset_array of the tracked Cartesian states, bit for bit,
        # not a dataset -> Cartesian -> dataset round trip of them
        raw = tmp_path / "raw.jsonl"
        frames = _walker_frames(wobble=0.3)
        raw.write_text(frames)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preprocess": {"scheme": ["W-E-S", "S-N-W"], "group_size": 2}}))
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "preprocess", str(raw), str(out_dir)]) == 0
        tracks = filter_tracks(tracks_from_frames(parse_frames(frames.splitlines())))
        summary = json.loads((out_dir / "catalog.json").read_text())
        assert summary["total_entries"] == 16
        for entry in summary["entries"]:
            joint = np.concatenate([tracks[t].states[:30] for t in entry["tracks"]], axis=1)
            rows = (out_dir / entry["file"]).read_text().splitlines()[1:]
            assert rows == [",".join(map(repr, row)) for row in to_dataset_array(joint).tolist()]

    def _two_scheme_catalog(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        frames = _walker_frames(wobble=0.3)
        raw.write_text(frames)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preprocess": {"scheme": ["W-E-S", "S-N-W"], "group_size": 2}}))
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "preprocess", str(raw), str(out_dir)]) == 0
        return frames, out_dir

    def test_entry_files_are_what_write_demonstrations_writes(self, tmp_path):
        frames, out_dir = self._two_scheme_catalog(tmp_path)
        tracks = filter_tracks(tracks_from_frames(parse_frames(frames.splitlines())))
        summary = json.loads((out_dir / "catalog.json").read_text())
        assert summary["total_entries"] == 16
        ref = tmp_path / "ref.traj"
        for entry in summary["entries"]:
            joint = np.concatenate([tracks[t].states[:30] for t in entry["tracks"]], axis=1)
            write_demonstrations(ref, [Trajectory.from_states(joint, 0.1)], goals=None,
                                 provenance={"category": entry["category"]})
            assert (out_dir / entry["file"]).read_bytes() == ref.read_bytes()

    def test_each_track_is_converted_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "to_dataset_array",
                            lambda states: calls.append(states.shape) or to_dataset_array(states))
        _, out_dir = self._two_scheme_catalog(tmp_path)
        assert len(list(out_dir.glob("*.traj"))) == 16
        assert calls == [(30, 4)] * 8  # the 6 W, E and S tracks for W-E-S, then N0 and N1

    @pytest.mark.parametrize("key, value", [("x", '"1.5"'), ("t", "true"), ("x", "NaN"),
                                            ("angle", "Infinity"), ("speed", "1e400")])
    def test_bad_frame_field_exits_2_naming_line_and_key(self, tmp_path, capsys, key, value):
        lines = _walker_frames().splitlines()
        rec = json.loads(lines[4])
        (rec if key == "t" else rec["objects"][1])[key] = "@"
        lines[4] = json.dumps(rec).replace('"@"', value)
        raw = tmp_path / "raw.jsonl"
        raw.write_text("\n".join(lines) + "\n")
        assert main(["preprocess", str(raw), str(tmp_path / "out")]) == 2
        assert f"line 5: key {key!r} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ({"x_range": ["a", "b"]}, "x_range must be two finite numbers lo < hi, got ['a', 'b']"),
        ({"x_range": [1, "b"]}, "x_range must be two finite numbers lo < hi, got [1, 'b']"),
        ({"x_range": [1]}, "x_range must be two finite numbers lo < hi, got [1]"),
        ({"y_range": [1, 2, 3]}, "y_range must be two finite numbers lo < hi, got [1, 2, 3]"),
        ({"y_range": [2, 1]}, "y_range must be two finite numbers lo < hi, got [2, 1]"),
        ({"scheme": [5]}, "preprocess.scheme entry 5 must be directions from E, W, N, S"),
        ({"scheme": ["W-X"]}, 'preprocess.scheme entry "W-X" must be directions'),
        ({"scheme": ["W-E-S", ""]}, 'preprocess.scheme entry "" must be directions'),
        ({"scheme": ["W-W"]}, 'preprocess.scheme entry "W-W" repeats a direction'),
        ({"scheme": ["E-W-E"]}, 'preprocess.scheme entry "E-W-E" repeats a direction'),
        ({"scheme": ["W-E-S", "W-E-S"]}, 'preprocess.scheme entry "W-E-S" repeats a direction '
                                         'or an earlier entry'),
        ({"scheme": ["S-N-W", "W-E-S", "S-N-W"]}, 'entry "S-N-W" repeats'),
    ])
    @pytest.mark.parametrize("command", ["preprocess", "synth"])
    def test_malformed_preprocess_list_exits_2(self, tmp_path, capsys, command, override, message):
        # a malformed section is refused up front, whichever command reads the config
        raw = tmp_path / "raw.jsonl"
        raw.write_text(_walker_frames())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preprocess": override}))
        out = tmp_path / "out"
        argv = {"preprocess": ["preprocess", str(raw), str(out)],
                "synth": ["synth", str(out), "--n", "1"]}[command]
        assert main(["--config", str(cfg), *argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


NOT_UTF8 = b"\xff\xfe" + '{"k": 1}\n'.encode("utf-16-le")


@pytest.mark.parametrize("argv", [
    ["train", "{bad}", "--out", "{out}"],
    ["eval", "{bad}", "--baseline", "cv", "--out", "{out}"],
    ["preprocess", "{bad}", "{out}"],
], ids=["train", "eval", "preprocess"])
def test_non_utf8_input_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.traj"
    bad.write_bytes(NOT_UTF8)
    rc = main([a.format(bad=bad, out=tmp_path / "out") for a in argv])
    assert rc == 2
    assert f"{bad} is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("name, content, message", [
    ("r.jsonl", '{"note": "x"}\nnot json\n', "line 2: malformed"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "agent": "all", "fde_m": 1.0}\n', "ade_m"),
    ("r.jsonl", '{"method": "cv", "agent": "all", "ade_m": 1.0, "fde_m": 1.0}\n', "scenario"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "rmse_per_traj": ["abc"]}\n', "line 1: malformed"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "rmse_per_traj": 5}\n', "line 1: malformed"),
    ("r.csv", "method,scenario,agent,ade_m,fde_m,efe_m\ncv,s,all,abc,1,1\n", "line 2: non-numeric"),
    ("r.jsonl", NOT_UTF8, "is not UTF-8"),
    ("r.csv", NOT_UTF8, "is not UTF-8"),
])
@pytest.mark.parametrize("command", ["compare", "plot"])
def test_malformed_report_exits_2(tmp_path, capsys, command, name, content, message):
    report = tmp_path / name
    if isinstance(content, bytes):
        report.write_bytes(content)
    else:
        report.write_text(content)
    rc = main([command, str(report), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(report) in err and message in err


def test_plot_without_rmse_values_exits_2(tmp_path):
    report = tmp_path / "r.jsonl"
    report.write_text('{"method": "cv", "scenario": "s", "rmse_per_traj": []}\n')
    assert main(["plot", str(report), "--out", str(tmp_path / "cdf.svg")]) == 2


def test_log_level_routes_warnings_and_keeps_every_file(tmp_path, capsys):
    # one two-step demonstration gives ebm 6 state-action pairs for a 2x4 map,
    # which the fit warns about
    demos = _synth(tmp_path, n=1, extra=["--horizon", "2"])
    outputs = {}
    for level in (None, "warning", "error"):
        flags = [] if level is None else ["--log-level", level]
        names = [tmp_path / f"{stem}_{level}" for stem in ("theta.json", "trace.jsonl", "ebm.csv")]
        capsys.readouterr()
        main([*flags, *FAST_TRAIN, "--iters", "2", "--tol", "0", "train", str(demos),
              "--out", str(names[0]), "--trace-out", str(names[1])])
        for _ in range(2):  # a second in-process call must not add a second handler
            assert main([*flags, "eval", str(demos), "--baseline", "ebm",
                         "--out", str(names[2])]) == 0
        outputs[level] = [p.read_bytes() for p in names]
        err = capsys.readouterr().err
        warning = "WARNING crowdirl.baselines: only 6 pairs for a 2x4 map"
        assert err.count(warning) == (0 if level == "error" else 2)
        if level == "error":
            assert err == ""
    assert outputs[None] == outputs["warning"] == outputs["error"]


def test_unknown_log_level_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "verbose", "compare", "x.csv"])
    assert exc.value.code == 2
    assert "--log-level" in capsys.readouterr().err


def test_cli_entry_point_help():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_python_dash_m_runs_the_cli(monkeypatch):
    # a source checkout has no installed script; `python -m crowdirl` is its entry point
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to COLUMNS in both processes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "crowdirl", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == build_parser().format_help()


SUBCOMMANDS = ("preprocess", "synth", "train", "eval", "plot", "compare")


def _parsers(parser):
    """The parser and every subcommand's parser."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _help_text(parse, argv, capsys) -> str:
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestRepeatedCalls:
    """In-process `main` calls share one parser and nothing else."""

    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._shared_parser.cache_clear()
        for n in range(4):
            assert main(["synth", str(tmp_path / f"{n}.traj"), "--n", "0"]) == 0
        assert main(["compare", str(tmp_path / "missing.csv")]) == 2
        assert len(builds) == 1

    def test_a_name_patched_after_the_first_call_takes_effect(self, tmp_path, monkeypatch):
        demos = _synth(tmp_path)
        argv = ["eval", str(demos), "--baseline", "cv", "--out"]
        assert main([*argv, str(tmp_path / "a.csv")]) == 0
        reads = []
        monkeypatch.setattr(cli, "read_demonstrations",
                            lambda path: reads.append(path) or read_demonstrations(path))
        assert main([*argv, str(tmp_path / "b.csv")]) == 0
        assert reads == [str(demos)]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_eval_flags_of_one_call_do_not_reach_the_next(self, tmp_path):
        demos = _synth(tmp_path)
        argv = ["eval", str(demos), "--baseline", "cv", "--out"]
        overlay = tmp_path / "o.svg"
        assert main([*argv, str(tmp_path / "r.jsonl"), "--format", "jsonl",
                     "--overlay", str(overlay)]) == 0
        assert overlay.exists() and (tmp_path / "r.jsonl").read_text().startswith("{")
        overlay.unlink()
        assert main([*argv, str(tmp_path / "r.csv")]) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[1] == ",".join(metrics.CSV_COLUMNS)
        assert {row["method"] for row in parse_report_csv(tmp_path / "r.csv")} == {"cv"}
        assert not overlay.exists()

    def test_train_diagnostics_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        demos = _synth(tmp_path)
        argv = [*FAST_TRAIN, "--iters", "1", "--tol", "100", "train", str(demos),
                "--out", str(tmp_path / "theta.json")]
        capsys.readouterr()
        main([*argv, "--diagnostics"])
        assert capsys.readouterr().out.startswith("{")
        main(argv)
        out = capsys.readouterr().out
        assert out.startswith("mairl:") and "{" not in out

    def test_log_level_of_one_call_does_not_reach_the_next(self, tmp_path, capsys):
        demos = _synth(tmp_path)
        argv = ["eval", str(demos), "--baseline", "ebm", "--out", str(tmp_path / "ebm.csv")]
        capsys.readouterr()
        assert main(["--log-level", "info", *argv]) == 0
        assert "INFO crowdirl.baselines: energy fit residual" in capsys.readouterr().err
        assert main(argv) == 0
        assert "INFO" not in capsys.readouterr().err

    def test_help_is_the_fresh_parsers_after_other_commands(self, tmp_path, capsys):
        # the shared parser first serves a command, an input error and a usage error
        _synth(tmp_path, n=0)
        assert main(["compare", str(tmp_path / "missing.csv")]) == 2
        with pytest.raises(SystemExit):
            main(["eval", str(tmp_path / "d.traj")])
        for argv in ([], *([name] for name in SUBCOMMANDS)):
            fresh = _help_text(build_parser().parse_args, argv, capsys)
            assert _help_text(main, argv, capsys) == fresh
            assert _help_text(main, argv, capsys) == fresh  # printing help changes nothing

    def test_no_argument_carries_state_between_parses(self):
        accumulating = (argparse._AppendAction, argparse._AppendConstAction, argparse._ExtendAction)
        parsers = list(_parsers(cli._shared_parser()))
        assert [p.prog for p in parsers[1:]] == [f"crowdirl {name}" for name in SUBCOMMANDS]
        for parser in parsers:
            assert parser._defaults == {}, parser.prog  # no set_defaults, so no function objects
            for action in parser._actions:
                assert not isinstance(action, accumulating), action.dest
                assert action.default is None or isinstance(action.default, (str, int, float)), \
                    action.dest
