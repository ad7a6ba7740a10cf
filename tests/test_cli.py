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
from crowdirl.game import SolverConfig
from crowdirl.irl import TrainingConfig
from crowdirl.metrics import (
    BASELINE_NAMES,
    PredictorContext,
    emit_report,
    evaluate_method,
    parse_report_csv,
    render_overlay_svg,
)
from crowdirl.pipeline import (
    PreprocessConfig,
    _to_dataset_array,
    filter_tracks,
    header_goals,
    parse_frames,
    read_demonstrations,
    tracks_from_frames,
    write_demonstrations,
)
from crowdirl.trajectory import RolloutSet, ScenarioSpec

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


def _far_demos(tmp_path, steps):
    """Synthesized demonstrations with agent 0 at x = 1e160 at the given steps of every demo."""
    demos, header = read_demonstrations(_synth(tmp_path))
    states = demos.states.copy()
    states[:, steps, 0] = 1e160  # finite, but its square overflows
    path = tmp_path / "far.traj"
    write_demonstrations(path, RolloutSet.from_states(states, demos.dt), goals=header_goals(header))
    return path


def _refused(argv, capsys) -> str:
    """stderr of main(argv), which must exit 2 with one message and without a warning."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
    return err


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = load_config(None, {})
        assert cfg == DEFAULT_CONFIG

    def test_file_merge_and_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "training": {"beta": 0.5}}))
        cfg = load_config(str(cfg_path), {"training.beta": 0.25})
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
        ({"u_max": -math.inf}, "'u_max' must be a number, got -Infinity"),
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
        ({"preprocess": {"scenario_len": 1}}, "scenario_len must be an integer >= 2, got 1"),
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
        assert cfg["preprocess"] == as_json(PreprocessConfig())
        assert cfg["eval"] == as_json(PredictorContext(spec=None, train_demos=()),
                                      "best_of", "gmm_components")
        spec_defaults = {f.name: f.default for f in dataclasses.fields(ScenarioSpec)}
        assert json.dumps({key: DEFAULT_CONFIG[key] for key in ("seed", "u_max", "sigma")}) == json.dumps(
            {"seed": TrainingConfig().seed, "u_max": spec_defaults["u_max"], "sigma": spec_defaults["sigma"]})

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

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_kernel_width_that_is_not_positive_exits_2(self, tmp_path, capsys, command, sigma):
        demos = _synth(tmp_path, n=2)
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", str(out), "--n", "2"],
            "train": ["train", str(demos), "--out", str(out)],
            "eval": ["eval", str(demos), "--baseline", "cv", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([f"--sigma={sigma}", "--iters", "1", *argv]) == 2
        assert capsys.readouterr().err == f"error: sigma must be positive, got {float(sigma)!r}\n"
        assert not out.exists()

    def test_kernel_width_that_is_not_positive_in_a_config_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma": -1}))
        out = tmp_path / "d.traj"
        assert main(["--config", str(cfg_path), "synth", str(out), "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: sigma must be positive, got -1.0\n"
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

    def test_config_block_of_an_unclamped_weight_file_runs_again(self, tmp_path):
        demos, first, again, cfg_path = (tmp_path / n for n in ("d.traj", "t1.json", "t2.json", "c.json"))
        assert main(["--u-max", "inf", "--seed", "1", "synth", str(demos), "--n", "2"]) == 0
        rc = main(["--u-max", "inf", *FAST_TRAIN, "--iters", "1",
                   "train", str(demos), "--out", str(first)])
        assert rc in (0, 3)
        cfg_path.write_text(json.dumps(json.loads(first.read_text())["config"]))
        assert '"u_max": Infinity' in cfg_path.read_text()
        assert main(["--config", str(cfg_path), "train", str(demos), "--out", str(again)]) == rc
        assert again.read_bytes() == first.read_bytes()

    def test_negative_outer_tolerance_in_a_config_file_exits_2(self, tmp_path, capsys):
        # it used to pass the config and silently run every outer iteration
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"solver": {"outer_tol": -1.0, "max_outer_iters": 3}}))
        out = tmp_path / "d.traj"
        assert main(["--config", str(cfg_path), "synth", str(out), "--n", "2"]) == 2
        assert "outer_tol must be nonnegative and finite, got -1.0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_standstill_speed_in_a_config_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preprocess": {"standstill_speed": -0.5}}))
        out = tmp_path / "d.traj"
        assert main(["--config", str(cfg_path), "synth", str(out), "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: standstill_speed must be finite and >= 0, got -0.5\n"
        assert not out.exists()

    def test_negative_demo_count_exits_2_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "d.traj"
        assert main(["synth", str(out), "--n", "-1"]) == 2
        assert "--n must be >= 1, got -1" in capsys.readouterr().err
        assert not out.exists()

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
            "sigma = 1.5",
            "preprocess.resample_dt = 0.1",
            "eval.best_of = 1",
        ):
            assert line in text

    def test_removed_proximity_section_in_a_config_file_exits_2(self, tmp_path, capsys):
        # sigma sits beside u_max now; the old section is never read at the default width
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"proximity": {"sigma": 1.0}}))
        out = tmp_path / "d.traj"
        err = _refused(["--config", str(cfg_path), "synth", str(out), "--n", "2"], capsys)
        assert err == "error: unknown config key 'proximity'\n"
        assert not out.exists()

    def test_each_config_flag_sets_the_config_leaf_its_dest_names(self):
        leaves = dict(line.split(" = ") for line in cli._config_keys(DEFAULT_CONFIG))
        flags = {action.option_strings[0]: action.dest for parser in _parsers(build_parser())
                 for action in parser._actions if action.dest in leaves or "." in action.dest}
        assert flags == {
            "--seed": "seed", "--u-max": "u_max", "--sigma": "sigma",
            "--eps-psd": "solver.eps_psd", "--entropy-temp": "solver.entropy_temp",
            "--beta": "training.beta", "--iters": "training.max_iters", "--tol": "training.tol",
            "--rollouts": "training.M", "--best-of": "eval.best_of",
        }
        for flag, dest in flags.items():
            cfg = load_config(None, vars(build_parser().parse_args([flag, "7", "compare", "r.csv"])))
            node = cfg
            for part in dest.split("."):
                node = node[part]
            assert node == 7, flag

    def test_help_lists_every_config_leaf_with_its_default(self):
        text = build_parser().format_help()
        for line in cli._config_keys(DEFAULT_CONFIG):
            assert f"\n  {line}\n" in text

    def test_weight_file_config_block_reads_back_as_a_config_file(self, tmp_path):
        flags = ["--u-max", "inf", "--sigma", "1.0", "--entropy-temp", "1e-3"]
        demos, theta = tmp_path / "d.traj", tmp_path / "w.json"
        assert main([*flags, "--seed", "1", "synth", str(demos), "--n", "2"]) == 0
        assert main([*flags, "--beta", "0.03", "--rollouts", "8", "--iters", "1",
                     "train", str(demos), "--out", str(theta)]) in (0, 3)
        block = json.loads(theta.read_text())["config"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(block))
        assert load_config(str(cfg_path), {}) == block
        assert block["u_max"] == math.inf and block["sigma"] == 1.0
        # read over a command's config that holds u_max inf too, the block is scored as it stands
        assert main([*flags, "eval", str(demos), "--baseline", "mairl", "--theta", str(theta),
                     "--out", str(tmp_path / "r.csv")]) == 0

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

    def test_weights_that_overflow_the_cost_exit_2_naming_them(self, tmp_path, capsys):
        # finite weights whose cost terms overflow: one message, no numpy warning before it
        out = tmp_path / "out.traj"
        assert main(["--entropy-temp", "1e-3", "synth", str(out), "--theta", "1e308,0.5,0.2",
                     "--n", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: weights --theta '1e308,0.5,0.2' are out of range: "
            "cost expansion contains non-finite values\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("theta, message", [
        ("1,2", "weight group '1,2': weights must have length 3, got (2,)"),
        ("1,0,0;0,1;0,0,1", "weight group '0,1': weights must have length 3, got (2,)"),
        ("nan,1,1", "weight group 'nan,1,1': weights contain non-finite values"),
    ], ids=["short", "one-short-group", "non-finite"])
    def test_theta_that_is_no_weight_vector_exits_2_naming_the_group(self, tmp_path, capsys, theta, message):
        out = tmp_path / "out.traj"
        assert main(["synth", str(out), f"--theta={theta}", "--n", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("theta, message", [
        ("1,0.5,-0.2", "weight group '1,0.5,-0.2': weights must be nonnegative, got [1.0, 0.5, -0.2]"),
        ("1,0,0;0,-1,0;0,0,1", "weight group '0,-1,0': weights must be nonnegative, got [0.0, -1.0, 0.0]"),
    ])
    def test_negative_theta_exits_2_naming_the_group(self, tmp_path, capsys, theta, message):
        rc = main(["synth", str(tmp_path / "out.traj"), "--preset", "intersection_k3",
                   f"--theta={theta}", "--n", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.traj").exists()


class TestSynth:
    def test_writes_demonstrations_with_provenance(self, tmp_path):
        path = _synth(tmp_path)
        demos, header = read_demonstrations(path)
        assert len(demos) == 6
        assert header["provenance"]["seed"] == 11
        assert header["provenance"]["theta_star"][0] == [1.0, 0.5, 0.2]

    def test_zero_count_exits_2_writing_nothing(self, tmp_path, capsys):
        # a header-only file is one that no command reads
        path = tmp_path / "empty.traj"
        assert main(["synth", str(path), "--n", "0"]) == 2
        assert capsys.readouterr().err == "error: --n must be >= 1, got 0\n"
        assert not path.exists()

    def test_the_control_bound_travels_with_the_demonstrations(self, tmp_path, capsys):
        # a file synthesized at --u-max 0.5 used to train and score at 3.0 without a word
        path = tmp_path / "b.traj"
        assert main(["--u-max", "0.5", "--entropy-temp", "0.001", "synth", str(path), "--n", "2"]) == 0
        assert read_demonstrations(path)[1]["provenance"]["u_max"] == 0.5
        train = [*FAST_TRAIN, "--iters", "1", "--tol", "100", "train", str(path)]
        score = ["eval", str(path), "--baseline", "cv"]
        for argv in (train, score):
            out = tmp_path / "out"
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{path} was synthesized at u_max 0.5, but the configured bound is 3.0" in err
            assert "pass --u-max 0.5" in err and not out.exists()
            assert main(["--u-max", "0.5", *argv, "--out", str(out)]) == 0 and out.exists()
            out.unlink()

    def test_the_kernel_width_travels_with_the_demonstrations(self, tmp_path, capsys):
        path = tmp_path / "b.traj"
        assert main(["--sigma", "1.0", "--entropy-temp", "0.001", "synth", str(path), "--n", "2"]) == 0
        assert read_demonstrations(path)[1]["provenance"]["sigma"] == 1.0
        train = [*FAST_TRAIN, "--iters", "1", "--tol", "100", "train", str(path)]
        score = ["eval", str(path), "--baseline", "cv"]
        for argv in (train, score):
            out = tmp_path / "out"
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{path} was synthesized at sigma 1.0, but the configured kernel width is 1.5" in err
            assert "pass --sigma 1.0" in err and not out.exists()
            assert main(["--sigma", "1.0", *argv, "--out", str(out)]) == 0 and out.exists()
            out.unlink()

    def test_synthesized_file_records_no_clamp_as_infinity(self, tmp_path):
        path = tmp_path / "b.traj"
        assert main(["--u-max", "inf", "--entropy-temp", "0.001", "synth", str(path), "--n", "1"]) == 0
        header = path.read_text().splitlines()[0]
        assert '"u_max": Infinity' in header
        assert json.loads(header)["provenance"]["u_max"] == math.inf

    def test_files_that_record_no_kernel_width_read_at_the_configured_one(self, tmp_path):
        path = _synth(tmp_path, n=2)
        header, *rows = path.read_text().splitlines()
        header = json.loads(header)
        assert header["provenance"].pop("sigma") == 1.5
        path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        for sigma in ("1.5", "1.0"):
            assert main(["--sigma", sigma, "eval", str(path), "--baseline", "cv",
                         "--out", str(tmp_path / f"r{sigma}.csv")]) == 0

    def test_files_that_record_no_bound_read_at_the_configured_one(self, tmp_path):
        path = _synth(tmp_path, n=2)
        header, *rows = path.read_text().splitlines()
        header = json.loads(header)
        assert header["provenance"].pop("u_max") == 3.0
        path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        for bound in ("3.0", "0.5"):
            assert main(["--u-max", bound, "eval", str(path), "--baseline", "cv",
                         "--out", str(tmp_path / f"r{bound}.csv")]) == 0

    @pytest.mark.parametrize("provenance, message", [
        ([], "header key 'provenance' must be an object, got []"),
        ("synth", "header key 'provenance' must be an object, got 'synth'"),
        (None, "header key 'provenance' must be an object, got None"),
        ({"u_max": 0}, "provenance key 'u_max' must be a positive number, got 0"),
        ({"u_max": -1.0}, "provenance key 'u_max' must be a positive number, got -1.0"),
        ({"u_max": "0.5"}, "provenance key 'u_max' must be a positive number, got '0.5'"),
        ({"u_max": None}, "provenance key 'u_max' must be a positive number, got None"),
        ({"u_max": True}, "provenance key 'u_max' must be a positive number, got True"),
        ({"u_max": math.nan}, "provenance key 'u_max' must be a positive number, got nan"),
        ({"u_max": -math.inf}, "provenance key 'u_max' must be a positive number, got -inf"),
        pytest.param({"u_max": 10**401}, f"provenance key 'u_max' must be a positive number, got {10**401!r}",
                     id="u_max-beyond-float-range"),
        ({"sigma": 0}, "provenance key 'sigma' must be a positive finite number, got 0"),
        ({"sigma": -1.0}, "provenance key 'sigma' must be a positive finite number, got -1.0"),
        ({"sigma": "1.5"}, "provenance key 'sigma' must be a positive finite number, got '1.5'"),
        ({"sigma": None}, "provenance key 'sigma' must be a positive finite number, got None"),
        ({"sigma": True}, "provenance key 'sigma' must be a positive finite number, got True"),
        ({"sigma": math.nan}, "provenance key 'sigma' must be a positive finite number, got nan"),
        ({"sigma": math.inf}, "provenance key 'sigma' must be a positive finite number, got inf"),
    ])
    def test_malformed_provenance_exits_2(self, tmp_path, capsys, provenance, message):
        path = _synth(tmp_path, n=2)
        header, *rows = path.read_text().splitlines()
        header = {**json.loads(header), "provenance": provenance}
        path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert main(["eval", str(path), "--baseline", "cv", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("method", ["mairl", "sairl"])
    def test_learning_rate_that_overflows_the_weights_exits_2_naming_beta(self, tmp_path, capsys, method):
        # the step used to warn of an overflow in multiply, then name neither beta nor the cause
        demos = _synth(tmp_path, n=2)
        out = tmp_path / "t.json"
        err = _refused([*FAST_TRAIN, "--beta", "1e308", "--iters", "3", "train", str(demos),
                        "--method", method, "--out", str(out)], capsys)
        assert err == "error: beta 1e+308 overflows the weight step of sweep 0\n"
        assert not out.exists()

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
        assert not np.array_equal(np.mean(demos.states[:, 0], axis=0), demos.states[0, 0])
        specs, train = [], cli.multi_agent_irl

        def recording(dataset, spec, cfg):
            specs.append(spec)
            return train(dataset, spec, cfg)

        monkeypatch.setattr(cli, "multi_agent_irl", recording)
        rc = main([*FAST_TRAIN, "--iters", "1", "train", str(tmp_path / "demos.traj"),
                   "--out", str(tmp_path / "t.json")])
        assert rc in (0, 3)
        assert specs[0].x0.tobytes() == demos.states[0, 0].tobytes()

    def test_demonstrations_from_different_starts_exit_2(self, tmp_path, capsys):
        demos, header = read_demonstrations(_synth(tmp_path))
        demos = list(demos)
        moved = demos[2].states.copy()
        moved[..., 0::4] += 0.5  # every agent starts half a metre further east
        demos[2] = RolloutSet.from_states(moved, demos[2].dt)
        mixed = tmp_path / "mixed.traj"
        write_demonstrations(mixed, RolloutSet.stack(demos), goals=header_goals(header))
        capsys.readouterr()
        rc = main(["train", str(mixed), "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "demonstration 2 starts from a different joint state" in capsys.readouterr().err
        # eval predicts each demo from its own start and still takes the file
        rc = main(["eval", str(mixed), "--baseline", "cv", "--out", str(tmp_path / "cv.csv")])
        assert rc == 0

    @pytest.mark.parametrize("steps", [slice(None), [3]])  # every state; one state mid-demo
    def test_demonstrations_out_of_range_exit_2_naming_the_file(self, tmp_path, capsys, steps):
        demos = _far_demos(tmp_path, steps)
        capsys.readouterr()
        rc = main(["train", str(demos), "--out", str(tmp_path / "t.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {demos} is out of range: ") and err.count("\n") == 1
        assert "non-finite" in err and "[" not in err  # no raw feature array
        assert not (tmp_path / "t.json").exists()

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

    def test_weights_that_overflow_the_cost_exit_2_naming_the_file(self, tmp_path, capsys):
        demos = _synth(tmp_path)
        theta = tmp_path / "huge.json"
        theta.write_text(json.dumps({"thetas": [[1e308, 0.5, 0.2]] * 3}))
        out = tmp_path / "x.csv"
        capsys.readouterr()
        rc = main(["eval", str(demos), "--baseline", "sairl", "--theta", str(theta), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: weight file {theta} is out of range: cost expansion contains non-finite values\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("baseline", ["mairl", "sairl"])
    def test_start_out_of_range_exits_2_naming_the_demo_file(self, tmp_path, capsys, baseline):
        # the game is expanded along each demo's start; theirs overflows, not the weights'
        demos = _far_demos(tmp_path, [0])
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3}))
        out = tmp_path / "x.csv"
        capsys.readouterr()
        rc = main(["eval", str(demos), "--baseline", baseline, "--theta", str(theta), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {demos} is out of range: "
            "cost function returned non-finite values along the nominal\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("best_of, flags", [
        ("1", ["--baseline", "cv"]),
        ("1", ["--baseline", "mairl", "--theta", "{theta}"]),
        ("3", ["--baseline", "mairl", "--theta", "{theta}"]),
    ], ids=["cv", "mairl", "mairl-best-of-3"])
    def test_errors_that_overflow_exit_2_naming_the_demo_file(self, tmp_path, capsys, best_of, flags):
        # a finite position far past the start: its squared displacement overflows
        demos = _far_demos(tmp_path, [2])
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3}))
        out = tmp_path / "r.jsonl"
        capsys.readouterr()
        rc = main(["--best-of", best_of, "eval", str(demos), *(f.format(theta=theta) for f in flags),
                   "--scenario", "x", "--out", str(out), "--format", "jsonl"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {demos} is out of range: displacement errors overflow\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("baseline", ["gmm", "ebm"])
    def test_training_data_out_of_range_exits_2_naming_the_train_file(
        self, tmp_path, capsys, baseline
    ):
        # a fitted baseline squares its training pairs; one finite position at 1e160 overflows them
        train = _far_demos(tmp_path, [2])
        demos = _synth(tmp_path)
        out = tmp_path / "r.csv"
        capsys.readouterr()
        rc = main(["eval", str(demos), "--baseline", baseline, "--train", str(train),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {train} is out of range: ") and err.count("\n") == 1
        assert "non-finite" in err
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
        assert (f"weight file {theta}: 'thetas' row 1: weights must be nonnegative, got [1.0, 0.5, -0.2]"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("rows, message", [
        ([[1.0, 0.5, 0.2], [1.0, 2.0], [1.0, 0.5, 0.2]],
         "'thetas' row 1: weights must have length 3, got (2,)"),
        ([[1.0, 0.5, 0.2]] * 2 + [[1.0, math.nan, 0.2]], "'thetas' row 2 must be a list of finite numbers"),
        ([[1.0, 0.5, 0.2], [10**401, 1, 1], [1.0, 0.5, 0.2]], "'thetas' row 1 must be a list of finite numbers"),
        ([[1.0, 0.5, 0.2], [True, 1, 1], [1.0, 0.5, 0.2]], "'thetas' row 1 must be a list of finite numbers"),
        ([[1.0, 0.5, 0.2], [[1, 2, 3]], [1.0, 0.5, 0.2]], "'thetas' row 1 must be a list of finite numbers"),
        ([[1.0, 0.5, 0.2], 5, [1.0, 0.5, 0.2]], "'thetas' row 1 must be a list of finite numbers"),
        ([[1.0, 0.5, 0.2]] * 2, "holds 2 agents, demos have 3"),
    ], ids=["short", "non-finite", "huge-integer", "boolean", "nested", "no-list", "agents"])
    def test_weight_file_row_that_is_no_weight_vector_exits_2_naming_the_row(
        self, tmp_path, capsys, rows, message
    ):
        demos = _synth(tmp_path)
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": rows}))
        capsys.readouterr()
        rc = main(["eval", str(demos), "--baseline", "mairl",
                   "--theta", str(theta), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        sep = " " if message.startswith("holds") else ": "
        assert capsys.readouterr().err == f"error: weight file {theta}{sep}{message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("config, key, value", [
        ({"u_max": 10**401}, "u_max", 10**401),
        ({"u_max": True}, "u_max", True),
        ({"sigma": math.nan}, "sigma", math.nan),
        ({"sigma": math.inf}, "sigma", math.inf),
    ], ids=["huge-integer", "boolean", "nan", "inf-width"])
    def test_weight_file_config_bound_or_width_that_is_no_number_exits_2_naming_the_file(
        self, tmp_path, capsys, config, key, value
    ):
        demos = _synth(tmp_path, n=3)
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3, "config": config}))
        out = tmp_path / "x.csv"
        err = _refused(["eval", str(demos), "--baseline", "mairl", "--theta", str(theta),
                        "--out", str(out)], capsys)
        assert err == f"error: weight file {theta}: config key {key!r} must be a number, got {json.dumps(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train"], *(["eval", "--baseline", b] for b in BASELINE_NAMES)],
                             ids=lambda command: command[-1])
    def test_start_whose_open_loop_path_overflows_exits_2_naming_the_file(
        self, tmp_path, capsys, command
    ):
        # at dt 1e308 every nominal, cv coast and feedback rollout overflows
        demos = _synth(tmp_path, n=2)
        header, *rows = demos.read_text().splitlines()
        demos.write_text("\n".join([json.dumps({**json.loads(header), "dt": 1e308}), *rows]) + "\n")
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3}))
        out = tmp_path / "out"
        argv = [command[0], str(demos), *command[1:], "--out", str(out)]
        if command[-1] in ("mairl", "sairl"):
            argv += ["--theta", str(theta)]
        err = _refused(argv, capsys)
        assert err.startswith(f"error: {demos} is out of range: ")
        assert not out.exists()

    def test_kernel_width_reaches_the_games_of_the_report(self, tmp_path):
        demos = _synth(tmp_path, n=3)
        narrow = tmp_path / "narrow.traj"  # the same demonstrations, recorded at sigma 1.0
        header, *rows = demos.read_text().splitlines()
        header = json.loads(header)
        header["provenance"]["sigma"] = 1.0
        narrow.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3}))
        argv = ["--baseline", "mairl", "--theta", str(theta), "--format", "jsonl"]
        assert main(["eval", str(demos), *argv, "--out", str(tmp_path / "default.jsonl")]) == 0
        assert main(["--sigma", "1.5", "eval", str(demos), *argv,
                     "--out", str(tmp_path / "same.jsonl")]) == 0
        assert main(["--sigma", "1.0", "eval", str(narrow), *argv,
                     "--out", str(tmp_path / "narrow.jsonl")]) == 0
        default = (tmp_path / "default.jsonl").read_bytes()
        assert (tmp_path / "same.jsonl").read_bytes() == default
        assert (tmp_path / "narrow.jsonl").read_bytes() != default

    def test_weight_file_is_scored_only_at_the_kernel_width_it_was_trained_at(self, tmp_path, capsys):
        demos = _synth(tmp_path, n=3)
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3,
                                     "config": {"sigma": 1.0}}))
        out = tmp_path / "r.csv"
        capsys.readouterr()
        assert main(["eval", str(demos), "--baseline", "mairl", "--theta", str(theta),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: weight file {theta} was trained at sigma 1.0, but the configured kernel "
            "width is 1.5; pass --sigma 1.0\n")
        assert not out.exists()

    def test_weight_file_is_scored_only_at_the_bound_it_was_trained_at(self, tmp_path, capsys):
        # demonstrations that record no bound, such as a catalog entry, read at either
        demos = _synth(tmp_path, n=3)
        header, *rows = demos.read_text().splitlines()
        header = json.loads(header)
        del header["provenance"]["u_max"]
        demos.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3, "config": {"u_max": 0.5}}))
        out = tmp_path / "r.csv"
        argv = ["eval", str(demos), "--baseline", "mairl", "--theta", str(theta), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: weight file {theta} was trained at u_max 0.5, but the configured bound "
            "is 3.0; pass --u-max 0.5\n")
        assert not out.exists()
        assert main(["--u-max", "0.5", *argv]) == 0 and out.exists()

    @pytest.mark.parametrize("config, message", [
        ([], "config must be a JSON object"),
        ("sigma", "config must be a JSON object"),
        (None, "config must be a JSON object"),
        ({"training": 1.0}, "config key 'training' must be a section"),
    ], ids=["list", "string", "null", "section"])
    def test_weight_file_config_that_is_no_object_exits_2_naming_the_file(self, tmp_path, capsys,
                                                                        config, message):
        demos = _synth(tmp_path, n=3)
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3, "config": config}))
        out = tmp_path / "r.csv"
        capsys.readouterr()
        assert main(["eval", str(demos), "--baseline", "mairl", "--theta", str(theta),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: weight file {theta}: {message}\n")
        assert not out.exists()

    def test_weight_file_trained_at_a_bound_is_refused_without_a_clamp_by_the_mismatch_message(
        self, tmp_path, capsys
    ):
        # read over a config whose u_max is inf, the recorded finite bound is a number as ever
        demos = _synth(tmp_path, n=3)
        header, *rows = demos.read_text().splitlines()
        header = json.loads(header)
        del header["provenance"]["u_max"]
        demos.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3, "config": {"u_max": 3.0}}))
        out = tmp_path / "r.csv"
        err = _refused(["--u-max", "inf", "eval", str(demos), "--baseline", "mairl", "--theta", str(theta),
                        "--out", str(out)], capsys)
        assert err == (f"error: weight file {theta} was trained at u_max 3.0, but the configured bound "
                       "is inf; pass --u-max 3.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"u_max": 0}, "u_max must be positive (inf for no clamp), got 0.0"),
        ({"sigma": -1}, "sigma must be positive, got -1.0"),
        ({"training": {"M": "lots"}}, "config key 'training.M' must be a number, got \"lots\""),
        ({"seed": -4}, "seed must be an integer >= 0, got -4"),
        ({"solver": {"entropy": 1.0}}, "unknown config key 'solver.entropy'"),
        ({"proximity": {"sigma": 1.5}}, "unknown config key 'proximity'"),
    ], ids=["zero-bound", "negative-width", "count-text", "negative-seed", "unknown-key", "proximity"])
    def test_weight_file_config_that_fails_as_a_config_file_exits_2_naming_the_file_and_key(
        self, tmp_path, capsys, config, message
    ):
        # the first two were refused with advice (pass --u-max 0) that is refused in turn,
        # the others scored with exit 0, though the block reads back as a --config file
        demos = _synth(tmp_path, n=3)
        theta = tmp_path / "w.json"
        theta.write_text(json.dumps({"thetas": [[1.0, 0.5, 0.2]] * 3, "config": config}))
        out = tmp_path / "r.csv"
        err = _refused(["eval", str(demos), "--baseline", "mairl", "--theta", str(theta),
                        "--out", str(out)], capsys)
        assert err == f"error: weight file {theta}: {message}\n"
        assert "pass --" not in err and not out.exists()

    @pytest.mark.parametrize("baseline", ["gmm", "ebm"])
    def test_empty_training_file_exits_2(self, tmp_path, capsys, baseline):
        held = _synth(tmp_path)
        header = json.loads(held.read_text().splitlines()[0])
        empty = tmp_path / "empty.traj"  # the held file's header, with no block
        empty.write_text(json.dumps({**header, "count": 0}) + "\n")
        capsys.readouterr()
        rc = main(["eval", str(held), "--train", str(empty), "--baseline", baseline,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {empty}: header key 'count' must be an integer >= 1, got 0\n"
        assert not (tmp_path / "x.csv").exists()

    def test_too_few_training_pairs_for_gmm_exits_2_naming_the_train_file(self, tmp_path, capsys):
        held = _synth(tmp_path)
        demos, header = read_demonstrations(_synth(tmp_path, name="long.traj", n=1))
        short = tmp_path / "short.traj"  # 3 steps of 3 agents: 9 state-action pairs
        write_demonstrations(short, RolloutSet(demos.states[:1, :4], demos.controls[:1, :3], demos.dt),
                             goals=header_goals(header))
        capsys.readouterr()
        rc = main(["eval", str(held), "--train", str(short), "--baseline", "gmm",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {short}: need at least K*(d+1)=21 samples to fit 3 components, got 9\n")
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
        (lambda ln: "1_0," + ln.split(",", 1)[1], "block 1: row 4 has a non-numeric value"),
        (lambda ln: "nan," + ln.split(",", 1)[1], "block 1: row 4 has a non-finite value"),
        (lambda ln: "1e400," + ln.split(",", 1)[1], "block 1: row 4 has a non-finite value"),
        # numpy's reader strips \x1c-\x1f around a number; the file refuses them
        (lambda ln: "\x1c1," + ln.split(",", 1)[1], "block 1: row 4 has a non-numeric value"),
        (lambda ln: ln.rsplit(",", 1)[0] + ",1\x1f", "block 1: row 4 has a non-numeric value"),
        # a finite speed whose change over dt overflows the reconstructed control
        (lambda ln: ",".join(ln.split(",")[:2] + ["1e308"] + ln.split(",")[3:]),
         "block 1: reconstructed controls contain non-finite values"),
    ])
    def test_malformed_row_exits_2_naming_block_and_row(self, tmp_path, capsys, edit, message):
        demos = _synth(tmp_path, n=3)
        lines = demos.read_text().splitlines()
        at = 1 + json.loads(lines[0])["T"] + 4  # block 1, row 4
        lines[at] = edit(lines[at])
        demos.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", str(demos), "--baseline", "cv", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {demos}: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("row, field, value, message", [
        (4, 2, "-1.0", "block 0: row 4 has a negative speed"),
        (5, 0, "nan", "block 0: row 5 has a non-finite value"),
        (None, None, None, "missing header keys ['T', 'count', 'dt', 'goals', 'provenance']"),
    ], ids=["negative-speed", "non-finite", "header"])
    @pytest.mark.parametrize("command", ["train", "eval --train"])
    def test_demonstration_file_errors_name_the_file(self, tmp_path, capsys, command, row, field, value,
                                                      message):
        good = _synth(tmp_path)
        bad = tmp_path / "bad.traj"
        lines = good.read_text().splitlines()
        if row is None:
            lines = [json.dumps({"k": 3})]
        else:
            fields = lines[1 + row].split(",")
            fields[field] = value
            lines[1 + row] = ",".join(fields)
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = {"train": ["train", str(bad), "--out", str(out)],
                "eval --train": ["eval", str(good), "--baseline", "gmm", "--train", str(bad),
                                 "--out", str(out)]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

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

    def test_an_overlay_that_cannot_be_written_prints_no_success_line(self, tmp_path, capsys):
        demos = _synth(tmp_path)
        capsys.readouterr()
        report = tmp_path / "r.jsonl"
        assert main(["eval", str(demos), "--baseline", "cv", "--out", str(report),
                     "--overlay", str(tmp_path / "missing" / "o.svg")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and "o.svg" in err


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

    def test_plot_is_the_cdf_plot_of_the_errors_read_back(self, tmp_path):
        cv, gmm = self._reports(tmp_path)
        out = tmp_path / "cdf.svg"
        assert main(["plot", str(gmm), str(cv), "--out", str(out)]) == 0
        errors = {**metrics.read_report(cv)[1], **metrics.read_report(gmm)[1]}
        assert sorted(errors) == ["cv", "gmm"]
        assert out.read_text() == metrics.error_cdf_svg(errors)

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

    def test_tracks_too_short_for_a_scene_join_no_direction_group(self, tmp_path, capsys):
        # w1 is kept (20 >= min_track_len samples) and sorts first among the westbound
        # tracks, but only w2 covers the 30 rows of a scene
        def obj(name, x, y, angle):
            return {"id": name, "x": x, "y": y, "w": 0.5, "l": 0.5, "angle": angle,
                    "class": "pedestrian", "speed": 1.2, "acc": 0.9}

        lines = []
        for j in range(40):
            t = j * 0.1
            objs = [obj("e1", -15.0 + 1.2 * t, 0.0, 0.0), obj("w2", 15.0 - 1.2 * t, 2.0, np.pi)]
            if j < 20:
                objs.append(obj("w1", 15.0 - 1.2 * t, 1.0, np.pi))
            lines.append(json.dumps({"t": t, "objects": objs}))
        raw = tmp_path / "raw.jsonl"
        raw.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preprocess": {"scheme": ["W-E"], "group_size": 1, "scenario_len": 30}}))
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "preprocess", str(raw), str(out_dir)]) == 0
        summary = json.loads((out_dir / "catalog.json").read_text())
        assert summary["tracks_kept"] == 3
        assert summary["direction_counts"] == {"E": 1, "W": 2}
        assert [e["tracks"] for e in summary["entries"]] == [["w2", "e1"]]
        demos, _ = read_demonstrations(out_dir / summary["entries"][0]["file"])
        assert demos[0].horizon == 29

    def test_catalog_rows_are_the_tracked_states_converted_once(self, tmp_path):
        # each written row is the dataset layout of the tracked Cartesian states, bit for bit,
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
            assert rows == [",".join(map(repr, row)) for row in _to_dataset_array(joint).tolist()]

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
            write_demonstrations(ref, RolloutSet.from_states(joint[None], 0.1), goals=None,
                                 provenance={"category": entry["category"]})
            assert (out_dir / entry["file"]).read_bytes() == ref.read_bytes()

    def test_each_track_is_converted_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "_to_dataset_array",
                            lambda states: calls.append(states.shape) or _to_dataset_array(states))
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
    ("r.csv", "method,scenario,agent,ade_m,fde_m,efe_m\ncv,s,all,nan,1,1\n", "line 2: non-numeric"),
    ("r.csv", "method,scenario,agent,ade_m,fde_m,efe_m\ncv,s,all,1,-1,1\n", "finite and >= 0"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "agent": "all", "ade_m": NaN, "fde_m": 1}\n',
     "line 1: malformed"),
    ("r.jsonl", '{"note": "x"}\n{"method": "cv", "scenario": "s", "agent": "all", '
     '"ade_m": -1e400, "fde_m": 1}\n', "line 2: malformed"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "agent": "all", "ade_m": 1, "fde_m": -0.5}\n',
     "finite and >= 0"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "agent": "all", "ade_m": 1, "fde_m": 1, '
     '"efe_m": NaN}\n', "finite and >= 0"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "rmse_per_traj": [0.5, Infinity]}\n',
     "finite and >= 0"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "rmse_per_traj": [-0.5]}\n', "line 1: malformed"),
    ("r.jsonl", '{"note": "x"}\n[1, 2]\n', "line 2: malformed report line (TypeError('not a JSON"),
    # a JSON error value is a number, not a string or a boolean; a name is a string
    ("r.jsonl", '{"method": "cv", "scenario": "s", "agent": "all", "ade_m": "0.25", "fde_m": 0.7}\n'
     '{"method": "cv", "scenario": "s", "rmse_per_traj": [0.1]}\n',
     "line 1: malformed report line (ValueError(\"errors must be finite and >= 0, got a string '0.25'"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "agent": "all", "ade_m": true, "fde_m": 0.7}\n'
     '{"method": "cv", "scenario": "s", "rmse_per_traj": [0.1]}\n', "got a boolean True"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "agent": "all", "ade_m": 1, "fde_m": 1, '
     '"efe_m": [1]}\n', "(ValueError('errors must be finite and >= 0, got a list [1]"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "rmse_per_traj": ["0.1", true]}\n',
     "line 1: malformed report line (ValueError(\"errors must be finite and >= 0, got a string '0.1'"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "rmse_per_traj": "5"}\n',
     "line 1: malformed report line (TypeError('errors must be a list, got a string"),
    ("r.jsonl", '{"method": "cv", "scenario": "s", "rmse_per_traj": [10' + "0" * 400 + ']}\n',
     "got a non-finite number"),
    ("r.jsonl", '{"method": 1, "scenario": "s", "rmse_per_traj": [0.1]}\n',
     "line 1: malformed report line (TypeError(\"'method' must be a string, got a number"),
    ("r.jsonl", '{"method": "cv", "scenario": null, "agent": "all", "ade_m": 1, "fde_m": 1}\n',
     "'scenario' must be a string, got null"),
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
            assert main(["synth", str(tmp_path / f"{n}.traj"), "--n", "1", "--horizon", "1"]) == 0
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
        _synth(tmp_path, n=1)
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
