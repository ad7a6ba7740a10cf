import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdirl import pipeline
from crowdirl.errors import FormatError, ValidationError
from crowdirl.features import CostParams
from crowdirl.game import SolverConfig
from crowdirl.pipeline import (
    CatalogEntry,
    PreprocessConfig,
    ScenarioCatalog,
    Track,
    combinatorial_scenarios,
    direction_catalog,
    filter_tracks,
    parse_frames,
    read_demonstrations,
    synth_generate,
    tracks_from_frames,
    travel_direction,
    write_catalog,
    write_demonstrations,
    _from_dataset_array,
    _to_dataset_array,
)
from crowdirl.trajectory import AgentState, RolloutSet, ScenarioSpec


def _frame_line(t, objects):
    objs = [
        {
            "id": oid, "x": x, "y": y, "w": 0.6, "l": 0.6,
            "angle": ang, "class": "pedestrian", "speed": v, "acc": 0.95,
        }
        for (oid, x, y, v, ang) in objects
    ]
    return json.dumps({"t": t, "objects": objs})


def _walk_frames(oid="p1", n=30, dt=0.1, vx=1.0, x0=0.0, y0=0.0):
    return [
        _frame_line(j * dt, [(oid, x0 + vx * j * dt, y0, abs(vx), 0.0)])
        for j in range(n)
    ]


class TestParseFrames:
    def test_empty_stream(self):
        assert parse_frames([]) == []

    def test_single_frame_schema_echo(self):
        frames = parse_frames([_frame_line(0.5, [("a", 1.0, 2.0, 1.3, 0.2)])])
        assert len(frames) == 1
        obj = frames[0].objects[0]
        assert (obj.object_id, obj.x, obj.y) == ("a", 1.0, 2.0)
        assert (obj.width, obj.length, obj.angle) == (0.6, 0.6, 0.2)
        assert (obj.agent_class, obj.speed, obj.accuracy) == ("pedestrian", 1.3, 0.95)

    def test_out_of_order_timestamps_name_both_frames(self):
        lines = [_frame_line(1.0, []), _frame_line(0.5, [])]
        with pytest.raises(FormatError, match=r"0\.5.*1\.0"):
            parse_frames(lines)

    def test_unknown_keys_listed(self):
        bad = json.dumps({"t": 0.0, "objects": [], "extra": 1})
        with pytest.raises(FormatError, match="extra"):
            parse_frames([bad])
        obj = {
            "id": "a", "x": 0, "y": 0, "w": 1, "l": 1, "angle": 0,
            "class": "pedestrian", "speed": 0, "acc": 1, "bogus": 2,
        }
        with pytest.raises(FormatError, match="bogus"):
            parse_frames([json.dumps({"t": 0.0, "objects": [obj]})])

    def test_malformed_json_carries_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_frames([_frame_line(0.0, []), "{not json"])

    def test_rejects_unknown_class_and_bad_ranges(self):
        with pytest.raises(FormatError):
            parse_frames([_frame_line(0.0, [("a", 0, 0, -1.0, 0)])])  # speed < 0

    @pytest.mark.parametrize("key, text, kind", [
        ("x", '"1.5"', "a string"),
        ("t", '"2.0"', "a string"),
        ("t", "true", "a boolean"),
        ("y", "null", "null"),
        ("x", "NaN", "a non-finite number"),
        ("x", "Infinity", "a non-finite number"),
        ("t", "-Infinity", "a non-finite number"),
        ("x", "1e400", "a non-finite number"),
        ("angle", "NaN", "a non-finite number"),
        ("speed", "NaN", "a non-finite number"),
        ("w", "[1]", "a list"),
        ("acc", '{"v": 1}', "an object"),
    ])
    def test_frame_fields_must_be_finite_numbers(self, key, text, kind):
        rec = json.loads(_frame_line(0.1, [("a", 1.0, 2.0, 1.3, 0.2)]))
        (rec if key == "t" else rec["objects"][0])[key] = "@"
        line = json.dumps(rec).replace('"@"', text)
        with pytest.raises(FormatError) as exc:
            parse_frames([_frame_line(0.0, []), line])
        assert str(exc.value) == f"line 2: key {key!r} must be a finite number, got {kind}"

    @pytest.mark.parametrize("oid, kind", [(True, "a boolean"), (1.5, "a number"),
                                           (None, "null"), (["a"], "a list")])
    def test_object_id_must_be_a_string_or_an_integer(self, oid, kind):
        rec = json.loads(_frame_line(0.0, [("a", 1.0, 2.0, 1.3, 0.2)]))
        rec["objects"][0]["id"] = oid
        with pytest.raises(FormatError) as exc:
            parse_frames([json.dumps(rec)])
        assert str(exc.value) == f"line 1: key 'id' must be a string or an integer, got {kind}"

    @pytest.mark.parametrize("first, second", [("a", "a"), (7, 7), (7, "7")],
                             ids=["strings", "integers", "integer-and-string"])
    def test_an_object_id_listed_twice_in_one_frame_is_refused(self, first, second):
        rec = json.loads(_frame_line(0.1, [("a", -4.5, 0.0, 1.0, 0.0), ("b", 3.0, 4.0, 1.0, 0.0)]))
        rec["objects"][0]["id"], rec["objects"][1]["id"] = first, second
        with pytest.raises(FormatError) as exc:
            parse_frames([_frame_line(0.0, []), json.dumps(rec)])
        assert str(exc.value) == f"line 2: object id {str(second)!r} is listed twice in one frame"

    def test_integer_id_and_integral_fields_are_accepted(self):
        rec = json.loads(_frame_line(0.0, [("a", 1.0, 2.0, 1.3, 0.2)]))
        rec["t"] = 0
        rec["objects"][0].update(id=7, x=3)
        [frame] = parse_frames([json.dumps(rec)])
        assert (frame.timestamp, frame.objects[0].object_id, frame.objects[0].x) == (0.0, "7", 3.0)


class TestTracks:
    def test_two_frames_one_track(self):
        tracks = tracks_from_frames(parse_frames(_walk_frames(n=2)))
        assert set(tracks) == {"p1"}
        assert len(tracks["p1"]) == 2

    def test_single_appearance_single_point(self):
        tracks = tracks_from_frames(parse_frames(_walk_frames(n=1)))
        assert len(tracks["p1"]) == 1

    def test_gap_splits_track(self):
        lines = [
            _frame_line(0.0, [("p", 0.0, 0.0, 1.0, 0.0)]),
            _frame_line(0.1, [("p", 0.1, 0.0, 1.0, 0.0)]),
            _frame_line(1.1, [("p", 1.1, 0.0, 1.0, 0.0)]),  # 1.0 s gap > 5 * 0.1
            _frame_line(1.2, [("p", 1.2, 0.0, 1.0, 0.0)]),
        ]
        tracks = tracks_from_frames(parse_frames(lines))
        assert set(tracks) == {"p#0", "p#1"}

    def test_resampling_onto_uniform_grid(self):
        lines = [
            _frame_line(0.0, [("p", 0.0, 0.0, 1.0, 0.0)]),
            _frame_line(0.25, [("p", 0.25, 0.0, 1.0, 0.0)]),
        ]
        track = tracks_from_frames(parse_frames(lines))["p"]
        assert len(track) == 3  # 0.0, 0.1, 0.2
        assert np.allclose(track.states[:, 0], [0.0, 0.1, 0.2], atol=1e-12)

    def test_velocity_from_speed_and_angle(self):
        lines = [_frame_line(0.0, [("p", 0.0, 0.0, 2.0, np.pi / 2)])]
        track = tracks_from_frames(parse_frames(lines))["p"]
        assert np.allclose(track.states[0, 2:], [0.0, 2.0], atol=1e-12)


def _track(name, xs, ys, v=1.2, dt=0.1):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    vx = np.gradient(xs, dt) if len(xs) > 1 else np.zeros_like(xs)
    vy = np.gradient(ys, dt) if len(ys) > 1 else np.zeros_like(ys)
    return Track(track_id=name, t0=0.0, dt=dt, states=np.stack([xs, ys, vx, vy], axis=1))


class TestPreprocessConfig:
    def test_catalog_settings_are_fields_checked_on_construction(self):
        cfg = PreprocessConfig(scheme=["W-E-S"], group_size=2, scenario_len=4)
        assert (cfg.scheme, cfg.group_size, cfg.scenario_len) == (("W-E-S",), 2, 4)
        with pytest.raises(ValidationError, match='entry "W-X" must be directions'):
            PreprocessConfig(scheme=["W-X"])
        with pytest.raises(ValidationError, match='entry "W-E-S" repeats'):
            PreprocessConfig(scheme=["W-E-S", "W-E-S"])
        for name, bad, least in (("min_track_len", -5, 1), ("group_size", 0, 1), ("scenario_len", 1, 2)):
            with pytest.raises(ValidationError, match=f"{name} must be an integer >= {least}, got {bad}"):
                PreprocessConfig(**{name: bad})

    @pytest.mark.parametrize("value", [2.5, True, 0])
    @pytest.mark.parametrize("name, least", [("min_track_len", 1), ("group_size", 1), ("scenario_len", 2)])
    def test_catalog_counts_must_be_integers(self, name, least, value):
        # 2.5 and True were accepted: 2.5 failed later, True counted as 1
        with pytest.raises(ValidationError) as err:
            PreprocessConfig(**{name: value})
        assert str(err.value) == f"{name} must be an integer >= {least}, got {value!r}"

    @pytest.mark.parametrize("name, value, rule", [
        ("resample_dt", math.nan, "positive and finite"),
        ("resample_dt", math.inf, "positive and finite"),
        ("resample_dt", 0.0, "positive and finite"),
        ("standstill_speed", math.nan, "finite and >= 0"),
        ("standstill_speed", math.inf, "finite and >= 0"),
        ("standstill_speed", -0.1, "finite and >= 0"),
    ])
    def test_grid_and_standstill_settings_must_be_finite(self, name, value, rule):
        with pytest.raises(ValidationError) as err:
            PreprocessConfig(**{name: value})
        assert str(err.value) == f"{name} must be {rule}, got {value!r}"


class TestFilterTracks:
    def test_standstill_dropped(self):
        cfg = PreprocessConfig()
        still = _track("still", np.full(20, 1.0), np.zeros(20))
        assert filter_tracks({"still": still}, cfg) == {}

    def test_out_of_range_points_trimmed(self):
        cfg = PreprocessConfig()
        xs = np.linspace(10.0, 25.0, 31)  # crosses x = +20
        walk = _track("w", xs, np.zeros_like(xs))
        out = filter_tracks({"w": walk}, cfg)
        assert np.all(out["w"].states[:, 0] <= 20.0)
        assert len(out["w"]) == int(np.sum(xs <= 20.0))

    def test_short_survivor_dropped(self):
        cfg = PreprocessConfig(min_track_len=10)
        xs = np.linspace(0, 0.5, 5)
        assert filter_tracks({"s": _track("s", xs, np.zeros_like(xs))}, cfg) == {}

    def test_idempotent(self):
        cfg = PreprocessConfig()
        xs = np.linspace(-25, 25, 101)
        tracks = {"a": _track("a", xs, np.zeros_like(xs))}
        once = filter_tracks(tracks, cfg)
        twice = filter_tracks(once, cfg)
        assert set(once) == set(twice)
        for name in once:
            assert np.array_equal(once[name].states, twice[name].states)
            assert once[name].t0 == twice[name].t0


def test_travel_direction_labels():
    n = 12
    line = np.linspace(0, 3, n)
    flat = np.zeros(n)
    assert travel_direction(_track("e", line, flat)) == "E"
    assert travel_direction(_track("w", -line, flat)) == "W"
    assert travel_direction(_track("n", flat, line)) == "N"
    assert travel_direction(_track("s", flat, -line)) == "S"


def _groups(n, length=40):
    """n tracks per direction, named like 'E0', each walking `length` rows that way."""
    line = np.linspace(0, 4, length)
    flat = np.zeros(length)
    mk = lambda d, j: _track(f"{d}{j}", *{
        "E": (line, flat), "W": (-line, flat), "N": (flat, line), "S": (flat, -line),
    }[d])
    return {d: [mk(d, j) for j in range(n)] for d in "EWNS"}


class TestCombinatorialScenarios:
    def test_paper_scale_catalog(self):
        catalog = combinatorial_scenarios(
            _groups(5), ["W-E-S", "W-E-N", "S-N-W", "S-N-E"], T=30
        )
        assert catalog.size == 500
        assert catalog.count_by_category() == {
            "W-E-S": 125, "W-E-N": 125, "S-N-W": 125, "S-N-E": 125,
        }

    def test_single_track_groups(self):
        groups = _groups(1)
        catalog = combinatorial_scenarios(groups, ["W-E-S"], T=30)
        assert catalog.size == 1 and catalog.T == 30
        assert all(a is b for a, b in zip(catalog.entries[0].tracks,
                                          (groups["W"][0], groups["E"][0], groups["S"][0])))

    def test_cube_law(self):
        catalog = combinatorial_scenarios(_groups(2), ["S-N-W"], T=30)
        assert catalog.size == 8

    def test_missing_direction_group(self):
        groups = _groups(2)
        del groups["S"]
        with pytest.raises(ValidationError, match="S"):
            combinatorial_scenarios(groups, ["W-E-S"], T=30)

    def test_a_track_shorter_than_T_is_named(self):
        long = _track("long", np.linspace(0, 2, 20), np.zeros(20))
        short = _track("shorty", np.linspace(0, 0.4, 5), np.zeros(5))
        shorter = _track("shorter", -np.linspace(0, 0.3, 4), np.zeros(4))
        with pytest.raises(ValidationError, match="^track 'shorty' covers only 5 < 10 steps$"):
            combinatorial_scenarios({"E": [long, short], "W": [shorter, long]}, ["E-W"], T=10)


def _direction_tracks():
    """E: e0, e2, e3 of 30 rows and e1 of 10; W: w0, w1 of 30; S: s0 of 30."""
    line, flat = np.linspace(0, 3, 30), np.zeros(30)
    walks = {"e3": (line, flat), "e1": (line[:10], flat[:10]), "e2": (line, flat),
             "e0": (line, flat), "w1": (-line, flat), "w0": (-line, flat), "s0": (flat, -line)}
    return {name: _track(name, *xy) for name, xy in walks.items()}


class TestDirectionCatalog:
    cfg = PreprocessConfig(scheme=("W-E-S", "E-W"), group_size=2, scenario_len=20)

    def test_direction_counts_include_short_tracks(self):
        counts, _ = direction_catalog(_direction_tracks(), self.cfg)
        assert counts == {"E": 4, "S": 1, "W": 2}

    def test_groups_take_the_first_full_length_tracks_in_name_order(self):
        _, catalog = direction_catalog(_direction_tracks(), self.cfg)
        assert catalog.T == 20
        assert [[t.track_id for t in e.tracks] for e in catalog.entries] == [
            ["e0", "w0"], ["e0", "w1"], ["e2", "w0"], ["e2", "w1"]]

    def test_a_category_without_a_full_group_is_left_out(self):
        _, catalog = direction_catalog(_direction_tracks(), self.cfg)
        assert catalog.categories == ("E-W",)
        assert catalog.count_by_category() == {"E-W": 4}
        _, empty = direction_catalog(_direction_tracks(), PreprocessConfig(scheme=("W-E-S",)))
        assert (empty.categories, empty.size) == ((), 0)


class TestWriteCatalog:
    def _reference(self, path, entry, T, dt=0.1):
        states = np.concatenate([t.states[:T] for t in entry.tracks], axis=1)
        write_demonstrations(path, RolloutSet.from_states(states[None], dt), goals=None,
                             provenance={"category": entry.category})
        return path.read_bytes()

    def test_tracks_sharing_an_id_keep_their_own_rows(self, tmp_path):
        line, flat = np.linspace(0, 4, 40), np.zeros(40)
        east, west = _track("p", line, flat), _track("p", -line, flat + 1.0)
        catalog = combinatorial_scenarios({"E": [east], "W": [west]}, ["E-W", "W-E"], T=30)
        meta = write_catalog(tmp_path, catalog, 0.1)
        assert meta == [{"category": "E-W", "tracks": ["p", "p"], "file": "E-W_0000.traj"},
                        {"category": "W-E", "tracks": ["p", "p"], "file": "W-E_0001.traj"}]
        for entry, m in zip(catalog.entries, meta):
            reference = self._reference(tmp_path / "ref", entry, 30)
            assert (tmp_path / m["file"]).read_bytes() == reference
        rows = [r.split(",") for r in (tmp_path / "E-W_0000.traj").read_text().splitlines()[1:]]
        assert [r[:4] for r in rows] != [r[4:] for r in rows]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad, message", [
        ({(5, 5): np.nan}, "states contain non-finite values"),
        ({(5, 2): 1e308, (6, 2): -1e308}, "controls contain non-finite values"),
        # a block whose controls overflow, then one with a NaN state: the entry's states
        # are checked before its controls, so the NaN is what it reports
        ({(5, 2): 1e308, (6, 2): -1e308, (9, 4): np.inf}, "states contain non-finite values"),
    ])
    def test_non_finite_block_raises_what_the_entry_trajectory_raises(self, tmp_path, bad,
                                                                      message):
        line, flat = np.linspace(0, 4, 30), np.zeros(30)
        good = np.concatenate([_track("a", line, flat).states, _track("b", flat, line).states],
                              axis=1)
        broken = good.copy()
        for index, value in bad.items():
            broken[index] = value
        entries = [CatalogEntry("E-N", (Track("a", 0.0, 0.1, arr[:, :4]),
                                        Track("b", 0.0, 0.1, arr[:, 4:])))
                   for arr in (good, broken)]
        catalog = ScenarioCatalog(("E-N",), tuple(entries), T=30)
        with pytest.raises(ValidationError) as before:
            RolloutSet.from_states(broken[None], 0.1)
        with pytest.raises(ValidationError) as after:
            write_catalog(tmp_path, catalog, 0.1)
        assert str(after.value) == str(before.value) == message
        assert [p.name for p in tmp_path.iterdir()] == ["E-N_0000.traj"]

    def test_each_distinct_track_is_formatted_once(self, tmp_path, monkeypatch):
        calls = []
        rows = pipeline._dataset_rows
        monkeypatch.setattr(pipeline, "_dataset_rows",
                            lambda states: calls.append(states) or rows(states))
        catalog = combinatorial_scenarios(_groups(2), ["W-E-S", "S-N-W", "E-W"], T=30)
        meta = write_catalog(tmp_path, catalog, 0.1)
        assert (catalog.size, len(meta), len(calls)) == (20, 20, 8)
        for entry, m in zip(catalog.entries, meta):
            reference = self._reference(tmp_path / "ref", entry, 30)
            assert (tmp_path / m["file"]).read_bytes() == reference


class TestSynthGenerate:
    def test_seed_reproducibility(self, intersection_spec, theta_star):
        cfg = SolverConfig(entropy_temp=1e-3)
        a = synth_generate(theta_star, intersection_spec, 3, seed=5, solver_cfg=cfg)
        b = synth_generate(theta_star, intersection_spec, 3, seed=5, solver_cfg=cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x.states, y.states)

    def test_vanishing_temperature_collapses_demos(self, intersection_spec, theta_star):
        cfg = SolverConfig(entropy_temp=1e-300, eps_psd=1e-30)
        demos = synth_generate(theta_star, intersection_spec, 3, seed=5, solver_cfg=cfg)
        for d in demos[1:]:
            assert np.max(np.abs(d.states - demos[0].states)) < 1e-9

    def test_proximity_weight_increases_separation(self):
        spec = ScenarioSpec(
            k=2,
            x0=(AgentState(-3, 0, 1.2, 0), AgentState(3, 0.15, -1.2, 0)),
            goals=np.array([[3.0, 0.0], [-3.0, 0.15]]),
            horizon=50,
            dt=0.1,
        )
        cfg = SolverConfig(entropy_temp=1e-4)

        def mean_min_dist(w):
            th = CostParams(np.array([1.0, w, 0.2]))
            demos = synth_generate([th, th], spec, 5, seed=77, solver_cfg=cfg)
            return np.mean(
                [np.min(np.linalg.norm(t.states[0, :, 0:2] - t.states[0, :, 4:6], axis=1)) for t in demos]
            )

        assert mean_min_dist(1.5) > mean_min_dist(0.0)

    @pytest.mark.parametrize("n_demos", [2.5, True, 0])
    def test_demo_count_must_be_an_integer_of_at_least_one(self, intersection_spec, theta_star, n_demos):
        # 2.5 failed inside numpy, True with "an integer is required"
        with pytest.raises(ValidationError) as err:
            synth_generate(theta_star, intersection_spec, n_demos, seed=0)
        assert str(err.value) == f"n_demos must be an integer >= 1, got {n_demos!r}"


# fields float() and numpy's C reader may read apart: padding, signs, specials, underscores,
# hex, non-ASCII digits, separator characters and a carriage return
AWKWARD_FIELDS = (" 1.0", "+2", "-0", "1e400", "nan", "Infinity", "1_0", "", "0x10", "٣.٥", "１",
                  "\x1c1", "1\x1f", "1\r")
# the ones numpy's C reader reads, with float()'s bits; "1\r" only at the end of a row
READ_FIELDS = (" 1.0", "+2", "-0", "1e400", "nan", "Infinity", "1\r")


def _east_demos():
    """Three 2-agent demonstrations of 4 rows heading east: their dataset layout converts exactly."""
    states = np.random.default_rng(5).normal(size=(3, 4, 2, 4))
    states[..., 2] = np.abs(states[..., 2])
    states[..., 3] = 0.0
    return RolloutSet.from_states(states.reshape(3, 4, 8), 0.1)


_EAST_DEMOS = _east_demos()


class TestInterchange:
    def test_roundtrip_lossless(self, tmp_path, intersection_spec, theta_star):
        demos = synth_generate(
            theta_star, intersection_spec, 4, seed=1, solver_cfg=SolverConfig(entropy_temp=1e-3)
        )
        path = tmp_path / "demos.traj"
        write_demonstrations(path, demos, intersection_spec.goals, {"note": "test"})
        back, header = read_demonstrations(path)
        assert header["count"] == 4 and header["k"] == 3
        assert np.allclose(header["goals"], intersection_spec.goals)
        for orig, rt in zip(demos, back):
            assert np.max(np.abs(orig.states - rt.states)) < 1e-9
            assert np.max(np.abs(orig.controls - rt.controls)) < 1e-6
        # writing the same trajectories again is byte-identical
        path2 = tmp_path / "demos2.traj"
        write_demonstrations(path2, demos, intersection_spec.goals, {"note": "test"})
        assert path.read_bytes() == path2.read_bytes()

    def test_a_set_writes_reads_and_writes_again_with_identical_bytes(self, tmp_path):
        rows = _awkward_dataset_rows(np.random.default_rng(3), 4 * 5, 2)
        rows[:, 3::4] = 0.0  # heading east: the dataset layout converts both ways exactly
        _write_rows(tmp_path / "a.traj", 2, 5, 4, rows, 0.1)
        demos, header = read_demonstrations(tmp_path / "a.traj")
        assert isinstance(demos, RolloutSet) and len(demos) == 4
        write_demonstrations(tmp_path / "b.traj", demos, None, header["provenance"])
        again, _ = read_demonstrations(tmp_path / "b.traj")
        write_demonstrations(tmp_path / "c.traj", again, None, header["provenance"])
        assert again.states.tobytes() == demos.states.tobytes()
        assert again.controls.tobytes() == demos.controls.tobytes()
        assert (tmp_path / "b.traj").read_bytes() == (tmp_path / "c.traj").read_bytes()

    def test_a_set_and_its_list_write_the_same_bytes(self, tmp_path, intersection_spec, theta_star):
        demos = synth_generate(theta_star, intersection_spec, 3, seed=2, solver_cfg=SolverConfig())
        assert isinstance(demos, RolloutSet)
        write_demonstrations(tmp_path / "set.traj", demos, intersection_spec.goals, {"n": 3})
        write_demonstrations(tmp_path / "list.traj", RolloutSet.stack(list(demos)), intersection_spec.goals,
                             {"n": 3})
        assert (tmp_path / "set.traj").read_bytes() == (tmp_path / "list.traj").read_bytes()

    @pytest.mark.parametrize("goals", [
        [[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]],  # non-finite
        [[0.0, 1.0], [2.0, 3.0]],  # 2 goals for k = 3
        np.zeros((3, 3)),  # triples, not pairs
        [[0.0, 1.0], [2.0], [3.0, 4.0]],  # ragged
        [[0.0, 1.0], [2.0, "a"], [3.0, 4.0]],  # non-numeric
    ])
    def test_goals_the_reader_would_refuse_are_not_written(self, tmp_path, intersection_spec,
                                                          theta_star, goals):
        demos = synth_generate(theta_star, intersection_spec, 1, seed=2, solver_cfg=SolverConfig())
        path = tmp_path / "g.traj"
        with pytest.raises(ValidationError) as err:
            write_demonstrations(path, demos, goals)
        assert str(err.value) == "header key 'goals' must be null or 3 pairs of finite numbers"
        assert not path.exists()

    @pytest.mark.parametrize("provenance, message", [
        ([1, 2], "header key 'provenance' must be an object, got [1, 2]"),
        ({"u_max": -1.0}, "provenance key 'u_max' must be a positive number, got -1.0"),
        ({"sigma": math.nan}, "provenance key 'sigma' must be a positive finite number, got nan"),
        ({"tags": {1, 2}}, "header key 'provenance' has no JSON form: "
                           "Object of type set is not JSON serializable"),
    ])
    def test_a_provenance_the_reader_would_refuse_is_not_written(self, tmp_path, provenance, message):
        path = tmp_path / "p.traj"
        with pytest.raises(ValidationError) as err:
            write_demonstrations(path, _EAST_DEMOS, None, provenance)
        assert str(err.value) == message
        assert not path.exists()

    @settings(max_examples=80, deadline=None)
    @given(goals=st.one_of(
        st.none(),
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=2, max_size=2),
        st.just([[0.0, 1.0], [math.nan, 2.0]]),  # non-finite
        st.sampled_from([[[0.0, 1.0]], np.zeros((2, 3)), [[0.0, 1.0], [2.0]], "xy"]),  # shape, ragged
    ), provenance=st.one_of(
        st.none(),
        st.just({}),
        st.fixed_dictionaries({}, optional={
            key: st.sampled_from([2.5, 0.0, -1.0, math.nan, math.inf]) for key in ("u_max", "sigma")}),
        st.just([1, 2]),
        st.just("note"),
        st.just({"tags": {1, 2}}),
    ))
    def test_anything_written_reads_back(self, goals, provenance):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.traj"
            try:
                write_demonstrations(path, _EAST_DEMOS, goals, provenance)
            except ValidationError:
                assert not path.exists()
                return
            demos, header = read_demonstrations(path)
        assert demos.states.tobytes() == _EAST_DEMOS.states.tobytes()
        assert header == {"k": 2, "T": 4, "dt": 0.1, "count": 3,
                          "goals": None if goals is None else np.asarray(goals, dtype=float).tolist(),
                          "provenance": {} if provenance is None else provenance}

    def test_rows_are_the_repr_of_every_value(self, tmp_path):
        # -0.0, a subnormal, 1e16 and integral values, in positions and in speeds
        states = np.array([
            [-0.0, 5e-324, 1e16, 0.0, 3.0, -2.0, 0.0, -0.0],
            [1e16, -7.0, 5e-324, 0.0, -0.0, 1.5e-310, -1e16, 2.0],
            [0.1, 2.0**-1074 * 3, 4.0, 3.0, 123456789.0, -1e-300, 0.0, 1.0],
        ])
        demos = RolloutSet(np.stack([states, states[::-1]]),
                           np.stack([np.zeros((2, 2, 2)), np.ones((2, 2, 2))]), 0.1)
        path = tmp_path / "edge.traj"
        write_demonstrations(path, demos, None, {"note": "edge"})
        header = {"k": 2, "T": 3, "dt": 0.1, "goals": None, "count": 2,
                  "provenance": {"note": "edge"}}
        lines = [json.dumps(header, sort_keys=True)]
        for block in demos.states:
            for row in _to_dataset_array(block):
                lines.append(",".join(repr(float(v)) for v in row))
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
        assert {"-0.0", "5e-324", "1e+16", "3.0", "-2.0"} <= set(lines[1].split(","))

    def test_unknown_header_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.traj"
        header = {"k": 1, "T": 2, "dt": 0.1, "goals": None, "count": 0,
                  "provenance": {}, "surprise": 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(FormatError, match="surprise"):
            read_demonstrations(path)

    @pytest.mark.parametrize("key, value", [
        ("k", None), ("k", "abc"), ("k", 1.7), ("k", True), ("k", 0),
        ("T", [2]), ("T", "3"), ("T", 1), ("T", 2.0),
        ("count", None), ("count", -1), ("count", 1.5),
        ("dt", "x"), ("dt", None), ("dt", float("nan")), ("dt", float("inf")), ("dt", 0),
        pytest.param("dt", 10**400, id="dt-beyond-float-range"),
        ("goals", "xy"), ("goals", [[0.0, 0.0], [1.0, 1.0]]), ("goals", [[0.0]]),
        ("goals", [[0.0, "a"]]), ("goals", [[0.0, float("inf")]]), ("goals", [[0.0, True]]),
        ("goals", {"0": [0.0, 0.0]}),
    ])
    def test_mistyped_header_value_rejected(self, tmp_path, key, value):
        header = {"k": 1, "T": 2, "dt": 0.1, "goals": [[1.0, 2.0]], "count": 1, "provenance": {}}
        path = tmp_path / "ok.traj"
        path.write_text(json.dumps(header) + "\n" + "0,0,0,0\n" * 2)
        assert len(read_demonstrations(path)[0]) == 1
        header[key] = value
        path = tmp_path / "bad.traj"
        path.write_text(json.dumps(header) + "\n" + "0,0,0,0\n" * 2)
        with pytest.raises(FormatError, match=f"header key '{key}'"):
            read_demonstrations(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "short.traj"
        header = {"k": 1, "T": 3, "dt": 0.1, "goals": None, "count": 1, "provenance": {}}
        path.write_text(json.dumps(header) + "\n" + "0,0,0,0\n")
        with pytest.raises(FormatError, match="expected 3"):
            read_demonstrations(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.traj"
        path.write_text(_header_line(3, 31, 0) + "\n")
        with pytest.raises(FormatError) as err:
            read_demonstrations(path)
        assert str(err.value) == f"{path}: header key 'count' must be an integer >= 1, got 0"

    @pytest.mark.parametrize("count", [0, 1, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_file_read_equals_a_per_block_read_bit_for_bit(self, tmp_path, count, seed):
        k, rows_per, dt = 2, 6, 0.1
        rows = _awkward_dataset_rows(np.random.default_rng(seed), count * rows_per, k)
        path = tmp_path / "r.traj"
        _write_rows(path, k, rows_per, count, rows, dt)
        ref = _per_block_read(path)
        if count == 0:
            with pytest.raises(FormatError) as err:
                read_demonstrations(path)
            assert str(err.value) == f"{path}: header key 'count' must be an integer >= 1, got 0"
            assert ref == []
            return
        demos, _ = read_demonstrations(path)
        assert isinstance(demos, RolloutSet) and len(demos) == len(ref) == count
        assert demos.states.tobytes() == RolloutSet.stack(ref).states.tobytes()
        assert demos.controls.tobytes() == RolloutSet.stack(ref).controls.tobytes()
        assert demos.dt == ref[0].dt

    @pytest.mark.parametrize("row, message", [
        ("0,0,0,0,0", "block 1: row 2 has 5 values, expected 4"),
        ("0,0,0", "block 1: row 2 has 3 values, expected 4"),
        ("0,0,1_0,0", "block 1: row 2 has a non-numeric value"),
        ("0,0,abc,0", "block 1: row 2 has a non-numeric value"),
        ("0,0,-1,0", "block 1: row 2 has a negative speed"),
        ("0,0,nan,0", "block 1: row 2 has a non-finite value"),
        ("inf,0,1,0", "block 1: row 2 has a non-finite value"),
        ("0,1e400,1,0", "block 1: row 2 has a non-finite value"),
        ("0,0,1,-Infinity", "block 1: row 2 has a non-finite value"),
        # finite, but its velocity change over dt overflows: refused without a RuntimeWarning
        ("0,0,1e308,0", "block 1: reconstructed controls contain non-finite values"),
    ])
    def test_bad_row_is_named(self, tmp_path, row, message):
        lines = ["0,0,1,0"] * 9
        lines[3 + 2] = row  # block 1 of three blocks of 3 rows, its row 2
        path = tmp_path / "bad.traj"
        header = {"k": 1, "T": 3, "dt": 0.1, "goals": None, "count": 3, "provenance": {}}
        path.write_text(json.dumps(header) + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_demonstrations(path)
        assert str(err.value) == f"{path}: {message}"

    def test_every_row_of_a_wide_block_is_named_by_the_first(self, tmp_path):
        path = tmp_path / "wide.traj"
        header = {"k": 1, "T": 2, "dt": 0.1, "goals": None, "count": 2, "provenance": {}}
        path.write_text(json.dumps(header) + "\n" + "0,0,0,0\n" * 2 + "0,0,0,0,0\n" * 2)
        with pytest.raises(FormatError) as err:
            read_demonstrations(path)
        assert str(err.value) == f"{path}: block 1: row 0 has 5 values, expected 4"

    @pytest.mark.parametrize("row, width", [("0,0,1", 3), ("0,0,1,0,0", 5)])
    def test_a_body_all_of_one_wrong_width_is_named_by_its_first_row(self, tmp_path, row, width):
        path = tmp_path / "wide.traj"
        path.write_text("\n".join([_header_line(1, 2, 2)] + [row] * 4) + "\n")
        with pytest.raises(FormatError) as err:
            read_demonstrations(path)
        assert str(err.value) == f"{path}: block 0: row 0 has {width} values, expected 4"

    @pytest.mark.parametrize("field", AWKWARD_FIELDS)
    @pytest.mark.parametrize("column", [0, 2, 5, 7])  # first, a speed, mid-row, row end
    def test_an_awkward_field_reads_with_float_bits_or_is_refused_naming_its_row(self, field, column):
        rows = [",".join(map(repr, row)) for row in
                _awkward_dataset_rows(np.random.default_rng(column), 6, 2).tolist()]
        fields = rows[4].split(",")
        fields[column] = field
        rows[4] = ",".join(fields)
        lines = [_header_line(2, 3, 2)] + rows
        assert _read(lines) == _promise(lines)

    @pytest.mark.parametrize("seed", range(40))
    def test_bodies_of_mixed_fields_read_with_float_bits_or_name_the_first_bad_row(self, seed):
        rng = np.random.default_rng(seed)
        values = _awkward_dataset_rows(rng, 6, 2).tolist()
        rows = [",".join(AWKWARD_FIELDS[rng.integers(len(AWKWARD_FIELDS))] if rng.random() < 0.03
                         else repr(v) for v in row) for row in values]
        lines = [_header_line(2, 3, 2)] + rows
        assert _read(lines) == _promise(lines)

    @pytest.mark.parametrize("count", [1, 40])
    def test_the_c_reader_reads_repr_floats_with_float_bits(self, count):
        rows = _awkward_dataset_rows(np.random.default_rng(count), count * 3, 2)
        body = [",".join(map(repr, row)) for row in rows.tolist()]
        by_float = np.array([[float(f) for f in ln.split(",")] for ln in body])
        assert pipeline._read_body(body, 3, 8).tobytes() == by_float.tobytes() == rows.tobytes()

    def test_a_crlf_file_reads_as_its_lf_text(self, tmp_path):
        rows = _awkward_dataset_rows(np.random.default_rng(7), 2 * 3, 1)
        path = tmp_path / "plain.traj"
        _write_rows(path, 1, 3, 2, rows, 0.1)
        (tmp_path / "crlf.traj").write_bytes(path.read_text().replace("\n", "\r\n").encode())
        want, _ = read_demonstrations(path)
        got, _ = read_demonstrations(tmp_path / "crlf.traj")
        assert got.states.tobytes() == want.states.tobytes()
        assert got.controls.tobytes() == want.controls.tobytes()

    def test_a_file_of_non_ascii_digits_is_refused_naming_its_first_row(self, tmp_path):
        rows = _awkward_dataset_rows(np.random.default_rng(7), 2 * 3, 1)
        path = tmp_path / "plain.traj"
        _write_rows(path, 1, 3, 2, rows, 0.1)
        header, *body = path.read_text().splitlines()
        arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
        path.write_text("\n".join([header] + [ln.translate(arabic) for ln in body]))
        with pytest.raises(FormatError) as err:
            read_demonstrations(path)
        assert str(err.value) == f"{path}: block 0: row 0 has a non-numeric value"

    @pytest.mark.parametrize("field", ["\x1c0", "0\x1d", "\x1e0\x1f"])
    def test_a_value_padded_with_a_separator_character_is_refused(self, tmp_path, field):
        # numpy's reader would strip these; the file refuses them
        path = tmp_path / "pad.traj"
        lines = [_header_line(1, 2, 1), "0,0,0,0", f"0,{field},0,0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_demonstrations(path)
        assert str(err.value) == f"{path}: block 0: row 1 has a non-numeric value"


class TestDatasetLayout:
    def test_axis_aligned(self):
        assert np.allclose(_to_dataset_array(AgentState(1, 2, 3, 0)), [1, 2, 3, 0])

    def test_quarter_turn(self):
        assert np.allclose(_to_dataset_array(AgentState(0, 0, 0, 1)), [0, 0, 1, math.pi / 2])

    def test_rest_convention(self):
        assert np.allclose(_to_dataset_array(AgentState(5, 5, 0, 0)), [5, 5, 0, 0])

    def test_inverse_cases(self):
        agent = AgentState(*_from_dataset_array(np.array([1.0, 2, 3, 0])))
        assert (agent.px, agent.py, agent.vx, agent.vy) == (1, 2, 3, 0)
        agent = AgentState(*_from_dataset_array(np.array([0, 0, 1, math.pi / 2])))
        assert abs(agent.vx) < 1e-12 and abs(agent.vy - 1) < 1e-12
        agent = AgentState(*_from_dataset_array(np.array([0, 0, 0, 2.7])))
        assert (agent.vx, agent.vy) == (0.0, 0.0)

    def test_roundtrip_moving_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            state = rng.standard_normal(8)
            state[[2, 3, 6, 7]] += np.sign(state[[2, 3, 6, 7]]) * 0.1  # keep speeds > 0
            row = _to_dataset_array(state)
            back = _from_dataset_array(row)
            assert np.allclose(back, state, atol=1e-12)
            # row-side round trip too
            assert np.allclose(_to_dataset_array(back), row, atol=1e-12)

    def test_heading_range_is_half_open(self):
        # velocity pointing exactly along -x: atan2 gives pi, never -pi
        assert _to_dataset_array(np.array([0.0, 0.0, -1.0, 0.0]))[3] == math.pi
        assert _to_dataset_array(np.array([0.0, 0.0, -1.0, -0.0]))[3] == math.pi


def _header_line(k, rows_per, count):
    return json.dumps({"k": k, "T": rows_per, "dt": 0.1, "goals": None, "count": count,
                       "provenance": {}})


def _read(lines):
    """The reader's states and controls bytes for lines, or its FormatError's message."""
    try:
        demos, _ = pipeline._parse_demonstrations(lines)
    except FormatError as exc:
        return str(exc)
    return demos.states.tobytes(), demos.controls.tobytes()


def _promise(lines):
    """What the format promises for a body of reprs and AWKWARD_FIELDS.

    A body whose every field numpy's C reader reads (a repr or one of
    READ_FIELDS) reads as the same body with each field written as
    repr(float(field)), non-finite values refused as there; any other body is
    refused, naming its first bad row.
    """
    header, *body = lines
    rows_per = json.loads(header)["T"]
    for i, ln in enumerate(body):
        fields = ln.split(",")
        if any(f in AWKWARD_FIELDS and f not in READ_FIELDS or f == "1\r" and j < len(fields) - 1
               for j, f in enumerate(fields)):
            return f"block {i // rows_per}: row {i % rows_per} has a non-numeric value"
    return _read([header] + [",".join(repr(float(f)) for f in ln.split(",")) for ln in body])


def _awkward_dataset_rows(rng, n, k):
    """(n, 4k) dataset rows with -0.0 coordinates, zero speeds and headings at +-pi."""
    rows = rng.normal(scale=3.0, size=(n, k, 4))
    rows[..., 2] = np.abs(rows[..., 2])
    rows[..., 3] = rng.uniform(-np.pi, np.pi, size=(n, k))
    pick = rng.random((n, k))
    rows[..., 0][pick < 0.2] = -0.0
    rows[..., 1][pick > 0.8] = -0.0
    rows[..., 2][pick < 0.3] = 0.0
    rows[..., 2][pick > 0.9] = -0.0
    rows[..., 3][(pick > 0.5) & (pick < 0.6)] = np.pi
    rows[..., 3][(pick > 0.6) & (pick < 0.7)] = -np.pi
    return rows.reshape(n, 4 * k)


def _write_rows(path, k, rows_per, count, rows, dt):
    header = {"k": k, "T": rows_per, "dt": dt, "goals": None, "count": count, "provenance": {}}
    lines = [json.dumps(header)] + [",".join(map(repr, row)) for row in rows.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _per_block_read(path):
    """Reference reader: parse, convert and validate one block at a time."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    rows_per = header["T"]
    out = []
    for b in range(header["count"]):
        block = lines[1 + b * rows_per : 1 + (b + 1) * rows_per]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in block])
        out.append(RolloutSet.from_states(_from_dataset_array(rows)[None], header["dt"]))
    return out
