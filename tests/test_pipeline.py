import json

import numpy as np
import pytest

from crowdirl.errors import FormatError, ValidationError
from crowdirl.features import CostParams
from crowdirl.game import SolverConfig
from crowdirl.pipeline import (
    CatalogEntry,
    PreprocessConfig,
    ScenarioCatalog,
    Track,
    assemble_joint,
    combinatorial_scenarios,
    filter_tracks,
    parse_frames,
    read_demonstrations,
    synth_generate,
    tracks_from_frames,
    travel_direction,
    write_catalog,
    write_demonstrations,
)
from crowdirl.trajectory import (
    AgentState,
    JointState,
    ScenarioSpec,
    Trajectory,
    from_dataset_array,
    to_dataset_array,
)


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


class TestAssembleJoint:
    def test_shape_single_track(self):
        arr = assemble_joint([_track("a", [0.0, 0.1, 0.2], [0.0, 0.0, 0.0])], T=2)
        assert arr.shape == (2, 4)

    def test_shape_three_tracks(self):
        n = 40
        line = np.linspace(0, 4, n)
        tracks = [
            _track("a", line, np.zeros(n)),
            _track("b", np.zeros(n), line),
            _track("c", -line, np.zeros(n)),
        ]
        assert assemble_joint(tracks, T=30).shape == (30, 12)

    def test_insufficient_overlap_names_shortest(self):
        long = _track("long", np.linspace(0, 2, 20), np.zeros(20))
        short = _track("shorty", np.linspace(0, 0.4, 5), np.zeros(5))
        with pytest.raises(ValidationError, match="shorty"):
            assemble_joint([long, short], T=10)


class TestCombinatorialScenarios:
    def _groups(self, n, length=40):
        line = np.linspace(0, 4, length)
        flat = np.zeros(length)
        mk = lambda d, j: _track(f"{d}{j}", *{
            "E": (line, flat), "W": (-line, flat), "N": (flat, line), "S": (flat, -line),
        }[d])
        return {d: [mk(d, j) for j in range(n)] for d in "EWNS"}

    def test_paper_scale_catalog(self):
        catalog = combinatorial_scenarios(
            self._groups(5), ["W-E-S", "W-E-N", "S-N-W", "S-N-E"], T=30
        )
        assert catalog.size == 500
        assert catalog.count_by_category() == {
            "W-E-S": 125, "W-E-N": 125, "S-N-W": 125, "S-N-E": 125,
        }

    def test_single_track_groups(self):
        catalog = combinatorial_scenarios(self._groups(1), ["W-E-S"], T=30)
        assert catalog.size == 1

    def test_cube_law(self):
        catalog = combinatorial_scenarios(self._groups(2), ["S-N-W"], T=30)
        assert catalog.size == 8

    def test_missing_direction_group(self):
        groups = self._groups(2)
        del groups["S"]
        with pytest.raises(ValidationError, match="S"):
            combinatorial_scenarios(groups, ["W-E-S"], T=30)


class TestWriteCatalog:
    def _reference(self, path, entry, dt=0.1):
        write_demonstrations(path, [Trajectory.from_states(entry.array, dt)], goals=None,
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
            assert (tmp_path / m["file"]).read_bytes() == self._reference(tmp_path / "ref", entry)
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
        catalog = ScenarioCatalog(("E-N",), (CatalogEntry("E-N", ("a", "b"), good),
                                            CatalogEntry("E-N", ("a", "b"), broken)))
        with pytest.raises(ValidationError) as before:
            Trajectory.from_states(broken, 0.1)
        with pytest.raises(ValidationError) as after:
            write_catalog(tmp_path, catalog, 0.1)
        assert str(after.value) == str(before.value) == message
        assert [p.name for p in tmp_path.iterdir()] == ["E-N_0000.traj"]


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
            x0=JointState((AgentState(-3, 0, 1.2, 0), AgentState(3, 0.15, -1.2, 0))),
            goals=np.array([[3.0, 0.0], [-3.0, 0.15]]),
            horizon=50,
            dt=0.1,
        )
        cfg = SolverConfig(entropy_temp=1e-4)

        def mean_min_dist(w):
            th = CostParams(np.array([1.0, w, 0.2]))
            demos = synth_generate([th, th], spec, 5, seed=77, solver_cfg=cfg)
            return np.mean(
                [np.min(np.linalg.norm(t.positions(0) - t.positions(1), axis=1)) for t in demos]
            )

        assert mean_min_dist(1.5) > mean_min_dist(0.0)


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

    def test_rows_are_the_repr_of_every_value(self, tmp_path):
        # -0.0, a subnormal, 1e16 and integral values, in positions and in speeds
        states = np.array([
            [-0.0, 5e-324, 1e16, 0.0, 3.0, -2.0, 0.0, -0.0],
            [1e16, -7.0, 5e-324, 0.0, -0.0, 1.5e-310, -1e16, 2.0],
            [0.1, 2.0**-1074 * 3, 4.0, 3.0, 123456789.0, -1e-300, 0.0, 1.0],
        ])
        demos = [Trajectory(states, np.zeros((2, 2, 2)), 0.1),
                 Trajectory(states[::-1], np.ones((2, 2, 2)), 0.1)]
        path = tmp_path / "edge.traj"
        write_demonstrations(path, demos, None, {"note": "edge"})
        header = {"k": 2, "T": 3, "dt": 0.1, "goals": None, "count": 2,
                  "provenance": {"note": "edge"}}
        lines = [json.dumps(header, sort_keys=True)]
        for traj in demos:
            for row in to_dataset_array(traj.states):
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

    def test_header_only_file(self, tmp_path, intersection_spec):
        path = tmp_path / "empty.traj"
        write_demonstrations(path, [], intersection_spec.goals, {}, spec=intersection_spec)
        trajs, header = read_demonstrations(path)
        assert trajs == [] and header["count"] == 0

    @pytest.mark.parametrize("count", [0, 1, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_file_read_equals_a_per_block_read_bit_for_bit(self, tmp_path, count, seed):
        k, rows_per, dt = 2, 6, 0.1
        rows = _awkward_dataset_rows(np.random.default_rng(seed), count * rows_per, k)
        path = tmp_path / "r.traj"
        _write_rows(path, k, rows_per, count, rows, dt)
        trajs, _ = read_demonstrations(path)
        ref = _per_block_read(path)
        assert len(trajs) == len(ref) == count
        for got, want in zip(trajs, ref):
            assert got.states.tobytes() == want.states.tobytes()
            assert got.controls.tobytes() == want.controls.tobytes()
            assert got.dt == want.dt

    @pytest.mark.parametrize("row, message", [
        ("0,0,0,0,0", "block 1: row 2 has 5 values, expected 4"),
        ("0,0,0", "block 1: row 2 has 3 values, expected 4"),
        ("0,0,1_0,0", "non-numeric value in block 1: digit-group underscore in row 2"),
        ("0,0,abc,0", "non-numeric value in block 1: could not convert string to float: 'abc'"),
        ("0,0,-1,0", "dataset rows contain negative speed"),
    ])
    def test_bad_row_is_named(self, tmp_path, row, message):
        lines = ["0,0,1,0"] * 9
        lines[3 + 2] = row  # block 1 of three blocks of 3 rows, its row 2
        path = tmp_path / "bad.traj"
        header = {"k": 1, "T": 3, "dt": 0.1, "goals": None, "count": 3, "provenance": {}}
        path.write_text(json.dumps(header) + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_demonstrations(path)
        assert str(err.value) == message

    def test_every_row_of_a_wide_block_is_named_by_the_first(self, tmp_path):
        path = tmp_path / "wide.traj"
        header = {"k": 1, "T": 2, "dt": 0.1, "goals": None, "count": 2, "provenance": {}}
        path.write_text(json.dumps(header) + "\n" + "0,0,0,0\n" * 2 + "0,0,0,0,0\n" * 2)
        with pytest.raises(FormatError, match="^block 1: row 0 has 5 values, expected 4$"):
            read_demonstrations(path)


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
        out.append(Trajectory.from_states(from_dataset_array(rows), header["dt"]))
    return out
