"""Tests for the command line interface, job specs, and exporters."""

import dataclasses
import errno
import json
import math
import os
import warnings

import numpy as np
import pytest

from flexoct import cli
from flexoct.builders import build_type1, build_type2
from flexoct.cli import (IoError, JobSpec, ParseError, ValidationError,
                         export_frames, load_spec, read_obj, write_obj)
from flexoct.flexion import DriveSpec, FlexionPath, flex_path
from flexoct.octahedron import (EDGE_ORDER, Realization, edge_lengths,
                                regular_octahedron)

EXAMPLE_T1 = {"A": [1, 0, 0.5], "B": [0.1, 1, -0.4], "F": [0.7, -0.8, 0.1]}
EXAMPLE_T2 = {"C": [0, 0, 1], "F": [0.2, 0, -1], "A": [1, 0.7, 0.3], "E": [-0.9, 0.5, -0.2]}


def write_spec(tmp_path, obj, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


class TestLoadSpec:
    def test_minimal_build(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {
            "command": "build-type1", "points": EXAMPLE_T1}))
        assert spec.command == "build-type1"
        assert spec.payload["axis_direction"] == [0, 0, 1]  # default filled

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_spec(write_spec(tmp_path, {
                "command": "build-type1", "points": EXAMPLE_T1, "bogus": 1}))
        with pytest.raises(ValidationError):
            load_spec(write_spec(tmp_path, {
                "command": "build-type1", "points": EXAMPLE_T1,
                "drive": {"max_steps": 3}}))  # drive belongs to flex/verify only

    def test_negative_edge_length_names_field(self, tmp_path):
        lengths = {e: 1.0 for e in EDGE_ORDER}
        lengths["BC"] = -2.0
        with pytest.raises(ValidationError) as err:
            load_spec(write_spec(tmp_path, {
                "command": "classify", "edge_lengths": lengths}))
        assert "edge_lengths.BC" in str(err.value)

    def test_positions_take_precedence_with_warning(self, tmp_path):
        r = regular_octahedron()
        raw = {"command": "classify",
               "positions": r.as_dict(),
               "edge_lengths": {e: 1.0 for e in EDGE_ORDER}}
        with pytest.warns(UserWarning, match="precedence"):
            spec = load_spec(write_spec(tmp_path, raw))
        assert "positions" in spec.payload

    def test_parse_error_has_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"command": "fourbar",\n  "sides": [1, 1, 1, ]}')
        with pytest.raises(ParseError) as err:
            load_spec(p)
        assert "line 2" in str(err.value)

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ValidationError):
            load_spec(write_spec(tmp_path, {"command": "explode"}))


class TestObjRoundTrip:
    def test_coordinates_survive(self, tmp_path, rng):
        from conftest import random_generic_realization
        r = random_generic_realization(rng)
        write_obj(r, tmp_path / "frame.obj")
        back = read_obj(tmp_path / "frame.obj")
        assert np.array_equal(back.points, r.points)  # repr round-trips exactly

    def test_edge_lengths_reproduced(self, tmp_path):
        r = build_type1(EXAMPLE_T1["A"], EXAMPLE_T1["B"], EXAMPLE_T1["F"])
        write_obj(r, tmp_path / "frame.obj")
        el0 = edge_lengths(r)
        el1 = edge_lengths(read_obj(tmp_path / "frame.obj"))
        for e in EDGE_ORDER:
            assert abs(el1[e] - el0[e]) <= 1e-9 * el0[e]

    def test_short_vertex_line_rejected(self, tmp_path):
        p = tmp_path / "frame.obj"
        write_obj(regular_octahedron(), p)
        lines = p.read_text().splitlines()
        lines[3] = "v 0.5 0.25"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(IoError, match="frame.obj"):
            read_obj(p)

    def test_face_block(self, tmp_path):
        write_obj(regular_octahedron(), tmp_path / "frame.obj")
        lines = (tmp_path / "frame.obj").read_text().splitlines()
        faces = [ln for ln in lines if ln.startswith("f ")]
        assert faces[0] == "f 1 2 3"   # ABC
        assert faces[1] == "f 4 5 6"   # DEF
        assert len(faces) == 8


class TestExportFrames:
    def test_three_frames(self, tmp_path):
        r = build_type1((1, 0, 0.5), (0.1, 1, -0.4), (0.7, -0.8, 0.1))
        path = flex_path(r, drive=DriveSpec(max_steps=2))
        files = export_frames(path, tmp_path / "out")
        assert "frame_0000.obj" in files and "frame_0002.obj" in files
        csv = (tmp_path / "out" / "path.csv").read_text().splitlines()
        assert len(csv) == 4  # header + 3 rows
        assert csv[0].split(",")[2] == "dih_AB"

    def test_empty_path(self, tmp_path):
        empty = FlexionPath.from_points(np.empty((0, 6, 3)), [], np.ones(12), [], 1e-6)
        files = export_frames(empty, tmp_path / "out")
        assert files == ["path.csv"]
        csv = (tmp_path / "out" / "path.csv").read_text().splitlines()
        assert len(csv) == 1


class TestRun:
    def test_fourbar_prints_coefficients(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"command": "fourbar", "sides": [1, 1, 1, 1]})
        code = cli.main(["fourbar", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "(8" in out and "-4" in out
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["coefficients"] == [8, 0, -4.0, 0, 0]

    def test_build_type1(self, tmp_path):
        spec = write_spec(tmp_path, {"command": "build-type1",
                                     "points": EXAMPLE_T1})
        code = cli.main(["build-type1", "--spec", str(spec),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "realization.obj").exists()
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["realization"]["matches_type1"]
        assert summary["realization"]["flex_dimension"] == 1

    def test_build_type2(self, tmp_path):
        spec = write_spec(tmp_path, {"command": "build-type2", "points": EXAMPLE_T2,
                                     "plane": {"point": [0, 0, 0], "normal": [0, 1, 0]}})
        code = cli.main(["build-type2", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["realization"]["matches_type2"] == ["CF"]
        assert summary["realization"]["flex_dimension"] == 1
        r = read_obj(tmp_path / "o" / "realization.obj")
        assert r["D"] == pytest.approx([1, -0.7, 0.3])

    def test_build_type3(self, tmp_path):
        spec = write_spec(tmp_path, {"command": "build-type3",
                                     "triangle": {"A": [0, 0], "B": [4, 0], "C": [1, 2.5]},
                                     "interior_point": [1.5, 0.9]})
        code = cli.main(["build-type3", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["realization"]["degenerate_flag"]  # a flat realization
        assert summary["realization"]["type3_residual"] <= 1e-10
        assert summary["construction"]["ceva_residual"] <= 1e-10
        assert (tmp_path / "o" / "realization.obj").exists()

    def test_length_equality(self, tmp_path):
        """tolerances.length_equality sets the family matches of classify, by
        positions as by edge lengths, and of the builders' reports."""
        r = build_type2(*(EXAMPLE_T2[v] for v in "CFAE"))
        loose = {"tolerances": {"length_equality": 0.9}}
        jobs = {
            "positions": {"command": "classify", "positions": r.as_dict()},
            "edge_lengths": {"command": "classify", "edge_lengths": edge_lengths(r)},
            "build": {"command": "build-type2", "points": EXAMPLE_T2}}
        for name, job in jobs.items():
            for extra, matches in (({}, False), (loose, True)):
                out = tmp_path / f"{name}_{bool(extra)}"
                spec = write_spec(tmp_path, {**job, **extra})
                assert cli.main([job["command"], "--spec", str(spec), "--out", str(out)]) == 0
                summary = json.loads((out / "summary.json").read_text())
                assert summary.get("realization", summary)["matches_type1"] is matches, name

    def test_flex_on_mirror_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1-mirror", "points": EXAMPLE_T1},
            "drive": {"max_steps": 10}})
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "NotFlexible"

    def test_verify_on_type1(self, tmp_path):
        spec = write_spec(tmp_path, {
            "command": "verify",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "drive": {"max_steps": 25}})
        code = cli.main(["verify", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "verify_report.json").exists()
        assert (tmp_path / "o" / "opposite_dihedrals.csv").exists()
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert all(t["relation"] in ("equal", "supplementary")
                   for t in report["opposite_dihedrals"])
        assert report["mannheim_residuals"]["ABC"]["max"] <= 1e-6

    def test_verify_frames_dir_measures_edge_deviation(self, tmp_path):
        r = build_type1(EXAMPLE_T1["A"], EXAMPLE_T1["B"], EXAMPLE_T1["F"])
        export_frames(flex_path(r, drive=DriveSpec(max_steps=4)), tmp_path / "frames")
        nudged = tmp_path / "frames" / "frame_0002.obj"
        moved = read_obj(nudged).points.copy()
        moved[3, 0] += 1e-6  # vertex D
        write_obj(Realization(moved), nudged)
        spec = write_spec(tmp_path, {"command": "verify",
                                     "frames_dir": str(tmp_path / "frames")})
        code = cli.main(["verify", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "path.csv").read_text().splitlines()[1:]
        dev = [float(row.split(",")[-2]) for row in rows]
        assert len(dev) == 5
        assert dev[2] > 1e-8
        assert max(dev[:2] + dev[3:]) <= 1e-12
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["max_edge_deviation"] == dev[2]

    def test_invalid_spec_exits_1(self, tmp_path):
        spec = write_spec(tmp_path, {"command": "fourbar", "sides": [1, 1, 1]})
        assert cli.main(["fourbar", "--spec", str(spec),
                         "--out", str(tmp_path / "o")]) == 1

    def test_command_mismatch(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"command": "fourbar", "sides": [1, 1, 1, 1]})
        assert cli.main(["classify", "--spec", str(spec),
                         "--out", str(tmp_path / "o")]) == 1
        assert "fourbar" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        {"command": "fourbar", "sides": [1, 1, 1, 1]},
        [{"command": "classify", "edge_lengths": {e: 1.0 for e in EDGE_ORDER}},
         {"command": "fourbar", "sides": [1, 1, 1, 1]}],
    ], ids=["single", "sweep"])
    def test_command_mismatch_writes_summary(self, tmp_path, raw):
        spec = write_spec(tmp_path, raw)
        code = cli.main(["classify", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValidationError"
        assert summary["error"]["message"].startswith("command:")
        assert "fourbar" in summary["error"]["message"]
        assert not (tmp_path / "o" / "case_000").exists()

    @pytest.mark.parametrize("case", ["valid", "fails-to-load", "spec-out", "sweep-under"])
    def test_out_naming_a_file(self, tmp_path, capsys, case):
        """An output path that names a file or lies under one, from --out or
        from the spec's out, is refused before any work: exit 1 with the
        message on stderr and the file left as it was, since no summary can
        be written."""
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        raw = {"command": "fourbar", "sides": [1, 1, 1] if case == "fails-to-load"
               else [1, 1, 1, 1]}
        out = ["--out", str(afile)]
        if case == "spec-out":
            raw, out = {**raw, "out": str(afile)}, []
        elif case == "sweep-under":
            raw, out = [raw, raw], ["--out", str(afile / "sub")]
        spec = write_spec(tmp_path, raw)
        assert cli.main(["fourbar", "--spec", str(spec)] + out) == 1
        captured = capsys.readouterr()
        assert "error: out:" in captured.err and "not a directory" in captured.err
        assert "coefficients" not in captured.out
        assert afile.read_text() == "keep\n"

    def test_flex_coincident_vertices(self, tmp_path):
        """A zero-length edge is a named input error before any solve."""
        positions = regular_octahedron().as_dict()
        positions["D"] = positions["B"]
        spec = write_spec(tmp_path, {"command": "flex", "positions": positions})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "DegenerateFacet"

    def test_classify_coincident_vertices(self, tmp_path):
        """classify rejects a collapsed facet as flex does, instead of
        reporting a rigidity analysis of it."""
        positions = regular_octahedron().as_dict()
        positions["D"] = positions["B"]
        spec = write_spec(tmp_path, {"command": "classify", "positions": positions})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["classify", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "DegenerateFacet"
        assert "realization" not in summary

    @pytest.mark.parametrize("sides, code", [
        ([1e308, 1e308, 1e308, 1e308], 1),
        ([1, 1, 1, 1e160], 1),
        ([1e150, 2e150, 1.5e150, 1e150], 0),
    ])
    def test_fourbar_huge_sides(self, tmp_path, sides, code):
        """Sides whose squared sums overflow are a named input error with a
        summary; large sides that do not overflow still run."""
        spec = write_spec(tmp_path, {"command": "fourbar", "sides": sides})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cli.main(["fourbar", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert got == code
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        if code:
            assert summary["error"]["type"] == "ValidationError"
            assert "sides" in summary["error"]["message"]
        else:
            assert all(math.isfinite(c) for c in summary["coefficients"])

    def test_verify_frames_dir_rejects_non_finite_vertex(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        write_obj(regular_octahedron(), frames / "frame_0000.obj")
        bad = frames / "frame_0001.obj"
        write_obj(regular_octahedron(), bad)
        lines = bad.read_text().splitlines()
        lines[1] = "v nan 0 0"
        bad.write_text("\n".join(lines) + "\n")
        spec = write_spec(tmp_path, {"command": "verify", "frames_dir": str(frames)})
        code = cli.main(["verify", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["error"]["type"] == "IoError"
        assert "frame_0001.obj" in summary["error"]["message"]

    def test_classify_by_lengths(self, tmp_path):
        spec = write_spec(tmp_path, {
            "command": "classify",
            "edge_lengths": {e: 1.0 for e in EDGE_ORDER}})
        code = cli.main(["classify", "--spec", str(spec),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["matches_type1"] is True
        assert summary["violations"] == []

    def test_sweep(self, tmp_path):
        spec = write_spec(tmp_path, [
            {"command": "fourbar", "sides": [1, 1, 1, 1]},
            {"command": "fourbar", "sides": [1, 2, 1.5, 1]}])
        code = cli.main(["fourbar", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "case_000" / "summary.json").exists()
        assert (tmp_path / "o" / "case_001" / "summary.json").exists()

    def test_flex_summary_reports_corrector(self, tmp_path):
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "drive": {"max_steps": 5}})
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["schema"] == 1
        counts = summary["corrector"]
        assert set(counts) == {"steps", "newton_iterations", "halvings", "flat_solves"}
        assert all(isinstance(v, int) for v in counts.values())
        assert counts["steps"] == 5
        assert counts["newton_iterations"] >= 2 * counts["steps"]
        lines = (tmp_path / "o" / "path.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli._CSV_HEADER)
        devs = [float(row.split(",")[-2]) for row in lines[1:]]
        assert summary["max_edge_deviation"] == max(devs)
        assert summary["max_edge_deviation"] <= 1e-9

    def test_flex_rejects_edge_lengths(self, tmp_path):
        """A flex path always keeps the lengths of its start; foreign edge
        lengths are an input error, not a path that starts off its lengths."""
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "edge_lengths": {e: 1.0 for e in EDGE_ORDER}})
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValidationError"
        assert "edge_lengths" in summary["error"]["message"]

    def test_stall_exports_partial_path(self, tmp_path):
        """A stalled flex is an error whose partial frames are all exported."""
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "drive": {"max_newton": 2, "min_step_factor": 0.5, "initial_step": 0.03,
                      "max_step": 0.3}})
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ContinuationStall"
        assert summary["frames"] == 3
        rows = (tmp_path / "o" / "path.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
        assert len(list((tmp_path / "o").glob("frame_*.obj"))) == 3
        assert summary["max_edge_deviation"] == max(float(r.split(",")[-2]) for r in rows)

    def test_drive_max_steps(self, tmp_path):
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "drive": {"max_steps": 5}})
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["frames"] == 6


class TestDriveValidation:
    """Ill-typed or out-of-range drive values: a named ValidationError, a
    summary.json and exit status 1."""

    @pytest.mark.parametrize("drive, field", [
        ({"max_steps": "abc"}, "drive.max_steps"),
        ({"stop_after_flat_events": "x"}, "drive.stop_after_flat_events"),
        ({"max_steps": -5}, "drive.max_steps"),
        ({"corrector_tol": math.nan}, "drive.corrector_tol"),
        ({"max_newton": 0}, "drive.max_newton"),
        ({"max_steps": 2.5}, "drive.max_steps"),
        ({"initial_step": math.inf}, "drive.initial_step"),
        ({"rank_tol": True}, "drive.rank_tol"),
        ({"direction": 0}, "drive.direction"),
        ({"refine_flat_events": 1}, "drive.refine_flat_events"),
        ({"edge": "AD"}, "drive.edge"),
        ({"dihedral_range": [0, math.nan]}, "drive.dihedral_range"),
        ({"dihedral_range": [2, -2]}, "drive.dihedral_range"),
        ({"dihedral_range": [1, 1]}, "drive.dihedral_range"),
        ({"stop_after_flat_events": -3}, "drive.stop_after_flat_events"),
        ({"stop_after_flat_events": 0}, "drive.stop_after_flat_events"),
        ({"corrector_tol": 10}, "drive.corrector_tol"),
        ({"rank_tol": 1}, "drive.rank_tol"),
        ({"flat_event_tol": 1.5}, "drive.flat_event_tol"),
        ({"pin": ["A", "A", "B"]}, "drive.pin"),
    ] + [pytest.param({f.name: 5 if f.type == "str" else "x"}, f"drive.{f.name}",
                      id=f"ill_typed-{f.name}")
         for f in dataclasses.fields(DriveSpec)])
    def test_rejected(self, tmp_path, drive, field):
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "drive": drive})
        with pytest.raises(ValidationError) as err:
            load_spec(spec)
        assert err.value.field == field
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValidationError"
        assert field in summary["error"]["message"]

    def test_valid_drive_accepted(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "drive": {"max_steps": 3, "corrector_tol": 1e-11, "initial_step": 1,
                      "stop_after_flat_events": None, "direction": -1,
                      "edge": "CB"}}))
        assert spec.payload["drive"]["initial_step"] == 1.0
        assert isinstance(spec.payload["drive"]["initial_step"], float)

    @pytest.mark.parametrize("key", ["corrector", "rank", "flat"])
    def test_spec_tolerance_below_one(self, tmp_path, key):
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1},
            "tolerances": {key: 10}})
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["error"]["type"] == "ValidationError"
        assert f"tolerances.{key}" in summary["error"]["message"]

    @staticmethod
    def assert_unknown_arguments(tmp_path, *args):
        """Command-line arguments other than --spec and --out are an input
        error naming them, with a summary and exit status 1."""
        spec = write_spec(tmp_path, {
            "command": "flex",
            "source": {"command": "build-type1", "points": EXAMPLE_T1}})
        code = cli.main(["flex", "--spec", str(spec), "--out", str(tmp_path / "o"), *args])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["error"]["type"] == "ValidationError"
        assert summary["error"]["message"].startswith("arguments:")
        assert all(a in summary["error"]["message"] for a in args)
        assert not (tmp_path / "o" / "frame_0000.obj").exists()

    def test_tol_override_below_one(self, tmp_path):
        self.assert_unknown_arguments(tmp_path, "--tol", "10")

    def test_negative_steps_override(self, tmp_path):
        self.assert_unknown_arguments(tmp_path, "--steps", "-5")

    def test_unknown_command(self, tmp_path):
        """A command argparse would refuse is an input error with exit status
        1, not 2 (not flexible or stalled), and a summary in --out."""
        spec = write_spec(tmp_path, {"command": "fourbar", "sides": [1, 1, 1, 1]})
        code = cli.main(["explode", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValidationError"
        assert summary["error"]["message"].startswith("command:")
        assert "explode" in summary["error"]["message"]

    @pytest.mark.parametrize("args", [[], ["--spec"]], ids=["no-spec", "spec-without-path"])
    def test_missing_spec(self, tmp_path, monkeypatch, args):
        """Without a spec path the summary goes to flexoct_out."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fourbar", *args]) == 1
        summary = json.loads((tmp_path / "flexoct_out" / "summary.json").read_text())
        assert summary["command"] == "fourbar"
        assert summary["error"]["type"] == "ValidationError"
        assert summary["error"]["message"].startswith("arguments:")
        assert "--spec" in summary["error"]["message"]

    @pytest.mark.parametrize("raw, field", [
        ({"command": "classify", "positions": regular_octahedron().as_dict(),
          "tolerances": {"corrector": 1e-12}}, "tolerances.corrector"),
        ({"command": "flex", "positions": regular_octahedron().as_dict(),
          "tolerances": {"length_equality": 1e-9}}, "spec"),
        ({"command": "verify", "frames_dir": "frames",
          "tolerances": {"length_equality": 1e-9}}, "spec"),
        ({"command": "fourbar", "sides": [1, 1, 1, 1],
          "tolerances": {"length_equality": 1e-9}}, "spec"),
        ({"command": "flex", "source": {"command": "build-type1", "points": EXAMPLE_T1},
          "drive": {"refine_flat_events": True}}, "drive.refine_flat_events"),
        ({"command": "flex", "source": {"command": "build-type1", "points": EXAMPLE_T1},
          "drive": {"track_facet_crossings": False}}, "drive.track_facet_crossings"),
        ({"command": "flex", "source": {"command": "build-type1", "points": EXAMPLE_T1,
                                        "out": "elsewhere"}}, "source"),
        ({"command": "verify", "source": {"command": "build-type1", "points": EXAMPLE_T1,
                                          "tolerances": {"length_equality": 1e-9}}},
         "source"),
        ({"command": "flex", "source": {"command": "build-type1", "points": EXAMPLE_T1,
                                        "tolerances": {"corrector": 0.9}}},
         "source.tolerances.corrector"),
    ], ids=["tolerances.corrector", "flex-tolerances", "verify-tolerances",
            "fourbar-tolerances", "drive.refine_flat_events", "drive.track_facet_crossings",
            "source.out", "source.tolerances", "source.tolerances.corrector"])
    def test_removed_spellings_refused(self, tmp_path, raw, field):
        """Each removed or never-read spec input is a named input error, with
        a summary and exit status 1, before any work is done (the removed
        --steps and --tol flags: the two tests above)."""
        spec = write_spec(tmp_path, raw)
        code = cli.main([raw["command"], "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValidationError"
        assert summary["error"]["message"].startswith(f"{field}:")
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["summary.json"]

    @pytest.mark.parametrize("raw, field", [
        ({"command": "flex",
          "source": {"command": "build-type1", "points": EXAMPLE_T1},
          "tolerances": {"corrector": math.nan}}, "tolerances.corrector"),
        ({"command": "classify",
          "edge_lengths": {e: (math.inf if e == "AB" else 1.0) for e in EDGE_ORDER}},
         "edge_lengths.AB"),
        ({"command": "flex",
          "positions": {**regular_octahedron().as_dict(), "D": [-1, 0, math.nan]}},
         "positions.D"),
        ({"command": "classify",
          "positions": {**regular_octahedron().as_dict(), "D": [-1, 0, math.nan]}},
         "positions.D"),
        ({"command": "build-type1",
          "points": {**EXAMPLE_T1, "A": [1, 0.2, math.inf]}}, "points.A"),
        ({"command": "flex", "source": {"command": "build-type1",
                                        "points": {**EXAMPLE_T1, "F": [0, math.nan, 0]}}},
         "source.points.F"),
    ])
    def test_non_finite_numbers(self, tmp_path, raw, field):
        spec = write_spec(tmp_path, raw)
        code = cli.main([raw["command"], "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert field in summary["error"]["message"]


def export_type1(tmp_path, steps=4, name="frames"):
    """A type 1 path of steps + 1 frames exported to tmp_path / name."""
    r = build_type1(EXAMPLE_T1["A"], EXAMPLE_T1["B"], EXAMPLE_T1["F"])
    export_frames(flex_path(r, drive=DriveSpec(max_steps=steps)), tmp_path / name)
    return tmp_path / name


def run_verify(tmp_path, frames, out, **fields):
    spec = write_spec(tmp_path, {"command": "verify", "frames_dir": str(frames), **fields},
                      name=f"verify_{out.name}.json")
    return cli.main(["verify", "--spec", str(spec), "--out", str(out)])


def snapshot(directory):
    """Bytes and inode of every file in a directory."""
    return {p.name: (p.read_bytes(), p.stat().st_ino) for p in sorted(directory.iterdir())}


def summary_of(out):
    return json.loads((out / "summary.json").read_text())


class TestVerifyFramesDir:
    """verify hard-links each frame whose bytes it would write unchanged,
    never writes through a link, and honours only drive.flat_event_tol."""

    def test_canonical_frames_are_linked(self, tmp_path):
        frames = export_type1(tmp_path, steps=30)
        before = snapshot(frames)
        assert run_verify(tmp_path, frames, tmp_path / "o") == 0
        summary = summary_of(tmp_path / "o")
        assert summary["frames"] == 31 and summary["frames_linked"] == 31
        for name in summary["files"][:31]:
            assert (tmp_path / "o" / name).stat().st_ino == before[name][1]
        assert snapshot(frames) == before

    @pytest.mark.parametrize("later", ["flex", "verify"])
    def test_later_run_does_not_write_through_links(self, tmp_path, later):
        frames = export_type1(tmp_path)
        before = snapshot(frames)
        out = tmp_path / "o"
        assert run_verify(tmp_path, frames, out) == 0
        if later == "flex":
            spec = write_spec(tmp_path, {
                "command": "flex",
                "source": {"command": "build-type1", "points": EXAMPLE_T1},
                "drive": {"max_steps": 6, "direction": -1}})
            assert cli.main(["flex", "--spec", str(spec), "--out", str(out)]) == 0
        else:
            other = tmp_path / "other"
            r = build_type1(EXAMPLE_T1["A"], EXAMPLE_T1["B"], EXAMPLE_T1["F"])
            export_frames(flex_path(r, drive=DriveSpec(max_steps=6, direction=-1)), other)
            assert run_verify(tmp_path, other, out) == 0
        assert (out / "frame_0001.obj").read_bytes() != before["frame_0001.obj"][0]
        assert snapshot(frames) == before

    def test_verify_into_its_own_frames_dir(self, tmp_path):
        frames = export_type1(tmp_path)
        before = snapshot(frames)
        assert run_verify(tmp_path, frames, frames) == 0
        after = snapshot(frames)
        assert {n: after[n] for n in before if n.startswith("frame_")} == {
            n: v for n, v in before.items() if n.startswith("frame_")}
        assert summary_of(frames)["frames_linked"] == 5

    def test_own_frames_dir_with_other_names(self, tmp_path):
        """A verify into its own frames_dir whose frames are not named in
        export order refuses to replace an input frame."""
        frames = export_type1(tmp_path, steps=2)
        (frames / "frame_0000.obj").rename(frames / "frame_0001x.obj")
        before = snapshot(frames)
        assert run_verify(tmp_path, frames, frames) == 1
        summary = summary_of(frames)
        assert summary["error"]["type"] == "IoError"
        assert "frame_0001.obj" in summary["error"]["message"]
        after = snapshot(frames)
        assert {n: after[n] for n in before if n != "summary.json"} == {
            n: v for n, v in before.items() if n != "summary.json"}

    def test_non_canonical_frames_are_rewritten(self, tmp_path):
        """Frames that parse to the same points but differ in bytes (CRLF line
        ends, integers written without a decimal point, an extra comment) are
        written in canonical form, not linked."""
        frames = tmp_path / "frames"
        frames.mkdir()
        write_obj(regular_octahedron(), frames / "frame_0000.obj")
        canonical = (frames / "frame_0000.obj").read_bytes()
        assert b"v 1.0 0.0 0.0\n" in canonical
        (frames / "frame_0001.obj").write_bytes(canonical.replace(b"\n", b"\r\n"))
        (frames / "frame_0002.obj").write_bytes(canonical.replace(b".0", b""))
        (frames / "frame_0003.obj").write_bytes(b"# exported elsewhere\n" + canonical)
        before = snapshot(frames)
        out = tmp_path / "o"
        assert run_verify(tmp_path, frames, out) == 0
        assert summary_of(out)["frames_linked"] == 1
        for i in range(4):
            written = out / f"frame_{i:04d}.obj"
            assert written.read_bytes() == canonical
            assert (written.stat().st_nlink == 1) == (i > 0)
        assert snapshot(frames) == before

    def test_write_fallback_matches_links(self, tmp_path, monkeypatch):
        """Where the file system refuses hard links, every output file is
        written with the bytes the linked run has."""
        frames = export_type1(tmp_path)
        assert run_verify(tmp_path, frames, tmp_path / "linked") == 0

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src)

        monkeypatch.setattr(os, "link", cross_device)
        assert run_verify(tmp_path, frames, tmp_path / "written") == 0
        linked, written = snapshot(tmp_path / "linked"), snapshot(tmp_path / "written")
        assert linked.keys() == written.keys()
        for name in linked:
            if name != "summary.json":
                assert written[name][0] == linked[name][0], name
        s_linked, s_written = summary_of(tmp_path / "linked"), summary_of(tmp_path / "written")
        assert (s_linked.pop("frames_linked"), s_written.pop("frames_linked")) == (5, 0)
        assert s_written == s_linked
        for name in s_written["files"][:5]:
            assert (tmp_path / "written" / name).stat().st_nlink == 1

    @pytest.mark.parametrize("fields, flat", [
        ({}, "0"),
        ({"drive": {"flat_event_tol": 0.5}}, "1"),
    ], ids=["default", "drive"])
    def test_flat_tolerance(self, tmp_path, fields, flat):
        frames = export_type1(tmp_path)
        assert run_verify(tmp_path, frames, tmp_path / "o", **fields) == 0
        rows = (tmp_path / "o" / "path.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == [flat] * 5

    def test_other_drive_keys_refused(self, tmp_path):
        frames = export_type1(tmp_path)
        code = run_verify(tmp_path, frames, tmp_path / "o",
                          drive={"flat_event_tol": 0.5, "max_steps": 1})
        assert code == 1
        summary = summary_of(tmp_path / "o")
        assert summary["error"]["type"] == "ValidationError"
        assert summary["error"]["message"].startswith("drive:")
        assert "max_steps" in summary["error"]["message"]
        assert not (tmp_path / "o" / "frame_0000.obj").exists()
