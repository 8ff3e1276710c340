"""Command line interface, JSON job specifications, and frame exporters.

Jobs are described by a JSON file and dispatched by command:

    flexoct <command> --spec job.json [--out DIR]

with commands build-type1, build-type1-mirror, build-type2, build-type3,
classify, flex, verify, and fourbar.  Flexion frames are exported as
Wavefront OBJ meshes (6 vertices in label order A..F, 8 triangular faces in
the fixed facet order) next to a path.csv trace; every run writes a
machine-readable summary.json.  Floats are serialized in shortest
round-trip form.  The environment variable FLEXOCT_SEED fixes the sampling
seed of the randomized test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import builders, flexion, octahedron, verifiers
from .linkage import planar_fourbar_coeffs
from .octahedron import EDGE_ORDER, FACETS, Realization, VERTICES

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """The spec file is not valid JSON."""


class ValidationError(ValueError):
    """The spec file parses but a field is missing, unknown, or ill-typed."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field, self.message = field, message


class IoError(OSError):
    """An artifact could not be written or read."""


COMMANDS = ("build-type1", "build-type1-mirror", "build-type2", "build-type3",
            "classify", "flex", "verify", "fourbar")

_ALLOWED_KEYS = {
    "build-type1": {"points", "axis"},
    "build-type1-mirror": {"points", "axis"},
    "build-type2": {"points", "plane"},
    "build-type3": {"triangle", "interior_point"},
    "classify": {"positions", "edge_lengths"},
    "flex": {"positions", "source", "drive"},
    "verify": {"frames_dir", "source", "drive"},
    "fourbar": {"sides"},
}
# the commands whose reports read tolerances.length_equality
_TAKES_TOLERANCES = {"build-type1", "build-type1-mirror", "build-type2", "build-type3",
                     "classify"}


@dataclasses.dataclass
class JobSpec:
    command: str
    payload: dict
    out: str | None = None
    tolerances: dict = dataclasses.field(default_factory=dict)
    warnings: list = dataclasses.field(default_factory=list)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    """A finite positive number."""
    return _is_number(v) and math.isfinite(v) and v > 0


def _require_vec(obj, field: str, n: int) -> list[float]:
    if (not isinstance(obj, (list, tuple)) or len(obj) != n
            or not all(_is_number(v) and math.isfinite(v) for v in obj)):
        raise ValidationError(field, f"expected a list of {n} finite numbers")
    return [float(v) for v in obj]


_DRIVE_COUNTS = ("max_steps", "max_newton")
_DRIVE_SCALES = ("initial_step", "max_step", "min_step_factor", "corrector_tol",
                 "rank_tol", "flat_event_tol")
# relative tolerances: at 1 or above, corrector_tol accepts any frame, rank_tol
# counts every direction as a flex and flat_event_tol every frame as flat
_DRIVE_TOLS = ("corrector_tol", "rank_tol", "flat_event_tol")
# the four-bar coefficients square sums of three sides; this keeps them finite
_FOURBAR_SIDE_MAX = math.sqrt(sys.float_info.max) / 4.0


def _validate_drive(raw) -> dict:
    """DriveSpec keyword arguments from a drive object, each field checked
    against its type and range."""
    if not isinstance(raw, dict):
        raise ValidationError("drive", "expected an object")
    known = {f.name for f in dataclasses.fields(flexion.DriveSpec)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError(f"drive.{unknown[0]}", "unknown key")
    drive = dict(raw)
    for name in _DRIVE_COUNTS:
        if name in drive and not (_is_int(drive[name]) and drive[name] > 0):
            raise ValidationError(f"drive.{name}", "must be a positive integer")
    for name in _DRIVE_SCALES:
        if name in drive:
            if not _is_positive(drive[name]):
                raise ValidationError(f"drive.{name}", "must be a finite positive number")
            drive[name] = float(drive[name])
    for name in _DRIVE_TOLS:
        if name in drive and not drive[name] < 1.0:
            raise ValidationError(f"drive.{name}", "must be below 1")
    if "direction" in drive and not (_is_int(drive["direction"])
                                     and drive["direction"] in (1, -1)):
        raise ValidationError("drive.direction", "must be 1 or -1")
    if "stop_after_flat_events" in drive and not (
            drive["stop_after_flat_events"] is None
            or _is_int(drive["stop_after_flat_events"])
            and drive["stop_after_flat_events"] > 0):
        raise ValidationError("drive.stop_after_flat_events",
                              "must be a positive integer or null")
    if "edge" in drive:
        edge = drive["edge"]
        if (not isinstance(edge, str) or len(edge) != 2
                or frozenset(edge) not in {frozenset(e) for e in EDGE_ORDER}):
            raise ValidationError("drive.edge", "expected an edge name such as 'BC'")
    if "dihedral_range" in drive:
        drive["dihedral_range"] = tuple(
            _require_vec(drive["dihedral_range"], "drive.dihedral_range", 2))
        if not drive["dihedral_range"][0] < drive["dihedral_range"][1]:
            raise ValidationError("drive.dihedral_range", "expected [low, high] with low < high")
    if "pin" in drive:
        pin = drive["pin"]
        if (not isinstance(pin, (list, tuple)) or len(pin) != 3
                or any(v not in VERTICES for v in pin) or len(set(pin)) != 3):
            raise ValidationError("drive.pin", "expected three distinct vertex labels")
        drive["pin"] = tuple(pin)
    return drive


def _validate_points(obj, field: str, labels: tuple[str, ...], dim: int = 3) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(field, "expected an object of labeled points")
    unknown = set(obj) - set(labels)
    if unknown:
        raise ValidationError(field, f"unknown labels {sorted(unknown)}")
    out = {}
    for lab in labels:
        if lab not in obj:
            raise ValidationError(f"{field}.{lab}", "missing point")
        out[lab] = _require_vec(obj[lab], f"{field}.{lab}", dim)
    return out


def _validate_payload(command: str, raw: dict) -> tuple[dict, list[str]]:
    payload: dict = {}
    warns: list[str] = []
    if command in ("build-type1", "build-type1-mirror"):
        payload["points"] = _validate_points(raw.get("points"), "points", ("A", "B", "F"))
        axis = raw.get("axis", {"point": [0, 0, 0], "direction": [0, 0, 1]})
        if not isinstance(axis, dict) or set(axis) - {"point", "direction"}:
            raise ValidationError("axis", "expected {point, direction}")
        payload["axis_point"] = _require_vec(axis.get("point", [0, 0, 0]), "axis.point", 3)
        payload["axis_direction"] = _require_vec(
            axis.get("direction", [0, 0, 1]), "axis.direction", 3)
    elif command == "build-type2":
        payload["points"] = _validate_points(raw.get("points"), "points",
                                             ("C", "F", "A", "E"))
        plane = raw.get("plane", {"point": [0, 0, 0], "normal": [0, 1, 0]})
        if not isinstance(plane, dict) or set(plane) - {"point", "normal"}:
            raise ValidationError("plane", "expected {point, normal}")
        payload["plane_point"] = _require_vec(plane.get("point", [0, 0, 0]),
                                              "plane.point", 3)
        payload["plane_normal"] = _require_vec(plane.get("normal", [0, 1, 0]),
                                               "plane.normal", 3)
    elif command == "build-type3":
        payload["triangle"] = _validate_points(raw.get("triangle"), "triangle",
                                               ("A", "B", "C"), dim=2)
        payload["interior_point"] = _require_vec(raw.get("interior_point"),
                                                 "interior_point", 2)
    elif command == "classify":
        positions = raw.get("positions")
        lengths = raw.get("edge_lengths")
        if positions is not None:
            payload["positions"] = _validate_points(positions, "positions", VERTICES)
            if lengths is not None:
                warns.append("both positions and edge_lengths given; "
                             "positions take precedence")
        elif lengths is not None:
            if not isinstance(lengths, dict) or set(lengths) != set(EDGE_ORDER):
                raise ValidationError("edge_lengths",
                                      f"expected exactly the keys {list(EDGE_ORDER)}")
            vals = {}
            for k, v in lengths.items():
                if not _is_positive(v):
                    raise ValidationError(f"edge_lengths.{k}",
                                          "must be a finite positive number")
                vals[k] = float(v)
            payload["edge_lengths"] = vals
        else:
            raise ValidationError("positions", "classify needs positions or edge_lengths")
    elif command == "flex":
        if raw.get("positions") is not None:
            payload["positions"] = _validate_points(raw["positions"], "positions", VERTICES)
        elif "source" not in raw:
            raise ValidationError("positions", "flex needs positions or a source job")
    elif command == "fourbar":
        payload["sides"] = _require_vec(raw.get("sides"), "sides", 4)
        if any(s <= 0 for s in payload["sides"]):
            raise ValidationError("sides", "sides must be positive")
        if max(payload["sides"]) > _FOURBAR_SIDE_MAX:
            raise ValidationError("sides", f"sides must be at most {_FOURBAR_SIDE_MAX:.4g}: "
                                           "the coefficients square sums of three sides")
    elif command == "verify":
        if "frames_dir" in raw:
            if not isinstance(raw["frames_dir"], str):
                raise ValidationError("frames_dir", "expected a path string")
            payload["frames_dir"] = raw["frames_dir"]
        elif "source" not in raw:
            raise ValidationError("frames_dir", "verify needs frames_dir or a source job")

    if command in ("flex", "verify") and "source" in raw:
        src = raw["source"]
        if not isinstance(src, dict):
            raise ValidationError("source", "expected a nested build job")
        if src.get("command") not in ("build-type1", "build-type1-mirror",
                                      "build-type2", "build-type3"):
            raise ValidationError("source.command", f"{src.get('command')!r} is not a builder")
        try:
            payload["source"] = _job_from_dict(src, source=True)
        except ValidationError as exc:
            # the source object itself is "source", as the top level is "spec"
            field = "source" if exc.field == "spec" else f"source.{exc.field}"
            raise ValidationError(field, exc.message) from None

    if command in ("flex", "verify"):
        payload["drive"] = _validate_drive(raw.get("drive", {}))
    if "frames_dir" in payload:
        ignored = sorted(set(payload["drive"]) - {"flat_event_tol"})
        if ignored:
            raise ValidationError("drive", f"{ignored} do not apply to imported frames; "
                                           "frames_dir takes only flat_event_tol")
    return payload, warns


def _job_from_dict(raw: dict, source: bool = False) -> JobSpec:
    """A validated job; a ``source`` job (a flex or verify job's builder)
    takes only its command and its builder's keys."""
    if not isinstance(raw, dict):
        raise ValidationError("spec", "top level must be an object")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ValidationError("command", f"{command!r} is not one of {list(COMMANDS)}")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValidationError("tolerances", "expected an object")
    for k, v in sorted(tolerances.items()):
        if k != "length_equality":
            raise ValidationError(f"tolerances.{k}", "unknown key")
        if not _is_positive(v):
            raise ValidationError(f"tolerances.{k}", "must be a finite positive number")
    allowed = _ALLOWED_KEYS[command] | {"command"}
    if not source:
        allowed |= {"out", "tolerances"} if command in _TAKES_TOLERANCES else {"out"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError("spec", f"unknown keys {sorted(unknown)} for {command}")
    payload, warns = _validate_payload(command, raw)
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ValidationError("out", "expected a path string")
    return JobSpec(command=command, payload=payload, out=out,
                   tolerances=dict(tolerances), warnings=warns)


def load_spec(path) -> JobSpec | list[JobSpec]:
    """Parse and validate a job spec file; a JSON list is a job sweep."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if isinstance(raw, list):
        return [_job_from_dict(item) for item in raw]
    job = _job_from_dict(raw)
    for w in job.warnings:
        warnings.warn(w)
    return job


# ---------------------------------------------------------------------------
# exporters


_OBJ_HEAD = "# flexoct frame: vertices A B C D E F, facets in fixed order\n"
_OBJ_VERTICES = "v %r %r %r\n" * 6
_OBJ_FACETS = "".join("f %d %d %d\n" % tuple(VERTICES.index(v) + 1 for v in f)
                      for f in FACETS)


def _obj_bytes(points: np.ndarray) -> bytes:
    """The OBJ file of one frame's (6, 3) points, floats in shortest round-trip form."""
    return (_OBJ_HEAD + _OBJ_VERTICES % tuple(points.ravel().tolist())
            + _OBJ_FACETS).encode()


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def write_obj(r: Realization, path) -> None:
    try:
        _write_bytes(path, _obj_bytes(r.points))
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _obj_coordinates(data: bytes, path) -> list[float]:
    """The 18 vertex coordinates of an OBJ file's bytes, in file order."""
    coords: list[float] = []
    for n, line in enumerate(data.decode().splitlines(), 1):
        parts = line.split()
        if parts and parts[0] == "v":
            try:
                x, y, z = map(float, parts[1:4])
            except ValueError:
                raise IoError(f"{path}: line {n}: expected three vertex coordinates") from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise IoError(f"{path}: line {n}: non-finite vertex coordinate")
            coords += (x, y, z)
    if len(coords) != 18:
        raise IoError(f"{path}: expected 6 vertices, found {len(coords) // 3}")
    return coords


def read_obj(path) -> Realization:
    return Realization(np.reshape(_obj_coordinates(_read_bytes(path), path), (6, 3)))


_CSV_HEADER = (["frame", "arclength"] + [f"dih_{e}" for e in EDGE_ORDER]
               + ["max_edge_deviation", "flat_flag"])
# frame index, arc length, 12 dihedrals, edge deviation, flat flag
_CSV_ROW = "%d" + ",%r" * 14 + ",%d\n"


class _Written(list):
    """The file names export_frames wrote; ``linked`` of its frames are hard
    links to their source files."""
    linked = 0


def _file_id(path: str) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_dev, st.st_ino


def export_frames(path: flexion.FlexionPath, out_dir, sources=()) -> list[str]:
    """One OBJ per frame plus path.csv; returns the written file names.

    ``sources`` pairs frame i with the (file, bytes) it was read from.  A
    frame whose OBJ bytes equal its source's is hard-linked to the source
    instead of written, or written where the file system refuses the link;
    the returned list counts the links in ``linked``.  A frame that already
    is its source (verify into its own frames_dir) stays as it is, and a
    frame name held by another source file is an IoError, not an
    overwritten input.  Any other existing entry is removed before the link
    or the write, so no write goes through a link into another directory.
    """
    out = os.fspath(out_dir)
    try:
        os.makedirs(out, exist_ok=True)
        existing = set(os.listdir(out))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    written = _Written()
    inputs = None  # (device, inode) of each source, taken when a name exists
    for i, points in enumerate(path.points):
        name = f"frame_{i:04d}.obj"
        target = os.path.join(out, name)
        src, src_bytes = sources[i] if sources else (None, None)
        written.append(name)
        try:
            if name in existing:
                if src is not None and os.path.samefile(src, target):
                    written.linked += 1
                    continue
                if sources:
                    if inputs is None:
                        inputs = {_file_id(f) for f, _ in sources}
                    if _file_id(target) in inputs:
                        raise IoError(f"{target} is an input frame of this export; "
                                      "write to another directory")
                os.unlink(target)
            data = _obj_bytes(points)
            if data == src_bytes:
                try:
                    os.link(src, target)
                    written.linked += 1
                    continue
                except OSError:  # EXDEV, EPERM, no hard links: write the file
                    pass
            _write_bytes(target, data)
        except OSError as exc:
            raise IoError(str(exc)) from exc
    columns = zip(path.arclength.tolist(), path.dihedrals.tolist(),
                  path.edge_deviation.tolist(), path.flat.tolist())
    rows = [_CSV_ROW % (i, arc, *dihedrals, dev, flat)
            for i, (arc, dihedrals, dev, flat) in enumerate(columns)]
    csv_name = "path.csv"
    try:
        _write_bytes(os.path.join(out, csv_name),
                     (",".join(_CSV_HEADER) + "\n" + "".join(rows)).encode())
    except OSError as exc:
        raise IoError(str(exc)) from exc
    written.append(csv_name)
    return written


def _load_frames_dir(frames_dir: str, flat_tol: float):
    """Imported frames, with edge deviations measured against frame 0, and
    the (file, bytes) each frame was read from."""
    try:
        names = sorted(fnmatch.filter(os.listdir(frames_dir), "frame_*.obj"))
    except OSError:
        names = []
    if not names:
        raise IoError(f"no frame_*.obj files under {frames_dir}")
    files = [os.path.join(frames_dir, name) for name in names]
    blobs = [_read_bytes(f) for f in files]
    points = np.array([_obj_coordinates(b, f) for b, f in zip(blobs, files)]).reshape(-1, 6, 3)
    steps = octahedron.row_norms(np.diff(points, axis=0).reshape(-1, 18))
    arc = np.cumsum(np.concatenate([[0.0], steps / octahedron.diameter_array(points[:-1])]))
    path = flexion.FlexionPath.from_points(
        points, arc, octahedron.edge_length_array(points[0]),
        octahedron.coplanarity_array(points), flat_tol, termination="imported")
    return path, list(zip(files, blobs))


# ---------------------------------------------------------------------------
# dispatch


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"unserializable {type(obj)}")


def _out_error(out: Path) -> ValidationError | None:
    """The error for an output path that names an existing file or lies
    under one, where no summary can be written; None for any other path."""
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if existing.exists() and not existing.is_dir():
        return ValidationError("out", f"{str(existing)!r} is a file, not a directory; "
                                      "no summary can be written there")
    return None


def _write_summary(out_dir: Path, summary: dict) -> None:
    summary = {"schema": SCHEMA_VERSION, **summary}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, default=_json_default) + "\n")


def _realization_report(r: Realization, length_tol: float) -> dict:
    """Edge lengths, rigidity and family matches, edge lengths equal within
    length_tol of their mean; raises DegenerateFacet for a realization with
    a (near-)zero-area facet."""
    el = octahedron.edge_lengths(r)
    rep = flexion.flex_dimension(r)
    cls = octahedron.classify_edge_lengths(
        el, flat=r if octahedron.coplanarity_measure(r) <= octahedron.FLAT_TOL else None,
        tol=length_tol)
    return {
        "positions": r.as_dict(),
        "edge_lengths": el,
        "flex_dimension": rep.flex_dimension,
        "rank": rep.rank,
        "degenerate_flag": rep.degenerate_flag,
        "matches_type1": cls.matches_type1,
        "matches_type2": ["".join(p) for p in cls.matches_type2],
        "type3_residual": cls.type3_residual,
        "notes": cls.notes,
    }


def _build_from_job(job: JobSpec):
    p = job.payload
    if job.command == "build-type1":
        return builders.build_type1(p["points"]["A"], p["points"]["B"], p["points"]["F"],
                                    p["axis_point"], p["axis_direction"]), None
    if job.command == "build-type1-mirror":
        return builders.build_type1_mirror(p["points"]["A"], p["points"]["B"],
                                           p["points"]["F"], p["axis_point"],
                                           p["axis_direction"]), None
    if job.command == "build-type2":
        return builders.build_type2(p["points"]["C"], p["points"]["F"],
                                    p["points"]["A"], p["points"]["E"],
                                    p["plane_point"], p["plane_normal"]), None
    if job.command == "build-type3":
        construction, r = builders.build_type3_flat(
            p["triangle"]["A"], p["triangle"]["B"], p["triangle"]["C"],
            p["interior_point"])
        return r, construction
    raise AssertionError(job.command)


def _verify_report(path_obj: flexion.FlexionPath) -> dict:
    traces = verifiers.opposite_dihedral_trace(path_obj)
    hexes = verifiers.hexagon_traces(path_obj)
    mannheim = {}
    for base in ("ABC", "DEF"):
        res = verifiers.mannheim_residuals(path_obj.points, base)
        kept = res[~np.isnan(res)]  # nan where the planes are near parallel
        mannheim[base] = {"max": float(kept.max()) if kept.size else None,
                          "skipped_frames": int(res.size - kept.size)}
    fits = []
    if len(path_obj.frames) >= 3:
        for v in VERTICES:
            for pair in verifiers.vertex_opposite_pairs(v):
                fit = verifiers.dihedral_cos_line_fit(path_obj, v, pair)
                fits.append({"vertex": v, "pair": list(pair),
                             "max_residual": fit.max_residual,
                             "agreement": fit.agreement,
                             "degenerate": fit.degenerate})
    return {
        "opposite_dihedrals": [dataclasses.asdict(t) for t in traces],
        "hexagons": [{"hexagon": h.hexagon,
                      "max_side_variation": h.max_side_variation,
                      "max_angle_variation": h.max_angle_variation} for h in hexes],
        "mannheim_residuals": mannheim,
        "cosine_line_fits": fits,
    }


def _write_verify_csv(out_dir: Path, report: dict) -> None:
    rows = ["edge_pair,relation,dev_equal,dev_supplementary"]
    for t in report["opposite_dihedrals"]:
        rows.append(f"{t['pair'][0]}-{t['pair'][1]},{t['relation']},"
                    f"{t['dev_equal']!r},{t['dev_supplementary']!r}")
    (out_dir / "opposite_dihedrals.csv").write_text("\n".join(rows) + "\n")
    (out_dir / "verify_report.json").write_text(
        json.dumps(report, indent=2, default=_json_default) + "\n")


def run(job: JobSpec, out_dir=None) -> int:
    """Execute one job; returns the process exit status."""
    out = Path(out_dir or job.out or "flexoct_out")
    if (err := _out_error(out)) is not None:
        print(f"error: {err}", file=sys.stderr)
        return 1
    length_tol = job.tolerances.get("length_equality", 1e-9)
    summary: dict = {"command": job.command, "status": "ok"}
    if job.warnings:
        summary["warnings"] = job.warnings
    try:
        if job.command.startswith("build-"):
            r, construction = _build_from_job(job)
            out.mkdir(parents=True, exist_ok=True)
            write_obj(r, out / "realization.obj")
            summary["realization"] = _realization_report(r, length_tol)
            summary["files"] = ["realization.obj"]
            if construction is not None:
                summary["construction"] = dataclasses.asdict(construction)
        elif job.command == "classify":
            if "positions" in job.payload:
                r = Realization.from_dict(job.payload["positions"])
                summary["realization"] = _realization_report(r, length_tol)
            else:
                el = job.payload["edge_lengths"]
                cls = octahedron.classify_edge_lengths(el, tol=length_tol)
                summary["violations"] = octahedron.validate(el)
                summary["matches_type1"] = cls.matches_type1
                summary["matches_type2"] = ["".join(p) for p in cls.matches_type2]
                summary["notes"] = cls.notes
        elif job.command == "fourbar":
            co = planar_fourbar_coeffs(*job.payload["sides"])
            print("planar four-bar coefficients (a, b, c, d, e):",
                  tuple(co.as_tuple()))
            summary["coefficients"] = list(co.as_tuple())
        elif job.command in ("flex", "verify"):
            sources = ()
            if job.command == "verify" and "frames_dir" in job.payload:
                flat_tol = job.payload["drive"].get("flat_event_tol",
                                                    flexion.DriveSpec.flat_event_tol)
                path_obj, sources = _load_frames_dir(job.payload["frames_dir"], flat_tol)
            else:
                if "positions" in job.payload:
                    r = Realization.from_dict(job.payload["positions"])
                else:
                    r, _ = _build_from_job(job.payload["source"])
                path_obj = flexion.flex_path(r, flexion.DriveSpec(**job.payload["drive"]))
            summary["frames"] = len(path_obj.frames)
            summary["max_edge_deviation"] = float(np.max(path_obj.edge_deviation))
            summary["termination"] = path_obj.termination
            if "corrector" in path_obj.meta:
                summary["corrector"] = path_obj.meta["corrector"]
            summary["events"] = [dataclasses.asdict(ev) for ev in path_obj.events]
            summary["files"] = export_frames(path_obj, out, sources)
            if job.command == "verify":
                summary["frames_linked"] = summary["files"].linked
                report = _verify_report(path_obj)
                out.mkdir(parents=True, exist_ok=True)
                _write_verify_csv(out, report)
                summary["verify"] = report
                summary["files"] += ["opposite_dihedrals.csv", "verify_report.json"]
        else:
            raise AssertionError(job.command)
    except (flexion.NotFlexible, flexion.ContinuationStall,
            flexion.BranchAmbiguity) as exc:
        summary["status"] = "error"
        summary["error"] = {"type": type(exc).__name__, "message": str(exc)}
        partial = getattr(exc, "partial", None)
        if partial is not None:
            summary["frames"] = len(partial.frames)
            summary["max_edge_deviation"] = float(np.max(partial.edge_deviation))
            summary["corrector"] = partial.meta["corrector"]
            summary["files"] = export_frames(partial, out)
        _write_summary(out, summary)
        return 2
    except (ParseError, ValidationError, ValueError, IoError) as exc:
        summary["status"] = "error"
        summary["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _write_summary(out, summary)
        return 1
    _write_summary(out, summary)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ValidationError instead of exiting 2, the
    not-flexible and stall status."""

    def error(self, message):
        raise ValidationError("arguments", message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="flexoct",
        description="Construct, classify, flex, and verify articulated octahedra.")
    parser.add_argument("command", nargs="?", help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("--spec", help="JSON job specification (required)")
    parser.add_argument("--out", default=None, help="output directory")
    # parsing fills in the defaults first and then each argument, so a usage
    # error still finds --out when it came first
    args = argparse.Namespace()

    try:
        _, unknown = parser.parse_known_args(argv, args)
        if args.out is not None and (err := _out_error(Path(args.out))) is not None:
            raise err
        if args.command not in COMMANDS:
            raise ValidationError("command", f"expected one of {list(COMMANDS)}, "
                                             f"got {args.command!r}")
        if unknown:
            raise ValidationError("arguments", f"unknown command-line arguments {unknown}")
        if args.spec is None:
            raise ValidationError("arguments", "--spec is required")
        spec = load_spec(args.spec)
        for i, job in enumerate(spec if isinstance(spec, list) else [spec]):
            if job.command != args.command:
                where = f"sweep case {i}" if isinstance(spec, list) else "spec file"
                raise ValidationError("command", f"{where} says {job.command!r}, "
                                                 f"expected {args.command!r}")
    except (ParseError, ValidationError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        out = Path(args.out or "flexoct_out")
        if _out_error(out) is None:
            _write_summary(out, {
                "command": args.command, "status": "error",
                "error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1

    if isinstance(spec, list):
        base = Path(args.out or "flexoct_out")
        codes = [run(job, base / f"case_{i:03d}") for i, job in enumerate(spec)]
        return max(codes) if codes else 0
    return run(spec, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
