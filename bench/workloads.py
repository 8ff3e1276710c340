"""The benchmark workloads, their jobs and the output checks.

A workload's set-up turns a seed into a list of jobs.  A job makes one
timed call into the program (one ``flex_path`` call, one rigid-twin
rejection or one ``verify`` job), then checks the output against the
acceptance suite's gates, outside the timed region, and returns an Outcome.
Any exception other than the expected ``NotFlexible`` of a rigid twin, and
any gate miss, makes the outcome a failure.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from flexoct import cli, flexion
from flexoct.octahedron import EDGE_ORDER, VERTICES

from inputs import TYPE1_PAIRS, TYPE2_PAIRS, Case, digest, make_cases

SMOOTH_DRIVE = flexion.DriveSpec(max_steps=200)
FLAT_DRIVE = flexion.DriveSpec(max_steps=2000, initial_step=0.01, max_step=0.02,
                               stop_after_flat_events=2)

# acceptance gates (tests/test_acceptance.py, criteria 3 to 8 and 11)
EDGE_DEV_GATE = {"type1": 1e-9, "type2": 1e-9, "type3": 1e-8}
PAIR_GATE = 1e-8
DIHEDRAL_RANGE_GATE = 1e-3
CEVA_GATE = 1e-10
LEFT_FLAT_GATE = 1e-4
MANNHEIM_GATE = 1e-6
HEXAGON_SIDE_GATE = 1e-9
HEXAGON_ANGLE_GATE = 1e-8
FIT_RESIDUAL_GATE = 1e-8
FIT_AGREEMENT_GATE = 1e-6

_VIDX = {v: i for i, v in enumerate(VERTICES)}
_EDGE_I = np.array([_VIDX[e[0]] for e in EDGE_ORDER])
_EDGE_J = np.array([_VIDX[e[1]] for e in EDGE_ORDER])


@dataclass
class Outcome:
    frames: int                 # frames produced or verified
    seconds: float              # time of the call into the program
    sample: bool                # counts as a case-time sample
    failure: str | None = None
    edge_dev: float = 0.0       # recomputed from positions, against frame 0
    flat_events: int = 0
    bytes_written: int = 0
    wall: float = 0.0           # uncalibrated wall time, set by the run loop


def edge_deviation(points: np.ndarray) -> float:
    """Largest relative edge-length change from frame 0, over (F, 6, 3) frames."""
    lengths = np.linalg.norm(points[:, _EDGE_I] - points[:, _EDGE_J], axis=2)
    return float(np.max(np.abs(lengths - lengths[0]) / lengths[0]))


def _failed(t0: float, exc: Exception) -> Outcome:
    return Outcome(0, time.perf_counter() - t0, True, f"{type(exc).__name__}: {exc}")


class FlexJob:
    """One ``flex_path`` call on a flexible realization."""

    def __init__(self, case: Case, drive: flexion.DriveSpec):
        self.case = case
        self.drive = drive

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        try:
            path = flexion.flex_path(self.case.realization, drive=self.drive)
        except Exception as exc:  # any error is a failed case, never a crash
            return _failed(t0, exc)
        seconds = time.perf_counter() - t0
        return self.check(path, seconds)

    def check(self, path: flexion.FlexionPath, seconds: float) -> Outcome:
        kind = self.case.kind
        dev = edge_deviation(np.stack([f.realization.points for f in path.frames]))
        events = len(path.flat_events())
        problems = []
        if not dev <= EDGE_DEV_GATE[kind]:
            problems.append(f"edge deviation {dev:.2e}")
        if kind == "type3":
            if events < 2:
                problems.append(f"{events} flat events")
            if max(f.flat_measure for f in path.frames) < LEFT_FLAT_GATE:
                problems.append("never left the flat state")
            if not self.case.ceva_residual <= CEVA_GATE:
                problems.append(f"ceva residual {self.case.ceva_residual:.2e}")
        else:
            if len(path.frames) != self.drive.max_steps + 1:
                problems.append(f"{len(path.frames)} frames ({path.termination})")
            for e1, e2 in TYPE1_PAIRS if kind == "type1" else TYPE2_PAIRS:
                c1 = np.cos(path.dihedral_series(e1))
                c2 = np.cos(path.dihedral_series(e2))
                pair = min(np.max(np.abs(c1 - c2)), np.max(np.abs(c1 + c2)))
                if not pair <= PAIR_GATE:
                    problems.append(f"opposite dihedrals {e1}/{e2} off by {pair:.2e}")
            if kind == "type1":
                for e in EDGE_ORDER:
                    series = np.unwrap(path.dihedral_series(e))
                    if series.max() - series.min() < DIHEDRAL_RANGE_GATE:
                        problems.append(f"dihedral {e} did not move")
        return Outcome(len(path.frames), seconds, True, "; ".join(problems) or None,
                       dev, events)


class TwinJob:
    """The rigid mirror twin of a type 1 case; ``flex_path`` must refuse it."""

    def __init__(self, twin):
        self.twin = twin

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        try:
            flexion.flex_path(self.twin, drive=SMOOTH_DRIVE)
            failure = "rigid twin flexed"
        except flexion.NotFlexible:
            failure = None
        except Exception as exc:  # any other error is a failed case
            failure = f"{type(exc).__name__}: {exc}"
        return Outcome(0, time.perf_counter() - t0, False, failure)


def read_vertices(path: Path) -> np.ndarray:
    """The six vertices of an exported OBJ frame, parsed independently of the CLI."""
    rows = [line.split()[1:4] for line in path.read_text().splitlines()
            if line.startswith("v ")]
    return np.array(rows, dtype=float)


class VerifyJob:
    """One ``flexoct verify`` job over an exported frames directory."""

    def __init__(self, spec: Path, out: Path, frames: int):
        self.spec = spec
        self.out = out
        self.frames = frames

    def run(self) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            code = cli.main(["verify", "--spec", str(self.spec), "--out", str(self.out)])
        except Exception as exc:  # any error is a failed case, never a crash
            return _failed(t0, exc)
        seconds = time.perf_counter() - t0
        return self.check(code, seconds)

    def check(self, code: int, seconds: float) -> Outcome:
        problems = [] if code == 0 else [f"exit status {code}"]
        try:
            summary = json.loads((self.out / "summary.json").read_text())
            objs = sorted(self.out.glob("frame_*.obj"))
            points = np.stack([read_vertices(p) for p in objs])
        except (OSError, ValueError) as exc:
            return Outcome(0, seconds, True, f"unreadable output: {exc}")
        if summary.get("status") != "ok" or summary.get("frames") != self.frames:
            problems.append(f"summary status {summary.get('status')}, "
                            f"{summary.get('frames')} frames")
        if len(objs) != self.frames:
            problems.append(f"{len(objs)} frames written")
        dev = edge_deviation(points)
        if not dev <= EDGE_DEV_GATE["type1"]:
            problems.append(f"edge deviation {dev:.2e}")
        report = summary.get("verify", {})
        mannheim = report.get("mannheim_residuals", {})
        hexagons = report.get("hexagons", [])
        fits = report.get("cosine_line_fits", [])
        if set(mannheim) != {"ABC", "DEF"} or len(hexagons) != 4 or len(fits) != 12:
            problems.append("verify report incomplete")
        for base, res in mannheim.items():
            if res["max"] is None or not res["max"] <= MANNHEIM_GATE:
                problems.append(f"mannheim residual on {base}: {res['max']}")
        for h in hexagons:
            if not (h["max_side_variation"] <= HEXAGON_SIDE_GATE
                    and h["max_angle_variation"] <= HEXAGON_ANGLE_GATE):
                problems.append(f"hexagon {h['hexagon']} varies")
        for fit in fits:
            if not (fit["max_residual"] <= FIT_RESIDUAL_GATE
                    and fit["agreement"] <= FIT_AGREEMENT_GATE):
                problems.append(f"cosine line at {fit['vertex']} off")
        written = sum(p.stat().st_size for p in self.out.iterdir())
        return Outcome(len(objs), seconds, True, "; ".join(problems) or None,
                       dev, bytes_written=written)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], tuple[list, str]]  # (seed, work dir) -> (jobs, digest)


SMOOTH_CASES = 12     # per family
FLAT_CASES = 14
VERIFY_CASES = 3      # per family


def _setup_smooth(seed: int, work: Path) -> tuple[list, str]:
    type1 = make_cases("type1", SMOOTH_CASES, seed)
    type2 = make_cases("type2", SMOOTH_CASES, seed)
    jobs = []
    for c1, c2 in zip(type1, type2):
        jobs += [FlexJob(c1, SMOOTH_DRIVE), TwinJob(c1.twin), FlexJob(c2, SMOOTH_DRIVE)]
    return jobs, digest(type1 + type2)


def _setup_flat(seed: int, work: Path) -> tuple[list, str]:
    cases = make_cases("type3", FLAT_CASES, seed)
    return [FlexJob(c, FLAT_DRIVE) for c in cases], digest(cases)


def _setup_verify(seed: int, work: Path) -> tuple[list, str]:
    cases = (make_cases("type1", VERIFY_CASES, seed)
             + make_cases("type2", VERIFY_CASES, seed))
    shutil.rmtree(work, ignore_errors=True)
    jobs = []
    for i, case in enumerate(cases):
        frames_dir = work / f"frames_{i:02d}"
        path = flexion.flex_path(case.realization, drive=SMOOTH_DRIVE)
        cli.export_frames(path, frames_dir)
        spec = work / f"verify_{i:02d}.json"
        spec.write_text(json.dumps({"command": "verify", "frames_dir": str(frames_dir)}))
        jobs.append(VerifyJob(spec, work / f"out_{i:02d}", len(path.frames)))
    return jobs, digest(cases)


WORKLOADS = {
    w.name: w for w in (
        Workload("smooth_flex",
                 "flex_path on half-turn and mirror-plane paths plus rigid twins: "
                 "the main job, where corrector, null-space SVD and per-frame "
                 "dihedral speedups must show",
                 _setup_smooth),
        Workload("flat_events",
                 "flex_path on flat-to-flat paths: mostly flat-event refinement "
                 "probes, the control for per-frame speedups that slow probes",
                 _setup_flat),
        Workload("verify_frames",
                 "flexoct verify over exported frames: OBJ reads, dihedrals, "
                 "verifiers and writes, no flexion; corrector speedups leave it alone",
                 _setup_verify),
    )
}
