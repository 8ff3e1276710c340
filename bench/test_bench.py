"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
from pathlib import Path

import numpy as np

import run

run.load_program()

from flexoct import cli, flexion, octahedron  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from inputs import make_cases  # noqa: E402

SHORT = flexion.DriveSpec(max_steps=30)


def test_self_times_subtract_child_spans():
    tree = [["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["a.inner", 2.0, 3.0, 1, 0],
            ["b", 5.0, 7.0, 0, 0],
            ["a", 8.0, 9.5, 0, 0]]
    assert spans.self_times(tree) == [3.5, 2.0, 1.0, 2.0, 1.5]
    assert spans.totals(tree) == {"root": (1, 3.5), "a": (2, 3.5),
                                  "a.inner": (1, 1.0), "b": (1, 2.0)}


def test_tail_keeps_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(24)])
    assert value == 13.0 and round(pct, 1) == 58.3
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_patches_every_binding_and_restores():
    case = make_cases("type1", 1, seed=5)[0]
    original = octahedron.all_dihedrals
    with spans.Tracer() as tracer:
        assert flexion.all_dihedrals is octahedron.all_dihedrals is not original
        flexion.flex_dimension(case.realization)
    assert flexion.all_dihedrals is octahedron.all_dihedrals is original
    names = {s[0]: s for s in tracer.spans}
    parent = names["flexion.flex_dimension"]
    assert tracer.spans[names["flexion.svd"][3]] is parent
    assert tracer.spans[names["octahedron.svd"][3]] is names["octahedron.coplanarity_measure"]


def test_traced_and_untraced_paths_export_identical_csv(tmp_path):
    case = make_cases("type1", 1, seed=5)[0]
    cli.export_frames(flexion.flex_path(case.realization, drive=SHORT), tmp_path / "plain")
    with spans.Tracer() as tracer:
        cli.export_frames(flexion.flex_path(case.realization, drive=SHORT),
                          tmp_path / "traced")
    assert tracer.spans
    plain = (tmp_path / "plain" / "path.csv").read_bytes()
    assert plain == (tmp_path / "traced" / "path.csv").read_bytes()


def _verify_job(tmp_path: Path) -> workloads.VerifyJob:
    case = make_cases("type2", 1, seed=5)[0]
    path = flexion.flex_path(case.realization, drive=SHORT)
    cli.export_frames(path, tmp_path / "frames")
    spec = tmp_path / "verify.json"
    spec.write_text(json.dumps({"command": "verify",
                                "frames_dir": str(tmp_path / "frames")}))
    return workloads.VerifyJob(spec, tmp_path / "out", len(path.frames))


def test_verify_job_passes_on_exported_frames(tmp_path):
    outcome = _verify_job(tmp_path).run()
    assert outcome.failure is None
    assert outcome.frames == 31 and outcome.bytes_written > 0


def test_nudged_vertex_in_one_frame_is_a_failure(tmp_path):
    job = _verify_job(tmp_path)
    obj = tmp_path / "frames" / "frame_0005.obj"
    lines = obj.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("v "))
    x, y, z = (float(v) for v in lines[i].split()[1:])
    lines[i] = f"v {x + 1e-6} {y} {z}"
    obj.write_text("\n".join(lines) + "\n")
    outcome = job.run()
    assert outcome.failure is not None and "edge deviation" in outcome.failure


def test_reported_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    outcomes = [workloads.Outcome(10, 0.1 * (k + 1), True, edge_dev=1e-13,
                                  wall=0.2 * (k + 1)) for k in range(12)]
    e2e, _ = run.end_to_end(outcomes, 3, [0.5])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]
    layers = run.per_layer({}, outcomes, 1, 0.1, 0.9)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert layers[m["name"]][1] == m["unit"]
    assert np.isfinite([v for v, _ in layers.values()]).all()
