"""flexoct benchmark: fixed-seed workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload smooth_flex --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
``--workload all`` runs every workload in one process.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of a traced run, which measures half the time untraced
and half traced, so the tracing overhead is measured too.  Human-readable
lines come first; the last line of standard output is one JSON object.

The load is closed-loop and single-threaded: one case at a time, BLAS
pinned to one thread.  A run repeats whole passes over the workload's cases
until the calls into the program have taken ``--seconds`` (calibrated, see
below).  Nothing in the program waits on another thread or process, so no
wait times are recorded.

Timings are calibrated to a reference machine speed.  Before and after
every timed call the benchmark times a fixed probe of small-array numpy
and Python work, the same mix the program runs, and scales the call's wall
time by REFERENCE_PROBE_S over the probe's time around it.  On a shared
host whose speed swings by a quarter within a minute this keeps the
figures of one code version steady from run to run; the uncalibrated wall
clock figures are printed alongside.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "_work"
# median probe time, between calls into the program, on the 2-core Intel Xeon
# VM the baseline was measured on
REFERENCE_PROBE_S = 0.0024
_rng = np.random.default_rng(0)
_PROBE_POINTS = _rng.normal(size=(6, 3))
_PROBE_MATRIX = _rng.normal(size=(19, 18))
_PROBE_RHS = _rng.normal(size=19)


def _probe_once() -> float:
    t0 = time.perf_counter()
    for _ in range(10):
        for i in range(6):
            d = _PROBE_POINTS[i] - _PROBE_POINTS[(i + 1) % 6]
            float(np.cross(d, _PROBE_POINTS[(i + 2) % 6]) @ d) / np.linalg.norm(d)
    np.linalg.lstsq(_PROBE_MATRIX, _PROBE_RHS, rcond=None)
    np.linalg.svd(_PROBE_MATRIX)
    return time.perf_counter() - t0


def probe() -> float:
    """Median time of three runs of the fixed probe: the machine's speed now."""
    return statistics.median(_probe_once() for _ in range(3))


def calibrated(fn):
    """Call fn between two probes; (result, its wall seconds, the factor that
    turns seconds measured meanwhile into seconds at the reference speed)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, 2.0 * REFERENCE_PROBE_S / (before + probe())


# set-up is timed before and after measuring, so that its median does not
# hang on one short stretch of the machine's speed
SETUP_SECONDS = 1.0


def load_program() -> None:
    """Import flexoct from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flexoct
    if not Path(flexoct.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flexoct imported from {flexoct.__file__}, not {src}")


def timed_setups(workload, seed: int, work: Path, repeats: int) -> tuple[list, str, list]:
    """Set up at least ``repeats`` times and for SETUP_SECONDS (at most 50
    times); (jobs, digest, set-up times)."""
    times: list[float] = []
    while len(times) < repeats or (sum(times) < SETUP_SECONDS and len(times) < 50):
        (jobs, digest), wall, factor = calibrated(lambda: workload.setup(seed, work))
        times.append(wall * factor)
    return jobs, digest, times


def measure(jobs: list, seconds: float, tracer=None) -> tuple[list, int]:
    """Whole passes over the jobs until their calibrated time reaches
    ``seconds``, so the pass count does not follow the machine's speed;
    (outcomes, passes)."""
    outcomes = []
    passes = 0
    while passes == 0 or sum(o.seconds for o in outcomes) < seconds:
        for case, job in enumerate(jobs):
            if tracer is not None:
                tracer.case = case
            # the job times its call into the program, not its output checks
            outcome, _, factor = calibrated(job.run)
            outcome.wall, outcome.seconds = outcome.seconds, outcome.seconds * factor
            outcomes.append(outcome)
        passes += 1
    return outcomes, passes


def frames_per_s(outcomes: list, jobs: int) -> float:
    """Frames per second of one pass, from each job's median over the passes;
    the medians keep a slow spell of the machine from moving the rate."""
    per_job = [outcomes[j::jobs] for j in range(jobs)]
    frames = sum(statistics.median(o.frames for o in runs) for runs in per_job)
    return frames / sum(statistics.median(o.seconds for o in runs) for runs in per_job)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it, and
    its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 10 if n > 10 else n
    return ordered[k - 1], 100.0 * k / n


def end_to_end(outcomes: list, jobs: int,
               setup_times: list[float]) -> tuple[dict, list[str]]:
    times = [o.seconds for o in outcomes if o.sample]
    tail_s, tail_pct = tail(times)
    failed = sum(o.failure is not None for o in outcomes)
    metrics = {
        "frames_per_s": (frames_per_s(outcomes, jobs), "1/s"),
        "case_s_p50": (statistics.median(times), "s"),
        "case_s_tail": (tail_s, "s"),
        "ok_ratio": (1.0 - failed / len(outcomes), "ratio"),
        "max_edge_dev": (max(o.edge_dev for o in outcomes), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = [dataclasses.replace(o, seconds=o.wall) for o in outcomes]
    notes = [f"case_s_p50 over {len(times)} case samples",
             f"case_s_tail is p{tail_pct:.1f} of {len(times)} case samples",
             f"setup_s is the median of {len(setup_times)} set-ups",
             f"uncalibrated wall clock: frames_per_s {frames_per_s(wall, jobs):.6g}, "
             f"case_s_p50 {statistics.median(o.wall for o in outcomes if o.sample):.6g} s; "
             f"median calibration factor "
             f"{statistics.median(o.seconds / o.wall for o in outcomes):.4g}"]
    return metrics, notes


def per_layer(totals: dict, outcomes: list, passes: int, build_s: float,
              overhead: float) -> dict:
    """Per-layer metrics from the traced phase, per pass over the cases."""
    def calls(name):
        return totals.get(name, (0, 0.0))[0] / passes

    def own(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names) / passes

    frames = sum(o.frames for o in outcomes) / passes
    m = {"flexion.flex_path.self_s": (own("flexion.flex_path"), "s"),
         "flexion.lstsq.calls": (calls("flexion.lstsq"), "count"),
         "flexion.lstsq.self_s": (own("flexion.lstsq"), "s"),
         "flexion.lstsq_per_frame": (calls("flexion.lstsq") / frames if frames else 0.0,
                                     "ratio"),
         "flexion.flat_events": (sum(o.flat_events for o in outcomes) / passes, "count")}
    for name in ("flexion.svd", "flexion.rigidity_matrix", "flexion.flex_dimension",
                 "octahedron.all_dihedrals", "octahedron.dihedral_angle",
                 "octahedron.facet_normal", "octahedron.coplanarity_measure",
                 "verifiers.mannheim_point", "verifiers.hexagon_traces",
                 "verifiers.opposite_dihedral_trace", "verifiers.dihedral_cos_line_fit",
                 "linkage.opposite_dihedral_line", "cli.read_obj"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (own(name), "s")
    m["verifiers.linalg.self_s"] = (own("verifiers.lstsq", "verifiers.svd",
                                        "verifiers.solve"), "s")
    m["cli.export_frames.self_s"] = (own("cli.export_frames"), "s")
    m["cli.run.self_s"] = (own("cli.run"), "s")
    m["cli.bytes_written"] = (sum(o.bytes_written for o in outcomes) / passes, "B")
    m["builders.build.self_s"] = (build_s, "s")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Set up and measure one workload; (metrics, outcomes)."""
    from spans import Tracer, totals

    work = WORK / f"{workload.name}_{os.getpid()}"
    try:
        if not trace:
            jobs, digest, before = timed_setups(workload, seed, work, 2)
            outcomes, passes = measure(jobs, seconds)
            metrics, notes = end_to_end(outcomes, len(jobs),
                                        before + timed_setups(workload, seed, work, 1)[2])
        else:
            tracer = Tracer()
            with tracer:
                jobs, digest = workload.setup(seed, work)
            build_s = sum(own for name, (_, own) in totals(tracer.spans).items()
                          if name.startswith("builders."))
            tracer.spans.clear()
            plain, _ = measure(jobs, seconds / 2.0)
            with tracer:
                traced, passes = measure(jobs, seconds / 2.0, tracer)
            WORK.mkdir(parents=True, exist_ok=True)
            tracer.write(WORK / f"spans_{workload.name}.csv.gz")
            overhead = frames_per_s(traced, len(jobs)) / frames_per_s(plain, len(jobs))
            metrics = per_layer(totals(tracer.spans), traced, passes, build_s, overhead)
            outcomes = plain + traced
            notes = [f"per-layer values are per pass over {len(jobs)} jobs "
                     f"({passes} traced passes); spans in "
                     f"bench/_work/spans_{workload.name}.csv.gz"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"== {workload.name}  seed {seed}  inputs sha256 {digest}")
    print(f"   why: {workload.why}")
    if not trace:
        print(f"   {len(jobs)} jobs, {passes} passes, closed loop, one thread; "
              "no wait times: nothing waits on another thread or process")
    for note in notes:
        print(f"   {note}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:40s} {value:.6g} {unit}")
    for o in outcomes:
        if o.failure:
            print(f"   FAILED: {o.failure}")
    return metrics, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or all")

    metrics: dict = {}
    attempted = failed = 0
    for workload in chosen:
        m, outcomes = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        prefix = "" if len(chosen) == 1 else f"{workload.name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        attempted += len(outcomes)
        failed += sum(o.failure is not None for o in outcomes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
