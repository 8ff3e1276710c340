"""Run the benchmark once per seed and summarize the spread of each metric.

    python3 bench/repeat.py --workloads smooth_flex flat_events --seeds 1 2 3 4 5
    python3 bench/repeat.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/baseline.json

Each run is a separate ``bench/run.py`` process, one after another.  For
every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles over the median, next to the metric's bound
from BENCHMARK.json.  ``--out`` also records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    import numpy as np
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": "1 (bench/run.py sets OPENBLAS_NUM_THREADS, "
                            "OMP_NUM_THREADS and MKL_NUM_THREADS to 1)"}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write the record as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900, check=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["inputs_sha256"] = next(line.split()[-1] for line in lines
                                           if "inputs sha256" in line)
            runs.append(result)
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        stats = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            stats[metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                             "median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
            flag = "ok" if spread < bounds[metric] / 3 else "WIDE"
            print(f"  {metric:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[metric]}  {flag}")
            print("    values " + " ".join(f"{v:.4g}" for v in values))
        record["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs),
            "inputs_sha256": [r["inputs_sha256"] for r in runs], "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
