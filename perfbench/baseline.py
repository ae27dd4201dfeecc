"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

Run from the root of a checkout::

    python3 perfbench/baseline.py            # about 25 minutes on 2 cores

For every workload: one untraced and one traced run at the default seed
give the end-to-end and per-layer values; untraced runs at the held-out
seeds and others, one run per seed, give each end-to-end metric's median
and spread (interquartile range over median).  Runs are made one at a
time, each in its own process, as ``run.py`` is run on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HELD_OUT = (1, 0x5EED)
SPREAD_SEEDS = HELD_OUT + tuple(range(2, 10))


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed:#x}: checks failed\n"
                         f"{proc.stdout}")
    return result["metrics"]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": round(median, 4),
            "iqr_over_median": round((q3 - q1) / median, 4),
            "runs": len(values)}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", blas["name"]),
            "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS="
                            "MKL_NUM_THREADS=1, set by run.py"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--commit", default="",
                        help="the realops commit measured, for the record")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    out = {
        "about": "Baseline of the realops benchmark"
                 + (f" at commit {args.commit}" if args.commit else "")
                 + ", written by perfbench/baseline.py. End-to-end values "
                 "come from one untraced run per workload at the default "
                 "seed, per-layer values from one traced run; the spread "
                 "is the interquartile range over the median of untraced "
                 "runs, one per seed.",
        "machine": machine(),
        "run_seconds": args.seconds,
        "seeds": {"default": hex(DEFAULT_SEED),
                  "held_out": [hex(s) for s in HELD_OUT],
                  "spread": [hex(s) for s in SPREAD_SEEDS]},
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {"why": why[workload],
                 "end_to_end": measure(workload, DEFAULT_SEED,
                                       args.seconds, 0),
                 "per_layer": measure(workload, DEFAULT_SEED,
                                      args.seconds, 1)}
        runs = [measure(workload, seed, args.seconds, 0)
                for seed in SPREAD_SEEDS]
        entry["spread"] = {name: spread([r[name]["value"] for r in runs])
                           for name in runs[0]}
        out["workloads"][workload] = entry
        print(workload, json.dumps(entry["spread"]), flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
