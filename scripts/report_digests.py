#!/usr/bin/env python3
"""Print a SHA-256 digest of every suite and reproduction report.

One line ``sha256  command`` for the ``--json`` report of each of the five
``verify`` suites and both ``reproduce`` commands, run in process with one
BLAS thread, at the default seed unless options such as ``--seed 7`` are
given (global options, put before every command).  One more line digests the
reports of the 288 ``quotient-norm`` requests of the benchmark's
``quotient`` workload (``perfbench/workloads.make_passes``) at the seed
the reports echo, concatenated in order; their input files are written
under a temporary directory that the script enters, so the paths the
reports echo are the same on every run.  After the digests, one line
``suite | row | deviation | passed`` follows for every ``verify`` row,
the deviation printed exactly (``repr``).  Diffing the output of two
checkouts shows which reports, and which rows, a change moved.  Exits 0
when every command exits 0.

    PYTHONPATH=src python scripts/report_digests.py
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

from realops.cli import run  # noqa: E402
from workloads import make_passes  # noqa: E402

COMMANDS = [["verify", suite] for suite in
            ("linalg", "opspace", "quantization", "mideal", "systems")] + \
    [["reproduce", name] for name in ("l12-nonunique", "complex-dual")]

if __name__ == "__main__":
    worst, rows = 0, []
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            worst = max(worst, run(["--json"] + sys.argv[1:] + command))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{digest}  {' '.join(command)}")
        report = json.loads(out.getvalue())
        seed = report["config"]["seed"]
        if command[0] == "verify":
            rows += [f"{suite} | {row['name']} | {row['deviation']!r} | "
                     f"{row['passed']}"
                     for suite, checks in report.get("result", {}).items()
                     for row in checks]
    out, here = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        requests = [r for p in make_passes("quotient", seed, "q") for r in p]
        with contextlib.redirect_stdout(out):
            for request in requests:
                worst = max(worst, run(request.argv))
        os.chdir(here)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(f"{digest}  quotient-norm x{len(requests)} (benchmark quotient "
          f"workload, seed {seed})")
    print("\n".join(rows))
    sys.exit(worst)
