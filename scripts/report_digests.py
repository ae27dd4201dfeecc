#!/usr/bin/env python3
"""Print a SHA-256 digest of every suite and reproduction report.

One line ``sha256  command`` for the ``--json`` report of each of the five
``verify`` suites and both ``reproduce`` commands, run in process with one
BLAS thread, at the default seed unless options such as ``--seed 7`` are
given (they are passed to every command).  After the digests, one line
``suite | row | deviation | passed`` follows for every ``verify`` row,
the deviation printed exactly (``repr``).  Diffing the output of two
checkouts shows which reports, and which rows, a change moved.  Exits 0
when every command exits 0.

    PYTHONPATH=src python scripts/report_digests.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from realops.cli import run  # noqa: E402

COMMANDS = [["verify", suite] for suite in
            ("linalg", "opspace", "quantization", "mideal", "systems")] + \
    [["reproduce", name] for name in ("l12-nonunique", "complex-dual")]

if __name__ == "__main__":
    worst, rows = 0, []
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            worst = max(worst, run(["--json"] + command + sys.argv[1:]))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{digest}  {' '.join(command)}")
        if command[0] == "verify":
            result = json.loads(out.getvalue()).get("result", {})
            rows += [f"{suite} | {row['name']} | {row['deviation']!r} | "
                     f"{row['passed']}"
                     for suite, checks in result.items() for row in checks]
    print("\n".join(rows))
    sys.exit(worst)
