#!/usr/bin/env python3
"""Print a SHA-256 digest of every suite and reproduction report.

One line ``sha256  command`` for the ``--json`` report of each of the five
``verify`` suites and both ``reproduce`` commands, run in process with one
BLAS thread, at the default seed unless options such as ``--seed 7`` are
given (global options, put before every command).  One more line digests the
reports of the 288 ``quotient-norm`` requests of the benchmark's
``quotient`` workload (``perfbench/workloads.make_passes``) at the seed
the reports echo, concatenated in order, and a last line the
``certify-mproj`` reports of three refuted projections (CERTIFICATES),
concatenated in order, and one more the ``choi-effros`` reports of the
re-products in REPRODUCTS, concatenated in order.  Input files are written
under a temporary directory that the script enters, so the paths the
reports echo are the same on every run.
After the digests, one line ``suite | row | deviation | passed`` follows
for every ``verify`` row, the deviation printed exactly (``repr``), one
line ``certify-mproj | name | verdict | check | level | observed`` for
every certificate, and one line ``choi-effros | name | passed`` followed
by the associativity, unit-law, involution, C*-identity and bimodule
deviations for every re-product.  Diffing the output of two checkouts
shows which reports, rows, certificates and re-products a change moved.
Exits 0 when every command exits 0 or, for a certificate or a re-product,
1 (refuted, or a law fails).

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

import numpy as np  # noqa: E402

from realops.cli import run  # noqa: E402
from realops.opspace import (full_matrix_space, opspace_to_json,  # noqa: E402
                             span_space)
from realops.systems import algebra_to_json, op_algebra  # noqa: E402
from workloads import make_passes  # noqa: E402

COMMANDS = [["verify", suite] for suite in
            ("linalg", "opspace", "quantization", "mideal", "systems")] + \
    [["reproduce", name] for name in ("l12-nonunique", "complex-dual")]

M2 = opspace_to_json(full_matrix_space(2))
T2 = opspace_to_json(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                 [[0, 0], [0, 1]]]))
#: name -> (space, projection coefficient matrix) of each certificate
CERTIFICATES = {
    "symmetrization": (M2, [[1, 0, 0, 0], [0, .5, .5, 0], [0, .5, .5, 0],
                            [0, 0, 0, 1]]),
    "oblique-multiplier": (M2, np.kron([[1.0, 1.0], [0.0, 0.0]],
                                       np.eye(2)).tolist()),
    "t2-e12-coefficient": (T2, np.diag([0.0, 1.0, 0.0]).tolist()),
}


def _bimodule_defect():
    """M2(R) whose product E12 E11 gains 0.25 E11, as algebra JSON."""
    s = op_algebra(full_matrix_space(2)).structure.copy()
    s[1, 0, 0] += 0.25
    return algebra_to_json(op_algebra(full_matrix_space(2), s))


DIAG = np.diag([1.0, 0.0, 0.0, 1.0]).tolist()
#: name -> (algebra, idempotent coefficient matrix) of each re-product
REPRODUCTS = {
    "diagonal-expectation": (M2, DIAG),
    "normalized-trace": (M2, [[.5, 0, 0, .5], [0, 0, 0, 0], [0, 0, 0, 0],
                              [.5, 0, 0, .5]]),
    "bimodule-defect": (_bimodule_defect(), DIAG),
}
REPRODUCT_DEVIATIONS = ("associativity", "unit_law", "involution",
                        "cstar_identity", "bimodule")


def matrix_reports(command, flags, entries, options):
    """The ``command`` report text of every ``entries`` item, name ->
    (JSON object, coefficient matrix), passed as the two files of
    ``flags``, in order, and the worst exit code other than 1; the input
    files are written to the working directory."""
    worst, texts = 0, []
    for name, (obj, matrix) in entries.items():
        paths = [f"{name}-{flag}.json" for flag in flags]
        for path, content in zip(paths, (obj, {"matrix": matrix})):
            with open(path, "w") as fh:
                json.dump(content, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["--json"] + options + [
                command, f"--{flags[0]}", paths[0], f"--{flags[1]}",
                paths[1]])
        worst = max(worst, 0 if code == 1 else code)
        texts.append(out.getvalue())
    return worst, texts


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
        cert_worst, certs = matrix_reports(
            "certify-mproj", ("space", "proj"), CERTIFICATES, sys.argv[1:])
        ce_worst, reprods = matrix_reports(
            "choi-effros", ("algebra", "idempotent"), REPRODUCTS,
            sys.argv[1:])
        worst = max(worst, cert_worst, ce_worst)
        os.chdir(here)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(f"{digest}  quotient-norm x{len(requests)} (benchmark quotient "
          f"workload, seed {seed})")
    digest = hashlib.sha256("".join(certs).encode()).hexdigest()
    print(f"{digest}  certify-mproj x{len(certs)} ({', '.join(CERTIFICATES)})")
    digest = hashlib.sha256("".join(reprods).encode()).hexdigest()
    print(f"{digest}  choi-effros x{len(reprods)} ({', '.join(REPRODUCTS)})")
    print("\n".join(rows))
    for name, text in zip(CERTIFICATES, certs):
        cert = json.loads(text)["result"]
        print(f"certify-mproj | {name} | {cert['verdict']} | "
              f"{cert['check']} | {cert['levels_checked']} | "
              f"{cert['observed']!r}")
    for name, text in zip(REPRODUCTS, reprods):
        rep = json.loads(text)
        devs = " | ".join(repr(rep["result"][f"{law}_deviation"])
                          for law in REPRODUCT_DEVIATIONS)
        print(f"choi-effros | {name} | {rep['passed']} | {devs}")
    sys.exit(worst)
