#!/usr/bin/env python3
"""Time fresh realops processes, one command each, for one or more trees.

Each command runs ``--runs`` times in a fresh interpreter per ``src``
tree, the trees alternating which goes first from run to run, and the
script prints the min and median wall time of each command and tree,
then one JSON object with every sample.  The commands are the import of
the CLI alone, both ``reproduce`` commands (``complex-dual`` at 16
restarts), one ``quotient-norm`` over M2(R) and ``verify linalg``; each
but the import writes its ``--json`` report to /dev/null and must exit 0.
The quotient-norm inputs are written to a temporary directory, where
every process starts.

The processes inherit the environment, apart from one BLAS thread and
``PYTHONPATH`` set to the tree, so the bytecode cache state is the
caller's: under ``PYTHONDONTWRITEBYTECODE=1`` a tree with no
``__pycache__`` compiles every module it loads in every process, and
after ``python -m compileall <src>`` none.  From the repository root,
comparing a second checkout with this one:

    PYTHONDONTWRITEBYTECODE=1 python scripts/cold_start.py --runs 12 \\
        ../parent/src src
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: M2(R) with its matrix-unit basis, the subspace spanned by E11 and an
#: element at level 1
SPACE = {"ambient": {"rows": 2, "cols": 2}, "complexified": False,
         "basis": [{"rows": 2, "cols": 2, "entries": e} for e in (
             [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
             [[0, 0], [0, 1]])]}
SUBSPACE = {"coeffs": [[1.0, 0.0, 0.0, 0.0]]}
ELEM = {"level": 1, "coeffs": [[[0.3, 1.0, -0.7, 0.2]]]}

RUN_CLI = "from realops.cli import main; main()"

#: name -> interpreter arguments
COMMANDS = {
    "import realops.cli": ["-c", "import realops.cli"],
    "reproduce l12-nonunique": ["-c", RUN_CLI, "--json", "reproduce",
                                "l12-nonunique"],
    "reproduce complex-dual": ["-c", RUN_CLI, "--json", "reproduce",
                               "complex-dual", "--restarts", "16"],
    "quotient-norm": ["-c", RUN_CLI, "--json", "quotient-norm", "--space",
                      "space.json", "--subspace", "subspace.json",
                      "--elem", "elem.json"],
    "verify linalg": ["-c", RUN_CLI, "--json", "verify", "linalg"],
}


def timed(args, src, cwd) -> float:
    """Seconds from spawning ``python args`` with ``src`` on the path to
    its exit, which must be 0."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} under {src} exited {proc.returncode}: "
                           f"{proc.stderr}")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="*",
                        default=[os.path.join(ROOT, "src")],
                        help="src directories to time (default: this "
                             "checkout's)")
    parser.add_argument("--runs", type=int, default=12,
                        help="fresh processes per command and tree")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = args.src
    samples = {name: {src: [] for src in trees} for name in COMMANDS}
    with tempfile.TemporaryDirectory() as work:
        for filename, obj in (("space.json", SPACE),
                              ("subspace.json", SUBSPACE),
                              ("elem.json", ELEM)):
            with open(os.path.join(work, filename), "w") as fh:
                json.dump(obj, fh)
        for run in range(args.runs):
            order = trees if run % 2 == 0 else trees[::-1]
            for name, command in COMMANDS.items():
                for src in order:
                    samples[name][src].append(timed(command, src, work))
    width = max(map(len, COMMANDS))
    print(f"{'command':<{width}}  {'min s':>7}  {'median s':>8}  tree")
    for name, per_tree in samples.items():
        for src, times in per_tree.items():
            print(f"{name:<{width}}  {min(times):7.3f}  "
                  f"{statistics.median(times):8.3f}  {src}")
    print(json.dumps({"runs": args.runs, "samples": samples}))


if __name__ == "__main__":
    main()
