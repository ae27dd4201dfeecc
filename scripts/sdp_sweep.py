#!/usr/bin/env python3
"""Sweep both instances of ``optim.sdp_maximize`` and summarize each.

Two lines, one per sweep:

* ``quotient``: the 36-request mix of one pass of the quotient benchmark
  (``TestSpectralMinSdp.workload_mix`` of ``tests/test_opspace.py``) drawn
  at ``default_rng`` seeds 0-39, each solved by
  ``opspace.quotient_level_norm``;
* ``max-l1``: ``quantization.max_l1_norm_bounds`` on 75 tuples: the 16
  ``random_tuples()`` of ``tests/test_quantization.py``, the l12 pair
  (A, B), the four tuples of ``test_sizes_above_n_are_not_searched`` and
  nine tuples from ``default_rng(7)`` at each n in {2, 3} and d in
  {2, 3, 4}.

Each line gives the solves, the total SDP steps, the solves whose
relative bracket (upper - lower) / max(1, upper) is above 1e-7 (the
default ``--tol`` of ``quotient-norm``), the worst relative bracket with
where it was seen, and every solve left open above ``optim.SDP_BRACKET``,
as ``seed#index`` (quotient) or ``#index`` (max-l1).  Exits 1 when a
solve of either sweep is not converged at 1e-7, and 0 otherwise; the
solves left open above ``optim.SDP_BRACKET`` vary with the BLAS build,
so they do not set the exit code.  Runs with one BLAS thread, from the
repository root:

    PYTHONPATH=src python scripts/sdp_sweep.py
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import numpy as np  # noqa: E402

from realops.opspace import MatElem, quotient_level_norm  # noqa: E402
from realops.optim import SDP_BRACKET  # noqa: E402
from realops.quantization import (PAIR_A, PAIR_B,  # noqa: E402
                                  max_l1_norm_bounds)
from tests.test_opspace import TestSpectralMinSdp  # noqa: E402
from tests.test_quantization import random_tuples  # noqa: E402

QUOTIENT_SEEDS = range(40)
#: the default --tol of quotient-norm
CONVERGED = 1e-7


def quotient_solves():
    """(where, steps, upper, lower) of each solve of the quotient mix."""
    for seed in QUOTIENT_SEEDS:
        cases = TestSpectralMinSdp.workload_mix(np.random.default_rng(seed))
        for index, (space, sub, coeffs, _, _) in enumerate(cases):
            res = quotient_level_norm(space, sub, MatElem(space, coeffs))
            yield f"{seed}#{index}", res.iterations, res.value, res.lower


def max_l1_tuples():
    tuples = random_tuples() + [[PAIR_A, PAIR_B]]
    for n, d in ((1, 3), (2, 2), (2, 3), (3, 2)):
        rng = np.random.default_rng(30 + n)
        tuples.append([rng.standard_normal((n, n)) for _ in range(d)])
    rng = np.random.default_rng(7)
    return tuples + [[rng.standard_normal((n, n)) for _ in range(d)]
                     for n in (2, 3) for d in (2, 3, 4) for _ in range(9)]


def max_l1_solves():
    """(where, steps, upper, lower) of each max-l1 bracket."""
    for index, mats in enumerate(max_l1_tuples()):
        res = max_l1_norm_bounds(mats)
        yield f"#{index}", res.sdp_iterations, res.upper, res.lower


def summary(name, solves):
    """The summary line of a sweep, and its count of solves not converged."""
    count = steps = not_converged = 0
    worst, worst_at, still_open = -np.inf, "-", []
    for where, iterations, upper, lower in solves:
        count += 1
        steps += iterations
        rel = (upper - lower) / max(1.0, upper)
        not_converged += rel > CONVERGED
        if rel > worst:
            worst, worst_at = rel, where
        if rel > SDP_BRACKET:
            still_open.append(where)
    return (f"{name}: {count} solves, {steps} steps, {not_converged} not "
            f"converged, worst bracket {worst:.3g} at {worst_at}, "
            f"{len(still_open)} open: {' '.join(still_open) or '-'}",
            not_converged)


if __name__ == "__main__":
    failed = 0
    for name, solves in (("quotient", quotient_solves()),
                         ("max-l1", max_l1_solves())):
        line, not_converged = summary(name, solves)
        print(line, flush=True)
        failed += not_converged
    sys.exit(1 if failed else 0)
