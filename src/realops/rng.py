"""Deterministic random stream derivation.

Every randomized routine in the package takes an explicit 64-bit seed and
derives independent substreams from (seed, *key).  Substreams are stable
across runs and independent of execution order, so multistart searches can
be reordered or parallelized without changing results.

A multistart search draws its random starts up front from one substream
in restart order: ``opspace.theta_dual_search`` and each level of
``opspace.cb_norm_levels`` take one (restarts, ...) array, which numpy
fills restart after restart, so the start of restart r does not depend on
how many restarts run.  Each substream builds a SeedSequence and a bit
generator, so one substream per search costs less than one per restart.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xC0FFEE


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for substream ``key`` of the master stream ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)
