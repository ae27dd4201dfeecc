"""Deterministic random stream derivation.

Every randomized routine in the package takes an explicit 64-bit seed and
derives substreams from (seed, *key).  Substreams are stable across runs
and independent of execution order, so multistart searches can be
reordered or parallelized without changing results.  Keys are not
namespaced per routine, so two routines that draw the same (seed, *key)
read the same stream.  The keys in use:

* ``opspace.cb_norm_levels`` (and ``cb_norm_lower_search``, which runs
  it): (seed, n) at level n;
* ``opspace.theta_dual_search`` at size n: (seed, n), the stream of
  level n above;
* ``opspace.check_ruan_axioms``: (seed, 1), the stream of level 1 above;
* ``mideal.certify_left_m_projection``: its nu, mu and tau sweeps are
  ``cb_norm_levels`` at seed + 1, so all three draw (seed + 1, n) at
  level n, which is also level n of any search run at seed + 1;
* ``systems.check_brs_level``: (seed, 31, level);
  ``systems.paulsen_positivity_transfer``: (seed, 41, level);
  ``systems.choi_effros_product``: (seed, 51), and ``cb_norm_levels`` at
  seed for its levels 1 and 2;
* the ``suites`` draw (seed, 101), (seed, 111, i), (seed, 112),
  (seed, 113), (seed, 121), (seed, 131), (seed, 142) and (seed, 143).

The one-element keys 51 and up stay apart from the level and size keys
only while no search reaches level or size 51.

A change of any key moves the reports that draw from it.

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
