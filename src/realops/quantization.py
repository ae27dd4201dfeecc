"""Minimal and maximal operator space structures on finite-dimensional
real Banach spaces.

Banach spaces are given by a finite symmetric list of functionals (the
dual ball is a polytope), which makes the minimal matrix norms and the
circled complexification norm exact finite maxima.  The maximal structure
is implemented for ell^1 coordinates through its explicit formula as a
sup over tuples of contractive matrices; the search reports an honest
(lower, upper) bracket since no finite test size is known to suffice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (as_matrix, clip_contraction, frobenius_norm, kron_sum,
                     kron_sum_grad, op_norm)
from .opspace import (OpSpace, complexified_elem, complexify_space, elem,
                      level_norm)
from .rng import derived_rng


@dataclass(frozen=True)
class BanachSpace:
    """Finite-dimensional real Banach space with polytope dual ball.

    norm(x) = max over the stored functionals f of |<f, x>|.  The list is
    symmetrized and deduplicated up to sign at construction; the kept
    representative of each pair {f, -f} is the lexicographically positive
    one, and representatives are ordered lexicographically descending.
    """

    dim: int
    functionals: np.ndarray          # (2m, dim), closed under negation
    representatives: np.ndarray = None  # (m, dim), one per +- pair

    def __post_init__(self):
        f = np.asarray(self.functionals, dtype=float)
        if f.ndim != 2 or f.shape[1] != self.dim:
            raise ValueError("functionals must be a (count, dim) array")
        if not np.all(np.isfinite(f)):
            raise ValueError("functionals must be finite")
        reps = []
        for row in f:
            if np.max(np.abs(row)) < 1e-14:
                continue
            pos = row if _lex_positive(row) else -row
            if not any(np.max(np.abs(pos - r)) < 1e-12 for r in reps):
                reps.append(pos)
        if not reps:
            raise ValueError("need at least one nonzero functional")
        reps = np.stack(sorted(reps, key=tuple, reverse=True))
        if np.linalg.matrix_rank(reps, tol=1e-12) < self.dim:
            raise ValueError("functionals do not span the dual (norm would "
                             "be degenerate)")
        full = np.concatenate([reps, -reps])
        full.setflags(write=False)
        reps.setflags(write=False)
        object.__setattr__(self, "functionals", full)
        object.__setattr__(self, "representatives", reps)

    def norm(self, x) -> float:
        v = np.asarray(x, dtype=float).reshape(self.dim)
        return float(np.max(np.abs(self.representatives @ v)))


def _lex_positive(row: np.ndarray) -> bool:
    for v in row:
        if v > 0:
            return True
        if v < 0:
            return False
    return True


def ell_infty(dim: int) -> BanachSpace:
    return BanachSpace(dim, np.eye(dim))


def ell_one(dim: int) -> BanachSpace:
    """ell^1_d: dual ball is the sign cube."""
    signs = np.array(np.meshgrid(*([[1.0, -1.0]] * dim))).T.reshape(-1, dim)
    return BanachSpace(dim, signs)


def min_level_norm(space: BanachSpace, element) -> float:
    """Minimal-quantization norm: max over functionals of the scalar
    matrix norm of [<f, x_ij>]."""
    c = np.asarray(element, dtype=float)
    if c.ndim == 1:
        c = c.reshape(1, 1, -1)
    if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[2] != space.dim:
        raise ValueError("element must be an (n, n, dim) tensor")
    best = 0.0
    for f in space.representatives:
        best = max(best, op_norm(c @ f))
    return best


def realize_min(space: BanachSpace) -> OpSpace:
    """Concrete diagonal realization of the minimal structure.

    Basis vector e_k goes to diag(<f, e_k> : f representative); level
    norms of the realization equal min_level_norm exactly.
    """
    reps = space.representatives
    m = reps.shape[0]
    basis = np.zeros((space.dim, m, m))
    for k in range(space.dim):
        basis[k] = np.diag(reps[:, k])
    return OpSpace(basis)


def w2_complex_norm(space: BanachSpace, x, y) -> float:
    """The circled complexification norm sup{|f(x) + i f(y)|} over the
    dual ball, exact for polytope balls."""
    xv = np.asarray(x, dtype=float).reshape(space.dim)
    yv = np.asarray(y, dtype=float).reshape(space.dim)
    fx = space.representatives @ xv
    fy = space.representatives @ yv
    return float(np.max(np.sqrt(fx * fx + fy * fy)))


def min_complexification_check(space: BanachSpace, max_level: int = 3,
                               samples: int = 200, seed: int = 0) -> float:
    """Max deviation between the complexified minimal realization norm and
    the minimal-quantization norm of the complexified Banach space.

    The two constructions agree identically; the returned deviation is
    numerical noise.
    """
    xs = realize_min(space)
    xc = complexify_space(xs)
    rng = derived_rng(seed, 2)
    reps = space.representatives
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, max_level + 1))
        cx = rng.standard_normal((n, n, space.dim))
        cy = rng.standard_normal((n, n, space.dim))
        via_space = level_norm(complexified_elem(xc, elem(xs, cx), elem(xs, cy)))
        via_dual = 0.0
        for f in reps:
            a = cx @ f
            b = cy @ f
            blk = np.block([[a, -b], [b, a]])
            via_dual = max(via_dual, op_norm(blk))
        dev = max(dev, abs(via_space - via_dual))
    return dev


# ----------------------------------------------------------------------
# Maximal structure on ell^1 coordinates
# ----------------------------------------------------------------------

@dataclass
class MaxL1Result:
    lower: float
    upper: float
    best_m: int
    witness: list[np.ndarray]     # the contraction tuple attaining lower


#: signed-permutation tuples scored per stacked call
CANDIDATE_SLICE = 256


def _signed_permutations(m: int) -> np.ndarray:
    """The 2^m m! signed permutation matrices as one stack: permutations in
    lexicographic order, each with its row signs in ``itertools.product``
    order."""
    perms = np.array(list(itertools.permutations(range(m))))
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=m)))
    base = np.eye(m)[perms]
    return (base[:, None] * signs[None, :, :, None]).reshape(-1, m, m)


def _tuple_norms(coeffs: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """|| sum_k a_k kron D_k || for each (d, m, m) tuple of a stack."""
    return np.linalg.svd(kron_sum(coeffs, ds), compute_uv=False)[..., 0]


def max_l1_norm_bounds(coeff_mats, m_max: int = 4, restarts: int = 64,
                       iters: int = 80, seed: int = 0) -> MaxL1Result:
    """Bracket for the maximal-quantization norm of a tuple over ell^1_d:

        sup over m and contractions D_1..D_d of  || sum_k a_k kron D_k ||.

    The objective is convex in each D_k, so the sup is attained at tuples
    of orthogonal matrices.  For each test size m the search scores the
    signed-permutation tuples (when there are at most 4096 of them, else
    the identity tuple), then ascends from ``restarts`` random orthogonal
    tuples, restart r drawn from ``derived_rng(seed, 3, m, r)``, along
    skew-symmetric exponential retractions.  The restarts advance in
    lockstep: each step takes one stacked SVD, gradient and ``expm`` over
    the live restarts, and a restart retires where a lone ascent would
    stop (a zero realization, or no factor left to move).  Every scored
    tuple is clipped to contractions first.  Each restart keeps its own
    first strict maximum; the candidates and then the restarts are reduced
    in order with strict ``>``, so the first best tuple wins and a restart's
    result does not depend on how many others run.  upper = sum ||a_k|| by
    the triangle inequality, so lower <= true value <= upper always.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    mats = [as_matrix(a) for a in coeff_mats]
    d = len(mats)
    if d < 1:
        raise ValueError("need at least one coefficient matrix")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValueError("coefficient matrices must share a square shape")
    upper = float(sum(op_norm(a) for a in mats))
    coeffs = np.stack(mats, axis=-1)
    best = 0.0
    best_m = 1
    best_tuple = [np.ones((1, 1)) for _ in mats]

    def offer(values, tuples, m):
        """Take the first of the best of ``values`` if it beats ``best``."""
        nonlocal best, best_m, best_tuple
        i = int(np.argmax(values))
        if values[i] > best:
            best, best_m, best_tuple = (float(values[i]), m,
                                        [x.copy() for x in tuples[i]])

    for m in range(1, m_max + 1):
        # deterministic extremal candidates
        count = 2 ** m * math.factorial(m)
        if count ** d <= 4096:
            sp = clip_contraction(_signed_permutations(m))
            combos = np.stack(np.unravel_index(np.arange(count ** d),
                                               (count,) * d), axis=-1)
            for lo in range(0, len(combos), CANDIDATE_SLICE):
                ds = sp[combos[lo:lo + CANDIDATE_SLICE]]
                offer(_tuple_norms(coeffs, ds), ds, m)
        else:
            ds = clip_contraction(np.broadcast_to(np.eye(m), (1, d, m, m)))
            offer(_tuple_norms(coeffs, ds), ds, m)
        # random orthogonal starts, one derived stream per restart
        g = np.empty((restarts, d, m, m))
        for r in range(restarts):
            rng = derived_rng(seed, 3, m, r)
            for k in range(d):
                g[r, k] = rng.standard_normal((m, m))
        ds, _ = np.linalg.qr(g)
        clipped = clip_contraction(ds)
        run_best = _tuple_norms(coeffs, clipped)
        run_tuple = clipped
        live = np.arange(restarts)
        step = 0.3
        decay = (1e-8 / step) ** (1.0 / iters)
        for _ in range(iters):
            total = kron_sum(coeffs, ds)
            keep = total.reshape(len(live), -1).any(axis=-1)
            ds, total, live = ds[keep], total[keep], live[keep]
            if not len(live):
                break
            u, _, vt = np.linalg.svd(total)
            euc = kron_sum_grad(coeffs, u[..., :, 0], vt[..., 0, :])
            riem = np.swapaxes(ds, -1, -2) @ euc
            skew = (riem - np.swapaxes(riem, -1, -2)) / 2.0
            sn = frobenius_norm(skew)
            moves = sn >= 1e-18
            if not moves.any():
                break
            ds[moves] = ds[moves] @ scipy.linalg.expm(
                (step / sn[moves])[:, None, None] * skew[moves])
            keep = moves.any(axis=-1)
            ds, live = ds[keep], live[keep]
            clipped = clip_contraction(ds)
            v = _tuple_norms(coeffs, clipped)
            better = v > run_best[live]
            run_best[live[better]] = v[better]
            run_tuple[live[better]] = clipped[better]
            step *= decay
        offer(run_best, run_tuple, m)
    # both brackets are exact up to floating point; never report an
    # inverted interval
    best = min(best, upper)
    return MaxL1Result(best, upper, best_m, best_tuple)


# ----------------------------------------------------------------------
# The two-dimensional ell^1 nonuniqueness computation
# ----------------------------------------------------------------------

PAIR_A = np.array([[1.0, 0.0], [0.0, -1.0]])
PAIR_B = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass
class L1NonuniquenessReport:
    min_norm: float
    max_lower: float
    max_upper: float
    gap: float
    best_m: int
    witness: list[np.ndarray]
    passed: bool
    claim: str = ("two-dimensional ell^1 carries at least two operator "
                  "space structures: the level-2 pair (diag(1,-1), flip) "
                  "has minimal norm sqrt(2) but maximal norm 2")


def reproduce_l12_nonuniqueness(seed: int = 0, m_max: int = 4,
                                restarts: int = 64) -> L1NonuniquenessReport:
    """Compute both norms of the witness pair and assert the strict gap."""
    e = ell_one(2)
    element = np.stack([PAIR_A, PAIR_B], axis=-1)      # (2, 2, 2) tensor
    mn = min_level_norm(e, element)
    mx = max_l1_norm_bounds([PAIR_A, PAIR_B], m_max=m_max, restarts=restarts,
                            seed=seed)
    gap = mx.lower - mn
    return L1NonuniquenessReport(mn, mx.lower, mx.upper, gap, mx.best_m,
                                 mx.witness, passed=bool(gap >= 0.5))


def banach_to_json(space: BanachSpace) -> dict:
    return {"dim": int(space.dim),
            "functionals": [[float(v) for v in row]
                            for row in space.functionals]}


def banach_from_json(obj: dict) -> BanachSpace:
    if not isinstance(obj, dict) or "dim" not in obj or "functionals" not in obj:
        raise ValueError('Banach space JSON needs "dim" and "functionals"')
    return BanachSpace(int(obj["dim"]), np.asarray(obj["functionals"], float))
