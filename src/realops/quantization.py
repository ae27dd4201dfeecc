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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (as_matrix, clip_contraction, kron_sum, kron_sum_grad,
                     op_norm)
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


def _signed_permutations(m: int) -> list[np.ndarray]:
    import itertools
    out = []
    for perm in itertools.permutations(range(m)):
        base = np.zeros((m, m))
        for i, j in enumerate(perm):
            base[i, j] = 1.0
        for signs in itertools.product([1.0, -1.0], repeat=m):
            out.append(base * np.array(signs)[:, None])
    return out


def max_l1_norm_bounds(coeff_mats, m_max: int = 4, restarts: int = 64,
                       iters: int = 80, seed: int = 0) -> MaxL1Result:
    """Bracket for the maximal-quantization norm of a tuple over ell^1_d:

        sup over m and contractions D_1..D_d of  || sum_k a_k kron D_k ||.

    The objective is convex in each D_k, so the sup is attained at tuples
    of orthogonal matrices; the search enumerates signed permutations,
    seeds random orthogonals, and ascends along skew-symmetric exponential
    retractions.  upper = sum ||a_k|| by the triangle inequality, so
    lower <= true value <= upper always.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
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

    def consider(ds, m):
        nonlocal best, best_m, best_tuple
        ds = [clip_contraction(x) for x in ds]   # keep candidates feasible
        v = op_norm(kron_sum(coeffs, np.stack(ds)))
        if v > best:
            best, best_m, best_tuple = v, m, [x.copy() for x in ds]

    for m in range(1, m_max + 1):
        # deterministic extremal candidates
        if (2.0 ** m * math.factorial(m)) ** d <= 4096:
            import itertools
            sp = _signed_permutations(m)
            for combo in itertools.product(sp, repeat=d):
                consider(list(combo), m)
        else:
            consider([np.eye(m)] * d, m)
        for r in range(restarts):
            rng = derived_rng(seed, 3, m, r)
            ds = []
            for _ in range(d):
                g = rng.standard_normal((m, m))
                qmat, _ = np.linalg.qr(g)
                ds.append(qmat)
            consider(ds, m)
            step = 0.3
            decay = (1e-8 / step) ** (1.0 / iters)
            for _ in range(iters):
                total = kron_sum(coeffs, np.stack(ds))
                if not total.any():
                    break
                u, s, vt = np.linalg.svd(total)
                moved = False
                new_ds = []
                for euc, dk in zip(kron_sum_grad(coeffs, u[:, 0], vt[0, :]),
                                   ds):
                    riem = dk.T @ euc
                    skew = (riem - riem.T) / 2.0
                    sn = np.linalg.norm(skew)
                    if sn < 1e-18:
                        new_ds.append(dk)
                        continue
                    moved = True
                    new_ds.append(dk @ scipy.linalg.expm((step / sn) * skew))
                ds = new_ds
                consider(ds, m)
                if not moved:
                    break
                step *= decay
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
