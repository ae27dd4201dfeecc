"""Minimal and maximal operator space structures on finite-dimensional
real Banach spaces.

Banach spaces are given by a finite symmetric list of functionals (the
dual ball is a polytope), which makes the minimal matrix norms and the
circled complexification norm exact finite maxima.  The maximal structure
is implemented for ell^1 coordinates: a search over tuples of contractive
test matrices gives a witnessed lower bound, and Haagerup's factorization
SDP gives a certified upper bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, clip_contraction, kron_sum, op_norm
from .opspace import (OpSpace, complexified_elem, complexify_space, elem,
                      level_norm)
from .optim import polar_seesaw, sdp_maximize
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
    sdp_iterations: int           # Haagerup SDP steps (0: not needed)
    search_rounds: int            # seesaw rounds, summed over test sizes
    #: (t, X, Y), (d, n, n) stacks X_k, Y_k with [[X_k, a_k], [a_k^T, Y_k]]
    #: >= 0 and sum X_k, sum Y_k <= t I, so that upper = t
    certificate: tuple[float, np.ndarray, np.ndarray]


#: signed-permutation tuples scored per stacked call
CANDIDATE_SLICE = 256
#: a witnessed lower bound more than this times max(1, upper) above the
#: certified upper bound is a defect, raised rather than clipped
INVERSION_TOL = 1e-9


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


def _haagerup_sdp(mats: list[np.ndarray], lower: float):
    """Certified bracket on the cb norm of psi: MIN ell^inf_d -> M_n,
    e_k -> a_k, from Haagerup's factorization SDP: the least t with
    [[X_k, a_k], [a_k^T, Y_k]] >= 0, sum X_k <= t I and sum Y_k <= t I
    (Paulsen, "Completely Bounded Maps and Operator Algebras", 2002, ch. 8;
    the proof holds over the reals, as real B(H) is injective).

    One ``sdp_maximize`` solve of maximize -t, with the d blocks of size 2n
    and the two n x n blocks t I - sum X_k, t I - sum Y_k on the diagonal
    of S.  It starts at X_k = Y_k = (||a_k|| + mu) I and
    t = sum (||a_k|| + mu) + mu with mu = max(1, sum ||a_k||), so that the
    start stays strictly feasible at any scale, from the bracket of the
    triangle bound
    sum ||a_k|| (the point X_k = Y_k = ||a_k|| I) and the witnessed
    ``lower``, and stops when the two sides meet.

    Each iterate gives both sides.  Upper: every 2n-block of the dual point
    is shifted by its most negative eigenvalue, and the bound is
    max(lambda_max sum X_k, lambda_max sum Y_k) at the shifted point.
    Lower: each 2n-block [[P_k, R_k], [R_k^T, Q_k]] of the primal matrix is
    positive definite, so C_k = P_k^-1/2 R_k Q_k^-1/2 is a contraction (up
    to roundoff, which a clip removes), and || sum_k a_k kron C_k || is a
    witnessed lower bound at test size n.

    Returns (certificate, lower, witness, iterations): the best
    certificate (t, X, Y) with X, Y as (d, n, n) stacks, the best lower
    bound and its tuple of contractions (None when ``lower`` was not
    beaten), and the steps taken.
    """
    d, n = len(mats), len(mats[0])
    coeffs = np.stack(mats)
    norms = [op_norm(a) for a in mats]
    margin = max(1.0, sum(norms))
    eye = np.eye(n)
    # symmetric unit matrices E_pq (p <= q), n(n+1)/2 of them
    iu = np.triu_indices(n)
    sym = np.zeros((len(iu[0]), n, n))
    sym[np.arange(len(sym)), iu[0], iu[1]] = 1.0
    sym[np.arange(len(sym)), iu[1], iu[0]] = 1.0
    nb, tail = len(sym), 2 * n * d
    # y = (t, X_1..X_d, Y_1..Y_d) over the E_pq; S = C - sum_i y_i A_i
    a = np.zeros((1 + 2 * d * nb, tail + 2 * n, tail + 2 * n))
    a[0, tail:, tail:] = -np.eye(2 * n)
    c_mat = np.zeros(a.shape[1:])
    y0 = np.zeros(len(a))
    y0[0] = sum(norms) + (d + 1) * margin
    for k in range(d):
        o = 2 * n * k
        c_mat[o:o + n, o + n:o + 2 * n] = mats[k]
        c_mat[o + n:o + 2 * n, o:o + n] = mats[k].T
        for half in (0, 1):
            i, p, q = 1 + (half * d + k) * nb, o + half * n, tail + half * n
            a[i:i + nb, p:p + n, p:p + n] = -sym
            a[i:i + nb, q:q + n, q:q + n] = sym
            y0[i + np.flatnonzero(iu[0] == iu[1])] = norms[k] + margin
    obj = np.zeros(len(a))
    obj[0] = -1.0

    def certificate(y):
        xy = np.tensordot(y[1:].reshape(2, d, nb), sym, axes=1)
        blocks = np.block([[xy[0], coeffs], [coeffs.transpose(0, 2, 1),
                                             xy[1]]])
        shift = np.maximum(0.0, -np.linalg.eigvalsh(blocks)[:, 0])
        xy = xy + shift[:, None, None] * eye
        return float(np.linalg.eigvalsh(xy.sum(axis=1))[:, -1].max()), xy

    def witness(x):
        ar = np.arange(d)
        z = x[:tail, :tail].reshape(d, 2 * n, d, 2 * n)[ar, :, ar, :]
        lam, vec = np.linalg.eigh(np.concatenate([z[:, :n, :n],
                                                  z[:, n:, n:]]))
        lam = np.maximum(lam, 1e-14 * lam[:, -1:])
        root = (vec / np.sqrt(lam)[:, None, :]) @ vec.transpose(0, 2, 1)
        ds = clip_contraction(root[:d] @ z[:, :n, n:] @ root[d:])
        return float(_tuple_norms(coeffs.transpose(1, 2, 0), ds)), ds

    res = sdp_maximize(a, c_mat, obj, np.eye(len(c_mat)) / (2 * n), y0,
                       lambda x, y: (certificate(y)[0], witness(x)[0]),
                       float(sum(norms)), lower)
    if res.y is None:
        xy = np.array(norms)[:, None, None] * np.stack([eye, eye])[:, None]
    else:
        xy = certificate(res.y)[1]
    return ((res.upper, xy[0], xy[1]), res.lower,
            None if res.x is None else witness(res.x)[1], res.iterations)


def max_l1_norm_bounds(coeff_mats, m_max: int = 4, restarts: int = 64,
                       iters: int = 80, seed: int = 0) -> MaxL1Result:
    """Certified bracket for the maximal-quantization norm of a tuple of
    n x n matrices over ell^1_d:

        sup over m and contractions D_1..D_d of  || sum_k a_k kron D_k ||,

    the cb norm of psi: MIN ell^inf_d -> M_n, e_k -> a_k, by the duality
    (MIN E)* = MAX E* (Effros-Ruan, "Operator Spaces", 2000, section 3.3).
    Maps into M_n reach their cb norm at level n (Smith's lemma; Paulsen,
    "Completely Bounded Maps and Operator Algebras", 2002, ch. 8), so only
    test sizes m = 1..min(m_max, n) are searched.

    The objective is convex in each D_k, so the sup is attained at tuples
    of orthogonal matrices.  For each test size m the search scores the
    signed-permutation tuples (when there are at most 4096 of them, else
    the identity tuple), then runs the exact seesaw ``optim.polar_seesaw``
    from ``restarts`` random orthogonal tuples, clipped to contractions,
    restart r drawn from ``derived_rng(seed, 3, m, r)``, for at most
    ``iters`` rounds.  A round takes the top singular pair (u, v) of
    sum_k a_k kron D_k and moves every D_k to the orthogonal polar factor
    of its gradient block, which maximizes the linearization.  The
    restarts advance in lockstep, and a restart retires once a round gains
    no more than 1e-15.  ``search_rounds`` sums the rounds over the test
    sizes.  Each restart keeps its own first strict maximum; the
    candidates and then the restarts are reduced in order with strict
    ``>``, so the first best tuple wins and a restart's result does not
    depend on how many others run.  The search sees the tuple scaled by
    2^-e, e = ``math.frexp(sum ||a_k||)[1]``, so that sum ||a_k|| lies in
    [1/2, 1) and no squared entry overflows, and its value is scaled back;
    a power-of-two scaling is exact.

    ``upper`` is the lesser of the triangle bound sum ||a_k|| and the
    Haagerup SDP bound of ``_haagerup_sdp``, with its certificate; the
    SDP is skipped (``sdp_iterations`` 0) when the triangle bound already
    meets the witnessed lower bound.  A lower bound more than INVERSION_TOL
    (relative) above the upper bound raises ``RuntimeError``.
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
    e = math.frexp(sum(op_norm(a) for a in mats))[1]
    coeffs = np.ldexp(np.stack(mats, axis=-1), -e)
    best = 0.0
    best_m = 1
    best_tuple = [np.ones((1, 1)) for _ in mats]
    search_rounds = 0

    def polar(grads):
        u, _, vt = np.linalg.svd(grads)
        return u @ vt

    def offer(values, tuples, m):
        """Take the first of the best of ``values`` if it beats ``best``."""
        nonlocal best, best_m, best_tuple
        i = int(np.argmax(values))
        if values[i] > best:
            best, best_m, best_tuple = (float(values[i]), m,
                                        [x.copy() for x in tuples[i]])

    for m in range(1, min(m_max, n) + 1):
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
        run_best, run_tuple, rounds = polar_seesaw(
            coeffs, clip_contraction(np.linalg.qr(g)[0]), iters, polar)
        search_rounds += rounds
        offer(run_best, run_tuple, m)
    best = math.ldexp(best, e)
    cert, low, tup, sdp_iterations = _haagerup_sdp(mats, best)
    if tup is not None:
        best, best_m, best_tuple = low, n, list(tup)
    upper = cert[0]
    if best > upper + INVERSION_TOL * max(1.0, upper):
        raise RuntimeError(f"witnessed lower bound {best!r} exceeds the "
                           f"certified upper bound {upper!r}")
    return MaxL1Result(best, upper, best_m, best_tuple, sdp_iterations,
                       search_rounds, cert)


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
    sdp_iterations: int
    search_rounds: int
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
                                 mx.witness, mx.sdp_iterations,
                                 mx.search_rounds, passed=bool(gap >= 0.5))


def banach_to_json(space: BanachSpace) -> dict:
    return {"dim": int(space.dim),
            "functionals": [[float(v) for v in row]
                            for row in space.functionals]}


def banach_from_json(obj: dict) -> BanachSpace:
    if not isinstance(obj, dict) or "dim" not in obj or "functionals" not in obj:
        raise ValueError('Banach space JSON needs "dim" and "functionals"')
    return BanachSpace(int(obj["dim"]), np.asarray(obj["functionals"], float))
