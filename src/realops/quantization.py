"""Minimal and maximal operator space structures on finite-dimensional
real Banach spaces.

Banach spaces are given by a finite symmetric list of functionals (the
dual ball is a polytope), which makes the minimal matrix norms and the
circled complexification norm exact finite maxima; that the minimal
structure commutes with complexification is checked exactly, on the basis
of the complexified diagonal realization.  The maximal structure
is implemented for ell^1 coordinates: Haagerup's factorization SDP,
started from the polar factors of the coefficients, gives a certified
upper bound and, from its primal iterates, contractive test tuples that
witness the lower bound; nothing else searches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, clip_contraction, dilation, kron_sum, op_norm
from .opspace import OpSpace, complex_structure, complexify_space
from .optim import bracket_closed, sdp_maximize


@dataclass(frozen=True, eq=False)
class BanachSpace:
    """Finite-dimensional real Banach space with polytope dual ball.

    norm(x) = max over the stored functionals f of |<f, x>|.  The list is
    symmetrized and deduplicated up to sign at construction; the kept
    representative of each pair {f, -f} is the lexicographically positive
    one, and representatives are ordered lexicographically descending.
    Spaces compare and hash by identity, like ``opspace.OpSpace``.
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
    """ell^1_d: dual ball is the sign cube.  Each call builds a new space,
    distinct from every other (spaces compare by identity)."""
    signs = np.array(np.meshgrid(*([[1.0, -1.0]] * dim))).T.reshape(-1, dim)
    return BanachSpace(dim, signs)


@functools.cache
def _ell_one_2() -> BanachSpace:
    """ell^1_2 for ``reproduce_l12_nonuniqueness``: one space per process,
    as ``opspace.scalar_space()`` is, so the sign cube is deduplicated once.
    Its arrays are read-only, as every space's are."""
    return ell_one(2)


def min_level_norm(space: BanachSpace, element) -> float:
    """Minimal-quantization norm: max over functionals of the scalar
    matrix norm of [<f, x_ij>]."""
    c = np.asarray(element, dtype=float)
    if c.ndim == 1:
        c = c.reshape(1, 1, -1)
    if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[2] != space.dim:
        raise ValueError("element must be an (n, n, dim) tensor")
    # the (m, n, n) stack of the matrices [<f, x_ij>], each product as the
    # lone c @ f computes it, and one stacked SVD
    scalars = (c @ space.representatives[:, None, :, None])[..., 0]
    return float(np.max(op_norm(scalars)))


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
    dual ball, exact for polytope balls; |.| is ``np.hypot``, which does
    not overflow before the norm does.  ValueError unless x and y are each
    ``space.dim`` finite numbers."""
    values = []
    for v, name in ((x, "x"), (y, "y")):
        v = np.asarray(v, dtype=float)
        if v.size != space.dim or not np.isfinite(v).all():
            raise ValueError(f"{name} must be {space.dim} finite numbers")
        values.append(space.representatives @ v.reshape(space.dim))
    return float(np.max(np.hypot(*values)))


def min_complexification_check(space: BanachSpace) -> float:
    """Largest entrywise mismatch between the complexified minimal
    realization, its rows and columns interleaved as (f, re/im), and the
    blocks diag(f(e_k)) (x) I_2 for the real copies and diag(f(e_k)) (x) J
    for the imaginary copies, with J = ``complex_structure(1)``.

    At 0.0 the level-n norm of x + iy in the complexified realization is
    the largest norm of [[a, -b], [b, a]], a = <f, x>, b = <f, y>, over
    the functionals f: the norm of x + iy in the minimal quantization of
    the complexified Banach space, so MIN(E)_c = MIN(E_c) at every level.
    """
    reps = space.representatives
    m = reps.shape[0]
    inter = np.arange(2 * m).reshape(2, m).T.ravel()
    basis = complexify_space(realize_min(space)).basis[:, inter][:, :, inter]
    diag = reps.T[:, :, None] * np.eye(m)
    expect = np.concatenate([np.kron(diag, np.eye(2)[None]),
                             np.kron(diag, complex_structure(1)[None])])
    return float(np.max(np.abs(basis - expect)))


# ----------------------------------------------------------------------
# Maximal structure on ell^1 coordinates
# ----------------------------------------------------------------------

@dataclass
class MaxL1Result:
    lower: float
    upper: float
    witness: list[np.ndarray]     # the contraction tuple attaining lower
    sdp_iterations: int           # Haagerup SDP steps (0: not needed)
    #: (t, X, Y), (d, n, n) stacks X_k, Y_k with [[X_k, a_k], [a_k^T, Y_k]]
    #: >= 0 and sum X_k, sum Y_k <= t I, so that upper = t
    certificate: tuple[float, np.ndarray, np.ndarray]


#: a witnessed lower bound more than this times max(1, upper) above the
#: certified upper bound is a defect, raised rather than clipped
INVERSION_TOL = 1e-9


def _tuple_norms(coeffs: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """|| sum_k a_k kron D_k || for each (d, m, m) tuple of a stack."""
    return np.linalg.svd(kron_sum(coeffs, ds), compute_uv=False)[..., 0]


def _haagerup_sdp(mats: list[np.ndarray], lower: float):
    """Certified bracket on the cb norm of psi: MIN ell^inf_d -> M_n,
    e_k -> a_k, from Haagerup's factorization SDP: the least t with
    [[X_k, a_k], [a_k^T, Y_k]] >= 0, sum X_k <= t I and sum Y_k <= t I
    (Paulsen, "Completely Bounded Maps and Operator Algebras", 2002, ch. 8;
    the proof holds over the reals, as real B(H) is injective).

    One ``sdp_maximize`` solve of min t, with the d blocks
    [[X_k, 0], [0, Y_k]] - D(a_k) of size 2n (D = ``linalg.dilation``)
    and the two n x n blocks t I - sum X_k, t I - sum Y_k on the diagonal
    of S, so that A_0 is -I on those two blocks and the primal starts at
    I / (2n); each constraint matrix lives in its own block positions, so
    the constraints are independent.  It starts at
    X_k = Y_k = (||a_k|| + mu) I and t = sum (||a_k|| + mu) + mu with
    mu = max(1, sum ||a_k||), so that the start stays strictly feasible at
    any scale, from the bracket of the triangle bound sum ||a_k|| (the
    point X_k = Y_k = ||a_k|| I) and the witnessed ``lower``, and stops
    when the two sides meet.  When that starting bracket is already closed
    (``optim.bracket_closed``), nothing is built and scipy is not loaded:
    the triangle certificate comes back with ``lower``, no witness and 0
    steps, as the solve would return it.

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
    norms = op_norm(coeffs).tolist()
    eye = np.eye(n)
    # the triangle bound sum ||a_k|| at X_k = Y_k = ||a_k|| I
    scaled_eyes = np.array(norms)[:, None, None] * eye
    triangle = (float(sum(norms)), scaled_eyes, scaled_eyes.copy())
    if bracket_closed(triangle[0], lower):
        return triangle, lower, None, 0
    margin = max(1.0, sum(norms))
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
        c_mat[o:o + 2 * n, o:o + 2 * n] = dilation(mats[k])
        for half in (0, 1):
            i, p, q = 1 + (half * d + k) * nb, o + half * n, tail + half * n
            a[i:i + nb, p:p + n, p:p + n] = -sym
            a[i:i + nb, q:q + n, q:q + n] = sym
            y0[i + np.flatnonzero(iu[0] == iu[1])] = norms[k] + margin

    def certificate(y):
        xy = np.tensordot(y[1:].reshape(2, d, nb), sym, axes=1)
        blocks = dilation(coeffs)
        blocks[:, :n, :n], blocks[:, n:, n:] = xy
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

    res = sdp_maximize(a, c_mat, y0,
                       lambda x, y: (certificate(y)[0], witness(x)[0]),
                       triangle[0], lower)
    cert = triangle if res.y is None else (res.upper, *certificate(res.y)[1])
    return (cert, res.lower, None if res.x is None else witness(res.x)[1],
            res.iterations)


def max_l1_norm_bounds(coeff_mats) -> MaxL1Result:
    """Certified bracket for the maximal-quantization norm of a tuple of
    n x n matrices over ell^1_d:

        sup over m and contractions D_1..D_d of  || sum_k a_k kron D_k ||,

    the cb norm of psi: MIN ell^inf_d -> M_n, e_k -> a_k, by the duality
    (MIN E)* = MAX E* (Effros-Ruan, "Operator Spaces", 2000, section 3.3).
    Maps into M_n reach their cb norm at level n (Smith's lemma; Paulsen,
    "Completely Bounded Maps and Operator Algebras", 2002, ch. 8), so the
    test size is m = n.

    Deterministic steps.  The tuple is scaled by the power of two that
    puts max ||a_k|| in [1, 2), which is exact, makes the value at least 1
    (so the SDP's bracket target is relative) and keeps every squared
    entry finite.  The Haagerup SDP of ``_haagerup_sdp`` starts from the
    value of the polar factors of the scaled a_k, clipped to contractions;
    its primal witness replaces that tuple only when strictly better, and
    its certificate gives ``upper``.  When that start already meets the
    triangle bound sum ||a_k|| to within the SDP's bracket target
    (``optim.bracket_closed``), as the polar factors of the l12 pair do, no
    SDP is built: the certificate is X_k = Y_k = ||a_k|| I and
    ``sdp_iterations`` is 0.  Nothing else searches: when the SDP
    stops early (on a failed Cholesky factor or at its step cap), the
    bracket it reached is returned open, still certified on both sides.
    The value and the certificate (t, X, Y) are scaled back.  A lower
    bound more than INVERSION_TOL (relative) above the upper bound raises
    ``RuntimeError``.
    """
    mats = [as_matrix(a) for a in coeff_mats]
    if not mats:
        raise ValueError("need at least one coefficient matrix")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValueError("coefficient matrices must share a square shape")
    stack = np.stack(mats)
    e = math.frexp(float(np.max(op_norm(stack))))[1] - 1
    scaled = np.ldexp(stack, -e)
    u, _, vt = np.linalg.svd(scaled)
    witness = clip_contraction(u @ vt)
    best = float(_tuple_norms(scaled.transpose(1, 2, 0), witness))
    (t, xs, ys), low, tup, sdp_iterations = _haagerup_sdp(list(scaled), best)
    if tup is not None:
        best, witness = low, tup
    if best > t + INVERSION_TOL * max(1.0, t):
        raise RuntimeError(f"witnessed lower bound {math.ldexp(best, e)!r} "
                           f"exceeds the certified upper bound "
                           f"{math.ldexp(t, e)!r}")
    upper = math.ldexp(t, e)
    return MaxL1Result(math.ldexp(best, e), upper, list(witness),
                       sdp_iterations,
                       (upper, np.ldexp(xs, e), np.ldexp(ys, e)))


# ----------------------------------------------------------------------
# The two-dimensional ell^1 nonuniqueness computation
# ----------------------------------------------------------------------

PAIR_A = np.array([[1.0, 0.0], [0.0, -1.0]])
PAIR_B = np.array([[0.0, 1.0], [1.0, 0.0]])

#: the l12 verdict, read also by the l12 rows of ``verify quantization``
L12_MIN_TOL = 1e-9
L12_LOWER_TOL = 1e-6
L12_UPPER_TOL = 1e-12
L12_GAP = 0.58


@dataclass
class L1NonuniquenessReport:
    min_norm: float
    max_lower: float
    max_upper: float
    gap: float
    witness: list[np.ndarray]
    sdp_iterations: int
    passed: bool
    claim: str = ("two-dimensional ell^1 carries at least two operator "
                  "space structures: the level-2 pair (diag(1,-1), flip) "
                  "has minimal norm sqrt(2) but maximal norm 2")


def reproduce_l12_nonuniqueness() -> L1NonuniquenessReport:
    """Compute both norms of the witness pair.  It passes when the minimal
    norm is sqrt(2) within L12_MIN_TOL, the maximal bracket reaches 2
    (lower bound at least 2 - L12_LOWER_TOL, upper bound 2 within
    L12_UPPER_TOL) and the two structures split by at least L12_GAP."""
    element = np.stack([PAIR_A, PAIR_B], axis=-1)      # (2, 2, 2) tensor
    mn = min_level_norm(_ell_one_2(), element)
    mx = max_l1_norm_bounds([PAIR_A, PAIR_B])
    gap = mx.lower - mn
    passed = (abs(mn - np.sqrt(2.0)) <= L12_MIN_TOL and
              mx.lower >= 2.0 - L12_LOWER_TOL and
              abs(mx.upper - 2.0) <= L12_UPPER_TOL and gap >= L12_GAP)
    return L1NonuniquenessReport(mn, mx.lower, mx.upper, gap, mx.witness,
                                 mx.sdp_iterations, passed=bool(passed))


def banach_from_json(obj: dict) -> BanachSpace:
    if not isinstance(obj, dict) or "dim" not in obj or "functionals" not in obj:
        raise ValueError('Banach space JSON needs "dim" and "functionals"')
    return BanachSpace(int(obj["dim"]), np.asarray(obj["functionals"], float))
