"""Concrete real operator spaces and their matrix-level norms.

A space is a list of linearly independent basis matrices inside an ambient
M_{p,q}(R); an element of the n-th matrix level is an n x n x d coefficient
tensor over that basis; a completely bounded map is a coefficient matrix
amplified coefficientwise to every level.  Everything downstream (the
complexification functor, quantizations, M-projection machinery, operator
systems) is built on these three types.

Coefficient conventions used throughout the package:

* element tensors are indexed ``coeffs[i, j, k]`` with (i, j) the matrix
  position and k the basis index; flattening is C-order;
* the realization of an element is ``linalg.kron_sum(coeffs, basis)``,
  whose (i, j) block is sum_k coeffs[i, j, k] B_k; ``linalg.kron_sum``
  owns this block layout, and ``linalg.kron_sum_matrix`` its dense vec
  matrix;
* the complexification doubles the basis as [real copies..., imaginary
  copies...] and its conjugation negates the imaginary half;
* the column space C_2(X) (see mideal) stacks [upper copies..., lower
  copies...].

Span membership lives in ``linalg``: ``OpSpace.coefficients`` and
``contains`` apply ``linalg.span_coefficients`` and ``linalg.in_span`` to
a matrix or a stack of them, with the basis pseudo-inverse cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (MEMBERSHIP_TOL, as_matrix, clip_contraction, in_span,
                     kron_sum, kron_sum_grad, kron_sum_matrix,
                     mat_from_json, mat_to_json, op_norm, span_coefficients)
from .optim import (LinearMatrixMap, polar_seesaw, ratio_ascent,
                    seesaw_ascent, spectral_min_sdp)
from .rng import derived_rng

#: singular-value threshold below which a basis is rejected as degenerate
BASIS_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OpSpace:
    """Concrete real operator space: span of ``basis`` inside M_{p,q}(R).

    Spaces, like ``MatElem`` and ``CBMap``, compare and hash by identity:
    their fields are arrays, which have no single truth value."""

    basis: np.ndarray                      # (d, p, q)
    is_complexified: bool = False
    conjugation: np.ndarray | None = None  # (d, d) coefficient involution

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 3 or b.shape[0] < 1:
            raise ValueError("basis must be a nonempty (d, p, q) array")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis entries must be finite")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        d = b.shape[0]
        vecs = b.reshape(d, -1)
        svals = np.linalg.svd(vecs, compute_uv=False)
        # more elements than ambient entries: d - pq singular values are 0
        smallest = svals[-1] if d <= vecs.shape[1] else 0.0
        if smallest < BASIS_RANK_TOL:
            raise ValueError(
                f"basis is numerically dependent (smallest singular value "
                f"{smallest:.3e} < {BASIS_RANK_TOL:.0e})")
        object.__setattr__(self, "_pinv", np.linalg.pinv(vecs.T))
        object.__setattr__(self, "_memo", {})
        if self.conjugation is not None:
            c = np.asarray(self.conjugation, dtype=float).copy()
            if c.shape != (d, d):
                raise ValueError("conjugation must be a d x d matrix")
            if np.max(np.abs(c @ c - np.eye(d))) > 1e-12:
                raise ValueError("conjugation must be an involution")
            c.setflags(write=False)
            object.__setattr__(self, "conjugation", c)
        if self.is_complexified:
            p, q = self.ambient
            if p % 2 or q % 2:
                raise ValueError("complexified space needs even ambient sides")
            # J x J^{-1} for every basis element, J^{-1} = J^T
            conj = complex_structure(p // 2) @ b @ complex_structure(q // 2).T
            _, res = self.coefficients(conj)
            inside = in_span(res, conj)
            if not inside.all():
                k = int(np.argmin(inside))
                raise ValueError(
                    "span is not invariant under the block complex "
                    f"structure (basis element {k}, residual {res[k]:.3e})")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient(self) -> tuple[int, int]:
        return self.basis.shape[1], self.basis.shape[2]

    def coefficients(self, mat: np.ndarray):
        """Least-squares coefficients of a matrix, or of each matrix of a
        (..., p, q) stack, plus the residual norm (an array for a stack)."""
        m = np.asarray(mat, dtype=float)
        if m.ndim < 2 or m.shape[-2:] != self.ambient or \
                not np.all(np.isfinite(m)):
            raise ValueError(f"expected finite matrices of ambient shape "
                             f"{self.ambient}, got shape {m.shape}")
        c, res = span_coefficients(self.basis, m, self._pinv)
        return c, (float(res) if m.ndim == 2 else res)

    def contains(self, mat: np.ndarray, tol: float = MEMBERSHIP_TOL):
        """Membership of a matrix (a bool) or of each matrix of a stack."""
        m = np.asarray(mat, dtype=float)
        _, res = self.coefficients(m)
        inside = in_span(res, m, tol)
        return bool(inside) if m.ndim == 2 else inside

    def memo(self, key, build):
        """``build()``, made on the first call with ``key`` and returned
        from this space's memo after that.  The space is frozen, so
        anything derived from it alone (realization matrices, its
        complexification, its column space) is built once."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def realization_matrix(self, level: int) -> np.ndarray:
        """vec matrix of the realization R at ``level`` (memoized).

        Columns are indexed by the C-order flattening of (i, j, k).
        """
        def build():
            k_mat = kron_sum_matrix(self.basis, level)
            k_mat.setflags(write=False)
            return k_mat
        return self.memo(("realization_matrix", level), build)


def complex_structure(half: int) -> np.ndarray:
    """The block matrix J = [[0, -I], [I, 0]] of side 2*half."""
    j = np.zeros((2 * half, 2 * half))
    j[:half, half:] = -np.eye(half)
    j[half:, :half] = np.eye(half)
    return j


def full_matrix_space(p: int, q: int | None = None) -> OpSpace:
    """M_{p,q}(R) with the matrix-unit basis (row-major order)."""
    q = p if q is None else q
    basis = np.zeros((p * q, p, q))
    for r in range(p):
        for c in range(q):
            basis[r * q + c, r, c] = 1.0
    return OpSpace(basis)


def span_space(mats) -> OpSpace:
    """Operator space spanned by the given matrices (kept as the basis)."""
    return OpSpace(np.stack([as_matrix(m) for m in mats]))


@functools.cache
def scalar_space() -> OpSpace:
    """The real scalars, span{1} inside M_1(R): one space per process, so
    that what it memoizes, its complexification among them, is built
    once.  Its basis is read-only, as every space's is."""
    return span_space([[[1.0]]])


@dataclass(frozen=True, eq=False)
class MatElem:
    """Element of M_n(X), stored by coefficients over the basis of X."""

    space: OpSpace
    coeffs: np.ndarray    # (level, level, d)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 3 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficients must have shape (n, n, d)")
        if c.shape[2] != self.space.dim:
            raise ValueError(f"coefficient depth {c.shape[2]} does not match "
                             f"space dimension {self.space.dim}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def level(self) -> int:
        return self.coeffs.shape[0]

    def realization(self) -> np.ndarray:
        return kron_sum(self.coeffs, self.space.basis)


def level_norm(x: MatElem) -> float:
    """Canonical norm of M_n(X) inherited from the ambient matrices."""
    return op_norm(x.realization())


def level_norms(space: OpSpace, coeffs) -> np.ndarray:
    """``level_norm`` of each element of an (..., n, n, d) coefficient
    stack over ``space``, through one ``kron_sum`` and one stacked SVD;
    each equals its lone ``level_norm`` bit for bit."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim < 3 or c.shape[-3] != c.shape[-2] or \
            c.shape[-1] != space.dim:
        raise ValueError(f"expected (..., n, n, {space.dim}) coefficients, "
                         f"got shape {c.shape}")
    return op_norm(kron_sum(c, space.basis))


def elem(space: OpSpace, coeffs) -> MatElem:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 1:
        c = c.reshape(1, 1, -1)
    return MatElem(space, c)


def random_elem(space: OpSpace, level: int, rng: np.random.Generator) -> MatElem:
    return MatElem(space, rng.standard_normal((level, level, space.dim)))


def scalar_sandwich(alpha: np.ndarray, x: MatElem, beta: np.ndarray) -> MatElem:
    """The Ruan action alpha x beta of scalar matrices on M_n(X)."""
    c = np.einsum("ia,abk,bj->ijk", alpha, x.coeffs, beta)
    return MatElem(x.space, c)


def direct_sum_elem(x: MatElem, y: MatElem) -> MatElem:
    """x (+) y in M_{n+m}(X), with block-diagonal coefficients."""
    if x.space is not y.space and not np.array_equal(x.space.basis, y.space.basis):
        raise ValueError("direct sum of elements needs a common space")
    n, m = x.level, y.level
    c = np.zeros((n + m, n + m, x.space.dim))
    c[:n, :n, :] = x.coeffs
    c[n:, n:, :] = y.coeffs
    return MatElem(x.space, c)


@dataclass(frozen=True, eq=False)
class CBMap:
    """Linear map between spaces, amplified coefficientwise to all levels."""

    domain: OpSpace
    codomain: OpSpace
    matrix: np.ndarray    # (dim codomain, dim domain)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(f"coefficient matrix shape {m.shape} does not "
                             f"match (dim Y, dim X) = "
                             f"({self.codomain.dim}, {self.domain.dim})")
        if not np.all(np.isfinite(m)):
            raise ValueError("map entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, x: MatElem) -> MatElem:
        if x.space is not self.domain and \
                not np.array_equal(x.space.basis, self.domain.basis):
            raise ValueError("element does not live in the map's domain")
        return MatElem(self.codomain, self.amplify(x.coeffs))

    def amplify(self, coeffs: np.ndarray) -> np.ndarray:
        """The map applied coefficientwise to an (..., n, n, d) coefficient
        stack of domain elements; each image equals its lone one bit for
        bit."""
        return np.einsum("mk,...ijk->...ijm", self.matrix, coeffs)


def identity_map(space: OpSpace) -> CBMap:
    return CBMap(space, space, np.eye(space.dim))


# ----------------------------------------------------------------------
# Complexification
# ----------------------------------------------------------------------

def complexify_space(space: OpSpace) -> OpSpace:
    """X_c as the 2p x 2q space of blocks [[x, -y], [y, x]], x, y in X.

    The basis doubles: real copies [[B_k, 0], [0, B_k]] first, imaginary
    copies [[0, -B_k], [B_k, 0]] second.  The conjugation negates the
    imaginary half of the coefficients.  The result is memoized on
    ``space``: every call with the same space returns the same object.
    """
    if space.is_complexified:
        raise ValueError("space is already complexified; the functor is "
                         "defined on real spaces only")
    return space.memo("complexification", lambda: _complexified(space))


def _complexified(space: OpSpace) -> OpSpace:
    d = space.dim
    p, q = space.ambient
    basis = np.zeros((2 * d, 2 * p, 2 * q))
    for k in range(d):
        b = space.basis[k]
        basis[k, :p, :q] = b
        basis[k, p:, q:] = b
        basis[d + k, :p, q:] = -b
        basis[d + k, p:, :q] = b
    conj = np.diag(np.concatenate([np.ones(d), -np.ones(d)]))
    return OpSpace(basis, is_complexified=True, conjugation=conj)


def complexified_elem(space_c: OpSpace, x: MatElem, y: MatElem) -> MatElem:
    """The element x + iy of M_n(X_c), given x, y in M_n(X)."""
    if x.level != y.level:
        raise ValueError("x and y must live at the same level")
    if x.coeffs.shape[2] * 2 != space_c.dim:
        raise ValueError("space_c is not the complexification of the "
                         "elements' space")
    return MatElem(space_c, np.concatenate([x.coeffs, y.coeffs], axis=2))


def complexification_norm(space: OpSpace, x: MatElem, y: MatElem) -> float:
    """The norm of x + iy computed in the complexified space."""
    xc = complexify_space(space)
    return level_norm(complexified_elem(xc, x, y))


def complexify_map(u: CBMap) -> CBMap:
    """T_c(x + iy) = T(x) + iT(y), acting blockwise on coefficients."""
    if u.domain.is_complexified or u.codomain.is_complexified:
        raise ValueError("complexify_map expects a map between real spaces")
    a = u.matrix
    mat = np.block([[a, np.zeros_like(a)], [np.zeros_like(a), a]])
    return CBMap(complexify_space(u.domain), complexify_space(u.codomain), mat)


# ----------------------------------------------------------------------
# Ruan axiom sampling
# ----------------------------------------------------------------------

@dataclass
class RuanReport:
    direct_sum_deviation: float
    scalar_action_deviation: float
    passed: bool


def check_ruan_axioms(space: OpSpace, max_level: int = 3, samples: int = 100,
                      seed: int = 0, tol: float = 1e-10) -> RuanReport:
    """Sampled check of the two matrix-norm axioms.

    (i)  |norm(x (+) y) - max(norm x, norm y)| over random pairs;
    (ii) max(0, norm(alpha x beta) - |alpha| norm(x) |beta|).
    """
    if max_level < 2:
        raise ValueError("max_level must be at least 2")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = derived_rng(seed, 1)
    dev1 = 0.0
    dev2 = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, max_level + 1))
        m = int(rng.integers(1, max_level + 1))
        x = random_elem(space, n, rng)
        y = random_elem(space, m, rng)
        nx, ny = level_norm(x), level_norm(y)
        dev1 = max(dev1, abs(level_norm(direct_sum_elem(x, y)) - max(nx, ny)))
        alpha = rng.standard_normal((n, n))
        beta = rng.standard_normal((n, n))
        lhs = level_norm(scalar_sandwich(alpha, x, beta))
        dev2 = max(dev2, max(0.0, lhs - op_norm(alpha) * nx * op_norm(beta)))
    return RuanReport(dev1, dev2, dev1 <= tol and dev2 <= tol)


# ----------------------------------------------------------------------
# Direct sums
# ----------------------------------------------------------------------

def direct_sum_spaces(spaces) -> OpSpace:
    """Block-diagonal direct sum; level norms are the max over components."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("need at least one summand")
    p_tot = sum(s.ambient[0] for s in spaces)
    q_tot = sum(s.ambient[1] for s in spaces)
    basis = []
    row, col = 0, 0
    for s in spaces:
        p, q = s.ambient
        for k in range(s.dim):
            b = np.zeros((p_tot, q_tot))
            b[row:row + p, col:col + q] = s.basis[k]
            basis.append(b)
        row += p
        col += q
    return OpSpace(np.stack(basis))


# ----------------------------------------------------------------------
# Completely bounded norm lower bounds
# ----------------------------------------------------------------------

@dataclass
class CbSearchResult:
    value: float
    level: int
    witness: np.ndarray          # coefficient tensor in the domain space
    restart_values: list[float]


def num_den_maps(u: CBMap, level: int) -> tuple[LinearMatrixMap, LinearMatrixMap]:
    """The level-n maps x -> R(u_n(x)) and x -> R(x) on domain coefficients.

    u_n(x) realizes through the images u(B_k) of the domain basis.
    """
    px, qx = u.domain.ambient
    py, qy = u.codomain.ambient
    images = np.einsum("mk,mpq->kpq", u.matrix, u.codomain.basis)
    k_den = u.domain.realization_matrix(level)
    k_num = kron_sum_matrix(images, level)
    num = LinearMatrixMap(k_num, level * py, level * qy)
    den = LinearMatrixMap(k_den, level * px, level * qx)
    return num, den


def cb_norm_levels(u: CBMap, max_level: int, restarts: int = 32,
                   iters: int = 500, seed: int = 0):
    """Yield a ``CbSearchResult`` for each level n = 1..max_level in turn:
    a certified lower bound for the norm of u_n, searched when asked for.

    Multistart ascent on the ratio norm(u_n(x)) / norm(x), one stacked
    ascent per level from exactly ``restarts`` seeded starts, drawn as one
    (restarts, 2, dim) array from ``derived_rng(seed, n)`` (a start plus
    1e-8 times a tie-break; numpy fills the array restart after restart,
    so restart r's start does not depend on the restart count).  The
    ascent is the exact seesaw on a domain that fills its ambient space
    and ``ratio_ascent`` otherwise.  The stack is reduced in order with
    strict ``>`` against the best value of the lower levels, whose point,
    zero-padded, stays the witness otherwise, so results are
    nondecreasing in the level.  The seesaw ends each row at its own
    fixed point; ``ratio_ascent`` can stop short, so when its best beats
    the incumbent, one more ascent at a small first step polishes it.
    Every value is the ratio at a feasible element; ``restart_values``
    are those of the level's starts, one per row.  Invalid parameters
    raise ``ValueError`` at the first ``next()``.
    """
    if max_level < 1:
        raise ValueError("level must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    d = u.domain.dim
    p, q = u.domain.ambient
    exact = d == p * q

    def padded(lvl):
        out = np.zeros((lvl, lvl, d))
        out[:len(best), :len(best)] = best
        return out

    best_val = 0.0
    best = np.zeros((1, 1, d))    # the best point so far, at its own level
    for lvl in range(1, max_level + 1):
        num, den = num_den_maps(u, lvl)
        dim = lvl * lvl * d
        g = derived_rng(seed, lvl).standard_normal((restarts, 2, dim))
        x0s = g[:, 0] + 1e-8 * g[:, 1]   # tie-break
        vals, xs = seesaw_ascent(num, den, x0s) if exact else \
            ratio_ascent(num, den, x0s, iters=iters)
        i = int(np.argmax(vals))     # the first of equal maxima
        if vals[i] > best_val:
            best_val, best = float(vals[i]), xs[i].reshape(lvl, lvl, d)
            if not exact:
                (val,), (x,) = ratio_ascent(num, den, xs[i][None],
                                            iters=iters, step0=1e-3)
                if val > best_val:
                    best_val, best = float(val), x.reshape(lvl, lvl, d)
        yield CbSearchResult(best_val, lvl, padded(lvl), vals.tolist())


def cb_norm_lower_search(u: CBMap, level: int, restarts: int = 32,
                         iters: int = 500, seed: int = 0) -> CbSearchResult:
    """The level-n result of ``cb_norm_levels``; a caller that wants
    several levels walks that generator once instead."""
    for res in cb_norm_levels(u, level, restarts, iters, seed):
        pass
    return res


# ----------------------------------------------------------------------
# Quotient norms
# ----------------------------------------------------------------------

@dataclass
class QuotientResult:
    value: float
    gap: float               # value - lower
    converged: bool          # gap <= tol * max(1, value)
    minimizer: np.ndarray    # (n, n, dim Y) coefficients over the subspace
    lower: float             # certified lower bound on the distance
    iterations: int          # interior-point steps (0: closed start)


def quotient_level_norm(space: OpSpace, subspace_coeffs, x: MatElem,
                        tol: float = 1e-7) -> QuotientResult:
    """dist(x, M_n(Y)) for the subspace Y spanned by the given level-1
    coefficient vectors, as a certified bracket lower <= dist <= value.

    The distance is min over t of sigma_max(R(x) - R(y(t))), which
    ``optim.spectral_min_sdp`` brackets in residual coordinates around the
    least-squares point.  An element whose residual there has operator
    norm at most ``optim.SDP_BRACKET`` (1e-10) closes the bracket at
    once: it is returned with lower bound 0 and no step.
    ``value`` is the norm of the best residual, an upper bound, attained
    at the reported minimizer up to the roundoff of forming x - y, and
    ``lower`` comes from a trace-norm dual certificate.
    ``gap = value - lower`` and ``converged`` means
    ``gap <= tol * max(1, value)``, relative like the solve's own stopping
    bracket; the solve itself does not depend on ``tol``.
    """
    s = np.asarray(subspace_coeffs, dtype=float)
    if s.ndim == 1:
        s = s.reshape(1, -1)
    if s.ndim != 2 or s.shape[1] != space.dim:
        raise ValueError("subspace coefficients must have the space's depth")
    if np.linalg.matrix_rank(s) < s.shape[0]:
        raise ValueError("subspace basis coefficients are dependent")
    n = x.level
    p, q = space.ambient
    k_sub = kron_sum_matrix(np.einsum("jk,kpq->jpq", s, space.basis), n)
    value, w, lower, _, iterations = spectral_min_sdp(
        x.realization().ravel(), k_sub, n * p, n * q)
    gap = value - lower
    return QuotientResult(value, gap, gap <= tol * max(1.0, value),
                          w.reshape(n, n, s.shape[0]), lower, iterations)


# ----------------------------------------------------------------------
# The dual-scalars counterexample machinery
# ----------------------------------------------------------------------

@dataclass
class ThetaSearchResult:
    lower: float
    restart_values: list[float]
    witness_re: np.ndarray
    witness_im: np.ndarray


def theta_dual_search(z_re, z_im, restarts: int = 64,
                      seed: int = 0) -> ThetaSearchResult:
    """Lower bound for the norm of the matrix of functionals Re( . conj(z_kl)).

    The norm is the sup over m and contractive complex m x m test matrices
    of the realized real block norm.  It is the cb norm of a map into M_n
    for n x n blocks z, reached at level n (Smith's lemma; Paulsen,
    "Completely Bounded Maps and Operator Algebras", 2002, ch. 8), and a
    smaller test matrix padded with zeros is a contraction of size n, so
    only m = n is searched.

    One exact alternating (seesaw) ascent, ``optim.polar_seesaw``, runs
    from exactly ``restarts`` seeded random unitaries, the Q factors of
    complex Gaussian matrices drawn, restart after restart, from the one
    substream ``derived_rng(seed, n)``.  A round takes the top singular
    pair (u, v) of the realized matrix M(W) and moves to the contraction
    maximizing the linearization u^T M(W') v = Re tr(G^* W'): the unitary
    polar factor of G, so the value never decreases.  Every value, per
    restart included, is the norm at a unitary test matrix, a true lower
    bound; z = 0 gives 0.  The first of equal best test matrices wins, and
    ``restart_values`` (r ascending) do not depend on how many restarts
    run: numpy fills the (restarts, 2, n, n) draw in order, so restart r
    starts from the same matrix at every count.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    z_re = as_matrix(z_re)
    z_im = as_matrix(z_im)
    if z_re.shape != z_im.shape or z_re.shape[0] != z_re.shape[1]:
        raise ValueError("the two blocks must be square and equal shape")
    coeffs = np.stack([z_re, z_im], axis=-1)
    n = len(z_re)

    def polar(grads):
        u, _, vh = np.linalg.svd(grads[:, 0] + 1j * grads[:, 1])
        w = u @ vh
        return np.stack([w.real, w.imag], axis=-3)

    g = derived_rng(seed, n).standard_normal((restarts, 2, n, n))
    w = clip_contraction(np.linalg.qr(g[:, 0] + 1j * g[:, 1])[0])
    values, ws, _ = polar_seesaw(
        lambda ds: kron_sum(coeffs, ds),
        lambda u, v: kron_sum_grad(coeffs, u, v), polar,
        np.stack([w.real, w.imag], axis=-3))
    i = int(np.argmax(values))     # the first of equal maxima
    return ThetaSearchResult(float(values[i]), values.tolist(),
                             ws[i, 0].copy(), ws[i, 1].copy())


# ----------------------------------------------------------------------
# JSON forms
# ----------------------------------------------------------------------

def opspace_to_json(space: OpSpace) -> dict:
    p, q = space.ambient
    out = {"ambient": {"rows": p, "cols": q},
           "basis": [mat_to_json(b) for b in space.basis],
           "complexified": bool(space.is_complexified)}
    if space.conjugation is not None:
        out["conjugation"] = [[float(v) for v in row]
                              for row in space.conjugation]
    return out


def opspace_from_json(obj: dict) -> OpSpace:
    if not isinstance(obj, dict) or "basis" not in obj:
        raise ValueError('operator space JSON needs a "basis" list')
    basis = [mat_from_json(b) for b in obj["basis"]]
    if "ambient" in obj:
        amb = (int(obj["ambient"]["rows"]), int(obj["ambient"]["cols"]))
        for b in basis:
            if b.shape != amb:
                raise ValueError(f"basis matrix shape {b.shape} does not "
                                 f"match ambient {amb}")
    conj = obj.get("conjugation")
    return OpSpace(np.stack(basis),
                   is_complexified=bool(obj.get("complexified", False)),
                   conjugation=None if conj is None else np.asarray(conj, float))


def elem_from_json(space: OpSpace, obj: dict) -> MatElem:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError('element JSON needs a "coeffs" tensor')
    x = MatElem(space, obj["coeffs"])
    if "level" in obj and x.level != int(obj["level"]):
        raise ValueError("declared level does not match coefficient shape")
    return x
