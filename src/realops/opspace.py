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

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .linalg import (MEMBERSHIP_TOL, as_matrix, clip_contraction, in_span,
                     kron_sum, kron_sum_matrix, mat_from_json, mat_to_json,
                     op_norm, span_coefficients)
from .optim import (LinearMatrixMap, polar_seesaw, ratio_ascent, ratio_eval,
                    seesaw_ascent, spectral_min_sdp)
from .rng import derived_rng

#: singular-value threshold below which a basis is rejected as degenerate
BASIS_RANK_TOL = 1e-10


@dataclass(frozen=True)
class OpSpace:
    """Concrete real operator space: span of ``basis`` inside M_{p,q}(R)."""

    basis: np.ndarray                      # (d, p, q)
    is_complexified: bool = False
    conjugation: np.ndarray | None = None  # (d, d) coefficient involution
    gram_condition: float = field(init=False, default=0.0)

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
        if svals[-1] < BASIS_RANK_TOL:
            raise ValueError(
                f"basis is numerically dependent (smallest singular value "
                f"{svals[-1]:.3e} < {BASIS_RANK_TOL:.0e})")
        object.__setattr__(self, "gram_condition",
                           float((svals[0] / svals[-1]) ** 2))
        object.__setattr__(self, "_pinv", np.linalg.pinv(vecs.T))
        object.__setattr__(self, "_rmcache", {})
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

    def realization_matrix(self, level: int) -> np.ndarray:
        """vec matrix of the realization R at ``level`` (cached).

        Columns are indexed by the C-order flattening of (i, j, k).
        """
        cache = self._rmcache
        if level not in cache:
            k_mat = kron_sum_matrix(self.basis, level)
            k_mat.setflags(write=False)
            cache[level] = k_mat
        return cache[level]


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        return MatElem(self.codomain,
                       np.einsum("mk,ijk->ijm", self.matrix, x.coeffs))


def identity_map(space: OpSpace) -> CBMap:
    return CBMap(space, space, np.eye(space.dim))


# ----------------------------------------------------------------------
# Complexification
# ----------------------------------------------------------------------

def complexify_space(space: OpSpace) -> OpSpace:
    """X_c as the 2p x 2q space of blocks [[x, -y], [y, x]], x, y in X.

    The basis doubles: real copies [[B_k, 0], [0, B_k]] first, imaginary
    copies [[0, -B_k], [B_k, 0]] second.  The conjugation negates the
    imaginary half of the coefficients.
    """
    if space.is_complexified:
        raise ValueError("space is already complexified; the functor is "
                         "defined on real spaces only")
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


def conjugate_elem(x: MatElem) -> MatElem:
    if x.space.conjugation is None:
        raise ValueError("space carries no conjugation")
    return MatElem(x.space,
                   np.einsum("kl,ijl->ijk", x.space.conjugation, x.coeffs))


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
    samples: int
    max_level: int
    tol: float
    passed: bool


def check_ruan_axioms(space: OpSpace, max_level: int = 3, samples: int = 100,
                      seed: int = 0, tol: float = 1e-10) -> RuanReport:
    """Sampled check of the two matrix-norm axioms.

    (i)  |norm(x (+) y) - max(norm x, norm y)| over random pairs;
    (ii) max(0, norm(alpha x beta) - |alpha| norm(x) |beta|).
    """
    if max_level < 2:
        raise ValueError("max_level must be at least 2")
    rng = derived_rng(seed, 1)
    dev1 = 0.0
    dev2 = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, max_level + 1))
        m = int(rng.integers(1, max_level + 1))
        x = random_elem(space, n, rng)
        y = random_elem(space, m, rng)
        nx, ny = level_norm(x), level_norm(y)
        if nx < 1e-14 or ny < 1e-14:
            continue
        dev1 = max(dev1, abs(level_norm(direct_sum_elem(x, y)) - max(nx, ny)))
        alpha = rng.standard_normal((n, n))
        beta = rng.standard_normal((n, n))
        lhs = level_norm(scalar_sandwich(alpha, x, beta))
        dev2 = max(dev2, max(0.0, lhs - op_norm(alpha) * nx * op_norm(beta)))
    return RuanReport(dev1, dev2, samples, max_level, tol,
                      passed=(dev1 <= tol and dev2 <= tol))


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

    Multistart ascent on the ratio norm(u_n(x)) / norm(x) from the d
    single-coefficient elements, the best witness so far (zero-padded, so
    results are nondecreasing in the level) and ``restarts`` draws of
    ``derived_rng(seed, n, r)``.  Every value is the ratio at a feasible
    element.  One stacked ascent runs the restarts, reduced in order with
    strict ``>``, and one polishes the incumbent: the exact seesaw on a
    domain that fills its ambient space, ``ratio_ascent`` otherwise.
    Invalid parameters raise ``ValueError`` at the first ``next()``.
    """
    if max_level < 1:
        raise ValueError("level must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    d = u.domain.dim
    p, q = u.domain.ambient

    def ascent(num, den, x0s, step0=0.5):
        return seesaw_ascent(num, den, x0s) if d == p * q else \
            ratio_ascent(num, den, x0s, iters=iters, step0=step0)

    best_val = 0.0
    best_x = None        # flat coefficient vector at level best_level
    best_level = 1
    for lvl in range(1, max_level + 1):
        num, den = num_den_maps(u, lvl)
        starts = np.eye(d, lvl * lvl * d)
        if best_x is not None:
            pad = np.zeros((lvl, lvl, d))
            pad[:best_level, :best_level, :] = \
                best_x.reshape(best_level, best_level, d)
            starts = np.concatenate([starts, pad.reshape(1, -1)])
        for val, c in zip(ratio_eval(num, den, starts), starts):
            if val > best_val:
                best_val, best_x, best_level = float(val), c.copy(), lvl
        x0s = np.empty((restarts, lvl * lvl * d))
        for r in range(restarts):
            rng = derived_rng(seed, lvl, r)
            x0s[r] = rng.standard_normal(lvl * lvl * d)
            x0s[r] += 1e-8 * rng.standard_normal(lvl * lvl * d)  # tie-break
        vals, xs = ascent(num, den, x0s)
        for val, x in zip(vals, xs):
            if val > best_val:
                best_val, best_x, best_level = float(val), x.copy(), lvl
        # polish the incumbent at this level
        if best_x is not None and best_level == lvl:
            (val,), (x,) = ascent(num, den, best_x[None], step0=1e-3)
            if val > best_val:
                best_val, best_x = float(val), x.copy()
        witness = np.zeros((lvl, lvl, d))
        if best_x is not None:
            witness[:best_level, :best_level, :] = \
                best_x.reshape(best_level, best_level, d)
        yield CbSearchResult(best_val, lvl, witness, vals.tolist())


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
    converged: bool          # gap <= tol
    minimizer: np.ndarray    # (n, n, dim Y) coefficients over the subspace
    lower: float             # certified lower bound on the distance
    iterations: int          # interior-point steps (0 at the zero exit)


def quotient_level_norm(space: OpSpace, subspace_coeffs, x: MatElem,
                        tol: float = 1e-7) -> QuotientResult:
    """dist(x, M_n(Y)) for the subspace Y spanned by the given level-1
    coefficient vectors, as a certified bracket lower <= dist <= value.

    The distance is min over t of sigma_max(R(x) - R(y(t))).  The solver
    starts at the least-squares point (the t closest to R(x) in Frobenius
    norm).  When the operator norm of its residual is at most 1e-13, the
    element lies in M_n(Y) and that point is returned at once, with lower
    bound 0.  Otherwise ``optim.spectral_min_sdp`` brackets the distance
    from that start, and the better of the start and its point is
    reported: ``value`` is the norm at the reported minimizer, an upper
    bound, and ``lower`` comes from a trace-norm dual certificate.
    ``gap = value - lower`` and ``converged`` means ``gap <= tol``; the
    solve itself does not depend on ``tol``.
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
    b_vec = x.realization().ravel()
    w0 = np.linalg.lstsq(k_sub, b_vec, rcond=None)[0]
    value = op_norm((b_vec - k_sub @ w0).reshape(n * p, n * q))
    w_best, lower, iterations = w0, 0.0, 0
    if value > 1e-13:
        s_val, s_w, lower, _, iterations = spectral_min_sdp(
            b_vec, k_sub, n * p, n * q, w0)
        if s_val <= value:
            value, w_best = s_val, s_w
    gap = value - lower
    return QuotientResult(value, gap, gap <= tol,
                          w_best.reshape(n, n, s.shape[0]), lower, iterations)


# ----------------------------------------------------------------------
# The dual-scalars counterexample machinery
# ----------------------------------------------------------------------

@dataclass
class ThetaSearchResult:
    lower: float
    best_m: int
    restart_values: list[float]
    witness_re: np.ndarray
    witness_im: np.ndarray


def theta_dual_search(z_re, z_im, m_max: int = 4, restarts: int = 64,
                      iters: int = 150, seed: int = 0) -> ThetaSearchResult:
    """Lower bound for the norm of the matrix of functionals Re( . conj(z_kl)).

    The norm is the sup over m and contractive complex m x m test matrices
    of the realized real block norm.  It is the cb norm of a map into M_n
    for n x n blocks z, which is reached at level n (Smith's lemma; Paulsen,
    "Completely Bounded Maps and Operator Algebras", 2002, ch. 8), so only
    m = 1..min(m_max, n) are searched.

    For each such m the search runs an exact alternating (seesaw) ascent
    from the identity and from ``restarts`` seeded random unitaries,
    restart r drawn from ``derived_rng(seed, m, r)``, for at most ``iters``
    rounds.  A round takes the top singular pair (u, v) of the realized
    matrix M(W) and moves to the contraction maximizing the linearization
    u^T M(W') v = Re tr(G^* W'): the unitary polar factor of G.  The value
    never decreases, and a start retires once a round gains no more than
    1e-15.  All starts advance in lockstep through ``optim.polar_seesaw``,
    with two stacked SVDs per round.  Each evaluation happens at a unitary
    test matrix, so every reported value, per restart included, is a true
    lower bound.  Each start keeps its own first strict maximum, and the
    starts are reduced in order with strict ``>``: the first best test
    matrix wins, and
    ``restart_values`` (m ascending, then r) do not depend on how many
    restarts run.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    z_re = as_matrix(z_re)
    z_im = as_matrix(z_im)
    if z_re.shape != z_im.shape or z_re.shape[0] != z_re.shape[1]:
        raise ValueError("the two blocks must be square and equal shape")
    if not z_re.any() and not z_im.any():
        return ThetaSearchResult(0.0, 1, [], np.eye(1), np.zeros((1, 1)))
    coeffs = np.stack([z_re, z_im], axis=-1)
    best = 0.0
    best_m = 1
    best_w = np.stack([np.eye(1), np.zeros((1, 1))])
    restart_values = []

    def polar(grads):
        u, _, vh = np.linalg.svd(grads[:, 0] + 1j * grads[:, 1])
        w = u @ vh
        return np.stack([w.real, w.imag], axis=-3)

    for m in range(1, min(m_max, len(z_re)) + 1):
        g = np.empty((restarts, m, m), dtype=complex)
        for r in range(restarts):
            rng = derived_rng(seed, m, r)
            g[r] = rng.standard_normal((m, m)) + \
                1j * rng.standard_normal((m, m))
        w = clip_contraction(np.concatenate(
            [np.eye(m, dtype=complex)[None], np.linalg.qr(g)[0]]))
        run_best, run_w, _ = polar_seesaw(
            coeffs, np.stack([w.real, w.imag], axis=-3), iters, polar)
        i = int(np.argmax(run_best))     # the first of equal maxima
        if run_best[i] > best:
            best, best_m, best_w = float(run_best[i]), m, run_w[i]
        restart_values.extend(run_best[1:].tolist())
    return ThetaSearchResult(best, best_m, restart_values, best_w[0].copy(),
                             best_w[1].copy())


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


def elem_to_json(x: MatElem) -> dict:
    return {"level": x.level,
            "coeffs": [[[float(v) for v in cell] for cell in row]
                       for row in x.coeffs]}


def elem_from_json(space: OpSpace, obj: dict) -> MatElem:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError('element JSON needs a "coeffs" tensor')
    x = MatElem(space, obj["coeffs"])
    if "level" in obj and x.level != int(obj["level"]):
        raise ValueError("declared level does not match coefficient shape")
    return x


def cbmap_to_json(u: CBMap) -> dict:
    return {"matrix": [[float(v) for v in row] for row in u.matrix],
            "domain": opspace_to_json(u.domain),
            "codomain": opspace_to_json(u.codomain)}


def cbmap_from_json(obj: dict, domain: OpSpace | None = None,
                    codomain: OpSpace | None = None,
                    base_dir: str = ".") -> CBMap:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError('map JSON needs a "matrix"')

    def resolve(slot, given):
        if given is not None:
            return given
        val = obj.get(slot)
        if val is None:
            raise ValueError(f'map JSON needs "{slot}" (inline or file path) '
                             f'when no space is supplied')
        if isinstance(val, str):
            with open(os.path.join(base_dir, val)) as fh:
                return opspace_from_json(json.load(fh))
        return opspace_from_json(val)

    dom = resolve("domain", domain)
    cod = resolve("codomain", codomain)
    return CBMap(dom, cod, np.asarray(obj["matrix"], dtype=float))
