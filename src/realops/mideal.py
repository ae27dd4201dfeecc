"""Complete left M-projection machinery.

An idempotent P on a space X is a complete left M-projection when
x -> [P(x); x - P(x)] is a complete isometry into the column space
C_2(X).  This module builds the three associated maps (the column
embedding nu, its left inverse mu, and the corner map tau), certifies or
refutes the M-projection property, checks left-multiplier witnesses, and
verifies the complexification compatibility of the whole picture through
an explicit shuffle permutation.

C_2(X) is realized concretely by vertical stacking in a (2p, q) ambient;
its basis is ordered [upper copies of the basis..., lower copies...].

A "certified" verdict comes in two strengths.  When P is left
multiplication by an ambient matrix a that makes all three maps
contractions of the right kind (an orthogonal projection does; the real
form of Blecher-Effros-Zarikian, "One-sided M-ideals and multipliers in
operator spaces, I", Pacific J. Math. 206, 2002), the verdict holds at
all matrix levels, with the multiplier certificate as proof.  Otherwise
it is level- and sample-bounded: it certifies the absence of violations
up to the checked level, not the full property.  At each level the
isometry search scores a seeded pool of elements in one stacked
evaluation, then refines the pool's best point from several jittered
starts that run in lockstep through one stacked ``ratio_ascent``.  The
checks of mu and tau advance one lazy ``opspace.cb_norm_levels`` sweep
per map, a level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (MEMBERSHIP_TOL, as_matrix, in_span, op_norm,
                     span_coefficients)
from .opspace import (CBMap, MatElem, OpSpace, complexify_map,
                      complexify_space, cb_norm_levels, level_norm,
                      num_den_maps)
from .optim import ratio_ascent, ratio_eval, seesaw_ascent
from .rng import derived_rng

IDEMPOTENCY_TOL = 1e-10


@dataclass(frozen=True)
class Projection:
    """Idempotent endomap, stored as its coefficient matrix."""

    underlying: CBMap
    idempotency_defect: float = 0.0

    def __post_init__(self):
        u = self.underlying
        if u.domain is not u.codomain and \
                not np.array_equal(u.domain.basis, u.codomain.basis):
            raise ValueError("a projection needs equal domain and codomain")
        defect = float(np.max(np.abs(u.matrix @ u.matrix - u.matrix)))
        object.__setattr__(self, "idempotency_defect", defect)
        if defect > IDEMPOTENCY_TOL:
            raise ValueError(f"map is not idempotent: max |P^2 - P| = "
                             f"{defect:.3e} > {IDEMPOTENCY_TOL:.0e}")

    @property
    def space(self) -> OpSpace:
        return self.underlying.domain

    @property
    def matrix(self) -> np.ndarray:
        return self.underlying.matrix


def projection(space: OpSpace, matrix) -> Projection:
    return Projection(CBMap(space, space, np.asarray(matrix, dtype=float)))


def column_space(space: OpSpace) -> OpSpace:
    """C_2(X) as the vertically stacked span in a (2p, q) ambient."""
    d = space.dim
    p, q = space.ambient
    basis = np.zeros((2 * d, 2 * p, q))
    basis[:d, :p, :] = space.basis
    basis[d:, p:, :] = space.basis
    return OpSpace(basis)


def column_embed(x: MatElem, y: MatElem, c2: OpSpace) -> MatElem:
    """The element [x; y] of M_n(C_2(X))."""
    if x.level != y.level:
        raise ValueError("column entries must share a level")
    return MatElem(c2, np.concatenate([x.coeffs, y.coeffs], axis=2))


def build_nu_mu_tau(p: Projection) -> tuple[CBMap, CBMap, CBMap]:
    """The maps nu: x -> [P(x); x - P(x)], mu: [x; y] -> P(x) + (I-P)(y),
    and tau: [x; y] -> [P(x); y] on the concrete column space.

    mu composed with nu is the identity on coefficients.
    """
    space = p.space
    c2 = column_space(space)
    d = space.dim
    pm = p.matrix
    comp = np.eye(d) - pm
    nu = CBMap(space, c2, np.vstack([pm, comp]))
    mu = CBMap(c2, space, np.hstack([pm, comp]))
    tau = tau_map(p.underlying)
    return nu, mu, tau


def tau_map(u: CBMap) -> CBMap:
    """tau_u: [x; y] -> [u(x); y] on C_2(X), for an endomap u of X.  A
    level-norm lower bound of tau_u above 1 refutes multiplier norm <= 1
    for u."""
    if u.domain is not u.codomain and \
            not np.array_equal(u.domain.basis, u.codomain.basis):
        raise ValueError("tau needs an endomap")
    d = u.domain.dim
    c2 = column_space(u.domain)
    mat = np.zeros((2 * d, 2 * d))
    mat[:d, :d] = u.matrix
    mat[d:, d:] = np.eye(d)
    return CBMap(c2, c2, mat)


# ----------------------------------------------------------------------
# Certification
# ----------------------------------------------------------------------

@dataclass
class MultiplierCertificate:
    """All-level bounds for a projection P that is, up to a residual map
    E(x) = P(x) - a x of cb norm at most ``epsilon``, left multiplication
    by the ambient matrix ``a``.  With V = [a; I - a], W = [a, I - a] and
    delta = ||V^T V - I||, at every level |norm(nu x)/norm(x) - 1| is at
    most delta + 2 epsilon, and the norms of mu and tau are at most
    ``mu_bound`` and ``tau_bound``."""

    a: np.ndarray
    delta: float
    epsilon: float
    mu_bound: float              # ||W|| + 2 epsilon
    tau_bound: float             # max(||a||, 1) + epsilon


@dataclass
class Certification:
    verdict: str                 # "certified" | "refuted"
    levels_checked: int          # 0 when certified by ``certificate``
    samples: int                 # 0 when certified by ``certificate``
    tolerance: float
    refuted_level: int | None = None
    check: str | None = None     # "nu_isometry" | "mu_contraction" | "tau_contraction"
    witness: np.ndarray | None = None
    witness_in_column_space: bool = False
    observed: float | None = None
    expected: float | None = None
    all_levels: bool = False     # certified at every level, by ``certificate``
    certificate: MultiplierCertificate | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _multiplier_certificate(p: Projection,
                            tol: float) -> MultiplierCertificate | None:
    """The multiplier certificate of P when it proves the M-projection
    property at every level within ``tol``, else None.

    The witness a is the least-squares solution of a B_k = P(B_k), kept
    only when ``verify_multiplier_witness`` accepts it.  At level n the
    three maps are x -> (I_n (x) V) X, z -> (I_n (x) W) Z and
    z -> (I_n (x) diag(a, I)) Z on the realizations, plus the amplified
    residual E(x) = P(x) - a x in one or both rows.  E is
    sum_k c_k(x) R_k with R_k = P(B_k) - a B_k and c_k the coordinate
    functionals, so ||E||_cb <= sum_k ||c_k|| ||R_k|| (a functional's cb
    norm is its norm).  c_k is the trace pairing with the dual basis
    element D_k, whose Frobenius norm is sqrt((Gamma^-1)_kk) for the trace
    Gram matrix Gamma of the basis, so ||c_k|| <= ||D_k||_1 <=
    sqrt(min(p, q) (Gamma^-1)_kk).
    """
    space, u = p.space, p.underlying
    a, _ = solve_left_multiplier(space, u)
    if not verify_multiplier_witness(space, u, a):
        return None
    eye = np.eye(len(a))
    v = np.vstack([a, eye - a])
    vecs = space.basis.reshape(space.dim, -1)
    coord = np.sqrt(min(space.ambient) *
                    np.diag(np.linalg.inv(vecs @ vecs.T)))
    resid = _images(space, u) - a @ space.basis
    eps = float(coord @ np.linalg.norm(resid, 2, axis=(1, 2)))
    delta = op_norm(v.T @ v - eye)
    mu_bound = op_norm(np.hstack([a, eye - a])) + 2 * eps
    tau_bound = max(op_norm(a), 1.0) + eps
    if delta + 2 * eps <= tol and max(mu_bound, tau_bound) <= 1 + tol:
        return MultiplierCertificate(a, delta, eps, mu_bound, tau_bound)
    return None


def _isometry_violation_search(nu: CBMap, level: int, samples: int,
                               refinements: int, seed: int):
    """Worst |ratio - 1| for ratio = norm(nu x)/norm(x) over sampled and
    ascent-refined elements; returns (violation, ratio, coeffs).

    The pool (the d canonical elements, then ``samples`` draws of
    ``derived_rng(seed, 11, level)``) is scored in one stacked evaluation
    and its first strict maximum kept.  Every refinement j starts from the
    pool's best point, jittered by ``derived_rng(seed, 12, level, j)``
    (1e-8 for j = 0, 0.05 otherwise), and all of them run as one lockstep
    ``ratio_ascent``, ascending away from 1 on the side of the pool's best
    ratio; their results are reduced in order with strict ``>``.  When
    that side is upward and nu's domain fills its ambient space, one exact
    ``seesaw_ascent`` row then polishes the best point, which it replaces
    only when strictly better.
    """
    d = nu.domain.dim
    num, den = num_den_maps(nu, level)
    n = level * level * d
    pool = np.concatenate([np.eye(d, n),
                           derived_rng(seed, 11, level).standard_normal(
                               (samples, n))])
    ratios = ratio_eval(num, den, pool)
    viol = np.where(pool.any(axis=1), np.abs(ratios - 1.0), -1.0)
    i = int(np.argmax(viol))         # the first of equal maxima
    best_viol, best_c, best_r = viol[i], pool[i], float(ratios[i])
    starts = np.empty((refinements, n))
    for j in range(refinements):
        rng_j = derived_rng(seed, 12, level, j)
        starts[j] = best_c + (1e-8 if j == 0 else 0.05) * \
            rng_j.standard_normal(n)
    sign = -1.0 if best_r <= 1.0 else 1.0
    xs = ratio_ascent(num, den, starts, iters=400, sign=sign)[1]
    ratios = ratio_eval(num, den, xs)
    j = int(np.argmax(np.abs(ratios - 1.0)))
    if abs(ratios[j] - 1.0) > best_viol:
        best_c, best_r = xs[j], float(ratios[j])
    if sign > 0 and den.matrix.shape[0] == den.matrix.shape[1]:
        (val,), (x,) = seesaw_ascent(num, den, best_c[None])
        if val > best_r:
            best_c, best_r = x, float(val)
    sd = den.sigma(best_c[None])[0]
    if sd > 0:
        best_c = best_c / sd          # report a unit-norm witness
        best_r = float(ratio_eval(num, den, best_c[None])[0])
    return abs(best_r - 1.0), best_r, best_c.reshape(level, level, d)


def certify_left_m_projection(p: Projection, max_level: int = 3,
                              samples: int = 200, restarts: int = 16,
                              seed: int = 0, tol: float = 1e-9) -> Certification:
    """Certificate that P is a complete left M-projection, or a refutation.

    After the parameters are validated, ``_multiplier_certificate`` is
    tried first: when P is left multiplication by a matrix a that makes
    nu an isometry and mu and tau contractions within ``tol``, the verdict
    is ``certified`` at all levels (``all_levels``, with the bounds in
    ``certificate``) and nothing is searched: ``levels_checked`` and
    ``samples`` are then 0.

    Otherwise the check is level-bounded.  Per level: (a) search for
    isometry violations of nu, over ``samples`` seeded elements and then
    min(restarts, 16) ascent refinements, which all start from the best
    sampled element and run in lockstep; (b) refute contractivity of mu
    and tau through the next level of their ``cb_norm_levels`` sweeps
    (cb-norm lower bounds).  Any violation yields a refuted verdict with a
    concrete re-verifiable witness; otherwise the projection is certified
    at the checked levels (not a proof of the full completely isometric
    property).
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    cert = _multiplier_certificate(p, tol)
    if cert is not None:
        return Certification("certified", 0, 0, tol, all_levels=True,
                             certificate=cert)
    nu, mu, tau = build_nu_mu_tau(p)
    sweeps = [(name, cb_norm_levels(mp, max_level, restarts=restarts,
                                    iters=300, seed=seed + 1))
              for name, mp in (("mu_contraction", mu),
                               ("tau_contraction", tau))]
    for lvl in range(1, max_level + 1):
        viol, ratio, coeffs = _isometry_violation_search(
            nu, lvl, samples, refinements=min(restarts, 16), seed=seed)
        if viol > tol:
            return Certification(
                "refuted", lvl, samples, tol, refuted_level=lvl,
                check="nu_isometry", witness=coeffs, observed=ratio,
                expected=1.0)
        for name, levels in sweeps:
            res = next(levels)
            if res.value > 1.0 + tol:
                return Certification(
                    "refuted", lvl, samples, tol, refuted_level=lvl,
                    check=name, witness=res.witness,
                    witness_in_column_space=True, observed=res.value,
                    expected=1.0)
    return Certification("certified", max_level, samples, tol)


def reverify_certification(p: Projection, cert: Certification) -> float:
    """Recompute the observed value from a stored refutation witness."""
    if cert.verdict != "refuted" or cert.witness is None:
        raise ValueError("only refuted certifications carry a witness")
    nu, mu, tau = build_nu_mu_tau(p)
    if cert.check == "nu_isometry":
        x = MatElem(p.space, cert.witness)
        return level_norm(nu(x)) / level_norm(x)
    mp = mu if cert.check == "mu_contraction" else tau
    x = MatElem(mp.domain, cert.witness)
    return level_norm(mp(x)) / level_norm(x)


# ----------------------------------------------------------------------
# Complexification compatibility
# ----------------------------------------------------------------------

@dataclass
class ShuffleCertificate:
    coeff_perm: np.ndarray       # C_2(X)_c index -> C_2(X_c) index
    row_perm: np.ndarray         # ambient row permutation
    basis_deviation: float       # exact basis match (0.0)
    sample_norm_deviation: float
    samples: int


def _coeff_shuffle(d: int) -> np.ndarray:
    """The coefficient permutation C_2(X)_c -> C_2(X_c) for dim X = d: the
    index (r, s, k) goes to (s, r, k)."""
    return np.arange(4 * d).reshape(2, 2, d).transpose(1, 0, 2).ravel()


def shuffle_iso(space: OpSpace, samples: int = 50,
                seed: int = 0) -> ShuffleCertificate:
    """The coordinate permutation implementing C_2(X)_c = C_2(X_c).

    Index conventions: C_2(X)_c orders coefficients (re/im, up/low, k),
    C_2(X_c) orders them (up/low, re/im, k); the permutation swaps the two
    outer labels and is its own inverse.  On ambient matrices it permutes
    the four p-row blocks (1,2,3,4) -> (1,3,2,4), a norm-preserving row
    permutation.
    """
    if space.is_complexified:
        raise ValueError("shuffle certificate is built from a real space")
    d = space.dim
    p, _ = space.ambient
    lhs = complexify_space(column_space(space))
    rhs = column_space(complexify_space(space))
    perm = _coeff_shuffle(d)
    row_perm = np.concatenate([
        np.arange(0, p), np.arange(2 * p, 3 * p),
        np.arange(p, 2 * p), np.arange(3 * p, 4 * p)])
    dev = 0.0
    for a in range(4 * d):
        lhs_mat = lhs.basis[a][row_perm, :]
        rhs_mat = rhs.basis[perm[a]]
        dev = max(dev, float(np.max(np.abs(lhs_mat - rhs_mat))))
    rng = derived_rng(seed, 21)
    norm_dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 3))
        c = rng.standard_normal((n, n, 4 * d))
        norm_dev = max(norm_dev, abs(
            level_norm(MatElem(lhs, c)) -
            level_norm(MatElem(rhs, c[:, :, perm]))))
    return ShuffleCertificate(perm, row_perm, dev, norm_dev, samples)


def _permutation_matrix(perm: np.ndarray) -> np.ndarray:
    m = np.zeros((perm.size, perm.size))
    for src, dst in enumerate(perm):
        m[dst, src] = 1.0
    return m


def projection_complexification_consistency(u: CBMap, samples: int = 20,
                                            seed: int = 0) -> float:
    """Max deviation of shuffle . (tau_u)_c . shuffle^{-1} from tau_{u_c}
    on sampled elements.  The identity is linear-algebraic and holds for
    any linear endomap, so the deviation is zero up to float roundoff.
    """
    space = u.domain
    s_mat = _permutation_matrix(_coeff_shuffle(space.dim))
    lhs_mat = s_mat @ complexify_map(tau_map(u)).matrix @ s_mat.T
    u_c = complexify_map(u)
    rhs_mat = tau_map(u_c).matrix
    c2xc = column_space(complexify_space(space))
    diff = lhs_mat - rhs_mat
    rng = derived_rng(seed, 22)
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 3))
        c = rng.standard_normal((n, n, diff.shape[1]))
        img = np.einsum("mk,ijk->ijm", diff, c)
        dev = max(dev, level_norm(MatElem(c2xc, img)))
    return dev


# ----------------------------------------------------------------------
# Multiplier witnesses and right ideals
# ----------------------------------------------------------------------

def _images(space: OpSpace, u: CBMap) -> np.ndarray:
    """The (d, p, q) stack of realizations u(B_k)."""
    return np.einsum("mk,mpq->kpq", u.matrix, space.basis)


def verify_multiplier_witness(space: OpSpace, u: CBMap, a,
                              tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff the ambient matrix a implements u as left multiplication,
    i.e. realization(u(B_k)) = a B_k on every basis element within tol."""
    am = as_matrix(a)
    p, _ = space.ambient
    if am.shape != (p, p):
        raise ValueError(f"witness must be {p} x {p} for this ambient")
    return bool(np.max(np.abs(_images(space, u) - am @ space.basis)) <= tol)


def solve_left_multiplier(space: OpSpace, u: CBMap) -> tuple[np.ndarray, float]:
    """Least-squares solve of a B_k = u(B_k) for the witness a; returns
    (a, residual), the residual being the Frobenius norm of the stacked
    a B_k - u(B_k).  A residual far above roundoff means no witness."""
    # a [B_1 ... B_d] = [u(B_1) ... u(B_d)], transposed into lstsq form
    blocks = np.concatenate(space.basis, axis=1)          # (p, d q)
    images = np.concatenate(_images(space, u), axis=1)
    sol, *_ = np.linalg.lstsq(blocks.T, images.T, rcond=None)
    res = float(np.linalg.norm(blocks.T @ sol - images.T))
    return sol.T, res


def is_right_ideal(algebra, subspace_coeffs,
                   tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff J B_k stays in J for every algebra basis element, with
    membership measured by least-squares residual; the rows spanning J may
    be dependent."""
    space = algebra.space
    s = np.asarray(subspace_coeffs, dtype=float)
    if s.ndim == 1:
        s = s.reshape(1, -1)
    if s.shape[1] != space.dim:
        raise ValueError("subspace coefficients must live over the "
                         "algebra's basis")
    j_mats = np.einsum("jk,kpq->jpq", s, space.basis)
    prods = j_mats[:, None] @ space.basis[None]
    _, res = span_coefficients(j_mats, prods)
    return bool(in_span(res, prods, tol).all())
