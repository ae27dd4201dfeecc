"""Complete left M-projection machinery.

An idempotent P on a space X is a complete left M-projection when
x -> [P(x); x - P(x)] is a complete isometry into the column space
C_2(X).  This module builds the three associated maps (the column
embedding nu, its left inverse mu, and the corner map tau), certifies or
refutes the M-projection property, checks left-multiplier witnesses, and
verifies the complexification compatibility of the whole picture through
an explicit shuffle permutation, compared exactly on bases and coefficient
matrices rather than on sampled norms.

C_2(X) is realized concretely by vertical stacking in a (2p, q) ambient;
its basis is ordered [upper copies of the basis..., lower copies...].

A "certified" verdict comes in two strengths.  When P is left
multiplication by an ambient matrix a that makes all three maps
contractions of the right kind (an orthogonal projection does; the real
form of Blecher-Effros-Zarikian, "One-sided M-ideals and multipliers in
operator spaces, I", Pacific J. Math. 206, 2002), the verdict holds at
all matrix levels, with the multiplier certificate as proof.  Otherwise
it is level-bounded: it certifies the absence of violations up to the
checked level, not the full property.  Since mu composed with nu is the
identity, nu is isometric and mu and tau contractive exactly when all
three have norm at most 1, so each map advances one lazy
``opspace.cb_norm_levels`` sweep, a level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (MEMBERSHIP_TOL, as_matrix, in_span, op_norm,
                     span_coefficients)
from .opspace import (CBMap, MatElem, OpSpace, complexify_map,
                      complexify_space, cb_norm_levels, level_norm)

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
    """C_2(X) as the vertically stacked span in a (2p, q) ambient,
    memoized on ``space``: every call with the same space returns the same
    object."""
    return space.memo("column_space", lambda: _stacked_columns(space))


def _stacked_columns(space: OpSpace) -> OpSpace:
    d = space.dim
    p, q = space.ambient
    basis = np.zeros((2 * d, 2 * p, q))
    basis[:d, :p, :] = space.basis
    basis[d:, p:, :] = space.basis
    return OpSpace(basis)


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
    #: 0 when ``certificate`` proves every level, else the refuted level or
    #: the last one searched
    levels_checked: int
    check: str | None = None     # "nu_isometry" | "mu_contraction" | "tau_contraction"
    witness: np.ndarray | None = None    # in X for "nu_isometry", else C_2(X)
    observed: float | None = None        # the witness's ratio, above 1 + tol
    certificate: MultiplierCertificate | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _multiplier_certificate(p: Projection,
                            tol: float) -> MultiplierCertificate | None:
    """The multiplier certificate of P when it proves the M-projection
    property at every level within ``tol``, else None.

    The witness a is the least-squares solution of a B_k = P(B_k), kept
    only when every residual R_k = P(B_k) - a B_k is within
    ``MEMBERSHIP_TOL`` entrywise, the rule of
    ``verify_multiplier_witness``.  At level n the three maps are
    x -> (I_n (x) V) X, z -> (I_n (x) W) Z and z -> (I_n (x) diag(a, I)) Z
    on the realizations, plus the amplified residual E(x) = P(x) - a x in
    one or both rows.  E is sum_k c_k(x) R_k with c_k the coordinate
    functionals, so ||E||_cb <= sum_k ||c_k|| ||R_k|| (a functional's cb
    norm is its norm).  c_k is the trace pairing with the dual basis
    element D_k, whose Frobenius norm is sqrt((Gamma^-1)_kk) for the trace
    Gram matrix Gamma of the basis, so ||c_k|| <= ||D_k||_1 <=
    sqrt(min(p, q) (Gamma^-1)_kk).
    """
    space, u = p.space, p.underlying
    a, _ = solve_left_multiplier(space, u)
    resid = _images(space, u) - a @ space.basis
    if not np.max(np.abs(resid)) <= MEMBERSHIP_TOL:
        return None
    eye = np.eye(len(a))
    v = np.vstack([a, eye - a])
    vecs = space.basis.reshape(space.dim, -1)
    coord = np.sqrt(min(space.ambient) *
                    np.diag(np.linalg.inv(vecs @ vecs.T)))
    eps = float(coord @ np.linalg.norm(resid, 2, axis=(1, 2)))
    delta = op_norm(v.T @ v - eye)
    mu_bound = op_norm(np.hstack([a, eye - a])) + 2 * eps
    tau_bound = max(op_norm(a), 1.0) + eps
    if delta + 2 * eps <= tol and max(mu_bound, tau_bound) <= 1 + tol:
        return MultiplierCertificate(a, delta, eps, mu_bound, tau_bound)
    return None


def certify_left_m_projection(p: Projection, max_level: int = 3,
                              restarts: int = 16, seed: int = 0,
                              tol: float = 1e-9) -> Certification:
    """Certificate that P is a complete left M-projection, or a refutation.

    After the parameters are validated, ``_multiplier_certificate`` is
    tried first: when P is left multiplication by a matrix a that makes
    nu an isometry and mu and tau contractions within ``tol``, the verdict
    is ``certified`` at all levels, with the bounds in ``certificate``, and
    nothing is searched: ``levels_checked`` is then 0.

    Otherwise the check is level-bounded.  nu, mu and tau each get one
    lazy ``cb_norm_levels`` sweep, and each level takes the next result
    of nu's, then mu's, then tau's.  The first cb-norm lower bound above
    1 + tol yields a refuted verdict with a concrete re-verifiable
    witness.  Bounding nu's cb norm by 1 bounds only its upward isometry
    defects, but mu composed with nu is the identity, so at every level
    norm(x) = norm(mu_n nu_n x) <= norm(mu_n) norm(nu_n x): a downward
    defect of ratio r < 1 is a mu violation of value 1/r at nu_n x.  So
    nu is isometric and mu and tau are contractive at a level exactly
    when all three norms are at most 1.  Without a violation, the
    projection is certified at the checked levels (not a proof of the full
    completely isometric property).
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    cert = _multiplier_certificate(p, tol)
    if cert is not None:
        return Certification("certified", 0, certificate=cert)
    sweeps = [(name, cb_norm_levels(mp, max_level, restarts=restarts,
                                    iters=300, seed=seed + 1))
              for name, mp in zip(("nu_isometry", "mu_contraction",
                                   "tau_contraction"), build_nu_mu_tau(p))]
    for lvl in range(1, max_level + 1):
        for name, levels in sweeps:
            res = next(levels)
            if res.value > 1.0 + tol:
                return Certification("refuted", lvl, check=name,
                                     witness=res.witness, observed=res.value)
    return Certification("certified", max_level)


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


def _coeff_shuffle(d: int) -> np.ndarray:
    """The coefficient permutation C_2(X)_c -> C_2(X_c) for dim X = d: the
    index (r, s, k) goes to (s, r, k)."""
    return np.arange(4 * d).reshape(2, 2, d).transpose(1, 0, 2).ravel()


def shuffle_iso(space: OpSpace) -> ShuffleCertificate:
    """The coordinate permutation implementing C_2(X)_c = C_2(X_c).

    Index conventions: C_2(X)_c orders coefficients (re/im, up/low, k),
    C_2(X_c) orders them (up/low, re/im, k); the permutation swaps the two
    outer labels and is its own inverse.  On ambient matrices it permutes
    the four p-row blocks (1,2,3,4) -> (1,3,2,4).  ``basis_deviation`` is
    the largest entrywise mismatch between the row-permuted basis of one
    side and the coefficient-permuted basis of the other.  At 0.0 every
    level-n realization of one side is the row permutation (I_n (x) Pi) of
    the other's, so the two spaces have equal norms at every level.
    """
    if space.is_complexified:
        raise ValueError("shuffle certificate is built from a real space")
    p, _ = space.ambient
    lhs = complexify_space(column_space(space))
    rhs = column_space(complexify_space(space))
    perm = _coeff_shuffle(space.dim)
    row_perm = np.arange(4 * p).reshape(2, 2, p).transpose(1, 0, 2).ravel()
    dev = float(np.max(np.abs(lhs.basis[:, row_perm] - rhs.basis[perm])))
    return ShuffleCertificate(perm, row_perm, dev)


def projection_complexification_consistency(u: CBMap) -> float:
    """Largest entrywise mismatch between the coefficient matrices of
    shuffle . (tau_u)_c . shuffle^{-1} and tau_{u_c}.  Maps amplify
    coefficientwise, so at 0.0 the two maps agree at every level.  The
    identity is linear-algebraic and holds for any linear endomap.
    """
    perm = _coeff_shuffle(u.domain.dim)          # its own inverse
    lhs = complexify_map(tau_map(u)).matrix[np.ix_(perm, perm)]
    return float(np.max(np.abs(lhs - tau_map(complexify_map(u)).matrix)))


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
