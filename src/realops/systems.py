"""Real operator algebras and operator systems at desk scale.

Algebras carry a structure tensor for their product; the tensor is
derived from ambient matrix products by least squares, or supplied
explicitly (possibly decoupled from the ambient, which is exactly how the
Banach-algebra level check gets its counterexample).  Operator systems
appear through the Paulsen construction, positivity transfer, and the
Choi-Effros re-product phi(r s) of a suitable idempotent map, whose
structure tensor is the algebra's followed by phi, so that its
multilinear laws are checked exactly on basis elements; ternary rings of
operators close the file with triple-closure checks, generated
subtriples and the concrete inner product they carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (MEMBERSHIP_TOL, in_span, is_real_positive, kron_sum,
                     op_norm, relative_residual, span_coefficients,
                     sym_eig_min)
from .opspace import (CBMap, MatElem, OpSpace, cb_norm_levels,
                      complex_structure, level_norms, opspace_from_json,
                      opspace_to_json)
from .rng import derived_rng


@dataclass(frozen=True, eq=False)
class OpAlgebra:
    """Operator space with a multiplication, given by a structure tensor.

    ``closure_residuals[j, k]`` is the least-squares distance of the
    ambient product B_j B_k from the span; it is enforced small, so the
    span really is an algebra.  ``structure_residuals`` measures how well
    the stored tensor reproduces the ambient products; it equals the
    closure residual for derived tensors but is merely recorded, not
    enforced, for supplied ones (an abstract product may deliberately
    disagree with the ambient one).  A ``structure`` of None is derived
    from the same least-squares solve that measures the closure.
    Algebras compare and hash by identity, like ``OpSpace``.
    """

    space: OpSpace
    structure: np.ndarray | None          # (d, d, d)
    closure_residuals: np.ndarray = field(default=None)
    structure_residuals: np.ndarray = field(default=None)

    def __post_init__(self):
        p, q = self.space.ambient
        if p != q:
            raise ValueError("an operator algebra needs a square ambient")
        d = self.space.dim
        if self.structure is not None:
            s = np.asarray(self.structure, dtype=float)
            if s.shape != (d, d, d):
                raise ValueError(f"structure tensor must be ({d}, {d}, {d})")
        basis = self.space.basis
        prods = basis[:, None] @ basis[None]          # B_j B_k
        coeffs, closure = self.space.coefficients(prods)
        inside = in_span(closure, prods)
        if not inside.all():
            j, k = np.argwhere(~inside)[0]
            raise ValueError(
                f"basis product B_{j} B_{k} leaves the span "
                f"(residual {closure[j, k]:.3e}); not an algebra")
        if self.structure is None:
            s = coeffs
        rebuilt = np.einsum("jkm,mpq->jkpq", s, basis)
        struct_res = np.max(np.abs(rebuilt - prods), axis=(2, 3))
        s = s.copy()
        s.setflags(write=False)
        closure.setflags(write=False)
        struct_res.setflags(write=False)
        object.__setattr__(self, "structure", s)
        object.__setattr__(self, "closure_residuals", closure)
        object.__setattr__(self, "structure_residuals", struct_res)

    @property
    def dim(self) -> int:
        return self.space.dim

    def product_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient tensors of M_n(A), or stacks of them, multiplied
        through the structure tensor."""
        return np.einsum("...ilr,...ljs,rsm->...ijm", a, b, self.structure)

    def unit_coeffs(self, tol: float = MEMBERSHIP_TOL) -> np.ndarray | None:
        eye = np.eye(self.space.ambient[0])
        c, res = self.space.coefficients(eye)
        return c if in_span(res, eye, tol) else None


def op_algebra(space: OpSpace, structure=None) -> OpAlgebra:
    """Build an algebra on ``space``; the structure tensor is derived from
    ambient products unless supplied."""
    return OpAlgebra(space, structure)


# ----------------------------------------------------------------------
# Banach-algebra level check
# ----------------------------------------------------------------------

@dataclass
class BrsReport:
    max_violation: float
    passed: bool
    witness: tuple[np.ndarray, np.ndarray] | None


def check_brs_level(algebra: OpAlgebra, level: int = 2, samples: int = 100,
                    seed: int = 0, tol: float = 1e-10) -> BrsReport:
    """Sampled submultiplicativity of M_n(A) under the structure product:
    reports max(0, norm(ab) - norm(a) norm(b)).

    The pairs (the d^2 canonical ones, then ``samples`` seeded draws) are
    scored through stacked level norms; the witness is the first pair of
    largest positive violation.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    d = algebra.dim
    space = algebra.space
    rng = derived_rng(seed, 31, level)
    ca = np.zeros((d * d + samples, level, level, d))
    cb = np.zeros_like(ca)
    # canonical pairs (B_j, B_k) first: they hit exact violations
    ca[:d * d, 0, 0] = np.repeat(np.eye(d), d, axis=0)
    cb[:d * d, 0, 0] = np.tile(np.eye(d), (d, 1))
    pairs = rng.standard_normal((samples, 2, level, level, d))
    ca[d * d:] = pairs[:, 0]
    cb[d * d:] = pairs[:, 1]
    na = level_norms(space, ca)
    nb = level_norms(space, cb)
    nab = level_norms(space, algebra.product_coeffs(ca, cb))
    viol = np.where((na < 1e-14) | (nb < 1e-14), -np.inf, nab - na * nb)
    i = int(np.argmax(viol))             # the first of equal maxima
    if viol[i] > 0.0:
        return BrsReport(float(viol[i]), bool(viol[i] <= tol),
                         (ca[i], cb[i]))
    return BrsReport(0.0, True, None)


# ----------------------------------------------------------------------
# Unitization
# ----------------------------------------------------------------------

def unitize(algebra: OpAlgebra, tol: float = MEMBERSHIP_TOL) -> OpAlgebra:
    """Adjoin the ambient identity (and, for a complexified algebra, the
    ambient complex structure J = "i 1") when not already in the span
    (membership at ``tol``).

    The real dimension grows by 0 or 1; growing by 2 happens only in the
    complexified case, where the complex unitization spans both 1 and i1.
    """
    space = algebra.space
    p, _ = space.ambient
    new_mats = []
    eye = np.eye(p)
    if not space.contains(eye, tol):
        new_mats.append(eye)
    if space.is_complexified:
        jmat = complex_structure(p // 2)
        if not space.contains(jmat, tol):
            new_mats.append(jmat)
    if not new_mats:
        return op_algebra(space)
    basis = np.concatenate([space.basis, np.stack(new_mats)])
    conj = None
    if space.conjugation is not None:
        # the identity is real, the complex structure is imaginary
        signs = [1.0 if np.array_equal(m, eye) else -1.0 for m in new_mats]
        conj = np.zeros((basis.shape[0], basis.shape[0]))
        conj[:space.dim, :space.dim] = space.conjugation
        for i, s in enumerate(signs):
            conj[space.dim + i, space.dim + i] = s
    enlarged = OpSpace(basis, is_complexified=space.is_complexified,
                       conjugation=conj)
    return op_algebra(enlarged)


# ----------------------------------------------------------------------
# Paulsen systems
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PaulsenSystem:
    """The operator system [[lambda I, X], [X^*, mu I]] in M_{p+q}."""

    space: OpSpace
    lam_index: int
    mu_index: int
    upper_indices: tuple[int, ...]
    lower_indices: tuple[int, ...]
    source_dim: int


def build_paulsen_system(space: OpSpace) -> PaulsenSystem:
    """The Paulsen system of ``space``, built once per space (memoized on
    it, as its column space and complexification are)."""
    return space.memo("paulsen_system", lambda: _paulsen_system(space))


def _paulsen_system(space: OpSpace) -> PaulsenSystem:
    d = space.dim
    p, q = space.ambient
    side = p + q
    basis = np.zeros((2 * d + 2, side, side))
    basis[0, :p, :p] = np.eye(p)                       # lambda corner
    basis[1, p:, p:] = np.eye(q)                       # mu corner
    for k in range(d):
        basis[2 + k, :p, p:] = space.basis[k]          # upper corner
        basis[2 + d + k, p:, :p] = space.basis[k].T    # lower corner
    sys_space = OpSpace(basis)
    # selfadjointness and the unit are structural; verify exactly
    if not np.array_equal(np.swapaxes(basis[2:2 + d], 1, 2), basis[2 + d:]):
        raise RuntimeError("Paulsen system corners are not adjoint")
    if not sys_space.contains(np.eye(side), tol=1e-12):
        raise RuntimeError("Paulsen system does not contain the unit")
    return PaulsenSystem(sys_space, 0, 1, tuple(range(2, 2 + d)),
                         tuple(range(2 + d, 2 + 2 * d)), d)


def paulsen_map(u: CBMap) -> tuple[CBMap, PaulsenSystem, PaulsenSystem]:
    """The block map [[lam, x], [y^*, mu]] -> [[lam, u(x)], [u(y)^*, mu]]
    between the Paulsen systems of the domain and codomain of u."""
    s_dom = build_paulsen_system(u.domain)
    s_cod = build_paulsen_system(u.codomain)
    mat = np.zeros((s_cod.space.dim, s_dom.space.dim))
    mat[s_cod.lam_index, s_dom.lam_index] = 1.0
    mat[s_cod.mu_index, s_dom.mu_index] = 1.0
    mat[np.ix_(s_cod.upper_indices, s_dom.upper_indices)] = u.matrix
    mat[np.ix_(s_cod.lower_indices, s_dom.lower_indices)] = u.matrix
    return CBMap(s_dom.space, s_cod.space, mat), s_dom, s_cod


@dataclass
class PaulsenTransferReport:
    failures: int
    passed: bool
    witness_level: int | None
    witness_coeffs: np.ndarray | None
    witness_min_eig: float | None


def _positive_system_sample(system: PaulsenSystem, x_space: OpSpace,
                            level: int, samples: int, rng) -> np.ndarray:
    """A seeded sample of ``samples`` real-positive elements of M_n(S(X))
    at n = ``level``, as a (samples, n, n, 2 d + 2) coefficient stack.

    Sample i has identity corners for even i and random Gram corners
    g g^T + 0.1 I for odd i, and its x-block is scaled to the contraction
    ratio rho inside the Schur condition: rho = 1 for the first two
    samples, uniform in [0, 1) after.  The draws come as three stacks: the
    rho of samples 2 on, the Gram factors g and h of the odd samples as
    one (2, samples // 2, n, n) draw, then every x; the scales come after,
    from stacked level norms of the sandwiches lam^(-1/2) x mu^(-1/2).
    """
    n = level
    d = system.source_dim
    rho = np.ones(samples)
    rho[2:] = rng.uniform(0.0, 1.0, size=max(samples - 2, 0))
    lam = np.broadcast_to(np.eye(n), (samples, n, n)).copy()
    mu = lam.copy()
    g, h = rng.standard_normal((2, samples // 2, n, n))
    lam[1::2] = g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(n)
    mu[1::2] = h @ np.swapaxes(h, -1, -2) + 0.1 * np.eye(n)
    x = rng.standard_normal((samples, n, n, d))
    lam_half_inv = np.linalg.inv(np.linalg.cholesky(lam))
    mu_half_inv = np.linalg.inv(np.linalg.cholesky(mu))
    # the Ruan action lam^(-1/2) x mu^(-1/2)^T of ``scalar_sandwich``
    s = level_norms(x_space, np.einsum(
        "...ia,...abk,...bj->...ijk", lam_half_inv, x,
        np.swapaxes(mu_half_inv, -1, -2)))
    scale = np.divide(rho, s, out=np.zeros(samples), where=s > 1e-14)
    xc = x * scale[:, None, None, None]
    coeffs = np.zeros((samples, n, n, 2 * d + 2))
    coeffs[..., system.lam_index] = lam
    coeffs[..., system.mu_index] = mu
    coeffs[..., list(system.upper_indices)] = xc
    # the adjoint corner carries the level-transposed coefficients
    coeffs[..., list(system.lower_indices)] = np.swapaxes(xc, 1, 2)
    return coeffs


def paulsen_positivity_transfer(u: CBMap, levels: int = 2, samples: int = 50,
                                seed: int = 0,
                                tol: float = 1e-9) -> PaulsenTransferReport:
    """Sample real-positive elements of the domain Paulsen system and
    check that their images under the block map stay real-positive.

    A (completely) contractive u must pass; an expansive u produces a
    witness, the first failing sample.  Half the samples sit on the
    positivity boundary (Schur ratio one), half in the interior, mixing
    identity corners with random Gram corners.  Each level's samples are
    checked through stacked realizations and one stacked positivity test.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    phi, s_dom, s_cod = paulsen_map(u)
    failures = 0
    witness = None
    for lvl in range(1, levels + 1):
        coeffs = _positive_system_sample(s_dom, u.domain, lvl, samples,
                                         derived_rng(seed, 41, lvl))
        if not is_real_positive(kron_sum(coeffs, s_dom.space.basis),
                                tol).all():
            raise RuntimeError("sample generator produced a non-positive "
                               "element")
        img_mats = kron_sum(phi.amplify(coeffs), s_cod.space.basis)
        bad = np.flatnonzero(~is_real_positive(img_mats, tol))
        failures += bad.size
        if witness is None and bad.size:
            i = bad[0]
            witness = (lvl, coeffs[i], sym_eig_min(img_mats[i]))
    return PaulsenTransferReport(
        failures, failures == 0, witness[0] if witness else None,
        witness[1] if witness else None,
        witness[2] if witness else None)


# ----------------------------------------------------------------------
# The re-product of an idempotent map
# ----------------------------------------------------------------------

@dataclass
class ChoiEffrosReport:
    precondition_failures: list[str]     # empty when every one holds
    # "selfadjoint" or "completely-contractive"; it and the selfadjoint
    # deviation are None when the algebra is not transpose closed, as
    # there is no transposition to measure against then
    mode: str | None
    # the range and the laws are None when a precondition fails: none of
    # them is computed then
    range_dim: int | None
    unital_deviation: float
    idempotent_deviation: float
    selfadjoint_deviation: float | None
    cc_level_bounds: list[float]
    associativity_deviation: float | None
    unit_law_deviation: float | None
    involution_deviation: float | None
    cstar_identity_deviation: float | None
    bimodule_deviation: float | None
    passed: bool


def choi_effros_product(algebra: OpAlgebra, phi: CBMap, tol: float = 1e-10,
                        trials: int = 500, seed: int = 0) -> ChoiEffrosReport:
    """Verify that the range of a unital idempotent phi becomes an algebra
    with unit, involution and the multiplicative norm identity under the
    re-product r o s = phi(r s), all with the original norm.

    Associativity, the unit laws, the involution law (r o s)^T =
    s^T o r^T and the bimodule law phi(a r) = phi(phi(a) r), with its
    mirror, are multilinear: each is checked exactly on basis elements
    (the orthonormal range basis, and the columns of I - phi for a - phi(a)),
    through the structure tensor of the re-product.  Only the norm identity
    |r^* o r| = |r|^2 is nonlinear; it is checked on ``trials`` seeded range
    elements r at once.

    Preconditions: the algebra is unital and transpose closed; phi fixes
    the unit, is idempotent, and is completely contractive at levels 1-2
    (refutation-only check through cb lower bounds).  Selfadjointness of
    phi (commutation with transposition) is measured, not assumed: when it
    holds the report runs in "selfadjoint" mode, otherwise contractivity
    alone backs the construction and the mode records that.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    space = algebra.space
    d = algebra.dim
    failures: list[str] = []
    unit = algebra.unit_coeffs()
    if unit is None:
        failures.append("algebra has no unit in its span")
        unit = np.zeros(d)
    pm = phi.matrix
    dev_unital = float(np.max(np.abs(pm @ unit - unit)))
    if dev_unital > max(tol, 1e-9):
        failures.append(f"phi does not fix the unit (deviation {dev_unital:.3e})")
    dev_idem = float(np.max(np.abs(pm @ pm - pm)))
    if dev_idem > 1e-10:
        failures.append(f"phi is not idempotent (deviation {dev_idem:.3e})")
    transposes = np.swapaxes(space.basis, 1, 2)
    t_coeffs, t_res = space.coefficients(transposes)
    if in_span(t_res, transposes).all():
        # coefficient matrix of x -> x^T, one column per basis element
        tmat = np.ascontiguousarray(t_coeffs.T)
        dev_sa = float(np.max(np.abs(pm @ tmat - tmat @ pm)))
        mode = "selfadjoint" if dev_sa <= max(tol, 1e-9) else \
            "completely-contractive"
    else:
        failures.append("algebra is not transpose closed")
        tmat = dev_sa = mode = None
    cc_bounds = [res.value for res in cb_norm_levels(phi, 2, restarts=8,
                                                     iters=200, seed=seed)]
    if any(v > 1.0 + 1e-9 for v in cc_bounds):
        failures.append(f"phi is not completely contractive at tested "
                        f"levels (bounds {cc_bounds})")
    if failures:
        return ChoiEffrosReport(failures, mode, None, dev_unital, dev_idem,
                                dev_sa, cc_bounds, None, None, None, None,
                                None, False)

    # orthonormal basis of the range of phi in coefficient space
    u_svd, s_svd, _ = np.linalg.svd(pm)
    rank = int(np.sum(s_svd > 1e-10))
    rbasis = u_svd[:, :rank].T          # (rank, d) rows
    reprod = algebra.structure @ pm.T   # structure tensor of r o s

    def circ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("...r,...s,rsm->...m", a, b, reprod)

    def realize(c: np.ndarray) -> np.ndarray:
        return np.einsum("...m,mpq->...pq", c, space.basis)

    def deviation(lhs: np.ndarray, rhs=0.0) -> float:
        return float(np.max(np.abs(realize(lhs - rhs))))

    # every law but the norm identity is multilinear, so it holds once it
    # holds on basis elements
    rr = circ(rbasis[:, None], rbasis[None])        # r_i o r_j
    dev_assoc = deviation(circ(rr[:, :, None], rbasis[None, None]),
                          circ(rbasis[:, None, None], rr[None]))
    dev_unit_law = max(deviation(circ(unit, rbasis), rbasis),
                       deviation(circ(rbasis, unit), rbasis))
    rt = rbasis @ tmat.T                            # r_i^T
    dev_invol = deviation(rr @ tmat.T, circ(rt[None], rt[:, None]))
    # phi(a r) = phi(phi(a) r) and its mirror: a - phi(a) runs over the
    # columns of I - phi
    kernel = np.eye(d) - pm.T
    dev_bimod = max(deviation(circ(kernel[:, None], rbasis[None])),
                    deviation(circ(rbasis[:, None], kernel[None])))

    r = derived_rng(seed, 51).standard_normal((trials, rank)) @ rbasis
    rtr = circ(r @ tmat.T, r)
    # squared as Python floats, as a lone op_norm value is
    squares = np.array([v ** 2 for v in op_norm(realize(r)).tolist()])
    dev_cstar = float(np.max(np.abs(op_norm(realize(rtr)) - squares)))
    passed = (dev_assoc <= tol and dev_unit_law <= tol and
              dev_invol <= tol and dev_cstar <= tol and dev_bimod <= tol)
    return ChoiEffrosReport([], mode, rank, dev_unital, dev_idem, dev_sa,
                            cc_bounds, dev_assoc, dev_unit_law, dev_invol,
                            dev_cstar, dev_bimod, passed)


# ----------------------------------------------------------------------
# Ternary rings of operators
# ----------------------------------------------------------------------

@dataclass
class TroReport:
    is_tro: bool
    max_residual: float           # the witness's residual, when there is one
    witness_triple: tuple[int, int, int] | None
    witness_product: np.ndarray | None


def _triple_products(mats: np.ndarray) -> np.ndarray:
    """x y^T z for every triple of a (d, p, q) stack, as (d, d, d, p, q)."""
    xyt = mats[:, None] @ np.swapaxes(mats, 1, 2)[None]
    return xyt[:, :, None] @ mats[None, None]


def tro_closure_report(space: OpSpace, tol: float = MEMBERSHIP_TOL) -> TroReport:
    """Check B_j B_k^T B_l in span for all basis triples; the witness is the
    first triple, in row-major order, of largest relative residual."""
    prods = _triple_products(space.basis)
    _, res = space.coefficients(prods)
    scaled = relative_residual(res, prods)
    if in_span(res, prods, tol).all():
        return TroReport(True, float(scaled.max()), None, None)
    witness = np.unravel_index(np.argmax(scaled), scaled.shape)
    return TroReport(False, float(scaled[witness]),
                     tuple(int(i) for i in witness), prods[witness])


def is_tro(space: OpSpace, tol: float = MEMBERSHIP_TOL) -> bool:
    return tro_closure_report(space, tol).is_tro


@dataclass(frozen=True)
class TROSpace:
    """A concrete TRO: operator space closed under x y^T z."""

    space: OpSpace

    def __post_init__(self):
        rep = tro_closure_report(self.space)
        if not rep.is_tro:
            raise ValueError(
                f"span is not triple closed (residual {rep.max_residual:.3e} "
                f"at basis triple {rep.witness_triple})")


def generated_subtriple(space: OpSpace, tol: float = 1e-10) -> OpSpace:
    """Smallest triple-closed span containing the space, computed inside
    the ambient by iterating span closure under (x, y, z) -> x y^T z.

    Each span is cut at rank ``tol`` relative to its largest singular
    value.  The dimension is strictly increasing until it stabilizes, so
    at most ambient-dimension iterations happen.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"rank cutoff tol must lie in [0, 1), got {tol}")
    p, q = space.ambient
    vecs = space.basis.reshape(space.dim, -1)

    def orth(v):
        u_svd, s_svd, vt = np.linalg.svd(v, full_matrices=False)
        rank = int(np.sum(s_svd > tol * s_svd[0]))
        return vt[:rank]

    current = orth(vecs)
    for _ in range(p * q + 1):
        triples = _triple_products(current.reshape(-1, p, q))
        nxt = orth(np.concatenate([current, triples.reshape(-1, p * q)]))
        if nxt.shape[0] == current.shape[0]:
            return OpSpace(nxt.reshape(-1, p, q))
        current = nxt
    raise RuntimeError("triple closure did not stabilize (cannot happen "
                       "before the ambient dimension)")


@dataclass
class ShilovResult:
    matrix: np.ndarray            # q x q product y^T z, or a stack of them
    membership_residual: float    # an array for a stack
    in_span: bool                 # an array for a stack


def shilov_inner_product(tro: TROSpace, y: MatElem, z: MatElem,
                         tol: float = MEMBERSHIP_TOL) -> ShilovResult:
    """The inner product <y, z> = y^T z, verified to lie in the span of
    the pairwise products B_a^T B_b."""
    if y.level != 1 or z.level != 1:
        raise ValueError("the inner product is defined on level-1 elements")
    res = shilov_inner_products(tro, y.coeffs[0, 0], z.coeffs[0, 0], tol)
    return ShilovResult(res.matrix, float(res.membership_residual),
                        bool(res.in_span))


def shilov_inner_products(tro: TROSpace, ys: np.ndarray, zs: np.ndarray,
                          tol: float = MEMBERSHIP_TOL) -> ShilovResult:
    """``shilov_inner_product`` of each pair of an (..., d) stack of
    level-1 coefficient vectors, as one result holding stacks; each pair
    comes out bit for bit as it would alone."""
    basis = tro.space.basis
    y_mats = kron_sum(np.asarray(ys, dtype=float)[..., None, None, :], basis)
    z_mats = kron_sum(np.asarray(zs, dtype=float)[..., None, None, :], basis)
    g = np.swapaxes(y_mats, -1, -2) @ z_mats
    pairs = np.swapaxes(basis, 1, 2)[:, None] @ basis[None]   # B_a^T B_b
    _, res = span_coefficients(pairs.reshape(-1, *g.shape[-2:]), g)
    return ShilovResult(g, relative_residual(res, g), in_span(res, g, tol))


# ----------------------------------------------------------------------
# JSON forms
# ----------------------------------------------------------------------

def algebra_to_json(algebra: OpAlgebra) -> dict:
    out = opspace_to_json(algebra.space)
    out["structure"] = [[[float(v) for v in row] for row in mat]
                        for mat in algebra.structure]
    return out


def algebra_from_json(obj: dict) -> OpAlgebra:
    space = opspace_from_json(obj)
    structure = obj.get("structure")
    return op_algebra(space, structure)
