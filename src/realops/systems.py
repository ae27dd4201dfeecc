"""Real operator algebras and operator systems at desk scale.

Algebras carry a structure tensor for their product; the tensor is
derived from ambient matrix products by least squares, or supplied
explicitly (possibly decoupled from the ambient, which is exactly how the
Banach-algebra level check gets its counterexample).  Operator systems
appear through the Paulsen construction, positivity transfer, and the
re-product of a suitable idempotent map; ternary rings of operators
close the file with triple-closure checks, generated subtriples and the
concrete inner product they carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (MEMBERSHIP_TOL, in_span, is_real_positive, op_norm,
                     relative_residual, span_coefficients)
from .opspace import (CBMap, MatElem, OpSpace, cb_norm_levels,
                      complex_structure, level_norm, opspace_from_json,
                      opspace_to_json, random_elem, scalar_sandwich)
from .rng import derived_rng


@dataclass(frozen=True)
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
    """

    space: OpSpace
    structure: np.ndarray | None          # (d, d, d)
    derived: bool = True
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
        """Coefficient tensors of M_n(A) multiplied through the structure
        tensor."""
        return np.einsum("ilr,ljs,rsm->ijm", a, b, self.structure)

    def unit_coeffs(self, tol: float = MEMBERSHIP_TOL) -> np.ndarray | None:
        eye = np.eye(self.space.ambient[0])
        c, res = self.space.coefficients(eye)
        return c if in_span(res, eye, tol) else None


def op_algebra(space: OpSpace, structure=None) -> OpAlgebra:
    """Build an algebra on ``space``; the structure tensor is derived from
    ambient products unless supplied."""
    return OpAlgebra(space, structure, derived=structure is None)


# ----------------------------------------------------------------------
# Banach-algebra level check
# ----------------------------------------------------------------------

@dataclass
class BrsReport:
    level: int
    samples: int
    max_violation: float
    tol: float
    passed: bool
    witness: tuple[np.ndarray, np.ndarray] | None


def check_brs_level(algebra: OpAlgebra, level: int = 2, samples: int = 100,
                    seed: int = 0, tol: float = 1e-10) -> BrsReport:
    """Sampled submultiplicativity of M_n(A) under the structure product:
    reports max(0, norm(ab) - norm(a) norm(b))."""
    if level < 1:
        raise ValueError("level must be at least 1")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    d = algebra.dim
    space = algebra.space
    rng = derived_rng(seed, 31, level)
    pairs = []
    for j in range(d):          # canonical pairs hit exact violations
        for k in range(d):
            ca = np.zeros((level, level, d))
            cb = np.zeros((level, level, d))
            ca[0, 0, j] = 1.0
            cb[0, 0, k] = 1.0
            pairs.append((ca, cb))
    for _ in range(samples):
        pairs.append((rng.standard_normal((level, level, d)),
                      rng.standard_normal((level, level, d))))
    worst = 0.0
    witness = None
    for ca, cb in pairs:
        na = level_norm(MatElem(space, ca))
        nb = level_norm(MatElem(space, cb))
        if na < 1e-14 or nb < 1e-14:
            continue
        nab = level_norm(MatElem(space, algebra.product_coeffs(ca, cb)))
        viol = nab - na * nb
        if viol > worst:
            worst = viol
            witness = (ca, cb)
    return BrsReport(level, samples, max(0.0, worst), tol,
                     passed=(worst <= tol), witness=witness)


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
    for k in range(d):
        assert np.array_equal(basis[2 + k].T, basis[2 + d + k])
    assert sys_space.contains(np.eye(side), tol=1e-12)
    return PaulsenSystem(sys_space, 0, 1, tuple(range(2, 2 + d)),
                         tuple(range(2 + d, 2 + 2 * d)), d)


def paulsen_map(u: CBMap) -> tuple[CBMap, PaulsenSystem, PaulsenSystem]:
    """The block map [[lam, x], [y^*, mu]] -> [[lam, u(x)], [u(y)^*, mu]]
    between the Paulsen systems of the domain and codomain of u."""
    s_dom = build_paulsen_system(u.domain)
    s_cod = build_paulsen_system(u.codomain)
    d_x = u.domain.dim
    d_y = u.codomain.dim
    mat = np.zeros((2 * d_y + 2, 2 * d_x + 2))
    mat[0, 0] = 1.0
    mat[1, 1] = 1.0
    mat[2:2 + d_y, 2:2 + d_x] = u.matrix
    mat[2 + d_y:, 2 + d_x:] = u.matrix
    return CBMap(s_dom.space, s_cod.space, mat), s_dom, s_cod


@dataclass
class PaulsenTransferReport:
    levels: int
    samples_per_level: int
    failures: int
    passed: bool
    witness_level: int | None
    witness_coeffs: np.ndarray | None
    witness_min_eig: float | None


def _positive_system_sample(system: PaulsenSystem, x_space: OpSpace,
                            level: int, rng, style: str,
                            rho: float) -> np.ndarray:
    """A real-positive element of M_n(S(X)) with x-block scaled to reach
    contraction ratio rho inside the Schur condition."""
    n = level
    d = system.source_dim
    if style == "unit":
        lam = np.eye(n)
        mu = np.eye(n)
    else:
        g = rng.standard_normal((n, n))
        lam = g @ g.T + 0.1 * np.eye(n)
        h = rng.standard_normal((n, n))
        mu = h @ h.T + 0.1 * np.eye(n)
    x = random_elem(x_space, n, rng)
    lam_half_inv = np.linalg.inv(np.linalg.cholesky(lam))
    mu_half_inv = np.linalg.inv(np.linalg.cholesky(mu))
    s = level_norm(scalar_sandwich(lam_half_inv, x, mu_half_inv.T))
    xc = x.coeffs * (rho / s) if s > 1e-14 else x.coeffs * 0.0
    coeffs = np.zeros((n, n, 2 * d + 2))
    coeffs[:, :, system.lam_index] = lam
    coeffs[:, :, system.mu_index] = mu
    for k in range(d):
        coeffs[:, :, system.upper_indices[k]] = xc[:, :, k]
        # the adjoint corner carries the level-transposed coefficients
        coeffs[:, :, system.lower_indices[k]] = xc[:, :, k].T
    return coeffs


def paulsen_positivity_transfer(u: CBMap, levels: int = 2, samples: int = 50,
                                seed: int = 0,
                                tol: float = 1e-9) -> PaulsenTransferReport:
    """Sample real-positive elements of the domain Paulsen system and
    check that their images under the block map stay real-positive.

    A (completely) contractive u must pass; an expansive u produces a
    witness.  Half the samples sit on the positivity boundary (Schur ratio
    one), half in the interior, mixing identity corners with random Gram
    corners.
    """
    phi, s_dom, s_cod = paulsen_map(u)
    failures = 0
    witness = None
    for lvl in range(1, levels + 1):
        rng = derived_rng(seed, 41, lvl)
        for i in range(samples):
            style = "unit" if i % 2 == 0 else "gram"
            rho = 1.0 if i < 2 else float(rng.uniform(0.0, 1.0))
            coeffs = _positive_system_sample(s_dom, u.domain, lvl, rng,
                                             style, rho)
            sample = MatElem(s_dom.space, coeffs)
            assert is_real_positive(sample.realization(), tol), \
                "sample generator must produce positive elements"
            image = phi(sample)
            img_mat = image.realization()
            if not is_real_positive(img_mat, tol):
                failures += 1
                if witness is None:
                    eig = float(np.linalg.eigvalsh(
                        (img_mat + img_mat.T) / 2.0)[0])
                    witness = (lvl, coeffs, eig)
    return PaulsenTransferReport(
        levels, samples, failures, failures == 0,
        witness[0] if witness else None,
        witness[1] if witness else None,
        witness[2] if witness else None)


# ----------------------------------------------------------------------
# The re-product of an idempotent map
# ----------------------------------------------------------------------

@dataclass
class ChoiEffrosReport:
    preconditions_ok: bool
    precondition_failures: list[str]
    mode: str                      # "selfadjoint" or "completely-contractive"
    range_dim: int
    unital_deviation: float
    idempotent_deviation: float
    selfadjoint_deviation: float
    cc_level_bounds: list[float]
    associativity_deviation: float
    unit_law_deviation: float
    involution_deviation: float
    cstar_identity_deviation: float
    bimodule_deviation: float
    trials: int
    tol: float
    passed: bool


def choi_effros_product(algebra: OpAlgebra, phi: CBMap, tol: float = 1e-10,
                        trials: int = 500, seed: int = 0) -> ChoiEffrosReport:
    """Verify that the range of a unital idempotent phi becomes an algebra
    with unit, involution and the multiplicative norm identity under the
    re-product r o s = phi(r s), all with the original norm.

    Preconditions: the algebra is unital and transpose closed; phi fixes
    the unit, is idempotent, and is completely contractive at levels 1-2
    (refutation-only check through cb lower bounds).  Selfadjointness of
    phi (commutation with transposition) is measured, not assumed: when it
    holds the report runs in "selfadjoint" mode, otherwise contractivity
    alone backs the construction and the mode records that.
    """
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
    else:
        failures.append("algebra is not transpose closed")
        tmat = None
    dev_sa = np.inf
    if tmat is not None:
        dev_sa = float(np.max(np.abs(pm @ tmat - tmat @ pm)))
    cc_bounds = [res.value for res in cb_norm_levels(phi, 2, restarts=8,
                                                     iters=200, seed=seed)]
    if any(v > 1.0 + 1e-9 for v in cc_bounds):
        failures.append(f"phi is not completely contractive at tested "
                        f"levels (bounds {cc_bounds})")
    mode = "selfadjoint" if dev_sa <= max(tol, 1e-9) else \
        "completely-contractive"
    if failures:
        return ChoiEffrosReport(False, failures, mode, 0, dev_unital,
                                dev_idem, dev_sa, cc_bounds, np.inf, np.inf,
                                np.inf, np.inf, np.inf, trials, tol, False)

    # orthonormal basis of the range of phi in coefficient space
    u_svd, s_svd, _ = np.linalg.svd(pm)
    rank = int(np.sum(s_svd > 1e-10))
    rbasis = u_svd[:, :rank].T          # (rank, d) rows

    def circ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = np.einsum("r,s,rsm->m", a, b, algebra.structure)
        return pm @ prod

    def realize(c: np.ndarray) -> np.ndarray:
        return np.einsum("m,mpq->pq", c, space.basis)

    dev_assoc = 0.0
    dev_invol = 0.0
    for a_i in rbasis:
        for b_i in rbasis:
            ab = circ(a_i, b_i)
            if tmat is not None:
                lhs = tmat @ ab
                rhs = circ(tmat @ b_i, tmat @ a_i)
                dev_invol = max(dev_invol,
                                float(np.max(np.abs(realize(lhs - rhs)))))
            for c_i in rbasis:
                lhs = circ(ab, c_i)
                rhs = circ(a_i, circ(b_i, c_i))
                dev_assoc = max(dev_assoc,
                                float(np.max(np.abs(realize(lhs - rhs)))))
    dev_unit_law = 0.0
    for a_i in rbasis:
        dev_unit_law = max(
            dev_unit_law,
            float(np.max(np.abs(realize(circ(unit, a_i) - a_i)))),
            float(np.max(np.abs(realize(circ(a_i, unit) - a_i)))))

    rng = derived_rng(seed, 51)
    dev_cstar = 0.0
    dev_bimod = 0.0
    for _ in range(trials):
        r = rbasis.T @ rng.standard_normal(rank)
        if tmat is not None:
            rtr = circ(tmat @ r, r)
            dev_cstar = max(dev_cstar, abs(op_norm(realize(rtr)) -
                                           op_norm(realize(r)) ** 2))
        a = rng.standard_normal(d)
        prod = np.einsum("r,s,rsm->m", a, r, algebra.structure)
        via = np.einsum("r,s,rsm->m", pm @ a, r, algebra.structure)
        dev_bimod = max(dev_bimod,
                        float(np.max(np.abs(realize(pm @ prod - pm @ via)))))
        prod = np.einsum("r,s,rsm->m", r, a, algebra.structure)
        via = np.einsum("r,s,rsm->m", r, pm @ a, algebra.structure)
        dev_bimod = max(dev_bimod,
                        float(np.max(np.abs(realize(pm @ prod - pm @ via)))))
    passed = (dev_assoc <= tol and dev_unit_law <= tol and
              dev_invol <= tol and dev_cstar <= tol and dev_bimod <= tol)
    return ChoiEffrosReport(True, [], mode, rank, dev_unital, dev_idem,
                            dev_sa, cc_bounds, dev_assoc, dev_unit_law,
                            dev_invol, dev_cstar, dev_bimod, trials, tol,
                            passed)


# ----------------------------------------------------------------------
# Ternary rings of operators
# ----------------------------------------------------------------------

@dataclass
class TroReport:
    is_tro: bool
    max_residual: float
    tol: float
    witness_triple: tuple[int, int, int] | None
    witness_product: np.ndarray | None
    witness_residual: float


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
        return TroReport(True, float(scaled.max()), tol, None, None, 0.0)
    witness = np.unravel_index(np.argmax(scaled), scaled.shape)
    worst = float(scaled[witness])
    return TroReport(False, worst, tol, tuple(int(i) for i in witness),
                     prods[witness], worst)


def is_tro(space: OpSpace, tol: float = MEMBERSHIP_TOL) -> bool:
    return tro_closure_report(space, tol).is_tro


@dataclass(frozen=True)
class TROSpace:
    """A concrete TRO: operator space closed under x y^T z."""

    space: OpSpace
    triple_closure_residual: float = 0.0

    def __post_init__(self):
        rep = tro_closure_report(self.space)
        object.__setattr__(self, "triple_closure_residual", rep.max_residual)
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
    matrix: np.ndarray            # q x q product y^T z
    membership_residual: float
    in_span: bool


def shilov_inner_product(tro: TROSpace, y: MatElem, z: MatElem,
                         tol: float = MEMBERSHIP_TOL) -> ShilovResult:
    """The inner product <y, z> = y^T z, verified to lie in the span of
    the pairwise products B_a^T B_b."""
    if y.level != 1 or z.level != 1:
        raise ValueError("the inner product is defined on level-1 elements")
    basis = tro.space.basis
    g = y.realization().T @ z.realization()
    pairs = np.swapaxes(basis, 1, 2)[:, None] @ basis[None]   # B_a^T B_b
    _, res = span_coefficients(pairs.reshape(-1, *g.shape), g)
    return ShilovResult(g, float(relative_residual(res, g)),
                        bool(in_span(res, g, tol)))


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
