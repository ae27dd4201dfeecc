"""Named invariant suites behind the ``verify`` command.

Each suite returns a list of CheckResult rows; a row records the measured
deviation, the tolerance it is held to, and enough parameters to rerun
it.  The acceptance tests drive these same functions, so the CLI and the
test suite certify the exact same computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, mideal, opspace, quantization, systems
from .linalg import contraction_iff_positive, is_real_positive, op_norm
from .opspace import (CBMap, MatElem, OpSpace, check_ruan_axioms,
                      complexified_elem, complexify_map, complexify_space,
                      direct_sum_spaces, elem, full_matrix_space,
                      cb_norm_levels, cb_norm_lower_search, level_norm,
                      level_norms, quotient_level_norm, random_elem,
                      scalar_space, span_space)
from .quantization import (ell_infty, ell_one, min_level_norm, realize_min,
                           reproduce_l12_nonuniqueness, w2_complex_norm,
                           max_l1_norm_bounds, BanachSpace)
from .rng import derived_rng


@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


def _check(name: str, deviation: float, tolerance: float, *,
           converged: bool = True, **details) -> CheckResult:
    """A row that passes when the deviation is within tolerance and every
    solver behind it reported convergence."""
    deviation = float(deviation)
    return CheckResult(name, deviation, float(tolerance),
                       bool(deviation <= tolerance and converged), details)


# ----------------------------------------------------------------------
# linalg
# ----------------------------------------------------------------------

#: per-shape sample stacks: (ascending sample indices, (c, ...) stack) pairs
Stacks = list[tuple[np.ndarray, np.ndarray]]


def _normal_stacks(rng, shapes: np.ndarray) -> Stacks:
    """One standard-normal draw per sample, sample i of shape
    ``shapes[i]``: a (c, *shape) stack per distinct shape, drawn in sorted
    shape order, each paired with the ascending indices of its c samples."""
    order = np.lexsort(shapes.T[::-1])     # stable: by shape, then by index
    ordered = shapes[order]
    starts = np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1
    return [(idx, rng.standard_normal((idx.size, *shapes[idx[0]])))
            for idx in np.split(order, starts)]


def _matrix_stacks(rng, count: int, sides: int) -> Stacks:
    """``count`` Gaussian p x q matrices, 1 <= p, q < ``sides``: one integer
    draw for the shapes, then the stacks of ``_normal_stacks``."""
    return _normal_stacks(rng, rng.integers(1, sides, size=(count, 2)))


def _scaled_samples(rng, count: int, sides: int, lo: float,
                    hi: float) -> Stacks:
    """The stacks of ``_matrix_stacks``, each matrix rescaled to an operator
    norm drawn uniformly from [lo, hi) by one draw of ``count`` norms after
    the matrices; a matrix of norm below 1e-14 is dropped, with its
    indices, and its norm draw goes unused."""
    stacks = _matrix_stacks(rng, count, sides)
    targets = rng.uniform(lo, hi, size=count)
    out = []
    for idx, mats in stacks:
        norms = op_norm(mats)
        keep = norms >= 1e-14
        scale = targets[idx[keep]] / norms[keep]
        out.append((idx[keep], mats[keep] * scale[:, None, None]))
    return out


def _norms_in_sample_order(stacks: Stacks, count: int) -> np.ndarray:
    """The operator norms of the ``count`` samples of ``stacks``, one
    stacked call per stack, in sample order."""
    out = np.empty(count)
    for idx, mats in stacks:
        out[idx] = op_norm(mats)
    return out


def suite_linalg(seed: int) -> list[CheckResult]:
    """Every row draws its samples as stacks, one per matrix shape, and
    checks each stack through one stacked kernel call."""
    rng = derived_rng(seed, 101)
    out = []

    stacks = _matrix_stacks(rng, 200, 5)
    alphas = rng.uniform(-100.0, 100.0, size=200)
    dev = 0.0
    for idx, mats in stacks:
        a = alphas[idx]
        base = op_norm(mats)
        expect = np.abs(a) * base
        rel = np.abs(op_norm(a[:, None, None] * mats) - expect) / \
            (expect + 1e-300)
        dev = max(dev, np.max(rel[base >= 1e-14], initial=0.0))
    out.append(_check("operator norm is absolutely homogeneous", dev, 1e-12,
                      samples=200))

    firsts = _matrix_stacks(rng, 200, 5)
    seconds = _matrix_stacks(rng, 200, 5)
    # each diag(m1, m2) zero-padded to 8 x 8, which keeps its singular values
    blocks = np.zeros((200, 8, 8))
    corner = np.zeros((200, 2), int)          # where m2 starts: m1's shape
    for idx, mats in firsts:
        blocks[idx, :mats.shape[1], :mats.shape[2]] = mats
        corner[idx] = mats.shape[1:]
    for idx, mats in seconds:
        rows = corner[idx, :1] + np.arange(mats.shape[1])
        cols = corner[idx, 1:] + np.arange(mats.shape[2])
        blocks[idx[:, None, None], rows[:, :, None], cols[:, None, :]] = mats
    dev = np.abs(op_norm(blocks) -
                 np.maximum(_norms_in_sample_order(firsts, 200),
                            _norms_in_sample_order(seconds, 200)))
    out.append(_check("block-diagonal norm is the max of the blocks",
                      np.max(dev), 1e-12, samples=200))

    for lo, hi, label in [(0.9, 1.1, "near the contraction boundary"),
                          (0.5, 1.5, "across norms in [0.5, 1.5]")]:
        disagreements = 0
        for _, mats in _scaled_samples(rng, 500, 5, lo, hi):
            by_norm, by_positivity = contraction_iff_positive(mats, tol=1e-9)
            disagreements += int(np.sum(by_norm != by_positivity))
        out.append(_check(f"contraction iff block positivity, {label}",
                          disagreements, 0.0, samples=500, tol_used=1e-9))

    sides = rng.integers(1, 5, size=100)
    failures = 0
    for _, pairs in _normal_stacks(
            rng, np.column_stack([np.full(100, 2), sides, sides])):
        b, a = pairs[:, 0], pairs[:, 1]
        m = np.swapaxes(b, 1, 2) @ b
        congruent = np.swapaxes(a, 1, 2) @ m @ a
        tols = 1e-9 * (1 + op_norm(a)) ** 2
        failures += int(np.sum(~is_real_positive(congruent, tols)))
    out.append(_check("congruence preserves real positivity", failures, 0.0,
                      samples=100))
    return out


# ----------------------------------------------------------------------
# opspace
# ----------------------------------------------------------------------

def _fixture_spaces() -> list[tuple[str, OpSpace]]:
    return [
        ("scalars", scalar_space()),
        ("M2(R)", full_matrix_space(2)),
        ("M_{1,2}(R)", full_matrix_space(1, 2)),
        ("min ell_inf_2", realize_min(ell_infty(2))),
        ("min ell_1_2", realize_min(ell_one(2))),
    ]


def suite_opspace(seed: int) -> list[CheckResult]:
    out = []
    spaces = _fixture_spaces()

    conj_dev = 0.0
    ext_dev = 0.0
    pairs_per_cell = -(-1000 // (len(spaces) * 3))   # at least 1000 pairs total
    for si, (_, sp) in enumerate(spaces):
        xc = complexify_space(sp)
        conj = CBMap(xc, xc, xc.conjugation)
        rng = derived_rng(seed, 111, si)
        for lvl in (1, 2, 3):
            # the coefficients [x, y] of x + iy, one pair a row
            z = rng.standard_normal((pairs_per_cell, lvl, lvl, xc.dim))
            conj_dev = max(conj_dev, np.max(np.abs(
                level_norms(xc, z) - level_norms(xc, conj.amplify(z)))))
            z[..., sp.dim:] = 0.0
            ext_dev = max(ext_dev, np.max(np.abs(
                level_norms(xc, z) - level_norms(sp, z[..., :sp.dim]))))
    out.append(_check("complexified norms are conjugation invariant",
                      conj_dev, 1e-10,
                      pairs=pairs_per_cell * len(spaces) * 3, levels=3))
    out.append(_check("complexification extends the original norm",
                      ext_dev, 1e-12,
                      pairs=pairs_per_cell * len(spaces) * 3))

    ruan_targets = [("M2(R)", full_matrix_space(2)),
                    ("complexified M2(R)", complexify_space(full_matrix_space(2))),
                    ("min ell_inf_2", realize_min(ell_infty(2)))]
    for name, sp in ruan_targets:
        rep = check_ruan_axioms(sp, max_level=3, samples=100, seed=seed,
                                tol=1e-10)
        out.append(_check(f"matrix norm axioms hold on {name}",
                          max(rep.direct_sum_deviation,
                              rep.scalar_action_deviation), 1e-10,
                          samples=100))

    m2 = full_matrix_space(2)
    transpose = CBMap(m2, m2, np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], float))
    values = [res.value for res in cb_norm_levels(transpose, 3, restarts=8,
                                                  seed=seed)]
    mono_dev = max(0.0, max(values[i] - values[i + 1] for i in range(2)))
    out.append(_check("amplification bounds grow with the level", mono_dev,
                      0.0, values=values))
    out.append(_check("transpose map doubles at level 2",
                      max(0.0, 2.0 - values[1]), 1e-6, value=values[1]))

    rng = derived_rng(seed, 112)
    cc_dev = 0.0
    eye2 = np.eye(2)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        a /= op_norm(a)
        b = rng.standard_normal((2, 2))
        b /= op_norm(b)
        u = CBMap(m2, m2, m2.coefficients(a @ m2.basis @ b)[0].T)  # a x b
        uc = complexify_map(u)
        # u_c sends each basis element B of X_c to (I2 (x) a) B (I2 (x) b);
        # then every level of u_c is that sandwich too, of cb norm |a| |b|
        images = np.einsum("mk,mpq->kpq", uc.matrix, uc.codomain.basis)
        sandwich = np.kron(eye2, a) @ uc.domain.basis @ np.kron(eye2, b)
        cc_dev = max(cc_dev, float(np.max(np.abs(images - sandwich))),
                     op_norm(a) * op_norm(b) - 1.0)
    out.append(_check("complexified complete contractions stay contractive",
                      cc_dev, 1e-9, maps=20))

    rng = derived_rng(seed, 113)
    m2c = complexify_space(m2)
    qdev = 0.0
    not_converged = 0
    for _ in range(50):
        y_row = rng.standard_normal((1, 4))
        x = random_elem(m2, 1, rng)
        y = random_elem(m2, 1, rng)
        yc = np.zeros((2, 8))
        yc[0, :4] = y_row
        yc[1, 4:] = y_row
        r1 = quotient_level_norm(m2c, yc, complexified_elem(m2c, x, y))
        blk = np.zeros((2, 2, 4))
        blk[:1, :1, :] = x.coeffs
        blk[1:, 1:, :] = x.coeffs
        blk[:1, 1:, :] = -y.coeffs
        blk[1:, :1, :] = y.coeffs
        r2 = quotient_level_norm(m2, y_row, MatElem(m2, blk))
        qdev = max(qdev, abs(r1.value - r2.value))
        not_converged += (not r1.converged) + (not r2.converged)
    out.append(_check("quotient norms agree with the complexified quotient",
                      qdev, 1e-6, converged=not_converged == 0, cases=50,
                      not_converged=not_converged))

    # a block-diagonal basis makes every level of x (+) y a block-diagonal
    # matrix, up to a permutation, so its norm is the max over the blocks
    blocks = np.zeros((8, 4, 4))
    blocks[:4, :2, :2] = m2.basis
    blocks[4:, 2:, 2:] = m2.basis
    sdev = float(np.max(np.abs(direct_sum_spaces([m2, m2]).basis - blocks)))
    two = direct_sum_spaces([scalar_space(), scalar_space()])
    sdev = max(sdev, abs(level_norm(elem(two, [3.0, -4.0])) - 4.0))
    out.append(_check("direct sum norms are the max over summands", sdev,
                      1e-12))
    return out


# ----------------------------------------------------------------------
# quantization
# ----------------------------------------------------------------------

def suite_quantization(seed: int) -> list[CheckResult]:
    out = []
    rng = derived_rng(seed, 121)
    e_inf, e_one = ell_infty(2), ell_one(2)
    hexagon = BanachSpace(2, [[1.0, 0.0], [0.5, 1.0], [-0.5, 1.0]])

    dev = 0.0
    for sp in (e_inf, e_one, hexagon):
        for _ in range(70):
            v = rng.standard_normal(sp.dim)
            dev = max(dev, abs(min_level_norm(sp, v.reshape(1, 1, -1)) -
                               sp.norm(v)))
    out.append(_check("minimal structure extends the Banach norm", dev,
                      1e-12, vectors=210))

    dev = 0.0
    for sp in (e_inf, e_one, hexagon):
        xs = realize_min(sp)
        for _ in range(34):
            n = int(rng.integers(1, 4))
            c = rng.standard_normal((n, n, sp.dim))
            dev = max(dev, abs(level_norm(elem(xs, c)) -
                               min_level_norm(sp, c)))
    out.append(_check("diagonal realization matches the dual-ball formula",
                      dev, 1e-12, elements=102))

    for name, sp in [("scalars", BanachSpace(1, [[1.0]])),
                     ("ell_inf_2", e_inf), ("ell_1_2", e_one)]:
        out.append(_check(f"minimal quantization commutes with "
                          f"complexification on {name}",
                          quantization.min_complexification_check(sp),
                          1e-10))

    dev = 0.0
    for _ in range(100):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        dev = max(dev, abs(w2_complex_norm(e_one, x, y) -
                           w2_complex_norm(e_one, x, -y)))
    out.append(_check("circled complexification norm is even in y", dev,
                      0.0, samples=100))

    dev = 0.0
    domains = [("M2(R)", full_matrix_space(2), "nuclear"),
               ("M_{1,2}(R)", full_matrix_space(1, 2), "nuclear"),
               ("min ell_inf_2", realize_min(e_inf), "l1")]
    for _, dom, dual in domains:
        for t in range(5):
            u_mat = rng.standard_normal((2, dom.dim))
            u = CBMap(dom, realize_min(e_inf), u_mat)
            norm1 = 0.0
            for f in e_inf.representatives:
                w = u_mat.T @ f
                if dual == "nuclear":
                    p, q = dom.ambient
                    norm1 = max(norm1, float(np.sum(np.linalg.svd(
                        w.reshape(p, q), compute_uv=False))))
                else:
                    norm1 = max(norm1, float(np.sum(np.abs(w))))
            for lvl in (1, 2, 3):
                for _ in range(5):
                    x = random_elem(dom, lvl, rng)
                    nx = level_norm(x)
                    if nx < 1e-12:
                        continue
                    dev = max(dev, level_norm(u(x)) / nx - norm1)
    out.append(_check("maps into minimal spaces gain nothing at higher "
                      "levels", max(0.0, dev), 1e-9, maps=15, levels=3))

    order_dev = 0.0
    close_dev = 0.0
    sign_dev = 0.0
    for t in range(5):
        mats = [rng.standard_normal((2, 2)) for _ in range(2)]
        res = max_l1_norm_bounds(mats)
        scale = max(1.0, res.upper)
        order_dev = max(order_dev, (res.lower - res.upper) / scale)
        close_dev = max(close_dev, (res.upper - res.lower) / scale)
        scalars = [rng.standard_normal((1, 1)) for _ in range(3)]
        res1 = max_l1_norm_bounds(scalars)
        sign_dev = max(sign_dev, abs(res1.lower -
                                     sum(abs(float(s[0, 0])) for s in scalars)))
    out.append(_check("maximal bracket is ordered (lower <= upper)",
                      max(0.0, order_dev), 1e-12, tuples=5))
    out.append(_check("sign search attains the scalar l1 norm", sign_dev,
                      1e-12, tuples=5))
    out.append(_check("maximal bracket closes", max(0.0, close_dev), 1e-9,
                      tuples=5))

    rep = reproduce_l12_nonuniqueness()
    out.append(_check("two-dimensional l1 minimal norm of the witness pair "
                      "is sqrt(2)", abs(rep.min_norm - np.sqrt(2.0)),
                      quantization.L12_MIN_TOL))
    out.append(_check("two-dimensional l1 maximal lower bound reaches 2",
                      max(0.0, 2.0 - rep.max_lower),
                      quantization.L12_LOWER_TOL))
    out.append(_check("two-dimensional l1 maximal upper bound equals 2",
                      abs(rep.max_upper - 2.0), quantization.L12_UPPER_TOL))
    out.append(_check(f"minimal and maximal structures split by at least "
                      f"{quantization.L12_GAP:g}",
                      max(0.0, quantization.L12_GAP - rep.gap), 0.0,
                      gap=rep.gap))
    return out


# ----------------------------------------------------------------------
# mideal
# ----------------------------------------------------------------------

SYMMETRIZATION = np.array([[1, 0, 0, 0], [0, .5, .5, 0],
                           [0, .5, .5, 0], [0, 0, 0, 1]], float)
DIAG_MULT = np.diag([1.0, 1.0, 0.0, 0.0])


def suite_mideal(seed: int) -> list[CheckResult]:
    out = []
    m2 = full_matrix_space(2)

    p_good = mideal.projection(m2, DIAG_MULT)
    cert = mideal.certify_left_m_projection(p_good, max_level=3, restarts=8,
                                            seed=seed, tol=1e-9)
    out.append(_check("left multiplication by diag(1,0) certifies at "
                      "all levels", 0.0 if cert.certified else 1.0, 0.0,
                      verdict=cert.verdict,
                      all_levels=cert.certificate is not None))

    p_symm = mideal.projection(m2, SYMMETRIZATION)
    cert_s = mideal.certify_left_m_projection(p_symm, max_level=3,
                                              restarts=8, seed=seed, tol=1e-9)
    refuted_at = None if cert_s.certified else cert_s.levels_checked
    refuted_ok = refuted_at == 1
    wdev = abs((cert_s.observed or 0.0) - np.sqrt(2.0)) if refuted_ok else 1.0
    out.append(_check("symmetrization refutes at level 1 with witness "
                      "value sqrt(2)", wdev, 1e-9,
                      verdict=cert_s.verdict, level=refuted_at,
                      observed=cert_s.observed))
    redev = abs(mideal.reverify_certification(p_symm, cert_s) -
                cert_s.observed) if refuted_ok else 1.0
    out.append(_check("stored refutation witnesses re-verify", redev, 1e-12))

    rng = derived_rng(seed, 131)
    nus = np.empty((10, 2 * m2.dim, m2.dim))
    for t in range(10):
        # every rank-2 idempotent is a (a^T + c (I - a a^T)) with a
        # orthonormal columns; this form stays well conditioned
        a, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        c = rng.standard_normal((2, 4))
        pm = a @ (a.T + c @ (np.eye(4) - a @ a.T))
        nus[t] = mideal.build_nu_mu_tau(mideal.projection(m2, pm))[0].matrix
    c2 = mideal.column_space(m2)
    levels = rng.integers(1, 3, size=50)
    dom_dev = 0.0
    for idx, x in _normal_stacks(
            rng, np.column_stack([levels, levels, np.full(50, m2.dim)])):
        # sample i under the nu of projection i // 5, whose upper half is P
        columns = np.einsum("smk,sijk->sijm", nus[idx // 5], x)
        px = columns[..., :m2.dim]
        dom_dev = max(dom_dev, np.max(
            np.maximum(level_norms(m2, px), level_norms(m2, x - px)) -
            level_norms(c2, columns)))
    out.append(_check("column embedding dominates both column norms",
                      max(0.0, dom_dev), 1e-12, projections=10))

    _, mu_good, _ = mideal.build_nu_mu_tau(p_good)
    cols = rng.standard_normal((50, 2, 2, c2.dim))    # the columns [x; y]
    ineq_dev = level_norms(m2, mu_good.amplify(cols)) - level_norms(c2, cols)
    out.append(_check("certified projections average columns contractively",
                      max(0.0, np.max(ineq_dev)), 1e-10, samples=50))

    bad = 0
    for e in (np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)),
              np.array([[0.5, 0.5], [0.5, 0.5]])):
        u = CBMap(m2, m2, m2.coefficients(e @ m2.basis)[0].T)     # e x
        if not mideal.verify_multiplier_witness(m2, u, e):
            bad += 1
        cert_e = mideal.certify_left_m_projection(
            mideal.projection(m2, u.matrix), max_level=2, restarts=6,
            seed=seed, tol=1e-9)
        if not cert_e.certified:
            bad += 1
    out.append(_check("orthogonal projection witnesses never refute", bad,
                      0.0, witnesses=4, levels=2))

    for name, sp in [("scalars", scalar_space()), ("M2(R)", m2)]:
        out.append(_check(f"column/complexification shuffle is exact on "
                          f"{name}", mideal.shuffle_iso(sp).basis_deviation,
                          1e-12))

    # both sides of the identity are affine in u, so the zero map and the
    # 16 matrix units of End(M2(R)) prove it for every u
    units = np.concatenate([np.zeros((1, 4, 4)),
                            np.eye(16).reshape(16, 4, 4)])
    dev = max(mideal.projection_complexification_consistency(
        CBMap(m2, m2, unit)) for unit in units)
    out.append(_check("corner maps commute with complexification", dev,
                      1e-12,
                      checked_maps="the zero map and the 16 matrix units"))

    taus = [res.value for res in cb_norm_levels(
        mideal.tau_map(CBMap(m2, m2, DIAG_MULT)), 3, restarts=6, seed=seed)]
    out.append(_check("corner map of a multiplier stays contractive",
                      max(0.0, max(taus) - 1.0), 1e-9, values=taus))
    v2 = cb_norm_lower_search(mideal.tau_map(CBMap(m2, m2, 2 * np.eye(4))),
                              1, restarts=6, seed=seed).value
    out.append(_check("corner map detects a doubled multiplier",
                      max(0.0, 2.0 - v2), 1e-6, value=v2))
    v1 = cb_norm_lower_search(mideal.tau_map(opspace.identity_map(m2)), 2,
                              restarts=6, seed=seed).value
    out.append(_check("corner map of the identity has norm one",
                      abs(v1 - 1.0), 1e-9, value=v1))

    ut = systems.op_algebra(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                        [[0, 0], [0, 1]]]))
    wrong = 0
    if not mideal.is_right_ideal(ut, [[0.0, 1.0, 0.0]]):
        wrong += 1
    if mideal.is_right_ideal(ut, [[1.0, 0.0, 0.0]]):
        wrong += 1
    if not mideal.is_right_ideal(ut, np.eye(3)):
        wrong += 1
    out.append(_check("right ideals of the triangular algebra classify "
                      "correctly", wrong, 0.0))
    return out


# ----------------------------------------------------------------------
# systems
# ----------------------------------------------------------------------

def suite_systems(seed: int) -> list[CheckResult]:
    out = []
    m2 = full_matrix_space(2)
    alg_m2 = systems.op_algebra(m2)
    ut = systems.op_algebra(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                        [[0, 0], [0, 1]]]))

    for name, alg in [("M2(R)", alg_m2), ("the triangular algebra", ut)]:
        rep = systems.check_brs_level(alg, level=2, samples=100, seed=seed)
        dev = max(float(alg.structure_residuals.max()), rep.max_violation)
        out.append(_check(f"matrix levels of {name} are Banach algebras",
                          dev, 1e-10, samples=100))

    ce_alg = systems.op_algebra(span_space([[[0.5]]]), structure=[[[1.0]]])
    rep = systems.check_brs_level(ce_alg, level=1, samples=100, seed=seed)
    out.append(_check("rescaled scalar algebra violates submultiplicativity "
                      "by 1/4", max(0.0, 0.25 - rep.max_violation), 1e-12,
                      violation=rep.max_violation))

    e12 = span_space([[[0, 1], [0, 0]]])
    alg_e12 = systems.op_algebra(e12)
    u1 = systems.unitize(alg_e12)
    dims_dev = abs(u1.dim - 2) + abs(systems.unitize(alg_m2).dim - 4)
    a1c = complexify_space(u1.space)
    ac1 = systems.unitize(systems.op_algebra(complexify_space(e12)))
    dims_dev += abs(a1c.dim - ac1.dim) + abs(a1c.dim - 2 * u1.dim)
    basis_dev = float(np.max(np.abs(a1c.basis -
                                    ac1.space.basis[[0, 2, 1, 3]])))
    out.append(_check("unitization commutes with complexification",
                      dims_dev + basis_dev, 0.0, basis_deviation=basis_dev))

    ps_r = systems.build_paulsen_system(scalar_space())
    ps_m2 = systems.build_paulsen_system(m2)
    out.append(_check("system corners have dimension 2 dim(X) + 2",
                      abs(ps_r.space.dim - 4) + abs(ps_m2.space.dim - 10),
                      0.0))

    sc = scalar_space()
    rep_id = systems.paulsen_positivity_transfer(
        opspace.identity_map(sc), levels=2, samples=30, seed=seed)
    rep_half = systems.paulsen_positivity_transfer(
        CBMap(sc, sc, np.array([[0.5]])), levels=2, samples=30, seed=seed)
    rep_two = systems.paulsen_positivity_transfer(
        CBMap(sc, sc, np.array([[2.0]])), levels=1, samples=30, seed=seed)
    dev = rep_id.failures + rep_half.failures + (0 if rep_two.failures else 1)
    out.append(_check("positivity transfers exactly for contractions",
                      dev, 0.0, expansive_witness_eig=rep_two.witness_min_eig))

    phi = CBMap(m2, m2, np.diag([1.0, 0.0, 0.0, 1.0]))
    ce = systems.choi_effros_product(alg_m2, phi, tol=1e-10, trials=500,
                                     seed=seed)
    ce_dev = max(ce.associativity_deviation, ce.unit_law_deviation,
                 ce.involution_deviation, ce.cstar_identity_deviation,
                 ce.bimodule_deviation)
    out.append(_check("diagonal expectation re-product is a C*-product",
                      ce_dev, 1e-10, trials=500, mode=ce.mode))
    # a multiplicative idempotent reproduces the ambient product
    diag_alg = systems.op_algebra(span_space([np.diag([1.0, 0.0]),
                                              np.diag([0.0, 1.0])]))
    table = alg_m2.structure[np.ix_([0, 3], [0, 3])]   # E11, E22 products
    table_dev = float(np.max(np.abs(table @ phi.matrix.T - table)))
    out.append(_check("multiplicative idempotents keep the original "
                      "product table", table_dev, 1e-12))
    phi_tr = CBMap(m2, m2, np.array([[.5, 0, 0, .5], [0, 0, 0, 0],
                                     [0, 0, 0, 0], [.5, 0, 0, .5]]))
    ce_tr = systems.choi_effros_product(alg_m2, phi_tr, tol=1e-10,
                                        trials=200, seed=seed)
    out.append(_check("normalized trace re-product is scalar "
                      "multiplication", 0.0 if ce_tr.passed else 1.0, 0.0,
                      range_dim=ce_tr.range_dim))

    corner = span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    bad = span_space([[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
    tro_dev = 0.0
    if not systems.is_tro(e12):
        tro_dev += 1
    if not systems.is_tro(corner):
        tro_dev += 1
    rep = systems.tro_closure_report(bad)
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    if rep.is_tro or rep.witness_product is None:
        tro_dev += 1
    else:
        tro_dev += float(np.max(np.abs(rep.witness_product - e22)))
    for alg in (alg_m2, diag_alg):
        if not systems.is_tro(alg.space):
            tro_dev += 1
    out.append(_check("triple closure classifies the rank-one, corner and "
                      "mixed spans", tro_dev, 1e-12,
                      witness=None if rep.witness_product is None else
                      rep.witness_product.tolist()))

    st = systems.generated_subtriple(bad)
    st_dev = abs(st.dim - 4)
    st_dev += abs(systems.generated_subtriple(e12).dim - 1)
    st_dev += abs(systems.generated_subtriple(m2).dim - 4)
    st_dev += abs(systems.generated_subtriple(st).dim - st.dim)
    out.append(_check("generated subtriples close at the right dimension",
                      st_dev, 0.0, mixed_span_dim=st.dim))

    tro_corner = systems.TROSpace(corner)
    g = systems.shilov_inner_product(tro_corner, elem(corner, [1.0, 0.0]),
                                     elem(corner, [0.0, 1.0]))
    sh_dev = float(np.max(np.abs(g.matrix - np.array([[0.0, 1.0],
                                                      [0.0, 0.0]]))))
    rng = derived_rng(seed, 142)
    ys = rng.standard_normal((100, 2))
    gy = systems.shilov_inner_products(tro_corner, ys, ys)
    psd_failures = int(np.sum(~is_real_positive(gy.matrix, tol=1e-9)) +
                       np.sum(~gy.in_span))
    out.append(_check("concrete inner products are positive and stay in "
                      "the product span", sh_dev + psd_failures, 1e-12,
                      samples=100))

    rng = derived_rng(seed, 143)
    failures = sum(int(np.sum(~is_real_positive(
        linalg.contraction_block(mats), tol=1e-9)))
        for _, mats in _scaled_samples(rng, 100, 4, 0.0, 1.0))
    out.append(_check("contractions produce positive block extensions",
                      failures, 0.0, samples=100))
    return out


#: name -> suite, in the order ``verify all`` runs them
SUITES = {
    "linalg": suite_linalg,
    "opspace": suite_opspace,
    "quantization": suite_quantization,
    "mideal": suite_mideal,
    "systems": suite_systems,
}
