"""Stacked kernels against lone calls, and the stacked invariant checks
against per-sample reference loops.

Each reference below is the per-sample form of a sampled check: it draws
the same inputs in the same order and evaluates them one matrix at a
time through lone kernel calls.  The linalg and mideal suites and the
Paulsen samples draw their samples as stacks, so their references draw
those stacks (through ``ref_normal_draws``, not the suite's helpers),
then walk the samples in index order.  The corner-map reference instead
permutes coefficients through a permutation matrix rather than by
indexing.  The stacked code
must give the same values bit for bit, so the comparisons use ``==``.
"""

import numpy as np
import pytest

from realops import mideal, quantization, suites, systems
from realops.linalg import (contraction_block, contraction_iff_positive,
                            is_real_positive, kron_sum, op_norm,
                            sym_eig_min)
from realops.opspace import (CBMap, MatElem, complexify_map,
                             complexify_space, elem, full_matrix_space,
                             identity_map, level_norm, level_norms,
                             scalar_sandwich, span_space)
from realops.rng import derived_rng

SEEDS = [0xC0FFEE, 1]
M2 = full_matrix_space(2)
R1 = span_space([[[1.0]]])


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

SIDES = range(1, 9)


class TestStackedKernels:
    @pytest.mark.parametrize("p", SIDES)
    def test_op_norm_equals_lone_calls(self, p):
        rng = np.random.default_rng(p)
        for q in SIDES:
            stack = rng.standard_normal((7, p, q))
            stack[3] = 0.0
            stack[5] *= 1e-20
            norms = op_norm(stack)
            assert norms.shape == (7,)
            assert norms[3] == 0.0
            for i in range(7):
                assert norms[i] == op_norm(stack[i])

    def test_op_norm_keeps_leading_axes(self):
        stack = np.random.default_rng(0).standard_normal((2, 3, 4, 5))
        norms = op_norm(stack)
        assert norms.shape == (2, 3)
        assert norms[1, 2] == op_norm(stack[1, 2])
        assert op_norm(np.zeros((2, 3, 3))).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", SIDES)
    def test_positivity_equals_lone_calls(self, n):
        rng = np.random.default_rng(10 + n)
        g = rng.standard_normal((8, n, n))
        stack = g @ np.swapaxes(g, 1, 2)                    # positive
        stack[1] -= 2.0 * np.eye(n) * sym_eig_min(stack[1])  # ...or not
        stack[2] = rng.standard_normal((n, n))              # nonsymmetric
        stack[3] = 0.0
        stack[4] = stack[4] - (sym_eig_min(stack[4]) + 1e-10) * np.eye(n)
        stack[5] = stack[5] - (sym_eig_min(stack[5]) + 1e-8) * np.eye(n)
        flags = is_real_positive(stack, tol=1e-9)
        lows = sym_eig_min(stack)
        assert flags.dtype == bool and flags.shape == (8,)
        assert flags[0] and flags[3] and flags[4]
        assert not flags[5]
        for i in range(8):
            assert flags[i] == is_real_positive(stack[i], tol=1e-9)
            assert lows[i] == sym_eig_min(stack[i])

    def test_positivity_takes_one_tolerance_per_matrix(self):
        stack = np.stack([np.diag([1.0, -1e-6]), np.diag([1.0, -1e-6])])
        assert is_real_positive(stack, tol=np.array([1e-9, 1e-5])).tolist() \
            == [False, True]

    @pytest.mark.parametrize("p", SIDES)
    def test_contraction_blocks_equal_lone_calls(self, p):
        rng = np.random.default_rng(20 + p)
        for q in SIDES:
            stack = rng.standard_normal((5, p, q))
            stack /= op_norm(stack)[:, None, None]
            stack *= rng.uniform(0.9, 1.1, size=5)[:, None, None]
            by_norm, by_positivity = contraction_iff_positive(stack)
            blocks = contraction_block(stack)
            for i in range(5):
                assert np.array_equal(blocks[i], contraction_block(stack[i]))
                assert (by_norm[i], by_positivity[i]) == \
                    contraction_iff_positive(stack[i])

    @pytest.mark.parametrize("space", [M2, full_matrix_space(1, 2),
                                       complexify_space(M2)],
                             ids=["M2(R)", "M_{1,2}(R)", "complexified M2"])
    def test_level_norms_equal_lone_level_norms(self, space):
        rng = np.random.default_rng(space.dim)
        for n in SIDES:
            coeffs = rng.standard_normal((4, n, n, space.dim))
            coeffs[2] = 0.0
            norms = level_norms(space, coeffs)
            assert norms[2] == 0.0
            real = kron_sum(coeffs, space.basis)
            for i in range(4):
                x = MatElem(space, coeffs[i])
                assert norms[i] == level_norm(x)
                assert np.array_equal(real[i], x.realization())

    def test_level_norms_reject_wrong_shapes(self):
        with pytest.raises(ValueError):
            level_norms(M2, np.zeros((3, 2, 2, 3)))
        with pytest.raises(ValueError):
            level_norms(M2, np.zeros((3, 2, 1, 4)))
        with pytest.raises(ValueError):
            level_norms(M2, np.zeros((2, 4)))

    def test_level_norms_reject_a_list_of_mixed_levels(self):
        with pytest.raises(ValueError):
            level_norms(M2, [np.ones((1, 1, 4)), np.ones((2, 2, 4))])

    @pytest.mark.parametrize("space", [
        quantization.ell_one(2), quantization.ell_infty(3),
        quantization.BanachSpace(2, [[1.0, 0.0], [0.5, 1.0], [-0.5, 1.0]])],
        ids=["l1_2", "linf_3", "hexagon"])
    def test_min_level_norm_equals_the_loop_over_functionals(self, space):
        # reference: one product c @ f and one lone SVD per functional
        rng = np.random.default_rng(space.dim)
        for n in SIDES:
            for c in rng.standard_normal((3, n, n, space.dim)):
                lone = 0.0
                for f in space.representatives:
                    lone = max(lone, op_norm(c @ f))
                assert quantization.min_level_norm(space, c) == lone


class TestStackValidation:
    @pytest.mark.parametrize("bad", [
        np.array([[[1.0, 0.0], [0.0, np.nan]], [[1.0, 0.0], [0.0, 1.0]]]),
        np.array([[[1.0, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]]),
        np.ones(3),
        np.float64(1.0),
        np.ones((4, 2, 3)),
        np.ones((4, 0, 0)),
    ], ids=["nan", "inf", "ndim 1", "ndim 0", "non-square", "empty"])
    def test_positivity_rejects(self, bad):
        with pytest.raises(ValueError):
            is_real_positive(bad)

    def test_op_norm_rejects_a_nonfinite_stack_entry(self):
        stack = np.ones((3, 2, 2))
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValueError):
            op_norm(stack)


# ----------------------------------------------------------------------
# Per-sample references
# ----------------------------------------------------------------------

def ref_normal_draws(rng, shapes):
    """Sample i of shape ``shapes[i]``, drawn as one standard-normal stack
    per distinct shape in sorted order, as a list in sample order."""
    shapes = [tuple(int(v) for v in row) for row in shapes]
    out = [None] * len(shapes)
    for shape in sorted(set(shapes)):
        idx = [i for i, s in enumerate(shapes) if s == shape]
        for i, m in zip(idx, rng.standard_normal((len(idx), *shape))):
            out[i] = m
    return out


def ref_matrix_draws(rng, count, sides):
    """``count`` Gaussian p x q matrices, 1 <= p, q < ``sides``, in sample
    order: one integer draw for the shapes, then the stacks."""
    return ref_normal_draws(rng, rng.integers(1, sides, size=(count, 2)))


def ref_suite_linalg(seed):
    """The per-sample form of ``suites.suite_linalg``."""
    rng = derived_rng(seed, 101)
    out = []
    dev = 0.0
    mats = ref_matrix_draws(rng, 200, 5)
    for m, alpha in zip(mats, rng.uniform(-100.0, 100.0, size=200)):
        base = op_norm(m)
        if base < 1e-14:
            continue
        dev = max(dev, abs(op_norm(alpha * m) - abs(alpha) * base) /
                  (abs(alpha) * base + 1e-300))
    out.append(suites._check("operator norm is absolutely homogeneous", dev,
                             1e-12, samples=200))
    dev = 0.0
    firsts = ref_matrix_draws(rng, 200, 5)
    seconds = ref_matrix_draws(rng, 200, 5)
    for m1, m2 in zip(firsts, seconds):
        (p1, q1), (p2, q2) = m1.shape, m2.shape
        blk = np.zeros((8, 8))
        blk[:p1, :q1] = m1
        blk[p1:p1 + p2, q1:q1 + q2] = m2
        dev = max(dev, abs(op_norm(blk) - max(op_norm(m1), op_norm(m2))))
    out.append(suites._check("block-diagonal norm is the max of the blocks",
                             dev, 1e-12, samples=200))
    for lo, hi, label in [(0.9, 1.1, "near the contraction boundary"),
                          (0.5, 1.5, "across norms in [0.5, 1.5]")]:
        disagreements = 0
        mats = ref_matrix_draws(rng, 500, 5)
        for m, target in zip(mats, rng.uniform(lo, hi, size=500)):
            base = op_norm(m)
            if base < 1e-14:
                continue
            m = m * (target / base)
            by_norm, by_positivity = contraction_iff_positive(m, tol=1e-9)
            if by_norm != by_positivity:
                disagreements += 1
        out.append(suites._check(f"contraction iff block positivity, {label}",
                                 disagreements, 0.0, samples=500,
                                 tol_used=1e-9))
    failures = 0
    sides = rng.integers(1, 5, size=100)
    for b, a in ref_normal_draws(rng, [(2, n, n) for n in sides]):
        m = b.T @ b
        if not is_real_positive(a.T @ m @ a, tol=1e-9 * (1 + op_norm(a)) ** 2):
            failures += 1
    out.append(suites._check("congruence preserves real positivity", failures,
                             0.0, samples=100))
    return out


def ref_check_brs_level(algebra, level, samples, seed, tol=1e-10):
    d = algebra.dim
    space = algebra.space
    rng = derived_rng(seed, 31, level)
    pairs = []
    for j in range(d):
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
    return max(0.0, worst), worst <= tol, witness


def ref_positive_system_draws(rng, level, samples, d):
    """The draws of ``systems._positive_system_sample`` as (rho, Gram
    factors or None, x) per sample, in sample order."""
    rho = [1.0] * min(samples, 2) + \
        rng.uniform(0.0, 1.0, size=max(samples - 2, 0)).tolist()
    g, h = rng.standard_normal((2, samples // 2, level, level))
    xs = rng.standard_normal((samples, level, level, d))
    return [(rho[i], (g[i // 2], h[i // 2]) if i % 2 else None, xs[i])
            for i in range(samples)]


def ref_positive_system_sample(system, x_space, rho, factors, x):
    n = len(x)
    d = system.source_dim
    if factors is None:
        lam = np.eye(n)
        mu = np.eye(n)
    else:
        g, h = factors
        lam = g @ g.T + 0.1 * np.eye(n)
        mu = h @ h.T + 0.1 * np.eye(n)
    x = MatElem(x_space, x)
    lam_half_inv = np.linalg.inv(np.linalg.cholesky(lam))
    mu_half_inv = np.linalg.inv(np.linalg.cholesky(mu))
    s = level_norm(scalar_sandwich(lam_half_inv, x, mu_half_inv.T))
    xc = x.coeffs * (rho / s) if s > 1e-14 else x.coeffs * 0.0
    coeffs = np.zeros((n, n, 2 * d + 2))
    coeffs[:, :, system.lam_index] = lam
    coeffs[:, :, system.mu_index] = mu
    for k in range(d):
        coeffs[:, :, system.upper_indices[k]] = xc[:, :, k]
        coeffs[:, :, system.lower_indices[k]] = xc[:, :, k].T
    return coeffs


def ref_paulsen_positivity_transfer(u, levels, samples, seed, tol=1e-9):
    phi, s_dom, _ = systems.paulsen_map(u)
    failures = 0
    witness = None
    for lvl in range(1, levels + 1):
        draws = ref_positive_system_draws(derived_rng(seed, 41, lvl), lvl,
                                          samples, u.domain.dim)
        for rho, factors, x in draws:
            coeffs = ref_positive_system_sample(s_dom, u.domain, rho,
                                                factors, x)
            sample = MatElem(s_dom.space, coeffs)
            assert is_real_positive(sample.realization(), tol)
            img_mat = phi(sample).realization()
            if not is_real_positive(img_mat, tol):
                failures += 1
                if witness is None:
                    eig = float(np.linalg.eigvalsh(
                        (img_mat + img_mat.T) / 2.0)[0])
                    witness = (lvl, coeffs, eig)
    return failures, witness


def ref_choi_effros_trials(algebra, phi, trials, seed):
    """The C*-identity deviation of ``choi_effros_product``, one trial at a
    time, for a transpose-closed algebra."""
    space = algebra.space
    pm = phi.matrix
    t_coeffs, _ = space.coefficients(np.swapaxes(space.basis, 1, 2))
    tmat = np.ascontiguousarray(t_coeffs.T)
    u_svd, s_svd, _ = np.linalg.svd(pm)
    rank = int(np.sum(s_svd > 1e-10))
    rbasis = u_svd[:, :rank].T

    def circ(a, b):
        return pm @ np.einsum("r,s,rsm->m", a, b, algebra.structure)

    def realize(c):
        return np.einsum("m,mpq->pq", c, space.basis)

    rng = derived_rng(seed, 51)
    dev_cstar = 0.0
    for _ in range(trials):
        r = rbasis.T @ rng.standard_normal(rank)
        rtr = circ(tmat @ r, r)
        dev_cstar = max(dev_cstar, abs(op_norm(realize(rtr)) -
                                       op_norm(realize(r)) ** 2))
    return dev_cstar


def ref_projection_complexification(u):
    """The coefficient-matrix mismatch of the corner-map identity, through
    a permutation matrix built one entry at a time."""
    perm = mideal._coeff_shuffle(u.domain.dim)
    s_mat = np.zeros((perm.size, perm.size))
    for src, dst in enumerate(perm):
        s_mat[dst, src] = 1.0
    lhs = s_mat @ complexify_map(mideal.tau_map(u)).matrix @ s_mat.T
    return float(np.max(np.abs(lhs - mideal.tau_map(complexify_map(u)).matrix)))


def ref_mideal_column_rows(seed):
    """Deviations of the column-embedding and column-averaging rows."""
    rng = derived_rng(seed, 131)
    projections = []
    for _ in range(10):
        a, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        c = rng.standard_normal((2, 4))
        pm = a @ (a.T + c @ (np.eye(4) - a @ a.T))
        projections.append(mideal.projection(M2, pm))
    levels = rng.integers(1, 3, size=50)
    dom_dev = 0.0
    for i, x in enumerate(ref_normal_draws(rng, [(n, n, 4) for n in levels])):
        nu, _, _ = mideal.build_nu_mu_tau(projections[i // 5])
        x = MatElem(M2, x)
        px = projections[i // 5].underlying(x)
        rest = MatElem(M2, x.coeffs - px.coeffs)
        dom_dev = max(dom_dev, max(level_norm(px), level_norm(rest)) -
                      level_norm(nu(x)))
    p_good = mideal.projection(M2, suites.DIAG_MULT)
    _, mu_good, _ = mideal.build_nu_mu_tau(p_good)
    c2 = mu_good.domain
    ineq_dev = 0.0
    for coeffs in rng.standard_normal((50, 2, 2, 8)):
        x = MatElem(M2, coeffs[..., :4])
        y = MatElem(M2, coeffs[..., 4:])
        col = MatElem(c2, np.concatenate([x.coeffs, y.coeffs], axis=2))
        ineq_dev = max(ineq_dev, level_norm(mu_good(col)) - level_norm(col))
    return max(0.0, dom_dev), max(0.0, ineq_dev)


def ref_systems_rows(seed):
    """Shilov failures and contraction-block failures of
    ``suite_systems``."""
    corner = span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    tro_corner = systems.TROSpace(corner)
    rng = derived_rng(seed, 142)
    psd_failures = 0
    for _ in range(100):
        y = elem(corner, rng.standard_normal(2))
        gy = systems.shilov_inner_product(tro_corner, y, y)
        if not is_real_positive(gy.matrix, tol=1e-9):
            psd_failures += 1
        if not gy.in_span:
            psd_failures += 1
    rng = derived_rng(seed, 143)
    eqn1_failures = 0
    mats = ref_matrix_draws(rng, 100, 4)
    for x, target in zip(mats, rng.uniform(0.0, 1.0, size=100)):
        nx = op_norm(x)
        if nx < 1e-14:
            continue
        x = x * (target / nx)
        if not is_real_positive(contraction_block(x), tol=1e-9):
            eqn1_failures += 1
    return psd_failures, eqn1_failures


EXPECTATIONS = {
    "diagonal": np.diag([1.0, 0.0, 0.0, 1.0]),
    "trace": np.array([[.5, 0, 0, .5], [0, 0, 0, 0], [0, 0, 0, 0],
                       [.5, 0, 0, .5]]),
}


def check_choi_effros_trials(expectation, trials, seed):
    phi = CBMap(M2, M2, EXPECTATIONS[expectation])
    alg = systems.op_algebra(M2)
    rep = systems.choi_effros_product(alg, phi, trials=trials, seed=seed)
    assert rep.cstar_identity_deviation == \
        ref_choi_effros_trials(alg, phi, trials, seed)


@pytest.mark.parametrize("expectation, seed", [("diagonal", 225),
                                               ("trace", 693)])
def test_choi_effros_squares_norms_as_lone_calls(expectation, seed):
    # at these seeds, squaring the stacked norms as x * x rather than with
    # Python's float power moves the C*-identity deviation by an ulp
    check_choi_effros_trials(expectation, 200, seed)


@pytest.mark.parametrize("count, sides", [(300, 5), (7, 4), (1, 2)])
def test_sample_stacks_partition_the_samples(count, sides):
    for stacks in (suites._matrix_stacks(derived_rng(count, 0), count, sides),
                   suites._scaled_samples(derived_rng(count, 0), count,
                                          sides, 0.5, 1.5)):
        shapes = [mats.shape[1:] for _, mats in stacks]
        assert shapes == sorted(set(shapes))
        assert all(1 <= p < sides and 1 <= q < sides for p, q in shapes)
        for idx, mats in stacks:
            assert len(idx) == len(mats) > 0
            assert np.all(np.diff(idx) > 0)
        indices = np.concatenate([idx for idx, _ in stacks])
        assert sorted(indices.tolist()) == list(range(count))


def test_scaled_samples_match_per_sample_scaling():
    rng, ref_rng = derived_rng(5, 0), derived_rng(5, 0)
    stacks = suites._scaled_samples(rng, 300, 5, 0.5, 1.5)
    ref = ref_matrix_draws(ref_rng, 300, 5)
    targets = ref_rng.uniform(0.5, 1.5, size=300)
    assert sum(len(idx) for idx, _ in stacks) == 300
    for idx, mats in stacks:
        for i, m in zip(idx, mats):
            x = ref[i] * (targets[i] / op_norm(ref[i]))
            assert np.array_equal(m, x)


class ScriptedRng:
    """Draws the shapes of the given matrices, then their stacks (checking
    that they are asked for in sorted shape order), then 1.0 for every
    norm, counting the norm draws."""

    def __init__(self, mats):
        self.mats = list(mats)
        self.asked = []
        self.uniform_draws = 0

    def integers(self, lo, hi, size):
        assert size == (len(self.mats), 2)
        return np.array([m.shape for m in self.mats])

    def standard_normal(self, shape):
        self.asked.append(shape[1:])
        assert self.asked == sorted(set(self.asked))
        stack = [m for m in self.mats if m.shape == shape[1:]]
        assert len(stack) == shape[0]
        return np.array(stack)

    def uniform(self, lo, hi, size):
        self.uniform_draws += size
        return np.ones(size)


def test_scaled_samples_drop_only_norms_below_the_cut():
    # the norm 5e-14 sqrt(3) clears the 1e-14 cut, so that matrix stays;
    # 1e-15 and the zero matrix fall below it, and in the stack of 1 x 1
    # matrices only the small one goes
    rng = ScriptedRng([np.ones((2, 2)), np.full((1, 1), 1e-15),
                       np.full((1, 3), 5e-14), np.zeros((2, 1)),
                       np.full((1, 1), -3.0)])
    stacks = suites._scaled_samples(rng, 5, 5, 0.5, 1.5)
    assert rng.uniform_draws == 5
    kept = {int(i): m for idx, mats in stacks for i, m in zip(idx, mats)}
    assert sorted(kept) == [0, 2, 4]
    assert [kept[i].shape for i in (0, 2, 4)] == [(2, 2), (1, 3), (1, 1)]
    assert [op_norm(kept[i]) for i in (0, 2, 4)] == \
        pytest.approx([1.0, 1.0, 1.0], abs=1e-15)


def test_brs_witness_is_the_first_of_equal_maxima():
    # e_j e_k = delta_jk e_j on diag(1/2, 0), diag(0, 1/2): both canonical
    # squares violate submultiplicativity by exactly 1/4
    space = span_space([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    structure = np.zeros((2, 2, 2))
    structure[0, 0, 0] = structure[1, 1, 1] = 1.0
    rep = systems.check_brs_level(systems.op_algebra(space, structure),
                                  level=1, samples=0)
    assert rep.max_violation == 0.25
    assert rep.witness[0].ravel().tolist() == [1.0, 0.0]
    assert rep.witness[1].ravel().tolist() == [1.0, 0.0]


def _row(rows, name):
    (row,) = [r for r in rows if r.name == name]
    return row


@pytest.mark.parametrize("seed", SEEDS)
class TestAgainstPerSampleLoops:
    def test_suite_linalg(self, seed):
        assert suites.suite_linalg(seed) == ref_suite_linalg(seed)

    @pytest.mark.parametrize("case", ["M2(R)", "triangular", "rescaled",
                                      "M2(R) level 3"])
    def test_check_brs_level(self, seed, case):
        structure = [[[1.0]]] if case == "rescaled" else None
        space = {"M2(R)": M2, "M2(R) level 3": M2, "rescaled":
                 span_space([[[0.5]]]), "triangular": span_space(
                     [[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                      [[0, 0], [0, 1]]])}[case]
        alg = systems.op_algebra(space, structure)
        level = {"rescaled": 1, "M2(R) level 3": 3}.get(case, 2)
        rep = systems.check_brs_level(alg, level=level, samples=60, seed=seed)
        worst, passed, witness = ref_check_brs_level(alg, level, 60, seed)
        assert (rep.max_violation, rep.passed) == (worst, passed)
        if witness is None:
            assert rep.witness is None
        else:
            assert np.array_equal(rep.witness[0], witness[0])
            assert np.array_equal(rep.witness[1], witness[1])

    @pytest.mark.parametrize("u, levels", [
        (identity_map(R1), 2), (CBMap(R1, R1, [[0.5]]), 2),
        (CBMap(R1, R1, [[2.0]]), 2), (identity_map(M2), 3),
        (CBMap(M2, M2, np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                                 [0, 1, 0, 0], [0, 0, 0, 1]], float)), 2)],
        ids=["identity", "half", "double", "M2 identity", "M2 transpose"])
    def test_paulsen_positivity_transfer(self, seed, u, levels):
        rep = systems.paulsen_positivity_transfer(u, levels=levels,
                                                  samples=30, seed=seed)
        failures, witness = ref_paulsen_positivity_transfer(u, levels, 30,
                                                            seed)
        assert rep.failures == failures
        if witness is None:
            assert rep.witness_level is None
        else:
            assert rep.witness_level == witness[0]
            assert np.array_equal(rep.witness_coeffs, witness[1])
            assert rep.witness_min_eig == witness[2]

    @pytest.mark.parametrize("expectation", ["diagonal", "trace"])
    def test_choi_effros_trials(self, seed, expectation):
        check_choi_effros_trials(expectation, 300, seed)

    def test_projection_complexification_consistency(self, seed):
        for t in range(4):
            u = CBMap(M2, M2, derived_rng(seed, 132, t).standard_normal((4, 4)))
            assert mideal.projection_complexification_consistency(u) == \
                ref_projection_complexification(u)

    def test_suite_mideal_column_rows(self, seed):
        rows = suites.suite_mideal(seed)
        dom, ineq = ref_mideal_column_rows(seed)
        assert _row(rows, "column embedding dominates both column "
                    "norms").deviation == dom
        assert _row(rows, "certified projections average columns "
                    "contractively").deviation == ineq

    def test_suite_systems_sampled_rows(self, seed):
        rows = suites.suite_systems(seed)
        psd_failures, eqn1_failures = ref_systems_rows(seed)
        assert _row(rows, "concrete inner products are positive and stay in "
                    "the product span").deviation == psd_failures
        assert _row(rows, "contractions produce positive block "
                    "extensions").deviation == eqn1_failures
