import numpy as np
import pytest

from realops import systems
from realops.linalg import is_real_positive, op_norm
from realops.opspace import (CBMap, MatElem, complexify_space, elem,
                             full_matrix_space, identity_map, level_norm,
                             span_space)
from realops.systems import (TROSpace, algebra_from_json, algebra_to_json,
                             build_paulsen_system, check_brs_level,
                             choi_effros_product, generated_subtriple,
                             is_tro, op_algebra, paulsen_map,
                             paulsen_positivity_transfer,
                             shilov_inner_product, tro_closure_report,
                             unitize)

M2 = full_matrix_space(2)
R1 = span_space([[[1.0]]])
UPPER_TRI = span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]])


class TestOpAlgebra:
    def test_structure_derived_from_products(self):
        alg = op_algebra(M2)
        assert float(alg.structure_residuals.max()) == 0.0
        # e12 * e21 = e11
        c = alg.product_coeffs(np.array([[[0, 1, 0, 0]]], float),
                               np.array([[[0, 0, 1, 0]]], float))
        assert np.allclose(c.ravel(), [1, 0, 0, 0])

    @pytest.mark.parametrize("space", [UPPER_TRI, complexify_space(M2)],
                             ids=["triangular", "complexified M2(R)"])
    def test_stacked_products_match_the_per_product_solve(self, space):
        alg = op_algebra(space)
        for j, k in np.ndindex(space.dim, space.dim):
            c, res = space.coefficients(space.basis[j] @ space.basis[k])
            assert np.array_equal(alg.structure[j, k], c)
            assert alg.closure_residuals[j, k] == res

    def test_non_closed_span_rejected(self):
        with pytest.raises(ValueError):
            op_algebra(span_space([[[0, 1], [1, 0]]]))   # square is e11+e22

    def test_first_failing_product_is_named(self):
        # row-major order: e11 (e12 + e21) = e12 fails before e21 and I
        with pytest.raises(ValueError, match=r"^basis product B_0 B_1 leaves "
                           r"the span \(residual 7\.071e-01\); not an "
                           r"algebra$"):
            op_algebra(span_space([[[1, 0], [0, 0]], [[0, 1], [1, 0]]]))

    def test_rectangular_ambient_rejected(self):
        with pytest.raises(ValueError):
            op_algebra(full_matrix_space(1, 2))

    def test_supplied_structure_recorded_not_enforced(self):
        alg = op_algebra(span_space([[[0.5]]]), structure=[[[1.0]]])
        assert np.array_equal(alg.structure, [[[1.0]]])
        assert alg.structure_residuals[0, 0] > 0.2
        assert alg.closure_residuals[0, 0] <= 1e-12

    def test_json_round_trip(self):
        alg = op_algebra(UPPER_TRI)
        alg2 = algebra_from_json(algebra_to_json(alg))
        assert np.allclose(alg2.structure, alg.structure)


class TestBrsLevel:
    def test_full_matrix_algebra_passes(self):
        rep = check_brs_level(op_algebra(M2), level=2, samples=100, seed=3)
        assert rep.passed
        assert rep.max_violation <= 1e-10

    def test_triangular_algebra_passes(self):
        rep = check_brs_level(op_algebra(UPPER_TRI), level=2, samples=100,
                              seed=3)
        assert rep.passed

    def test_decoupled_scalar_structure_fails(self):
        # basis [0.5], abstract product says B*B = B: coefficients 1 * 1
        # give product coefficient 1, norms 0.5 * 0.5 = 0.25 < 0.5
        alg = op_algebra(span_space([[[0.5]]]), structure=[[[1.0]]])
        rep = check_brs_level(alg, level=1, samples=100, seed=3)
        assert not rep.passed
        assert rep.max_violation >= 0.25 - 1e-12


class TestUnitize:
    def test_adjoint_unit(self):
        alg = op_algebra(span_space([[[0, 1], [0, 0]]]))
        assert unitize(alg).dim == 2

    def test_already_unital_unchanged(self):
        assert unitize(op_algebra(M2)).dim == 4

    def test_tol_decides_membership_of_the_unit(self):
        # the identity's relative residual against span{e12} is about 0.59
        alg = op_algebra(span_space([[[0, 1], [0, 0]]]))
        assert unitize(alg, tol=0.5).dim == 2
        assert unitize(alg, tol=0.6).dim == 1

    def test_complexified_unitization_matches(self):
        e12 = span_space([[[0, 1], [0, 0]]])
        a1 = unitize(op_algebra(e12))
        lhs = complexify_space(a1.space)          # (A^1)_c
        rhs = unitize(op_algebra(complexify_space(e12)))   # (A_c)^1
        assert lhs.dim == rhs.dim == 2 * a1.dim
        # identification is a basis reorder: re(e12), re(I), im(e12), im(I)
        # against re(e12), im(e12), I, i1
        perm = [0, 2, 1, 3]
        for i, j in enumerate(perm):
            assert np.array_equal(lhs.basis[i], rhs.space.basis[j])
        # the suite row's exact comparison fails without the reorder
        assert np.max(np.abs(lhs.basis - rhs.space.basis[[0, 1, 2, 3]])) > 0
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            c = rng.standard_normal((n, n, 4))
            cc = np.zeros_like(c)
            for i, j in enumerate(perm):
                cc[:, :, j] = c[:, :, i]
            assert level_norm(MatElem(lhs, c)) == pytest.approx(
                level_norm(MatElem(rhs.space, cc)), abs=1e-12)


class TestPaulsen:
    def test_scalar_system(self):
        ps = build_paulsen_system(R1)
        assert ps.space.dim == 4
        assert ps.space.ambient == (2, 2)

    def test_full_matrix_system_dimension(self):
        ps = build_paulsen_system(M2)
        assert ps.space.dim == 2 * 4 + 2
        assert ps.space.ambient == (4, 4)

    def test_transpose_closure_exact(self):
        ps = build_paulsen_system(full_matrix_space(1, 2))
        for b in ps.space.basis:
            assert any(np.array_equal(b.T, other) for other in ps.space.basis)

    def test_identity_transfer_passes(self):
        rep = paulsen_positivity_transfer(identity_map(R1), levels=2,
                                          samples=30, seed=5)
        assert rep.passed

    def test_half_scaling_passes(self):
        rep = paulsen_positivity_transfer(CBMap(R1, R1, [[0.5]]), levels=2,
                                          samples=30, seed=5)
        assert rep.passed

    def test_doubling_produces_witness(self):
        # [1, 1; 1, 1] is positive, its image [1, 2; 2, 1] has eigenvalue -1
        rep = paulsen_positivity_transfer(CBMap(R1, R1, [[2.0]]), levels=1,
                                          samples=30, seed=5)
        assert not rep.passed
        assert rep.witness_min_eig == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("levels, samples", [(0, 30), (-1, 30), (1, 0),
                                                 (2, -5)])
    def test_invalid_counts_rejected(self, levels, samples):
        # a vacuous run would report passed=True with no sample checked
        with pytest.raises(ValueError):
            paulsen_positivity_transfer(CBMap(R1, R1, [[2.0]]), levels=levels,
                                        samples=samples)

    def test_non_positive_sample_raises(self, monkeypatch):
        def negative_sample(system, x_space, level, samples, rng):
            coeffs = np.zeros((samples, level, level, 2 * system.source_dim
                               + 2))
            coeffs[..., system.lam_index] = -np.eye(level)
            return coeffs

        monkeypatch.setattr(systems, "_positive_system_sample",
                            negative_sample)
        with pytest.raises(RuntimeError, match="non-positive"):
            paulsen_positivity_transfer(identity_map(R1), levels=1,
                                        samples=4)

    def test_block_map_fixes_corners(self):
        phi, s_dom, _ = paulsen_map(identity_map(M2))
        assert phi.matrix[s_dom.lam_index, s_dom.lam_index] == 1.0
        assert phi.matrix[s_dom.mu_index, s_dom.mu_index] == 1.0

    def test_one_system_per_space(self):
        space = full_matrix_space(2)
        ps = build_paulsen_system(space)
        assert build_paulsen_system(space) is ps
        # an equal but distinct space gets its own system
        assert build_paulsen_system(full_matrix_space(2)) is not ps
        phi, s_dom, s_cod = paulsen_map(identity_map(space))
        assert s_dom is s_cod is ps
        assert phi.domain is phi.codomain is ps.space


def defective_m2(entry):
    """M2(R) whose derived structure tensor gains 0.25 at ``entry``; the
    ambient span is unchanged, so every Choi-Effros precondition holds."""
    s = op_algebra(M2).structure.copy()
    s[entry] += 0.25
    return op_algebra(M2, s)


class TestChoiEffros:
    def test_diagonal_expectation(self):
        phi = CBMap(M2, M2, np.diag([1.0, 0.0, 0.0, 1.0]))
        rep = choi_effros_product(op_algebra(M2), phi, tol=1e-10, trials=500,
                                  seed=6)
        assert rep.precondition_failures == []
        assert rep.mode == "selfadjoint"
        assert rep.range_dim == 2
        assert rep.associativity_deviation <= 1e-10
        assert rep.unit_law_deviation <= 1e-10
        assert rep.involution_deviation <= 1e-10
        assert rep.cstar_identity_deviation <= 1e-10
        assert rep.bimodule_deviation <= 1e-10
        assert rep.passed

    def test_trace_expectation_is_scalar_product(self):
        phi = CBMap(M2, M2, np.array([[.5, 0, 0, .5], [0, 0, 0, 0],
                                      [0, 0, 0, 0], [.5, 0, 0, .5]]))
        rep = choi_effros_product(op_algebra(M2), phi, tol=1e-10, trials=200,
                                  seed=6)
        assert rep.passed
        assert rep.range_dim == 1

    def test_associativity_defect_is_caught(self):
        # E12 E21 gains 0.25 E11: (E21 E12) E21 = E21, E21 (E12 E21) = 1.25 E21
        rep = choi_effros_product(defective_m2((1, 2, 0)),
                                  identity_map(M2), seed=6)
        assert rep.precondition_failures == []
        assert rep.associativity_deviation == 0.25
        assert not rep.passed

    def test_bimodule_defect_is_caught_exactly(self):
        # E12 E11 gains 0.25 E11; E12 lies in the kernel of phi, E11 in its
        # range, so phi(E12 E11) = 0.25 E11 while phi(phi(E12) E11) = 0
        phi = CBMap(M2, M2, np.diag([1.0, 0.0, 0.0, 1.0]))
        rep = choi_effros_product(defective_m2((1, 0, 0)), phi, seed=6)
        assert rep.precondition_failures == []
        assert rep.bimodule_deviation == 0.25
        assert (rep.associativity_deviation, rep.unit_law_deviation,
                rep.involution_deviation) == (0.0, 0.0, 0.0)
        assert rep.cstar_identity_deviation <= 1e-10
        assert not rep.passed

    def test_non_idempotent_rejected(self):
        phi = CBMap(M2, M2, 0.5 * np.eye(4))
        rep = choi_effros_product(op_algebra(M2), phi, seed=6)
        assert rep.precondition_failures
        assert any("idempotent" in f for f in rep.precondition_failures)
        # nothing past the preconditions ran, so nothing of it is reported
        assert rep.range_dim is None
        assert (rep.associativity_deviation, rep.unit_law_deviation,
                rep.involution_deviation, rep.cstar_identity_deviation,
                rep.bimodule_deviation) == (None,) * 5
        assert not rep.passed

    def test_without_transposition_nothing_selfadjoint_is_reported(self):
        # span{E11, E12, E22} is a unital algebra that is not transpose
        # closed, so there is no transposition to test phi against
        rep = choi_effros_product(op_algebra(UPPER_TRI),
                                  identity_map(UPPER_TRI), seed=6)
        assert rep.precondition_failures == ["algebra is not transpose "
                                             "closed"]
        assert rep.selfadjoint_deviation is None
        assert rep.mode is None
        assert rep.range_dim is None
        assert not rep.passed

    def test_non_unital_algebra_rejected(self):
        e12_alg = op_algebra(span_space([[[0, 1], [0, 0]]]))
        phi = CBMap(e12_alg.space, e12_alg.space, np.eye(1))
        rep = choi_effros_product(e12_alg, phi, seed=6)
        assert rep.precondition_failures

    @pytest.mark.parametrize("trials", [0, -3])
    def test_invalid_trials_rejected(self, trials):
        phi = CBMap(M2, M2, np.diag([1.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            choi_effros_product(op_algebra(M2), phi, trials=trials, seed=6)

    def test_expansive_map_rejected(self):
        phi = CBMap(M2, M2, np.diag([1.0, 2.0, 0.0, 1.0]))
        rep = choi_effros_product(op_algebra(M2), phi, seed=6)
        assert rep.precondition_failures


class TestTro:
    def test_rank_one_span(self):
        assert is_tro(span_space([[[0, 1], [0, 0]]]))

    def test_corner_row(self):
        assert is_tro(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]]]))

    def test_mixed_span_rejected_with_witness(self):
        # [e12+e21, e11, e12+e21] = e22, which leaves the span
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(x @ e11.T @ x, np.array([[0.0, 0.0],
                                                       [0.0, 1.0]]))
        rep = tro_closure_report(span_space([e11, x]))
        assert not rep.is_tro
        assert np.allclose(rep.witness_product, [[0.0, 0.0], [0.0, 1.0]])

    def test_first_maximal_witness_is_kept(self):
        # six triples of the symmetric 2 x 2 matrices tie at the largest
        # relative residual; the first in row-major (j, k, l) order wins
        sym = span_space([[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                          [[0, 1], [1, 0]]])
        rep = tro_closure_report(sym)
        assert not rep.is_tro
        best, first = 0.0, None           # the per-triple loop as reference
        for j, k, l in np.ndindex(3, 3, 3):
            prod = sym.basis[j] @ sym.basis[k].T @ sym.basis[l]
            scaled = sym.coefficients(prod)[1] / (1.0 + np.linalg.norm(prod))
            if scaled > best:
                best, first = scaled, (j, k, l)
        assert rep.witness_triple == first == (0, 0, 2)
        assert rep.max_residual == best
        assert np.array_equal(rep.witness_product, [[0.0, 1.0], [0.0, 0.0]])
        assert rep.max_residual == pytest.approx(np.sqrt(0.5) / 2.0)

    def test_trospace_validates(self):
        with pytest.raises(ValueError):
            TROSpace(span_space([[[1, 0], [0, 0]], [[0, 1], [1, 0]]]))


class TestSubtriple:
    def test_already_closed(self):
        assert generated_subtriple(span_space([[[0, 1], [0, 0]]])).dim == 1
        assert generated_subtriple(M2).dim == 4

    def test_mixed_span_generates_everything(self):
        sub = generated_subtriple(span_space([[[1, 0], [0, 0]],
                                              [[0, 1], [1, 0]]]))
        assert sub.dim == 4

    def test_idempotent(self):
        sub = generated_subtriple(span_space([[[1, 0], [0, 0]],
                                              [[0, 1], [1, 0]]]))
        again = generated_subtriple(sub)
        assert again.dim == sub.dim

    def test_rectangular_ambient(self):
        row = span_space([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert generated_subtriple(row).dim == 2

    def test_rank_cutoff_is_relative_to_the_top_singular_value(self):
        # singular values sqrt(2) and 1: a cutoff of 0.9 keeps only
        # e12 + e21, which is triple closed on its own
        mixed = span_space([[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
        assert generated_subtriple(mixed, tol=0.9).dim == 1

    @pytest.mark.parametrize("tol", [1.0, 2.0, -1e-3, float("nan")])
    def test_rank_cutoff_outside_unit_interval_rejected(self, tol):
        with pytest.raises(ValueError):
            generated_subtriple(M2, tol=tol)


class TestShilov:
    def test_rank_one_product(self):
        tro = TROSpace(span_space([[[0, 1], [0, 0]]]))
        y = elem(tro.space, [1.0])
        res = shilov_inner_product(tro, y, y)
        assert np.array_equal(res.matrix, [[0.0, 0.0], [0.0, 1.0]])
        assert res.in_span

    def test_corner_row_product(self):
        tro = TROSpace(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]]]))
        res = shilov_inner_product(tro, elem(tro.space, [1.0, 0.0]),
                                   elem(tro.space, [0.0, 1.0]))
        assert np.array_equal(res.matrix, [[0.0, 1.0], [0.0, 0.0]])
        assert res.in_span

    def test_self_products_are_positive(self):
        # Gram oracle: y^T y is always positive semidefinite
        tro = TROSpace(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]]]))
        rng = np.random.default_rng(16)
        for _ in range(100):
            y = elem(tro.space, rng.standard_normal(2))
            res = shilov_inner_product(tro, y, y)
            assert is_real_positive(res.matrix, tol=1e-9)
            assert res.in_span

    def test_level_restriction(self):
        tro = TROSpace(span_space([[[0, 1], [0, 0]]]))
        with pytest.raises(ValueError):
            shilov_inner_product(tro, MatElem(tro.space, np.zeros((2, 2, 1))),
                                 elem(tro.space, [1.0]))


def test_every_transpose_closed_algebra_is_a_tro():
    diag = span_space([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    for space in (M2, diag):
        assert is_tro(space)


def test_contraction_blocks_are_positive():
    rng = np.random.default_rng(17)
    from realops.linalg import contraction_block
    for _ in range(100):
        x = rng.standard_normal((int(rng.integers(1, 4)),
                                 int(rng.integers(1, 4))))
        n = op_norm(x)
        if n < 1e-12:
            continue
        x *= rng.uniform(0.0, 1.0) / n
        assert is_real_positive(contraction_block(x), tol=1e-9)
