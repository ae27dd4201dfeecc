import numpy as np
import pytest

from realops import mideal, suites
from realops.linalg import op_norm
from realops.mideal import (build_nu_mu_tau, certify_left_m_projection,
                            column_space, is_right_ideal,
                            projection, projection_complexification_consistency,
                            reverify_certification, shuffle_iso,
                            solve_left_multiplier, tau_map,
                            verify_multiplier_witness)
from realops.opspace import (CBMap, MatElem, OpSpace, cb_norm_levels,
                             cb_norm_lower_search, complexify_map, elem,
                             full_matrix_space, identity_map, level_norm,
                             random_elem, span_space)
from realops.rng import derived_rng
from realops.systems import op_algebra

M2 = full_matrix_space(2)
R1 = span_space([[[1.0]]])
DIAG_MULT = np.diag([1.0, 1.0, 0.0, 0.0])
SYMMETRIZATION = np.array([[1, 0, 0, 0], [0, .5, .5, 0],
                           [0, .5, .5, 0], [0, 0, 0, 1]], float)
#: a copy of ell_inf_2 in M3(R) whose third diagonal entry averages the
#: first two; no ambient matrix implements its coordinate projections
AVERAGED = span_space([np.diag([1.0, 0.0, 0.5]), np.diag([0.0, 1.0, 0.5])])


def column_embed(x, y, c2):
    """Reference: the element [x; y] of M_n(C_2(X)), x and y at one level."""
    return MatElem(c2, np.concatenate([x.coeffs, y.coeffs], axis=2))


class TestProjectionType:
    def test_idempotency_enforced(self):
        with pytest.raises(ValueError):
            projection(M2, np.array([[1, 0, 0, 0], [0, .5, .4, 0],
                                     [0, .5, .5, 0], [0, 0, 0, 1.]]))

    def test_defect_recorded(self):
        p = projection(M2, DIAG_MULT)
        assert p.idempotency_defect == 0.0


class TestNuMuTau:
    def test_identity_projection(self):
        p = projection(M2, np.eye(4))
        nu, mu, tau = build_nu_mu_tau(p)
        x = elem(M2, [1.0, 2.0, 3.0, 4.0])
        img = nu(x)
        assert np.allclose(img.coeffs[:, :, :4], x.coeffs)
        assert np.allclose(img.coeffs[:, :, 4:], 0.0)

    def test_zero_projection(self):
        p = projection(M2, np.zeros((4, 4)))
        nu, _, _ = build_nu_mu_tau(p)
        x = elem(M2, [1.0, 2.0, 3.0, 4.0])
        img = nu(x)
        assert np.allclose(img.coeffs[:, :, :4], 0.0)
        assert np.allclose(img.coeffs[:, :, 4:], x.coeffs)

    def test_mu_nu_is_identity(self):
        for mat in (DIAG_MULT, SYMMETRIZATION, np.eye(4)):
            nu, mu, _ = build_nu_mu_tau(projection(M2, mat))
            assert np.max(np.abs(mu.matrix @ nu.matrix - np.eye(4))) <= 1e-12

    def test_column_norm_is_stacked(self):
        c2 = column_space(M2)
        x = elem(M2, [0.0, 1.0, 0.0, 0.0])
        y = elem(M2, [0.0, 0.0, 1.0, 0.0])
        col = column_embed(x, y, c2)
        stacked = np.vstack([x.realization(), y.realization()])
        assert level_norm(col) == pytest.approx(op_norm(stacked), abs=1e-14)


@pytest.fixture
def triangular():
    """T2(R) = span{E11, E12, E22}, an algebra that does not fill its
    ambient M2(R)."""
    return op_algebra(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                  [[0, 0], [0, 1]]]))


def _oblique_draws():
    """The ten oblique rank-2 idempotents of the mideal suite at seed
    0xC0FFEE."""
    rng = derived_rng(0xC0FFEE, 131)
    out = []
    for _ in range(10):
        a, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        c = rng.standard_normal((2, 4))
        out.append(a @ (a.T + c @ (np.eye(4) - a @ a.T)))
    return out


class TestCertification:
    def test_corner_multiplication_certifies(self):
        p = projection(M2, DIAG_MULT)
        cert = certify_left_m_projection(p, max_level=3, restarts=8,
                                         seed=0xC0FFEE, tol=1e-9)
        assert cert.certified and cert.certificate is not None
        # nothing was searched on the all-level path
        assert cert.levels_checked == 0
        assert np.allclose(cert.certificate.a, np.diag([1.0, 0.0]),
                           atol=1e-12)
        # the multiplier certificate holds beyond max_level
        nu, mu, tau = build_nu_mu_tau(p)
        rng = np.random.default_rng(21)
        for level in (4, 5):
            for _ in range(5):
                x = random_elem(M2, level, rng)
                assert abs(level_norm(nu(x)) / level_norm(x) - 1.0) <= 1e-12
                z = random_elem(mu.domain, level, rng)
                for mp in (mu, tau):
                    assert level_norm(mp(z)) <= (1 + 1e-12) * level_norm(z)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_nonpositive_restarts_rejected(self, restarts):
        # no restarts would certify without searching
        with pytest.raises(ValueError):
            certify_left_m_projection(projection(M2, DIAG_MULT),
                                      restarts=restarts)

    def test_identity_certifies(self):
        cert = certify_left_m_projection(projection(M2, np.eye(4)),
                                         max_level=2, restarts=6, seed=1,
                                         tol=1e-9)
        assert cert.certified

    @pytest.mark.parametrize("e", [np.diag([1.0, 0.0]), np.eye(2),
                                   np.zeros((2, 2)),
                                   np.array([[0.5, 0.5], [0.5, 0.5]])])
    def test_orthogonal_witnesses_certify(self, e):
        # left multiplication by an orthogonal projection e; e = 0 gives
        # the zero projection
        pm = M2.coefficients(e @ M2.basis)[0].T
        cert = certify_left_m_projection(projection(M2, pm), max_level=2,
                                         restarts=6, seed=0xC0FFEE, tol=1e-9)
        assert cert.certified and cert.certificate is not None
        # the certificate's bounds, re-checked by eigvalsh
        c = cert.certificate
        a, eye = c.a, np.eye(2)
        v = np.vstack([a, eye - a])
        w = np.hstack([a, eye - a])
        delta = np.max(np.abs(np.linalg.eigvalsh(v.T @ v - eye)))
        w_norm = np.sqrt(np.linalg.eigvalsh(w @ w.T)[-1])
        a_norm = np.sqrt(max(np.linalg.eigvalsh(a.T @ a)[-1], 0.0))
        assert abs(c.delta - delta) <= 1e-12
        assert abs(c.mu_bound - (w_norm + 2 * c.epsilon)) <= 1e-12
        assert abs(c.tau_bound - (max(a_norm, 1.0) + c.epsilon)) <= 1e-12
        assert c.delta + 2 * c.epsilon <= 1e-9
        assert max(c.mu_bound, c.tau_bound) <= 1 + 1e-9

    def test_oblique_idempotents_refute_at_level_one(self):
        # nu's level-1 norm exceeds 1, and a 32-restart seesaw search
        # (exact on the full domain M2(R)) gives it to compare with; no
        # draw is a left multiplier, so the multiplier certificate declines
        for pm in _oblique_draws():
            p = projection(M2, pm)
            cert = certify_left_m_projection(p, max_level=3, restarts=8,
                                             seed=0xC0FFEE)
            assert (cert.verdict, cert.check, cert.levels_checked) == \
                ("refuted", "nu_isometry", 1)
            assert cert.certificate is None
            assert abs(reverify_certification(p, cert) - cert.observed) \
                <= 1e-12
            seesaw = cb_norm_lower_search(build_nu_mu_tau(p)[0], 1).value
            assert abs(cert.observed - seesaw) <= 1e-12 * seesaw

    def test_symmetrization_refutes_at_level_one(self):
        # direct oracle: nu(e12) stacks S = (e12+e21)/2 and K = (e12-e21)/2,
        # and |S^T S + K^T K| = 1/2; mu maps [S; K] back to e12, of norm
        # 1, so mu's ratio there is 1/sqrt(1/2)
        s = np.array([[0.0, 0.5], [0.5, 0.0]])
        k = np.array([[0.0, 0.5], [-0.5, 0.0]])
        assert op_norm(s.T @ s + k.T @ k) == pytest.approx(0.5, abs=1e-15)
        cert = certify_left_m_projection(projection(M2, SYMMETRIZATION),
                                         max_level=3, restarts=8,
                                         seed=0xC0FFEE, tol=1e-9)
        assert cert.verdict == "refuted"
        assert (cert.levels_checked, cert.check) == (1, "mu_contraction")
        ratio = 1.0 / np.sqrt(op_norm(s.T @ s + k.T @ k))
        assert cert.observed == pytest.approx(ratio, abs=1e-9)
        assert cert.certificate is None

    def test_coordinate_projection_certifies_level_by_level(self):
        # on the diagonal copy of ell_inf_2, P is left multiplication by
        # E11; in M3(R), a B_2 = 0 forces the third column of a to vanish,
        # and then a B_1 misses the entry 1/2 of B_1
        p = projection(AVERAGED, np.diag([1.0, 0.0]))
        _, residual = solve_left_multiplier(AVERAGED, p.underlying)
        assert residual == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-12)
        cert = certify_left_m_projection(p, max_level=2, restarts=6, seed=0)
        assert (cert.verdict, cert.levels_checked, cert.certificate) == \
            ("certified", 2, None)
        assert (cert.check, cert.witness, cert.observed) == (None, None, None)

    def test_oblique_projection_of_the_averaged_copy_refutes(self):
        # x = B_1 + B_2 has norm 1; nu(x) = [2 B_1; -B_1 + B_2] has the
        # column norm sqrt(2^2 + 1^2) in its first diagonal entry
        p = projection(AVERAGED, [[1.0, 1.0], [0.0, 0.0]])
        cert = certify_left_m_projection(p, max_level=2, restarts=6, seed=0)
        assert (cert.verdict, cert.check, cert.levels_checked) == \
            ("refuted", "nu_isometry", 1)
        assert cert.observed == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert abs(reverify_certification(p, cert) - cert.observed) <= 1e-12

    def test_witness_reverifies_deterministically(self):
        p = projection(M2, SYMMETRIZATION)
        cert = certify_left_m_projection(p, max_level=1, restarts=8,
                                         seed=0xC0FFEE, tol=1e-9)
        assert abs(reverify_certification(p, cert) - cert.observed) <= 1e-12

    def test_nu_dominates_column_norms(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.standard_normal((4, 2))
            b = rng.standard_normal((2, 4))
            p = projection(M2, a @ np.linalg.inv(b @ a) @ b)
            nu, _, _ = build_nu_mu_tau(p)
            for _ in range(5):
                x = random_elem(M2, int(rng.integers(1, 3)), rng)
                px = p.underlying(x)
                rest = MatElem(M2, x.coeffs - px.coeffs)
                assert level_norm(nu(x)) >= max(level_norm(px),
                                                level_norm(rest)) - 1e-12

    def test_certified_projection_averages_contractively(self):
        p = projection(M2, DIAG_MULT)
        nu, mu, _ = build_nu_mu_tau(p)
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = random_elem(M2, 2, rng)
            y = random_elem(M2, 2, rng)
            col = column_embed(x, y, mu.domain)
            assert level_norm(mu(col)) <= level_norm(col) + 1e-10


class TestMultiplierCertificate:
    def test_complexified_multiplier_certifies(self):
        u = complexify_map(CBMap(M2, M2, DIAG_MULT))
        cert = certify_left_m_projection(projection(u.domain, u.matrix),
                                         max_level=2, restarts=6,
                                         seed=0xC0FFEE)
        assert cert.certified and cert.certificate is not None
        assert np.allclose(cert.certificate.a, np.diag([1.0, 0, 1, 0]),
                           atol=1e-12)
        assert cert.certificate.epsilon <= 1e-12

    def test_declines_on_an_oblique_multiplier(self):
        # x -> a x is a projection but V = [a; I - a] is not isometric
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        p = projection(M2, np.kron(a, np.eye(2)))
        found, residual = solve_left_multiplier(M2, p.underlying)
        assert residual <= 1e-12 and np.allclose(found, a, atol=1e-12)
        cert = certify_left_m_projection(p, max_level=3, restarts=8,
                                         seed=0xC0FFEE)
        assert (cert.verdict, cert.check, cert.levels_checked) == \
            ("refuted", "nu_isometry", 1)
        assert abs(reverify_certification(p, cert) - cert.observed) <= 1e-12
        assert cert.certificate is None


class TestSubspaceDomain:
    # on T2(R) every cb-norm sweep runs ratio_ascent, not the seesaw

    def test_e12_coefficient_projection_refutes(self, triangular):
        p = projection(triangular.space, np.diag([0.0, 1.0, 0.0]))
        cert = certify_left_m_projection(p, max_level=3, restarts=8,
                                         seed=0xC0FFEE, tol=1e-9)
        # nu is no expansion here: norm([P x; x - P x]) = max(|x11|,
        # norm of the second column of x) <= norm(x) at level 1
        assert (cert.verdict, cert.check, cert.levels_checked) == \
            ("refuted", "mu_contraction", 1)
        assert cert.observed > 1 + 1e-9
        assert abs(reverify_certification(p, cert) - cert.observed) \
            <= 1e-12

    @pytest.mark.parametrize("diag", [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                             ids=["E11-left", "E22-left"])
    def test_corner_multiplications_certify(self, triangular, diag):
        cert = certify_left_m_projection(
            projection(triangular.space, np.diag(diag)), max_level=3,
            restarts=8, seed=0xC0FFEE, tol=1e-9)
        assert cert.certified and cert.certificate is not None


class TestShuffle:
    def test_scalar_space(self):
        cert = shuffle_iso(R1)
        assert cert.coeff_perm.size == 4
        assert cert.basis_deviation == 0.0

    def test_full_matrix_space(self):
        cert = shuffle_iso(M2)
        assert cert.coeff_perm.size == 16
        assert cert.basis_deviation == 0.0

    def test_row_permutation_swaps_the_middle_blocks(self):
        assert np.array_equal(shuffle_iso(M2).row_perm,
                              [0, 1, 4, 5, 2, 3, 6, 7])

    def test_permutation_is_involutive(self):
        cert = shuffle_iso(M2)
        twice = cert.coeff_perm[cert.coeff_perm]
        assert np.array_equal(twice, np.arange(16))

    @pytest.mark.parametrize("space", [R1, M2], ids=["scalars", "M2(R)"])
    def test_identity_shuffle_is_caught(self, monkeypatch, space):
        monkeypatch.setattr(mideal, "_coeff_shuffle",
                            lambda d: np.arange(4 * d))
        assert shuffle_iso(space).basis_deviation > 0.0

    def test_complexified_input_rejected(self):
        from realops.opspace import complexify_space
        with pytest.raises(ValueError):
            shuffle_iso(complexify_space(M2))


class TestProjectionComplexification:
    def test_identity_map(self):
        assert projection_complexification_consistency(
            identity_map(M2)) == 0.0

    def test_corner_multiplication(self):
        assert projection_complexification_consistency(
            CBMap(M2, M2, DIAG_MULT)) == 0.0

    def test_symmetrization(self):
        # not an M-projection, but the identity is purely linear-algebraic
        assert projection_complexification_consistency(
            CBMap(M2, M2, SYMMETRIZATION)) == 0.0

    def test_arbitrary_linear_maps(self):
        # the identity is linear-algebraic; idempotency is not needed
        rng = np.random.default_rng(14)
        for _ in range(20):
            u = CBMap(M2, M2, rng.standard_normal((4, 4)))
            assert projection_complexification_consistency(u) == 0.0

    def test_identity_shuffle_is_caught(self, monkeypatch):
        monkeypatch.setattr(mideal, "_coeff_shuffle",
                            lambda d: np.arange(4 * d))
        u = CBMap(M2, M2, np.random.default_rng(14).standard_normal((4, 4)))
        assert projection_complexification_consistency(u) > 0.0

    def test_suite_row_catches_an_identity_shuffle(self, monkeypatch):
        def corner_row():
            (row,) = [r for r in suites.suite_mideal(0xC0FFEE) if r.name ==
                      "corner maps commute with complexification"]
            return row
        row = corner_row()
        assert row.passed and row.deviation == 0.0
        monkeypatch.setattr(mideal, "_coeff_shuffle",
                            lambda d: np.arange(4 * d))
        assert not corner_row().passed


class TestSuiteColumnRows:
    """Both sampled column rows report max(0, deviation), which reads 0.0
    on working code, so each is shown to fail on a defect."""

    @staticmethod
    def row(name):
        (row,) = [r for r in suites.suite_mideal(0xC0FFEE) if r.name == name]
        return row

    def check_defect(self, monkeypatch, name, defect):
        assert self.row(name).passed and self.row(name).deviation == 0.0

        def defective(p):
            return defect(p, *build_nu_mu_tau(p))
        monkeypatch.setattr(mideal, "build_nu_mu_tau", defective)
        assert not self.row(name).passed

    def test_embedding_row_catches_a_nu_without_its_lower_half(
            self, monkeypatch):
        def lower_half_zeroed(p, nu, mu, tau):
            m = nu.matrix.copy()
            m[p.space.dim:] = 0.0
            return CBMap(nu.domain, nu.codomain, m), mu, tau
        self.check_defect(monkeypatch, "column embedding dominates both "
                          "column norms", lower_half_zeroed)

    def test_averaging_row_catches_a_doubled_mu(self, monkeypatch):
        def doubled(p, nu, mu, tau):
            return nu, CBMap(mu.domain, mu.codomain, 2.0 * mu.matrix), tau
        self.check_defect(monkeypatch, "certified projections average "
                          "columns contractively", doubled)


class TestColumnSpaceMemo:
    def test_memoized_per_space(self):
        space = full_matrix_space(2)
        c2 = column_space(space)
        assert column_space(space) is c2
        other = column_space(span_space(space.basis[::-1]))
        assert other is not c2
        assert not np.array_equal(other.basis, c2.basis)

    def test_consistency_builds_each_space_once(self, monkeypatch):
        # complexify_space and column_space of the domain, and their two
        # composites, whatever the number of maps
        space = full_matrix_space(2)
        built = []
        post_init = OpSpace.__post_init__

        def counted(self):
            built.append(self.ambient)
            post_init(self)
        monkeypatch.setattr(OpSpace, "__post_init__", counted)
        rng = np.random.default_rng(16)
        for _ in range(20):
            u = CBMap(space, space, rng.standard_normal((4, 4)))
            assert projection_complexification_consistency(u) == 0.0
        assert len(built) <= 4


class TestMultiplierWitness:
    def test_diagonal_multiplier(self):
        u = CBMap(M2, M2, np.diag([2.0, 2.0, 1.0, 1.0]))
        assert verify_multiplier_witness(M2, u, np.diag([2.0, 1.0]))

    def test_zero_map(self):
        u = CBMap(M2, M2, np.zeros((4, 4)))
        assert verify_multiplier_witness(M2, u, np.zeros((2, 2)))

    def test_transpose_has_no_witness(self):
        t = CBMap(M2, M2, np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                                    [0, 1, 0, 0], [0, 0, 0, 1]], float))
        a, residual = solve_left_multiplier(M2, t)
        assert residual > 0.5          # inconsistent system
        assert not verify_multiplier_witness(M2, t, a)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            verify_multiplier_witness(M2, identity_map(M2), np.eye(3))

    def test_left_multiplication_is_recovered(self):
        a = np.random.default_rng(6).standard_normal((2, 2))
        u = CBMap(M2, M2, np.kron(a, np.eye(2)))    # x -> a x, row-major
        found, residual = solve_left_multiplier(M2, u)
        assert residual <= 1e-12
        assert np.allclose(found, a, atol=1e-12)
        assert verify_multiplier_witness(M2, u, found)


class TestTau:
    def test_orthogonal_corner_multiplier_contractive(self):
        for res in cb_norm_levels(tau_map(CBMap(M2, M2, DIAG_MULT)), 3,
                                  restarts=6, seed=4):
            assert res.value <= 1.0 + 1e-9

    def test_doubled_identity_refuted(self):
        (res,) = cb_norm_levels(tau_map(CBMap(M2, M2, 2.0 * np.eye(4))), 1,
                                restarts=6, seed=4)
        assert res.value >= 2.0 - 1e-6

    def test_identity_is_one(self):
        *_, res = cb_norm_levels(tau_map(identity_map(M2)), 2, restarts=6,
                                 seed=4)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_tau_needs_endomap(self):
        with pytest.raises(ValueError):
            tau_map(CBMap(M2, column_space(M2),
                          np.zeros((8, 4))))


class TestRightIdeals:
    def test_corner_span_is_right_ideal(self, triangular):
        # e12 e11 = 0, e12 e12 = 0, e12 e22 = e12: all inside
        assert is_right_ideal(triangular, [[0.0, 1.0, 0.0]])

    def test_unit_corner_is_not(self, triangular):
        # e11 e12 = e12 leaves span{e11}
        assert not is_right_ideal(triangular, [[1.0, 0.0, 0.0]])

    def test_whole_algebra_is(self, triangular):
        assert is_right_ideal(triangular, np.eye(3))

    def test_dependent_rows_accepted(self, triangular):
        assert is_right_ideal(triangular, [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        assert not is_right_ideal(triangular, [[1.0, 0.0, 0.0],
                                               [2.0, 0.0, 0.0]])
