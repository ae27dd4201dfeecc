import numpy as np
import pytest

from realops.linalg import op_norm
from realops.mideal import (build_nu_mu_tau, certify_left_m_projection,
                            column_embed, column_space, is_right_ideal,
                            projection, projection_complexification_consistency,
                            reverify_certification, shuffle_iso,
                            solve_left_multiplier, tau_map,
                            verify_multiplier_witness)
from realops.opspace import (CBMap, MatElem, cb_norm_levels,
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
        cert = certify_left_m_projection(p, max_level=3, samples=200,
                                         restarts=8, seed=0xC0FFEE, tol=1e-9)
        assert cert.certified and cert.all_levels
        # nothing was drawn or searched on the all-level path
        assert cert.levels_checked == 0 and cert.samples == 0
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
                                         max_level=2, samples=100,
                                         restarts=6, seed=1, tol=1e-9)
        assert cert.certified

    @pytest.mark.parametrize("e", [np.diag([1.0, 0.0]), np.eye(2),
                                   np.zeros((2, 2)),
                                   np.array([[0.5, 0.5], [0.5, 0.5]])])
    def test_orthogonal_witnesses_certify(self, e):
        # left multiplication by an orthogonal projection e; e = 0 gives
        # the zero projection
        pm = M2.coefficients(e @ M2.basis)[0].T
        cert = certify_left_m_projection(projection(M2, pm), max_level=2,
                                         samples=100, restarts=6,
                                         seed=0xC0FFEE, tol=1e-9)
        assert cert.certified and cert.all_levels
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
        # nu's level-1 norm exceeds 1, and the seesaw ascent (exact on
        # the full domain M2(R)) gives it to compare with; no draw is a
        # left multiplier, so the multiplier certificate declines
        for pm in _oblique_draws():
            p = projection(M2, pm)
            cert = certify_left_m_projection(p, max_level=3, samples=200,
                                             restarts=8, seed=0xC0FFEE)
            assert (cert.verdict, cert.check, cert.refuted_level) == \
                ("refuted", "nu_isometry", 1)
            assert (cert.all_levels, cert.certificate) == (False, None)
            assert abs(reverify_certification(p, cert) - cert.observed) \
                <= 1e-12
            seesaw = cb_norm_lower_search(build_nu_mu_tau(p)[0], 1).value
            # the exact seesaw polish closes the up to 4.3e-4 (relative)
            # that 400 subgradient steps alone leave on these draws
            assert abs(cert.observed - seesaw) <= 1e-12 * seesaw

    def test_symmetrization_refutes_at_level_one(self):
        # direct oracle: nu(e12) stacks S = (e12+e21)/2 and K = (e12-e21)/2,
        # and |S^T S + K^T K| = 1/2
        s = np.array([[0.0, 0.5], [0.5, 0.0]])
        k = np.array([[0.0, 0.5], [-0.5, 0.0]])
        assert op_norm(s.T @ s + k.T @ k) == pytest.approx(0.5, abs=1e-15)
        cert = certify_left_m_projection(projection(M2, SYMMETRIZATION),
                                         max_level=3, samples=200,
                                         restarts=8, seed=0xC0FFEE, tol=1e-9)
        assert cert.verdict == "refuted"
        assert cert.refuted_level == 1
        assert cert.check == "nu_isometry"
        assert cert.observed == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert (cert.all_levels, cert.certificate) == (False, None)

    def test_witness_reverifies_deterministically(self):
        p = projection(M2, SYMMETRIZATION)
        cert = certify_left_m_projection(p, max_level=1, samples=200,
                                         restarts=8, seed=0xC0FFEE, tol=1e-9)
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
                                         max_level=2, samples=100,
                                         restarts=6, seed=0xC0FFEE)
        assert cert.certified and cert.all_levels
        assert np.allclose(cert.certificate.a, np.diag([1.0, 0, 1, 0]),
                           atol=1e-12)
        assert cert.certificate.epsilon <= 1e-12

    def test_declines_on_an_oblique_multiplier(self):
        # x -> a x is a projection but V = [a; I - a] is not isometric
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        p = projection(M2, np.kron(a, np.eye(2)))
        found, residual = solve_left_multiplier(M2, p.underlying)
        assert residual <= 1e-12 and np.allclose(found, a, atol=1e-12)
        cert = certify_left_m_projection(p, max_level=3, samples=200,
                                         restarts=8, seed=0xC0FFEE)
        assert (cert.verdict, cert.check, cert.refuted_level) == \
            ("refuted", "nu_isometry", 1)
        assert abs(reverify_certification(p, cert) - cert.observed) <= 1e-12
        assert (cert.all_levels, cert.certificate) == (False, None)


class TestShuffle:
    def test_scalar_space(self):
        cert = shuffle_iso(R1, samples=50, seed=1)
        assert cert.coeff_perm.size == 4
        assert cert.basis_deviation == 0.0
        assert cert.sample_norm_deviation <= 1e-12

    def test_full_matrix_space(self):
        cert = shuffle_iso(M2, samples=50, seed=1)
        assert cert.coeff_perm.size == 16
        assert cert.basis_deviation == 0.0
        assert cert.sample_norm_deviation <= 1e-12

    def test_permutation_is_involutive(self):
        cert = shuffle_iso(M2)
        twice = cert.coeff_perm[cert.coeff_perm]
        assert np.array_equal(twice, np.arange(16))

    def test_complexified_input_rejected(self):
        from realops.opspace import complexify_space
        with pytest.raises(ValueError):
            shuffle_iso(complexify_space(M2))


class TestProjectionComplexification:
    def test_identity_map(self):
        assert projection_complexification_consistency(
            identity_map(M2), samples=10, seed=2) == 0.0

    def test_corner_multiplication(self):
        assert projection_complexification_consistency(
            CBMap(M2, M2, DIAG_MULT), samples=10, seed=2) <= 1e-12

    def test_symmetrization(self):
        # not an M-projection, but the identity is purely linear-algebraic
        assert projection_complexification_consistency(
            CBMap(M2, M2, SYMMETRIZATION), samples=10, seed=2) <= 1e-12

    def test_arbitrary_linear_maps(self):
        # the identity is linear-algebraic; idempotency is not needed
        rng = np.random.default_rng(14)
        for _ in range(20):
            u = CBMap(M2, M2, rng.standard_normal((4, 4)))
            assert projection_complexification_consistency(
                u, samples=10, seed=3) <= 1e-12


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
    @pytest.fixture
    def triangular(self):
        return op_algebra(span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                      [[0, 0], [0, 1]]]))

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
