import numpy as np
import pytest

from realops import opspace
from realops.linalg import clip_contraction, kron_sum, kron_sum_grad, op_norm
from realops.optim import (SDP_BRACKET, SDP_MAX_ITERS, smoothed_spectral_min,
                           spectral_min_sdp)
from realops.quantization import ell_one, realize_min
from realops.opspace import (CBMap, MatElem, check_ruan_axioms,
                             cbmap_from_json, cbmap_to_json, cb_norm_levels,
                             cb_norm_lower_search, complexification_norm,
                             complexified_elem, complexify_map,
                             complexify_space, conjugate_elem,
                             direct_sum_elem, direct_sum_spaces, elem,
                             elem_from_json, elem_to_json, full_matrix_space,
                             identity_map, level_norm, opspace_from_json,
                             opspace_to_json, quotient_level_norm,
                             random_elem, scalar_sandwich, span_space,
                             theta_dual_search)
from realops.rng import derived_rng

M2 = full_matrix_space(2)
R1 = span_space([[[1.0]]])
A_DIAG = np.array([[1.0, 0.0], [0.0, -1.0]])
B_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])

TRANSPOSE = CBMap(M2, M2, np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                                    [0, 1, 0, 0], [0, 0, 0, 1]], float))
UT = span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]])
#: the map of TestCbLowerBounds.test_partial_domain_values_are_pinned
TRIANGULAR_MAP = CBMap(UT, UT, np.array([[1.0, 0.5, 0.0], [0.0, -1.0, 0.3],
                                         [0.2, 0.0, 0.7]]))


def assemble_complex_block(x, y):
    """Brute-force oracle: the 2np x 2nq block matrix [[x, -y], [y, x]]."""
    xm, ym = x.realization(), y.realization()
    return np.block([[xm, -ym], [ym, xm]])


class TestSpaces:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            span_space([[[1.0, 0.0]], [[2.0, 0.0]]])

    def test_more_elements_than_ambient_entries_rejected(self):
        # the SVD of a 2 x 1 basis matrix has one singular value only
        with pytest.raises(ValueError, match="dependent"):
            span_space([[[1.0]], [[1.0]]])

    def test_gram_condition_reported(self):
        assert M2.gram_condition == pytest.approx(1.0)

    def test_level_norm_identity(self):
        assert level_norm(elem(M2, [1, 0, 0, 1])) == pytest.approx(1.0)

    def test_level_norm_scaled_basis(self):
        two = span_space([[[2.0]]])
        assert level_norm(elem(two, [1.0])) == pytest.approx(2.0)

    def test_level_two_block_diagonal(self):
        c = np.zeros((2, 2, 4))
        c[0, 0] = [1, 0, 0, -1]          # A at position (1,1)
        c[1, 1] = [0, 1, 1, 0]           # B at position (2,2)
        x = MatElem(M2, c)
        # block-diagonal max oracle
        assert level_norm(x) == pytest.approx(
            max(op_norm(A_DIAG), op_norm(B_FLIP)), abs=1e-12)

    def test_coeff_shape_mismatch(self):
        with pytest.raises(ValueError):
            MatElem(M2, np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("name", ["M2(R)", "complexified M2(R)",
                                      "min ell_1^2"])
    def test_stacked_membership_is_the_stack_of_single_calls(self, name):
        space = {"M2(R)": M2, "complexified M2(R)": complexify_space(M2),
                 "min ell_1^2": realize_min(ell_one(2))}[name]
        rng = np.random.default_rng(len(name))
        inside = np.einsum("nk,kpq->npq",
                           rng.standard_normal((4, space.dim)), space.basis)
        mats = np.concatenate([inside, rng.standard_normal((5,) +
                                                           space.ambient)])
        mats = mats.reshape(3, 3, *space.ambient)
        coeffs, res = space.coefficients(mats)
        contained = space.contains(mats)
        assert coeffs.shape == (3, 3, space.dim)
        assert res.shape == contained.shape == (3, 3)
        for idx in np.ndindex(3, 3):
            c, r = space.coefficients(mats[idx])
            assert np.array_equal(coeffs[idx], c)
            assert res[idx] == r
            assert contained[idx] == space.contains(mats[idx])
        assert contained.ravel()[:4].all()

    def test_coefficients_check_the_ambient(self):
        with pytest.raises(ValueError):
            M2.coefficients(np.zeros((3, 2, 3)))
        with pytest.raises(ValueError):
            M2.coefficients(np.full((2, 2), np.nan))

    def test_spaces_elements_and_maps_compare_by_identity(self):
        # array fields have no single truth value: equal content must not
        # make == raise, and every object stays hashable
        a, b = full_matrix_space(2), full_matrix_space(2)
        x, u = elem(a, [1.0, 0.0, 0.0, 1.0]), identity_map(a)
        assert a == a and a != b
        assert x == x and x != elem(a, [1.0, 0.0, 0.0, 1.0])
        assert u == u and u != identity_map(a)
        assert len({a, b, x, u}) == 4

    def test_json_round_trip(self):
        sp = opspace_from_json(opspace_to_json(M2))
        assert np.array_equal(sp.basis, M2.basis)
        x = elem(M2, [1.0, 2.0, 3.0, 4.0])
        x2 = elem_from_json(sp, elem_to_json(x))
        assert np.array_equal(x2.coeffs, x.coeffs)
        u = cbmap_from_json(cbmap_to_json(TRANSPOSE))
        assert np.array_equal(u.matrix, TRANSPOSE.matrix)


class TestComplexification:
    def test_scalar_basis_blocks(self):
        c = complexify_space(R1)
        assert c.dim == 2
        assert np.array_equal(c.basis[0], np.eye(2))
        assert np.array_equal(c.basis[1], np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_dimension_doubles(self):
        assert complexify_space(M2).dim == 8

    def test_double_complexification_rejected(self):
        with pytest.raises(ValueError):
            complexify_space(complexify_space(M2))

    def test_memoized_per_space(self):
        space = full_matrix_space(2)
        xc = complexify_space(space)
        assert complexify_space(space) is xc
        # another basis of the same span is another space
        other = complexify_space(span_space(space.basis[::-1]))
        assert other is not xc
        assert not np.array_equal(other.basis, xc.basis)
        # the memo holds spaces, never the refusal on a complexified one
        for _ in range(2):
            with pytest.raises(ValueError):
                complexify_space(xc)

    def test_extends_original_norm(self):
        x = elem(R1, [3.0])
        zero = elem(R1, [0.0])
        assert complexification_norm(R1, x, zero) == pytest.approx(3.0,
                                                                   abs=1e-12)

    def test_scalar_one_plus_i(self):
        one = elem(R1, [1.0])
        assert complexification_norm(R1, one, one) == pytest.approx(
            np.sqrt(2.0), abs=1e-12)

    def test_matches_block_assembly_oracle(self):
        x = elem(M2, [1, 0, 0, -1])
        y = elem(M2, [0, 1, 1, 0])
        expected = op_norm(assemble_complex_block(x, y))
        assert complexification_norm(M2, x, y) == pytest.approx(expected,
                                                                abs=1e-12)

    def test_conjugation_is_an_isometric_involution(self):
        rng = np.random.default_rng(3)
        xc = complexify_space(M2)
        for _ in range(200):
            n = int(rng.integers(1, 3))
            z = MatElem(xc, rng.standard_normal((n, n, 8)))
            zbar = conjugate_elem(z)
            assert np.array_equal(conjugate_elem(zbar).coeffs, z.coeffs)
            assert level_norm(zbar) == pytest.approx(level_norm(z), abs=1e-10)

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            complexification_norm(R1, elem(R1, [1.0]),
                                  MatElem(R1, np.zeros((2, 2, 1))))


class TestComplexifyMap:
    def test_identity(self):
        uc = complexify_map(identity_map(M2))
        assert np.array_equal(uc.matrix, np.eye(8))

    def test_scaling(self):
        uc = complexify_map(CBMap(M2, M2, 0.5 * np.eye(4)))
        assert np.array_equal(uc.matrix, 0.5 * np.eye(8))

    def test_restriction_to_real_part(self):
        u = CBMap(M2, M2, np.arange(16.0).reshape(4, 4))
        uc = complexify_map(u)
        x = elem(M2, [1.0, -2.0, 0.5, 3.0])
        zero = elem(M2, np.zeros((1, 1, 4)))
        zc = complexified_elem(uc.domain, x, zero)
        img = uc(zc)
        assert np.allclose(img.coeffs[:, :, :4], u(x).coeffs)
        assert np.allclose(img.coeffs[:, :, 4:], 0.0)

    def test_complete_contraction_stays_contractive(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            a /= op_norm(a)
            b = rng.standard_normal((2, 2))
            b /= op_norm(b)
            mat = np.zeros((4, 4))
            for k in range(4):
                mat[:, k], _ = M2.coefficients(a @ M2.basis[k] @ b)
            uc = complexify_map(CBMap(M2, M2, mat))
            for _ in range(20):
                z = random_elem(uc.domain, 2, rng)
                nz = level_norm(z)
                if nz < 1e-12:
                    continue
                assert level_norm(uc(z)) <= nz * (1.0 + 1e-9)


class TestRuanAxioms:
    def test_full_matrix_space_passes(self):
        rep = check_ruan_axioms(M2, max_level=3, samples=100, seed=5)
        assert rep.passed
        assert rep.direct_sum_deviation <= 1e-10
        assert rep.scalar_action_deviation <= 1e-10

    def test_complexified_space_passes(self):
        rep = check_ruan_axioms(complexify_space(M2), max_level=3,
                                samples=100, seed=5)
        assert rep.passed

    def test_requires_level_two(self):
        with pytest.raises(ValueError):
            check_ruan_axioms(M2, max_level=1)

    def test_direct_sum_and_sandwich_helpers(self):
        x = elem(M2, [1, 0, 0, 1])
        y = MatElem(M2, np.zeros((2, 2, 4)))
        assert direct_sum_elem(x, y).level == 3
        alpha = np.array([[2.0]])
        assert np.allclose(scalar_sandwich(alpha, x, alpha).coeffs,
                           4.0 * x.coeffs)


class TestCbLowerBounds:
    def test_identity_is_one(self):
        assert cb_norm_lower_search(identity_map(M2), 2, restarts=4,
                                    seed=1).value == pytest.approx(1.0,
                                                                   abs=1e-9)

    def test_scaling_is_two(self):
        u = CBMap(M2, M2, 2.0 * np.eye(4))
        assert cb_norm_lower_search(u, 3, restarts=4, seed=1).value == \
            pytest.approx(2.0, abs=1e-9)

    def test_transpose_witness(self):
        # classical witness: the element with (i, j) entry e_{ji} realizes
        # the swap, and its image has norm 2
        c = np.zeros((2, 2, 4))
        c[0, 0] = [1, 0, 0, 0]
        c[0, 1] = [0, 0, 1, 0]
        c[1, 0] = [0, 1, 0, 0]
        c[1, 1] = [0, 0, 0, 1]
        x = MatElem(M2, c)
        ratio = level_norm(TRANSPOSE(x)) / level_norm(x)
        assert ratio == pytest.approx(2.0, abs=1e-12)
        res = cb_norm_lower_search(TRANSPOSE, 2, restarts=16, seed=3)
        assert res.value >= 2.0 - 1e-6
        # stored witness reproduces its value
        w = MatElem(M2, res.witness)
        assert level_norm(TRANSPOSE(w)) / level_norm(w) == pytest.approx(
            res.value, abs=1e-9)

    def test_monotone_in_level(self):
        vals = [cb_norm_lower_search(TRANSPOSE, lvl, restarts=6, seed=9).value
                for lvl in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_nonpositive_restarts_rejected(self, restarts):
        with pytest.raises(ValueError):
            cb_norm_lower_search(TRANSPOSE, 2, restarts=restarts)

    @pytest.mark.parametrize("iters", [0, -5])
    def test_nonpositive_iters_rejected(self, iters):
        with pytest.raises(ValueError):
            cb_norm_lower_search(TRIANGULAR_MAP, 2, iters=iters)
        with pytest.raises(ValueError):
            next(cb_norm_levels(TRANSPOSE, 2, iters=iters))

    @pytest.mark.parametrize("u, restarts, iters, seed", [
        (TRANSPOSE, 6, 500, 9),            # full domain: seesaw
        (TRIANGULAR_MAP, 4, 150, 3)])      # partial domain: ratio ascent
    def test_level_sweep_matches_single_searches(self, u, restarts, iters,
                                                 seed):
        sweep = list(cb_norm_levels(u, 3, restarts, iters, seed))
        assert [res.level for res in sweep] == [1, 2, 3]
        for n, res in enumerate(sweep, start=1):
            alone = cb_norm_lower_search(u, n, restarts, iters, seed)
            assert res.value == alone.value
            assert np.array_equal(res.witness, alone.witness)
            assert res.restart_values == alone.restart_values
            assert len(res.restart_values) == restarts

    def test_partial_domain_values_are_pinned(self):
        # span{e11, e12, e22} is not all of M2(R), so the search runs the
        # lockstep ratio ascent; these are the values of the one-start-at-a-
        # time ascent it replaced
        ut = span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                         [[0, 0], [0, 1]]])
        u = CBMap(ut, ut, np.array([[1.0, 0.5, 0.0], [0.0, -1.0, 0.3],
                                    [0.2, 0.0, 0.7]]))
        res = cb_norm_lower_search(u, 2, restarts=4, iters=150, seed=3)
        assert abs(res.value - 1.3151451678597066) <= 1e-12
        assert np.allclose(res.restart_values,
                           [1.3044768657730266, 1.3119301088415292,
                            1.3147710536281525, 1.3124510329139312],
                           rtol=0, atol=1e-12)
        w = MatElem(ut, res.witness)
        assert level_norm(u(w)) / level_norm(w) == pytest.approx(
            res.value, rel=1e-12)
        # restart r depends on its own start only: more restarts extend
        # the list without reordering it
        more = cb_norm_lower_search(u, 2, restarts=6, iters=150, seed=3)
        assert more.restart_values[:4] == res.restart_values


class TestQuotientNorm:
    def test_element_inside_subspace(self):
        res = quotient_level_norm(M2, [[1, 0, 0, 0]], elem(M2, [1, 0, 0, 0]))
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.converged

    def test_one_parameter_calculus_oracle(self):
        # dist(e12, span e11): sigma_max([[ -t, 1], [0, 0]]) = sqrt(t^2+1),
        # minimized at t = 0 with value 1
        ts = np.linspace(-2, 2, 401)
        oracle = min(op_norm([[-t, 1.0], [0.0, 0.0]]) for t in ts)
        assert oracle == pytest.approx(1.0, abs=1e-12)
        res = quotient_level_norm(M2, [[1, 0, 0, 0]], elem(M2, [0, 1, 0, 0]))
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_zero_element(self):
        res = quotient_level_norm(M2, [[1, 0, 0, 0]],
                                  MatElem(M2, np.zeros((1, 1, 4))))
        assert res.value == 0.0

    def test_dependent_subspace_rejected(self):
        with pytest.raises(ValueError):
            quotient_level_norm(M2, [[1, 0, 0, 0], [2, 0, 0, 0]],
                                elem(M2, [0, 1, 0, 0]))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_value_bounded_by_level_norm_and_least_squares(self, level):
        rng = np.random.default_rng(40 + level)
        for k in (1, 2):
            s = rng.standard_normal((k, 4))
            x = MatElem(M2, rng.standard_normal((level, level, 4)))
            res = quotient_level_norm(M2, s, x)
            # the least-squares point is the solver's start
            units = np.eye(level)
            cols = [np.kron(np.outer(units[i], units[j]),
                            np.einsum("k,kpq->pq", s[l], M2.basis)).ravel()
                    for i in range(level) for j in range(level)
                    for l in range(k)]
            b = x.realization()
            t = np.linalg.lstsq(np.stack(cols, axis=1), b.ravel(),
                                rcond=None)[0]
            lsq = op_norm(b - (np.stack(cols, axis=1) @ t).reshape(b.shape))
            assert res.value <= level_norm(x) * (1 + 1e-12)
            assert res.value <= lsq * (1 + 1e-12)
            # the reported minimizer attains the value
            m = MatElem(M2, np.einsum("ijl,lk->ijk", res.minimizer, s))
            assert op_norm(x.realization() - m.realization()) == \
                pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("case", range(4))
    def test_two_parameter_dual_oracle(self, case):
        # dist(X, span{S1, S2}) in M2(R) equals max |<X, Z>| / ||Z||_1 over
        # the 2-dim annihilator of the span (operator/trace norm duality);
        # every Z gives a lower bound, so the oracle is a 1-parameter
        # search over the angle of Z, refined on dense grids
        rng = np.random.default_rng(70 + case)
        s = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        z1, z2 = np.linalg.svd(s)[2][2:].reshape(2, 2, 2)
        lo, hi = 0.0, np.pi
        for _ in range(6):
            th = np.linspace(lo, hi, 2001)
            z = (np.cos(th)[:, None, None] * z1 +
                 np.sin(th)[:, None, None] * z2)
            h = (np.abs(np.einsum("pq,tpq->t", x.reshape(2, 2), z)) /
                 np.linalg.svd(z, compute_uv=False).sum(axis=1))
            i = int(np.argmax(h))
            step = th[1] - th[0]
            lo, hi = th[i] - 2 * step, th[i] + 2 * step
        res = quotient_level_norm(M2, s, elem(M2, x))
        assert res.converged
        assert -1e-12 <= res.value - h[i] <= 1e-8

    @pytest.mark.parametrize("level", [2, 3])
    def test_inside_complexified_subspace(self, level):
        m2c = complexify_space(M2)
        rng = np.random.default_rng(90 + level)
        for k in (1, 2):
            s = rng.standard_normal((k, 8))
            t = rng.standard_normal((level, level, k))
            x = MatElem(m2c, np.einsum("ijl,lk->ijk", t, s))
            res = quotient_level_norm(m2c, s, x)
            assert res.value <= 1e-10
            assert res.converged

    def test_better_start_point_is_reported_unconverged(self, monkeypatch):
        # dist(e12, span e11): the least-squares point t = 0 is optimal; a
        # kernel returning a worse point and a weak lower bound leaves the
        # start reported, bracketed by that bound
        def worse(b_vec, k_mat, rows, cols, w0):
            return 2.0, w0 + 1.0, 0.5, np.zeros((rows, cols)), 3
        monkeypatch.setattr(opspace, "spectral_min_sdp", worse)
        res = quotient_level_norm(M2, [[1, 0, 0, 0]], elem(M2, [0, 1, 0, 0]))
        assert res.value == 1.0
        assert np.all(res.minimizer == 0.0)
        assert (res.lower, res.gap, res.converged) == (0.5, 0.5, False)
        assert res.iterations == 3

    def test_bracket_is_reported(self):
        # the certificate closes exactly on dist(e12, span e11) = 1
        res = quotient_level_norm(M2, [[1, 0, 0, 0]], elem(M2, [0, 1, 0, 0]))
        assert res.lower <= res.value
        assert res.gap == res.value - res.lower
        assert res.converged and res.iterations > 0
        inside = quotient_level_norm(M2, [[1, 0, 0, 0]],
                                     elem(M2, [2, 0, 0, 0]))
        assert (inside.lower, inside.iterations) == (0.0, 0)

    def test_two_runs_give_the_same_bits(self):
        m2c = complexify_space(M2)
        rng = np.random.default_rng(11)
        s = rng.standard_normal((2, 8))
        x = MatElem(m2c, rng.standard_normal((2, 2, 8)))
        a = quotient_level_norm(m2c, s, x)
        b = quotient_level_norm(m2c, s, x)
        assert (a.value, a.gap, a.converged, a.lower, a.iterations) == \
            (b.value, b.gap, b.converged, b.lower, b.iterations)
        assert a.minimizer.tobytes() == b.minimizer.tobytes()

    @pytest.mark.parametrize("scale", [2.0 ** 60, 2.0 ** 300, 1e20, 1e50])
    def test_scaled_element_scales_the_bracket(self, scale):
        # a start margin of 1 above a norm past 2^53 rounded away: the
        # solve started on a singular S and made no step
        x = np.array([1.0, 2.0, 3.0, 4.0])
        base = quotient_level_norm(M2, [[1, 0, 0, 0]], elem(M2, x))
        res = quotient_level_norm(M2, [[1, 0, 0, 0]], elem(M2, scale * x),
                                  tol=1e-7 * scale)
        assert res.value == pytest.approx(scale * base.value, rel=1e-9)
        assert res.lower == pytest.approx(scale * base.lower, rel=1e-9)
        assert res.converged and res.iterations > 0


def sdp_problem(space, s, x):
    """(b_vec, k_mat, rows, cols, w0) of dist(x, M_n(span s)), with the
    subspace columns built by np.kron."""
    n = x.level
    _, p, q = space.basis.shape
    units = np.eye(n)
    ys = np.einsum("lk,kpq->lpq", s, space.basis)
    k = np.stack([np.kron(np.outer(units[i], units[j]), y).ravel()
                  for i in range(n) for j in range(n) for y in ys], axis=1)
    b = x.realization().ravel()
    return b, k, n * p, n * q, np.linalg.lstsq(k, b, rcond=None)[0]


def sdp_cases():
    """Random generic cases at levels 1-3 over M2(R), its complexification
    and the minimal ell^1_2, with 1- and 2-dimensional subspaces."""
    rng = np.random.default_rng(2024)
    cases = []
    for space in (M2, complexify_space(M2), realize_min(ell_one(2))):
        for level in (1, 2, 3):
            for k in ((1,) if space.dim == 2 else (1, 2)):
                s = rng.standard_normal((k, space.dim))
                x = MatElem(space, rng.standard_normal((level, level,
                                                        space.dim)))
                cases.append(sdp_problem(space, s, x))
    return cases


SDP_CASES = sdp_cases()


class TestSpectralMinSdp:
    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_bracket_closes(self, case):
        b, k, rows, cols, w0 = SDP_CASES[case]
        value, w, lower, _, iterations = spectral_min_sdp(b, k, rows, cols,
                                                          w0)
        assert 0.0 <= lower <= value
        assert value - lower <= 1e-9
        assert iterations <= SDP_MAX_ITERS
        # the value is attained at w and never exceeds the start or w = 0
        assert op_norm((b - k @ w).reshape(rows, cols)) == value
        assert value <= op_norm((b - k @ w0).reshape(rows, cols))
        assert value <= op_norm(b.reshape(rows, cols))

    @pytest.mark.parametrize("case", range(0, len(SDP_CASES), 2))
    def test_agrees_with_smoothed_reference(self, case):
        b, k, rows, cols, w0 = SDP_CASES[case]
        value, _, lower, _, _ = spectral_min_sdp(b, k, rows, cols, w0)
        ref = smoothed_spectral_min(b, k, rows, cols, w0)[0]
        assert abs(value - ref) <= 1e-8
        assert lower <= ref

    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_lower_bound_from_independent_projection(self, case):
        # project the certificate onto the annihilator of span K through
        # least squares, then recompute |<B, Z>| / ||Z||_1
        b, k, rows, cols, w0 = SDP_CASES[case]
        _, _, lower, z, _ = spectral_min_sdp(b, k, rows, cols, w0)
        z_ann = z.ravel() - k @ np.linalg.lstsq(k, z.ravel(), rcond=None)[0]
        assert np.abs(k.T @ z_ann).max() <= 1e-12
        trace_norm = np.linalg.svd(z_ann.reshape(rows, cols),
                                   compute_uv=False).sum()
        assert abs(b @ z_ann) / trace_norm == pytest.approx(lower, rel=1e-10)

    def test_two_runs_give_the_same_bits(self):
        b, k, rows, cols, w0 = SDP_CASES[-1]
        v1, w1, lo1, z1, it1 = spectral_min_sdp(b, k, rows, cols, w0)
        v2, w2, lo2, z2, it2 = spectral_min_sdp(b, k, rows, cols, w0)
        assert (v1, lo1, it1) == (v2, lo2, it2)
        assert w1.tobytes() == w2.tobytes() and z1.tobytes() == z2.tobytes()

    def test_zero_column_solves_in_the_independent_variables(self):
        # a zero column of K would make every Schur matrix singular; the
        # solve runs over an orthonormal basis of span K instead and still
        # reaches the distance bracketed without that column
        b, k, rows, cols, w0 = SDP_CASES[0]
        _, _, lower_ref, _, _ = spectral_min_sdp(b, k, rows, cols, w0)
        k = np.concatenate([k, np.zeros((k.shape[0], 1))], axis=1)
        w0 = np.append(w0, 0.0)
        value, w, lower, _, iterations = spectral_min_sdp(b, k, rows, cols,
                                                          w0)
        assert iterations > 0
        assert op_norm((b - k @ w).reshape(rows, cols)) == value
        assert 0.0 <= lower <= value
        assert value - lower_ref <= 1e-9

    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_zero_column_keeps_the_lower_bound(self, case):
        # a zero column of K adds nothing to span K, so the certificate
        # basis must not grow and the bracket stays that of the plain case
        b, k, rows, cols, w0 = SDP_CASES[case]
        _, _, lower_ref, _, _ = spectral_min_sdp(b, k, rows, cols, w0)
        k = np.concatenate([k, np.zeros((k.shape[0], 1))], axis=1)
        _, _, lower, _, _ = spectral_min_sdp(b, k, rows, cols,
                                             np.append(w0, 0.0))
        assert abs(lower - lower_ref) <= 1e-9

    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_dependent_column_keeps_the_certificate_valid(self, case):
        # a repeated first column ahead of the others: the certificate
        # still annihilates span K, so the lower bound stays below the
        # distance (the QR diagonal alone would drop part of span K)
        b, k, rows, cols, w0 = SDP_CASES[case]
        value_ref, _, _, _, _ = spectral_min_sdp(b, k, rows, cols, w0)
        k = np.concatenate([k[:, :1], k], axis=1)
        _, _, lower, z, _ = spectral_min_sdp(b, k, rows, cols,
                                             np.append(0.0, w0))
        assert lower <= value_ref + 1e-9
        z_ann = z.ravel() - k @ np.linalg.lstsq(k, z.ravel(), rcond=None)[0]
        if lower > 0:
            trace_norm = np.linalg.svd(z_ann.reshape(rows, cols),
                                       compute_uv=False).sum()
            assert abs(b @ z_ann) / trace_norm == pytest.approx(lower,
                                                                rel=1e-9)

    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_dependent_column_keeps_the_value(self, case):
        # a repeated column: the iterate stays off the null space of K, so
        # the value is the plain case's distance and the bracket closes
        b, k, rows, cols, w0 = SDP_CASES[case]
        value_ref, _, lower_ref, _, _ = spectral_min_sdp(b, k, rows, cols, w0)
        k = np.concatenate([k[:, :1], k], axis=1)
        value, w, lower, _, _ = spectral_min_sdp(b, k, rows, cols,
                                                 np.append(0.0, w0))
        assert abs(value - value_ref) <= 1e-9
        assert 0.0 <= lower <= value
        assert value - lower <= 1e-9
        assert op_norm((b - k @ w).reshape(rows, cols)) == value

    def test_near_singular_schur_matrix_closes_the_bracket(self):
        # a level-2 element over min ell^1_2 (one of the quotient benchmark
        # inputs) whose Schur matrix turns numerically singular near the
        # optimum; ending the solve there left a bracket of 3.3e-10
        space = span_space([np.diag([1.0, 1.0]), np.diag([1.0, -1.0])])
        x = MatElem(space, np.array(
            [[[-0.2394039947734657, 0.5694527956761426],
              [-1.342791271310329, 1.5934425847531493]],
             [[1.9083746971783042, 0.09224727590776144],
              [-0.5894959610808985, 0.08126238493456549]]]))
        res = quotient_level_norm(
            space, [[-0.9154395869277606, -0.06520653368645567]], x)
        assert res.gap <= SDP_BRACKET * max(1.0, res.value)
        assert res.iterations == 7
        assert res.value == pytest.approx(1.79093773592, abs=1e-10)


class TestDirectSums:
    def test_scalar_pair(self):
        two = direct_sum_spaces([R1, R1])
        assert level_norm(elem(two, [3.0, -4.0])) == pytest.approx(4.0)

    def test_single_summand_identical(self):
        one = direct_sum_spaces([M2])
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = rng.standard_normal((2, 2, 4))
            assert level_norm(MatElem(one, c)) == pytest.approx(
                level_norm(MatElem(M2, c)), abs=1e-13)

    def test_max_of_components(self):
        dsum = direct_sum_spaces([M2, M2])
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = random_elem(M2, 2, rng)
            y = random_elem(M2, 2, rng)
            c = np.concatenate([x.coeffs, y.coeffs], axis=2)
            assert level_norm(MatElem(dsum, c)) == pytest.approx(
                max(level_norm(x), level_norm(y)), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direct_sum_spaces([])


def inline_theta_search(z_re, z_im, m_max, restarts, seed, iters=150):
    """The dual search with its own lockstep seesaw loop, as it was before
    the loop moved into ``optim.polar_seesaw``: (lower, best_m,
    restart_values, witness)."""
    z_re, z_im = np.asarray(z_re, float), np.asarray(z_im, float)
    coeffs = np.stack([z_re, z_im], axis=-1)
    best, best_m, best_w, restart_values = 0.0, 1, np.eye(1), []
    for m in range(1, min(m_max, len(z_re)) + 1):
        g = np.empty((restarts, m, m), dtype=complex)
        for r in range(restarts):
            rng = derived_rng(seed, m, r)
            g[r] = rng.standard_normal((m, m)) + \
                1j * rng.standard_normal((m, m))
        w = clip_contraction(np.concatenate(
            [np.eye(m, dtype=complex)[None], np.linalg.qr(g)[0]]))
        run_best = np.zeros(restarts + 1)
        run_w = w.copy()
        live = np.arange(restarts + 1)
        for _ in range(iters):
            u, s, vt = np.linalg.svd(
                kron_sum(coeffs, np.stack([w.real, w.imag], axis=-3)))
            prev = run_best[live]
            better = s[:, 0] > prev
            run_best[live[better]] = s[better, 0]
            run_w[live[better]] = w[better]
            keep = s[:, 0] > prev + 1e-15
            w, u, vt, live = w[keep], u[keep], vt[keep], live[keep]
            if not len(live):
                break
            grads = kron_sum_grad(coeffs, u[..., :, 0], vt[..., 0, :])
            pu, _, pvh = np.linalg.svd(grads[:, 0] + 1j * grads[:, 1])
            w = pu @ pvh
        i = int(np.argmax(run_best))
        if run_best[i] > best:
            best, best_m, best_w = float(run_best[i]), m, run_w[i]
        restart_values.extend(run_best[1:].tolist())
    return best, best_m, restart_values, best_w


THETA_FIXTURES = [
    ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], 4, 64, 0xC0FFEE),
    ([[1.0]], [[0.0]], 2, 8, 1),
    ([[0.6]], [[0.8]], 2, 8, 1),
    ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], 3, 16, 7),
    ([[0.3, -1.2], [0.5, 0.9]], [[-0.7, 0.1], [1.1, 0.4]], 3, 16, 7),
] + [(*np.random.default_rng(40 + n).standard_normal((2, n, n)), 4, 4, 3)
     for n in (1, 2, 3)]


class TestThetaDual:
    @pytest.mark.parametrize("case", range(len(THETA_FIXTURES)))
    def test_shared_seesaw_matches_the_inline_loop_bit_for_bit(self, case):
        z_re, z_im, m_max, restarts, seed = THETA_FIXTURES[case]
        res = theta_dual_search(z_re, z_im, m_max=m_max, restarts=restarts,
                                seed=seed)
        lower, best_m, values, w = inline_theta_search(z_re, z_im, m_max,
                                                       restarts, seed)
        assert (res.lower, res.best_m, res.restart_values) == \
            (lower, best_m, values)
        assert np.array_equal(res.witness_re, w.real)
        assert np.array_equal(res.witness_im, w.imag)

    def test_row_with_imaginary_entry(self):
        res = theta_dual_search([[1.0, 0.0], [0.0, 0.0]],
                                [[0.0, 1.0], [0.0, 0.0]],
                                m_max=4, restarts=64, seed=0xC0FFEE)
        assert res.lower == pytest.approx(1.0, abs=1e-6)
        assert all(v <= 1.0 + 1e-6 for v in res.restart_values)

    def test_scalar_is_isometric(self):
        assert theta_dual_search([[1.0]], [[0.0]], m_max=2, restarts=8,
                                 seed=1).lower == pytest.approx(1.0, abs=1e-9)
        assert theta_dual_search([[0.6]], [[0.8]], m_max=2, restarts=8,
                                 seed=1).lower == pytest.approx(1.0, abs=1e-6)

    def test_zero(self):
        assert theta_dual_search([[0.0]], [[0.0]], m_max=2, restarts=4,
                                 seed=1).lower == 0.0

    def test_restart_values_do_not_depend_on_the_restart_count(self):
        z = ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]])
        few = theta_dual_search(*z, m_max=4, restarts=16, seed=0xC0FFEE)
        many = theta_dual_search(*z, m_max=4, restarts=32, seed=0xC0FFEE)
        assert len(few.restart_values) == 2 * 16
        assert len(many.restart_values) == 2 * 32
        for m in range(2):
            assert few.restart_values[16 * m:16 * (m + 1)] == \
                many.restart_values[32 * m:32 * m + 16]

    @pytest.mark.parametrize("z_re, z_im", [
        ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),
        ([[0.3, -1.2], [0.5, 0.9]], [[-0.7, 0.1], [1.1, 0.4]]),
    ])
    def test_witness_is_feasible_and_reproduces_lower(self, z_re, z_im):
        res = theta_dual_search(z_re, z_im, m_max=3, restarts=16, seed=7)
        w = res.witness_re + 1j * res.witness_im
        assert w.shape == (res.best_m, res.best_m)
        assert np.linalg.svd(w, compute_uv=False)[0] <= 1.0 + 1e-12
        coeffs = np.stack([np.asarray(z_re), np.asarray(z_im)], axis=-1)
        value = op_norm(kron_sum(coeffs, np.stack([res.witness_re,
                                                   res.witness_im])))
        assert value == pytest.approx(res.lower, abs=1e-12)
        assert max(res.restart_values) <= res.lower

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -1},
                                        {"iters": 0}, {"iters": -2}])
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            theta_dual_search([[1.0]], [[0.0]], **kwargs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sizes_above_n_are_not_searched(self, n):
        # Smith's lemma: m_max beyond n gives exactly the m_max = n result
        rng = np.random.default_rng(40 + n)
        z = rng.standard_normal((2, n, n))
        capped = theta_dual_search(*z, m_max=n, restarts=4, seed=3)
        res = theta_dual_search(*z, m_max=4, restarts=4, seed=3)
        assert (res.lower, res.best_m, res.restart_values) == \
            (capped.lower, capped.best_m, capped.restart_values)
        assert np.array_equal(res.witness_re, capped.witness_re)
        assert np.array_equal(res.witness_im, capped.witness_im)
