import dataclasses

import numpy as np
import pytest

from realops import opspace, optim
from realops.linalg import clip_contraction, kron_sum, kron_sum_grad, op_norm
from realops.optim import (SDP_BRACKET, SDP_MAX_ITERS, smoothed_spectral_min,
                           spectral_min_sdp)
from realops.quantization import ell_one, realize_min
from realops.systems import op_algebra
from realops.opspace import (CBMap, MatElem, check_ruan_axioms,
                             cb_norm_levels,
                             cb_norm_lower_search, complexification_norm,
                             complexified_elem, complexify_map,
                             complexify_space, direct_sum_elem,
                             direct_sum_spaces, elem,
                             elem_from_json, full_matrix_space,
                             identity_map, level_norm, opspace_from_json,
                             opspace_to_json, quotient_level_norm,
                             random_elem, scalar_sandwich, scalar_space,
                             span_space, theta_dual_search)
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


def conjugate_elem(x):
    """Reference: the conjugate of x in M_n of a complexified space, its
    coefficients sent through the space's conjugation matrix."""
    return MatElem(x.space,
                   np.einsum("kl,ijl->ijk", x.space.conjugation, x.coeffs))


class TestSpaces:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            span_space([[[1.0, 0.0]], [[2.0, 0.0]]])

    def test_more_elements_than_ambient_entries_rejected(self):
        # the SVD of a 2 x 1 basis matrix has one singular value only
        with pytest.raises(ValueError, match="dependent"):
            span_space([[[1.0]], [[1.0]]])

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
        alg, e = op_algebra(a), ell_one(2)
        assert a == a and a != b
        assert x == x and x != elem(a, [1.0, 0.0, 0.0, 1.0])
        assert u == u and u != identity_map(a)
        assert alg == alg and alg != op_algebra(a)
        assert e == e and e != ell_one(2)
        assert len({a, b, x, u, alg, e}) == 6

    def test_json_round_trip(self):
        sp = opspace_from_json(opspace_to_json(M2))
        assert np.array_equal(sp.basis, M2.basis)
        x = elem(M2, [1.0, 2.0, 3.0, 4.0])
        x2 = elem_from_json(sp, {"level": 1,
                                 "coeffs": [[[1.0, 2.0, 3.0, 4.0]]]})
        assert np.array_equal(x2.coeffs, x.coeffs)


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

    def test_scalar_space_is_shared_and_read_only(self, monkeypatch):
        sc = scalar_space()
        assert sc is scalar_space()
        assert np.array_equal(sc.basis, [[[1.0]]])
        with pytest.raises(ValueError, match="read-only"):
            sc.basis[0, 0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.basis = np.ones((1, 1, 1))
        # its complexification is built once, then read from its memo
        xc = complexify_space(sc)

        def rebuilt(space):
            raise AssertionError("the complex scalars were built again")

        monkeypatch.setattr(opspace, "_complexified", rebuilt)
        assert complexify_space(scalar_space()) is xc

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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_nonpositive_samples_rejected(self, samples):
        # no sample would pass with deviations 0.0
        with pytest.raises(ValueError, match="samples"):
            check_ruan_axioms(M2, samples=samples)

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
        # lockstep ratio ascent; the values are those of the seeded starts
        # drawn as one array from derived_rng(3, 2)
        ut = span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                         [[0, 0], [0, 1]]])
        u = CBMap(ut, ut, np.array([[1.0, 0.5, 0.0], [0.0, -1.0, 0.3],
                                    [0.2, 0.0, 0.7]]))
        res = cb_norm_lower_search(u, 2, restarts=4, iters=150, seed=3)
        assert abs(res.value - 1.3076632843769287) <= 1e-12
        assert np.allclose(res.restart_values,
                           [1.3063138618741663, 1.3039478489960525,
                            1.3075111537992425, 1.304421355013391],
                           rtol=0, atol=1e-12)
        w = MatElem(ut, res.witness)
        assert level_norm(u(w)) / level_norm(w) == pytest.approx(
            res.value, rel=1e-12)
        # restart r depends on its own start only: more restarts extend
        # the list without reordering it
        more = cb_norm_lower_search(u, 2, restarts=6, iters=150, seed=3)
        assert more.restart_values[:4] == res.restart_values


class TestCbSweepCost:
    """What one ``cb_norm_levels`` sweep runs: one random stream per
    level, one seesaw per level on a full domain, and a polish only on the
    ratio branch."""

    def test_one_stream_per_level(self, monkeypatch):
        keys = []

        def counted(seed, *key):
            keys.append(key)
            return real(seed, *key)
        real = opspace.derived_rng
        monkeypatch.setattr(opspace, "derived_rng", counted)
        for u in (TRANSPOSE, TRIANGULAR_MAP):
            keys.clear()
            list(cb_norm_levels(u, 3, restarts=5, iters=50, seed=9))
            assert keys == [(1,), (2,), (3,)]

    def test_full_domain_runs_one_seesaw_per_level(self, monkeypatch):
        calls = []

        def counted(num, den, x0s):
            calls.append(len(x0s))
            return real(num, den, x0s)

        def forbidden(*args, **kwargs):
            raise AssertionError("ratio_ascent on a full domain")
        real = opspace.seesaw_ascent
        monkeypatch.setattr(opspace, "seesaw_ascent", counted)
        monkeypatch.setattr(opspace, "ratio_ascent", forbidden)
        sweep = list(cb_norm_levels(TRANSPOSE, 3, restarts=6, seed=9))
        # the 6 seeded starts and nothing else
        assert calls == [6, 6, 6]
        assert [len(res.restart_values) for res in sweep] == [6, 6, 6]
        assert sweep[-1].value == pytest.approx(2.0, abs=1e-9)

    def test_ratio_branch_polishes_a_new_best(self, monkeypatch):
        calls = []

        def recorded(num, den, x0s, iters=500, step0=0.5):
            vals, xs = real(num, den, x0s, iters=iters, step0=step0)
            calls.append((len(x0s), step0, float(np.max(vals))))
            return vals, xs

        def forbidden(*args, **kwargs):
            raise AssertionError("seesaw_ascent on a subspace domain")
        real = opspace.ratio_ascent
        monkeypatch.setattr(opspace, "ratio_ascent", recorded)
        monkeypatch.setattr(opspace, "seesaw_ascent", forbidden)
        sweep = list(cb_norm_levels(TRIANGULAR_MAP, 3, restarts=4,
                                    iters=150, seed=3))
        # each level's stack (the 4 seeded starts) is followed by a
        # one-row polish at step 1e-3 exactly when its best beats the
        # incumbent
        incumbent, polished = 0.0, 0
        for res in sweep:
            size, step0, best = calls.pop(0)
            assert (size, step0) == (4, 0.5)
            assert len(res.restart_values) == 4
            if best > incumbent:
                assert calls.pop(0)[:2] == (1, 1e-3)
                polished += 1
            incumbent = res.value
        assert calls == [] and polished >= 1


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

    @pytest.mark.parametrize("value, gap, converged", [
        (1e3, 1e-5, True), (1e3, 1e-3, False),
        (0.5, 5e-8, True), (0.5, 2e-7, False)])
    def test_converged_is_relative_to_the_value(self, monkeypatch, value,
                                                gap, converged):
        # the rule alone, on a solve that returns a known bracket
        def bracket(b, k, rows, cols):
            return value, np.zeros(k.shape[1]), value - gap, None, 1
        monkeypatch.setattr("realops.opspace.spectral_min_sdp", bracket)
        res = quotient_level_norm(M2, [[1, 0, 0, 0]], elem(M2, [0, 1, 0, 0]))
        assert res.gap == pytest.approx(gap, rel=1e-6)
        assert res.converged is converged

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

    @pytest.mark.parametrize("entry", [1e13, 1e16, 1e100])
    @pytest.mark.parametrize("unit", [1e200, 1.0])
    def test_large_component_inside_the_subspace_converges(self, entry,
                                                           unit):
        # dist([[e, 2], [3, 4]], span E11) = 5 for every e; a solve that
        # formed B - K w at each step lost the residual to the rounding of
        # e and stopped short of the bracket
        res = quotient_level_norm(M2, [[unit, 0, 0, 0]],
                                  elem(M2, [entry, 2.0, 3.0, 4.0]))
        assert res.converged and res.iterations > 0
        assert abs(res.value - 5.0) <= 1e-9 and res.lower <= 5.0

    @pytest.mark.parametrize("scale", [1e12, 1e50, 1e150])
    def test_scaled_component_inside_the_subspace_keeps_the_distance(
            self, scale):
        # random subspaces and elements at levels 1-3, plus a scaled member
        # of the subspace: each solve converges at the distance, up to the
        # roundoff of subtracting that member
        rng = np.random.default_rng(0)
        for trial in range(6):
            level, k = 1 + trial % 3, 1 + trial % 2
            sub = rng.standard_normal((k, 4))
            x = rng.standard_normal((level, level, 4))
            inside = np.einsum("ijl,lk->ijk",
                               rng.standard_normal((level, level, k)), sub)
            base = quotient_level_norm(M2, sub, MatElem(M2, x))
            res = quotient_level_norm(M2, sub,
                                      MatElem(M2, x + scale * inside))
            assert res.converged
            assert abs(res.value - base.value) <= \
                1e-9 * max(1.0, base.value) + \
                1e-14 * scale * np.abs(inside).max()


def sdp_problem(space, s, x):
    """(b_vec, k_mat, rows, cols, w0) of dist(x, M_n(span s)), with the
    subspace columns built by np.kron and the least-squares point w0."""
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
        value, w, lower, _, iterations = spectral_min_sdp(b, k, rows, cols)
        assert 0.0 <= lower <= value
        assert value - lower <= 1e-9
        assert iterations <= SDP_MAX_ITERS
        # the value is the norm of the residual, attained at w up to the
        # roundoff of forming B - K w, and never exceeds the start; the
        # closed bracket keeps it below the norm at w = 0
        assert abs(op_norm((b - k @ w).reshape(rows, cols)) - value) <= \
            1e-13 * max(1.0, value)
        assert value <= op_norm((b - k @ w0).reshape(rows, cols))
        assert value <= op_norm(b.reshape(rows, cols))

    @pytest.mark.parametrize("case", range(0, len(SDP_CASES), 2))
    def test_agrees_with_smoothed_reference(self, case):
        b, k, rows, cols, w0 = SDP_CASES[case]
        value, _, lower, _, _ = spectral_min_sdp(b, k, rows, cols)
        ref = smoothed_spectral_min(b, k, rows, cols, w0)[0]
        assert abs(value - ref) <= 1e-8
        assert lower <= ref

    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_lower_bound_from_independent_projection(self, case):
        # project the certificate onto the annihilator of span K through
        # least squares, then recompute |<B, Z>| / ||Z||_1
        b, k, rows, cols, _ = SDP_CASES[case]
        _, _, lower, z, _ = spectral_min_sdp(b, k, rows, cols)
        z_ann = z.ravel() - k @ np.linalg.lstsq(k, z.ravel(), rcond=None)[0]
        assert np.abs(k.T @ z_ann).max() <= 1e-12
        trace_norm = np.linalg.svd(z_ann.reshape(rows, cols),
                                   compute_uv=False).sum()
        assert abs(b @ z_ann) / trace_norm == pytest.approx(lower, rel=1e-10)

    @staticmethod
    def offset_element(eps):
        """B = 3 E11 + eps E12 - 2 E22 against K = [2 E11, -4 E22]: the
        basis of span K is exact, so the starting residual is eps E12
        exactly, of norm eps, and the least-squares point is (1.5, 0.5)."""
        k = np.zeros((4, 2))
        k[0, 0], k[3, 1] = 2.0, -4.0
        return np.array([3.0, eps, 0.0, -2.0]), k

    @pytest.mark.parametrize("eps", [2e-13, 1e-12, 5e-11, SDP_BRACKET])
    def test_closed_start_builds_nothing(self, eps, monkeypatch):
        # 0 <= distance <= eps is a closed bracket once eps <= SDP_BRACKET,
        # so the least-squares point returns before an SDP is built
        def forbidden(*args, **kwargs):
            raise AssertionError("a closed start built an SDP")

        monkeypatch.setattr(optim, "sdp_maximize", forbidden)
        monkeypatch.setattr(optim, "_lapack", forbidden)
        value, w, lower, z, iterations = spectral_min_sdp(
            *self.offset_element(eps), 2, 2)
        assert (value, lower, iterations) == (eps, 0.0, 0)
        assert np.array_equal(w, [1.5, 0.5])
        assert np.array_equal(z, np.zeros((2, 2)))

    def test_overflowing_start_is_never_closed(self):
        # the starting residual's norm overflows to inf, and
        # inf - 0 <= SDP_BRACKET * inf holds: only the rule's finiteness
        # test keeps it from coming back as a closed bracket
        k = np.zeros((4, 1))
        k[0, 0] = 1.0
        with pytest.raises(ValueError, match="finite"):
            spectral_min_sdp(np.array([0.0, 1.7e308, 1.7e308, 1.7e308]), k,
                             2, 2)

    def test_start_just_above_the_bracket_steps(self, monkeypatch):
        real, calls = optim.sdp_maximize, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(optim, "sdp_maximize", counted)
        eps = np.nextafter(SDP_BRACKET, 1.0)
        value, _, lower, _, iterations = spectral_min_sdp(
            *self.offset_element(eps), 2, 2)
        assert calls == [1] and iterations >= 1
        assert 0.0 < lower <= value and value - lower <= SDP_BRACKET

    def test_two_runs_give_the_same_bits(self):
        b, k, rows, cols, _ = SDP_CASES[-1]
        v1, w1, lo1, z1, it1 = spectral_min_sdp(b, k, rows, cols)
        v2, w2, lo2, z2, it2 = spectral_min_sdp(b, k, rows, cols)
        assert (v1, lo1, it1) == (v2, lo2, it2)
        assert w1.tobytes() == w2.tobytes() and z1.tobytes() == z2.tobytes()

    def test_zero_column_solves_in_the_independent_variables(self):
        # a zero column of K would make every Schur matrix singular; the
        # solve runs over an orthonormal basis of span K instead and still
        # reaches the distance bracketed without that column
        b, k, rows, cols, _ = SDP_CASES[0]
        _, _, lower_ref, _, _ = spectral_min_sdp(b, k, rows, cols)
        k = np.concatenate([k, np.zeros((k.shape[0], 1))], axis=1)
        value, w, lower, _, iterations = spectral_min_sdp(b, k, rows, cols)
        assert iterations > 0
        assert abs(op_norm((b - k @ w).reshape(rows, cols)) - value) <= \
            1e-13 * max(1.0, value)
        assert 0.0 <= lower <= value
        assert value - lower_ref <= 1e-9

    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_zero_column_keeps_the_lower_bound(self, case):
        # a zero column of K adds nothing to span K, so the certificate
        # basis must not grow and the bracket stays that of the plain case
        b, k, rows, cols, _ = SDP_CASES[case]
        _, _, lower_ref, _, _ = spectral_min_sdp(b, k, rows, cols)
        k = np.concatenate([k, np.zeros((k.shape[0], 1))], axis=1)
        _, _, lower, _, _ = spectral_min_sdp(b, k, rows, cols)
        assert abs(lower - lower_ref) <= 1e-9

    @pytest.mark.parametrize("case", range(len(SDP_CASES)))
    def test_dependent_column_keeps_the_certificate_valid(self, case):
        # a repeated first column ahead of the others: the certificate
        # still annihilates span K, so the lower bound stays below the
        # distance (the QR diagonal alone would drop part of span K)
        b, k, rows, cols, _ = SDP_CASES[case]
        value_ref, _, _, _, _ = spectral_min_sdp(b, k, rows, cols)
        k = np.concatenate([k[:, :1], k], axis=1)
        _, _, lower, z, _ = spectral_min_sdp(b, k, rows, cols)
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
        b, k, rows, cols, _ = SDP_CASES[case]
        value_ref, _, lower_ref, _, _ = spectral_min_sdp(b, k, rows, cols)
        k = np.concatenate([k[:, :1], k], axis=1)
        value, w, lower, _, _ = spectral_min_sdp(b, k, rows, cols)
        assert abs(value - value_ref) <= 1e-9
        assert 0.0 <= lower <= value
        assert value - lower <= 1e-9
        assert abs(op_norm((b - k @ w).reshape(rows, cols)) - value) <= \
            1e-13 * max(1.0, value)

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

    def test_complexified_level_3_closes_the_bracket(self):
        # a level-3 element over complexified M2 with a 2-dimensional
        # subspace (one of the quotient benchmark inputs): solved in the
        # original variables from a start off span K, the solve stalled at
        # a bracket of 2.0e-9, above its target of 4.2e-10
        s = [[1.2639783784119072, -0.48194172618804504, -0.29505837061197193,
              -1.207361254035289, 1.5604591787975008, -0.15584496765817893,
              -0.06939982121279123, 0.4662382639842252],
             [0.7341787446814473, -0.6274788066783457, 1.1391938569635722,
              0.5146873780583492, -0.5326046743462766, 0.9033670490656569,
              -0.3970951553546011, -0.18606560434391972]]
        x = MatElem(complexify_space(M2), np.array(
            [[[1.006501957974423, -0.43698954792496225, 0.17854595475915366,
               0.45051986977523406, -0.17660155989912388, -1.2136568551336733,
               0.842134194062607, 1.068058479658603],
              [0.09868994950130391, 1.401320023509849, 1.2566501887836528,
               -0.4205699595472887, -0.47588116389488894, 0.14665823195103667,
               -0.1649673954971583, 1.3255237375110027],
              [-0.7709337792051465, -0.9726960265248644, 0.830727890694291,
               1.1135351870355172, -0.3415792032131599, 0.7309428057141073,
               0.2809794862468545, -1.6881479540588145]],
             [[0.5497089638066428, -0.020210579373752473, -1.3087781369405582,
               -0.8605850818414287, -0.727174754596723, 0.9581556745983928,
               -1.2976870952963426, 0.2481757001289006],
              [-0.08841889970150267, 1.2998840879392521, -0.2542417596973497,
               1.9436984198818168, -0.6627251964493575, -1.5194896776106308,
               0.06001131781720065, -0.6398625065354677],
              [0.9810803507544387, -0.0398745731859922, 0.1779195972934566,
               0.8490263242301378, 0.021752523867883237, 0.13367300071509977,
               0.26234829856990394, -0.2659022496979242]],
             [[0.9932483492593556, -1.20391121312063, 0.7156108686445107,
               1.0142163203583077, 0.8027426239459163, -0.4244647433822609,
               -0.4691088351442369, -0.9880685046391029],
              [0.8468134307609232, -0.3522794301331686, 1.7781894413045036,
               2.004005899128864, -1.1774256871381368, -1.380316373069735,
               1.39237031607903, 0.15095574554391872],
              [-1.4034267725605456, -1.087543021468851, -0.23725716422436896,
               1.0250687804384115, -0.8831296385941795, 0.17477661749745899,
               -1.7360807131365172, -0.5830533249424614]]]))
        res = quotient_level_norm(complexify_space(M2), s, x)
        assert res.gap <= SDP_BRACKET * max(1.0, res.value)
        assert res.value == pytest.approx(4.23198481196, abs=1e-10)

    @staticmethod
    def workload_mix(rng):
        """The 36 (space, subspace, element, kind, pair) solves of one pass
        of the quotient benchmark: over levels 1-3, generic elements of M2,
        complexified M2 and min ell^1_2, real/complexified pairs, and
        elements inside the subspace."""
        spaces = {"m2": M2, "m2c": complexify_space(M2),
                  "l1min": span_space([np.diag([1.0, 1.0]),
                                       np.diag([1.0, -1.0])])}
        cases, pair = [], 0
        for level in (1, 2, 3):
            for name, dims in (("m2", (1, 2)), ("m2c", (1, 2)),
                               ("l1min", (1,))):
                d = spaces[name].dim
                for k in dims:
                    sub = rng.standard_normal((k, d))
                    x = rng.standard_normal((level, level, d))
                    cases.append((spaces[name], sub, x, "generic", None))
            for k in (1, 2):
                sub = rng.standard_normal((k, 4))
                x = rng.standard_normal((level, level, 4))
                sub_c = np.zeros((2 * k, 8))
                sub_c[:k, :4] = sub
                sub_c[k:, 4:] = sub
                x_c = np.concatenate([x, np.zeros_like(x)], axis=2)
                cases.append((M2, sub, x, "pair", pair))
                cases.append((spaces["m2c"], sub_c, x_c, "pair", pair))
                pair += 1
            for name, k in (("m2", 2), ("m2c", 1), ("l1min", 1)):
                sub = rng.standard_normal((k, spaces[name].dim))
                t = rng.standard_normal((level, level, k))
                cases.append((spaces[name], sub,
                              np.einsum("ijl,lk->ijk", t, sub), "inside",
                              None))
        return cases

    @pytest.mark.parametrize("seed", [0, 1])
    def test_workload_mix_closes_every_bracket(self, seed):
        # every solve of two draws of the benchmark's request mix reaches
        # its bracket target, so a step that stalls short of it on these
        # inputs fails here rather than only in the benchmark
        pairs = {}
        for space, sub, coeffs, kind, pair in self.workload_mix(
                np.random.default_rng(seed)):
            x = MatElem(space, coeffs)
            res = quotient_level_norm(space, sub, x)
            assert res.gap <= SDP_BRACKET * max(1.0, res.value)
            assert res.converged
            assert res.value <= level_norm(x) * (1.0 + 1e-12)
            if kind == "inside":
                assert res.value <= 1e-9
            if pair is not None:
                pairs.setdefault(pair, []).append(res.value)
        assert len(pairs) == 6
        for real, cplx in pairs.values():
            assert abs(real - cplx) <= 1e-9


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


def inline_theta_search(z_re, z_im, sizes, restarts, seed, iters=150):
    """The dual search with its own lockstep seesaw loop over the given
    test sizes m, as it was before the loop moved into
    ``optim.polar_seesaw`` and the search ran at m = n only: (lower,
    restart_values, witness).  The starts of size m come from the one
    stream ``derived_rng(seed, m)``, restart after restart, real part
    first, one matrix per draw, and are the only starts."""
    z_re, z_im = np.asarray(z_re, float), np.asarray(z_im, float)
    coeffs = np.stack([z_re, z_im], axis=-1)
    best, best_w, restart_values = 0.0, np.eye(1), []
    for m in sizes:
        g = np.empty((restarts, m, m), dtype=complex)
        rng = derived_rng(seed, m)
        for r in range(restarts):
            g[r] = rng.standard_normal((m, m)) + \
                1j * rng.standard_normal((m, m))
        w = clip_contraction(np.linalg.qr(g)[0])
        run_best = np.zeros(restarts)
        run_w = w.copy()
        live = np.arange(restarts)
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
            best, best_w = float(run_best[i]), run_w[i]
        restart_values.extend(run_best.tolist())
    return best, restart_values, best_w


THETA_FIXTURES = [
    ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], 64, 0xC0FFEE),
    ([[1.0]], [[0.0]], 8, 1),
    ([[0.6]], [[0.8]], 8, 1),
    ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], 16, 7),
    ([[0.3, -1.2], [0.5, 0.9]], [[-0.7, 0.1], [1.1, 0.4]], 16, 7),
] + [(*np.random.default_rng(40 + n).standard_normal((2, n, n)), 4, 3)
     for n in (1, 2, 3)]

#: random blocks at n = 2, 3, 4, with 16 restarts each
THETA_RANDOM = [(*np.random.default_rng(60 + k).standard_normal((2, n, n)),
                 16, k) for n in (2, 3, 4) for k in range(4)]


class TestThetaDual:
    @pytest.mark.parametrize("case", range(len(THETA_FIXTURES)))
    def test_shared_seesaw_matches_the_inline_loop_bit_for_bit(self, case):
        z_re, z_im, restarts, seed = THETA_FIXTURES[case]
        res = theta_dual_search(z_re, z_im, restarts=restarts, seed=seed)
        n = len(z_re)
        lower, values, w = inline_theta_search(
            z_re, z_im, [n], restarts, seed, iters=optim.SEESAW_ROUNDS)
        assert (res.lower, res.restart_values) == (lower, values)
        assert np.array_equal(res.witness_re, w.real)
        assert np.array_equal(res.witness_im, w.imag)

    @pytest.mark.parametrize("case", range(len(THETA_FIXTURES) +
                                           len(THETA_RANDOM)))
    def test_never_below_the_search_over_every_size(self, case):
        # Smith's lemma: a test matrix of size m < n, padded with zeros, is
        # a contraction of size n, so the one size n loses nothing against
        # the old search over m = 1..n with 150 rounds
        z_re, z_im, restarts, seed = (THETA_FIXTURES + THETA_RANDOM)[case]
        n = len(z_re)
        lower = theta_dual_search(z_re, z_im, restarts=restarts,
                                  seed=seed).lower
        ref = inline_theta_search(z_re, z_im, range(1, n + 1), restarts,
                                  seed)[0]
        assert lower >= ref - 1e-12 * max(1.0, ref)

    def test_row_with_imaginary_entry(self):
        res = theta_dual_search([[1.0, 0.0], [0.0, 0.0]],
                                [[0.0, 1.0], [0.0, 0.0]],
                                restarts=64, seed=0xC0FFEE)
        assert res.lower == pytest.approx(1.0, abs=1e-6)
        assert all(v <= 1.0 + 1e-6 for v in res.restart_values)

    def test_scalar_is_isometric(self):
        assert theta_dual_search([[1.0]], [[0.0]], restarts=8,
                                 seed=1).lower == pytest.approx(1.0, abs=1e-9)
        assert theta_dual_search([[0.6]], [[0.8]], restarts=8,
                                 seed=1).lower == pytest.approx(1.0, abs=1e-6)

    def test_zero(self):
        # the seesaw retires a zero realization at once
        for z in ([[0.0]], np.zeros((2, 2))):
            res = theta_dual_search(z, z, restarts=4, seed=1)
            assert res.lower == 0.0 and res.restart_values == [0.0] * 4

    def test_restart_values_do_not_depend_on_the_restart_count(self):
        z = ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]])
        few = theta_dual_search(*z, restarts=16, seed=0xC0FFEE)
        many = theta_dual_search(*z, restarts=32, seed=0xC0FFEE)
        assert len(few.restart_values) == 16
        assert len(many.restart_values) == 32
        assert few.restart_values == many.restart_values[:16]

    @pytest.mark.parametrize("z_re, z_im", [
        ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),
        ([[0.3, -1.2], [0.5, 0.9]], [[-0.7, 0.1], [1.1, 0.4]]),
    ])
    def test_witness_is_feasible_and_reproduces_lower(self, z_re, z_im):
        res = theta_dual_search(z_re, z_im, restarts=16, seed=7)
        w = res.witness_re + 1j * res.witness_im
        assert w.shape == (2, 2)
        assert np.linalg.svd(w, compute_uv=False)[0] <= 1.0 + 1e-12
        coeffs = np.stack([np.asarray(z_re), np.asarray(z_im)], axis=-1)
        value = op_norm(kron_sum(coeffs, np.stack([res.witness_re,
                                                   res.witness_im])))
        assert value == pytest.approx(res.lower, abs=1e-12)
        assert max(res.restart_values) <= res.lower

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"restarts": -1}, {"z_im": [[0.0, 1.0]]},
        {"z_re": [[1.0, 0.0]], "z_im": [[0.0, 0.0]]}])
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            theta_dual_search(**{"z_re": [[1.0]], "z_im": [[0.0]], **kwargs})
