import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from realops import opspace, optim, quantization, suites
from realops.linalg import clip_contraction, kron_sum, op_norm
from realops.opspace import elem, level_norm, random_elem
from realops.quantization import (PAIR_A, PAIR_B, BanachSpace,
                                  banach_from_json, ell_infty, ell_one,
                                  max_l1_norm_bounds,
                                  min_complexification_check, min_level_norm,
                                  realize_min, reproduce_l12_nonuniqueness,
                                  w2_complex_norm)

L_INF = ell_infty(2)
L_ONE = ell_one(2)
HEXAGON = BanachSpace(2, [[1.0, 0.0], [0.5, 1.0], [-0.5, 1.0]])


def min_norm_oracle(space, c):
    """Per-functional SVD oracle, independent of the library path."""
    best = 0.0
    for f in space.representatives:
        best = max(best, op_norm(np.tensordot(c, f, axes=([2], [0]))))
    return best


class TestBanachSpace:
    def test_norms(self):
        assert L_INF.norm([3, -4]) == 4.0
        assert L_ONE.norm([3, -4]) == 7.0

    def test_functionals_symmetrized(self):
        e = BanachSpace(2, [[1.0, 0.0], [0.0, 1.0]])
        assert e.functionals.shape == (4, 2)
        assert any(np.array_equal(f, [-1.0, 0.0]) for f in e.functionals)

    def test_dedup_up_to_sign(self):
        e = BanachSpace(2, [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        assert e.representatives.shape == (2, 2)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            BanachSpace(2, [[1.0, 0.0], [-1.0, 0.0]])

    def test_json_round_trip(self):
        e = banach_from_json({"dim": 2, "functionals": [[1.0, 1.0],
                                                        [1.0, -1.0]]})
        assert np.array_equal(e.representatives, L_ONE.representatives)


class TestMinLevelNorm:
    def test_level_one_ell_inf(self):
        assert min_level_norm(L_INF, np.array([3.0, -4.0])) == 4.0

    def test_witness_pair_is_sqrt_two(self):
        element = np.stack([PAIR_A, PAIR_B], axis=-1)
        # max{|A+B|, |A-B|} computed directly
        direct = max(op_norm(PAIR_A + PAIR_B), op_norm(PAIR_A - PAIR_B))
        assert direct == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert min_level_norm(L_ONE, element) == pytest.approx(
            np.sqrt(2.0), abs=1e-12)

    def test_identity_and_unit_over_ell_inf(self):
        element = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])],
                           axis=-1)
        assert min_level_norm(L_INF, element) == pytest.approx(
            min_norm_oracle(L_INF, element), abs=1e-14)
        assert min_level_norm(L_INF, element) == pytest.approx(1.0, abs=1e-12)

    def test_level_one_extends_banach_norm(self):
        rng = np.random.default_rng(4)
        for sp in (L_INF, L_ONE, HEXAGON):
            for _ in range(50):
                v = rng.standard_normal(2)
                assert min_level_norm(sp, v.reshape(1, 1, 2)) == \
                    pytest.approx(sp.norm(v), abs=1e-12)


class TestRealizeMin:
    def test_ell_inf_basis(self):
        xs = realize_min(L_INF)
        assert np.array_equal(xs.basis[0], np.diag([1.0, 0.0]))
        assert np.array_equal(xs.basis[1], np.diag([0.0, 1.0]))

    def test_ell_one_basis(self):
        xs = realize_min(L_ONE)
        assert np.array_equal(xs.basis[0], np.diag([1.0, 1.0]))
        assert np.array_equal(xs.basis[1], np.diag([1.0, -1.0]))

    def test_realization_matches_dual_formula(self):
        rng = np.random.default_rng(5)
        for sp in (L_INF, L_ONE):
            xs = realize_min(sp)
            for _ in range(100):
                n = int(rng.integers(1, 4))
                c = rng.standard_normal((n, n, 2))
                assert level_norm(elem(xs, c)) == pytest.approx(
                    min_level_norm(sp, c), abs=1e-12)


class TestW2Norm:
    def test_three_four_five(self):
        r = BanachSpace(1, [[1.0]])
        assert w2_complex_norm(r, [3.0], [4.0]) == pytest.approx(5.0)

    def test_zero_imaginary_part(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal(2)
            assert w2_complex_norm(L_ONE, x, np.zeros(2)) == pytest.approx(
                L_ONE.norm(x), abs=1e-14)

    def test_unit_cross_pair(self):
        assert w2_complex_norm(L_INF, [1.0, 0.0], [0.0, 1.0]) == \
            pytest.approx(1.0)

    def test_even_in_y(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert w2_complex_norm(L_ONE, x, y) == \
                w2_complex_norm(L_ONE, x, -y)

    def test_no_overflow_below_the_largest_float(self):
        # sqrt(2) * 1e308 is a float, but the square of 1e308 is not
        assert w2_complex_norm(L_INF, [1e308, 1e308], [1e308, 1.0]) == \
            pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)

    @pytest.mark.parametrize("x, y", [
        ([np.nan, 1.0], [0.0, 0.0]), ([1.0, 0.0], [np.inf, 0.0]),
        ([1.0, 2.0, 3.0], [0.0, 0.0]), ([1.0, 0.0], [0.0])])
    def test_non_finite_or_misshapen_vectors_rejected(self, x, y):
        with pytest.raises(ValueError, match="finite numbers"):
            w2_complex_norm(L_ONE, x, y)


class TestMinComplexification:
    @pytest.mark.parametrize("space", [BanachSpace(1, [[1.0]]), L_INF, L_ONE,
                                       HEXAGON],
                             ids=["scalars", "ell_inf", "ell_one", "hexagon"])
    def test_agreement(self, space):
        assert min_complexification_check(space) == 0.0

    def test_level_norms_match_the_dual_formula(self):
        # what the exact basis match implies, checked on sampled norms
        xc = opspace.complexify_space(realize_min(HEXAGON))
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            x, y = rng.standard_normal((2, n, n, 2))
            via_dual = max(op_norm(np.block([[x @ f, -(y @ f)],
                                             [y @ f, x @ f]]))
                           for f in HEXAGON.representatives)
            assert level_norm(elem(xc, np.concatenate([x, y], axis=2))) == \
                pytest.approx(via_dual, abs=1e-12)

    def test_negated_imaginary_half_is_caught(self, monkeypatch):
        def conjugated(space):
            b = opspace.complexify_space(space).basis
            d = space.dim
            return opspace.OpSpace(np.concatenate([b[:d], -b[d:]]))
        monkeypatch.setattr(quantization, "complexify_space", conjugated)
        assert min_complexification_check(L_ONE) > 0.0

    @pytest.mark.parametrize("fault", ["sign", "order"])
    def test_realization_off_the_functionals_is_caught(self, monkeypatch,
                                                       fault):
        # level norms are unchanged by either fault; the check reads the
        # functionals, not the realization it tests
        real = quantization.realize_min

        def faulty(space):
            b = real(space).basis.copy()
            if fault == "sign":
                b[:, 0, 0] *= -1
            else:
                b = b[:, ::-1, ::-1]
            return opspace.OpSpace(b)
        monkeypatch.setattr(quantization, "realize_min", faulty)
        assert min_complexification_check(HEXAGON) > 0.0


class TestMaxL1:
    def test_single_matrix(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 2))
        res = max_l1_norm_bounds([a])
        assert res.lower == pytest.approx(op_norm(a), abs=1e-9)
        assert res.upper == pytest.approx(op_norm(a), abs=1e-12)

    def test_scalars_reach_l1_norm(self):
        res = max_l1_norm_bounds([[[0.7]], [[-0.3]]])
        assert res.lower == pytest.approx(1.0, abs=1e-12)
        assert res.upper == pytest.approx(1.0, abs=1e-12)

    def test_witness_pair(self):
        # the tuple (A, B) itself witnesses the lower bound 2
        direct = op_norm(np.kron(PAIR_A, PAIR_A) + np.kron(PAIR_B, PAIR_B))
        assert direct == pytest.approx(2.0, abs=1e-12)
        res = max_l1_norm_bounds([PAIR_A, PAIR_B])
        assert res.lower >= 2.0 - 1e-6
        assert res.upper == pytest.approx(2.0, abs=1e-12)

    def test_huge_entries_scale_exactly(self):
        # the search runs on the tuple scaled by a power of two, so the
        # squares of entries near 1e181 do not overflow and the result
        # is the unscaled one scaled back exactly
        base = max_l1_norm_bounds([PAIR_A, PAIR_B])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = max_l1_norm_bounds([2.0 ** 600 * PAIR_A,
                                      2.0 ** 600 * PAIR_B])
        assert big.lower == math.ldexp(base.lower, 600)
        assert big.upper == math.ldexp(base.upper, 600)
        for w, w0 in zip(big.witness, base.witness):
            assert np.array_equal(w, w0)

    def test_bracket_is_ordered(self):
        # the lower bound is not clipped: only roundoff may invert it
        rng = np.random.default_rng(9)
        for _ in range(5):
            mats = [rng.standard_normal((2, 2)) for _ in range(2)]
            res = max_l1_norm_bounds(mats)
            assert res.lower <= res.upper + 1e-12 * max(1.0, res.upper)

    def test_bracket_closes(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            mats = [rng.standard_normal((2, 2)) for _ in range(2)]
            res = max_l1_norm_bounds(mats)
            assert res.upper - res.lower <= 1e-9 * max(1.0, res.upper)

    def test_witness_is_feasible_and_reproduces_lower(self):
        res = max_l1_norm_bounds([PAIR_A, PAIR_B])
        assert len(res.witness) == 2
        for w in res.witness:
            assert w.shape == (2, 2)
            assert op_norm(w) <= 1.0 + 1e-12
        coeffs = np.stack([PAIR_A, PAIR_B], axis=-1)
        value = op_norm(kron_sum(coeffs, np.stack(res.witness)))
        assert min(value, res.upper) == pytest.approx(res.lower, abs=1e-12)

    def test_random_tuples_give_feasible_witnesses(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            mats = [rng.standard_normal((2, 2)) for _ in range(3)]
            res = max_l1_norm_bounds(mats)
            assert all(op_norm(w) <= 1.0 + 1e-12 for w in res.witness)
            value = op_norm(kron_sum(np.stack(mats, axis=-1),
                                     np.stack(res.witness)))
            assert min(value, res.upper) == pytest.approx(res.lower,
                                                          abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"coeff_mats": [np.ones((2, 3))]}, {"coeff_mats": [[1.0, 2.0]]},
        {"coeff_mats": []}, {"coeff_mats": [PAIR_A, np.eye(3)]}])
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            max_l1_norm_bounds(**{"coeff_mats": [PAIR_A, PAIR_B], **kwargs})

    @pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_sizes_above_n_are_not_searched(self, n, d):
        # Smith's lemma: the cb norm of a map into M_n is reached at level
        # n, so the SDP works at test size m = n
        rng = np.random.default_rng(30 + n)
        mats = [rng.standard_normal((n, n)) for _ in range(d)]
        res = max_l1_norm_bounds(mats)
        assert all(w.shape == (n, n) for w in res.witness)
        assert res.upper - res.lower <= 1e-10 * max(1.0, res.upper)

    @pytest.mark.parametrize("case", range(19))
    def test_bracket_is_relative_at_every_scale(self, case):
        # the tuple is scaled to max ||a_k|| in [1, 2) before the SDP, so
        # its stopping rule is relative however small or large the a_k
        mats = (random_tuples() + [[PAIR_A, PAIR_B], [[[0.7]], [[-0.3]]],
                                   [PAIR_A, np.zeros((2, 2))]])[case]
        base = max_l1_norm_bounds(mats)
        for s in (1e-300, 1e-12, 1e-6, 1e200):
            res = max_l1_norm_bounds([s * np.asarray(a) for a in mats])
            assert res.upper - res.lower <= 1e-10 * res.upper
            assert res.lower == pytest.approx(s * base.lower, rel=1e-9)
        for k in (600, -600):
            res = max_l1_norm_bounds([math.ldexp(1.0, k) * np.asarray(a)
                                      for a in mats])
            assert res.lower == math.ldexp(base.lower, k)
            assert res.upper == math.ldexp(base.upper, k)
            assert res.certificate[0] == res.upper
            for got, want in zip(res.certificate[1:], base.certificate[1:]):
                assert np.array_equal(got, np.ldexp(want, k))
            assert all(np.array_equal(w, v)
                       for w, v in zip(res.witness, base.witness))


def certificate_defect(mats, res):
    """(PSD defect of the blocks, excess of sum X_k and sum Y_k over t I),
    both relative to t, recomputed by an independent eigvalsh."""
    t, xs, ys = res.certificate
    assert t == res.upper
    psd = 0.0
    for a, x, y in zip(mats, xs, ys):
        block = np.block([[x, a], [a.T, y]])
        psd = max(psd, -np.linalg.eigvalsh((block + block.T) / 2)[0])
    excess = max(np.linalg.eigvalsh(sum(xs))[-1],
                 np.linalg.eigvalsh(sum(ys))[-1]) - t
    return psd / t, excess / t


def random_tuples():
    """Four random tuples at each n = 2, 3 and d = 2, 3."""
    rng = np.random.default_rng(0)
    return [[rng.standard_normal((n, n)) for _ in range(d)]
            for n in (2, 3) for d in (2, 3) for _ in range(4)]


def triangle(mats, lower):
    """A stand-in for ``_haagerup_sdp`` that takes no step: the triangle
    bound sum ||a_k||, certified at X_k = Y_k = ||a_k|| I."""
    xs = np.stack([op_norm(a) * np.eye(len(a)) for a in mats])
    return (float(sum(op_norm(a) for a in mats)), xs, xs.copy()), lower, \
        None, 0


def polar_start(mats):
    """The first witness of ``max_l1_norm_bounds``: the polar factors of
    the a_k, clipped to contractions."""
    u, _, vt = np.linalg.svd(np.stack(mats))
    return clip_contraction(u @ vt)


class TestSeesawSearch:
    def test_no_matrix_exponential(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the max-l1 search took an expm")
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        res = max_l1_norm_bounds([PAIR_A, PAIR_B])
        assert res.lower >= 2.0 - 1e-12
        max_l1_norm_bounds(random_tuples()[5])

    # exact values, so that a search change that moves the bracket shows:
    # the polar start (A, B) is the witness and meets the triangle bound 2,
    # so the SDP takes no step
    def test_witness_pair_values_are_pinned(self):
        rep = reproduce_l12_nonuniqueness()
        assert rep.max_lower == 2.0
        assert rep.max_upper == 2.0
        assert rep.gap == 2.0 - rep.min_norm
        assert rep.sdp_iterations == 0

    @pytest.mark.parametrize("case", range(17))
    def test_search_witnesses_are_contractions(self, case, monkeypatch):
        # with the SDP reduced to the triangle bound, the reported witness
        # is the clipped polar start, and the lower bound its value
        monkeypatch.setattr(quantization, "_haagerup_sdp", triangle)
        mats = (random_tuples() + [[PAIR_A, PAIR_B]])[case]
        res = max_l1_norm_bounds(mats)
        assert np.allclose(res.witness, polar_start(mats), rtol=0,
                           atol=1e-14)
        assert all(np.linalg.svd(w, compute_uv=False)[0] <= 1.0 + 1e-12
                   for w in res.witness)
        value = op_norm(kron_sum(np.stack(mats, axis=-1),
                                 np.stack(res.witness)))
        assert value == pytest.approx(res.lower, rel=1e-13)

    def test_sdp_stopped_early_leaves_a_valid_open_bracket(self,
                                                           monkeypatch):
        # the 7th inverse Cholesky factor (X of step 4) fails, so the SDP
        # ends after three steps with its bracket open; nothing polishes
        # its best tuple, and both sides stay certified
        mats = random_tuples()[5]
        closed = max_l1_norm_bounds(mats)
        real, calls = optim._inv_cholesky, []

        def failing(m):
            calls.append(1)
            if len(calls) == 7:
                raise np.linalg.LinAlgError("matrix is not positive definite")
            return real(m)

        monkeypatch.setattr(optim, "_inv_cholesky", failing)
        res = max_l1_norm_bounds(mats)
        assert len(calls) == 7 and res.sdp_iterations == 3
        assert res.upper - res.lower > 1e-10 * max(1.0, res.upper)
        assert res.lower <= closed.upper and closed.lower <= res.upper
        psd, excess = certificate_defect(mats, res)
        assert psd <= 1e-12 and excess <= 1e-12
        assert all(np.linalg.svd(w, compute_uv=False)[0] <= 1.0 + 1e-12
                   for w in res.witness)
        coeffs = np.stack(mats, axis=-1)
        value = op_norm(kron_sum(coeffs, np.stack(res.witness)))
        assert value == pytest.approx(res.lower, rel=1e-13)
        start = op_norm(kron_sum(coeffs, polar_start(mats)))
        assert res.lower >= start * (1.0 - 1e-13)


class TestHaagerupCertificate:
    @pytest.mark.parametrize("case", range(16))
    def test_random_tuples_close_with_a_valid_certificate(self, case):
        mats = random_tuples()[case]
        res = max_l1_norm_bounds(mats)
        assert res.upper - res.lower <= 1e-10 * max(1.0, res.upper)
        assert res.upper < sum(op_norm(a) for a in mats)
        assert res.sdp_iterations > 0
        psd, excess = certificate_defect(mats, res)
        assert psd <= 1e-12 and excess <= 1e-12
        # the lower bound is witnessed at test size n
        assert all(w.shape == mats[0].shape and op_norm(w) <= 1.0 + 1e-12
                   for w in res.witness)
        value = op_norm(kron_sum(np.stack(mats, axis=-1),
                                 np.stack(res.witness)))
        assert value == pytest.approx(res.lower, abs=1e-12)

    def test_witness_pair_needs_no_solve(self):
        res = max_l1_norm_bounds([PAIR_A, PAIR_B])
        assert abs(res.upper - 2.0) <= 1e-12
        assert res.sdp_iterations == 0
        assert certificate_defect([PAIR_A, PAIR_B], res) == (0.0, 0.0)

    def test_closed_start_builds_no_sdp(self, monkeypatch):
        # the polar start (A, B) meets the triangle bound 2, so the bracket
        # is closed before an SDP is built, and the certificate is the
        # triangle one, X_k = Y_k = ||a_k|| I
        def forbidden(*args, **kwargs):
            raise AssertionError("a closed start built an SDP")

        for module in (optim, quantization):
            monkeypatch.setattr(module, "sdp_maximize", forbidden)
        monkeypatch.setattr(optim, "_lapack", forbidden)
        res = max_l1_norm_bounds([PAIR_A, PAIR_B])
        assert (res.lower, res.upper, res.sdp_iterations) == (2.0, 2.0, 0)
        t, xs, ys = res.certificate
        eyes = np.stack([op_norm(a) * np.eye(2) for a in (PAIR_A, PAIR_B)])
        assert t == 2.0
        assert np.array_equal(xs, eyes) and np.array_equal(ys, eyes)

    def test_open_start_still_solves(self, monkeypatch):
        real, calls = quantization.sdp_maximize, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(quantization, "sdp_maximize", counted)
        res = max_l1_norm_bounds(random_tuples()[0])
        assert calls == [1] and res.sdp_iterations > 0
        assert optim.bracket_closed(res.upper, res.lower)

    def test_scalars_give_the_l1_norm(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 5):
            mats = [rng.standard_normal((1, 1)) for _ in range(d)]
            res = max_l1_norm_bounds(mats)
            assert res.upper == sum(abs(float(a[0, 0])) for a in mats)

    def test_lower_above_the_certified_upper_bound_raises(self, monkeypatch):
        def too_low(mats, lower):
            xs = np.stack([np.eye(len(mats[0]))] * len(mats))
            return (1.5, xs, xs.copy()), lower, None, 3
        monkeypatch.setattr(quantization, "_haagerup_sdp", too_low)
        with pytest.raises(RuntimeError):
            max_l1_norm_bounds([PAIR_A, PAIR_B])


class TestReproduceL12:
    def test_default_run(self):
        rep = reproduce_l12_nonuniqueness()
        assert rep.min_norm == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert rep.max_lower >= 2.0 - 1e-6
        assert rep.max_upper == pytest.approx(2.0, abs=1e-12)
        assert rep.gap >= 0.58
        assert rep.passed

    def test_suite_rows_read_the_verdict_thresholds(self, monkeypatch):
        # the gap 2 - sqrt(2) = 0.586 clears 0.58 but not 0.6, and the
        # verdict and the suite row must both see the raised threshold
        monkeypatch.setattr(quantization, "L12_GAP", 0.6)
        assert not reproduce_l12_nonuniqueness().passed
        row, = [c for c in suites.suite_quantization(0xC0FFEE)
                if "split by at least" in c.name]
        assert row.name.endswith("at least 0.6") and not row.passed

    def test_homogeneity_of_both_norms(self):
        halved = np.stack([PAIR_A / 2, PAIR_B / 2], axis=-1)
        assert min_level_norm(L_ONE, halved) == pytest.approx(
            np.sqrt(2.0) / 2, abs=1e-12)
        res = max_l1_norm_bounds([PAIR_A / 2, PAIR_B / 2])
        assert res.lower == pytest.approx(1.0, abs=1e-9)
        assert res.upper == pytest.approx(1.0, abs=1e-12)

    def test_single_coefficient_degenerate(self):
        # (A, 0): both structures collapse to the operator norm of A
        element = np.stack([PAIR_A, np.zeros((2, 2))], axis=-1)
        assert min_level_norm(L_ONE, element) == pytest.approx(1.0, abs=1e-12)
        res = max_l1_norm_bounds([PAIR_A, np.zeros((2, 2))])
        assert res.lower == pytest.approx(1.0, abs=1e-9)
        assert res.upper == pytest.approx(1.0, abs=1e-12)


def test_minimality_of_min_structure():
    # maps into a minimal space cannot grow at higher levels: the sampled
    # level-n ratio never beats the exactly computed level-1 norm
    rng = np.random.default_rng(10)
    from realops.opspace import CBMap, full_matrix_space
    dom = full_matrix_space(2)
    cod = realize_min(L_INF)
    for _ in range(5):
        u_mat = rng.standard_normal((2, 4))
        u = CBMap(dom, cod, u_mat)
        norm1 = 0.0
        for f in L_INF.representatives:
            w = (u_mat.T @ f).reshape(2, 2)
            norm1 = max(norm1, float(np.sum(np.linalg.svd(w,
                                                          compute_uv=False))))
        for lvl in (1, 2, 3):
            for _ in range(10):
                x = random_elem(dom, lvl, rng)
                nx = level_norm(x)
                if nx < 1e-12:
                    continue
                assert level_norm(u(x)) <= nx * norm1 * (1 + 1e-9) + 1e-12
