import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from realops import quantization
from realops.linalg import kron_sum, op_norm
from realops.opspace import elem, level_norm, random_elem
from realops.quantization import (PAIR_A, PAIR_B, BanachSpace,
                                  banach_from_json, banach_to_json, ell_infty,
                                  ell_one, max_l1_norm_bounds,
                                  min_complexification_check, min_level_norm,
                                  realize_min, reproduce_l12_nonuniqueness,
                                  w2_complex_norm)

L_INF = ell_infty(2)
L_ONE = ell_one(2)


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
        e = banach_from_json(banach_to_json(L_ONE))
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
        hexagon = BanachSpace(2, [[1.0, 0.0], [0.5, 1.0], [-0.5, 1.0]])
        for sp in (L_INF, L_ONE, hexagon):
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


class TestMinComplexification:
    @pytest.mark.parametrize("space", [BanachSpace(1, [[1.0]]), L_INF, L_ONE],
                             ids=["scalars", "ell_inf", "ell_one"])
    def test_agreement(self, space):
        assert min_complexification_check(space, max_level=3, samples=200,
                                          seed=0xC0FFEE) <= 1e-10


class TestMaxL1:
    def test_single_matrix(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 2))
        res = max_l1_norm_bounds([a], m_max=2, restarts=8, seed=1)
        assert res.lower == pytest.approx(op_norm(a), abs=1e-9)
        assert res.upper == pytest.approx(op_norm(a), abs=1e-12)

    def test_scalars_reach_l1_norm(self):
        res = max_l1_norm_bounds([[[0.7]], [[-0.3]]], m_max=2, restarts=8,
                                 seed=1)
        assert res.lower == pytest.approx(1.0, abs=1e-12)
        assert res.upper == pytest.approx(1.0, abs=1e-12)

    def test_witness_pair(self):
        # the tuple (A, B) itself witnesses the lower bound 2
        direct = op_norm(np.kron(PAIR_A, PAIR_A) + np.kron(PAIR_B, PAIR_B))
        assert direct == pytest.approx(2.0, abs=1e-12)
        res = max_l1_norm_bounds([PAIR_A, PAIR_B], m_max=2, restarts=16,
                                 seed=2)
        assert res.lower >= 2.0 - 1e-6
        assert res.upper == pytest.approx(2.0, abs=1e-12)

    def test_huge_entries_scale_exactly(self):
        # the search runs on the tuple scaled by a power of two, so the
        # squares of entries near 1e181 do not overflow and the result
        # is the unscaled one scaled back exactly
        base = max_l1_norm_bounds([PAIR_A, PAIR_B], m_max=2, restarts=8,
                                  seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = max_l1_norm_bounds([2.0 ** 600 * PAIR_A,
                                      2.0 ** 600 * PAIR_B], m_max=2,
                                     restarts=8, seed=3)
        assert big.lower == math.ldexp(base.lower, 600)
        assert big.upper == math.ldexp(base.upper, 600)
        for w, w0 in zip(big.witness, base.witness):
            assert np.array_equal(w, w0)

    def test_bracket_is_ordered(self):
        # the lower bound is not clipped: only roundoff may invert it
        rng = np.random.default_rng(9)
        for t in range(5):
            mats = [rng.standard_normal((2, 2)) for _ in range(2)]
            res = max_l1_norm_bounds(mats, m_max=2, restarts=8, seed=t)
            assert res.lower <= res.upper + 1e-12 * max(1.0, res.upper)

    def test_bracket_closes(self):
        rng = np.random.default_rng(9)
        for t in range(5):
            mats = [rng.standard_normal((2, 2)) for _ in range(2)]
            res = max_l1_norm_bounds(mats, m_max=2, restarts=8, seed=t)
            assert res.upper - res.lower <= 1e-9 * max(1.0, res.upper)

    @pytest.mark.parametrize("seed", [0xC0FFEE, 1])
    def test_witness_is_feasible_and_reproduces_lower(self, seed):
        res = max_l1_norm_bounds([PAIR_A, PAIR_B], m_max=4, restarts=16,
                                 seed=seed)
        assert len(res.witness) == 2
        for w in res.witness:
            assert w.shape == (res.best_m, res.best_m)
            assert op_norm(w) <= 1.0 + 1e-12
        coeffs = np.stack([PAIR_A, PAIR_B], axis=-1)
        value = op_norm(kron_sum(coeffs, np.stack(res.witness)))
        assert min(value, res.upper) == pytest.approx(res.lower, abs=1e-12)

    def test_random_tuples_give_feasible_witnesses(self):
        rng = np.random.default_rng(15)
        for t in range(3):
            mats = [rng.standard_normal((2, 2)) for _ in range(3)]
            res = max_l1_norm_bounds(mats, m_max=3, restarts=6, seed=t)
            assert all(op_norm(w) <= 1.0 + 1e-12 for w in res.witness)
            value = op_norm(kron_sum(np.stack(mats, axis=-1),
                                     np.stack(res.witness)))
            assert min(value, res.upper) == pytest.approx(res.lower,
                                                          abs=1e-12)

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3},
                                        {"iters": 0}, {"m_max": 0}])
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            max_l1_norm_bounds([PAIR_A, PAIR_B], **kwargs)

    @pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_sizes_above_n_are_not_searched(self, n, d):
        # Smith's lemma: m_max beyond n gives exactly the m_max = n result
        rng = np.random.default_rng(30 + n)
        mats = [rng.standard_normal((n, n)) for _ in range(d)]
        capped = max_l1_norm_bounds(mats, m_max=n, restarts=4, seed=6)
        res = max_l1_norm_bounds(mats, m_max=4, restarts=4, seed=6)
        assert (res.lower, res.upper, res.best_m, res.sdp_iterations) == \
            (capped.lower, capped.upper, capped.best_m,
             capped.sdp_iterations)
        assert all(np.array_equal(w, v)
                   for w, v in zip(res.witness, capped.witness))


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


class TestSeesawSearch:
    def test_no_matrix_exponential(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the max-l1 search took an expm")
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        res = max_l1_norm_bounds([PAIR_A, PAIR_B], restarts=16, seed=2)
        assert res.lower >= 2.0 - 1e-12
        max_l1_norm_bounds(random_tuples()[5], restarts=4, seed=5)

    # exact values, so that a search change that moves the bracket shows
    @pytest.mark.parametrize("restarts, lower", [(16, 2.0000000000000004),
                                                 (64, 2.000000000000001)])
    def test_witness_pair_values_are_pinned(self, restarts, lower):
        rep = reproduce_l12_nonuniqueness(seed=0xC0FFEE, restarts=restarts)
        assert rep.max_lower == lower
        assert rep.max_upper == 2.0
        assert rep.best_m == 2
        assert rep.sdp_iterations == 0

    @pytest.mark.parametrize("case", range(17))
    def test_search_witnesses_are_contractions(self, case, monkeypatch):
        # with the SDP reduced to the triangle bound, the reported witness
        # is the search's own tuple
        def triangle(mats, lower):
            xs = np.stack([op_norm(a) * np.eye(len(a)) for a in mats])
            return (float(sum(op_norm(a) for a in mats)), xs, xs.copy()), \
                lower, None, 0
        monkeypatch.setattr(quantization, "_haagerup_sdp", triangle)
        mats = (random_tuples() + [[PAIR_A, PAIR_B]])[case]
        res = max_l1_norm_bounds(mats, restarts=4, seed=case)
        assert res.search_rounds > 0
        assert all(np.linalg.svd(w, compute_uv=False)[0] <= 1.0 + 1e-12
                   for w in res.witness)
        value = op_norm(kron_sum(np.stack(mats, axis=-1),
                                 np.stack(res.witness)))
        assert value == pytest.approx(res.lower, rel=1e-13)

    def test_search_rounds_are_deterministic_and_capped(self):
        mats = random_tuples()[5]
        runs = [max_l1_norm_bounds(mats, restarts=4, seed=5, iters=7)
                for _ in range(2)]
        assert runs[0].search_rounds == runs[1].search_rounds
        # at most 7 rounds at each of the test sizes m = 1, 2
        assert 2 <= runs[0].search_rounds <= 14


class TestHaagerupCertificate:
    @pytest.mark.parametrize("case", range(16))
    def test_random_tuples_close_with_a_valid_certificate(self, case):
        mats = random_tuples()[case]
        res = max_l1_norm_bounds(mats, restarts=4, seed=case)
        assert res.upper - res.lower <= 1e-9 * max(1.0, res.upper)
        assert res.upper < sum(op_norm(a) for a in mats)
        assert res.sdp_iterations > 0
        psd, excess = certificate_defect(mats, res)
        assert psd <= 1e-12 and excess <= 1e-12
        # the lower bound is witnessed at a test size m <= n
        assert res.best_m <= len(mats[0])
        assert all(op_norm(w) <= 1.0 + 1e-12 for w in res.witness)
        value = op_norm(kron_sum(np.stack(mats, axis=-1),
                                 np.stack(res.witness)))
        assert value == pytest.approx(res.lower, abs=1e-12)

    def test_witness_pair_needs_no_solve(self):
        res = max_l1_norm_bounds([PAIR_A, PAIR_B], restarts=16, seed=0)
        assert abs(res.upper - 2.0) <= 1e-12
        assert res.sdp_iterations == 0
        assert certificate_defect([PAIR_A, PAIR_B], res) == (0.0, 0.0)

    def test_scalars_give_the_l1_norm(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 5):
            mats = [rng.standard_normal((1, 1)) for _ in range(d)]
            res = max_l1_norm_bounds(mats, restarts=4, seed=d)
            assert res.upper == sum(abs(float(a[0, 0])) for a in mats)

    def test_lower_above_the_certified_upper_bound_raises(self, monkeypatch):
        def too_low(mats, lower):
            xs = np.stack([np.eye(len(mats[0]))] * len(mats))
            return (1.5, xs, xs.copy()), lower, None, 3
        monkeypatch.setattr(quantization, "_haagerup_sdp", too_low)
        with pytest.raises(RuntimeError):
            max_l1_norm_bounds([PAIR_A, PAIR_B], restarts=4, seed=0)


class TestReproduceL12:
    def test_default_run(self):
        rep = reproduce_l12_nonuniqueness(seed=0xC0FFEE)
        assert rep.min_norm == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert rep.max_lower >= 2.0 - 1e-6
        assert rep.max_upper == pytest.approx(2.0, abs=1e-12)
        assert rep.gap >= 0.58
        assert rep.passed

    def test_homogeneity_of_both_norms(self):
        halved = np.stack([PAIR_A / 2, PAIR_B / 2], axis=-1)
        assert min_level_norm(L_ONE, halved) == pytest.approx(
            np.sqrt(2.0) / 2, abs=1e-12)
        res = max_l1_norm_bounds([PAIR_A / 2, PAIR_B / 2], m_max=2,
                                 restarts=8, seed=3)
        assert res.lower == pytest.approx(1.0, abs=1e-9)
        assert res.upper == pytest.approx(1.0, abs=1e-12)

    def test_single_coefficient_degenerate(self):
        # (A, 0): both structures collapse to the operator norm of A
        element = np.stack([PAIR_A, np.zeros((2, 2))], axis=-1)
        assert min_level_norm(L_ONE, element) == pytest.approx(1.0, abs=1e-12)
        res = max_l1_norm_bounds([PAIR_A, np.zeros((2, 2))], m_max=2,
                                 restarts=8, seed=4)
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
