import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realops.linalg import (MEMBERSHIP_TOL, as_matrix, clip_contraction,
                            contraction_block, contraction_iff_positive,
                            dilation, frobenius_norm, in_span, is_real_positive,
                            kron_sum, kron_sum_grad, kron_sum_matrix,
                            mat_from_json, mat_to_json, op_norm,
                            relative_residual, span_coefficients)


def char_poly_eigs_2x2(m):
    """Independent oracle for 2x2 symmetric eigenvalues."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr - 4 * det)
    return (tr - disc) / 2, (tr + disc) / 2


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert op_norm([[3.0, 0.0], [0.0, 4.0]]) == pytest.approx(4.0, abs=1e-12)

    def test_rank_one_ones(self):
        # trace of m^T m = 4 concentrated in one singular direction
        assert op_norm([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_matrix(self):
        assert op_norm(np.zeros((2, 3))) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            op_norm([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            op_norm([[np.inf]])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            op_norm([1.0, 2.0, 3.0])


class TestRealPositivity:
    def test_positive_form_but_not_symmetric(self):
        # nonnegative quadratic form alone is not positivity
        assert not is_real_positive([[2.0, -1.0], [1.0, 2.0]])

    def test_diagonal_positive(self):
        assert is_real_positive([[2.0, 0.0], [0.0, 3.0]])

    def test_symmetric_indefinite(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        lo, hi = char_poly_eigs_2x2(m)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)
        assert not is_real_positive(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_real_positive(np.ones((2, 3)))


class TestContractionIffPositive:
    def test_small_scalar(self):
        assert contraction_iff_positive([[0.6]]) == (True, True)

    def test_large_scalar(self):
        assert contraction_iff_positive([[2.0]]) == (False, False)

    def test_rescaled_to_unit_norm(self):
        rng = np.random.default_rng(20240814)
        x = rng.standard_normal((3, 2))
        x /= np.linalg.svd(x, compute_uv=False)[0]
        assert contraction_iff_positive(x) == (True, True)

    def test_agreement_near_boundary(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = rng.standard_normal((p, q))
            s = np.linalg.svd(x, compute_uv=False)[0]
            if s < 1e-12:
                continue
            x *= rng.uniform(0.9, 1.1) / s
            a, b = contraction_iff_positive(x, tol=1e-9)
            assert a == b

    def test_block_matrix_shape(self):
        blk = contraction_block(np.ones((2, 3)))
        assert blk.shape == (5, 5)
        assert np.array_equal(blk[:2, :2], np.eye(2))

    def test_dilation_of_a_stack(self):
        # [[0, m], [m^T, 0]] for each matrix of a stack, as alone; its top
        # eigenvalue is the operator norm, and the contraction block is
        # the identity plus it
        ms = np.random.default_rng(3).standard_normal((4, 2, 3))
        d = dilation(ms)
        assert d.shape == (4, 5, 5)
        for m, dm in zip(ms, d):
            assert np.array_equal(dm, np.block([[np.zeros((2, 2)), m],
                                                [m.T, np.zeros((3, 3))]]))
            assert np.array_equal(dm, dilation(m))
        assert np.allclose(np.linalg.eigvalsh(d)[:, -1], op_norm(ms),
                           rtol=1e-14, atol=0)
        assert np.array_equal(contraction_block(ms), np.eye(5) + d)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6).filter(lambda a: abs(a) > 1e-6),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_norm_absolute_homogeneity(alpha, p, q, seed):
    m = np.random.default_rng(seed).standard_normal((p, q))
    base = op_norm(m)
    if base < 1e-10:
        return
    assert op_norm(alpha * m) == pytest.approx(abs(alpha) * base, rel=1e-12)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_norm_block_diagonal_max(p, q, seed):
    rng = np.random.default_rng(seed)
    m1 = rng.standard_normal((p, q))
    m2 = rng.standard_normal((q, p))
    blk = np.zeros((p + q, q + p))
    blk[:p, :q] = m1
    blk[p:, q:] = m2
    assert op_norm(blk) == pytest.approx(max(op_norm(m1), op_norm(m2)),
                                         abs=1e-12)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_congruence_preserves_positivity(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    m = b.T @ b
    a = rng.standard_normal((n, n))
    assert is_real_positive(m, tol=1e-9)
    assert is_real_positive(a.T @ m @ a, tol=1e-9 * (1 + op_norm(a)) ** 2)


def test_mat_json_round_trip():
    m = np.array([[1.5, -2.0], [0.0, 3.25], [4.0, 5.0]])
    assert np.array_equal(mat_from_json(mat_to_json(m)), m)


def test_mat_json_shape_mismatch():
    with pytest.raises(ValueError):
        mat_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 2.0]]})


def test_as_matrix_copies_validation():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 2)))


class TestKronSum:
    @staticmethod
    def _sum_of_krons(coeffs, mats):
        total = np.kron(coeffs[:, :, 0], mats[0])
        for k in range(1, mats.shape[0]):
            total = total + np.kron(coeffs[:, :, k], mats[k])
        return total

    def test_real_equals_sum_of_krons_exactly(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((2, 3, 4))
        mats = rng.standard_normal((4, 3, 2))
        got = kron_sum(coeffs, mats)
        assert got.shape == (6, 6)
        assert np.array_equal(got, self._sum_of_krons(coeffs, mats))

    def test_complex_equals_sum_of_krons(self):
        # einsum rounds complex products differently from np.kron, so the
        # complex case agrees to roundoff rather than bit for bit
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((2, 3, 4)) + \
            1j * rng.standard_normal((2, 3, 4))
        mats = rng.standard_normal((4, 3, 2)) + \
            1j * rng.standard_normal((4, 3, 2))
        assert np.allclose(kron_sum(coeffs, mats),
                           self._sum_of_krons(coeffs, mats),
                           rtol=0, atol=1e-14)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal((2, 3, 2))
        mats = rng.standard_normal((2, 3, 4))
        u = rng.standard_normal(6)
        v = rng.standard_normal(12)
        grad = kron_sum_grad(coeffs, u, v)
        assert grad.shape == mats.shape
        h = 1e-6
        fd = np.zeros_like(mats)
        for idx in np.ndindex(*mats.shape):
            step = np.zeros_like(mats)
            step[idx] = h
            fd[idx] = (u @ kron_sum(coeffs, mats + step) @ v -
                       u @ kron_sum(coeffs, mats - step) @ v) / (2 * h)
        assert np.allclose(grad, fd, rtol=0, atol=1e-8)

    @staticmethod
    def _draw(rng, shape, dtype):
        x = rng.standard_normal(shape)
        if dtype is complex:
            x = x + 1j * rng.standard_normal(shape)
        return x

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_kron_sum_is_the_stack_of_single_calls(self, dtype):
        rng = np.random.default_rng(12)
        coeffs = self._draw(rng, (2, 3, 3), dtype)
        mats = self._draw(rng, (4, 5, 3, 2, 3), dtype)
        got = kron_sum(coeffs, mats)
        assert got.shape == (4, 5, 4, 9)
        for idx in np.ndindex(4, 5):
            assert np.array_equal(got[idx], kron_sum(coeffs, mats[idx]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_grad_is_the_stack_of_single_calls(self, dtype):
        rng = np.random.default_rng(13)
        coeffs = self._draw(rng, (2, 3, 3), dtype)
        u = self._draw(rng, (7, 4), dtype)
        v = self._draw(rng, (7, 6), dtype)
        got = kron_sum_grad(coeffs, u, v)
        assert got.shape == (7, 3, 2, 2)
        for r in range(7):
            assert np.array_equal(got[r], kron_sum_grad(coeffs, u[r], v[r]))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matrix_applies_kron_sum(self, level):
        rng = np.random.default_rng(level)
        mats = rng.standard_normal((3, 2, 4))
        c = rng.standard_normal((level, level, 3))
        k_mat = kron_sum_matrix(mats, level)
        assert k_mat.shape == (level * 2 * level * 4, level * level * 3)
        assert np.allclose(k_mat @ c.ravel(), kron_sum(c, mats).ravel(),
                           rtol=0, atol=1e-13)


class TestClipContraction:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_result_is_contraction(self, dtype):
        rng = np.random.default_rng(10)
        m = 3.0 * rng.standard_normal((4, 4)).astype(dtype)
        if dtype is complex:
            m = m + 3j * rng.standard_normal((4, 4))
        s = np.linalg.svd(clip_contraction(m), compute_uv=False)
        assert s[0] <= 1.0 + 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_fixes_contractions(self, dtype):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3)).astype(dtype)
        if dtype is complex:
            m = m + 1j * rng.standard_normal((3, 3))
        m = 0.9 * m / np.linalg.svd(m, compute_uv=False)[0]
        assert np.allclose(clip_contraction(m), m, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_clip_is_the_stack_of_single_calls(self, dtype):
        rng = np.random.default_rng(14)
        m = 2.0 * rng.standard_normal((3, 5, 4, 4)).astype(dtype)
        if dtype is complex:
            m = m + 2j * rng.standard_normal((3, 5, 4, 4))
        got = clip_contraction(m)
        for idx in np.ndindex(3, 5):
            assert np.array_equal(got[idx], clip_contraction(m[idx]))


class TestFrobeniusNorm:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("size", [1, 3, 4, 8])
    def test_agrees_with_numpy_bit_for_bit(self, dtype, size):
        rng = np.random.default_rng(size)
        m = rng.standard_normal((6, size, size)).astype(dtype)
        if dtype is complex:
            m = m + 1j * rng.standard_normal((6, size, size))
        got = frobenius_norm(m)
        assert got.shape == (6,)
        for r in range(6):
            assert got[r] == np.linalg.norm(m[r])
            assert frobenius_norm(m[r]) == np.linalg.norm(m[r])


class TestSpanCoefficients:
    def test_agrees_with_lstsq(self):
        rng = np.random.default_rng(8)
        span = rng.standard_normal((3, 2, 4))
        mats = rng.standard_normal((5, 2, 4))
        coeffs, res = span_coefficients(span, mats)
        assert coeffs.shape == (5, 3) and res.shape == (5,)
        vecs = span.reshape(3, -1).T
        for r in range(5):
            sol, *_ = np.linalg.lstsq(vecs, mats[r].ravel(), rcond=None)
            assert np.allclose(coeffs[r], sol, atol=1e-12)
            assert res[r] == pytest.approx(
                np.linalg.norm(vecs @ sol - mats[r].ravel()), abs=1e-12)

    def test_dependent_span_members(self):
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        span = np.stack([e12, 2.0 * e12])
        coeffs, res = span_coefficients(span, np.stack([3.0 * e12, np.eye(2)]))
        assert np.allclose(coeffs[0], [0.6, 1.2])    # minimal-norm solution
        assert res[0] <= 1e-15
        assert res[1] == pytest.approx(np.sqrt(2.0))

    def test_stack_axes_and_cached_pinv(self):
        rng = np.random.default_rng(9)
        span = rng.standard_normal((2, 3, 3))
        pinv = np.linalg.pinv(span.reshape(2, -1).T)
        mats = rng.standard_normal((4, 2, 3, 3))
        coeffs, res = span_coefficients(span, mats, pinv)
        assert coeffs.shape == (4, 2, 2) and res.shape == (4, 2)
        for idx in np.ndindex(4, 2):
            c, r = span_coefficients(span, mats[idx])
            assert np.array_equal(coeffs[idx], c)
            assert res[idx] == r

    def test_membership_rule(self):
        m = np.full((2, 2), 0.5)                 # |m|_F = 1
        assert relative_residual(4e-10, m) == pytest.approx(2e-10)
        assert in_span(2e-10, m)
        assert not in_span(3e-10, m)
        assert in_span(3e-10, m, tol=2e-10)
        assert MEMBERSHIP_TOL == 1e-10
