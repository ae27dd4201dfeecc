import numpy as np
import pytest

from realops import optim, quantization
from realops.linalg import kron_sum, kron_sum_grad
from realops.opspace import CBMap, full_matrix_space, num_den_maps, span_space
from realops.optim import (SDP_BRACKET, SDP_MAX_ITERS, LinearMatrixMap,
                           polar_seesaw, ratio_ascent, ratio_eval,
                           sdp_maximize, seesaw_ascent)

M2 = full_matrix_space(2)
UT = span_space([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]])


def maps(name):
    rng = np.random.default_rng(21)
    if name == "full":
        return num_den_maps(CBMap(M2, M2, rng.standard_normal((4, 4))), 2)
    return num_den_maps(CBMap(UT, M2, rng.standard_normal((4, 3))), 2)


def row_maps():
    """den(x) = [x1, 0] and num(x) = diag(x1, 2 x2) on R^2: the ratio is
    max(|x1|, 2 |x2|) / |x1|, with zero gradient at e1 and a vanishing
    denominator at e2."""
    den = LinearMatrixMap(np.array([[1.0, 0.0], [0.0, 0.0]]), 1, 2)
    num = LinearMatrixMap(np.array([[1.0, 0.0], [0.0, 0.0],
                                    [0.0, 0.0], [0.0, 2.0]]), 2, 2)
    return num, den


class TestStackedMaps:
    @pytest.mark.parametrize("name", ["full", "partial"])
    def test_stacks_equal_single_points(self, name):
        num, den = maps(name)
        xs = np.random.default_rng(22).standard_normal(
            (7, num.matrix.shape[1]))
        xs[3] = 0.0
        assert np.array_equal(num.value(xs), np.stack([num.value(x)
                                                       for x in xs]))
        lone = [np.linalg.svd(den.value(x), compute_uv=False)[0]
                for x in xs]
        assert np.array_equal(den.sigma(xs), lone)
        assert np.array_equal(ratio_eval(num, den, xs),
                              [ratio_eval(num, den, x[None])[0] for x in xs])
        assert ratio_eval(num, den, xs)[3] == 0.0

    def test_zero_numerator_has_zero_gradient(self):
        num, den = row_maps()
        s, g = num.sigma_grads(np.array([[0.0, 0.0], [0.6, 0.8]]))
        assert s[0] == 0.0 and not g[0].any()
        assert s[1] == 1.6 and np.array_equal(g[1], [0.0, 2.0])


def lone_ascent(num, den, x0, iters):
    """Reference: one start at a time, with single-matrix SVDs and
    np.linalg.norm."""
    def top(mmap, x):
        m = mmap.value(x)
        if not m.any():
            return 0.0, np.zeros(x.size)
        u, s, vt = np.linalg.svd(m)
        return s[0], mmap.matrix.T @ np.outer(u[:, 0], vt[0]).ravel()

    x = x0 / np.linalg.norm(x0)
    decay = (1e-13 / 0.5) ** (1.0 / iters)
    step, best_val, best_x = 0.5, -np.inf, x.copy()
    for _ in range(iters):
        sn, gn = top(num, x)
        sd, gd = top(den, x)
        if sd <= 1e-300:
            break
        if sn / sd > best_val:
            best_val, best_x = sn / sd, x.copy()
        g = (gn * sd - sn * gd) / (sd * sd)
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-18:
            break
        x = x + step * (g / gnorm)
        x /= np.linalg.norm(x)
        step *= decay
    return best_val, best_x


class TestRatioAscent:
    # each row of a stack ends bit for bit as that start run alone
    @pytest.mark.parametrize("name", ["full", "partial"])
    def test_rows_match_lone_runs_bit_for_bit(self, name):
        num, den = maps(name)
        starts = np.random.default_rng(23).standard_normal(
            (6, num.matrix.shape[1]))
        vals, xs = ratio_ascent(num, den, starts, iters=120)
        assert vals.shape == (6,) and xs.shape == starts.shape
        for start, val, x in zip(starts, vals, xs):
            v1, x1 = ratio_ascent(num, den, start[None], iters=120)
            assert v1[0] == val
            assert np.array_equal(x1[0], x)
            v1, x1 = lone_ascent(num, den, start, 120)
            assert v1 == val
            assert np.array_equal(x1, x)
            # the value is the ratio at the returned feasible point
            assert ratio_eval(num, den, x[None])[0] == \
                pytest.approx(val, rel=1e-13)

    def test_retired_rows_leave_the_others_unchanged(self):
        num, den = row_maps()
        live = np.array([[0.6, 0.8], [-0.3, 0.4], [0.9, -0.1]])
        retiring = np.array([[0.0, 0.0],     # zero start
                             [2.0, 0.0],     # zero gradient at e1
                             [0.0, 3.0]])    # vanishing denominator
        stack = np.concatenate([retiring[:2], live[:1], retiring[2:],
                                live[1:]])
        vals, xs = ratio_ascent(num, den, stack, iters=80)
        alone_vals, alone_xs = ratio_ascent(num, den, live, iters=80)
        assert np.array_equal(vals[[2, 4, 5]], alone_vals)
        assert np.array_equal(xs[[2, 4, 5]], alone_xs)
        assert vals[0] == 0.0 and not xs[0].any()
        assert vals[1] == 1.0 and np.array_equal(xs[1], [1.0, 0.0])
        assert vals[3] == -np.inf and np.array_equal(xs[3], [0.0, 1.0])

    def test_all_rows_retired(self):
        num, den = row_maps()
        vals, xs = ratio_ascent(num, den, np.array([[0.0, 0.0],
                                                    [1.0, 0.0]]))
        assert np.array_equal(vals, [0.0, 1.0])
        assert np.array_equal(xs, [[0.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("iters", [0, -5])
    def test_nonpositive_iters_rejected(self, iters):
        num, den = maps("partial")
        with pytest.raises(ValueError):
            ratio_ascent(num, den, np.ones((2, num.matrix.shape[1])),
                         iters=iters)


def lone_seesaw(num, den, x0):
    """Reference: one start at a time, with single-matrix SVDs.  The search
    runs on the unit-ball matrix M = den(x) / sigma(den(x)) with value
    sigma(C M); the returned value is the ratio at the returned point."""
    comp = num.matrix @ np.linalg.inv(den.matrix)
    m = (den.matrix @ x0).reshape(den.rows, den.cols)
    sm = np.linalg.svd(m, compute_uv=False)[0]
    if sm <= 1e-300:
        return 0.0, np.zeros_like(x0)
    m = m / sm
    best_val, best_m = 0.0, m.copy()
    for _ in range(optim.SEESAW_ROUNDS):
        u, s, vt = np.linalg.svd((comp @ m.ravel()).reshape(num.rows,
                                                            num.cols))
        prev = best_val
        if s[0] > prev:
            best_val, best_m = s[0], m.copy()
        if not s[0] > prev + 1e-15:
            break
        w = (comp.T @ np.outer(u[:, 0], vt[0]).ravel()).reshape(den.rows,
                                                                 den.cols)
        u, _, vt = np.linalg.svd(w)
        m = u @ np.eye(den.rows, den.cols) @ vt
    x = np.linalg.solve(den.matrix, best_m.ravel())
    return ratio_eval(num, den, x[None])[0], x


class TestSeesawAscent:
    # each row of a stack ends bit for bit as that start run alone
    @pytest.mark.parametrize("level", [1, 2])
    def test_rows_match_lone_runs_bit_for_bit(self, level):
        rng = np.random.default_rng(24)
        # a generic map, and one (x -> its e11 entry) whose numerator
        # vanishes on the e22 corner
        for mat in (rng.standard_normal((4, 4)), np.diag([1.0, 0, 0, 0])):
            num, den = num_den_maps(CBMap(M2, M2, mat), level)
            starts = rng.standard_normal((6, num.matrix.shape[1]))
            starts[2] = 0.0                     # zero start
            starts[4] = np.eye(len(starts[4]))[-1]  # zero numerator
            vals, xs = seesaw_ascent(num, den, starts)
            assert vals.shape == (6,) and xs.shape == starts.shape
            for start, val, x in zip(starts, vals, xs):
                v1, x1 = seesaw_ascent(num, den, start[None])
                assert v1[0] == val
                assert np.array_equal(x1[0], x)
                v1, x1 = lone_seesaw(num, den, start)
                assert v1 == val
                assert np.array_equal(x1, x)
            assert vals[2] == 0.0 and not xs[2].any()
            if not mat[1:].any():
                assert vals[4] == 0.0

    def test_seesaw_values_are_ratios_at_their_points(self):
        num, den = maps("full")
        starts = np.random.default_rng(25).standard_normal(
            (5, num.matrix.shape[1]))
        vals, xs = seesaw_ascent(num, den, starts)
        assert np.allclose(ratio_eval(num, den, xs), vals, rtol=1e-12,
                           atol=0)

    def test_needs_a_bijective_denominator(self):
        num, den = maps("partial")
        with pytest.raises(ValueError):
            seesaw_ascent(num, den, np.ones((1, num.matrix.shape[1])))


def real_polar(grads):
    u, _, vt = np.linalg.svd(grads)
    return u @ vt


def kron_seesaw(coeffs, starts):
    """polar_seesaw on || kron_sum(coeffs, D) || over real contractions."""
    return polar_seesaw(lambda ds: kron_sum(coeffs, ds),
                        lambda u, v: kron_sum_grad(coeffs, u, v), real_polar,
                        starts)


class TestPolarSeesaw:
    def starts(self, m=2):
        rng = np.random.default_rng(26)
        coeffs = rng.standard_normal((2, 2, 3))
        ds = np.linalg.qr(rng.standard_normal((5, 3, m, m)))[0]
        ds[3] = 0.0                              # zero realization
        return coeffs, ds

    def test_rows_match_lone_runs_bit_for_bit(self):
        coeffs, ds = self.starts()
        vals, best, rounds = kron_seesaw(coeffs, ds)
        assert vals.shape == (5,) and best.shape == ds.shape
        lone_rounds = 0
        for start, val, tup in zip(ds, vals, best):
            v1, t1, r1 = kron_seesaw(coeffs, start[None])
            assert v1[0] == val and np.array_equal(t1[0], tup)
            lone_rounds = max(lone_rounds, r1)
        assert rounds == lone_rounds
        assert vals[3] == 0.0 and not best[3].any()

    def test_values_are_norms_at_contractive_tuples(self):
        coeffs, ds = self.starts(3)
        start = np.linalg.svd(kron_sum(coeffs, ds), compute_uv=False)[:, 0]
        vals, best, _ = kron_seesaw(coeffs, ds)
        assert np.all(vals >= start - 1e-15)
        assert np.linalg.svd(best, compute_uv=False)[..., 0].max() <= \
            1.0 + 1e-12
        assert np.allclose(np.linalg.svd(kron_sum(coeffs, best),
                                         compute_uv=False)[:, 0], vals,
                           rtol=1e-14, atol=0)

    @pytest.mark.parametrize("cap", [1, 3])
    def test_rounds_are_capped(self, cap, monkeypatch):
        monkeypatch.setattr(optim, "SEESAW_ROUNDS", cap)
        coeffs, ds = self.starts()
        vals, best, rounds = kron_seesaw(coeffs, ds)
        assert rounds == cap
        if cap == 1:
            assert np.array_equal(best, ds)


class TestSdpMaximize:
    """lambda_max(C) = min t s.t. t I - C >= 0, for a block-diagonal C:
    in dual form, maximize -t with S = -C - t (-I).  A strictly feasible t
    is an upper bound, and <C, X> / tr X a lower bound for any X > 0."""

    @staticmethod
    def problem(seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((k, k)) for k in (2, 3)]
        c = np.zeros((5, 5))
        c[:2, :2] = blocks[0] + blocks[0].T
        c[2:, 2:] = blocks[1] + blocks[1].T
        return c

    @staticmethod
    def bracket(c):
        return lambda x, y: (float(y[0]), float(np.vdot(c, x) / np.trace(x)))

    @pytest.mark.parametrize("seed", range(4))
    def test_bracket_closes_on_the_largest_eigenvalue(self, seed):
        c = self.problem(seed)
        t0 = np.abs(c).sum() + 1.0
        res = sdp_maximize(-np.eye(5)[None], -c, np.array([t0]),
                           self.bracket(c), t0, float(np.trace(c)) / 5)
        assert 0 < res.iterations <= SDP_MAX_ITERS
        assert res.upper - res.lower <= SDP_BRACKET * max(1.0, res.upper)
        top = np.linalg.eigvalsh(c)[-1]
        assert res.lower - 1e-12 <= top <= res.upper + 1e-12
        # the kept iterates reproduce the bracket
        assert self.bracket(c)(res.x, res.y) == (res.upper, res.lower)

    def test_closed_start_bracket_takes_no_step(self):
        c = self.problem(0)
        res = sdp_maximize(-np.eye(5)[None], -c, np.array([9.0]),
                           self.bracket(c), 2.0, 2.0)
        assert (res.upper, res.lower, res.iterations) == (2.0, 2.0, 0)
        assert res.x is None and res.y is None

    @pytest.mark.parametrize("upper, lower, closed", [
        (2.0, 2.0, True), (SDP_BRACKET, 0.0, True),
        (np.nextafter(SDP_BRACKET, 1.0), 0.0, False),
        (3e10, 3e10 - 3.0, True), (3e10, 3e10 - 3.1, False),
        (np.inf, 0.0, False), (1.0, np.inf, False), (np.nan, 0.0, False),
        (9.0, -np.inf, False), (9.0, np.nan, False)])
    def test_closed_bracket_rule(self, upper, lower, closed):
        # relative to max(1, upper), and never closed with a non-finite side
        assert optim.bracket_closed(upper, lower) == closed

    @pytest.mark.parametrize("upper, lower", [
        (np.inf, 0.0), (np.nan, 0.0), (9.0, -np.inf), (9.0, np.nan)])
    def test_non_finite_start_bounds_rejected(self, upper, lower):
        # a non-finite starting bound is an error, not a bracket that the
        # solve could close or improve
        c = self.problem(0)
        with pytest.raises(ValueError, match="finite"):
            sdp_maximize(-np.eye(5)[None], -c, np.array([9.0]),
                         self.bracket(c), upper, lower)

    def test_singular_schur_matrix_steps_by_least_squares(self, monkeypatch):
        # the constraint A_1 = A_2 = F twice, with F coupling the two blocks
        # of C: every Schur matrix has two equal rows, so its LU factor has
        # an exactly zero pivot, and each step comes from least squares
        # (the kernel runs no rank test of its own); the problem is min t
        # s.t. t I - C - (y_1 + y_2) F >= 0, whose value is lambda_max(C),
        # as F vanishes on the top eigenvector of C
        c = self.problem(1)
        f = np.zeros((5, 5))
        f[:2, 2:] = np.random.default_rng(3).standard_normal((2, 3))
        f += f.T
        t0 = np.abs(c).sum() + 1.0
        lstsq, calls = np.linalg.lstsq, []

        def counted(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        res = sdp_maximize(np.stack([-np.eye(5), f, f]), -c,
                           np.array([t0, 0.0, 0.0]),
                           lambda x, y: (
                               float(np.linalg.eigvalsh(
                                   c + (y[1] + y[2]) * f)[-1]),
                               float(np.vdot(c, x) / np.trace(x))),
                           t0, float(np.trace(c)) / 5)
        assert len(calls) == 2 * res.iterations > 0
        assert res.upper - res.lower <= SDP_BRACKET * max(1.0, res.upper)
        top = np.linalg.eigvalsh(c)[-1]
        assert res.lower - 1e-12 <= top <= res.upper + 1e-12

    def test_callers_pass_a_projection_for_the_derived_start(self,
                                                            monkeypatch):
        # both instances solve min t with -A_0 a diagonal 0/1 projection, so
        # that the kernel's start X = I / tr(-A_0) has <A_0, X> = -1
        real, seen = optim.sdp_maximize, []

        def spy(a, c_mat, y0, *args):
            seen.append(len(c_mat))
            proj = -a[0]
            assert np.array_equal(proj, np.diag(np.diag(proj)))
            assert set(np.diag(proj)) <= {0.0, 1.0}
            x0 = np.eye(len(c_mat)) / np.trace(proj)
            assert np.vdot(a[0], x0) == pytest.approx(-1.0, abs=1e-15)
            s0 = c_mat - np.tensordot(y0, a, axes=1)
            assert np.linalg.eigvalsh(s0)[0] > 0
            return real(a, c_mat, y0, *args)

        monkeypatch.setattr(optim, "sdp_maximize", spy)
        monkeypatch.setattr(quantization, "sdp_maximize", spy)
        rng = np.random.default_rng(4)
        optim.spectral_min_sdp(rng.standard_normal(6),
                               rng.standard_normal((6, 2)), 2, 3)
        quantization.max_l1_norm_bounds(rng.standard_normal((3, 2, 2)))
        # the quotient SDP at N = 2 + 3, Haagerup's at 2 n d + 2 n
        assert seen == [5, 16]

    def test_failed_cholesky_factor_keeps_the_bounds_reached(self,
                                                             monkeypatch):
        # the 7th inverse Cholesky factor (X of step 4) fails: the solve
        # ends with the bracket of a solve capped at three steps
        c = self.problem(2)
        t0 = np.abs(c).sum() + 1.0

        def solve():
            return sdp_maximize(-np.eye(5)[None], -c, np.array([t0]),
                                self.bracket(c), t0, float(np.trace(c)) / 5)

        with monkeypatch.context() as m:
            m.setattr(optim, "SDP_MAX_ITERS", 3)
            capped = solve()
        real, calls = optim._inv_cholesky, []

        def failing(mat):
            calls.append(1)
            if len(calls) == 7:
                raise np.linalg.LinAlgError("matrix is not positive definite")
            return real(mat)

        monkeypatch.setattr(optim, "_inv_cholesky", failing)
        res = solve()
        assert len(calls) == 7
        assert (res.upper, res.lower, res.iterations) == \
            (capped.upper, capped.lower, 3)
        assert res.upper - res.lower > SDP_BRACKET * max(1.0, res.upper)
        assert np.array_equal(res.x, capped.x)
        assert np.array_equal(res.y, capped.y)

    def test_inverse_cholesky_factor(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 6))
        m = g @ g.T + np.eye(6)
        ci = optim._inv_cholesky(m)
        assert np.array_equal(ci, np.tril(ci))
        assert np.allclose(ci @ m @ ci.T, np.eye(6), atol=1e-12)
        with pytest.raises(np.linalg.LinAlgError):
            optim._inv_cholesky(m - 2 * np.linalg.eigvalsh(m)[-1] * np.eye(6))

    @pytest.mark.parametrize("side", [2, 4, 8, 12, 16, 24])
    def test_step_length_from_the_least_eigenvalue(self, side):
        # min(1, -0.98 / lam) for the least eigenvalue lam of
        # X^-1/2 D X^-1/2, which has the eigenvalues of L^-1 D L^-T; each
        # D = H diag(1, -1, 1, ...) H^T is indefinite (Sylvester's law of
        # inertia), and a direction with lam >= 0 gives exactly 1
        rng = np.random.default_rng(side)
        signs = (-1.0) ** np.arange(side)
        g = rng.standard_normal((side, side))
        x = g @ g.T / side + np.eye(side)
        lam_x, vec = np.linalg.eigh(x)
        root = (vec / np.sqrt(lam_x)) @ vec.T
        ci = optim._inv_cholesky(x)
        for scale in (0.01, 0.3, 1.0, 30.0):
            h = rng.standard_normal((side, side))
            d = scale * (h * signs) @ h.T
            lam = np.linalg.eigvalsh(root @ d @ root)[0]
            assert lam < 0
            assert optim._step_length(ci, d) == \
                pytest.approx(min(1.0, -0.98 / lam), rel=1e-12, abs=0.0)
        h = rng.standard_normal((side, side))
        for d in (np.zeros((side, side)), h @ h.T + np.eye(side)):
            assert optim._step_length(ci, d) == 1.0

    @pytest.mark.parametrize("side", [4, 8, 12, 24])
    def test_predictor_step_is_the_largest_grid_step_that_factors(self, side):
        # each D is scaled so that 0.98 of the exact largest step lies
        # between two grid values: the result is the grid value below it
        # (0.0 below the grid, 1 above it), never above the exact step of
        # _step_length, M + (a / 0.98) D is positive definite and the next
        # larger grid value is not; a direction with no limit gives 1
        rng = np.random.default_rng(100 + side)
        signs = (-1.0) ** np.arange(side)
        g = rng.standard_normal((side, side))
        m = g @ g.T / side + np.eye(side)
        lam_m, vec = np.linalg.eigh(m)
        root = (vec / np.sqrt(lam_m)) @ vec.T
        ci = optim._inv_cholesky(m)
        grid, frac = optim.PREDICTOR_STEPS, optim.STEP_FRACTION

        def definite(mat):
            return np.linalg.eigvalsh(mat)[0] > 0

        for step in (0.05, 0.15, 0.3, 0.6, 0.8, 0.95, 1.2, 30.0):
            h = rng.standard_normal((side, side))
            d = (h * signs) @ h.T
            d *= -frac / (step * np.linalg.eigvalsh(root @ d @ root)[0])
            a = optim._predictor_step(m, d)
            assert a == max((v for v in grid if v < step), default=0.0)
            assert a <= optim._step_length(ci, d)
            if a > 0.0:
                assert definite(m + (a / frac) * d)
            if a < 1.0:
                larger = grid[grid.index(a) - 1] if a else grid[-1]
                assert not definite(m + (larger / frac) * d)
        h = rng.standard_normal((side, side))
        for d in (np.zeros((side, side)), h @ h.T):
            assert optim._predictor_step(m, d) == 1.0
