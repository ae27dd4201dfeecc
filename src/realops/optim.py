"""Nonsmooth search kernels shared by the norm-certification routines.

Five workhorses and two reference solvers:

* ``ratio_ascent``: multistart subgradient ascent on a ratio of two largest
  singular values, both linear in the parameter vector.  It takes a stack
  of starts and advances them in lockstep, with one stacked SVD of each
  map per step; each start ends exactly as it would alone.  Steps decay
  geometrically, which keeps making progress at the sharp (nonsmooth)
  maxima these spectral objectives have.  Every evaluated iterate is
  feasible, so the best value seen is always a valid lower bound.
* ``seesaw_ascent``: when the denominator map is a bijection onto a full
  matrix space, the linearized subproblem (maximize a linear functional
  over the operator-norm ball) has an exact SVD solution.  Alternating
  exactly is monotone in the objective and converges much tighter than
  generic ascent.  It takes a stack of starts like ``ratio_ascent``, with
  three stacked SVDs per round (numerator images, denominator matrices and
  linearized functionals); each start ends exactly as it would alone.
* ``polar_seesaw``: the same exact alternation for the norm of a
  block-Kronecker sum over tuples of contractions (the maximal ell^1
  bound of ``quantization`` and the dual search of ``opspace``): the
  linearized subproblem is solved by a polar factor of the gradient, which
  only the caller knows how to take.
* ``sdp_maximize``: the one small SDP kernel, for a dense real SDP in
  standard dual form (maximize b^T y s.t. C - sum_i y_i A_i >= 0), solved
  by HKM primal-dual steps with a Mehrotra predictor-corrector
  (Helmberg-Rendl-Vanderbei-Wolkowicz, SIAM J. Optim. 6, 1996).  Its
  matrices are tiny, so a step calls LAPACK through ``scipy.linalg.lapack``
  directly: inverse Cholesky factors of X and S, one LU factor of the
  Schur matrix for both solves, and step lengths from eigenvalues alone.
  scipy is imported on the first solve, not with the package, so the
  commands that make no SDP solve never load it.
  The caller turns each iterate into a certified bracket, and the solve
  stops on the best bracket seen.
* ``spectral_min_sdp``: its quotient-norm instance, for the convex problem
  min_w sigma_max(B - K w), written as min t s.t. t I - D(B - K w) >= 0
  with D(M) = [[0, M], [M^T, 0]].  Every iterate gives an upper bound
  sigma_max(B - K w) and, from the primal matrix, a trace-norm
  certificate Z annihilating span K with |<B, Z>| / ||Z||_1 a lower bound
  (trace-norm duality; Effros-Ruan, "Operator Spaces", 2000, section 1).
  It returns the certified bracket.  The maximal ell^1 bound of
  ``quantization`` is the other instance.
* ``smoothed_spectral_min`` (smoothed-BFGS continuation) and
  ``polyak_minimize`` (adaptive Polyak subgradient descent): reference
  solvers for the same problem.  Nothing in the package calls them; they
  are kept for the tests, which compare the SDP against the first, and for
  the benchmark's tracer, which wraps both by name.  ``scipy.optimize``
  loads only when the first is called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm, kron_sum, kron_sum_grad


def top_singular_triple(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(sigma_max, u, v) with u^T m v = sigma_max."""
    u, s, vt = np.linalg.svd(m)
    return float(s[0]), u[:, 0], vt[0, :]


@dataclass
class LinearMatrixMap:
    """A linear map x -> matrix, stored as a (rows*cols, dim) vec matrix."""

    matrix: np.ndarray
    rows: int
    cols: int

    def value(self, x: np.ndarray) -> np.ndarray:
        """The matrix at x, or the (..., rows, cols) stack at a (..., dim)
        stack; each matrix of a stack comes out bit for bit as alone."""
        return (self.matrix @ x[..., None]).reshape(
            *x.shape[:-1], self.rows, self.cols)

    def sigma(self, x: np.ndarray) -> np.ndarray:
        """Largest singular value at each row of an (r, dim) stack."""
        return np.linalg.svd(self.value(x), compute_uv=False)[:, 0]

    def sigma_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Largest singular values and their gradients at each row of a
        (r, dim) stack, from one stacked SVD; a row whose matrix is zero
        gets value and gradient zero."""
        m = self.value(x)
        u, s, vt = np.linalg.svd(m)
        outer = u[:, :, 0, None] * vt[:, None, 0, :]
        grads = (self.matrix.T @ outer.reshape(len(x), -1, 1))[..., 0]
        grads[~m.any(axis=(1, 2))] = 0.0
        return s[:, 0], grads


def ratio_eval(num: LinearMatrixMap, den: LinearMatrixMap,
               x: np.ndarray) -> np.ndarray:
    """sigma(num x)/sigma(den x) at each row of an (r, dim) stack, 0 where
    the denominator vanishes."""
    sd = den.sigma(x)
    ok = sd > 1e-300
    return np.where(ok, num.sigma(x) / np.where(ok, sd, 1.0), 0.0)


def ratio_ascent(num: LinearMatrixMap, den: LinearMatrixMap, x0: np.ndarray,
                 iters: int = 500, step0: float = 0.5,
                 sign: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sign * sigma(num x)/sigma(den x) from each row of the
    (r, dim) stack of starts ``x0``; returns (best values, best points) as
    (r,) and (r, dim) arrays.

    Every start is normalized and the rows advance in lockstep: each step
    makes one stacked SVD of the numerator matrices and one of the
    denominator matrices, and moves each row along its normalized
    gradient.  The step decays geometrically from ``step0`` to 1e-13 over
    ``iters``.  A row retires where a lone ascent stops (a vanishing
    denominator or gradient), and a zero start has value 0 at itself.
    Each row keeps its own first strict maximum, so it ends exactly as it
    would alone.

    ``sign=-1`` turns the routine into a minimizer (used for isometry
    defects below 1).  The reported value is always sign * ratio at the
    best feasible iterate.  ``iters < 1`` raises ``ValueError``.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    x = np.array(x0, dtype=float)
    nx = frobenius_norm(x[:, None, :])
    live = np.flatnonzero(nx > 1e-300)
    best_val = np.where(nx > 1e-300, -np.inf, 0.0)
    x[live] /= nx[live, None]
    best_x = x.copy()
    x = x[live]
    decay = (1e-13 / step0) ** (1.0 / iters)
    step = step0
    for _ in range(iters):
        if not live.size:
            break
        sn, gn = num.sigma_grads(x)
        sd, gd = den.sigma_grads(x)
        keep = sd > 1e-300
        x, sn, gn, sd, gd, live = (x[keep], sn[keep], gn[keep], sd[keep],
                                   gd[keep], live[keep])
        val = sign * sn / sd
        better = val > best_val[live]
        best_val[live[better]] = val[better]
        best_x[live[better]] = x[better]
        g = sign * (gn * sd[:, None] - sn[:, None] * gd) / (sd * sd)[:, None]
        gnorm = frobenius_norm(g[:, None, :])
        keep = gnorm >= 1e-18
        x, g, gnorm, live = x[keep], g[keep], gnorm[keep], live[keep]
        x = x + step * (g / gnorm[:, None])
        x /= frobenius_norm(x[:, None, :])[:, None]
        step *= decay
    return best_val, best_x


def seesaw_ascent(num: LinearMatrixMap, den: LinearMatrixMap,
                  x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact alternating maximization of sigma(num x)/sigma(den x) from each
    row of the (r, dim) stack ``x0``, for at most 80 rounds; returns (best
    values, best points) as (r,) and (r, dim) arrays.

    Requires den.matrix to be square and invertible (the denominator space
    fills its ambient matrix space).  Monotone in the objective.  The rows
    advance in lockstep and each ends exactly as it would alone: a row
    retires at a zero start (value 0 at itself), a zero numerator, or no
    strict improvement beyond 1e-15.
    """
    dmat = den.matrix
    if dmat.shape[0] != dmat.shape[1]:
        raise ValueError("seesaw needs a bijective denominator realization")
    comp = num.matrix @ np.linalg.inv(dmat)
    x_best = np.array(x0, dtype=float)
    m = den.value(x_best)
    sm = np.linalg.svd(m, compute_uv=False)[:, 0]
    start = np.flatnonzero(sm > 1e-300)
    best_val = np.where(sm > 1e-300, -np.inf, 0.0)
    m[start] /= sm[start, None, None]
    best_m = m.copy()
    m, live = m[start], start
    rect_eye = np.eye(den.rows, den.cols)
    for _ in range(80):
        n = (comp @ m.reshape(-1, len(dmat), 1)).reshape(-1, num.rows,
                                                         num.cols)
        keep = n.any(axis=(1, 2))
        m, n, live = m[keep], n[keep], live[keep]
        if not live.size:
            break
        u, s, vt = np.linalg.svd(n)
        val = s[:, 0] / np.linalg.svd(m, compute_uv=False)[:, 0]
        prev = best_val[live]
        better = val > prev
        best_val[live[better]], best_m[live[better]] = val[better], m[better]
        keep = val > prev + 1e-15
        m, u, vt, live = m[keep], u[keep], vt[keep], live[keep]
        w = comp.T @ (u[:, :, :1] * vt[:, :1]).reshape(-1, len(comp), 1)
        u, _, vt = np.linalg.svd(w.reshape(-1, den.rows, den.cols))
        m = u @ rect_eye @ vt
    x_best[start] = np.linalg.solve(
        dmat, best_m[start].reshape(-1, len(dmat), 1))[..., 0]
    return np.where(best_val > -np.inf, best_val, 0.0), x_best


def polar_seesaw(coeffs: np.ndarray, starts: np.ndarray, iters: int,
                 polar) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact alternating maximization of || kron_sum(coeffs, D) || over
    tuples D of contractions, from each (d, m, m) tuple of the
    (r, d, m, m) stack ``starts``, for at most ``iters`` rounds; returns
    the (r,) best values, the (r, d, m, m) best tuples and the number of
    rounds taken.

    A round takes the top singular pair (u, v) of each realization and
    moves to ``polar(G)`` of the stacked gradient blocks
    G = kron_sum_grad(coeffs, u, v): the tuple of contractions maximizing
    the linearization u^T kron_sum(coeffs, D') v, which never lowers the
    value.  All starts advance in lockstep, with one stacked SVD of the
    realizations and the one of ``polar`` per round.  A start retires once
    a round gains no more than 1e-15 (a zero realization at once), and
    keeps its first strict maximum, so it ends exactly as it would alone.
    """
    ds, live = starts, np.arange(len(starts))
    best_val, best = np.zeros(len(starts)), starts.copy()
    rounds = 0
    while live.size and rounds < iters:
        if rounds:
            ds = polar(kron_sum_grad(coeffs, u[..., :, 0], vt[..., 0, :]))
        rounds += 1
        u, s, vt = np.linalg.svd(kron_sum(coeffs, ds))
        prev = best_val[live]
        better = s[:, 0] > prev
        best_val[live[better]], best[live[better]] = s[better, 0], ds[better]
        keep = s[:, 0] > prev + 1e-15
        ds, u, vt, live = ds[keep], u[keep], vt[keep], live[keep]
    return best_val, best, rounds


def polyak_minimize(b_vec: np.ndarray, k_mat: np.ndarray, rows: int, cols: int,
                    iters: int = 5000, tol: float = 1e-7,
                    delta_floor: float = 1e-12):
    """min over w of sigma_max(reshape(b_vec - k_mat w)).

    Reference solver; ``opspace.quotient_level_norm`` uses
    ``spectral_min_sdp``.

    Returns (value, w_best, gap_estimate, converged).  The value is the
    norm at the best iterate, hence a true upper bound; gap_estimate is
    the final adaptive target gap, an estimate (not a certificate) of the
    remaining suboptimality.
    """
    nvar = k_mat.shape[1]
    w = np.zeros(nvar)

    def eval_at(wv):
        m = (b_vec - k_mat @ wv).reshape(rows, cols)
        if not m.any():
            return 0.0, np.zeros(nvar)
        s, u, v = top_singular_triple(m)
        return s, -(k_mat.T @ np.outer(u, v).ravel())

    f, g = eval_at(w)
    f_rec = f
    w_best = w.copy()
    delta = max(0.2 * f, 1e-4)
    stall = 0
    converged = False
    for _ in range(iters):
        if f_rec <= 1e-15:
            delta = 0.0
            converged = True
            break
        gn2 = float(g @ g)
        if gn2 < 1e-30:
            # zero subgradient of a convex function: global minimum
            delta = 0.0
            converged = True
            break
        target = f_rec - delta
        w = w - ((f - target) / gn2) * g
        f, g = eval_at(w)
        if f < f_rec:
            gained = f_rec - f
            f_rec = f
            w_best = w.copy()
            stall = 0 if gained > 0.25 * delta else stall + 1
        else:
            stall += 1
        if stall >= 40:
            delta = max(delta / 2.0, delta_floor)
            stall = 0
        if delta < tol * 1e-2:
            converged = True
            break
    return f_rec, w_best, delta, converged or delta <= tol


MU_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)


def smoothed_spectral_min(b_vec: np.ndarray, k_mat: np.ndarray, rows: int,
                          cols: int, w0: np.ndarray):
    """Smoothing continuation for min_w sigma_max(reshape(b_vec - k_mat w)),
    started at w0, through the smoothing levels of MU_SCHEDULE.  Reference
    solver; ``opspace.quotient_level_norm`` uses ``spectral_min_sdp``.

    Returns (value, w, gap_estimate): value is the exact norm at the final
    iterate (a true upper bound); the gap estimate combines the smoothing
    error mu * log(side) with the progress of the last stage.
    """
    import scipy.optimize

    side = rows + cols

    def stage(mu):
        def f_g(w):
            m = (b_vec - k_mat @ w).reshape(rows, cols)
            s = np.zeros((side, side))
            s[:rows, rows:] = m
            s[rows:, :rows] = m.T
            lam, u = np.linalg.eigh(s)
            top = lam[-1]
            z = (lam - top) / mu
            weights = np.exp(z)
            total = weights.sum()
            f = top + mu * np.log(total)
            g_mat = (u * (weights / total)) @ u.T
            grad = -2.0 * (k_mat.T @ g_mat[:rows, rows:].ravel())
            return f, grad
        return f_g

    w = np.asarray(w0, dtype=float).copy()
    prev_val = None
    last_gain = np.inf
    for mu in MU_SCHEDULE:
        res = scipy.optimize.minimize(
            stage(mu), w, jac=True,
            method="BFGS", options={"maxiter": 300, "gtol": 1e-15})
        w = res.x
        m = (b_vec - k_mat @ w).reshape(rows, cols)
        val = float(np.linalg.svd(m, compute_uv=False)[0]) if m.any() else 0.0
        if prev_val is not None:
            last_gain = abs(prev_val - val)
        prev_val = val
    gap = max(MU_SCHEDULE[-1] * np.log(max(side, 2)), last_gain
              if last_gain is not np.inf else 0.0)
    return prev_val, w, float(gap)


#: sdp_maximize stops once its bracket is at most this times
#: max(1, upper bound)
SDP_BRACKET = 1e-10
#: iteration cap of sdp_maximize
SDP_MAX_ITERS = 50


@dataclass
class SdpResult:
    upper: float             # best certified upper bound seen
    lower: float             # best certified lower bound seen
    y: np.ndarray | None     # dual iterate that gave ``upper``, if any
    x: np.ndarray | None     # primal iterate that gave ``lower``, if any
    iterations: int          # completed steps


def _inv_cholesky(m: np.ndarray) -> np.ndarray:
    """L^-1 for the lower Cholesky factor L of m (m = L L^T), from LAPACK
    dpotrf and dtrtri; LinAlgError when m is not numerically positive
    definite."""
    from scipy.linalg import lapack

    factor, info = lapack.dpotrf(m, lower=1, clean=1)
    if not info:
        factor, info = lapack.dtrtri(factor, lower=1)
    if info:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return factor


def sdp_maximize(a: np.ndarray, c_mat: np.ndarray, b: np.ndarray,
                 x0: np.ndarray, y0: np.ndarray, bracket, upper: float,
                 lower: float = 0.0) -> SdpResult:
    """Small dense real SDP in standard dual form: maximize b^T y subject
    to S = C - sum_i y_i A_i >= 0, with primal min <C, X> over X >= 0 with
    <A_i, X> = b_i.  ``a`` is the (m, N, N) stack of symmetric A_i and
    ``c_mat`` the symmetric N x N matrix C; a block-diagonal problem puts
    its blocks on the diagonal of one N x N matrix.

    The solve starts at the strictly feasible dual point ``y0`` and the
    positive definite ``x0``; X need not be primal feasible, as each step
    also reduces the primal residual b - A(X).  Each HKM step
    (Helmberg-Rendl-Vanderbei-Wolkowicz, SIAM J. Optim. 6, 1996) factors
    the Schur matrix M_ij = tr(A_i X A_j S^-1) once (LAPACK dgetrf) and
    solves it twice (Mehrotra predictor, then corrector with
    sigma = (gap_aff / gap)^3).  It moves 0.98 of the largest step keeping
    X and S positive definite, capped at 1, read off the least eigenvalues
    of L^-1 dX L^-T for the Cholesky factors L of X and S.  An exactly
    singular Schur matrix gives its steps by least squares.

    After each step ``bracket(x, y)`` turns the iterate into a certified
    (upper, lower) pair for the caller's value, the minimum -max b^T y, so
    that dual points y give its upper bounds and primal points x its lower
    bounds; it must not rely on the iterate being exactly feasible.  The
    least upper (with its y) and the greatest lower (with its x) seen are
    kept, starting from ``upper`` and ``lower``, which must be finite, and
    the solve stops once upper - lower <= SDP_BRACKET * max(1, upper),
    after SDP_MAX_ITERS steps, or on a LinAlgError of a Cholesky factor of
    X or S near the optimum, which ends the solve with the bounds reached
    so far.
    """
    if not (np.isfinite(upper) and np.isfinite(lower)):
        raise ValueError(f"sdp_maximize needs finite starting bounds, got "
                         f"upper={upper}, lower={lower}")
    from scipy.linalg import lapack

    side = len(c_mat)
    a_f = a.reshape(len(a), -1)
    y_best = x_best = None
    y = np.asarray(y0, dtype=float)
    x = x0
    s = c_mat - (y @ a_f).reshape(side, side)
    iterations = 0
    try:
        while iterations < SDP_MAX_ITERS and \
                upper - lower > SDP_BRACKET * max(1.0, upper):
            x_ci = _inv_cholesky(x)
            s_ci = _inv_cholesky(s)
            s_inv = s_ci.T @ s_ci
            r_p = b - a_f @ x.ravel()
            r_d = c_mat - s - (y @ a_f).reshape(side, side)
            x_rd = x @ r_d @ s_inv
            schur = a_f @ (x @ a @ s_inv).reshape(len(a), -1).T
            lu, piv, info = lapack.dgetrf(schur)

            def direction(target):
                rhs = r_p - a_f @ (target - x_rd).ravel()
                if info:
                    # exactly singular near the optimum
                    dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
                else:
                    dy = lapack.dgetrs(lu, piv, rhs)[0]
                ds = r_d - (dy @ a_f).reshape(side, side)
                dx = target - x @ ds @ s_inv
                return (dx + dx.T) / 2.0, dy, ds

            def steps(dx, ds):
                # 0.98 of the largest a keeping X + a dX, resp. S + a dS,
                # positive definite, capped at 1; the least eigenvalues of
                # both scaled directions from one stacked eigvalsh
                lam = np.linalg.eigvalsh(np.stack([x_ci @ dx @ x_ci.T,
                                                   s_ci @ ds @ s_ci.T]))[:, 0]
                return [min(1.0, -0.98 / v) if v < 0 else 1.0 for v in lam]

            gap = float(np.vdot(x, s))
            dx, dy, ds = direction(-x)
            ap, ad = steps(dx, ds)
            sigma = (float(np.vdot(x + ap * dx, s + ad * ds)) / gap) ** 3
            dx, dy, ds = direction(sigma * gap / side * s_inv - x -
                                   dx @ ds @ s_inv)
            ap, ad = steps(dx, ds)
            x = x + ap * dx
            y = y + ad * dy
            s = s + ad * ds
            iterations += 1
            hi, lo = bracket(x, y)
            if hi < upper:
                upper, y_best = hi, y
            if lo > lower:
                lower, x_best = lo, x
    except np.linalg.LinAlgError:
        pass
    return SdpResult(upper, lower, y_best, x_best, iterations)


def spectral_min_sdp(b_vec: np.ndarray, k_mat: np.ndarray, rows: int,
                     cols: int, w0: np.ndarray):
    """Certified bracket on min_w sigma_max(reshape(b_vec - k_mat w)).

    The instance of ``sdp_maximize``: maximize -t subject to
    S = C - t A_0 - sum_j w_j A_j >= 0 with A_0 = -I, A_j = -D(K_j) and
    C = -D(B); its primal is max <D(B), X> over X >= 0 with tr X = 1 and
    <D(K_j), X> = 0.  Both sides start strictly feasible, at
    (t, w) = (s0 + max(1, 2^-20 s0), w0) with s0 = sigma_max(B - K w0),
    and X = I / N: the margin is 1 up to s0 = 2^20 and relative beyond,
    so that it never rounds away.

    After each step, sigma_max(B - K w) is an upper bound.  The
    off-diagonal block Z of X, projected in the Frobenius norm onto the
    annihilator of span K, gives the lower bound |<B, Z>| / ||Z||_1,
    whatever the residuals of X.  When K has dependent columns, the solve
    runs in the independent variables v of the orthonormal basis U of
    span K from its SVD K = U s V^T (w = V v / s), so that no iterate can
    drift along the null space of K.

    Returns (value, w, lower, z, iterations): value = sigma_max at w, the
    least of w0, w = 0 and every iterate; lower <= the infimum <= value;
    z is the unprojected off-diagonal block of the X that gave ``lower``
    (zero when no step was made); iterations counts completed steps.
    """
    side = rows + cols

    def dilations(vecs):
        m = vecs.reshape(-1, rows, cols)
        d = np.zeros((m.shape[0], side, side))
        d[:, :rows, rows:] = m
        d[:, rows:, :rows] = m.transpose(0, 2, 1)
        return d

    def norm_at(w):
        m = (b_vec - k_mat @ w).reshape(rows, cols)
        return float(np.linalg.svd(m, compute_uv=False)[0])

    # orthonormal basis of span K.  A zero or dependent column gives Q an
    # arbitrary extra direction (and one before an independent column also
    # leaves part of span K out), so a rank-deficient K takes the left
    # singular vectors of its nonzero singular values instead, and the
    # solve runs over that basis
    w0 = np.asarray(w0, dtype=float)
    basis, r_mat = np.linalg.qr(k_mat)
    r_diag = np.abs(np.diag(r_mat))
    k_sdp, v0, to_w = k_mat, w0, None
    if not (r_diag > 1e-12 * r_diag.max(initial=0.0)).all():
        u, sv, vt = np.linalg.svd(k_mat, full_matrices=False)
        keep = sv > 1e-12 * sv.max(initial=0.0)
        basis = k_sdp = u[:, keep]
        v0, to_w = sv[keep] * (vt[keep] @ w0), vt[keep].T / sv[keep]

    def w_of(v):
        return v if to_w is None else to_w @ v

    def bracket(x, y):
        # one stacked SVD: sigma_max(B - K w) and ||Z||_1
        z = x[:rows, rows:].ravel()
        z_ann = z - basis @ (basis.T @ z)
        sv = np.linalg.svd(np.stack([b_vec - k_mat @ w_of(y[1:]), z_ann])
                           .reshape(2, rows, cols), compute_uv=False)
        trace_norm = sv[1].sum()
        return float(sv[0, 0]), \
            float(abs(b_vec @ z_ann) / trace_norm) if trace_norm > 0 else 0.0

    # A_0 = -I and A_j = -D(K_j)
    a = np.concatenate([-np.eye(side)[None], -dilations(k_sdp.T)])
    obj = np.zeros(len(a))
    obj[0] = -1.0
    start, origin = norm_at(w0), norm_at(np.zeros(len(w0)))
    value, w_best = (origin, np.zeros(len(w0))) if origin < start \
        else (start, w0.copy())
    t0 = start + max(1.0, 2.0 ** -20 * start)
    res = sdp_maximize(a, -dilations(b_vec)[0], obj, np.eye(side) / side,
                       np.concatenate([[t0], v0]), bracket, value)
    if res.y is not None:
        w_best = w_of(res.y[1:])
    z_best = np.zeros((rows, cols)) if res.x is None \
        else res.x[:rows, rows:].copy()
    return res.upper, w_best, res.lower, z_best, res.iterations
