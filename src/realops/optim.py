"""Nonsmooth search kernels shared by the norm-certification routines.

Five workhorses and two reference solvers:

* ``ratio_ascent``: multistart subgradient ascent that maximizes a ratio
  of two largest singular values, both linear in the parameter vector;
  ``opspace.cb_norm_levels`` runs it on domains that do not fill their
  ambient space.  It takes a stack of starts and advances them in
  lockstep, with one stacked SVD of each map per step; each start ends
  exactly as it would alone.  Steps decay geometrically, which keeps
  making progress at the sharp (nonsmooth) maxima these spectral
  objectives have.  Every evaluated iterate is feasible, so the best
  value seen is always a valid lower bound.
* ``polar_seesaw``: exact alternating (seesaw) maximization of a largest
  singular value, linear in a point of a convex set.  The linearized
  subproblem is solved by a polar step that only the caller knows how to
  take, so the value never falls, and it converges much tighter than
  generic ascent.  Starts advance in lockstep for at most SEESAW_ROUNDS
  rounds, one stacked SVD a round besides the polar step's, and each ends
  exactly as it would alone.  It serves the dual search of ``opspace`` and
  ``seesaw_ascent``: the ratio of ``ratio_ascent`` when the denominator is
  a bijection onto a full matrix space, maximized over the unit ball of
  its matrices.
* ``sdp_maximize``: the one small SDP kernel, for a dense real SDP min t
  s.t. C - t A_0 - sum_i y_i A_i >= 0, A_0 = -I on the blocks t bounds,
  from X = I / tr(-A_0) by HKM primal-dual steps with a Mehrotra
  predictor-corrector (Helmberg-Rendl-Vanderbei-Wolkowicz, SIAM J. Optim.
  6, 1996).  Its matrices are tiny, so a step calls LAPACK through
  ``scipy.linalg.lapack`` directly: inverse Cholesky factors of X and S,
  one LU factor of the Schur matrix for both solves, each corrector step
  length from one eigenvalue and each predictor step length from a few
  Cholesky tests on a grid.  scipy is imported on the first solve, not
  with the package, so the commands that make no SDP solve never load
  it.
  The caller turns each iterate into a certified bracket, and the solve
  stops on the best bracket seen, once it is closed (``bracket_closed``).
  Both instances check that rule on their starting bracket first and,
  when it already holds, build no SDP and load no scipy.
* ``spectral_min_sdp``: its quotient-norm instance, for the convex problem
  min_w sigma_max(B - K w), solved in the one orthonormal basis U of
  span K from an SVD of K and in residual coordinates around the
  least-squares point: min t s.t. t I - D(r0 - U dv) >= 0 with
  r0 = B - U U^T B and D = ``linalg.dilation``.  Every iterate gives an
  upper bound sigma_max(r0 - U dv) and, from the primal matrix, a
  trace-norm certificate Z annihilating span K with |<r0, Z>| / ||Z||_1 a
  lower bound (trace-norm duality; Effros-Ruan, "Operator Spaces", 2000,
  section 1).  It returns the certified bracket.  The maximal ell^1 bound
  of ``quantization`` is the other instance.
* ``smoothed_spectral_min`` (smoothed-BFGS continuation) and
  ``polyak_minimize`` (adaptive Polyak subgradient descent): reference
  solvers for the same problem.  Nothing in the package calls them; they
  are kept for the tests, which compare the SDP against the first, and for
  the benchmark's tracer, which wraps both by name.  ``scipy.optimize``
  loads only when the first is called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dilation, frobenius_norm


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
                 iters: int = 500,
                 step0: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sigma(num x)/sigma(den x) from each row of the
    (r, dim) stack of starts ``x0``; returns (best values, best points) as
    (r,) and (r, dim) arrays.

    Every start is normalized and the rows advance in lockstep: each step
    makes one stacked SVD of the numerator matrices and one of the
    denominator matrices, and moves each row along its normalized
    gradient.  The step decays geometrically from ``step0`` to 1e-13 over
    ``iters``.  A row retires where a lone ascent stops (a vanishing
    denominator or gradient), and a zero start has value 0 at itself.
    Each row keeps its own first strict maximum, so it ends exactly as it
    would alone.  The reported value is the ratio at the best feasible
    iterate.  ``iters < 1`` raises ``ValueError``.
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
        val = sn / sd
        better = val > best_val[live]
        best_val[live[better]] = val[better]
        best_x[live[better]] = x[better]
        g = (gn * sd[:, None] - sn[:, None] * gd) / (sd * sd)[:, None]
        gnorm = frobenius_norm(g[:, None, :])
        keep = gnorm >= 1e-18
        x, g, gnorm, live = x[keep], g[keep], gnorm[keep], live[keep]
        x = x + step * (g / gnorm[:, None])
        x /= frobenius_norm(x[:, None, :])[:, None]
        step *= decay
    return best_val, best_x


#: round cap of every polar_seesaw search
SEESAW_ROUNDS = 150


def polar_seesaw(realize, gradient, polar,
                 starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact alternating maximization of sigma_max(realize(D)) over a convex
    set of points D, from each point of the stack ``starts``, for at most
    SEESAW_ROUNDS rounds; returns the (r,) best values, the stack of best
    points and the number of rounds taken.

    ``realize`` maps a stack of points linearly to a stack of matrices,
    ``gradient(u, v)`` gives the stacked gradients of u^T realize(D) v in
    D, and ``polar(G)`` the points D' of the set maximizing <G, D'>.  A
    round takes the top singular pair (u, v) of each realization and moves
    to ``polar(gradient(u, v))``, which maximizes the linearization and so
    never lowers the value.  All starts advance in lockstep, with one
    stacked SVD of the realizations and the ones of ``polar`` per round.
    A start retires once a round gains no more than 1e-15 (a zero
    realization at once), and keeps its first strict maximum, so it ends
    exactly as it would alone.
    """
    ds, live = starts, np.arange(len(starts))
    best_val, best = np.zeros(len(starts)), starts.copy()
    rounds = 0
    while live.size and rounds < SEESAW_ROUNDS:
        if rounds:
            ds = polar(gradient(u[..., :, 0], vt[..., 0, :]))
        rounds += 1
        u, s, vt = np.linalg.svd(realize(ds))
        prev = best_val[live]
        better = s[:, 0] > prev
        best_val[live[better]], best[live[better]] = s[better, 0], ds[better]
        keep = s[:, 0] > prev + 1e-15
        ds, u, vt, live = ds[keep], u[keep], vt[keep], live[keep]
    return best_val, best, rounds


def seesaw_ascent(num: LinearMatrixMap, den: LinearMatrixMap,
                  x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact alternating maximization of sigma(num x)/sigma(den x) from each
    row of the (r, dim) stack ``x0``, for at most SEESAW_ROUNDS rounds;
    returns (best values, best points) as (r,) and (r, dim) arrays.

    Requires den.matrix to be square and invertible (the denominator space
    fills its ambient matrix space), so that the ratio is sigma(C M) over
    the unit ball sigma(M) = 1, C = num.matrix @ inv(den.matrix).  Each
    start is scaled into that ball (one of norm <= 1e-300 to zero) and
    ``polar_seesaw`` runs there, its polar step U I V^T one SVD.  Each row
    ends exactly as it would alone; each value is the ratio at its point.
    """
    dmat = den.matrix
    if dmat.shape[0] != dmat.shape[1]:
        raise ValueError("seesaw needs a bijective denominator realization")
    comp = num.matrix @ np.linalg.inv(dmat)
    rect_eye = np.eye(den.rows, den.cols)

    def realize(ms):
        return (comp @ ms.reshape(-1, len(dmat), 1)).reshape(-1, num.rows,
                                                             num.cols)

    def gradient(u, v):
        return (comp.T @ (u[:, :, None] * v[:, None, :]).reshape(
            -1, len(comp), 1)).reshape(-1, den.rows, den.cols)

    def polar(grads):
        u, _, vt = np.linalg.svd(grads)
        return u @ rect_eye @ vt

    m = den.value(np.asarray(x0, dtype=float))
    sm = np.linalg.svd(m, compute_uv=False)[:, 0]
    m /= np.where(sm > 1e-300, sm, np.inf)[:, None, None]
    best = polar_seesaw(realize, gradient, polar, m)[1]
    x = np.linalg.solve(dmat, best.reshape(len(best), -1, 1))[..., 0]
    return ratio_eval(num, den, x), x


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
            lam, u = np.linalg.eigh(dilation(
                (b_vec - k_mat @ w).reshape(rows, cols)))
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


#: a certified bracket is closed once it is at most this times
#: max(1, upper bound); see ``bracket_closed``
SDP_BRACKET = 1e-10
#: iteration cap of sdp_maximize
SDP_MAX_ITERS = 50


def bracket_closed(upper: float, lower: float) -> bool:
    """Whether a certified bracket lower <= value <= upper needs no SDP
    step: upper - lower <= SDP_BRACKET * max(1, upper).  It is the loop
    test of ``sdp_maximize``, and both of its instances check it on their
    starting bracket before they build anything.  A bracket with a
    non-finite side is never closed."""
    return math.isfinite(upper) and math.isfinite(lower) and \
        upper - lower <= SDP_BRACKET * max(1.0, upper)


@dataclass
class SdpResult:
    upper: float             # best certified upper bound seen
    lower: float             # best certified lower bound seen
    y: np.ndarray | None     # dual iterate that gave ``upper``, if any
    x: np.ndarray | None     # primal iterate that gave ``lower``, if any
    iterations: int          # completed steps


#: share of the largest step to the boundary of the cone that a step takes
STEP_FRACTION = 0.98
#: the predictor's trial steps, largest first
PREDICTOR_STEPS = (1.0, 0.9, 0.75, 0.5, 0.25, 0.1)


@functools.cache
def _lapack():
    """``scipy.linalg.lapack``, imported on first use, so that the commands
    that make no SDP solve never load scipy."""
    from scipy.linalg import lapack
    return lapack


def _inv_cholesky(m: np.ndarray) -> np.ndarray:
    """L^-1 for the lower Cholesky factor L of m (m = L L^T), from LAPACK
    dpotrf and dtrtri; LinAlgError when m is not numerically positive
    definite."""
    lapack = _lapack()
    factor, info = lapack.dpotrf(m, lower=1, clean=1)
    if not info:
        factor, info = lapack.dtrtri(factor, lower=1)
    if info:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return factor


def _step_length(ci: np.ndarray, d: np.ndarray) -> float:
    """min(1, STEP_FRACTION of the largest a keeping M + a D positive
    definite) for M = ci^-1 ci^-T and a symmetric D: min(1, -STEP_FRACTION /
    lam) for the least eigenvalue lam of ci D ci^T, the only one computed
    (LAPACK dsyevr), when lam < 0."""
    w, _, _, _, info = _lapack().dsyevr(ci @ d @ ci.T, compute_v=0,
                                        range="I", il=1, iu=1)
    if info:
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    return min(1.0, -STEP_FRACTION / w[0]) if w[0] < 0 else 1.0


def _predictor_step(m: np.ndarray, d: np.ndarray) -> float:
    """The first a of PREDICTOR_STEPS for which m + (a / STEP_FRACTION) d
    has a Cholesky factor (LAPACK dpotrf), or 0.0 when none has: a step
    length never above ``_step_length`` of the same pair, from a few
    factorizations instead of an eigenvalue.  A failed test only means a
    shorter step."""
    dpotrf = _lapack().dpotrf
    for a in PREDICTOR_STEPS:
        if not dpotrf(m + (a / STEP_FRACTION) * d, lower=1, clean=0)[1]:
            return a
    return 0.0


def sdp_maximize(a: np.ndarray, c_mat: np.ndarray, y0: np.ndarray, bracket,
                 upper: float, lower: float = 0.0) -> SdpResult:
    """Small dense real SDP min t: maximize -t = -y_0 subject to
    S = C - sum_i y_i A_i >= 0, where A_0 is -I on the blocks that t bounds
    and 0 elsewhere; ``a`` is the (m, N, N) stack of symmetric A_i and
    ``c_mat`` the symmetric N x N matrix C (a block-diagonal problem puts
    its blocks on the diagonal of one N x N matrix).

    The solve starts at ``y0``, which must be strictly dual feasible, and
    at X = I / tr(-A_0); X need not be feasible for the primal min <C, X>
    over X >= 0, <A_0, X> = -1, <A_i, X> = 0 (i > 0), as each step also
    reduces its residual b - A(X), b = -e_0.  S is formed from y,
    so there is no dual residual.  Each HKM step (Helmberg-Rendl-Vanderbei-
    Wolkowicz, SIAM J. Optim. 6, 1996) factors the Schur matrix
    M_ij = tr(A_i X A_j S^-1) once (LAPACK dgetrf) and solves it twice
    (Mehrotra predictor, then corrector with sigma = (gap_aff / gap)^3).
    The predictor's step lengths, which only set sigma, come from
    ``_predictor_step`` (Cholesky tests on the grid PREDICTOR_STEPS),
    never longer than the exact ones; the corrector moves X and S by the
    exact ``_step_length``.  M is nonsingular when the A_i are
    independent, as both callers' constraints are by construction: A_0 =
    -I against the off-diagonal D(U_j) of an orthonormal U in the
    quotient, and blocks in disjoint positions in Haagerup's SDP.  Its
    steps come by least squares only on an exactly zero pivot of its LU
    factor.

    After each step ``bracket(x, y)`` turns the iterate into a certified
    (upper, lower) pair for the caller's value, the minimum t, so
    that dual points y give its upper bounds and primal points x its lower
    bounds; it must not rely on the iterate being exactly feasible.  The
    least upper (with its y) and the greatest lower (with its x) seen are
    kept, starting from ``upper`` and ``lower``, which must be finite, and
    the solve stops once ``bracket_closed(upper, lower)``, after
    SDP_MAX_ITERS steps, or on a LinAlgError of a Cholesky factor of X or
    S near the optimum, which ends the solve with the bounds reached so
    far.  A starting bracket that is already closed returns at once with
    no step and no iterate (y and x None); both instances check that
    before they build the problem, so that they skip building it.
    """
    if not (np.isfinite(upper) and np.isfinite(lower)):
        raise ValueError(f"sdp_maximize needs finite starting bounds, got "
                         f"upper={upper}, lower={lower}")
    lapack = _lapack()
    side = len(c_mat)
    a_f = a.reshape(len(a), -1)
    b = np.where(np.arange(len(a)), 0.0, -1.0)
    y_best = x_best = None
    y = np.asarray(y0, dtype=float)
    x = np.eye(side) / -np.trace(a[0])
    iterations = 0
    try:
        while iterations < SDP_MAX_ITERS and \
                not bracket_closed(upper, lower):
            s = c_mat - (y @ a_f).reshape(side, side)
            x_ci = _inv_cholesky(x)
            s_ci = _inv_cholesky(s)
            s_inv = s_ci.T @ s_ci
            r_p = b - a_f @ x.ravel()
            schur = a_f @ (x @ a @ s_inv).reshape(len(a), -1).T
            lu, piv, info = lapack.dgetrf(schur)

            def direction(target):
                rhs = r_p - a_f @ target.ravel()
                if info:
                    dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
                else:
                    dy = lapack.dgetrs(lu, piv, rhs)[0]
                ds = -(dy @ a_f).reshape(side, side)
                dx = target - x @ ds @ s_inv
                return (dx + dx.T) / 2.0, dy, ds

            gap = float(np.vdot(x, s))
            dx, dy, ds = direction(-x)
            ap, ad = _predictor_step(x, dx), _predictor_step(s, ds)
            sigma = (float(np.vdot(x + ap * dx, s + ad * ds)) / gap) ** 3
            dx, dy, ds = direction(sigma * gap / side * s_inv - x -
                                   dx @ ds @ s_inv)
            x = x + _step_length(x_ci, dx) * dx
            y = y + _step_length(s_ci, ds) * dy
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
                     cols: int):
    """Certified bracket on min_w sigma_max(reshape(b_vec - k_mat w)).

    One SVD K = U s V^T, keeping the singular values above 1e-12 times the
    largest, gives the orthonormal basis U of span K, and the solve runs
    in residual coordinates around the least-squares point v0 = U^T B:
    over dv in the residual R = r0 - U dv, r0 = B - U v0 formed once, so
    that no component of B inside span K, however large, enters a step,
    and no iterate can drift along the null space of K.  When the
    starting bracket 0 <= infimum <= sigma_max(r0) is already closed,
    ``bracket_closed(sigma_max(r0), 0)``, which holds exactly when
    sigma_max(r0) <= SDP_BRACKET, w0 = V v0 / s is returned at once with
    lower bound 0 and no step, before anything is built and before scipy
    loads.

    Otherwise the instance of ``sdp_maximize``: min t subject to
    S = C - t A_0 - sum_j dv_j A_j >= 0 with A_0 = -I, A_j = -D(U_j) and
    C = -D(r0); its primal is max <D(r0), X> over X >= 0 with tr X = 1
    and <D(U_j), X> = 0.  Both sides start strictly feasible, at
    (t, dv) = (s0 + max(1, 2^-20 s0), 0) with s0 = sigma_max(r0), and
    X = I / N: the margin is 1 up to s0 = 2^20 and relative beyond, so
    that it never rounds away.

    After each step, sigma_max(r0 - U dv) is an upper bound.  The
    off-diagonal block Z of X, projected in the Frobenius norm onto the
    annihilator of span K, gives the lower bound |<r0, Z>| / ||Z||_1
    (equal to |<B, Z>| / ||Z||_1, as Z is orthogonal to span K), whatever
    the residuals of X.

    Returns (value, w, lower, z, iterations): value = sigma_max(r0 - U dv),
    the least over the start and every iterate, and w = V (v0 + dv) / s,
    at which B - K w is that residual up to roundoff; lower <= the
    infimum <= value; z is the unprojected off-diagonal block of the X
    that gave ``lower`` (zero when no step was made); iterations counts
    completed steps.
    """
    side = rows + cols
    u, sv, vt = np.linalg.svd(k_mat, full_matrices=False)
    keep = sv > 1e-12 * sv.max(initial=0.0)
    basis, to_w = u[:, keep], vt[keep].T / sv[keep]
    v0 = basis.T @ b_vec
    r0 = b_vec - basis @ v0
    start = float(np.linalg.svd(r0.reshape(rows, cols), compute_uv=False)[0])
    if bracket_closed(start, 0.0):
        return start, to_w @ v0, 0.0, np.zeros((rows, cols)), 0

    def singular_values(vec):
        _, sv, _, info = _lapack().dgesdd(vec.reshape(rows, cols),
                                          compute_uv=0)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
        return sv

    def bracket(x, y):
        # sigma_max(r0 - U dv) and ||Z||_1, each from one LAPACK dgesdd
        z = x[:rows, rows:].ravel()
        z_ann = z - basis @ (basis.T @ z)
        trace_norm = singular_values(z_ann).sum()
        return float(singular_values(r0 - basis @ y[1:])[0]), \
            float(abs(r0 @ z_ann) / trace_norm) if trace_norm > 0 else 0.0

    # A_0 = -I and A_j = -D(U_j)
    a = np.concatenate([-np.eye(side)[None],
                        -dilation(basis.T.reshape(-1, rows, cols))])
    t0 = start + max(1.0, 2.0 ** -20 * start)
    res = sdp_maximize(a, -dilation(r0.reshape(rows, cols)),
                       np.concatenate([[t0], np.zeros(len(v0))]), bracket,
                       start)
    v = v0 if res.y is None else v0 + res.y[1:]
    z = np.zeros((rows, cols)) if res.x is None else res.x[:rows, rows:].copy()
    return res.upper, to_w @ v, res.lower, z, res.iterations
