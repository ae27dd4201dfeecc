"""Nonsmooth search kernels shared by the norm-certification routines.

Three workhorses and a reference solver:

* ``ratio_ascent``: multistart subgradient ascent on a ratio of two largest
  singular values, both linear in the parameter vector.  Steps decay
  geometrically, which keeps making progress at the sharp (nonsmooth)
  maxima these spectral objectives have.  Every evaluated iterate is
  feasible, so the best value seen is always a valid lower bound.
* ``seesaw_ascent``: when the denominator map is a bijection onto a full
  matrix space, the linearized subproblem (maximize a linear functional
  over the operator-norm ball) has an exact SVD solution.  Alternating
  exactly is monotone in the objective and converges much tighter than
  generic ascent.
* ``smoothed_spectral_min``: the quotient-norm solver for the convex
  problem min_w sigma_max(B - K w).  Quotient norms start it at the
  least-squares point w0 = lstsq(K, B) and skip it when that point's
  residual already vanishes (operator norm at most 1e-13).  sigma_max is
  the top eigenvalue of the symmetric dilation, smoothed by
  mu * logsumexp(eigenvalues / mu) and minimized by warm-started BFGS
  while mu shrinks; plain subgradient steps stall when the optimum has a
  multiple top singular value, the smoothed path does not.  Returns the
  achieved value (an upper bound on the infimum) plus a gap estimate.
* ``polyak_minimize``: adaptive Polyak subgradient descent for the same
  problem, kept as a reference solver.  Nothing in the package calls it:
  quotient norms go straight from the least-squares point to the
  continuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize


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
        return (self.matrix @ x).reshape(self.rows, self.cols)

    def sigma(self, x: np.ndarray) -> float:
        m = self.value(x)
        if not m.any():
            return 0.0
        return float(np.linalg.svd(m, compute_uv=False)[0])

    def sigma_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        m = self.value(x)
        if not m.any():
            return 0.0, np.zeros(self.matrix.shape[1])
        s, u, v = top_singular_triple(m)
        return s, self.matrix.T @ np.outer(u, v).ravel()


def ratio_eval(num: LinearMatrixMap, den: LinearMatrixMap, x: np.ndarray) -> float:
    sd = den.sigma(x)
    if sd <= 1e-300:
        return 0.0
    return num.sigma(x) / sd


def ratio_ascent(num: LinearMatrixMap, den: LinearMatrixMap, x0: np.ndarray,
                 iters: int = 500, step0: float = 0.5,
                 sign: float = 1.0) -> tuple[float, np.ndarray]:
    """Maximize sign * sigma(num x)/sigma(den x); returns (best value, best x).

    The step decays geometrically from ``step0`` to 1e-13 over ``iters``.

    ``sign=-1`` turns the routine into a minimizer (used for isometry
    defects below 1).  The reported value is always sign * ratio at the
    best feasible iterate.
    """
    x = np.asarray(x0, dtype=float).copy()
    nx = np.linalg.norm(x)
    if nx <= 1e-300:
        return 0.0, x
    x /= nx
    decay = (1e-13 / step0) ** (1.0 / max(iters, 1))
    step = step0
    best_val = -np.inf
    best_x = x.copy()
    for _ in range(iters):
        sn, gn = num.sigma_and_grad(x)
        sd, gd = den.sigma_and_grad(x)
        if sd <= 1e-300:
            break
        val = sign * sn / sd
        if val > best_val:
            best_val = val
            best_x = x.copy()
        g = sign * (gn * sd - sn * gd) / (sd * sd)
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-18:
            break
        x = x + step * (g / gnorm)
        x /= np.linalg.norm(x)
        step *= decay
    return best_val, best_x


def seesaw_ascent(num: LinearMatrixMap, den: LinearMatrixMap,
                  x0: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact alternating maximization of sigma(num x)/sigma(den x), for at
    most 80 rounds.

    Requires den.matrix to be square and invertible (the denominator space
    fills its ambient matrix space).  Monotone in the objective.
    """
    dmat = den.matrix
    if dmat.shape[0] != dmat.shape[1]:
        raise ValueError("seesaw needs a bijective denominator realization")
    comp = num.matrix @ np.linalg.inv(dmat)
    m = den.value(np.asarray(x0, dtype=float))
    sm = np.linalg.svd(m, compute_uv=False)[0] if m.any() else 0.0
    if sm <= 1e-300:
        return 0.0, np.asarray(x0, dtype=float)
    m = m / sm
    rect_eye = np.eye(den.rows, den.cols)
    best_val = -np.inf
    best_m = m.copy()
    for _ in range(80):
        n = (comp @ m.ravel()).reshape(num.rows, num.cols)
        if not n.any():
            break
        sn, s, t = top_singular_triple(n)
        val = sn / float(np.linalg.svd(m, compute_uv=False)[0])
        if val > best_val + 1e-15:
            best_val = val
            best_m = m.copy()
        else:
            if val > best_val:
                best_val, best_m = val, m.copy()
            break
        w = (comp.T @ np.outer(s, t).ravel()).reshape(den.rows, den.cols)
        u, _, vt = np.linalg.svd(w)
        m = u @ rect_eye @ vt
    x_best = np.linalg.solve(dmat, best_m.ravel())
    return (best_val if best_val > -np.inf else 0.0), x_best


def polyak_minimize(b_vec: np.ndarray, k_mat: np.ndarray, rows: int, cols: int,
                    iters: int = 5000, tol: float = 1e-7,
                    delta_floor: float = 1e-12):
    """min over w of sigma_max(reshape(b_vec - k_mat w)).

    Not called inside the package: ``opspace.quotient_level_norm`` starts
    ``smoothed_spectral_min`` at the least-squares point instead.  Kept as a
    standalone reference solver.

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
    started at w0, through the smoothing levels of MU_SCHEDULE.

    Returns (value, w, gap_estimate): value is the exact norm at the final
    iterate (a true upper bound); the gap estimate combines the smoothing
    error mu * log(side) with the progress of the last stage.
    """
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
