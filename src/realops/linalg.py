"""Dense real-matrix kernels.

Operator norms via singular values, the two-part real positivity test
(selfadjoint + nonnegative quadratic form), the norm/positivity
equivalence through the 2x2 block matrix [[I, x], [x^T, I]] =
I + ``dilation(x)``, the selfadjoint dilation [[0, x], [x^T, 0]] that
also builds the SDPs of ``optim`` and ``quantization``, the
contraction-ball projector, ``kron_sum``: the block-Kronecker sum
sum_k c[:, :, k] kron B_k behind every matrix-level norm, which alone
fixes the block layout, and ``span_coefficients`` with ``in_span``: the
least-squares solve and the one rule behind every span-membership test.

Matrices are plain 2-D float ndarrays throughout; ``as_matrix`` is the
single validation gate, and ``as_matrices`` its form for stacks.  The
norm and positivity kernels (``op_norm``, ``sym_eig_min``,
``is_real_positive``, ``dilation``, ``contraction_block``,
``contraction_iff_positive``), the search kernels (``clip_contraction``,
``frobenius_norm``, ``kron_sum``, ``kron_sum_grad``) and the membership
kernel also take stacks with leading axes, so one call serves every
restart of a multistart search, every product of a closure check or every
sample of an invariant check; each matrix of a stack comes out bit for bit
as it would alone.  All functions are pure.
"""

from __future__ import annotations

import numpy as np

#: default tolerance for boolean classifications (positivity, contractivity)
CLASSIFY_TOL = 1e-9
#: default tolerance of the span-membership rule (see ``in_span``)
MEMBERSHIP_TOL = 1e-10


def as_matrices(m) -> np.ndarray:
    """Validate and return ``m`` as a float matrix or a (..., p, q) stack of
    them, with positive p and q and finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got "
                         f"ndim={a.ndim}")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"matrix must have positive shape, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a 2-D float array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return as_matrices(a)


def _as_square(m, what: str) -> np.ndarray:
    a = as_matrices(m)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{what} requires a square matrix")
    return a


def op_norm(m):
    """Largest singular value of ``m`` (0 for the zero matrix); for a
    (..., p, q) stack, the array of them."""
    top = np.linalg.svd(as_matrices(m), compute_uv=False)[..., 0]
    return float(top) if top.ndim == 0 else top


def sym_eig_min(m):
    """Smallest eigenvalue of the symmetrization (m + m^T)/2, or of each
    matrix of a stack."""
    a = _as_square(m, "eigenvalue bound")
    low = np.linalg.eigvalsh((a + np.swapaxes(a, -1, -2)) / 2.0)[..., 0]
    return float(low) if a.ndim == 2 else low


def is_real_positive(m, tol=CLASSIFY_TOL):
    """Positivity in the real sense: symmetric within ``tol`` entrywise and
    smallest eigenvalue >= -tol.  For a stack, a boolean array; ``tol`` may
    then hold one tolerance per matrix.

    Both parts are required: a nonsymmetric real matrix can have a
    nonnegative quadratic form (e.g. [[2, -1], [1, 2]]) yet is not positive.
    """
    a = _as_square(m, "positivity")
    asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
    positive = (asym <= tol) & (sym_eig_min(a) >= -tol)
    return bool(positive) if a.ndim == 2 else positive


def dilation(m: np.ndarray) -> np.ndarray:
    """The selfadjoint dilation [[0, m], [m^T, 0]] of a p x q matrix, whose
    largest eigenvalue is the operator norm of m, or the stack of them for
    a (..., p, q) stack."""
    p, q = m.shape[-2:]
    out = np.zeros((*m.shape[:-2], p + q, p + q))
    out[..., :p, p:] = m
    out[..., p:, :p] = np.swapaxes(m, -1, -2)
    return out


def contraction_block(x: np.ndarray) -> np.ndarray:
    """The (p+q) x (p+q) block matrix [[I_p, x], [x^T, I_q]], or the stack
    of them for a stack of x."""
    a = as_matrices(x)
    return np.eye(sum(a.shape[-2:])) + dilation(a)


def contraction_iff_positive(x, tol: float = CLASSIFY_TOL):
    """Return (op_norm(x) <= 1 + tol, real-positivity of [[I, x], [x^T, I]]),
    as two boolean arrays for a stack.

    The two booleans agree for every matrix; callers assert the agreement.
    """
    a = as_matrices(x)
    return op_norm(a) <= 1.0 + tol, is_real_positive(contraction_block(a), tol)


def clip_contraction(m: np.ndarray) -> np.ndarray:
    """Projection of a square real or complex matrix, or of each matrix of
    a stack, onto the contraction ball: its singular values clipped at 1."""
    u, s, vt = np.linalg.svd(m)
    return (u * np.minimum(s, 1.0)[..., None, :]) @ vt


def frobenius_norm(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a stack; the same
    inner product as ``np.linalg.norm``, so single results agree bit for
    bit."""
    flat = m.reshape(*m.shape[:-2], 1, m.shape[-2] * m.shape[-1])
    if np.iscomplexobj(flat):
        sq = flat.real @ np.swapaxes(flat.real, -1, -2) + \
            flat.imag @ np.swapaxes(flat.imag, -1, -2)
    else:
        sq = flat @ np.swapaxes(flat, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def span_coefficients(span: np.ndarray, mats: np.ndarray,
                      pinv: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of each matrix of a (..., p, q) stack over
    the (n, p, q) stack ``span``, which may be dependent, and the Frobenius
    norm of each residual, as (..., n) and (...) arrays.  The solve goes
    through the pseudo-inverse of span's (p q, n) vec matrix; ``pinv``
    passes it in when the caller caches it."""
    vecs = span.reshape(span.shape[0], -1).T
    if pinv is None:
        pinv = np.linalg.pinv(vecs)
    flat = mats.reshape(*mats.shape[:-2], -1, 1)
    coeffs = pinv @ flat
    return coeffs[..., 0], frobenius_norm(vecs @ coeffs - flat)


def relative_residual(residuals: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Residual norms from ``span_coefficients`` relative to 1 + |m|_F."""
    return residuals / (1.0 + frobenius_norm(mats))


def in_span(residuals: np.ndarray, mats: np.ndarray,
            tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """The membership rule: m lies in the span when its least-squares
    residual is at most tol (1 + |m|_F)."""
    return relative_residual(residuals, mats) <= tol


def kron_sum(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., :, :, k] kron mats[..., k] for an (..., n, m, d)
    coefficient stack and a (..., d, p, q) stack, as an (..., n p, m q)
    array; the leading axes of the two broadcast."""
    out = np.einsum("...ijk,...kpq->...ipjq", coeffs, mats)
    n, p, m, q = out.shape[-4:]
    return out.reshape(*out.shape[:-4], n * p, m * q)


def kron_sum_grad(coeffs: np.ndarray, u: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
    """Gradient of u^T kron_sum(coeffs, mats) v in each mats[k]; u and v may
    carry leading stack axes, which the (..., d, p, q) result keeps."""
    n, m, _ = coeffs.shape
    ut = np.swapaxes(u.reshape(*u.shape[:-1], n, -1), -1, -2)
    return ut[..., None, :, :] @ np.moveaxis(coeffs, -1, 0) @ \
        v.reshape(*v.shape[:-1], m, -1)[..., None, :, :]


def kron_sum_matrix(mats: np.ndarray, level: int) -> np.ndarray:
    """vec matrix of c -> kron_sum(c, mats) on (level, level, d) tensors.

    Rows index the C-order flattening of the (level p) x (level q) value,
    columns that of (i, j, k).
    """
    d, p, q = mats.shape
    n = level
    k_mat = np.zeros((n, p, n, q, n, n, d))
    # writeable diagonal view: entry [i, p, j, q, i, j, k] is mats[k, p, q]
    np.einsum("ipjqijk->ipjqk", k_mat)[...] = np.moveaxis(mats, 0, -1)[:, None]
    return k_mat.reshape(n * p * n * q, n * n * d)


def mat_to_json(m: np.ndarray) -> dict:
    a = as_matrix(m)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "entries": [[float(v) for v in row] for row in a]}


def mat_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or {"rows", "cols", "entries"} - set(obj):
        raise ValueError('matrix JSON needs keys "rows", "cols", "entries"')
    a = as_matrix(obj["entries"])
    if a.shape != (int(obj["rows"]), int(obj["cols"])):
        raise ValueError(f'entries shape {a.shape} does not match declared '
                         f'({obj["rows"]}, {obj["cols"]})')
    return a
