"""Dense-matrix primitives: SVD, the four matrix norms, the nuclear-norm
ratio rank, the singular value soft-threshold operator, and the error-matrix
decomposition used by the stability proofs.

Matrices are plain 2-D ``numpy.ndarray`` of real floats.  All functions are
pure and make no assumption about the orientation of the input (n1 <= n2 is
never required).
"""

from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """Raised when an underlying matrix factorization fails to converge."""


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``x = u @ diag(sigma) @ v.T``.

    ``u`` is n1 x p, ``v`` is n2 x p with p = min(n1, n2); both have
    orthonormal columns.  ``sigma`` is nonnegative and nonincreasing.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def _as_matrix(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={x.ndim}")
    return x


def _checked_svd(x, compute_uv=True):
    """Thin ``np.linalg.svd`` of a finite matrix; raises :class:`NumericalError`
    if the factorization does not converge (never returns silent NaNs)."""
    x = _as_matrix(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix has non-finite entries")
    try:
        return np.linalg.svd(x, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def svd(x):
    """Thin SVD of ``x`` as :class:`SvdFactors`."""
    u, s, vt = _checked_svd(x)
    return SvdFactors(u=u, sigma=s, v=vt.T)


def singular_values(x):
    """Singular values of ``x``, nonincreasing."""
    return _checked_svd(x, compute_uv=False)


def nuclear_norm(x):
    """Sum of singular values of ``x``."""
    return float(np.sum(singular_values(x)))


def frobenius_norm(x):
    return float(np.linalg.norm(_as_matrix(x)))


def operator_norm(x):
    """Largest singular value of ``x``."""
    s = singular_values(x)
    return float(s[0]) if s.size else 0.0


def numerical_rank(x, tol=1e-9):
    """Number of singular values above ``tol * sigma_max``.

    The zero matrix has rank 0.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    s = singular_values(x)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def lstar_rank(x):
    """Nuclear-to-Frobenius norm ratio squared, in [1, min(n1, n2)].

    Scale invariant; equals the rank when all nonzero singular values are
    equal, and is 1 exactly for rank-1 matrices.  Undefined (ValueError) for
    the zero matrix.
    """
    s = singular_values(x)
    l2 = float(np.linalg.norm(s))
    if l2 == 0.0:
        raise ValueError("lstar_rank is undefined for the zero matrix")
    l1 = float(np.sum(s))
    return (l1 / l2) ** 2


def prox_nuclear(x, threshold):
    """Singular value soft-thresholding.

    Returns ``argmin_Z  0.5*||Z - x||_F^2 + threshold*||Z||_*``, i.e.
    ``U softshrink(Sigma) V^T`` with ``softshrink(s) = max(s - threshold, 0)``.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    u, s, vt = _checked_svd(x)
    return (u * np.maximum(s - threshold, 0.0)) @ vt


def decompose_error(h, x, tol=1e-9):
    """Split ``h`` into ``(h0, hc)`` relative to the singular subspaces of ``x``.

    With U, V spanning the rank-``numerical_rank(x, tol)`` left/right singular
    subspaces of ``x``:

        hc = (I - U U^T) h (I - V V^T),   h0 = h - hc.

    Guarantees: h = h0 + hc; rank(h0) <= 2 rank(x); x hc^T = 0 and
    x^T hc = 0; <h0, hc> = 0.
    """
    h = _as_matrix(h)
    x = _as_matrix(x)
    if h.shape != x.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {x.shape}")
    r = numerical_rank(x, tol)
    if r == 0:
        return np.zeros_like(h), h.copy()
    f = svd(x)
    u = f.u[:, :r]
    v = f.v[:, :r]
    hc = h - u @ (u.T @ h)
    hc = hc - (hc @ v) @ v.T
    h0 = h - hc
    return h0, hc
