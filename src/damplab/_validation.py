"""Input validation helpers shared across modules.

All checks are relative: a tolerance ``tol`` applied to a matrix ``A`` means
``tol * scale(A)`` with ``scale`` the largest entry magnitude (symmetry) or
the largest eigenvalue of the symmetric part (definiteness).  The latter is
the spectral norm wherever it decides: when the smallest eigenvalue is the
larger in magnitude it is negative, and no relative margin passes it.
Every constructor-facing helper rejects NaN/Inf on sight.

The symmetry and definiteness checks take one matrix or a stack
``(..., n, n)`` of them and return one verdict per matrix, with the same
arithmetic for each (numpy's stacked LAPACK calls return the bits of one
call per matrix).
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixShapeError

#: Relative tolerance for symmetry checks.
TOL_SYM = 1e-10

#: PSD margin: min eigenvalue >= -TOL_PSD * max |eigenvalue| counts as PSD.
TOL_PSD = 1e-10

#: Strict positive-definiteness margin.
TOL_PD = 1e-10

#: Relative half-width of the imaginary-axis band.
TOL_AXIS = 1e-7

#: Relative observability threshold.
TOL_OBS = 1e-8


def as_matrix(a, name="matrix", square=True, dtype=None):
    """Return ``a`` as a 2-d ndarray, rejecting bad shapes and non-finite entries."""
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2:
        raise MatrixShapeError(f"{name} must be 2-d, got ndim={arr.ndim}")
    return as_stack(arr, name, square)


def as_stack(a, name="matrix", square=True, dtype=None):
    """Return ``a`` as an ndarray of matrices ``(..., m, n)``, one or a stack,
    rejecting fewer than two axes, non-square matrices (when ``square``) and
    non-finite entries."""
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim < 2:
        raise MatrixShapeError(f"{name} must have at least 2 axes, got ndim={arr.ndim}")
    if square and arr.shape[-1] != arr.shape[-2]:
        raise MatrixShapeError(f"{name} must be square, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise MatrixShapeError(f"{name} contains NaN or Inf entries")
    return arr


def as_vector(v, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise MatrixShapeError(f"{name} must be 1-d, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise MatrixShapeError(f"{name} contains NaN or Inf entries")
    return arr


def is_symmetric(a):
    """Whether each matrix equals its transpose to ``TOL_SYM`` times its
    largest entry magnitude."""
    a = np.asarray(a)
    scale = np.abs(a).max(axis=(-2, -1), initial=1e-300)
    return np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1)) <= TOL_SYM * scale


def sym_part(a):
    return 0.5 * (a + a.swapaxes(-1, -2))


def _extreme_eigenvalues(a):
    """Smallest and largest eigenvalue of the symmetric part of each matrix.

    ``.T`` puts the eigenvalue axis first, so one matrix gives two scalars
    and a stack two arrays over its leading axes in reverse order.
    """
    eigs = np.linalg.eigvalsh(sym_part(np.asarray(a, dtype=float))).T
    return eigs[0], eigs[-1]


def is_psd(a):
    """Positive semidefiniteness of the symmetric part, with relative margin:
    ``lambda_min >= -TOL_PSD * max(lambda_max, 1e-300)``, one comparison
    per term of the max."""
    low, high = _extreme_eigenvalues(a)
    return ((low >= -TOL_PSD * high) | (low >= -TOL_PSD * 1.0e-300)).T


def is_pd(a):
    """Strict positive definiteness of the symmetric part:
    ``lambda_min > TOL_PD * max(lambda_max, 1e-300)``, one comparison per
    term of the max."""
    low, high = _extreme_eigenvalues(a)
    return ((low > TOL_PD * high) & (low > TOL_PD * 1.0e-300)).T


def every(verdicts):
    """Whether all verdicts hold: the one of a matrix or the array of a stack.

    A single verdict is read directly; a reduction over a numpy scalar
    would cost more than the check it summarizes.
    """
    return bool(verdicts.all()) if getattr(verdicts, "ndim", 0) else bool(verdicts)


def spectral_scale(eigs):
    """max(1, max |eig|): the reference scale for relative axis bands."""
    eigs = np.asarray(eigs)
    return max(1.0, np.abs(eigs).max()) if eigs.size else 1.0
