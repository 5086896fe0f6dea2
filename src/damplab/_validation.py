"""Input validation helpers shared across modules.

All checks are relative: a tolerance ``tol`` applied to a matrix ``A`` means
``tol * scale(A)`` with ``scale`` the largest entry magnitude (symmetry) or
the largest |eigenvalue| of the symmetric part, its spectral norm
(definiteness).  Every constructor-facing helper rejects NaN/Inf on sight.
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
    if square and arr.shape[0] != arr.shape[1]:
        raise MatrixShapeError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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
    a = np.asarray(a)
    scale = max(np.abs(a).max(), 1e-300)
    return np.abs(a - a.T).max() <= TOL_SYM * scale


def sym_part(a):
    return 0.5 * (a + a.T)


def is_psd(a):
    """Positive semidefiniteness of the symmetric part, with relative margin."""
    eigs = np.linalg.eigvalsh(sym_part(np.asarray(a, dtype=float)))
    return eigs[0] >= -TOL_PSD * max(-eigs[0], eigs[-1], 1.0e-300)


def is_pd(a):
    """Strict positive definiteness of the symmetric part."""
    eigs = np.linalg.eigvalsh(sym_part(np.asarray(a, dtype=float)))
    return eigs[0] > TOL_PD * max(-eigs[0], eigs[-1], 1.0e-300)


def spectral_scale(eigs):
    """max(1, max |eig|): the reference scale for relative axis bands."""
    eigs = np.asarray(eigs)
    return max(1.0, np.abs(eigs).max()) if eigs.size else 1.0
