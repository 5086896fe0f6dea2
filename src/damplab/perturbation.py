"""Complex-symmetric matrix perturbation checks.

Numerically exercises the duality between the imaginary parts of a complex
symmetric matrix and its inverse, the nonsingularity of rank-one and PSD
imaginary updates, and the rank monotonicity inequality
rank(A + iD) <= rank(A + iD + iE) for symmetric A and PSD D, E.  The
predicates return what they compute; the accompanying test suites assert
the theorems' conclusions on conforming input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _validation as val
from .errors import PreconditionViolated, SingularMatrix
from .linalg import numerical_rank

__all__ = [
    "PsdPerturbationInstance",
    "check_inverse_imag_duality",
    "psd_imag_update_nonsingular",
    "rank_monotonicity_holds",
    "rank_one_imag_update_nonsingular",
]


def _require_complex_symmetric(s, name="s"):
    s = val.as_matrix(s, name, dtype=complex)
    if not val.is_symmetric(s):
        raise PreconditionViolated(f"{name} must be complex symmetric")
    return s


def _require_imag_psd(s, name="s"):
    if not val.is_psd(s.imag):
        raise PreconditionViolated(f"Im({name}) must be positive semidefinite")


def check_inverse_imag_duality(s):
    """Flags (Im(S) >= 0 ?, Im(S^-1) <= 0 ?) for nonsingular complex symmetric S.

    Both flags are ``_validation.is_psd`` (relative margin ``TOL_PSD``), of
    ``Im(S)`` and of ``-Im(S^-1)``.  On conforming input the flags
    agree whenever the first is definite beyond tolerance.
    """
    s = _require_complex_symmetric(s)
    n = s.shape[0]
    if numerical_rank(s) < n:
        raise SingularMatrix("duality check requires a nonsingular matrix")
    return bool(val.is_psd(s.imag)), bool(val.is_psd(-np.linalg.inv(s).imag))


def rank_one_imag_update_nonsingular(s, v):
    """Whether ``S + i v v^T`` is nonsingular (true on conforming input).

    Requires S nonsingular complex symmetric with PSD imaginary part and a
    real vector v.
    """
    s = _require_complex_symmetric(s)
    _require_imag_psd(s)
    if numerical_rank(s) < s.shape[0]:
        raise PreconditionViolated("s must be nonsingular")
    v = val.as_vector(v, "v")
    updated = s + 1j * np.outer(v, v)
    return numerical_rank(updated) == s.shape[0]


def psd_imag_update_nonsingular(s, e):
    """Whether ``S + iE`` is nonsingular for real PSD ``E`` (true on conforming input)."""
    s = _require_complex_symmetric(s)
    _require_imag_psd(s)
    if numerical_rank(s) < s.shape[0]:
        raise PreconditionViolated("s must be nonsingular")
    e = val.as_matrix(e, "e", dtype=float)
    if not val.is_symmetric(e):
        raise PreconditionViolated("e must be real symmetric")
    if not val.is_psd(e):
        raise PreconditionViolated("e must be positive semidefinite")
    return numerical_rank(s + 1j * e) == s.shape[0]


@dataclass(frozen=True)
class PsdPerturbationInstance:
    """Triple (A symmetric, D PSD, E PSD) for the rank-monotonicity inequality."""

    a: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def validate(self):
        for name in ("a", "d", "e"):
            mat = val.as_matrix(getattr(self, name), name, dtype=float)
            if not val.is_symmetric(mat):
                raise PreconditionViolated(f"{name} must be real symmetric")
        if self.a.shape != self.d.shape or self.a.shape != self.e.shape:
            raise PreconditionViolated("a, d, e must share one dimension")
        for name in ("d", "e"):
            if not val.is_psd(getattr(self, name)):
                raise PreconditionViolated(f"{name} must be positive semidefinite")
        return self


def rank_monotonicity_holds(instance, check=True):
    """Whether ``rank(A + iD) <= rank(A + iD + iE)``.

    Must be true whenever the instance invariants hold (A symmetric, D and E
    PSD).  ``check=False`` bypasses the precondition for demonstrating that
    the symmetry assumption is sharp; both ranks share the threshold of
    :func:`numerical_rank` (the matrices have one size) so a tolerance
    straddle cannot fake a violation.
    """
    if check:
        instance.validate()
    a = np.asarray(instance.a, dtype=float)
    base = a + 1j * np.asarray(instance.d, dtype=float)
    bumped = base + 1j * np.asarray(instance.e, dtype=float)
    return numerical_rank(base) <= numerical_rank(bumped)
