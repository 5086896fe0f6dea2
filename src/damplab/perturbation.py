"""Complex-symmetric matrix perturbation checks.

Numerically exercises the duality between the imaginary parts of a complex
symmetric matrix and its inverse, the nonsingularity of rank-one and PSD
imaginary updates, and the rank monotonicity inequality
rank(A + iD) <= rank(A + iD + iE) for symmetric A and PSD D, E.  The
predicates return what they compute; the accompanying test suites assert
the theorems' conclusions on conforming input.

Every predicate takes one matrix or a stack ``(..., n, n)`` of them (with
the vectors and partners stacked alike) and returns one verdict per
instance; a failed precondition anywhere in a stack raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _validation as val
from .errors import MatrixShapeError, PreconditionViolated, SingularMatrix
from .linalg import numerical_rank

__all__ = [
    "UpdateBase",
    "check_inverse_imag_duality",
    "psd_imag_update_nonsingular",
    "rank_monotonicity_holds",
    "rank_one_imag_update_nonsingular",
]


def _require_complex_symmetric(s, name="s"):
    s = val.as_stack(s, name, dtype=complex)
    if not val.every(val.is_symmetric(s)):
        raise PreconditionViolated(f"{name} must be complex symmetric")
    return s


def _require_nonsingular(s):
    if not val.every(numerical_rank(s) == s.shape[-1]):
        raise SingularMatrix("s must be nonsingular")


def check_inverse_imag_duality(s):
    """Flags (Im(S) >= 0 ?, Im(S^-1) <= 0 ?) for nonsingular complex symmetric S.

    Both flags are ``_validation.is_psd`` (relative margin ``TOL_PSD``), of
    ``Im(S)`` and of ``-Im(S^-1)``.  On conforming input the flags
    agree whenever the first is definite beyond tolerance.
    """
    s = _require_complex_symmetric(s)
    _require_nonsingular(s)
    return val.is_psd(s.imag), val.is_psd(-np.linalg.inv(s).imag)


@dataclass(frozen=True)
class UpdateBase:
    """A nonsingular complex symmetric ``S`` with PSD imaginary part (or a
    stack), as both update predicates require: checked once, on construction,
    when one ``UpdateBase`` is passed to both instead of ``S``."""

    s: np.ndarray

    def __post_init__(self):
        s = _require_complex_symmetric(self.s)
        if not val.every(val.is_psd(s.imag)):
            raise PreconditionViolated("Im(s) must be positive semidefinite")
        _require_nonsingular(s)
        object.__setattr__(self, "s", s)


def _update_base(s):
    """The checked ``S`` of an :class:`UpdateBase` or of a raw matrix (stack)."""
    return (s if isinstance(s, UpdateBase) else UpdateBase(s)).s


def rank_one_imag_update_nonsingular(s, v):
    """Whether ``S + i v v^T`` is nonsingular (true on conforming input).

    Requires S nonsingular complex symmetric with PSD imaginary part (or an
    :class:`UpdateBase`) and a real vector v (one per matrix of a stack).
    """
    s = _update_base(s)
    v = np.asarray(v, dtype=float)
    if v.shape != s.shape[:-1] or np.count_nonzero(np.isfinite(v)) != v.size:
        raise MatrixShapeError(f"v must be finite with shape {s.shape[:-1]}")
    updated = s + 1j * (v[..., :, None] * v[..., None, :])
    return numerical_rank(updated) == s.shape[-1]


def psd_imag_update_nonsingular(s, e):
    """Whether ``S + iE`` is nonsingular for real PSD ``E`` (true on conforming input)."""
    s = _update_base(s)
    e = val.as_stack(e, "e", dtype=float)
    if e.shape != s.shape:
        raise MatrixShapeError(f"e must have the shape {s.shape} of s")
    if not val.every(val.is_symmetric(e)):
        raise PreconditionViolated("e must be real symmetric")
    if not val.every(val.is_psd(e)):
        raise PreconditionViolated("e must be positive semidefinite")
    return numerical_rank(s + 1j * e) == s.shape[-1]


def rank_monotonicity_holds(a, d, e, check=True):
    """Whether ``rank(A + iD) <= rank(A + iD + iE)``, one per matrix of stacks.

    Must be true whenever A is symmetric and D and E are PSD; ``check``
    raises PreconditionViolated otherwise.  ``check=False`` bypasses the
    precondition for demonstrating that the symmetry assumption is sharp;
    both ranks share the threshold of :func:`numerical_rank` (the matrices
    have one size) so a tolerance straddle cannot fake a violation.
    """
    a, d, e = (np.asarray(m, dtype=float) for m in (a, d, e))
    if check:
        for name, m in zip("ade", (a, d, e)):
            if not val.every(val.is_symmetric(val.as_stack(m, name))):
                raise PreconditionViolated(f"{name} must be real symmetric")
        if not a.shape == d.shape == e.shape:
            raise PreconditionViolated("a, d, e must share one dimension")
        for name, m in (("d", d), ("e", e)):
            if not val.every(val.is_psd(m)):
                raise PreconditionViolated(f"{name} must be positive semidefinite")
    base = a + 1j * d
    return numerical_rank(base) <= numerical_rank(base + 1j * e)
