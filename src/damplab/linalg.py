"""Dense-matrix numerical kernel.

Quadratic-pencil eigenanalysis via companion linearization, numerical rank,
and classification of eigenvalues relative to the imaginary axis.  Everything
here is a pure function of small dense arrays; higher modules build the
dynamical-systems semantics on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _validation as val
from .errors import MatrixShapeError, SingularInertia, SingularLeadingCoefficient

__all__ = [
    "QuadraticPencil",
    "SpectrumReport",
    "axis_band",
    "classify_spectrum",
    "jacobian_2n",
    "matching_distance",
    "numerical_rank",
    "on_axis",
    "pair_upper",
    "referenced_jacobian",
    "structural_zero",
]


#: Machine epsilon of float64.
_EPS = np.finfo(float).eps


def numerical_rank(a):
    """Numerical rank of ``a`` by the standard SVD rule.

    Counts the singular values above ``max(m, n) * eps * sigma_max``.

    Parameters
    ----------
    a : array_like
        Real or complex matrix, or a stack ``(..., m, n)`` of them.

    Returns
    -------
    int or ndarray
        Rank estimate, 0 for a zero or empty matrix; for a stack, one rank
        per matrix over the leading axes.
    """
    a = val.as_stack(a, "a", square=False)
    s = np.linalg.svd(a, compute_uv=False)
    above = s > max(a.shape[-2:]) * _EPS * s[..., :1]
    # One matrix counts over all of ``above``: numpy's fast path, an int.
    return np.count_nonzero(above, axis=-1 if above.ndim > 1 else None)


@dataclass(frozen=True)
class QuadraticPencil:
    """Matrix polynomial ``P(lam) = lam**2 a2 + lam a1 + a0`` with a2 nonsingular.

    ``a2``, ``a1``, ``a0`` are n-by-n real matrices (complex evaluation points
    are fine), or stacks ``(..., n, n)``: one pencil per matrix.  For a
    second-order system these are inertia, damping and the vector-field
    Jacobian respectively.
    """

    a2: np.ndarray
    a1: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        a2 = val.as_stack(self.a2, "a2")
        a1 = val.as_stack(self.a1, "a1")
        a0 = val.as_stack(self.a0, "a0")
        if not (a2.shape == a1.shape == a0.shape):
            raise MatrixShapeError(
                f"pencil blocks must share one dimension, got "
                f"{a2.shape}, {a1.shape}, {a0.shape}"
            )
        if not val.every(numerical_rank(a2) == a2.shape[-1]):
            raise SingularLeadingCoefficient(
                "leading coefficient a2 is numerically singular"
            )
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a0", a0)

    @property
    def n(self):
        return self.a2.shape[-1]

    def evaluate(self, lam):
        return (lam * lam) * self.a2 + lam * self.a1 + self.a0

    @cached_property
    def _norms(self):
        return [np.linalg.norm(a, 2, axis=(-2, -1)) for a in (self.a2, self.a1, self.a0)]

    def residual_scale(self, lam):
        """Natural backward-error scale at ``lam``."""
        r = abs(lam)
        n2, n1, n0 = self._norms
        return r * r * n2 + r * n1 + n0

    def companion(self):
        """First companion linearization ``[[0, I], [-a2^-1 a0, -a2^-1 a1]]``,
        assembled apart from :func:`jacobian_2n`, whose reference it is."""
        n = self.n
        sol = np.linalg.solve(self.a2, np.concatenate([self.a0, self.a1], axis=-1))
        top = np.broadcast_to(np.hstack([np.zeros((n, n)), np.eye(n)]), sol.shape)
        return np.concatenate([top, -sol], axis=-2)

    def eigenvalues(self):
        """All 2n eigenvalues, one row per pencil of stacks; as from
        ``np.linalg.eigvals``, a stacked call returns complex rows when any
        member's spectrum is complex, where one pencil alone may give a real row."""
        return np.linalg.eigvals(self.companion())


def jacobian_2n(inertia, damping, stiffness):
    """Block Jacobian ``[[0, I], [-M^-1 L, -M^-1 D]]`` of the first-order system
    (one per matrix of stacks ``(..., n, n)``).

    ``stiffness`` is the vector-field Jacobian at the linearization point.
    Raises SingularInertia when an inertia is numerically singular.
    """
    m = val.as_stack(inertia, "inertia", dtype=float)
    d = val.as_stack(damping, "damping", dtype=float)
    l = val.as_stack(stiffness, "stiffness", dtype=float)
    if not val.every(numerical_rank(m) == m.shape[-1]):
        raise SingularInertia("inertia matrix is numerically singular")
    return _solved_jacobian(m, d, l)


def _solved_jacobian(m, d, l):
    """:func:`jacobian_2n` without the rank check, for an inertia checked
    before; ``m``, ``d``, ``l`` may be stacks of one shape."""
    n = m.shape[-1]
    if d.shape != m.shape or l.shape != m.shape:
        raise MatrixShapeError(f"blocks must all be {n}x{n}")
    sol = np.linalg.solve(m, np.concatenate([l, d], axis=-1))
    return _block_jacobian(sol[..., :n], sol[..., n:])


def referenced_jacobian(minv_l, minv_d):
    """Reference-bus reduction ``[[0, T1], [-(M^-1 L)[:, :n-1], -M^-1 D]]``.

    ``minv_l`` is ``M^-1 L`` for a stiffness with zero row sums and
    ``minv_d`` is ``M^-1 D``.  The state is ``(psi, omega)`` with
    ``psi_j = delta_j - delta_n``; ``T1 = [I, -1]`` maps angle velocities to
    referenced ones, and dropping the last column of ``M^-1 L`` embeds the
    referenced angles with ``delta_n = 0``.  The result has dimension
    ``2n - 1`` and the full spectrum minus the rotational zero eigenvalue.
    """
    return _block_jacobian(minv_l, minv_d, referenced=True)


def _block_jacobian(minv_l, minv_d, referenced=False):
    """``[[0, T1], [-(M^-1 L)[:, :k], -M^-1 D]]`` with ``T1 = I`` and k = n,
    or, ``referenced``, ``T1 = [I, -1]`` and k = n - 1; one per matrix of
    stacked blocks."""
    n = minv_l.shape[-1]
    k = n - 1 if referenced else n
    out = np.zeros(minv_l.shape[:-2] + (k + n, k + n))
    out[..., :k, k:] = np.hstack([np.eye(k), -np.ones((k, n - k))])
    out[..., k:, :k] = -minv_l[..., :k]
    out[..., k:, k:] = -minv_d
    return out


def axis_band(scale, tol_axis=val.TOL_AXIS):
    """Axis band half-width ``tol_axis * scale``; ``tol_axis`` must be positive
    and finite (else ValueError), ``scale`` is ``_validation.spectral_scale``
    of one spectrum or of a whole sweep."""
    if not 0 < tol_axis < np.inf:
        raise ValueError("tol_axis must be positive and finite")
    return tol_axis * scale


def on_axis(eigs, band):
    """Mask of the axis eigenvalues: ``|Re| <= band``."""
    return np.abs(eigs.real) <= band


def structural_zero(eigs, band):
    """Mask of the zero box ``|Re|, |Im| <= band``: a grid's gauge mode."""
    return on_axis(eigs, band) & (np.abs(eigs.imag) <= band)


def pair_upper(eigs, scale):
    """Mask of the upper members of complex pairs: ``Im > 1e-9 * scale``."""
    return eigs.imag > 1e-9 * scale


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues split by the sign of their real part.

    ``axis_set`` collects the eigenvalues :func:`on_axis` for the band
    :func:`axis_band` of ``scale = max(1, spectral radius)``; the counts
    form the inertia triple ``(left_count, axis_count, right_count)``.
    """

    eigenvalues: np.ndarray
    axis_set: np.ndarray
    left_count: int
    axis_count: int
    right_count: int
    tol_axis: float
    scale: float

    @property
    def inertia(self):
        return (self.left_count, self.axis_count, self.right_count)

    @property
    def nonzero_axis_set(self):
        """Axis eigenvalues beyond the :func:`structural_zero`; hyperbolicity
        "beyond the structural zero" asks that this set be empty."""
        band = axis_band(self.scale, self.tol_axis)
        return self.axis_set[~structural_zero(self.axis_set, band)]


def classify_spectrum(eigs, tol_axis=val.TOL_AXIS):
    """Partition ``eigs`` by half-plane with the :func:`axis_band` of ``tol_axis``."""
    eigs = np.atleast_1d(np.asarray(eigs, dtype=complex))
    scale = val.spectral_scale(eigs)
    band = axis_band(scale, tol_axis)
    re = eigs.real
    axis = on_axis(eigs, band)
    return SpectrumReport(
        eigenvalues=eigs,
        axis_set=eigs[axis],
        left_count=int(np.count_nonzero(re < -band)),
        axis_count=int(np.count_nonzero(axis)),
        right_count=int(np.count_nonzero(re > band)),
        tol_axis=tol_axis,
        scale=scale,
    )


def _reports(m, d, l, tol_axis=val.TOL_AXIS):
    """:func:`classify_spectrum` of the Jacobian of each ``(M, D, L)``, in
    ``np.ndindex`` order: one :func:`_solved_jacobian` and one ``eigvals``
    for stacks, each inertia checked before."""
    eigs = np.linalg.eigvals(_solved_jacobian(m, d, l))
    return [classify_spectrum(eigs[k], tol_axis) for k in np.ndindex(eigs.shape[:-1])]


def matching_distance(first, second):
    """Bottleneck distance between two eigenvalue multisets of one size: the
    least largest distance of a one-to-one pairing (:func:`subset_distance`);
    inf if the multisets have different sizes.
    """
    if np.size(first) != np.size(second):
        return np.inf
    return subset_distance(first, second)


def subset_distance(sub, full):
    """Bottleneck distance from ``sub`` into ``full``: the least, over all
    injective matchings of ``sub`` into ``full``, of the largest matched
    distance, so each element of ``sub`` has its own partner within ``tol``
    iff it is ``<= tol`` (0.0 for an empty ``sub``, inf if ``full`` is too small).
    """
    sub = np.atleast_1d(np.asarray(sub, dtype=complex))
    full = np.atleast_1d(np.asarray(full, dtype=complex))
    if sub.size == 0:
        return 0.0
    if sub.size > full.size:
        return np.inf
    cost = np.abs(sub[:, None] - full[None, :])
    nearest = cost.argmin(axis=1)
    low = cost[np.arange(sub.size), nearest].max()
    # Distinct nearest partners form a matching, and none can do better;
    # else the answer is the least cost at or above ``low`` that matches all.
    if len(set(nearest.tolist())) == sub.size:
        return float(low)
    return float(next(c for c in np.unique(cost[cost >= low]) if _matches_all(cost <= c)))


def _matches_all(adj):
    """Whether each row of the boolean matrix ``adj`` gets its own column
    (Kuhn's augmenting paths)."""
    owner = {}

    def augment(i, seen):
        for j in np.flatnonzero(adj[i]):
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(adj)))
