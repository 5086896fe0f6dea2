"""Observability and hyperbolicity analysis of second-order systems.

The central objects are the matrix pair ``(M^-1 L, M^-1 D)`` with
``L`` the vector-field Jacobian at an equilibrium, and the 2n-by-2n
first-order Jacobian.  In the symmetric setting (M, L symmetric positive
definite, D symmetric PSD) hyperbolicity of the equilibrium is equivalent
to observability of the pair; both verdicts are always computed
independently here and compared, so a tolerance pathology surfaces as a
diagnostic error instead of a silent wrong answer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _validation as val
from .errors import AssumptionViolated, MatrixShapeError, TheoremViolation
from .linalg import (
    SpectrumReport,
    _reports,
    _solved_jacobian,
    jacobian_2n,
    matching_distance,
    numerical_rank,
    subset_distance,
)

__all__ = [
    "ObservabilityVerdict",
    "ObservabilityWitness",
    "SecondOrderSystem",
    "asymptotic_stability_full_damping",
    "hyperbolicity_symmetric",
    "imaginary_pair_sufficient_unsymmetric",
    "monotonicity_compare",
    "observability_symmetric",
    "observability_test",
    "undamped_spectral_map",
]

#: Bottleneck distance (``linalg.subset_distance``) within which the axis set
#: of the more damped system counts as contained in the less damped one's.
MATCH_TOL = 1e-6

#: Relative accuracy to which the square-root map must reproduce the
#: undamped Jacobian spectrum.
UNDAMPED_MAP_TOL = 1e-8


@dataclass
class SecondOrderSystem:
    """Linearization data of a second-order model ``M x'' + D x' + f(x) = 0``.

    ``jac`` evaluates the Jacobian of ``f`` at an n-state; :meth:`linear`
    builds it from a constant stiffness matrix.  Stacks ``(..., n, n)`` of
    one shape, with a ``jac`` of that shape, give one Jacobian per matrix.
    """

    inertia: np.ndarray
    damping: np.ndarray
    jac: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        self.inertia = val.as_stack(self.inertia, "inertia", dtype=float)
        self.damping = self._checked_damping(self.damping)
        if not val.every(numerical_rank(self.inertia) == self.n):
            raise AssumptionViolated("inertia nonsingular")

    def _checked_damping(self, damping):
        damping = val.as_stack(damping, "damping", dtype=float)
        if damping.shape != self.inertia.shape:
            raise MatrixShapeError(f"damping must be {self.n}x{self.n} like the inertia, "
                                   f"got shape {damping.shape}")
        return damping

    @classmethod
    def linear(cls, inertia, damping, stiffness):
        stiffness = val.as_stack(stiffness, "stiffness", dtype=float)
        return cls(inertia=inertia, damping=damping, jac=lambda x: stiffness)

    @property
    def n(self):
        return self.inertia.shape[-1]

    def with_damping(self, damping):
        """The system with another damping: only the damping is checked, the
        inertia was checked when this system was built."""
        system = copy.copy(self)
        system.damping = self._checked_damping(damping)
        return system

    def jacobian_at(self, x):
        """2n-by-2n Jacobian of the first-order system at state ``(x, 0)``;
        the inertia was rank-checked at construction."""
        l = val.as_stack(self.jac(np.asarray(x, float)), "stiffness", dtype=float)
        return _solved_jacobian(self.inertia, self.damping, l)


@dataclass(frozen=True)
class ObservabilityWitness:
    eigenvalue: complex
    vector: np.ndarray
    residual: float  # ||B x|| for the minimizing eigenspace vector


@dataclass(frozen=True)
class ObservabilityVerdict:
    """Outcome of the eigenvector test ``Bx != 0`` over the spectrum of A.

    ``witnesses`` holds one entry per dimension of the unobservable subspace
    of every eigenvalue cluster; ``margins`` holds one ``(lam, residual)``
    per cluster so near misses are visible even when the verdict is
    observable.  The pair is observable iff there is no witness.

    Two functions return it, per pair of a stack.  :func:`observability_test`
    (PBH, any square A) records as residual ``||B x||`` for the unit x
    minimizing ``||stack(A - lam I, B) x||``.  :func:`observability_symmetric`
    (``A = M^-1 L`` with M symmetric positive definite and L symmetric)
    records ``min ||B x||`` over unit x in the cluster's eigenspace.
    ``scale``, a float, is the cluster scale ``max(1, ||A||_2, ||B||_2)``
    the threshold ``TOL_OBS * scale`` was written with.
    """

    witnesses: tuple
    margins: tuple
    scale: float

    @property
    def observable(self):
        return not self.witnesses


def _eigenvalue_clusters(eigs, scale):
    """Group eigenvalues that coincide to relative tolerance."""
    order = np.lexsort((eigs.imag, eigs.real))
    clusters = []
    for idx in order:
        lam = eigs[idx]
        if clusters and abs(lam - clusters[-1][0]) <= 1e-8 * scale:
            clusters[-1][1].append(idx)
        else:
            clusters.append((lam, [idx]))
    return clusters


def _witnesses(lam, sing, vh, b, threshold, basis=None):
    """One witness per singular value at or below ``threshold``: the right
    singular vector ``vh[-1 - j]``, mapped through ``basis`` when given."""
    count = int(np.count_nonzero(sing <= threshold))
    vecs = [row.conj() if basis is None else basis @ row for row in vh[::-1][:count]]
    return [ObservabilityWitness(lam, v, float(np.linalg.norm(b @ v))) for v in vecs]


def _verdicts(eigs, a, b, cluster):
    """One :class:`ObservabilityVerdict` per pair of the stacks ``(A, B)`` (a
    list in ``np.ndindex`` order, one record for one pair), A of spectra
    ``eigs``.  ``cluster(k, lam, idx, threshold)`` gives the margin ``(lam,
    residual)`` and the witnesses of pair ``k``'s cluster ``lam``.  A spectrum
    with all imaginary parts 0 is read as real, as ``eigvals`` gives it alone."""
    norms = (np.linalg.norm(x, 2, axis=(-2, -1)) for x in (a, b))
    scale = np.maximum(1.0, np.maximum(*norms))
    real = ~eigs.imag.any(axis=-1)
    verdicts = []
    for k in np.ndindex(a.shape[:-2]):
        threshold = val.TOL_OBS * scale[k]
        witnesses, margins = [], []
        for lam, idx in _eigenvalue_clusters(eigs[k].real if real[k] else eigs[k], scale[k]):
            margin, found = cluster(k, lam, idx, threshold)
            margins.append(margin)
            witnesses += found
        verdicts.append(ObservabilityVerdict(tuple(witnesses), tuple(margins), float(scale[k])))
    return verdicts if a.ndim > 2 else verdicts[0]


def observability_test(a, b):
    """PBH-style observability of the pair ``(A, B)``.

    For each eigenvalue cluster of ``A`` the stacked matrix
    ``[A - lam I; B]`` is tested for rank deficiency: its smallest singular
    value at or below ``TOL_OBS * max(1, ||A||, ||B||)`` (``TOL_OBS`` from
    ``_validation``) marks the mode unobservable.  This searches full
    eigenspaces, so repeated eigenvalues are handled correctly.  The
    singular vector attaining the minimum is the reported witness together
    with its damping residual ``||B x||``.

    One SVD of a 2n-by-n stack per cluster makes this O(n^4).  It serves
    any A: :func:`imaginary_pair_sufficient_unsymmetric` calls it, and the
    ``observability_equivalence`` suite checks
    :func:`observability_symmetric`, which the symmetric setting uses,
    against it.  Stacks ``A (..., n, n)``, ``B (..., p, n)`` take one
    ``eigvals`` call and give a list of verdicts in ``np.ndindex`` order,
    each that of one call bit for bit; the SVDs run per pair and cluster.
    """
    a = val.as_stack(a, "a", dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim != a.ndim or b.shape[:-2] != a.shape[:-2] or b.shape[-1] != a.shape[-1]:
        raise AssumptionViolated("shape", "b must have a's leading axes and as many columns")
    eye = np.eye(a.shape[-1])

    def cluster(k, lam, idx, threshold):
        _, sing, vh = np.linalg.svd(np.vstack([a[k] - lam * eye, b[k]]))
        # One witness per deficiency dimension: the unobservable subspace of
        # a repeated eigenvalue can be multidimensional, and downstream
        # damping repair needs a basis of it.
        return ((lam, float(np.linalg.norm(b[k] @ vh[-1].conj()))),
                _witnesses(lam, sing, vh, b[k], threshold))
    return _verdicts(np.linalg.eigvals(a), a, b, cluster)


def observability_symmetric(m, l, d):
    """Observability of ``(M^-1 L, M^-1 D)`` for M symmetric positive definite
    and L symmetric, in O(n^3).

    With the Cholesky factor ``M = C C^T``, ``M^-1 L`` is similar to the
    symmetric ``C^-1 L C^-T = U diag(mu) U^T``, so its eigenvalues are
    ``mu`` and its eigenvectors ``V = C^-T U`` (Golub & Van Loan, Matrix
    Computations, section 8.7).  The eigenvalues are clustered as in
    :func:`observability_test`; a cluster is unobservable iff
    ``sigma_min(M^-1 D orth(V_c)) <= TOL_OBS * max(1, ||M^-1 L||, ||M^-1 D||)``,
    the PBH threshold.  A single eigenvector needs one column norm; only
    repeated clusters take a QR and an SVD.  Witnesses are unit vectors of
    the eigenspace with their residual ``||M^-1 D x||``, one per deficiency
    dimension.

    Stacks ``(..., n, n)`` take one call per LAPACK routine and give a list
    of verdicts, in ``np.ndindex`` order; clusters and witnesses are found
    per matrix.  Raises AssumptionViolated when an M or L is not symmetric
    or an M is not positive definite.
    """
    m = val.as_stack(m, "inertia", dtype=float)
    l = val.as_stack(l, "stiffness", dtype=float)
    d = val.as_stack(d, "damping", dtype=float)
    if not (m.shape == l.shape == d.shape):
        raise AssumptionViolated("shape", "inertia, stiffness and damping must match")
    if not val.every(val.is_symmetric(m)):
        raise AssumptionViolated("inertia symmetric positive definite")
    if not val.every(val.is_symmetric(l)):
        raise AssumptionViolated("jacobian symmetric")
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise AssumptionViolated("inertia symmetric positive definite") from None
    half = np.linalg.solve(c, l)  # C^-1 L
    mu, u = np.linalg.eigh(np.linalg.solve(c, half.swapaxes(-1, -2)))
    ct = c.swapaxes(-1, -2)
    vecs = np.linalg.solve(ct, u)
    vecs /= np.linalg.norm(vecs, axis=-2, keepdims=True)
    b = np.linalg.solve(m, d)
    residuals = np.linalg.norm(b @ vecs, axis=-2)

    def cluster(k, lam, idx, threshold):
        lam = complex(lam)
        if len(idx) == 1:
            res = float(residuals[k][idx[0]])
            return (lam, res), ([ObservabilityWitness(lam, vecs[k][:, idx[0]], res)]
                                if res <= threshold else [])
        basis, _ = np.linalg.qr(vecs[k][:, idx])
        _, sing, vh = np.linalg.svd(b[k] @ basis)
        return (lam, float(sing[-1])), _witnesses(lam, sing, vh, b[k], threshold, basis)
    return _verdicts(mu, np.linalg.solve(ct, half), b, cluster)  # A = M^-1 L


@dataclass(frozen=True)
class HyperbolicityVerdict:
    hyperbolic: bool
    via_observability: bool
    axis_eigenvalues: np.ndarray
    observability: ObservabilityVerdict
    spectrum: SpectrumReport


def _check_symmetric_setting(m, d, l):
    """Raise AssumptionViolated unless M and L are symmetric positive definite
    and D symmetric PSD, for every matrix of a stack."""
    if not (val.every(val.is_symmetric(m)) and val.every(val.is_pd(m))):
        raise AssumptionViolated("inertia symmetric positive definite")
    if not (val.every(val.is_symmetric(d)) and val.every(val.is_psd(d))):
        raise AssumptionViolated("damping symmetric positive semidefinite")
    if not (val.every(val.is_symmetric(l)) and val.every(val.is_pd(l))):
        raise AssumptionViolated("jacobian symmetric positive definite")


def hyperbolicity_symmetric(system, x0):
    """Hyperbolicity verdict in the symmetric setting, with its observability twin.

    Requires M symmetric positive definite, D symmetric PSD and
    ``L = jac(x0)`` symmetric positive definite.  Observability of
    ``(M^-1 L, M^-1 D)`` (by :func:`observability_symmetric`) and absence
    of axis eigenvalues of the 2n Jacobian are computed independently; they
    are equivalent in this setting, so a disagreement raises
    TheoremViolation carrying both verdicts.  A stacked system gives a list
    of verdicts in ``np.ndindex`` order; the hypotheses hold for every
    member or raise, and the first member whose verdicts disagree raises.
    """
    m, d = system.inertia, system.damping
    l = system.jac(np.asarray(x0, dtype=float))
    _check_symmetric_setting(m, d, l)
    observability = observability_symmetric(m, l, d)
    verdicts = []
    for obs, report in zip(observability if m.ndim > 2 else [observability],
                           _reports(m, d, l)):
        hyperbolic = report.axis_count == 0
        if hyperbolic != obs.observable:
            raise TheoremViolation(
                "observability and spectral hyperbolicity verdicts disagree "
                "(tolerance pathology)",
                first_verdict=obs,
                second_verdict=report,
            )
        verdicts.append(HyperbolicityVerdict(
            hyperbolic=hyperbolic, via_observability=obs.observable,
            axis_eigenvalues=report.axis_set, observability=obs, spectrum=report))
    return verdicts if m.ndim > 2 else verdicts[0]


def imaginary_pair_sufficient_unsymmetric(inertia, damping, stiffness):
    """Sufficient test for a purely imaginary Jacobian pair, unsymmetric case.

    Runs :func:`observability_test` on ``(M^-1 L, M^-1 D)`` and keeps the
    witnesses at real positive eigenvalues ``lam``: an eigenvector of
    ``M^-1 L`` in the nullspace of ``M^-1 D``.  When there are several, the
    smallest ``lam`` is used.  On success returns the pair
    ``(+i sqrt(lam), -i sqrt(lam))`` after asserting both lie in the
    computed Jacobian spectrum.  An empty return proves nothing: the
    condition is only sufficient without symmetry.
    """
    m = val.as_matrix(inertia, "inertia", dtype=float)
    d = val.as_matrix(damping, "damping", dtype=float)
    l = val.as_matrix(stiffness, "stiffness", dtype=float)
    a = np.linalg.solve(m, l)
    b = np.linalg.solve(m, d)
    verdict = observability_test(a, b)

    positive = [
        w.eigenvalue.real
        for w in verdict.witnesses
        if abs(w.eigenvalue.imag) <= 1e-9 * verdict.scale
        and w.eigenvalue.real > 1e-12 * verdict.scale
    ]
    if not positive:
        return None

    omega = np.sqrt(min(positive))
    pair = (1j * omega, -1j * omega)
    jac_eigs = np.linalg.eigvals(jacobian_2n(m, d, l))
    for target in pair:
        if np.abs(jac_eigs - target).min() > 1e-6 * max(1.0, abs(target)):
            raise TheoremViolation(
                "predicted imaginary pair missing from the Jacobian spectrum",
                first_verdict=pair,
                second_verdict=jac_eigs,
            )
    return pair


@dataclass(frozen=True)
class MonotonicityReport:
    damping_increase_psd: bool
    axis_set_first: np.ndarray
    axis_set_second: np.ndarray
    subset_holds: bool


def monotonicity_compare(first, second, x0, check=True):
    """Compare the imaginary-axis eigenvalue sets of two dampings of one system.

    Both systems must share inertia (entrywise to ``1e-12``) and
    vector-field Jacobian at ``x0`` (entrywise to ``1e-10 * max(1, max|L|)``);
    in the symmetric setting, ``D_second >= D_first`` (PSD order) forces
    the second axis set into the first: ``subset_holds`` iff its bottleneck
    distance into the first is ``<= MATCH_TOL``.  A nonsingular inertia is
    not checked again: :class:`SecondOrderSystem` enforces it on
    construction.  ``check=False`` bypasses the hypothesis validation and
    recomputes anyway, which is how the unsymmetric counterexample is shown.
    Stacked systems give a list of reports in ``np.ndindex`` order; the
    hypotheses hold for every member (each with its own ``max|L|``) or raise.
    """
    x0 = np.asarray(x0, dtype=float)
    l1 = first.jac(x0)
    l2 = second.jac(x0)
    if check:
        if not np.allclose(first.inertia, second.inertia, rtol=0, atol=1e-12):
            raise AssumptionViolated("identical inertia")
        if l1.shape != l2.shape or np.any(np.abs(l1 - l2).max(axis=(-2, -1)) > 1e-10 * (
                np.maximum(1.0, np.abs(l1).max(axis=(-2, -1))))):
            raise AssumptionViolated("identical vector-field jacobian")
        if not val.every(val.is_symmetric(first.inertia)):
            raise AssumptionViolated("inertia symmetric")
        for name, dmat in (("first", first.damping), ("second", second.damping)):
            if not (val.every(val.is_symmetric(dmat)) and val.every(val.is_psd(dmat))):
                raise AssumptionViolated(f"{name} damping symmetric PSD")
        if not val.every(val.is_symmetric(l1)):
            raise AssumptionViolated("jacobian symmetric")

    dpsd = np.ravel(val.is_psd(val.sym_part(second.damping - first.damping)))
    reports = [MonotonicityReport(
        damping_increase_psd=bool(psd),
        axis_set_first=a.axis_set,
        axis_set_second=b.axis_set,
        subset_holds=bool(subset_distance(b.axis_set, a.axis_set) <= MATCH_TOL),
    ) for psd, a, b in zip(dpsd, _reports(first.inertia, first.damping, l1),
                           _reports(second.inertia, second.damping, l2))]
    return reports if first.inertia.ndim > 2 else reports[0]


def undamped_spectral_map(inertia, stiffness):
    """Square-root map between ``sigma(-M^-1 L)`` and the undamped Jacobian spectrum.

    Returns ``(mu, lam)`` where ``mu`` are the eigenvalues of ``-M^-1 L`` and
    ``lam`` the induced values ``+-sqrt(mu)``; asserts ``lam`` equals the
    spectrum of the D = 0 Jacobian to ``UNDAMPED_MAP_TOL`` relative to its
    spectral scale.  Stacks ``(..., n, n)`` give one row of each per matrix;
    a stack's ``mu`` is complex in every row when any member's is complex,
    where one matrix alone may give a real row.
    """
    m = val.as_stack(inertia, "inertia", dtype=float)
    l = val.as_stack(stiffness, "stiffness", dtype=float)
    mu = np.linalg.eigvals(np.linalg.solve(m, -l))
    roots = np.sqrt(mu.astype(complex))
    lam = np.concatenate([roots, -roots], axis=-1)
    direct = np.linalg.eigvals(jacobian_2n(m, np.zeros_like(m), l))
    for k in np.ndindex(m.shape[:-2]):
        dist = matching_distance(lam[k], direct[k])
        if dist > UNDAMPED_MAP_TOL * val.spectral_scale(direct[k]):
            raise TheoremViolation(
                f"undamped spectral map mismatch: {dist:.3e}",
                first_verdict=lam[k],
                second_verdict=direct[k],
            )
    return mu, lam


def asymptotic_stability_full_damping(inertia, damping, stiffness):
    """True iff every Jacobian eigenvalue lies strictly left of the axis.

    Requires M, D, L all symmetric positive definite; under those hypotheses
    the result is always true.  Stacks ``(..., n, n)`` of one shape give one
    verdict per triple, each spectrum split by :func:`classify_spectrum`.
    """
    m = val.as_stack(inertia, "inertia", dtype=float)
    d = val.as_stack(damping, "damping", dtype=float)
    l = val.as_stack(stiffness, "stiffness", dtype=float)
    _check_symmetric_setting(m, d, l)  # proves M positive definite
    if not val.every(val.is_pd(d)):
        raise AssumptionViolated("damping symmetric positive definite")
    left = [r.left_count == r.eigenvalues.size for r in _reports(m, d, l)]
    return np.array(left, dtype=bool).reshape(m.shape[:-2])[()]
