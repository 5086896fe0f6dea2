"""Damping-parameter sweeps and Hopf bifurcation certification.

A :class:`DampingPath` freezes a second-order system at an equilibrium and
lets the damping matrix vary with one real parameter.  The module tracks
eigenvalue branches and reports each imaginary-axis crossing once; for a
path whose damping moves along one rank-one direction,
:func:`track_axis_crossing` reads the crossings off the frequency response
of the quadratic pencil instead and confirms them with a few dense
spectra.  It checks the crossing conditions (axis eigenvalue, simplicity,
transversal drift, no resonant eigenvalue at 0 or at a harmonic) on one
dense spectrum, its eigenvectors and drift by shifted solves, and computes
the first Lyapunov coefficient that decides whether the born cycle is stable.

A sweep pairs eigenvalues per branch step: a step that stays more than
ten axis bands off the axis on one side is skipped, and a branch whose
pair turns real may end there (a heuristic, see :func:`sweep`).

The Lyapunov coefficient follows the standard center-manifold projection
method: with ``A q = i w0 q``, ``A^T p = -i w0 p``, ``<q,q> = <p,q> = 1``
and B, C the second/third derivative forms of the vector field (mixed
central differences, O(h^2) in the step),

    l1 = Re( <p, C(q,q,conj(q))>
             - 2 <p, B(q, A^-1 B(q, conj(q)))>
             + <p, B(conj(q), (2 i w0 I - A)^-1 B(q,q))> ) / (2 w0).

Negative l1 means a stable (supercritical) cycle, positive an unstable
(subcritical) one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _validation as val
from ._roots import _brent
from .errors import (
    AssumptionViolated,
    MatrixShapeError,
    NormalizationFailure,
    NotAnAxisEigenvalue,
    TheoremViolation,
    TrackingAmbiguity,
)
from .linalg import (_EPS, _block_jacobian, axis_band, numerical_rank, on_axis,
                     pair_upper, structural_zero)

__all__ = [
    "AxisCrossing",
    "DampingPath",
    "HopfCertificate",
    "SUBCRITICAL",
    "Sweep",
    "SUPERCRITICAL",
    "DEGENERATE",
    "classify_lyapunov",
    "eigenvalue_parameter_derivative",
    "first_lyapunov_coefficient",
    "hopf_conditions",
    "sweep",
    "track_axis_crossing",
]

SUPERCRITICAL = "supercritical"
SUBCRITICAL = "subcritical"
DEGENERATE = "degenerate"

#: Classification threshold on |l1|.
TOL_L1 = 1e-5

#: Simplicity gap as a fraction of the spectral radius.
GAP_MIN_FACTOR = 1e-6

#: Central-difference step for ``damping_of`` when no analytic derivative
#: is given, and for checking one that is.
FD_STEP = 1e-6

#: Eigenpair residual bound of :func:`eigenvalue_parameter_derivative`.
EIGENPAIR_TOL = 1e-8

#: Equal frequency steps of ``(0, omega_max]`` on which the frequency route
#: of :func:`track_axis_crossing` brackets the roots of ``Im g``.
FREQUENCY_SAMPLES = 64


@dataclass
class DampingPath:
    """One-parameter damping family around a frozen linearization.

    ``stiffness`` is the vector-field Jacobian at the equilibrium under
    study; ``damping_of`` maps the parameter to the damping matrix.  When
    ``referenced`` is set the stiffness must have zero row sums (a grid flow
    Jacobian) and all spectra are taken on the reference-bus reduction of
    dimension 2n - 1, which removes the rotational zero eigenvalue.

    Inertia, stiffness and each ``damping_of(gamma)`` are n x n matrices;
    a stack of them raises MatrixShapeError (``linalg.jacobian_2n`` builds
    the Jacobians of stacked linear systems).

    ``rhs_of``/``x0`` optionally supply the frozen-parameter nonlinear
    vector field (of the same reduced dimension as the Jacobian) and its
    equilibrium, enabling Lyapunov-coefficient computation on one path.

    The blocks that do not depend on the parameter, ``minv_l = M^-1 L`` too,
    are built at construction: :meth:`jacobian` fills a copy of the Jacobian
    with one solve for ``M^-1 D(gamma)``.  Do not reassign the fields.

    ``_eigvals`` keeps one spectrum, keyed on the Jacobian's content (not on
    gamma: a patched :meth:`jacobian` must miss it), so the frequency route's
    check at a root and the certificate there share one ``eigvals``.
    """

    inertia: np.ndarray
    stiffness: np.ndarray
    damping_of: Callable[[float], np.ndarray]
    gamma_range: tuple
    damping_derivative: Optional[Callable[[float], np.ndarray]] = None
    referenced: bool = False
    rhs_of: Optional[Callable[[float], Callable[[np.ndarray], np.ndarray]]] = None
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        self.inertia = val.as_matrix(self.inertia, "inertia", dtype=float)
        self.stiffness = val.as_matrix(self.stiffness, "stiffness", dtype=float)
        if self.stiffness.shape != self.inertia.shape:
            raise MatrixShapeError(f"stiffness must have the shape {self.inertia.shape} "
                                   f"of the inertia, got {self.stiffness.shape}")
        if numerical_rank(self.inertia) != self.n:
            raise AssumptionViolated("inertia nonsingular")
        lo, hi = self.gamma_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise AssumptionViolated("finite nonempty gamma range")
        if self.referenced:
            rowsum = np.abs(self.stiffness.sum(axis=1)).max()
            if rowsum > 1e-8 * max(1.0, np.abs(self.stiffness).max()):
                raise AssumptionViolated(
                    "zero row sums", "referenced reduction needs a gauge mode"
                )
        self.minv_l = np.linalg.solve(self.inertia, self.stiffness)
        zero = np.zeros_like(self.minv_l)
        self._template = _block_jacobian(self.minv_l, zero, self.referenced)
        self._spectrum = (np.empty(0), None)
        self._radius = None
        if self.damping_derivative is not None:
            mid = 0.5 * (lo + hi)
            analytic = np.asarray(self.damping_derivative(mid), dtype=float)
            fd = self._damping_prime_fd(mid)
            scale = max(np.linalg.norm(analytic, 2), 1e-300)
            if not np.linalg.norm(fd - analytic, 2) <= 1e-6 * scale:
                raise AssumptionViolated(
                    "damping derivative consistency",
                    "analytic derivative disagrees with finite differences",
                )

    @property
    def n(self):
        return self.inertia.shape[0]

    def damping_prime(self, gamma):
        if self.damping_derivative is not None:
            return np.asarray(self.damping_derivative(gamma), dtype=float)
        return self._damping_prime_fd(gamma)

    def _damping_prime_fd(self, gamma):
        return _central(
            lambda g: np.asarray(self.damping_of(g), float), gamma, FD_STEP, 1.0
        )

    def jacobian(self, gamma):
        d = val.as_matrix(self.damping_of(gamma), "damping", dtype=float)
        if d.shape != self.inertia.shape:
            raise MatrixShapeError(f"blocks must all be {self.n}x{self.n}")
        out = self._template.copy()
        out[-self.n :, -self.n :] = -np.linalg.solve(self.inertia, d)
        return out

    @property
    def minv_l_radius(self):
        """The spectral radius of ``minv_l``, from one ``eigvals`` per path."""
        if self._radius is None:
            self._radius = max(np.abs(np.linalg.eigvals(self.minv_l)))
        return self._radius

    def _eigvals(self, jac):
        """``eigvals(jac)``, reused while ``jac`` equals the last one seen."""
        held, eigs = self._spectrum
        if not np.array_equal(held, jac):
            eigs = np.linalg.eigvals(jac)
            self._spectrum = (jac.copy(), eigs)
        return eigs

    def jacobian_prime(self, gamma):
        """d/dgamma of the Jacobian: only the damping block moves."""
        out = np.zeros_like(self._template)
        dprime = self.damping_prime(gamma)
        out[-self.n :, -self.n :] = -np.linalg.solve(self.inertia, dprime)
        return out


@dataclass(frozen=True)
class AxisCrossing:
    """A refined parameter value where a complex eigenvalue pair meets the axis."""

    gamma: float
    omega: float
    eigenvalue: complex
    boundary: bool = False


@dataclass(frozen=True)
class Sweep:
    """Sampled parameters ``gammas``, the Jacobian ``spectra`` there, their
    common ``scale = max(1, spectral radius)`` and the axis ``crossings``."""

    gammas: np.ndarray
    spectra: list
    scale: float
    crossings: list


def track_axis_crossing(path, samples=41):
    """The axis crossings of one ``path``, sorted by (gamma, omega).

    A path whose damping moves one rank-one direction takes the
    frequency route, which reads every crossing off the pencil's frequency
    response with n x n solves and confirms them with dense spectra at the
    two range ends and at each crossing.
    Every other path takes the sampled route, ``sweep(path, samples)
    .crossings`` bit for bit; ``samples`` applies to that route only.

    **The frequency route** applies when all of these hold, and otherwise
    the sampled route is taken:

    - ``path`` has a ``damping_derivative``;
    - the damping is affine on the range: ``damping_prime`` is equal at
      both ends and ``damping_of(hi) - damping_of(lo) = (hi - lo) D'`` to
      rounding;
    - ``D' = s u u^T`` is symmetric of rank one;
    - ``M`` and ``D(lo)`` are symmetric and ``M`` has a Cholesky factor;
    - neither end spectrum has an :func:`linalg.on_axis` member, so every
      boundary crossing is left to the sampled route, and ``P_lo(i w)``
      below is nonsingular for every real ``w > 0``;
    - for a referenced path, the two end spectra have ``det J`` of one
      sign, i.e. counts of eigenvalues with ``Re > 0`` of equal parity.
      The reduced Jacobian is singular where ``w^T D(gamma) 1 = 0``, with
      ``w`` the left null vector of L; on a rank-one path ``det J`` is
      affine in gamma, so a real eigenvalue crosses 0 inside the range
      exactly when its sign differs at the ends, and the frequency
      response, which has roots at ``w > 0`` only, does not see it.  On
      an unreferenced path ``det J = det(M^-1 L)`` does not move.

    ``D(gamma) = D(lo) + (gamma - lo) s u u^T`` and the determinant identity
    make ``lambda = i w`` an eigenvalue at gamma iff
    ``g(w) = i w s u^T P_lo(i w)^-1 u``, with
    ``P_lo(i w) = -w^2 M + i w D(lo) + L``, is real and negative, and then
    ``gamma = lo - 1/g(w)`` (Golub, SIAM Review 15, 1973).  An axis
    eigenvalue has ``w^2 = x^H sym(L) x / x^H M x`` (the real part of
    ``x^H P x = 0`` for symmetric D), so ``w <= w_max`` with ``w_max^2``
    the largest eigenvalue of ``M^-1 sym(L)``.  The first verdict scans
    ``Im g`` on ``FREQUENCY_SAMPLES`` equal steps of ``(0, w_max]``, refines
    each sign change by Brent's method and keeps the roots with
    ``Re g < 0`` and ``gamma`` in ``(lo, hi)``.  The poles of ``g`` are the
    eigenvalues of the Jacobian at ``lo``; each upper pair member ``p``
    nearer the axis than one step adds the seven frequencies
    ``Im p + |Re p| tan(k pi/8)``, k = -3..3, over which its term in ``g``
    turns by pi/8 at a time.  The second verdict is dense and shares no
    solve with the first:

    - at each root, the Jacobian's upper pair member nearest ``i w`` lies
      within one axis band (of the end spectra's scale) of it and becomes
      the crossing's ``eigenvalue``;
    - the number of eigenvalues with ``Re > 0`` changes between the two
      end spectra by ``2 sum sign Re dlambda/dgamma`` over the roots, with
      ``dlambda/dgamma = -i w s (y^T u)(u^T x) / y^T (2 i w M + D(gamma)) x``,
      ``x = P_lo^-1 u`` and ``y = P_lo^-T u``.

    Raises TheoremViolation, with the frequency verdict first and the dense
    one second, when the two disagree; and TrackingAmbiguity when the
    Jacobian at a root has no complex pair at all.

    Blind spots: the frequency route misses two roots of ``Im g`` of
    opposite directions between two scanned frequencies, a pair that
    touches the axis and returns, where the net count stays level; a
    single missed root raises.  The sampled route misses a pair that
    crosses and returns within one gamma interval with no sample in the
    axis band, leaves a touch unrefined at its sample nearest the axis, and
    raises TrackingAmbiguity when its grid is too coarse to pair branches.
    """
    if samples < 2:
        raise AssumptionViolated("sample count >= 2")
    found = _frequency_route(path)
    return sweep(path, samples).crossings if found is None else found


def _rank_one(slope):
    """``(s, u)`` with ``slope = s u u^T`` and ``s = +-1`` to rounding, for
    a symmetric ``slope`` of rank one; None otherwise.  The largest diagonal
    entry of a rank-one ``s u u^T`` is ``s max u_j^2``, and its column is
    ``s u_j u``."""
    if not (slope == slope.T).all():
        return None
    j = np.argmax(np.abs(np.diag(slope)))
    pivot = slope[j, j]
    if pivot == 0:
        return None
    u = slope[:, j] / math.sqrt(abs(pivot))
    s = math.copysign(1.0, pivot)
    if np.abs(slope - s * np.outer(u, u)).max() > 16 * _EPS * abs(pivot):
        return None
    return s, u


def _frequency_route(path):
    """The crossings of ``path`` by the frequency route of
    :func:`track_axis_crossing`, or None when that route does not apply."""
    if path.damping_derivative is None:
        return None
    lo, hi = path.gamma_range
    m = path.inertia
    slope = path.damping_prime(lo)
    if slope.shape != m.shape or not np.array_equal(slope, path.damping_prime(hi)):
        return None
    update = _rank_one(slope)
    if update is None or not (m == m.T).all():
        return None
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    d_lo, d_hi = (np.asarray(path.damping_of(g), dtype=float) for g in (lo, hi))
    if d_lo.shape != m.shape or d_hi.shape != m.shape or not (d_lo == d_lo.T).all():
        return None
    rounding = 16 * _EPS * max(np.abs(d_lo).max(), np.abs(d_hi).max())
    if np.abs(d_hi - d_lo - (hi - lo) * slope).max() > rounding:
        return None
    ends = [np.linalg.eigvals(path.jacobian(g)) for g in (lo, hi)]
    scale = max(val.spectral_scale(e) for e in ends)
    band = axis_band(scale)
    if any(on_axis(e, band).any() for e in ends):
        return None
    # With no end eigenvalue on the axis, the parity of the count with
    # Re > 0 is the sign of det J: an odd change is a real eigenvalue
    # through 0.
    counts = [int(np.count_nonzero(e.real > 0)) for e in ends]
    if path.referenced and (counts[1] - counts[0]) % 2:
        return None

    roots = _frequency_roots(path, chol, d_lo, *update, ends[0])
    drift = 2 * sum(int(np.sign(dlam.real)) for _, _, dlam in roots)
    if counts[1] - counts[0] != drift:
        raise TheoremViolation(
            f"frequency response and end spectra disagree: roots {roots} move "
            f"{drift:+d} eigenvalues across the axis, the spectra at gamma = "
            f"{lo:.6g} and {hi:.6g} have {counts[0]} and {counts[1]} with Re > 0",
            first_verdict=roots,
            second_verdict=counts,
        )
    crossings = []
    for gamma0, omega0, _ in roots:
        lam = _nearest_upper(path, gamma0, 1j * omega0, scale)
        if not (on_axis(lam, band) and abs(lam.imag - omega0) <= band):
            raise TheoremViolation(
                f"frequency response puts a crossing at gamma = {gamma0:.9g}, "
                f"omega = {omega0:.9g}, but the Jacobian's upper pair member "
                f"nearest to it, {lam:.6g}, is not within the axis band {band:.2e}",
                first_verdict=(gamma0, omega0),
                second_verdict=lam,
            )
        crossings.append(AxisCrossing(gamma=float(gamma0), omega=float(omega0),
                                      eigenvalue=complex(lam)))
    return sorted(crossings, key=lambda c: (c.gamma, c.omega))


def _frequency_roots(path, chol, d_lo, s, u, poles):
    """``(gamma, omega, dlambda/dgamma)`` of every root of ``Im g`` that the
    frequency scan of :func:`track_axis_crossing` brackets and keeps, in
    increasing omega."""
    lo, hi = path.gamma_range
    m, l = path.inertia, path.stiffness
    half = np.linalg.solve(chol, val.sym_part(l))
    top = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))[-1]
    if not top > 0:
        return []
    omega_max = math.sqrt(top)

    def pencil(w):
        return -w * w * m + 1j * w * d_lo + l

    def response(w):
        x = np.linalg.solve(pencil(w), u)
        g = 1j * w * s * (u @ x)
        return g.imag, x, g

    step = omega_max / FREQUENCY_SAMPLES
    grid = step * np.arange(1, FREQUENCY_SAMPLES + 1)
    upper = poles[pair_upper(poles, val.spectral_scale(poles))]
    sharp = upper[np.abs(upper.real) < step]
    offsets = np.abs(sharp.real)[:, None] * np.tan(np.pi / 8 * np.arange(-3, 4))
    extra = (sharp.imag[:, None] + offsets).ravel()
    grid = np.unique(np.concatenate([grid, extra[(extra > 0) & (extra < omega_max)]]))
    values = [response(w) for w in grid]
    im = np.array([v[0] for v in values])
    roots = []
    for k in np.flatnonzero(np.signbit(im[:-1]) != np.signbit(im[1:])):
        omega0, (_, x, g0) = _refine(response, grid[k], grid[k + 1], values[k],
                                     values[k + 1], 4 * _EPS * omega_max, 4 * _EPS)
        if not g0.real < 0:
            continue
        gamma0 = lo - 1.0 / g0.real
        if not lo < gamma0 < hi:
            continue
        y = np.linalg.solve(pencil(omega0).T, u)
        d0 = d_lo + (gamma0 - lo) * s * np.outer(u, u)
        dlam = (-1j * omega0 * s * (y @ u) * (u @ x)
                / (y @ ((2j * omega0 * m + d0) @ x)))
        roots.append((float(gamma0), float(omega0), complex(dlam)))
    return roots


def sweep(path, samples=41):
    """Locate all parameter values where a complex pair crosses the axis.

    Samples the spectrum on a uniform grid over ``path.gamma_range`` and
    pairs upper pair members between adjacent samples by nearest-neighbour
    continuity.  A paired branch lies left of the axis band, in it or right
    of it, and each crossing is reported once: a branch that changes sides
    within one interval, or a run of in-band samples entered from one side
    and left on the other, is refined between the samples around it; a run
    that returns to its side (a touch) or is open where pairing ends is
    reported, unrefined, at its sample nearest the axis.  An eigenvalue in
    the band at a range end is a crossing with ``boundary=True``, and its
    run adds nothing else.  Refinement is Brent's method on
    ``Re lam(gamma)``, ``lam`` the upper pair member nearest the linear
    predictor between the bracket's end eigenvalues, to
    ``1e-12 max(1, |hi|)`` in gamma.  Returns a :class:`Sweep`, so callers
    reuse the sampled spectra.

    A step whose ends lie more than ``10 * band`` off the axis on one side
    is skipped: it records nothing.  Where the next sample has fewer upper
    pair members, a branch whose match is shared, whose step exceeds the
    band and which lies nearer the real axis than its match (``Im lam <
    step``) ends there, its pair turned real; pairing ends for its run, as
    for every run where a sample has no upper pair member.  Ending is a
    heuristic that can end the wrong branch and lose a crossing silently;
    ROADMAP item 16's count verdict, not yet in place, is its check.

    Each sample is its own ``eigvals`` call: a stack of all samples would
    hold every Jacobian of a large path at once.

    Raises TrackingAmbiguity, with the interval's start as ``gamma``, when a
    step longer than the band, neither skipped nor ended, exceeds half the
    gap at its match or shares its match with a branch that did not end.
    """
    if samples < 2:
        raise AssumptionViolated("sample count >= 2")
    lo, hi = path.gamma_range
    grid = np.linspace(lo, hi, samples)
    spectra = [np.linalg.eigvals(path.jacobian(g)) for g in grid]
    table = np.stack(spectra)

    scale = float(val.spectral_scale(table))
    crossings = _crossings(path, grid, table, pair_upper(table, scale), scale)
    return Sweep(gammas=grid, spectra=spectra, scale=scale, crossings=crossings)


def _crossings(path, grid, table, upper, scale):
    """The axis crossings of one path by the rule of :func:`sweep`, from its
    spectra ``table`` (samples by 2n) with upper pair mask ``upper``.  A run
    is ``[entry, nearest]``: the ``(gamma, lam)`` before it (None where
    pairing starts, False at the range start) and the one nearest the axis
    in it (None for a branch step that leaves one side: a run of no in-band
    sample)."""
    band = axis_band(scale)
    margin = 10 * band
    tol = 1e-12 * max(1.0, abs(path.gamma_range[1]))
    last = grid.size - 1
    crossings = [AxisCrossing(float(grid[k]), float(lam.imag), complex(lam), boundary=True)
                 for k in (0, last) for lam in table[k][upper[k] & on_axis(table[k], band)]]

    def close(run, exit):
        entry, nearest = run
        if entry is False:
            return  # the run includes the range start: a boundary crossing
        if entry and exit and np.sign(entry[1].real) != np.sign(exit[1].real):
            (g_a, lam_a), (g_b, lam_b) = entry, exit

            def member(g):
                z = _nearest_upper(path, g, lam_a + (g - g_a) / (g_b - g_a) * (lam_b - lam_a),
                                   scale)
                return z.real, z

            root, (_, lam) = _refine(member, g_a, g_b, (lam_a.real, lam_a),
                                     (lam_b.real, lam_b), tol, 4 * _EPS)
            nearest = (root, lam)
        crossings.append(AxisCrossing(float(nearest[0]), float(abs(nearest[1].imag)),
                                      complex(nearest[1])))

    runs = {}  # index of a branch at the current sample -> its run
    for k in range(last):
        current, following = table[k][upper[k]], table[k + 1][upper[k + 1]]
        if not following.size:
            for run in runs.values():
                close(run, None)
            runs = {}
            continue
        distance = np.abs(current[:, None] - following[None, :])
        match = np.argmin(distance, axis=1)
        steps = distance[np.arange(current.size), match]
        spacing = np.abs(following[:, None] - following[None, :])
        np.fill_diagonal(spacing, np.inf)
        gaps = spacing.min(axis=1)[match]
        shared = np.bincount(match, minlength=following.size)[match] > 1
        # An ended branch (its pair turned real) no longer shares its match.
        ends = (shared & (steps > band) & (current.imag < steps)
                & (following.size < current.size))
        shared = np.bincount(match[~ends], minlength=following.size)[match] > 1
        carried = {}
        for i, (lam, j, step, gap, twice, end) in enumerate(
                zip(current, match, steps, gaps, shared, ends)):
            nearest = following[j]
            if min(lam.real, nearest.real) > margin or max(lam.real, nearest.real) < -margin:
                continue  # a step far off the axis on one side records nothing
            before, after = (grid[k], lam), (grid[k + 1], nearest)
            run = runs.get(i, [None if k else False, before] if on_axis(lam, band)
                           else [before, None])
            if end:
                if run[1] is not None:
                    close(run, None)
                continue
            if (twice or step > 0.5 * gap) and step > band:
                what = (
                    "two branches share one continuation match" if twice
                    else f"continuation step {step:.3e} exceeds half the "
                    f"eigenvalue gap {gap:.3e} at its match"
                )
                raise TrackingAmbiguity(f"{what} near gamma = {grid[k]:.6g}; increase samples",
                                        gamma=float(grid[k]))
            if on_axis(nearest, band):
                if run[1] is None or abs(nearest.real) < abs(run[1][1].real):
                    run[1] = after
                carried.setdefault(j, run)
            elif run[1] is not None or np.sign(lam.real) != np.sign(nearest.real):
                close(run, after)
        runs = carried
    return sorted(crossings, key=lambda c: (c.gamma, c.omega))


def _refine(f, a, b, at_a, at_b, xtol, rtol):
    """Brent's root (:func:`_roots._brent`) in ``[a, b]`` of the first entry
    of the tuple ``f(x)``, seeded with ``at_a = f(a)`` and ``at_b = f(b)``;
    returns the root and ``f`` there, evaluating ``f`` once per point."""
    known = {a: at_a, b: at_b}

    def first(x):
        if x not in known:
            known[x] = f(x)
        return known[x][0]

    root = _brent(first, a, b, xtol, rtol)
    return root, known[root]


def eigenvalue_parameter_derivative(jac, djac, lam, right, left):
    """Eigenvalue drift ``l* dJ r`` for a simple eigenvalue with l* r = 1.

    Validates the eigenpair residuals and the normalization before applying
    first-order perturbation theory.
    """
    jac = np.asarray(jac, dtype=float)
    djac = np.asarray(djac, dtype=float)
    right = np.asarray(right, dtype=complex)
    left = np.asarray(left, dtype=complex)
    scale = max(1.0, np.linalg.norm(jac, axis=0).max())  # <= ||jac||_2, and no SVD
    tol = EIGENPAIR_TOL * scale
    if np.linalg.norm(jac @ right - lam * right) > tol * np.linalg.norm(right):
        raise NormalizationFailure("right eigenpair residual too large")
    if np.linalg.norm(left.conj() @ jac - lam * left.conj()) > tol * np.linalg.norm(left):
        raise NormalizationFailure("left eigenpair residual too large")
    inner = np.vdot(left, right)
    if abs(inner - 1.0) > 1e-10:
        raise NormalizationFailure(f"l* r = {inner:.3e}, expected 1")
    return complex(np.vdot(left, djac @ right))


# -- derivatives by central differences --------------------------------------


def _central(f, x0, h, *dirs):
    """``D^k f(x0)[d_1, ..., d_k]`` to O(h^2) by the mixed central difference
    ``sum over s in {+1,-1}^k of (prod s_i) f(x0 + h sum s_i d_i) / (2h)^k``.

    For k = 1 this is ``(f(x0 + h d) - f(x0 - h d)) / (2h)``.  A complex
    direction splits by multilinearity, ``F(u + i w) = F(u) + i F(w)``, so
    ``f`` is only evaluated at real points.
    """
    for i, d in enumerate(dirs):
        if np.iscomplexobj(d):
            re, im = (_central(f, x0, h, *dirs[:i], z, *dirs[i + 1 :])
                      for z in (d.real, d.imag))
            return re + 1j * im
    total = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=len(dirs)):
        step = sum(s * d for s, d in zip(signs, dirs))
        total = total + math.prod(signs) * f(x0 + h * step)
    return total / (2 * h) ** len(dirs)


def first_lyapunov_coefficient(
    f, x0, omega0, right, left, jac, h2=None, h3=None
):
    """First Lyapunov coefficient of a Hopf point of ``x' = f(x)``.

    ``jac`` is the Jacobian of ``f`` at ``x0``, and ``right``/``left`` are
    its eigenvectors for ``+i omega0`` (any scaling; they are renormalized
    to <q,q> = <p,q> = 1 internally).  B and C are mixed central
    differences (:func:`_central`, 128 evaluations of ``f``); their steps
    ``h2``/``h3`` default to ``eps^(1/(k+2)) (1 + |x0|)`` for a k-linear
    form, which balances O(h^2) truncation against rounding.
    The system must be free of other axis eigenvalues, zero ones in
    particular, since the formula solves with the Jacobian itself.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    a = np.asarray(jac, dtype=float)
    scale = np.linalg.norm(x0) + 1.0
    eps = np.finfo(float).eps
    h2 = eps**0.25 * scale if h2 is None else h2
    h3 = eps**0.2 * scale if h3 is None else h3

    q = np.asarray(right, dtype=complex)
    q = q / np.linalg.norm(q)
    p = np.asarray(left, dtype=complex)
    inner = np.vdot(p, q)
    if abs(inner) < 1e-12:
        raise NormalizationFailure("left/right eigenvectors nearly orthogonal")
    p = p / np.conj(inner)

    b_qq = _central(f, x0, h2, q, q)
    b_qqbar = _central(f, x0, h2, q, np.conj(q))
    s1 = np.linalg.solve(a, b_qqbar)
    term2 = _central(f, x0, h2, q, s1)
    s2 = np.linalg.solve(2j * omega0 * np.eye(n) - a, b_qq)
    term3 = _central(f, x0, h2, np.conj(q), s2)
    c_q = _central(f, x0, h3, q, q, np.conj(q))

    value = np.vdot(p, c_q) - 2.0 * np.vdot(p, term2) + np.vdot(p, term3)
    return float(value.real / (2.0 * omega0))


def classify_lyapunov(l1):
    if l1 is None or abs(l1) <= TOL_L1:
        return DEGENERATE
    return SUPERCRITICAL if l1 < 0 else SUBCRITICAL


@dataclass(frozen=True)
class HopfCertificate:
    """Everything checked at one axis crossing of a damping path.

    ``transversality`` is the real part of the eigenvalue drift
    d(xi)/d(gamma) at the crossing (equivalently ``omega0`` times the
    imaginary part of the projected damping-derivative form); its sign
    depends on the ``+i omega0`` branch convention, and only being nonzero
    is required for the bifurcation.  ``dlambda_dgamma_fd``, the central
    difference of ``lambda(gamma0 +- h)`` by shifted solves (see
    :func:`hopf_conditions`), checks the projection ``dlambda_dgamma``.
    ``resonance_clear`` says that no other Jacobian eigenvalue lies in the
    ``linalg.structural_zero`` box around 0 or around a harmonic ``i k
    omega0``, k = 2..``resonance_kmax``: multiples with ``k**2 omega0**2``
    above the spectral radius of ``M^-1 L`` cannot be pencil roots, so the
    scan is cut off at ``ceil(sqrt(rho(M^-1 L)) / omega0) + 2``.
    """

    gamma0: float
    omega0: float
    v: np.ndarray
    r0: np.ndarray
    l0: np.ndarray
    transversality: float
    dlambda_dgamma: complex
    dlambda_dgamma_fd: complex
    simple: bool
    eigenvalue_gap: float
    resonance_clear: bool
    resonance_kmax: int
    boundary: bool
    l1: Optional[float]
    kind: Optional[str]


def hopf_conditions(path, gamma0, omega_hint=None, compute_l1=True, boundary=False):
    """Certificate for a Hopf candidate of ``path`` at parameter ``gamma0``.

    Verifies that the crossing eigenvalue ``lambda`` (``omega0 = Im lambda``)
    lies in the axis band of its own spectrum, measures its simplicity gap,
    computes the transversal drift of the crossing pair both by eigenvector
    projection and by central finite differences (they must agree to 1e-5
    relative), scans the same spectrum for resonances at 0 and at integer
    harmonics of the crossing frequency, and, when the path carries its
    nonlinear vector field, evaluates the first Lyapunov coefficient and the
    resulting subcritical/supercritical label.

    One ``eigvals`` of ``J0 = J(gamma0)``, shared through the path's memo
    with the frequency route's check at the same root, serves every
    spectral check.  ``r0`` and ``l0`` are one step of inverse iteration
    each (Govaerts, SIAM 2000), solves with ``J0 - sigma I`` and its
    transpose, ``sigma = lambda + 4 eps scale`` (an exact eigenvalue can be
    an exact zero pivot), and ``l0^H r0 = 1``.  So is ``lambda(g)`` at
    ``g = gamma0 +- h``: with ``x = (J(g) - sigma I)^-1 r0``, it is the
    two-sided Rayleigh quotient ``l0^H J(g) x / l0^H x = sigma + 1 / l0^H x``.

    Raises NotAnAxisEigenvalue when no eigenvalue (near ``omega_hint``, when
    given) sits in the axis band at ``gamma0``, and TrackingAmbiguity when a
    finite-difference estimate is not an upper pair member whose nearest
    eigenvalue of ``J0`` is ``lambda``.  A failed simplicity gap does not
    raise by itself: the certificate is returned with ``simple=False``.
    """
    jac0 = path.jacobian(gamma0)
    eigs = path._eigvals(jac0)
    scale = val.spectral_scale(eigs)
    band = axis_band(scale)

    upper = np.flatnonzero(pair_upper(eigs, scale))
    if omega_hint is not None:
        candidates = [i for i in upper if abs(eigs[i] - 1j * omega_hint) <= 0.05 * scale]
    else:
        candidates = upper[on_axis(eigs[upper], band)].tolist()
    if not candidates:
        raise NotAnAxisEigenvalue(
            f"no axis eigenvalue at gamma = {gamma0:.6g} (band {band:.2e})"
        )
    idx = min(candidates, key=lambda i: abs(eigs[i].real))
    lam = eigs[idx]
    omega0 = float(lam.imag)

    if not on_axis(lam, band):
        raise NotAnAxisEigenvalue(
            f"Re lambda = {lam.real:.3e} outside the axis band {band:.2e} at gamma0"
        )

    others = np.delete(eigs, idx)
    gap = np.abs(others - lam).min(initial=np.inf)
    simple = gap > GAP_MIN_FACTOR * scale

    # The start vector must not be orthogonal to either eigenvector: all
    # ones is, to case1's mode (1, -1, 0).
    eye = np.eye(eigs.size)
    sigma = lam + 4 * _EPS * scale
    shifted = jac0 - sigma * eye
    start = np.sqrt(np.arange(1.0, eigs.size + 1))
    r0 = np.linalg.solve(shifted, start)
    # v is the pencil kernel direction: the velocity block of r0 over
    # i omega0.  In the symmetric setting it is the unobservable eigenvector
    # of M^-1 L.  Phase convention: the first component within 1e-8 of the
    # largest magnitude is made real positive (an exact tie, as in case1's
    # mode (1, -1, 0), must not leave the sign to last bits) and v has unit
    # norm.
    n = path.n
    vel = r0[-n:]
    v = vel / (1j * omega0)
    mag = np.abs(v)
    pivot = np.flatnonzero(mag >= (1 - 1e-8) * mag.max())[0]
    scale_factor = np.abs(v[pivot]) / (v[pivot] * np.linalg.norm(v))
    r0 = r0 * scale_factor
    v = v * scale_factor
    left = np.linalg.solve(shifted.T, start)
    l0 = np.conj(left / (left @ r0))

    djac = path.jacobian_prime(gamma0)
    dlam = eigenvalue_parameter_derivative(jac0, djac, lam, r0, l0)

    def drifted(g):
        mu = sigma + 1 / np.vdot(l0, np.linalg.solve(path.jacobian(g) - sigma * eye, r0))
        if pair_upper(mu, scale) and np.argmin(np.abs(eigs - mu)) == idx:
            return mu
        raise TrackingAmbiguity(f"the crossing eigenvalue left its branch at gamma = {g:.6g}",
                                gamma=float(g))

    dlam_fd = _central(drifted, gamma0, 1e-6 * max(1.0, abs(gamma0)), 1.0)
    if abs(dlam) > 1e-10 and abs(dlam_fd - dlam) > 1e-5 * abs(dlam):
        raise TheoremViolation(
            "transversality cross-check failed: eigenvector projection and "
            f"finite differences disagree ({dlam:.6e} vs {dlam_fd:.6e})",
            first_verdict=dlam,
            second_verdict=dlam_fd,
        )

    # Resonances at 0 and at the harmonics i kappa omega0, kappa = 2..kmax:
    # another eigenvalue in the structural-zero box around one of them.
    kmax = int(math.ceil(math.sqrt(max(path.minv_l_radius, 0.0)) / omega0)) + 2
    harmonics = 1j * np.array([0, *range(2, kmax + 1)]) * omega0
    resonance_clear = not structural_zero(others[:, None] - harmonics, band).any()

    l1 = kind = None
    if compute_l1 and path.rhs_of is not None and path.x0 is not None:
        l1 = first_lyapunov_coefficient(path.rhs_of(gamma0), path.x0, omega0, r0, l0, jac=jac0)
        kind = classify_lyapunov(l1)

    return HopfCertificate(
        gamma0=float(gamma0), omega0=omega0, v=v, r0=r0, l0=l0,
        transversality=float(dlam.real), dlambda_dgamma=dlam,
        dlambda_dgamma_fd=complex(dlam_fd), simple=bool(simple), eigenvalue_gap=float(gap),
        resonance_clear=bool(resonance_clear), resonance_kmax=kmax, boundary=bool(boundary),
        l1=l1, kind=kind)


def _nearest_upper(path, gamma, lam, scale):
    """The upper pair member of ``path.jacobian(gamma)`` nearest to ``lam``."""
    eigs = path._eigvals(path.jacobian(gamma))
    eigs = eigs[pair_upper(eigs, scale)]
    if eigs.size == 0:
        raise TrackingAmbiguity("complex pair vanished during refinement",
                                gamma=float(gamma))
    return eigs[np.argmin(np.abs(eigs - lam))]
