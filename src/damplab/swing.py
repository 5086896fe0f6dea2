"""Swing-equation model layer.

A reduced power network is a set of generators coupled through a complex
admittance matrix written entrywise as ``Y_mag[j,k] * exp(i theta[j,k])``.
The electrical power ("flow") of generator j is

    P_e_j(delta) = sum_k V_j V_k Y_mag[j,k] cos(theta[j,k] - delta_j + delta_k)

including the angle-independent k = j term.  This module provides the flow
function and its Jacobian, equilibrium solving with a pinned reference
angle, the reference-bus reduction that removes the rotational gauge mode,
lossless detection, and the grid-specific hyperbolicity criteria and
counterexample generators.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
import numpy as np

from . import _validation as val
from .errors import (
    AssumptionViolated,
    MatrixShapeError,
    ModelFormatError,
    NoConvergence,
    NoRepairIndex,
    NotInOmega,
    NotLossless,
    PreconditionViolated,
    SingularReducedJacobian,
    TheoremViolation,
)
from .linalg import _reports, jacobian_2n, referenced_jacobian
from .stability import SecondOrderSystem, observability_symmetric

__all__ = [
    "CAPTURED",
    "POLE_SLIP",
    "GridEquilibrium",
    "HomoclinicBracket",
    "PowerGridModel",
    "ReferencedGridSystem",
    "build_nonhyperbolic_family",
    "damping_repair_suggestion",
    "demo_lossy_two_machine",
    "grid_damping_path",
    "load_grid_model",
    "locate_homoclinic",
    "lossless_imaginary_criterion",
    "small_n_hyperbolicity_check",
]

#: Open-interval margin for membership in the admissible angle set.
OMEGA_MARGIN = 1e-9

#: Equilibrium residual tolerance (max |P_m - P_e|).
TOL_EQ = 1e-10

#: Newton iteration caps of :meth:`PowerGridModel.solve_equilibrium` and
#: :meth:`ReferencedGridSystem.drift_equilibrium`, both solved by :func:`_newton`.
EQ_MAX_ITER = 100
DRIFT_MAX_ITER = 50

#: Absolute tolerance on the line angles that make a network lossless.
LOSSLESS_TOL = 1e-9


def _edge_mask(y_mag):
    """Mask of the off-diagonal entries with a nonzero admittance: the lines."""
    mask = y_mag > 0
    np.fill_diagonal(mask, False)
    return mask


def _coupling_matrix(voltage, y_mag, theta):
    """Complex coupling ``G = (V V^T o Y_mag) o exp(i theta)``.

    ``P_e`` and the coupling weights are ``Re`` and ``Im`` of
    ``conj(z_j) G_jk z_k`` with ``z = exp(i delta)``, so the flow needs n
    trigonometric calls instead of n^2.
    """
    return np.outer(voltage, voltage) * y_mag * np.exp(1j * theta)


def _flow(coupling, delta):
    """Electrical power vector ``Re(conj(z) o G z)`` of the coupling ``G``."""
    z = np.exp(1j * np.asarray(delta, dtype=float))
    return (z.conj() * (coupling @ z)).real


def _newton(system, x, max_iter, what):
    """Damped Gauss-Newton (Dennis & Schnabel, SIAM 1996, ch. 6) on
    ``system(x) = (residual, state, jacobian)``, ``jacobian()`` building the
    Jacobian at ``x`` when a step needs it: least-squares steps, halved until
    the residual norm falls.  Returns the state once max |residual| <=
    ``TOL_EQ``; raises SingularReducedJacobian at a rank-deficient Jacobian
    and NoConvergence, with the last state, when the halving passes 1e-8 or
    ``max_iter`` steps do not converge."""
    res, state, jacobian = system(x)
    norm = np.linalg.norm(res)
    for _ in range(max_iter):
        if np.abs(res).max() <= TOL_EQ:
            break
        jac = jacobian()
        step, _, rank, _ = np.linalg.lstsq(jac, -res, rcond=None)
        if rank < jac.shape[1]:
            raise SingularReducedJacobian(
                "reduced flow Jacobian is rank deficient at the iterate")
        alpha = 1.0
        while alpha > 1e-8:
            trial = system(x + alpha * step)
            if np.linalg.norm(trial[0]) < norm:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(f"{what} line search stalled", best=state,
                                residual=float(np.abs(res).max()))
        x = x + alpha * step
        res, state, jacobian = trial
        norm = np.linalg.norm(res)
    if np.abs(res).max() > TOL_EQ:
        raise NoConvergence(f"no {what} within {max_iter} iterations", best=state,
                            residual=float(np.abs(res).max()))
    return state


@dataclass(frozen=True)
class PowerGridModel:
    """Reduced network data for an n-generator swing-equation model.

    ``y_mag``/``theta`` are the entrywise polar form of the reduced
    admittance matrix (per unit / radians), ``voltage`` the terminal voltage
    magnitudes (p.u.), ``p_mech`` mechanical powers (p.u.), ``inertia_const``
    per-generator inertia constants (s), ``damping_coeff`` unitless damping
    coefficients, and ``omega_s`` the synchronous speed (electrical rad/s;
    1.0 for normalized studies).
    """

    y_mag: np.ndarray
    theta: np.ndarray
    voltage: np.ndarray
    p_mech: np.ndarray
    inertia_const: np.ndarray
    damping_coeff: np.ndarray
    omega_s: float = 1.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        y = val.as_matrix(self.y_mag, "y_mag", dtype=float)
        th = val.as_matrix(self.theta, "theta", dtype=float)
        n = y.shape[0]
        if th.shape != (n, n):
            raise ModelFormatError("theta must match y_mag in shape")
        if np.any(y < 0):
            raise ModelFormatError("y_mag entries must be nonnegative")
        if not val.is_symmetric(y):
            raise ModelFormatError("y_mag must be symmetric")
        v = val.as_vector(self.voltage, "voltage")
        pm = val.as_vector(self.p_mech, "p_mech")
        m = val.as_vector(self.inertia_const, "inertia_const")
        d = val.as_vector(self.damping_coeff, "damping_coeff")
        for name, arr in (("voltage", v), ("p_mech", pm),
                          ("inertia_const", m), ("damping_coeff", d)):
            if arr.shape != (n,):
                raise ModelFormatError(f"{name} must have length {n}")
        if np.any(v <= 0):
            raise ModelFormatError("voltages must be positive")
        if np.any(m <= 0):
            raise ModelFormatError("inertia constants must be positive")
        if np.any(d < 0):
            raise ModelFormatError("damping coefficients must be nonnegative")
        if not 0 < self.omega_s < np.inf:
            raise ModelFormatError("omega_s must be positive and finite")
        if not self._connected(y):
            raise ModelFormatError("underlying network graph is not connected")
        object.__setattr__(self, "y_mag", y)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "voltage", v)
        object.__setattr__(self, "p_mech", pm)
        object.__setattr__(self, "inertia_const", m)
        object.__setattr__(self, "damping_coeff", d)

    @staticmethod
    def _connected(y):
        n = y.shape[0]
        if n == 1:
            return True
        adj = _edge_mask(y)
        seen = {0}
        frontier = [0]
        while frontier:
            j = frontier.pop()
            for k in np.nonzero(adj[j])[0]:
                if k not in seen:
                    seen.add(int(k))
                    frontier.append(int(k))
        return len(seen) == n

    @property
    def n(self):
        return self.y_mag.shape[0]

    def edges(self):
        """Ordered pairs (j, k), j != k, with a nonzero admittance entry, in
        row-major order."""
        return list(zip(*(idx.tolist() for idx in np.nonzero(_edge_mask(self.y_mag)))))

    def with_damping(self, damping_coeff):
        return replace(self, damping_coeff=np.asarray(damping_coeff, dtype=float))

    # -- flow function and Jacobian -------------------------------------

    def _phase(self, delta):
        delta = np.asarray(delta, dtype=float)
        return self.theta - delta[:, None] + delta[None, :]

    @functools.cached_property
    def _coupling(self):
        """:func:`_coupling_matrix` of the model, built on first use: most
        small models of the suites never evaluate a flow."""
        return _coupling_matrix(self.voltage, self.y_mag, self.theta)

    def flow(self, delta):
        """Electrical power vector P_e(delta), diagonal term included."""
        return _flow(self._coupling, delta)

    def weights(self, delta):
        """Coupling weights w[j,k] = V_j V_k Y_jk sin(theta_jk - delta_j + delta_k)."""
        z = np.exp(1j * np.asarray(delta, dtype=float))
        w = (self._coupling * np.outer(z.conj(), z)).imag
        np.fill_diagonal(w, 0.0)
        return w

    def flow_jacobian(self, delta):
        """Jacobian of the flow: -w off the diagonal, row sums zero."""
        w = self.weights(delta)
        jac = -w
        np.fill_diagonal(jac, w.sum(axis=1))
        return jac

    # -- structural predicates ------------------------------------------

    def is_lossless(self):
        """True iff theta is -pi/2 on the diagonal and +pi/2 on every edge.

        Entries with zero admittance magnitude are ignored.
        """
        target = np.full(self.theta.shape, math.pi / 2)
        np.fill_diagonal(target, -math.pi / 2)
        off = np.abs(self.theta - target) > LOSSLESS_TOL
        return not (off & (self.y_mag > 0)).any()

    def in_omega(self, delta):
        """Whether every edge angle theta_jk - delta_j + delta_k lies in (0, pi)."""
        phase = self._phase(delta)[_edge_mask(self.y_mag)]
        return bool(((OMEGA_MARGIN < phase) & (phase < math.pi - OMEGA_MARGIN)).all())

    # -- conversions ------------------------------------------------------

    def to_second_order(self):
        """Second-order form: M = diag(m)/omega_s, D = diag(d)/omega_s, and
        ``jac`` the flow Jacobian, the Jacobian of ``P_e(delta) - P_m``."""
        m = np.diag(self.inertia_const) / self.omega_s
        d = np.diag(self.damping_coeff) / self.omega_s
        return SecondOrderSystem(inertia=m, damping=d, jac=self.flow_jacobian)

    def solve_equilibrium(self, delta_guess):
        """P_m = P_e(delta) with delta_n pinned, by the damped :func:`_newton`.

        The last angle stays at its guess value (rotational gauge); the
        returned equilibrium reports the max power mismatch and membership
        in the admissible angle set.
        """
        guess = val.as_vector(delta_guess, "delta_guess")
        if guess.shape != (self.n,):
            raise ModelFormatError(f"delta_guess must have length {self.n}")

        def system(xfree):
            delta = np.concatenate([xfree, guess[-1:]])
            return (self.p_mech - self.flow(delta), delta,
                    lambda: -self.flow_jacobian(delta)[:, :-1])

        return self.equilibrium_at(_newton(system, guess[:-1], EQ_MAX_ITER, "equilibrium"))

    def equilibrium_at(self, delta0):
        """Equilibrium record for a known angle vector (residual reported as-is)."""
        delta0 = val.as_vector(delta0, "delta0")
        res = self.p_mech - self.flow(delta0)
        return GridEquilibrium(
            delta0=delta0,
            residual=float(np.abs(res).max()),
            in_omega=self.in_omega(delta0),
        )

    def referenced(self, eq):
        return ReferencedGridSystem(self, eq)


@dataclass(frozen=True)
class GridEquilibrium:
    delta0: np.ndarray
    residual: float
    in_omega: bool


class ReferencedGridSystem:
    """Reference-bus reduction: state (psi, omega) with psi_j = delta_j - delta_n.

    The reduction removes the rotational gauge mode, so the Jacobian at the
    reduced equilibrium has the full model's spectrum minus one zero
    eigenvalue; all Hopf analysis of grids runs here.
    """

    def __init__(self, model, eq):
        self.model = model
        self.psi0 = eq.delta0[:-1] - eq.delta0[-1]
        self.delta0 = eq.delta0
        self._minv = model.omega_s / model.inertia_const
        self._d = model.damping_coeff
        # Bound once for rhs, the inner loop of every integration.
        self._n = model.n
        self._p_mech = model.p_mech
        self._minv_d = self._minv * self._d

    @property
    def dim(self):
        return 2 * self.model.n - 1

    @property
    def equilibrium_state(self):
        return np.concatenate([self.psi0, np.zeros(self.model.n)])

    def _delta(self, psi):
        return np.concatenate([psi, [0.0]])

    def rhs(self, t, u):
        """``(omega_j - omega_n, M^-1 (P_m - P_e(psi, 0)) - M^-1 D omega)``,
        with the flow of :meth:`PowerGridModel.flow` written out, bit for bit:
        ``z = exp(i (psi, 0))``, ``P_e = Re(conj(z) o (G z))``."""
        n = self._n
        z = np.exp(np.multiply(u[:n], 1j))  # psi and omega_1, reset to exp(0)
        z[-1] = 1.0
        out = np.empty(2 * n - 1)
        np.subtract(u[n - 1 : -1], u[-1], out=out[: n - 1])
        out[n - 1 :] = self._minv * (
            self._p_mech - (z.conj() * self.model._coupling.dot(z)).real
        ) - self._minv_d * u[n - 1 :]
        return out

    def drift_equilibrium(self, guess):
        """Frequency-drift equilibrium from a referenced-state ``guess``.

        Every machine turns at one common frequency offset ``omega_bar``,
        so the referenced state ``(psi, omega_bar 1)`` is an equilibrium of
        :meth:`rhs` iff ``P_m - P_e(psi) - D omega_bar 1 = 0`` (n equations
        in n unknowns), solved for ``(psi, omega_bar)`` by :func:`_newton`
        from the guess's angles and mean frequency; an undamped model has
        a zero drift column and raises SingularReducedJacobian.
        """
        n = self.model.n
        guess = np.asarray(guess, dtype=float)

        def system(z):
            delta = self._delta(z[:-1])
            return (self.model.p_mech - self.model.flow(delta) - self._d * z[-1],
                    np.concatenate([z[:-1], np.full(n, z[-1])]),
                    lambda: np.hstack([-self.model.flow_jacobian(delta)[:, :-1],
                                       -self._d[:, None]]))

        z = np.concatenate([guess[: n - 1], [guess[n - 1 :].mean()]])
        return _newton(system, z, DRIFT_MAX_ITER, "drift equilibrium")

    def jacobian(self, u=None):
        n = self.model.n
        psi = self.psi0 if u is None else u[: n - 1]
        flow_jac = self.model.flow_jacobian(self._delta(psi))
        return referenced_jacobian(
            self._minv[:, None] * flow_jac, np.diag(self._minv * self._d)
        )


def _second_order(models):
    """:meth:`PowerGridModel.to_second_order` of models of one size as one
    stacked system, every inertia checked by one call; ``jac`` maps stacked
    angle vectors to the stacked flow Jacobians."""
    m, d = (np.stack([np.diag(getattr(model, name)) / model.omega_s for model in models])
            for name in ("inertia_const", "damping_coeff"))
    return SecondOrderSystem(m, d, lambda deltas: np.stack(
        [model.flow_jacobian(x) for model, x in zip(models, deltas)]))


def grid_damping_path(model, eq, mask, gamma_range):
    """Referenced damping path of ``model`` frozen at ``eq``.

    The damping coefficients under the boolean ``mask`` equal the path
    parameter gamma; the others keep ``model.damping_coeff``.  An all-False
    mask gives a path that is constant in gamma, a legitimate
    (crossing-free) scan.  The path carries the referenced vector field and
    its equilibrium, so :func:`hopf.hopf_conditions` computes ``l1``.
    """
    from .hopf import DampingPath  # here: importing swing loads no hopf

    mask = np.asarray(mask, dtype=bool)
    system = model.to_second_order()

    def coefficients(gamma):
        return np.where(mask, gamma, model.damping_coeff)

    def rhs_of(gamma):
        ref = model.with_damping(coefficients(gamma)).referenced(eq)
        return lambda x: ref.rhs(0.0, x)

    return DampingPath(
        inertia=system.inertia,
        stiffness=system.jac(eq.delta0),
        damping_of=lambda g: np.diag(coefficients(g)) / model.omega_s,
        damping_derivative=lambda g: np.diag(mask.astype(float)) / model.omega_s,
        gamma_range=tuple(gamma_range),
        referenced=True,
        rhs_of=rhs_of,
        x0=model.referenced(eq).equilibrium_state,
    )


# -- grid-specific criteria ----------------------------------------------


@dataclass(frozen=True)
class LosslessCriterionResult:
    imaginary_pair_exists: bool
    witnesses: tuple
    spectrum: object


def lossless_imaginary_criterion(model, eq, tol_axis=val.TOL_AXIS):
    """Imaginary-pair criterion for lossless grids at an admissible equilibrium.

    The Jacobian spectrum contains a pair of purely imaginary eigenvalues
    iff the pair ``(M^-1 grad P_e, M^-1 D)`` is unobservable, which
    :func:`stability.observability_symmetric` decides (``grad P_e`` of a
    lossless network is symmetric; AssumptionViolated if it is not).  The
    rotational zero mode of the flow Jacobian cannot break observability
    (unless the system is fully undamped), so witnesses are filtered to
    positive eigenvalues; the verdict is cross-checked against the directly
    computed axis content of the spectrum, structural zero excluded.

    ``model`` and ``eq`` may also be sequences of models of one size and of
    their equilibria: the preconditions are checked member by member, the
    observability and the spectra decided on stacks, and a list holds one
    result per member.
    """
    single = isinstance(model, PowerGridModel)
    models, eqs = ([model], [eq]) if single else (model, eq)
    for model, eq in zip(models, eqs):
        if not model.is_lossless():
            raise NotLossless("criterion requires a lossless network")
        if not eq.in_omega:
            raise NotInOmega("criterion requires an equilibrium in the admissible set")

    system = _second_order(models)
    lmat = system.jac([eq.delta0 for eq in eqs])
    verdicts = observability_symmetric(system.inertia, lmat, system.damping)
    results = []
    for model, verdict, report in zip(models, verdicts,
                                      _reports(system.inertia, system.damping, lmat, tol_axis)):
        scale = max(1.0, max(abs(lam) for lam, _ in verdict.margins))
        positive = tuple(w for w in verdict.witnesses if w.eigenvalue.real > 1e-9 * scale)
        pair_from_observability = (not verdict.observable) and (
            len(positive) > 0 or np.all(model.damping_coeff == 0))
        pair_from_spectrum = report.nonzero_axis_set.size > 0
        if pair_from_observability != pair_from_spectrum:
            raise TheoremViolation(
                "observability and spectral verdicts disagree on the imaginary pair",
                first_verdict=verdict, second_verdict=report)
        results.append(LosslessCriterionResult(pair_from_spectrum, positive, report))
    return results[0] if single else results


def damping_repair_suggestion(model, eq, witnesses):
    """One generator index per witness: the first undamped generator with a
    nonzero component (above ``TOL_OBS`` times the largest) in the witness
    vector.

    Damping that generator makes this witness vector observable.  It does
    not always remove the imaginary pair: when the unobservable eigenspace
    has dimension k >= 2, other vectors of it can still lie in the kernel
    of the new damping, and several witnesses can name the same generator
    (a cluster-wise choice is ROADMAP item 9).  The result is not checked.
    Raises NoRepairIndex when a witness has no such component (every
    nonzero entry already damped).
    """
    suggestions = []
    for witness in witnesses:
        vec = np.abs(np.asarray(witness.vector))
        threshold = val.TOL_OBS * max(vec.max(), 1e-300)
        chosen = None
        for j in range(model.n):
            if vec[j] > threshold and model.damping_coeff[j] == 0:
                chosen = j
                break
        if chosen is None:
            raise NoRepairIndex(
                "every nonzero witness component is already damped"
            )
        suggestions.append(chosen)
    return suggestions


def build_nonhyperbolic_family(n_peers, d_tail):
    """(M, D, L) of the (n+1)-generator family that always carries an axis pair.

    M is the identity, the first two generators are undamped with the rest
    damped by ``d_tail``, and L has unit diagonal with off-diagonal entries
    ``-1/n``.  The spectrum of the associated Jacobian contains the pair
    ``+- i sqrt(1 + 1/n)`` for any tail damping.
    """
    if n_peers < 2:
        raise AssumptionViolated("n >= 2")
    d_tail = val.as_vector(d_tail, "d_tail")
    if d_tail.shape != (n_peers - 1,):
        raise AssumptionViolated(
            "d_tail length", f"expected {n_peers - 1}, got {d_tail.shape[0]}"
        )
    size = n_peers + 1
    m = np.eye(size)
    d = np.diag(np.concatenate([[0.0, 0.0], d_tail]))
    l = np.full((size, size), -1.0 / n_peers)
    np.fill_diagonal(l, 1.0)

    beta = math.sqrt(1.0 + 1.0 / n_peers)
    eigs = np.linalg.eigvals(jacobian_2n(m, d, l))
    for target in (1j * beta, -1j * beta):
        if np.abs(eigs - target).min() > 1e-8:
            raise TheoremViolation(
                "constructed family lost its imaginary pair",
                first_verdict=target,
                second_verdict=eigs,
            )
    return m, d, l


def small_n_hyperbolicity_check(model, eq):
    """Hyperbolicity (beyond the structural zero) for 2- and 3-generator grids.

    Hypotheses: exactly one undamped generator, connected network, coupling
    weights with a symmetric zero pattern at the equilibrium.  For n = 2 the
    mutual weights only need to be nonzero (either sign); for n = 3 the
    equilibrium must lie in the admissible set so all weights are positive.
    Under these hypotheses the result is always True.  Sequences of models
    of one size and of their equilibria are checked member by member and
    their spectra taken on one stack; a list holds one verdict per member.
    """
    single = isinstance(model, PowerGridModel)
    models, eqs = ([model], [eq]) if single else (model, eq)
    for model, eq in zip(models, eqs):
        if model.n not in (2, 3):
            raise AssumptionViolated("n in {2, 3}")
        undamped = np.count_nonzero(model.damping_coeff == 0)
        if undamped != 1:
            raise AssumptionViolated("exactly one undamped generator", f"found {undamped}")
        w = model.weights(eq.delta0)
        zero = np.abs(w) <= 1e-12 * max(np.abs(w).max(), 1e-300)
        if (zero != zero.T).any():
            raise AssumptionViolated("symmetric zero pattern of weights")
        if model.n == 2 and zero[0, 1]:
            raise AssumptionViolated("nonzero mutual coupling")
        if model.n == 3 and not eq.in_omega:
            raise AssumptionViolated("equilibrium in the admissible angle set")

    system = _second_order(models)
    reports = _reports(system.inertia, system.damping, system.jac([eq.delta0 for eq in eqs]))
    verdicts = [report.nonzero_axis_set.size == 0 for report in reports]
    return verdicts[0] if single else verdicts


# -- end of a cycle branch: homoclinic connection to a drift saddle ----------

#: Fates of an unstable-manifold branch (see :func:`locate_homoclinic`).
POLE_SLIP = "pole_slip"
CAPTURED = "captured"

#: Launch offset along the unstable eigenvector, time horizon, integrator
#: tolerances and capture-ball radius for unstable-manifold orbits, and the
#: width at which the damping bisection stops.  The case2 bracket is
#: unchanged for offsets 1e-6..1e-8, rtol 1e-10..1e-12 and capture radii
#: 0.02..0.1.
MANIFOLD_OFFSET = 1e-7
MANIFOLD_T_MAX = 500.0
MANIFOLD_RTOL = 1e-10
MANIFOLD_ATOL = 1e-12
MANIFOLD_CAPTURE_RADIUS = 0.05
HOMOCLINIC_TOL = 1e-5


@dataclass(frozen=True)
class HomoclinicBracket:
    """Damping interval across which a saddle's unstable manifold changes fate.

    ``fate_low``/``fate_high`` hold at ``gamma_low``/``gamma_high``; the
    switch between them is a homoclinic connection.  The saddle state (a
    referenced state with a common frequency drift), its eigenvalues and the
    saddle quantity ``lambda_u + Re lambda_s`` (unstable eigenvalue plus the
    leading stable one) are evaluated at :attr:`gamma_h`; a positive saddle
    quantity means the cycle that ends at the connection is a saddle cycle.
    """

    gamma_low: float
    gamma_high: float
    saddle_state: np.ndarray
    saddle_eigenvalues: np.ndarray
    saddle_quantity: float
    fate_low: str
    fate_high: str

    @property
    def gamma_h(self):
        return 0.5 * (self.gamma_low + self.gamma_high)


def locate_homoclinic(model, eq, damping_of, gamma_bracket, saddle_guess):
    """Bracket the damping value where a cycle branch ends in a homoclinic loop.

    At each damping ``model.with_damping(damping_of(gamma))`` the
    frequency-drift saddle is found by
    :meth:`ReferencedGridSystem.drift_equilibrium` (the first from
    ``saddle_guess``, later ones warm-started) and must have exactly one
    unstable eigenvalue, which is real.  An orbit launched at
    ``saddle +- MANIFOLD_OFFSET * v_u`` follows a branch of its unstable
    manifold until the first of two stops fires (a stop function going from
    ``<= 0`` to ``>= 0`` within a step, the step loop's event rule):

    * pole slip, ``max |psi - psi_eq| - 2 pi``: some referenced angle moves
      more than 2 pi from the stable equilibrium ``eq``;
    * capture, ``MANIFOLD_CAPTURE_RADIUS - |x - x_eq|``: the orbit enters
      the ball of that radius about ``eq``.

    The orbits run with ``simulate.SHOOTING_METHOD`` (DOP853) at
    ``MANIFOLD_RTOL`` = 1e-10, where the eighth-order pair takes far fewer
    steps than the 5(4) one and the bracket is the same.

    Assumption: on the whole bracket the capture ball lies inside the basin
    of attraction of ``eq``, so an orbit that enters it converges to ``eq``.
    While the unstable cycle born at the subcritical Hopf point exists it is
    a saddle cycle, and near ``eq`` the basin boundary is that cycle's
    two-dimensional stable manifold; the ball must lie on ``eq``'s side of
    it.  ``eq`` must be linearly stable at both ends.

    The branch whose fate differs at the two ends of ``gamma_bracket`` is
    bisected on ``gamma`` until the bracket is narrower than
    ``HOMOCLINIC_TOL``.  Branch +1 is tried first; branch -1 is integrated
    only when branch +1 does not switch (on case2 it does).  A branch
    changes fate only where it lies on the basin boundary of ``eq``: below
    the switch it stays on the far side of the saddle cycle's stable
    manifold and slips; at the switch the cycle has grown into a loop
    through the saddle, and above it the cycle is gone and the branch falls
    into ``eq`` (or vice versa).

    Raises PreconditionViolated when ``eq`` is unstable at an end or no
    branch changes fate across the bracket (listing the fates of both
    branches at both ends), AssumptionViolated when the saddle's unstable
    manifold is not one-dimensional, and NoConvergence, with the orbit's
    last state, when an orbit meets neither event within ``MANIFOLD_T_MAX``
    or its step size underflows.
    """
    from .simulate import _norm, _shoot  # here: importing swing loads no simulate

    n = model.n
    x_eq = model.referenced(eq).equilibrium_state
    guess = np.asarray(saddle_guess, dtype=float)

    def saddle_at(gamma):
        nonlocal guess
        ref = model.with_damping(damping_of(gamma)).referenced(eq)
        saddle = ref.drift_equilibrium(guess)
        # The angle-periodic image of the saddle nearest to eq.
        saddle[: n - 1] -= 2 * math.pi * np.round(
            (saddle[: n - 1] - x_eq[: n - 1]) / (2 * math.pi)
        )
        guess = saddle
        eigs, vecs = np.linalg.eig(ref.jacobian(saddle))
        unstable = np.flatnonzero(eigs.real > 0)
        if unstable.size != 1 or eigs[unstable[0]].imag != 0:
            raise AssumptionViolated(
                "one real unstable eigenvalue at the saddle",
                f"saddle eigenvalues at gamma = {gamma}: {eigs}",
            )
        v = np.real(vecs[:, unstable[0]])
        v = v / np.linalg.norm(v)
        if v @ (x_eq - saddle) < 0:
            v = -v
        return ref, saddle, eigs, v

    def slip(y):
        # An upward crossing, although a pole slip may cross either way: the
        # saddle is the periodic image nearest eq, so the orbit starts at
        # most pi - 2 pi < 0 and its first crossing is upward.
        return np.abs(y[: n - 1] - x_eq[: n - 1]).max() - 2 * math.pi

    def capture(y):
        return MANIFOLD_CAPTURE_RADIUS - _norm(y - x_eq)

    def fate(ref, saddle, v, branch):
        hit, _, y = _shoot(ref.rhs, saddle + branch * MANIFOLD_OFFSET * v,
                           MANIFOLD_T_MAX, (slip, capture), MANIFOLD_RTOL,
                           MANIFOLD_ATOL)
        if hit is None:
            raise NoConvergence(
                f"unstable-manifold orbit at damping {ref.model.damping_coeff} "
                f"neither slipped nor was captured within t = {MANIFOLD_T_MAX}",
                best=y,
            )
        return (POLE_SLIP, CAPTURED)[hit]

    lo, hi = map(float, gamma_bracket)
    ends = {}
    for gamma in (lo, hi):
        ref, saddle, _, v = saddle_at(gamma)
        if np.linalg.eigvals(ref.jacobian()).real.max() >= 0:
            raise PreconditionViolated(
                f"equilibrium is not linearly stable at gamma = {gamma}"
            )
        ends[gamma] = ref, saddle, v
    fates = {gamma: {1: fate(*ends[gamma], 1)} for gamma in (lo, hi)}
    branch = 1
    if fates[lo][1] == fates[hi][1]:
        branch = -1
        for gamma in (lo, hi):
            fates[gamma][-1] = fate(*ends[gamma], -1)
        if fates[lo][-1] == fates[hi][-1]:
            raise PreconditionViolated(
                "no unstable-manifold branch changes fate across the bracket "
                f"[{lo}, {hi}]: {fates}"
            )
    fate_lo, fate_hi = fates[lo][branch], fates[hi][branch]
    while hi - lo > HOMOCLINIC_TOL:
        mid = 0.5 * (lo + hi)
        ref, saddle, _, v = saddle_at(mid)
        if fate(ref, saddle, v, branch) == fate_lo:
            lo = mid
        else:
            hi = mid

    _, saddle, eigs, _ = saddle_at(0.5 * (lo + hi))
    lam_u = eigs.real.max()
    lam_s = eigs.real[eigs.real < 0].max()
    return HomoclinicBracket(
        gamma_low=lo,
        gamma_high=hi,
        saddle_state=saddle,
        saddle_eigenvalues=eigs,
        saddle_quantity=float(lam_u + lam_s),
        fate_low=fate_lo,
        fate_high=fate_hi,
    )


# -- bundled demonstration model ------------------------------------------


def demo_lossy_two_machine(gamma=0.25):
    """Two generators joined by a lossy line; the first generator's damping is ``gamma``.

    The off-diagonal reduced admittance entry is -1 + 5.7978i p.u.  The
    angle-independent self terms are dropped and their constant power offset
    absorbed into the mechanical powers so that (1.4905, 0) is an exact
    equilibrium; the absorbed constants are recorded in the metadata.
    The model is ``models/case2.json`` at ``gamma``, ``p_mech`` to 1 ulp.
    """
    y12 = complex(-1.0, 5.7978)
    mag = abs(y12)
    ang = math.atan2(y12.imag, y12.real)
    y = np.array([[0.0, mag], [mag, 0.0]])
    theta = np.array([[0.0, ang], [ang, 0.0]])
    delta0 = np.array([1.4905, 0.0])
    probe = PowerGridModel(
        y_mag=y,
        theta=theta,
        voltage=np.ones(2),
        p_mech=np.zeros(2),
        inertia_const=np.ones(2),
        damping_coeff=np.array([gamma, 1.0]),
        omega_s=1.0,
    )
    p_eff = probe.flow(delta0)
    reported = np.array([6.6991, -4.8593])
    return replace(
        probe,
        p_mech=p_eff,
        metadata={
            "equilibrium_angles": tuple(delta0),
            "absorbed_power_offsets": tuple(reported - p_eff),
        },
    )


# -- model files -----------------------------------------------------------

_REQUIRED_KEYS = ("n", "Y", "V", "Pm", "inertia", "damping")


class GridModelFile:
    """Parsed grid model file; damping entries may be the placeholder "gamma"."""

    def __init__(self, data, source="<dict>"):
        self.source = source
        for key in _REQUIRED_KEYS:
            if key not in data:
                raise ModelFormatError(f"{source}: missing required field '{key}'")
        self.n = data["n"]
        if not isinstance(self.n, int) or self.n < 2:
            raise ModelFormatError(f"{source}: n must be an integer >= 2")
        if not isinstance(data["Y"], list):
            raise ModelFormatError(f"{source}: Y must be a list of entries")
        if not (isinstance(data["damping"], list) and len(data["damping"]) == self.n):
            raise ModelFormatError(f"{source}: damping must be a list of length {self.n}")
        self.y_entries = data["Y"]
        self.voltage = data["V"]
        self.p_mech = data["Pm"]
        self.inertia = data["inertia"]
        self.damping_spec = data["damping"]
        self.omega_s = data.get("omega_s", 1.0)
        self.delta_guess = guess = data.get("delta_guess")
        if guess is not None and not (
                isinstance(guess, list) and len(guess) == self.n
                and all(_json_number(v) and -math.inf < v < math.inf for v in guess)):
            raise ModelFormatError(f"{source}: delta_guess must be a list of {self.n} numbers")
        #: Which damping entries are the placeholder "gamma".
        self.gamma_mask = np.array(
            [entry == "gamma" for entry in self.damping_spec], dtype=bool
        )
        self.has_gamma = bool(self.gamma_mask.any())

    def damping_vector(self, gamma=None):
        if self.has_gamma and gamma is None:
            raise ModelFormatError(
                f"{self.source}: damping contains 'gamma' placeholders; "
                "a gamma value is required"
            )
        out = []
        for i, entry in enumerate(self.damping_spec):
            if self.gamma_mask[i]:
                out.append(float(gamma))
            elif _json_number(entry):
                out.append(float(entry))
            else:
                raise ModelFormatError(
                    f"{self.source}: damping[{i}] must be a number or 'gamma'"
                )
        return np.array(out)

    def model(self, gamma=None):
        n = self.n
        y = np.zeros((n, n))
        theta = np.zeros((n, n))
        filled = np.zeros((n, n), dtype=bool)
        for i, entry in enumerate(self.y_entries):
            where = f"{self.source}: Y[{i}]"
            if not isinstance(entry, dict):
                raise ModelFormatError(f"{where}: must be an object")
            j, k = entry.get("from"), entry.get("to")
            if not (_json_number(j, int) and _json_number(k, int)):
                raise ModelFormatError(
                    f"{where}: needs integer 'from' and 'to' bus numbers"
                )
            j, k = j - 1, k - 1
            if not (0 <= j < n and 0 <= k < n):
                raise ModelFormatError(f"{where}: bus number out of range 1..{n}")
            if not all(_json_number(entry[key]) for key in ("re", "im", "mag", "angle")
                       if key in entry):
                raise ModelFormatError(f"{where}: re/im and mag/angle must be numbers")
            if "re" in entry or "im" in entry:
                z = complex(entry.get("re", 0.0), entry.get("im", 0.0))
                mag, ang = abs(z), math.atan2(z.imag, z.real)
            elif "mag" in entry:
                mag, ang = float(entry["mag"]), float(entry.get("angle", 0.0))
            else:
                raise ModelFormatError(f"{where}: needs either re/im or mag/angle")
            if mag < 0:
                raise ModelFormatError(f"{where}: magnitude must be nonnegative")
            for a, bdx in ((j, k), (k, j)):
                if filled[a, bdx]:
                    raise ModelFormatError(
                        f"{where}: duplicate entry for buses "
                        f"({a + 1}, {bdx + 1})"
                    )
                filled[a, bdx] = True
                y[a, bdx] = mag
                theta[a, bdx] = ang

        def numbers(key, value, convert=lambda v: np.asarray(v, dtype=float)):
            # A list holds JSON numbers only; any other value but a bool is
            # left to the conversion and the model's shape checks.
            try:
                if isinstance(value, bool) or (
                        isinstance(value, list) and not all(map(_json_number, value))):
                    raise TypeError
                return convert(value)
            except (TypeError, ValueError):
                raise ModelFormatError(
                    f"{key} must be numeric, got {value!r}"
                ) from None

        damping = self.damping_vector(gamma)
        try:
            return PowerGridModel(
                y_mag=y,
                theta=theta,
                voltage=numbers("V", self.voltage),
                p_mech=numbers("Pm", self.p_mech),
                inertia_const=numbers("inertia", self.inertia),
                damping_coeff=damping,
                omega_s=numbers("omega_s", self.omega_s, float),
            )
        except (ModelFormatError, MatrixShapeError) as exc:
            raise ModelFormatError(f"{self.source}: {exc}") from None


def _json_number(value, kind=(int, float)):
    """Whether ``value`` parsed from JSON is a number of ``kind`` (not a bool)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def load_grid_model(path):
    """Parse a grid model JSON file into a GridModelFile."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    return GridModelFile(data, source=str(path))
