"""Computations made apart from damplab, used to check its outputs.

Nothing here imports damplab.  A grid is rebuilt from its arrays (read from
a model file by this module's own parser, or taken from a model object's
attributes), and its power flow, Jacobians and vector field are written in
the complex form ``P_e = Re(conj(z) * (Y z))`` with ``z = V exp(i delta)``,
where damplab uses the real trigonometric sum.  Integrations use scipy's
DOP853 at tight tolerances, where damplab uses RK45.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, linear_sum_assignment

#: Relative half-width of the imaginary-axis band used to count axis
#: eigenvalues (relative to max(1, spectral radius)).
AXIS_BAND = 1e-7

DOP853_RTOL = 1e-11
DOP853_ATOL = 1e-13


class Grid:
    """Swing-equation grid: reduced admittance, voltages, powers, inertia, damping.

    The referenced state is ``(psi_1..psi_{n-1}, omega_1..omega_n)`` with
    ``psi_j = delta_j - delta_n`` and
    ``omega_j' = (omega_s / m_j) (P_m,j - P_e,j - d_j omega_j)``.
    """

    def __init__(self, y_mag, theta, voltage, p_mech, inertia, damping,
                 omega_s=1.0):
        self.y = np.asarray(y_mag, float) * np.exp(1j * np.asarray(theta, float))
        self.v = np.asarray(voltage, float)
        self.p_mech = np.asarray(p_mech, float)
        self.m = np.asarray(inertia, float)
        self.d = np.asarray(damping, float)
        self.omega_s = float(omega_s)

    @classmethod
    def from_model(cls, model):
        """Arrays of a damplab ``PowerGridModel`` (attributes only)."""
        return cls(model.y_mag, model.theta, model.voltage, model.p_mech,
                   model.inertia_const, model.damping_coeff, model.omega_s)

    @classmethod
    def from_file(cls, path, gamma=None):
        """Parse a model JSON file; returns the grid and its angle guess."""
        with open(path) as fh:
            data = json.load(fh)
        n = data["n"]
        y_mag, theta = np.zeros((n, n)), np.zeros((n, n))
        for entry in data["Y"]:
            j, k = entry["from"] - 1, entry["to"] - 1
            if "mag" in entry:
                mag, ang = entry["mag"], entry.get("angle", 0.0)
            else:
                z = complex(entry.get("re", 0.0), entry.get("im", 0.0))
                mag, ang = abs(z), math.atan2(z.imag, z.real)
            y_mag[j, k] = y_mag[k, j] = mag
            theta[j, k] = theta[k, j] = ang
        damping = [gamma if d == "gamma" else d for d in data["damping"]]
        grid = cls(y_mag, theta, data["V"], data["Pm"], data["inertia"],
                   damping, data.get("omega_s", 1.0))
        return grid, np.asarray(data.get("delta_guess", np.zeros(n)), float)

    @property
    def n(self):
        return self.v.size

    def with_damping(self, damping):
        grid = Grid.__new__(Grid)
        grid.__dict__.update(self.__dict__)
        grid.d = np.asarray(damping, float)
        return grid

    def power(self, delta):
        z = self.v * np.exp(1j * np.asarray(delta, float))
        return (np.conj(z) * (self.y @ z)).real

    def power_jacobian(self, delta):
        """d P_e / d delta."""
        z = self.v * np.exp(1j * np.asarray(delta, float))
        jac = (1j * np.conj(z)[:, None] * self.y * z[None, :]).real
        own = (-1j * np.conj(z) * (self.y @ z)).real + (
            1j * np.diag(self.y) * np.abs(z) ** 2
        ).real
        np.fill_diagonal(jac, own)
        return jac

    def equilibrium(self, guess):
        """Angles with ``P_e = P_m``; the last angle stays at its guess."""
        delta = np.array(guess, float)
        for _ in range(50):
            mismatch = (self.power(delta) - self.p_mech)[:-1]
            if np.abs(mismatch).max() <= 1e-13:
                return delta
            delta[:-1] -= np.linalg.solve(self.power_jacobian(delta)[:-1, :-1], mismatch)
        raise RuntimeError(f"no equilibrium from {guess}: mismatch {mismatch}")

    def full_jacobian(self, delta, ground=0.0):
        """2n-by-2n Jacobian of (delta, omega) at (delta, 0); ``ground`` adds
        the restoring term ``ground * M`` to the stiffness."""
        n = self.n
        a = self.omega_s / self.m
        top = np.hstack([np.zeros((n, n)), np.eye(n)])
        stiffness = a[:, None] * self.power_jacobian(delta) + ground * np.eye(n)
        bottom = np.hstack([-stiffness, -np.diag(a * self.d)])
        return np.vstack([top, bottom])

    def referenced_state(self, delta):
        delta = np.asarray(delta, float)
        return np.concatenate([delta[:-1] - delta[-1], np.zeros(self.n)])

    def referenced_rhs(self, t, x):
        n = self.n
        psi, omega = x[: n - 1], x[n - 1:]
        a = self.omega_s / self.m
        domega = a * (self.p_mech - self.power(np.append(psi, 0.0))
                      - self.d * omega)
        return np.concatenate([omega[:-1] - omega[-1], domega])

    def referenced_jacobian(self, x):
        n = self.n
        a = self.omega_s / self.m
        k = self.power_jacobian(np.append(x[: n - 1], 0.0))
        top = np.hstack([np.zeros((n - 1, n - 1)), np.eye(n - 1),
                         -np.ones((n - 1, 1))])
        bottom = np.hstack([-a[:, None] * k[:, : n - 1], -np.diag(a * self.d)])
        return np.vstack([top, bottom])


def scale(eigs):
    return max(1.0, float(np.abs(eigs).max()))


def band(eigs):
    return AXIS_BAND * scale(eigs)


def inertia_triple(eigs):
    """(left, axis, right) counts of ``eigs`` with this module's band."""
    b = band(eigs)
    re = np.asarray(eigs).real
    return (int(np.sum(re < -b)), int(np.sum(np.abs(re) <= b)),
            int(np.sum(re > b)))


def axis_pairs(eigs):
    """Axis eigenvalues other than zero (the structural rotation mode)."""
    b = band(eigs)
    eigs = np.asarray(eigs)
    return eigs[(np.abs(eigs.real) <= b) & (np.abs(eigs.imag) > b)]


def match_distance(first, second):
    """Largest distance in the optimal one-to-one matching of two multisets."""
    a = np.asarray(first, complex).ravel()
    b = np.asarray(second, complex).ravel()
    if a.size != b.size:
        return math.inf
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if a.size else 0.0


def flow(rhs, x0, t1, dense=False):
    """DOP853 solution of ``x' = rhs(t, x)`` on [0, t1]."""
    sol = solve_ivp(rhs, (0.0, t1), np.asarray(x0, float), method="DOP853",
                    rtol=DOP853_RTOL, atol=DOP853_ATOL, dense_output=dense)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol


def hopf_root(jacobian_of, lo, hi):
    """Damping value where max Re of the spectrum of ``jacobian_of(g)`` is 0."""

    def growth(g):
        return float(np.linalg.eigvals(jacobian_of(g)).real.max())

    g0 = brentq(growth, lo, hi, xtol=1e-13, rtol=1e-14)
    eigs = np.linalg.eigvals(jacobian_of(g0))
    h = 1e-6
    slope = (growth(g0 + h) - growth(g0 - h)) / (2 * h)
    return g0, float(np.abs(eigs[np.argmax(eigs.real)].imag)), slope
