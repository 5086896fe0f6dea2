"""Damping, hyperbolicity and Hopf bifurcation analysis for second-order systems.

Subpackages
-----------
``linalg``
    Quadratic-pencil eigenanalysis, numerical rank, spectrum
    classification.
``perturbation``
    Complex-symmetric rank perturbation checks: inverse duality, imaginary
    updates, rank monotonicity.
``stability``
    Observability, hyperbolicity and damping-monotonicity analysis.
``hopf``
    Damping sweeps, crossing tracking, Hopf certificates, Lyapunov
    coefficients.
``swing``
    Power-grid swing-equation layer.
``simulate``
    Time integration, Poincare cycle search, orbit classification.
``suites``
    Seeded randomized verification suites.
"""

from . import errors, hopf, linalg, perturbation, simulate, stability, suites, swing

__all__ = [
    "errors",
    "hopf",
    "linalg",
    "perturbation",
    "simulate",
    "stability",
    "suites",
    "swing",
]

__version__ = "0.1.0"
