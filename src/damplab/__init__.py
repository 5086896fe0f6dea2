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


def __getattr__(name):
    # PEP 562: a submodule loads on first access, so ``import damplab``
    # loads none and each CLI command loads only the modules it runs.
    if name in __all__:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
