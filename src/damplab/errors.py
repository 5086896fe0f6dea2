"""Exception hierarchy for damplab.

Errors that carry diagnostic payloads (best iterates, conflicting verdicts)
store them as attributes so callers and the CLI can report them.
"""


class DampLabError(Exception):
    """Base class for all damplab errors."""


class MatrixShapeError(DampLabError):
    """Input array has the wrong shape or non-finite entries."""


class SingularLeadingCoefficient(DampLabError):
    """The leading (quadratic) coefficient of a pencil is numerically singular."""


class SingularInertia(DampLabError):
    """The inertia matrix is numerically singular."""


class PreconditionViolated(DampLabError):
    """An operation's stated precondition does not hold for the given input."""


class SingularMatrix(PreconditionViolated):
    """A matrix required to be nonsingular is numerically rank deficient."""


class AssumptionViolated(DampLabError):
    """A theorem hypothesis (symmetry, definiteness, structure) fails.

    The ``hypothesis`` attribute names the failed assumption.
    """

    def __init__(self, hypothesis, message=""):
        self.hypothesis = hypothesis
        super().__init__(message or f"assumption violated: {hypothesis}")


class TheoremViolation(DampLabError):
    """Two independently computed verdicts that must agree do not.

    Signals tolerance pathology, never silently resolved.  Carries both
    verdicts for diagnosis.
    """

    def __init__(self, message, first_verdict=None, second_verdict=None):
        self.first_verdict = first_verdict
        self.second_verdict = second_verdict
        super().__init__(message)


class TrackingAmbiguity(DampLabError):
    """Eigenvalue continuation could not pair spectra between sweep samples;
    carries the parameter ``gamma`` where it failed."""

    def __init__(self, message, gamma=None):
        self.gamma = gamma
        super().__init__(message)


class NotAnAxisEigenvalue(DampLabError):
    """No eigenvalue near the imaginary axis at the requested parameter."""


class NormalizationFailure(DampLabError):
    """Left/right eigenvector normalization l*.r = 1 could not be enforced."""


class NoConvergence(DampLabError):
    """Iteration failed to converge; carries the best iterate found."""

    def __init__(self, message, best=None, residual=None):
        self.best = best
        self.residual = residual
        super().__init__(message)


class SingularReducedJacobian(DampLabError):
    """The reduced Newton Jacobian is singular at the current iterate."""


class NotLossless(DampLabError):
    """Operation requires a lossless network."""


class NotInOmega(DampLabError):
    """Operation requires an equilibrium inside the admissible angle set."""


class NoRepairIndex(DampLabError):
    """Every nonzero component of the witness mode is already damped."""


class StepSizeUnderflow(DampLabError):
    """The integrator step size underflowed; carries the last good state."""

    def __init__(self, message, last_time=None, last_state=None):
        self.last_time = last_time
        self.last_state = last_state
        super().__init__(message)


class NonTransversal(DampLabError):
    """The Poincare section is not transversal to the flow at the seed."""


class CycleNotFound(DampLabError):
    """The cycle search located no periodic orbit: the two-return defect
    kept its sign, the bracket ended at an escape boundary, or the Newton
    refinement failed.  This is no proof that no cycle exists."""


class ModelFormatError(DampLabError):
    """A grid model file is malformed; message pinpoints the offending entry."""
