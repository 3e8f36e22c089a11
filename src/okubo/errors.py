"""Exception hierarchy shared across the package."""

from fractions import Fraction


class OkuboError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message, context=None):
        super().__init__(message)
        self.message = message
        self.context = context or {}

    def as_json(self):
        # a rational context value (not a bool) goes through the writer
        from .exact import rational_text  # exact imports this module

        text = lambda v: (rational_text(v) if isinstance(v, (int, Fraction))
                          and not isinstance(v, bool) else str(v))
        return {"error": {"code": self.code, "message": self.message,
                          "context": {k: text(v)
                                      for k, v in self.context.items()}}}


class InputError(OkuboError):
    """Malformed user input (bad rational string, unknown mode, ...)."""

    code = "input"


class DimensionMismatch(OkuboError):
    code = "dimension-mismatch"


class SingularMatrixError(OkuboError):
    code = "singular-matrix"


class NotAnEigenvalue(OkuboError):
    code = "not-an-eigenvalue"


class DegenerateChart(OkuboError):
    """The ratio vector violates r1*r2*r3*r4 != 0, r1 != r2 or r3 != r4."""

    code = "degenerate-chart"


class DConditionError(OkuboError):
    """The rational constraint fixing the fourth local exponent fails."""

    code = "d-condition"


class EigenvectorDegeneracy(OkuboError):
    """Left eigenvectors violate the nonvanishing conditions needed to
    normalize the coefficient matrix; context["failures"] lists which."""

    code = "eigenvector-degeneracy"


class AdmissibilityError(OkuboError):
    """Local exponents hit an excluded (integer or resonant) configuration."""

    code = "admissibility"


class OutsideDisc(OkuboError):
    """Evaluation point outside the region where a series is trusted."""

    code = "outside-disc"


class QuadratureError(OkuboError):
    """Quadrature refinements failed to agree to the requested tolerance."""

    code = "quadrature"


class InternalInconsistency(RuntimeError):
    """Two independent criteria that must agree did not; indicates a bug."""
