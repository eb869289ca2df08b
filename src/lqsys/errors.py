"""Exception hierarchy shared by all lqsys modules; ``exit_code`` is the
status the ``lqsys`` command exits with on each error."""


def _fmt_complex(z):
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:g}{sign}{abs(z.imag):g}i"


class LqsysError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class DimensionError(LqsysError):
    """Matrix dimensions are incompatible with the requested operation."""


class ParameterError(LqsysError):
    """Physical parameters violate their structural invariants."""


class ExactnessError(LqsysError):
    """Exact arithmetic was requested but the input is not exact."""

    exit_code = 4


class RealizabilityError(LqsysError):
    """An identity that requires physical realizability was applied to a
    system whose realizability residual exceeds tolerance."""

    exit_code = 5


class PoleEvaluationError(LqsysError):
    """A transfer matrix was evaluated at (or too close to) a pole."""

    exit_code = 6

    def __init__(self, s, pole):
        self.s = s
        self.pole = pole
        super().__init__(
            f"cannot evaluate transfer matrix at s={s}: "
            f"within tolerance of the pole {pole}"
        )


class NumericalError(LqsysError):
    """A numerical procedure failed to converge or lost too much accuracy."""

    exit_code = 6


class SubspaceToleranceError(NumericalError):
    """Rank decisions in a staircase decomposition are unstable at the
    given tolerance; carries the singular-value gap for diagnosis."""

    def __init__(self, message, gap=None):
        self.gap = gap
        super().__init__(message)


class HiddenModeConditionError(LqsysError):
    """A classification that is only valid when every hidden mode
    (controllable-unobservable, uncontrollable-observable, or
    uncontrollable-unobservable) is purely imaginary was requested for a
    system that violates that condition."""

    exit_code = 5

    def __init__(self, offending):
        self.offending = list(offending)
        vals = ", ".join(_fmt_complex(z) for z in self.offending)
        super().__init__(
            "refused: the hidden-mode eigenvalues must be purely imaginary "
            f"for this classification, but [{vals}] have nonzero real part. "
            "A system with a real hidden mode can defeat the eigenvalue "
            "criterion (an unobservable growing mode is invisible in the "
            "output), so no verdict is produced."
        )


class DegenerateNetworkError(LqsysError):
    """The closed-loop denominator vanishes identically."""

    exit_code = 7


class SynthesisError(LqsysError):
    """Controller synthesis has a vanishing denominator or produces a
    parameter outside the admissible regime."""

    exit_code = 7


class UnsolvableError(LqsysError):
    """The mixing-angle equation for ideal squeezing has no solution."""

    exit_code = 7


class SpecFileError(LqsysError):
    """A system-spec file failed to parse or validate."""

    exit_code = 3

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
