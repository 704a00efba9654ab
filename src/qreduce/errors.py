"""Exception types shared across the package."""


class QReduceError(Exception):
    """Base class for all package errors."""


class ConfigError(QReduceError):
    """Invalid or schema-violating run configuration.

    ``field``, when given, names the field at fault, e.g. "epsilon" for
    a ReductionProblem refusal; the message is the exception's text.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NumericalError(QReduceError):
    """Base class for runtime numerical failures."""


class FlowDivergedError(NumericalError):
    """Classical integration produced a non-finite state.

    Carries the portion of the trajectory computed before blow-up in
    ``trajectory`` and the last valid time in ``t_last``.
    """

    def __init__(self, t_last, trajectory=None):
        super().__init__(f"classical flow diverged after t = {t_last:.6g}")
        self.t_last = t_last
        self.trajectory = trajectory


class WraparoundError(NumericalError):
    """Wavefunction mass reached the periodic grid boundary."""


class BasisResidualError(NumericalError):
    """Hermite-basis projection lost more mass than the tolerance allows."""


class OverflowGuardError(NumericalError):
    """A closed-form comparator quantity would overflow."""
