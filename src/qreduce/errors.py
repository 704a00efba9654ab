"""Exception types shared across the package."""


class QReduceError(Exception):
    """Base class for all package errors."""


class ConfigError(QReduceError):
    """Invalid or schema-violating run configuration."""


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


class CausticError(NumericalError):
    """The B factor of the width evolution became singular."""

    def __init__(self, time):
        super().__init__(f"caustic: det B vanished at t = {time:.6g}")
        self.time = time


class BasisResidualError(NumericalError):
    """Hermite-basis projection lost more mass than the tolerance allows."""


class OverflowGuardError(NumericalError):
    """A closed-form comparator quantity would overflow."""
