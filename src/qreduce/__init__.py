"""Numerical tests of how classical mechanics emerges from quantum dynamics.

The package propagates classical trajectories, Gaussian packet
approximations and full grid wavefunctions side by side, evaluates
explicit error bounds between them, and classifies states as bound,
scattering or exceptional on both sides of the correspondence.

This namespace holds the exception types and the entry points the
README names; every other name is imported from its own module.
"""

from types import ModuleType as _Module

__version__ = "0.1.0"

from .errors import (BasisResidualError, ConfigError, FlowDivergedError,
                     NumericalError, OverflowGuardError, QReduceError,
                     WraparoundError)
from .hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel
from .classical import classify_classical
from .comparator import coherent_matrix_elements, comparator_scalars
from .reduction import (ReductionProblem, ehrenfest_residuals, ehrenfest_run,
                        run_reduction, squeeze_sweep)
from .spectral import classify_quantum
from .scaling import hepp_experiment, scale_hamiltonian

# The names imported above; the submodules they bind stay out.
__all__ = sorted(name for name, value in list(globals().items())
                 if not name.startswith("_")
                 and not isinstance(value, _Module))
