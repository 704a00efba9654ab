import time
from types import SimpleNamespace

import numpy as np
import pytest

from qreduce.cli import PRESETS
from qreduce.comparator import hermite_functions
from qreduce.grid import GridWavefunction
from qreduce.hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.packets import _amplitude_factor
from qreduce.reduction import ReductionProblem, run_reduction


def normalized(psi):
    """psi divided by its norm: the per-state normalisation that
    expectation_a's row rule is compared with."""
    return GridWavefunction(psi.grid, psi.amp / psi.norm)


def packet_at(flow, k: int):
    """The per-step oracle of _sample_flows: the flow's packet at step k,
    with the fields sample_on_grid reads (alpha, M, amplitude_factor),
    taken from step k of the series, the phase and the trajectory."""
    series = flow.series
    factor = _amplitude_factor(flow.traj.n, flow.base.norm_prefactor,
                               np.linalg.det(series.B[k]),
                               float(series.detB_angle[k]), float(flow.X[k]))
    return SimpleNamespace(alpha=flow.traj.point(k), M=series.M[k],
                           amplitude_factor=factor)


def spectral_moments(psi):
    """<q>, <p> of a unit state, per state, with d/dx a Fourier multiplier."""
    grid, dens, cell = psi.grid, psi.density, psi.grid.cell
    fft, ifft = (np.fft.fft, np.fft.ifft) if grid.n == 1 \
        else (np.fft.fft2, np.fft.ifft2)
    x = grid.x[:, None] if grid.n == 1 else grid.x_mesh
    k = grid.k[:, None] if grid.n == 1 else grid.k_mesh
    q = [np.sum(x[..., j] * dens) * cell for j in range(grid.n)]
    p = [np.sum(np.conj(psi.amp) * -1j * ifft(1j * k[..., j] * fft(psi.amp)))
         .real * cell for j in range(grid.n)]
    return np.array(q + p)


def number_weights(spec, n: int) -> np.ndarray:
    """e^{-s n} per coefficient of the (N + 1)^n table, n its total
    excitation: the comparator at unit top eigenvalue."""
    return np.exp(-spec.s * sum(np.indices((spec.N + 1,) * n)))


def synthesis(coeffs, grid):
    """The grid amplitude of one state with these number-basis
    coefficients, spelled out with the real basis."""
    h = hermite_functions(grid.x, coeffs.shape[-1] - 1)
    if grid.n == 1:
        return coeffs @ h
    return h.T @ coeffs @ h


def explicit_synthesis(spec, coeffs, grid):
    """Omega W on the grid, from the coefficients of one state W."""
    return synthesis(coeffs * number_weights(spec, grid.n), grid)


def inner(a, b) -> complex:
    """L2 inner product <a, b> of two states on one grid, conjugate-linear
    in a."""
    return complex(np.sum(np.conj(a.amp) * b.amp) * a.grid.cell)


def corpus_spec(name: str) -> HamiltonianSpec:
    return HamiltonianSpec(mass=1.0,
                           potential=PotentialModel.polynomial(PRESETS[name]))


@pytest.fixture(scope="session")
def harmonic_cycle():
    # One full oscillator period on the reference grid, timed.
    problem = ReductionProblem(spec=corpus_spec("harmonic"),
                               alpha0=PhasePoint(1.0, 0.0),
                               T=2.0 * np.pi, epsilon=1e-6)
    start = time.perf_counter()
    report = run_reduction(problem)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def cubic_fixed_point():
    # Perturbed oscillator held at its fixed point; shared by the
    # Duhamel and assembled-bound checks.
    problem = ReductionProblem(spec=corpus_spec("cubic-perturbed"),
                               alpha0=PhasePoint(0.0, 0.0),
                               T=1.0, epsilon=1.0)
    return run_reduction(problem)
