"""Finite-horizon spectral classification of quantum evolutions.

Eigenstructure, time averages and transit times decide whether a state
behaves as bound (pure-point-like), escaping (absolutely-continuous-like)
or neither at the horizons probed.  A finite-dimensional or grid
evolution always has pure point spectrum, so every label is an explicit
finite-horizon proxy, never an assertion about the true spectral type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comparator import ComparatorSpec, _basis, _constants
from .grid import GridSpec, GridWavefunction, propagate
from .hamiltonian import HamiltonianSpec
from .quadrature import cumulative_simpson

MAX_DIM = 4096
HERMITIAN_TOL = 1e-12
DEGENERACY_TOL = 1e-10
UNIT_TOL = 1e-8
QUAD_DT = 0.02
TAIL_INCREMENT_TOL = 1e-4
PP_FLOOR = 1e-2
PP_DRIFT_TOL = 0.05
# recurrence_time: coarse steps per fastest period, fine points per side.
RECURRENCE_STEPS_PER_PERIOD = 64
RECURRENCE_REFINE = 256
# Times per block of the signal sum: bounds its (eigenvalues, times) array.
SIGNAL_CHUNK = 65536


@dataclass(eq=False)
class FiniteEvolution:
    """Eigendecomposition of a Hermitian matrix driving U_t = e^{-iHt}.

    Eigenvalues are grouped into degenerate clusters at a relative
    tolerance, because the dephased density matrix entering the ergodic
    formula depends on the eigenspace partition, and near-degeneracy
    would otherwise destabilize it.

    Attributes
    ----------
    matrix : ndarray
        The Hermitian generator.
    eigenvalues : ndarray
        Sorted eigenvalues from the dense decomposition.
    vectors : ndarray
        Orthonormal eigenvectors as columns, aligned with eigenvalues.
    groups : list of ndarray
        Index arrays of the degenerate clusters.
    group_values : ndarray
        One representative eigenvalue per cluster.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    groups: list
    group_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def evolve(self, psi: np.ndarray, t: float) -> np.ndarray:
        c = self.vectors.conj().T @ np.asarray(psi, dtype=complex)
        return self.vectors @ (np.exp(-1j * self.eigenvalues * t) * c)


def _check_hermitian(name: str, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > HERMITIAN_TOL * scale:
        raise ValueError(f"{name} must be Hermitian")
    return m


def finite_evolution(H) -> FiniteEvolution:
    """Decompose a Hermitian matrix and cluster degenerate eigenvalues.

    Consecutive eigenvalues closer than DEGENERACY_TOL relative to the
    spectral spread are merged into one cluster.
    """
    H = _check_hermitian("H", H)
    if H.shape[0] > MAX_DIM:
        raise ValueError(f"matrix dimension exceeds {MAX_DIM}")
    a, v = np.linalg.eigh(H)
    scale = max(1.0, float(a[-1] - a[0]))
    groups = []
    start = 0
    for i in range(1, a.size + 1):
        if i == a.size or a[i] - a[i - 1] > DEGENERACY_TOL * scale:
            groups.append(np.arange(start, i))
            start = i
    reps = np.array([float(np.mean(a[idx])) for idx in groups])
    return FiniteEvolution(matrix=H, eigenvalues=a, vectors=v,
                           groups=groups, group_values=reps)


@dataclass(frozen=True)
class GridHamiltonian:
    """Grid evolution handle for the stay/transit diagnostics.

    dt is the requested step, a positive finite number (ValueError
    otherwise); a run over [0, T] takes max(2, ceil(T / dt)) equal steps.
    """

    spec: HamiltonianSpec
    grid: GridSpec
    dt: float = 0.25

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")


def _unit_coefficients(evo: FiniteEvolution, psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (evo.dim,):
        raise ValueError("state dimension does not match the evolution")
    if abs(np.linalg.norm(psi) - 1.0) > UNIT_TOL:
        raise ValueError("psi must be a unit vector")
    return evo.vectors.conj().T @ psi


def _signal_weights(evo: FiniteEvolution, c: np.ndarray, F: np.ndarray):
    # f(t) = <U_t psi, F U_t psi> = sum_jk W_jk e^{i(a_j - a_k) t}
    # with W_jk = conj(c_j) F_jk c_k in the eigenbasis.
    F_eig = evo.vectors.conj().T @ F @ evo.vectors
    W = np.outer(c.conj(), c) * F_eig
    return W, F_eig


def _dephased_value(evo: FiniteEvolution, c: np.ndarray,
                    F_eig: np.ndarray) -> float:
    total = 0.0
    for idx in evo.groups:
        block = c[idx]
        total += float(np.real(block.conj() @ F_eig[np.ix_(idx, idx)] @ block))
    return total


def _signal_on_times(W: np.ndarray, a: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    out = np.empty(times.size)
    for lo in range(0, times.size, SIGNAL_CHUNK):
        ts = times[lo:lo + SIGNAL_CHUNK]
        u = np.exp(-1j * np.outer(a, ts))
        out[lo:lo + SIGNAL_CHUNK] = np.real(np.sum(u.conj() * (W @ u), axis=0))
    return out


def _quad_times(T: float, omega_max: float) -> np.ndarray:
    # Steps of QUAD_DT, and at least eight per fastest oscillation.
    dt = min(QUAD_DT, (2.0 * np.pi / omega_max) / 8.0) if omega_max > 0 \
        else QUAD_DT
    steps = max(2, int(np.ceil(T / dt)))
    return np.linspace(0.0, T, steps + 1)


def _horizon_indices(times: np.ndarray, horizons: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(times, horizons)
    idx = np.clip(idx, 1, times.size - 1)
    left_closer = np.abs(times[idx - 1] - horizons) < \
        np.abs(times[idx] - horizons)
    return idx - left_closer.astype(int)


def ergodic_average(evo: FiniteEvolution, psi, F, horizons) -> dict:
    """Long-time average of <U_t psi, F U_t psi> versus its prediction.

    The prediction Tr[F rho] dephases psi over the eigenspace partition;
    the measured value is the symmetric time average (1/2T) int_{-T}^{T}
    by Simpson quadrature at steps of at most QUAD_DT.  The integrand is
    even in t for any Hermitian F, so only [0, T] is integrated.
    Convergence is O(1/T) when the eigenvalue differences are
    nondegenerate.

    Returns
    -------
    dict with "predicted" and "measured", the latter keyed by horizon.
    The measured value at a horizon is the stay curve's mean,
    tau / (2 T').
    """
    F = _check_hermitian("F", F)
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if np.any(hs <= 0):
        raise ValueError("horizons must be positive")
    hs = np.sort(hs)
    times, tau, predicted = _finite_stay_curve(evo, psi, F, float(hs[-1]))
    idx = _horizon_indices(times, hs)
    means = _mean_stay(tau[idx], times[idx])
    measured = dict(zip(hs.tolist(), means.tolist()))
    return {"predicted": predicted, "measured": measured}


def _finite_stay_curve(evo: FiniteEvolution, psi, Omega, T: float):
    """Times, tau(t) = int_{-t}^{t} <U_s psi, Omega U_s psi> ds and the
    dephased prediction Tr[Omega rho], for a Hermitian Omega the caller
    has checked, at steps of at most QUAD_DT."""
    c = _unit_coefficients(evo, psi)
    W, O_eig = _signal_weights(evo, c, Omega)
    a = evo.eigenvalues
    times = _quad_times(T, float(a[-1] - a[0]))
    signal = _signal_on_times(W, a, times)
    # tau(T') = int_{-T'}^{T'} = 2 int_0^{T'} by evenness of the signal.
    tau = 2.0 * cumulative_simpson(signal, x=times)
    prediction = _dephased_value(evo, c, O_eig)
    return times, tau, prediction


def _grid_stay_curve(handle: GridHamiltonian, psi: GridWavefunction,
                     comp: ComparatorSpec, T: float):
    """Times and tau(t) of <U_t psi, Omega U_t psi> on [-t, t] for a grid run.

    The comparator expectation sum_k e^{-s k} |c_k|^2 is taken at every
    step, forward and backward in time, from one matrix-matrix projection
    product per block of states that propagate hands its observer.  In
    1D that product is not row-exact (hermite_coefficients is); a curve
    integrated over thousands of steps needs no single-state bits.
    """
    if not isinstance(comp, ComparatorSpec):
        raise ValueError("grid evolutions take a ComparatorSpec as Omega")
    if not psi.is_unit:
        raise ValueError("psi must be a unit vector")
    grid = psi.grid
    decay = _constants(comp, grid.n).weights[True]
    coeff_axes = (-1, -2)[:grid.n]
    h = _basis(comp, grid)

    def expectations(amps):
        if grid.n == 1:
            coeffs = amps @ h.T * grid.dx
        else:
            coeffs = h @ amps @ h.T * grid.cell
        return np.sum(decay * np.abs(coeffs) ** 2, axis=coeff_axes)

    steps = max(2, int(np.ceil(T / handle.dt)))
    dt = T / steps
    curves = []
    # Backward time from a real Hamiltonian is forward time from the
    # conjugate state; the comparator kernel is real, so its expectation
    # in the conjugate state needs no further adjustment.
    for start in (psi.amp, np.conj(psi.amp)):
        values = [expectations(start[None])]
        propagate(handle.spec, GridWavefunction(grid, start), T, dt,
                  observer=lambda t, amps: values.append(expectations(amps)))
        curves.append(np.concatenate(values))
    times = np.linspace(0.0, T, steps + 1)
    both = curves[0] + curves[1]
    tau = cumulative_simpson(both, x=times)
    return times, tau


def _stay_curve(evo, psi, Omega, T: float):
    if T <= 0:
        raise ValueError("T must be positive")
    if isinstance(evo, FiniteEvolution):
        times, tau, _ = _finite_stay_curve(
            evo, psi, _check_hermitian("Omega", Omega), T)
        return times, tau
    if isinstance(evo, GridHamiltonian):
        return _grid_stay_curve(evo, psi, Omega, T)
    raise ValueError("evo must be a FiniteEvolution or GridHamiltonian")


def _mean_stay(tau, t):
    """The mean presence tau(t) / 2t over [-t, t] of a stay curve."""
    return tau / (2.0 * t)


def _trailing_increment(times, tau) -> float:
    """What the trailing half of the horizon adds to the stay curve tau."""
    half = _horizon_indices(times, np.array([times[-1] / 2.0]))[0]
    return float(tau[-1] - tau[half])


def recurrence_time(evo: FiniteEvolution, psi, eps: float, T_min: float = 0.0,
                    T_max: float = 1e5):
    """First T in [T_min, T_max] with ||U_T psi - psi|| < eps.

    In a finite dimension the distance is an almost-periodic closed form
    over the eigenvalue clusters, so the search scans a coarse grid
    (RECURRENCE_STEPS_PER_PERIOD steps per fastest period) and refines
    every window the Lipschitz bound cannot exclude (RECURRENCE_REFINE
    points on each side).  Returns
    the time found, or None within the horizon.  For eps >= 2 the
    diameter bound ||U_t psi - psi|| <= 2 makes T_min itself the answer.
    """
    if not isinstance(evo, FiniteEvolution):
        raise ValueError("recurrence needs a finite-dimensional evolution")
    if eps <= 0:
        raise ValueError("eps must be positive")
    c = _unit_coefficients(evo, psi)
    if eps >= 2.0:
        return float(T_min)
    weights = np.array([float(np.sum(np.abs(c[idx]) ** 2))
                        for idx in evo.groups])
    freqs = evo.group_values
    keep = weights > 1e-18
    weights, freqs = weights[keep], freqs[keep]

    def dist(ts):
        phase = 1.0 - np.cos(np.outer(freqs, ts))
        return np.sqrt(np.maximum(2.0 * weights @ phase, 0.0))

    omega_max = float(np.max(np.abs(freqs))) if freqs.size else 0.0
    if omega_max == 0.0:
        return float(T_min)
    step = (2.0 * np.pi / omega_max) / RECURRENCE_STEPS_PER_PERIOD
    lipschitz = float(np.sqrt(weights @ freqs ** 2))
    promote = eps + step * lipschitz
    chunk = 100000
    t = max(float(T_min), 0.0)
    while t <= T_max:
        ts = t + step * np.arange(chunk)
        ts = ts[ts <= T_max + step]
        if ts.size == 0:
            break
        d = dist(ts)
        for j in np.nonzero(d <= promote)[0]:
            lo = max(float(T_min), ts[j] - step)
            fine = np.linspace(lo, ts[j] + step, 2 * RECURRENCE_REFINE + 1)
            fine = fine[(fine >= T_min) & (fine <= T_max)]
            hits = np.nonzero(dist(fine) < eps)[0]
            if hits.size:
                return float(fine[hits[0]])
        t = float(ts[-1]) + step
    return None


def classify_quantum(evo, psi, Omega, horizons) -> dict:
    """Finite-horizon bound/escape label from stay and transit curves.

    A scalar horizon is expanded to the ladder [T/4, T/2, T].  The label
    is "ac-like" when the transit time has converged (trailing half of
    the longest horizon adds less than TAIL_INCREMENT_TOL), else
    "pp-like" when the average stay is above PP_FLOOR and stable to
    PP_DRIFT_TOL between the last two horizons, else
    "exceptional-candidate"; the result's "thresholds" echo these
    constants.  All
    labels are finite-horizon proxies: a finite model has pure point
    spectrum, and an exceptional-candidate is a horizon artifact rather
    than a singular-continuous assertion.
    """
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if hs.size == 1:
        hs = hs[0] * np.array([0.25, 0.5, 1.0])
    if np.any(hs <= 0) or hs.size < 2:
        raise ValueError("need positive horizons, at least two after "
                         "ladder expansion")
    hs = np.sort(hs)
    times, tau_curve = _stay_curve(evo, psi, Omega, float(hs[-1]))
    idx = _horizon_indices(times, hs)
    taus = tau_curve[idx]
    mus = _mean_stay(taus, times[idx])
    trailing = _trailing_increment(times, tau_curve)
    stable = abs(mus[-1] - mus[-2]) <= PP_DRIFT_TOL * max(mus[-1], PP_FLOOR)
    if trailing < TAIL_INCREMENT_TOL:
        label = "ac-like"
    elif mus[-1] >= PP_FLOOR and stable:
        label = "pp-like"
    else:
        label = "exceptional-candidate"
    return {"label": label,
            "horizons": hs.tolist(),
            "mu": mus.tolist(),
            "tau": taus.tolist(),
            "trailing_increment": trailing,
            "thresholds": {"increment_tol": TAIL_INCREMENT_TOL,
                           "pp_floor": PP_FLOOR, "drift_tol": PP_DRIFT_TOL},
            "note": "finite-horizon proxy labels; the underlying model "
                    "has pure point spectrum"}
