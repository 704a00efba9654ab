"""The compact comparator operator in the oscillator number basis.

The comparator is diagonal on Hermite functions with eigenvalues
sigma_s e^{-s n} (sigma_s = 1 - e^{-s}), which makes the number-basis
realization exact up to truncation.  States on a grid are projected onto
the first N + 1 Hermite functions by quadrature, scaled and
resynthesized; inverse quantities are truncated sums with explicit
divergence detection, never dense inverses.

Coherent-state formulas use the complex label z = (xi + i pi) / sqrt(2),
so |alpha|^2 below always means |z|^2 = (xi^2 + pi^2) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisResidualError, OverflowGuardError
from .grid import GridSpec, GridWavefunction, weyl_displace
from .hamiltonian import PhasePoint

RESIDUAL_TOL = 1e-8
EXP_GUARD = 700.0
NOISE_FLOOR = 1e-26


@dataclass(frozen=True)
class ComparatorSpec:
    """Parameters of the comparator family: decay s and basis cutoff N.

    Each instance keeps the Hermite basis it has built per grid, so a run
    that projects many states on one grid builds the basis once.
    """

    s: float
    N: int = 128
    center: PhasePoint = None
    _bases: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.N < 16:
            raise ValueError("need at least 17 basis functions")

    @property
    def sigma(self) -> float:
        return 1.0 - np.exp(-self.s)

    @property
    def lam(self) -> float:
        return np.exp(self.s) - 1.0

    @property
    def eigenvalues(self) -> np.ndarray:
        """sigma_s e^{-s n} for n = 0..N."""
        return self.sigma * np.exp(-self.s * np.arange(self.N + 1))

    @property
    def truncation_tail(self) -> float:
        """Operator-norm bound on the discarded part, sigma_s e^{-s(N+1)}."""
        return float(self.sigma * np.exp(-self.s * (self.N + 1)))


def hermite_functions(x, K: int) -> np.ndarray:
    """Normalized oscillator eigenfunctions h_0..h_K sampled at x.

    Uses the stable two-term recurrence
    h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1}.

    Returns
    -------
    Array of shape (K + 1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((K + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if K >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, K):
        out[k + 1] = (np.sqrt(2.0 / (k + 1)) * x * out[k]
                      - np.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def _basis(spec: ComparatorSpec, grid: GridSpec) -> np.ndarray:
    """h_0..h_N on the grid axis, built on first use and kept by the spec."""
    h = spec._bases.get(grid)
    if h is None:
        K = spec.N
        if 2 * K + 1 > (np.pi / grid.dx) ** 2 or np.sqrt(2 * K + 1) > grid.L:
            raise ValueError("grid cannot resolve this many Hermite functions")
        h = spec._bases[grid] = hermite_functions(grid.x, K)
    return h


def _recentred(spec: ComparatorSpec, psi: GridWavefunction, inverse=False):
    if spec.center is None:
        return psi
    sign = 1.0 if inverse else -1.0
    return weyl_displace(psi, sign * spec.center.vector)


def hermite_coefficients(spec: ComparatorSpec, psi: GridWavefunction):
    """Project psi on the truncated Hermite basis.

    Returns
    -------
    coeffs : complex array, shape (N+1,) in 1D and (N+1, N+1) in 2D.
    residual : mass fraction outside the truncated basis.
    """
    psi = _recentred(spec, psi)
    grid = psi.grid
    h = _basis(spec, grid)
    if grid.n == 1:
        coeffs = h @ psi.amp * grid.dx
    else:
        coeffs = h @ psi.amp @ h.T * grid.cell
    norm_sq = psi.norm ** 2
    residual = max(0.0, norm_sq - float(np.sum(np.abs(coeffs) ** 2)))
    return coeffs, residual / max(norm_sq, 1e-300)


def apply_comparator(spec: ComparatorSpec, psi: GridWavefunction,
                     normalized: bool = False) -> GridWavefunction:
    """Apply the comparator to a grid state via its Hermite expansion.

    With ``normalized`` the operator is rescaled to have unit top
    eigenvalue (divide by sigma_s per axis).  In two dimensions the basis
    is the tensor product and the number operator is the total one.

    Raises
    ------
    BasisResidualError
        If more than 1e-8 of the state's mass lies outside the basis.
    """
    coeffs, residual = hermite_coefficients(spec, psi)
    if residual > RESIDUAL_TOL:
        raise BasisResidualError(
            f"basis projection lost mass fraction {residual:.3g}")
    grid = psi.grid
    decay = np.exp(-spec.s * np.arange(spec.N + 1))
    factor = decay if normalized else spec.sigma * decay
    h = _basis(spec, grid)
    if grid.n == 1:
        amp = (coeffs * factor) @ h
    else:
        amp = h.T @ (coeffs * np.outer(factor, factor)) @ h
    out = GridWavefunction(grid, amp)
    return _recentred(spec, out, inverse=True)


def comparator_scalars(spec: ComparatorSpec, dimension: int = 1) -> dict:
    """Operator norm, trace and the annihilation-component bound.

    The trace adds the analytic tail beyond the truncation, so it equals
    1 for every s.  The norm of q composed with the comparator is
    estimated by power iteration on the truncated matrix and checked
    against the closed-form bound sigma_s^2 e^{s-1} / s.
    """
    s, sigma = spec.s, spec.sigma
    n_vals = np.arange(spec.N + 1)
    eig = sigma * np.exp(-s * n_vals)
    trace_1d = float(np.sum(np.exp(-s * n_vals))
                     + np.exp(-s * (spec.N + 1)) / (1 - np.exp(-s))) * sigma
    # q in the number basis: tridiagonal sqrt((n+1)/2) couplings.
    cpl = np.sqrt((n_vals[:-1] + 1) / 2.0)
    Q = np.zeros((spec.N + 1, spec.N + 1))
    Q[n_vals[:-1], n_vals[:-1] + 1] = cpl
    Q[n_vals[:-1] + 1, n_vals[:-1]] = cpl
    QD = Q * eig
    measured_sq = _power_iteration_sq(QD)
    bound = sigma ** 2 * np.exp(s - 1.0) / s
    return {"norm": sigma ** dimension,
            "trace": trace_1d ** dimension,
            "aOmega_sq_measured": measured_sq,
            "aOmega_bound": float(bound)}


def _power_iteration_sq(mat, iters: int = 200) -> float:
    gram = mat.T.conj() @ mat
    v = np.ones(mat.shape[1]) / np.sqrt(mat.shape[1])
    val = 0.0
    for _ in range(iters):
        w = gram @ v
        val = float(np.linalg.norm(w))
        if val == 0.0:
            return 0.0
        v = w / val
    return val


def coherent_label(alpha) -> complex:
    """The complex label z = (xi + i pi)/sqrt(2) of a displacement."""
    if isinstance(alpha, PhasePoint):
        if alpha.n != 1:
            raise ValueError("coherent labels are one-dimensional")
        xi, pi = float(alpha.xi[0]), float(alpha.pi[0])
    else:
        xi, pi = float(alpha[0]), float(alpha[1])
    return complex(xi, pi) / np.sqrt(2.0)


def coherent_coefficients(alpha, K: int) -> np.ndarray:
    """Number-basis coefficients of Gamma(alpha) up to a global phase.

    c_k = e^{-|z|^2/2} z^k / sqrt(k!), built multiplicatively for
    stability.
    """
    z = coherent_label(alpha)
    c = np.empty(K + 1, dtype=complex)
    c[0] = np.exp(-0.5 * abs(z) ** 2)
    for k in range(1, K + 1):
        c[k] = c[k - 1] * z / np.sqrt(k)
    return c


def coherent_matrix_elements(spec: ComparatorSpec, alpha) -> dict:
    """Closed-form and truncated-basis comparator data for Gamma(alpha).

    Returns the diagonal element sigma e^{-sigma |z|^2}, the inverse-image
    norm sigma^{-2} e^{lambda_{2s}|z|^2} and the bound
    sqrt(1 - sigma e^{-sigma |z|^2}) on ||(1 - comparator) Gamma||, each
    paired with its truncated-basis measurement.  The square root in the
    last bound is essential: it comes from Cauchy-Schwarz through the
    expectation value, and the norm genuinely exceeds the un-rooted
    expression away from the center.

    Raises
    ------
    OverflowGuardError
        When lambda_{2s} |z|^2 would overflow the inverse-norm exponent.
    """
    z_sq = abs(coherent_label(alpha)) ** 2
    s, sigma = spec.s, spec.sigma
    lam_2s = np.exp(2.0 * s) - 1.0
    if lam_2s * z_sq > EXP_GUARD:
        raise OverflowGuardError("inverse norm exponent exceeds the guard")
    c_sq = np.abs(coherent_coefficients(alpha, spec.N)) ** 2
    eig = sigma * np.exp(-s * np.arange(spec.N + 1))
    diag_closed = float(sigma * np.exp(-sigma * z_sq))
    diag_measured = float(np.sum(c_sq * eig))
    inv_closed = float(np.exp(lam_2s * z_sq) / sigma ** 2)
    inv_measured = float(np.sum(c_sq * np.exp(2.0 * s * np.arange(spec.N + 1)))
                         / sigma ** 2)
    # Mass beyond the truncation is scored with the worst factor 1.
    tail = max(0.0, 1.0 - float(np.sum(c_sq)))
    one_minus_measured = float(np.sqrt(np.sum(c_sq * (1.0 - eig) ** 2) + tail))
    return {"diag": diag_closed, "diag_measured": diag_measured,
            "inv_norm_sq": inv_closed, "inv_norm_sq_measured": inv_measured,
            "one_minus_bound": float(np.sqrt(1.0 - diag_closed)),
            "one_minus_measured": one_minus_measured}


def within_magnitude(spec: ComparatorSpec, E: float, psi: GridWavefunction) -> dict:
    """Test membership of psi in the states within magnitude E.

    Uses the normalized comparator (unit top eigenvalue), so the inverse
    image of h_0 has norm 1.  The inverse norm is the truncated sum
    sum_k |c_k|^2 e^{2 s k(total)}, computed in log space.  The sum is
    flagged divergent when its value is carried by the highest surviving
    excitations: then the truncated number is an artifact of where the
    truncation fell and certifies nothing.  Coefficients at the
    quadrature noise floor are dropped first, since the growth factor
    would otherwise amplify projection rounding into the answer;
    verdicts are therefore at this truncation and precision.

    Returns
    -------
    dict with keys member, inv_norm, divergent, residual.
    """
    if E <= 0:
        raise ValueError("E must be positive")
    coeffs, residual = hermite_coefficients(spec, psi)
    if residual > RESIDUAL_TOL:
        raise BasisResidualError(
            f"basis projection lost mass fraction {residual:.3g}")
    c_sq = np.abs(np.asarray(coeffs)) ** 2
    c_sq[c_sq <= NOISE_FLOOR * np.sum(c_sq)] = 0.0
    if c_sq.ndim == 1:
        total_n = np.arange(spec.N + 1)
    else:
        n_vals = np.arange(spec.N + 1)
        total_n = n_vals[:, None] + n_vals[None, :]
    with np.errstate(divide="ignore"):
        log_terms = np.log(c_sq) + 2.0 * spec.s * total_n
    divergent = _edge_dominated(log_terms.ravel(), total_n.ravel())
    peak = float(np.max(log_terms))
    if peak > EXP_GUARD:
        inv_norm = np.inf
        divergent = True
    else:
        inv_norm = float(np.sqrt(np.sum(np.exp(log_terms[np.isfinite(log_terms)]))))
    member = bool(not divergent and inv_norm <= E)
    return {"member": member, "inv_norm": inv_norm, "divergent": divergent,
            "residual": residual}


def _edge_dominated(log_terms, total_n, window: int = 8,
                    fraction: float = 0.5) -> bool:
    # Sort by total excitation; the sum is untrustworthy when the last
    # window of surviving terms carries most of its value.
    order = np.argsort(total_n, kind="stable")
    seq = log_terms[order]
    seq = seq[seq > -EXP_GUARD]
    if seq.size < 2 * window:
        return False
    top = seq.max()
    edge = np.exp(seq[-window:] - top).sum()
    total = np.exp(seq - top).sum()
    return bool(edge > fraction * total)


def coherent_resolution_check(spec: ComparatorSpec, k_index: int,
                              radius: float = 6.0, points: int = 400) -> dict:
    """Spot check of the coherent resolution of the comparator.

    Quadrature of (lambda_s / pi) e^{-lambda_s |z|^2} |<h_k, Gamma(z)>|^2
    over the complex-label disc |z| <= radius, against the closed diagonal
    sigma_s e^{-s k}.
    """
    s, sigma, lam = spec.s, spec.sigma, spec.lam
    u = np.linspace(-radius, radius, points)
    du = u[1] - u[0]
    re, im = np.meshgrid(u, u, indexing="ij")
    r_sq = re ** 2 + im ** 2
    inside = r_sq <= radius ** 2
    log_fact = np.sum(np.log(np.arange(1, k_index + 1))) if k_index else 0.0
    overlap_sq = np.exp(-r_sq + k_index * np.log(np.maximum(r_sq, 1e-300))
                        - log_fact)
    integrand = (lam / np.pi) * np.exp(-lam * r_sq) * overlap_sq
    value = float(np.sum(integrand[inside]) * du * du)
    closed = float(sigma * np.exp(-s * k_index))
    return {"quadrature": value, "closed": closed,
            "error": abs(value - closed)}
