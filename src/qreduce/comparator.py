"""The compact comparator operator in the oscillator number basis.

The comparator is the number-basis operator about the phase-space
origin: diagonal on Hermite functions with eigenvalues sigma_s e^{-s n}
(sigma_s = 1 - e^{-s}), which makes the number-basis realization exact
up to truncation.  States on a grid are projected onto the first N + 1
Hermite functions by quadrature and scaled there, so the comparator's
image stays in the number basis; inverse quantities are truncated sums
with explicit divergence detection, never dense inverses.

Coherent-state formulas use the complex label z = (xi + i pi) / sqrt(2),
so |alpha|^2 below always means |z|^2 = (xi^2 + pi^2) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BasisResidualError, OverflowGuardError
from .grid import GridSpec, _row_norms
from .hamiltonian import PhasePoint

RESIDUAL_TOL = 1e-8
EXP_GUARD = 700.0
NOISE_FLOOR = 1e-26
EDGE_WINDOW = 8
EDGE_FRACTION = 0.5


@dataclass(frozen=True)
class ComparatorSpec:
    """Parameters of the comparator family: decay s and basis cutoff N.

    The operator is centred at the phase-space origin.  Each instance
    keeps what it has computed in a private store: the complex Hermite
    basis per grid, and per dimension the operator scalars and the
    coefficient weights.  A run that projects many states on one grid
    therefore builds the basis, and the operator scalars, once.
    """

    s: float
    N: int = 128
    _store: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.N < 16:
            raise ValueError("need at least 17 basis functions")

    def fits(self, grid: GridSpec) -> bool:
        """Whether the grid resolves h_0..h_N: Nyquist and half-width."""
        top = 2 * self.N + 1
        return top <= (np.pi / grid.dx) ** 2 and np.sqrt(top) <= grid.L

    @property
    def sigma(self) -> float:
        return 1.0 - np.exp(-self.s)

    @property
    def eigenvalues(self) -> np.ndarray:
        """sigma_s e^{-s n} for n = 0..N."""
        return self.sigma * np.exp(-self.s * np.arange(self.N + 1))


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
    """h_0..h_N on the grid axis as complex128, kept by the spec per grid.

    The spec's store maps each grid to this basis, ("scalars",
    dimension) to the operator scalars and ("constants", dimension) to
    the coefficient weights.  Grid states are complex, so
    numpy would cast a real basis to complex inside every product;
    storing the cast once keeps every product bitwise the same.
    """
    h = spec._store.get(grid)
    if h is None:
        if not spec.fits(grid):
            raise ValueError("grid cannot resolve this many Hermite functions")
        h = spec._store[grid] = hermite_functions(grid.x, spec.N).astype(complex)
    return h


class _Constants(NamedTuple):
    """Per-dimension coefficient weights of one spec, built once."""

    decay: np.ndarray    # e^{-s (total excitation)} per coefficient
    growth: np.ndarray   # 2 s (total excitation) per coefficient
    order: np.ndarray    # flat coefficient indices by total excitation


def _constants(spec: ComparatorSpec, n: int) -> _Constants:
    """The spec's _Constants for dimension n, kept under ("constants", n)."""
    const = spec._store.get(("constants", n))
    if const is None:
        # The total excitation of each coefficient of the (N + 1)^n table.
        total_n = sum(np.indices((spec.N + 1,) * n))
        const = spec._store[("constants", n)] = _Constants(
            decay=np.exp(-spec.s * total_n), growth=2.0 * spec.s * total_n,
            order=np.argsort(total_n.ravel(), kind="stable"))
    return const


def hermite_coefficients(spec: ComparatorSpec, amps, grid: GridSpec):
    """Project a stack of grid amplitudes on the truncated Hermite basis.

    amps holds B states on ``grid`` stacked on a leading axis, shape
    (B,) + (grid.N,) * n; a single state is a stack of one.  The stack
    is projected row-exactly: one batched matrix-vector product
    (amps[:, None, :] @ h.T * dx in 1D, h @ amps @ h.T * dx^2 in 2D),
    so each row of the result, coefficients and residual, is bitwise the
    projection of that row alone.  A (B, N) @ h.T matrix-matrix product
    would be faster in 1D but sums in another order.  The basis is the
    oscillator's about the origin.

    Returns
    -------
    coeffs : complex array, shape (B, N+1) in 1D and (B, N+1, N+1) in 2D.
    residual : array of B mass fractions outside the truncated basis.
    """
    amps = np.asarray(amps, dtype=complex)
    h = _basis(spec, grid)
    # Squared after the root, as GridWavefunction.norm ** 2 is.
    norm_sq = _row_norms(amps, grid) ** 2
    if grid.n == 1:
        coeffs = (amps[:, None, :] @ h.T)[:, 0] * grid.dx
    else:
        coeffs = h @ amps @ h.T * grid.cell
    captured = np.sum(np.abs(coeffs.reshape(len(amps), -1)) ** 2, axis=-1)
    residual = np.maximum(0.0, norm_sq - captured) / np.maximum(norm_sq, 1e-300)
    return coeffs, residual


def apply_comparator(spec: ComparatorSpec, projection) -> np.ndarray:
    """Apply the comparator at unit top eigenvalue to a projected stack.

    projection is the stack's (coeffs, residual), as hermite_coefficients
    returns it.  The operator is divided by sigma_s per axis, so each
    coefficient is weighted by e^{-s n}; in two dimensions the basis is
    the tensor product and n the total number.  The operator is the one
    about the origin, so no state is displaced.  It is diagonal on the
    Hermite functions, so its image is returned in the number basis and
    not synthesized on a grid; the product is elementwise, so each row is
    bitwise the result for that row alone.

    Returns
    -------
    coeffs * e^{-s n}: the coefficients of Omega applied to each row's
    part in the basis, of coeffs' shape.

    Raises
    ------
    BasisResidualError
        The error of the first row with more than RESIDUAL_TOL (1e-8) of
        its mass outside the basis.
    """
    coeffs, residual = projection
    for value in residual:
        if value > RESIDUAL_TOL:
            raise _residual_error(value)
    return coeffs * _constants(spec, coeffs.ndim - 1).decay


def _residual_error(residual) -> BasisResidualError:
    return BasisResidualError(
        f"basis projection lost mass fraction {float(residual):.3g}")


def comparator_scalars(spec: ComparatorSpec, dimension: int = 1) -> dict:
    """Operator norm, trace and the annihilation-component bound.

    The trace adds the analytic tail beyond the truncation, so it equals
    1 for every s.  The squared norm of q composed with the comparator
    is the top eigenvalue of the truncated matrix's Gram matrix, reported
    beside the closed-form bound sigma_s^2 e^{s-1} / s.  The spec keeps
    the result per dimension; each call returns a fresh dict.
    """
    key = ("scalars", dimension)
    scalars = spec._store.get(key)
    if scalars is None:
        scalars = spec._store[key] = _scalars(spec, dimension)
    return dict(scalars)


def _scalars(spec: ComparatorSpec, dimension: int) -> dict:
    s, sigma = spec.s, spec.sigma
    n_vals = np.arange(spec.N + 1)
    trace_1d = float(np.sum(np.exp(-s * n_vals))
                     + np.exp(-s * (spec.N + 1)) / (1 - np.exp(-s))) * sigma
    # q in the number basis: tridiagonal sqrt((n+1)/2) couplings.
    cpl = np.sqrt((n_vals[:-1] + 1) / 2.0)
    Q = np.zeros((spec.N + 1, spec.N + 1))
    Q[n_vals[:-1], n_vals[:-1] + 1] = cpl
    Q[n_vals[:-1] + 1, n_vals[:-1]] = cpl
    QD = Q * spec.eigenvalues
    gram = QD.T @ QD
    # q^2 couples only numbers of equal parity, so the Gram matrix is two
    # blocks, even and odd, and its top eigenvalue is the larger of theirs.
    top = max(np.linalg.eigvalsh(gram[p::2, p::2])[-1] for p in (0, 1))
    bound = sigma ** 2 * np.exp(s - 1.0) / s
    return {"norm": sigma ** dimension,
            "trace": trace_1d ** dimension,
            "aOmega_sq_measured": float(top),
            "aOmega_bound": float(bound)}


def coherent_label(alpha: PhasePoint) -> complex:
    """The complex label z = (xi + i pi)/sqrt(2) of a 1D displacement."""
    if alpha.n != 1:
        raise ValueError("coherent labels are one-dimensional")
    return complex(float(alpha.xi[0]), float(alpha.pi[0])) / np.sqrt(2.0)


def coherent_coefficients(alpha: PhasePoint, K: int) -> np.ndarray:
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


def coherent_matrix_elements(spec: ComparatorSpec, alpha: PhasePoint) -> dict:
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
    eig = spec.eigenvalues
    diag_closed = float(sigma * np.exp(-sigma * z_sq))
    diag_measured = float(np.sum(c_sq * eig))
    inv_closed = float(np.exp(lam_2s * z_sq) / sigma ** 2)
    inv_measured = float(np.sum(c_sq * np.exp(_constants(spec, 1).growth))
                         / sigma ** 2)
    # Mass beyond the truncation is scored with the worst factor 1.
    tail = max(0.0, 1.0 - float(np.sum(c_sq)))
    one_minus_measured = float(np.sqrt(np.sum(c_sq * (1.0 - eig) ** 2) + tail))
    return {"diag": diag_closed, "diag_measured": diag_measured,
            "inv_norm_sq": inv_closed, "inv_norm_sq_measured": inv_measured,
            "one_minus_bound": float(np.sqrt(1.0 - diag_closed)),
            "one_minus_measured": one_minus_measured}


def within_magnitude(spec: ComparatorSpec, E: float, projection) -> dict:
    """Test one projected state for membership within magnitude E.

    projection is the state's (coeffs, residual): one row of
    hermite_coefficients' stack.  Uses the comparator at unit top
    eigenvalue, as apply_comparator does, so the inverse image of h_0
    has norm 1.  The inverse norm is the truncated sum
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
    coeffs, residual = projection
    if residual > RESIDUAL_TOL:
        raise _residual_error(residual)
    c_sq = np.abs(coeffs)
    np.square(c_sq, out=c_sq)
    c_sq[c_sq <= NOISE_FLOOR * c_sq.sum()] = 0.0
    const = _constants(spec, c_sq.ndim)
    # A dropped coefficient's log term is -inf, which no sum counts.
    log_terms = np.full(c_sq.shape, -np.inf)
    np.log(c_sq, where=c_sq != 0, out=log_terms)
    log_terms += const.growth
    divergent = _edge_dominated(log_terms.ravel()[const.order])
    peak = float(log_terms.max())
    if peak > EXP_GUARD:
        inv_norm = np.inf
        divergent = True
    else:
        terms = np.exp(log_terms[np.isfinite(log_terms)])
        inv_norm = float(np.sqrt(terms.sum()))
    member = bool(not divergent and inv_norm <= E)
    return {"member": member, "inv_norm": inv_norm, "divergent": divergent,
            "residual": residual}


def _edge_dominated(seq) -> bool:
    # seq holds the log terms by total excitation; the sum is
    # untrustworthy when the last window of surviving terms carries most
    # of its value.
    seq = seq[seq > -EXP_GUARD]
    if seq.size < 2 * EDGE_WINDOW:
        return False
    scaled = np.exp(seq - seq.max())
    return bool(scaled[-EDGE_WINDOW:].sum() > EDGE_FRACTION * scaled.sum())
