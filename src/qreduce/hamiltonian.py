"""Hamiltonian functions h(alpha), their derivatives and Taylor remainders.

The package works in internal units with hbar = 1; any handling of
physical magnitudes lives in :mod:`qreduce.scaling`.  A Hamiltonian is
h(xi, pi) = pi^2 / 2m + V(xi) in one or two degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import CubicSpline

from .errors import PotentialDomainError

MAX_POLY_DEGREE = 8
MAX_POLY_DEGREE_2D = 4


def _polyval_nd(coef, x):
    """sum_a coef[..., a] x^a by nested Horner steps: the last x.shape[-1]
    axes of coef index powers, its leading axes broadcast against x's."""
    if x.shape[-1] == 0:
        return coef
    out = 0.0
    for c in reversed(np.moveaxis(coef, -x.shape[-1], 0)):
        out = out * x[..., 0] + _polyval_nd(c, x[..., 1:])
    return out


class PotentialModel:
    """A potential V with analytic derivatives.

    Two kinds are supported.  Polynomial potentials (degree <= 8 in one
    dimension, total degree <= 4 in two) carry exact derivatives of all
    orders by coefficient differentiation, and exact Taylor remainders
    about any batch of centres.  Tabulated potentials are
    cubic-spline interpolants and expose derivatives of order <= 2 only;
    asking for order 3 raises, as differentiating interpolation noise
    twice is already generous.
    """

    def __init__(self, kind, *, coeffs=None, coeff_matrix=None, spline=None,
                 knots=None, values=None):
        self.kind = kind
        self.coeffs = coeffs
        self.coeff_matrix = coeff_matrix
        self._spline = spline
        self.knots = knots
        self.values = values

    # -- constructors -------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "PotentialModel":
        """1D polynomial V(x) = sum_k coeffs[k] x^k."""
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if coeffs.ndim != 1:
            raise ValueError("1D polynomial needs a flat coefficient list")
        if len(coeffs) - 1 > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
        return cls("polynomial", coeffs=coeffs)

    @classmethod
    def polynomial2d(cls, coeff_matrix) -> "PotentialModel":
        """2D polynomial V(x, y) = sum_{ij} C[i, j] x^i y^j, total degree <= 4."""
        C = np.asarray(coeff_matrix, dtype=float)
        if C.ndim != 2:
            raise ValueError("2D polynomial needs a coefficient matrix")
        for i in range(C.shape[0]):
            for j in range(C.shape[1]):
                if C[i, j] != 0.0 and i + j > MAX_POLY_DEGREE_2D:
                    raise ValueError(
                        f"2D total degree capped at {MAX_POLY_DEGREE_2D}")
        return cls("polynomial", coeff_matrix=C)

    @classmethod
    def tabulated(cls, x, v) -> "PotentialModel":
        """Cubic interpolant through samples (x, v); 1D only."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise ValueError("tabulated potential needs matching 1D arrays")
        spline = CubicSpline(x, v, extrapolate=False)
        return cls("tabulated", spline=spline, knots=x, values=v)

    # -- queries ------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.kind == "polynomial"

    @property
    def ndim(self) -> int:
        return 2 if self.coeff_matrix is not None else 1

    def value(self, x):
        """Evaluate V at x (scalar or array; 2D takes (..., 2) stacks)."""
        if self.coeff_matrix is not None:
            x = np.asarray(x, dtype=float)
            return npoly.polyval2d(x[..., 0], x[..., 1], self.coeff_matrix)
        if self.is_polynomial:
            return Polynomial(self.coeffs)(np.asarray(x, dtype=float))
        return self._eval_spline(x, order=0)

    def derivative(self, x, order=1):
        """Evaluate d^order V / dx^order at x (1D potentials)."""
        if self.coeff_matrix is not None:
            raise ValueError("use gradient/hessian for 2D potentials")
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        if self.is_polynomial:
            return Polynomial(self.coeffs).deriv(order)(np.asarray(x, dtype=float))
        if order > 2:
            raise PotentialDomainError(
                "tabulated potentials expose derivative order <= 2 only")
        return self._eval_spline(x, order=order)

    def gradient(self, xi):
        """Gradient of V as an (n,) vector at a single point xi."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.coeff_matrix is not None:
            C = self.coeff_matrix
            dx = npoly.polyval2d(xi[0], xi[1], npoly.polyder(C, axis=0))
            dy = npoly.polyval2d(xi[0], xi[1], npoly.polyder(C, axis=1))
            return np.array([dx, dy])
        return np.array([self.derivative(xi[0], order=1)])

    def hessian(self, xi):
        """Hessian of V as an (n, n) matrix at a single point xi."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.coeff_matrix is not None:
            C = self.coeff_matrix
            pd = npoly.polyder
            dxx = npoly.polyval2d(xi[0], xi[1], pd(pd(C, axis=0), axis=0))
            dxy = npoly.polyval2d(xi[0], xi[1], pd(pd(C, axis=0), axis=1))
            dyy = npoly.polyval2d(xi[0], xi[1], pd(pd(C, axis=1), axis=1))
            return np.array([[dxx, dxy], [dxy, dyy]])
        return np.array([[self.derivative(xi[0], order=2)]])

    def remainder(self, centers, u):
        """Taylor remainder of order >= 3 about K centres, at displacements u.

        centers is a (K, n) array and u a (K, G, n) one; returns r_k(u) as
        (K, G).  The coefficients d^a V(c_k) / a! come from exact
        differentiation, so r is identically zero for quadratic V.
        """
        if not self.is_polynomial:
            raise PotentialDomainError(
                "exact Taylor remainders need a polynomial potential")
        C = self.coeffs if self.coeff_matrix is None else self.coeff_matrix
        taylor = np.zeros((len(centers), 1) + C.shape)
        for a in np.ndindex(C.shape):
            if sum(a) >= 3:
                D = C / math.prod(map(math.factorial, a))
                for axis, m in enumerate(a):
                    D = npoly.polyder(D, m, axis=axis)
                taylor[(slice(None), 0) + a] = _polyval_nd(D, centers)
        return _polyval_nd(taylor, u)

    def _eval_spline(self, x, order):
        x = np.asarray(x, dtype=float)
        out = self._spline(x, nu=order)
        if np.any(np.isnan(out)):
            raise PotentialDomainError(
                "tabulated potential evaluated outside its knot range")
        return out


@dataclass(frozen=True)
class PhasePoint:
    """A classical state alpha = (xi, pi) of position and momentum."""

    xi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))
        object.__setattr__(self, "pi", np.atleast_1d(np.asarray(self.pi, dtype=float)))
        if self.xi.shape != self.pi.shape:
            raise ValueError("xi and pi must have the same dimension")
        if not (np.all(np.isfinite(self.xi)) and np.all(np.isfinite(self.pi))):
            raise ValueError("phase point entries must be finite")

    @property
    def n(self) -> int:
        return self.xi.size

    @property
    def vector(self) -> np.ndarray:
        """The stacked 2n-vector (xi, pi)."""
        return np.concatenate([self.xi, self.pi])

    @property
    def s_norm(self) -> float:
        """Phase-space norm ||alpha||_S = sqrt(xi^2 + pi^2)."""
        return float(np.sqrt(np.sum(self.xi ** 2) + np.sum(self.pi ** 2)))

    @classmethod
    def from_vector(cls, vec) -> "PhasePoint":
        vec = np.asarray(vec, dtype=float)
        n = vec.size // 2
        return cls(vec[:n], vec[n:])

    def __add__(self, other):
        return PhasePoint(self.xi + other.xi, self.pi + other.pi)

    def __sub__(self, other):
        return PhasePoint(self.xi - other.xi, self.pi - other.pi)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Mass, dimension and potential defining h = pi^2/2m + V(xi)."""

    mass: float
    potential: PotentialModel
    dimension: int = 1

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.potential.ndim != self.dimension:
            raise ValueError("potential dimension does not match spec")


def eval_h(spec: HamiltonianSpec, alpha: PhasePoint) -> float:
    """Total energy h(alpha) = pi^2 / 2m + V(xi)."""
    pot = spec.potential
    v = pot.value(alpha.xi if pot.ndim == 2 else alpha.xi[0])
    return float(np.sum(alpha.pi ** 2) / (2.0 * spec.mass) + v)


def gradient_h(spec: HamiltonianSpec, alpha: PhasePoint) -> np.ndarray:
    """Exact gradient (d_xi h, d_pi h) stacked as a 2n-vector."""
    d_xi = spec.potential.gradient(alpha.xi)
    return np.concatenate([np.atleast_1d(d_xi), alpha.pi / spec.mass])


def hessian_h(spec: HamiltonianSpec, alpha: PhasePoint) -> np.ndarray:
    """Exact Hessian as the 2n x 2n block matrix [[d2_xixi, d2_xipi],
    [d2_pixi, d2_pipi]]."""
    n = alpha.n
    H = np.zeros((2 * n, 2 * n))
    V_xx = spec.potential.hessian(alpha.xi)
    H[:n, :n] = V_xx
    H[n:, n:] = np.eye(n) / spec.mass
    return H


def taylor_remainder_V(spec: HamiltonianSpec, xi_center, x):
    """Pointwise cubic-and-higher Taylor remainder of V about xi_center.

    r(x) = V(xi_center + x) - V(xi_center) - V'(xi_center).x
           - x.V''(xi_center).x / 2

    Parameters
    ----------
    xi_center : position about which V is expanded, shape (n,) or scalar.
    x : displacement(s); scalar, (n,), or an array of displacements whose
        last axis has length n (1D accepts plain arrays).

    Returns
    -------
    The remainder, identically zero for quadratic V, with the same leading
    shape as x.
    """
    pot = spec.potential
    xi_center = np.atleast_1d(np.asarray(xi_center, dtype=float))
    if pot.ndim == 2:
        x = np.asarray(x, dtype=float)
        grad = pot.gradient(xi_center)
        hess = pot.hessian(xi_center)
        lin = x @ grad
        quad = 0.5 * np.einsum("...i,ij,...j->...", x, hess, x)
        return (pot.value(xi_center + x) - pot.value(xi_center)
                - lin - quad)
    x = np.asarray(x, dtype=float)
    c = xi_center[0]
    v0 = pot.value(c)
    v1 = pot.derivative(c, 1)
    v2 = pot.derivative(c, 2)
    return pot.value(c + x) - v0 - v1 * x - 0.5 * v2 * x * x
