"""Hamiltonian functions h(alpha), their derivatives and Taylor remainders.

The package works in internal units with hbar = 1; any handling of
physical magnitudes lives in :mod:`qreduce.scaling`.  A Hamiltonian is
h(xi, pi) = pi^2 / 2m + V(xi) in one or two degrees of freedom, with V
a polynomial: the reduction's remainder is an exact Taylor tail, which
only a polynomial has.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_POLY_DEGREE = 8
MAX_POLY_DEGREE_2D = 4
GAUSS_NODES = MAX_POLY_DEGREE + 1


def _horner(D, axes):
    """sum_a D[a] x^a with coordinate i at axes[i], arrays that broadcast
    against each other: D's first len(axes) axes index powers, its other
    axes broadcast against the coordinates.  Horner runs in polyval2d's
    order, in the first coordinate inside and then in the next, so a 1D
    value is bitwise polyval's and a 2D one polyval2d's.  Each pass runs
    in place on its one result array, which already has the broadcast
    shape: real products and sums round the same in either operand
    order."""
    for x in axes:
        out = D[-1] + x * 0
        for c in D[-2::-1]:
            out *= x
            out += c
        D = out
    return D


def _polyder(c, m, axis):
    """Coefficients of the m-th derivative of the power series c along
    ``axis``, a fresh array: numpy.polynomial.polynomial.polyder's
    arithmetic, der[j - 1] = j * c[j] once per order.  When m reaches the
    degree's length it is c[:1] * 0 of the input, as in polyder, so a
    zero keeps the sign that 0 times its coefficient gives."""
    c = np.moveaxis(np.array(c, dtype=float), axis, 0)
    if m >= len(c):
        c = c[:1] * 0
    else:
        for _ in range(m):
            j = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
            c = c[1:] * j
    return np.moveaxis(c, 0, axis)


class PotentialModel:
    """A polynomial potential V with exact derivatives.

    V is one coefficient tensor with an axis per degree of freedom:
    coeffs[i] multiplies x^i in 1D, coeffs[i, j] x^i y^j in 2D.  Degree
    <= MAX_POLY_DEGREE (8) in 1D, total degree <= MAX_POLY_DEGREE_2D (4)
    in 2D.  Derivatives of all orders come from coefficient
    differentiation, done once per potential and multi-index, and Taylor
    remainders about any batch of centres are exact.  gradient and
    hessian take one point or a stack of points.
    """

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self._derivatives = {(0,) * self.coeffs.ndim: self.coeffs}

    # -- constructors -------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "PotentialModel":
        """1D polynomial V(x) = sum_k coeffs[k] x^k."""
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if coeffs.ndim != 1 or not coeffs.size:
            raise ValueError("1D polynomial needs a flat, nonempty "
                             "coefficient list")
        if len(coeffs) - 1 > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
        return cls(coeffs)

    @classmethod
    def polynomial2d(cls, coeff_matrix) -> "PotentialModel":
        """2D polynomial V(x, y) = sum_{ij} C[i, j] x^i y^j, total degree <= 4."""
        C = np.asarray(coeff_matrix, dtype=float)
        if C.ndim != 2 or not C.size:
            raise ValueError("2D polynomial needs a nonempty coefficient "
                             "matrix")
        if np.any((C != 0.0) & (sum(np.indices(C.shape)) > MAX_POLY_DEGREE_2D)):
            raise ValueError(f"2D total degree capped at {MAX_POLY_DEGREE_2D}")
        return cls(C)

    # -- queries ------------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.coeffs.ndim

    def value(self, x):
        """Evaluate V at x (scalar or array; 2D takes (..., 2) stacks)."""
        x = np.asarray(x, dtype=float)
        axes = [x] if self.ndim == 1 else np.moveaxis(x, -1, 0)
        return self._evaluate(axes, (0,) * self.ndim)

    def derivative(self, x, order=1):
        """Evaluate d^order V / dx^order at x (1D potentials)."""
        if self.ndim != 1:
            raise ValueError("use gradient/hessian for 2D potentials")
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        return self._evaluate([np.asarray(x, dtype=float)], (order,))

    def gradient(self, xi):
        """Gradient of V at a point, or at each point of a stack.

        xi is one point (n,) (a scalar in 1D) or a stack (..., n); the
        result has the same shape.  Every point is evaluated by the same
        elementwise Horner steps, so a stack is bitwise the loop.
        """
        axes = np.moveaxis(np.atleast_1d(np.asarray(xi, dtype=float)), -1, 0)
        units = np.eye(self.ndim, dtype=int)
        return np.stack([self._evaluate(axes, a) for a in units], axis=-1)

    def hessian(self, xi):
        """Hessian of V at a point, (n, n), or at a stack (..., n) -> (..., n, n)."""
        axes = np.moveaxis(np.atleast_1d(np.asarray(xi, dtype=float)), -1, 0)
        units = np.eye(self.ndim, dtype=int)
        return np.stack([np.stack([self._evaluate(axes, a + b) for b in units],
                                  axis=-1) for a in units], axis=-2)

    def _derivative(self, a):
        """Coefficients of d^a V for a multi-index a, one entry per axis;
        differentiated once per potential and multi-index."""
        a = tuple(a)
        D = self._derivatives.get(a)
        if D is None:
            D = self.coeffs
            for axis, m in enumerate(a):
                D = _polyder(D, m, axis)
            self._derivatives[a] = D
        return D

    def _evaluate(self, axes, a):
        """d^a V with coordinate i at axes[i], arrays that broadcast
        against each other, by _horner."""
        if len(axes) != self.ndim:
            raise ValueError(f"points need one coordinate per axis of V, "
                             f"n = {self.ndim}")
        D = self._derivative(a)
        return _horner(D.reshape(D.shape + (1,) * max(x.ndim for x in axes)),
                       axes)

    def remainder(self, centers, u):
        """Taylor remainder of order >= 3 about K centres, at displacements u.

        centers is a (K, n) array and u a (K, G, n) one; returns r_k(u) as
        (K, G).  The coefficients d^a V(c_k) / a! come from the exact
        derivatives of the cache, so r is identically zero for quadratic
        V; Horner runs on the coordinates in their own order.
        """
        C = self.coeffs
        taylor = np.zeros(C.shape + (len(centers), 1))
        at_centers = np.moveaxis(centers, -1, 0)
        for a in np.ndindex(C.shape):
            if sum(a) >= 3:
                taylor[a] = (self._evaluate(at_centers, a)
                             / math.prod(map(math.factorial, a)))[:, None]
        return _horner(taylor, np.moveaxis(u, -1, 0))


@functools.cache
def normal_rule():
    """Gauss-Hermite nodes z and weights w with sum_k w_k f(z_k) = E f(Z),
    Z standard normal, for f of degree <= 17: r^2 at the degree caps.

    It is _gauss_hermite(GAUSS_NODES), computed once and shared, so both
    arrays are read-only."""
    z, w = _gauss_hermite(GAUSS_NODES)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _gauss_hermite(n):
    """The n-node Gauss rule for the standard normal, n >= 2, exact for
    degree <= 2n - 1, by Golub-Welsch: the nodes are the eigenvalues of
    the Jacobi matrix of the probabilists' Hermite polynomials
    (off-diagonals sqrt(1) .. sqrt(n - 1)), and each weight is the square
    of the first entry of its unit eigenvector, so the weights sum to 1.
    Both are symmetrised about 0, so for odd n the middle node is 0."""
    off = np.sqrt(np.arange(1.0, n))
    z, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = V[0] ** 2
    return (z - z[::-1]) / 2, (w + w[::-1]) / 2


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


@dataclass(frozen=True)
class HamiltonianSpec:
    """Mass and potential defining h = pi^2/2m + V(xi)."""

    mass: float
    potential: PotentialModel

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    @property
    def dimension(self) -> int:
        """Degrees of freedom, the potential's: 1 or 2."""
        return self.potential.ndim


def time_steps(t_final: float, dt: float):
    """(steps, step) of a run over [0, t_final] at a requested dt.

    The one step rule of the classical flow and the grid run: valid only
    when 0 < dt <= t_final (ValueError otherwise), steps = max(1,
    round(t_final / dt)) and step = t_final / steps, so the steps divide
    the horizon exactly.
    """
    if not 0 < dt <= t_final:
        raise ValueError("need 0 < dt <= t_final")
    steps = max(1, int(round(t_final / dt)))
    return steps, t_final / steps


def energies(spec: HamiltonianSpec, xi, pi) -> np.ndarray:
    """h = pi^2 / 2m + V(xi) at each row of (..., n) position and
    momentum stacks, in one call."""
    pot = spec.potential
    v = pot.value(xi if pot.ndim == 2 else xi[..., 0])
    return np.sum(pi ** 2, axis=-1) / (2.0 * spec.mass) + v


def _remainder_by_subtraction(pot: PotentialModel, center):
    """The map u -> r(c + u) = V(c + u) - V(c) - grad V(c).u - u.H(c).u / 2
    about a centre c of shape (n,), with u_i at u[i], arrays that
    broadcast against each other; r has their broadcast shape.  V(c),
    grad V(c) and H(c) are taken once, for every call of the map.

    Term i is u_i (g_i + sum_{j<i} H_ij u_j + H_ii u_i / 2), so it spans
    only the axes of u_0 .. u_i, and each term is subtracted in place
    from V(c + u); V(c) goes with the first.
    """
    v = pot._evaluate(center, (0,) * pot.ndim)
    g, H = pot.gradient(center), pot.hessian(center)

    def remainder(u):
        r = pot._evaluate([c + x for c, x in zip(center, u)], (0,) * pot.ndim)
        for i, x in enumerate(u):
            slope = g[i]
            for j in range(i):
                slope = slope + H[i, j] * u[j]
            term = x * (slope + 0.5 * H[i, i] * x)
            r -= term if i else v + term
        return r

    return remainder
