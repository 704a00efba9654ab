"""Cumulative trapezoid and Simpson rules on numpy alone.

The Duhamel remainder curve, the metaplectic phase and the stay curves
integrate 1D samples cumulatively from 0.  These two rules do scipy
1.17's scipy.integrate arithmetic operation for operation on such
inputs (initial=0), so every curve keeps its bits; importing
scipy.integrate would also load scipy.optimize, scipy.sparse and
scipy.linalg into every process.
"""

from __future__ import annotations

import numpy as np


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Trapezoid integrals of y(x) from x[0] to each x[k], 0 first."""
    y = np.asarray(y, dtype=float)
    d = np.diff(np.asarray(x, dtype=float))
    return np.concatenate(([0.0], _trapezoid_sums(y, d)))


def cumulative_simpson(y, *, x=None, dx=None) -> np.ndarray:
    """Simpson 1/3 integrals of y from the first sample to each, 0 first.

    Samples sit at the strictly increasing x, else at the spacing dx.
    Interval k integrates the parabola through its two samples and one
    more (Cartwright's cumulative form): the next sample for even k, the
    previous one for odd k and for the last interval.  Below three
    samples the rule is the trapezoid.
    """
    y = np.asarray(y, dtype=float)
    if x is None:
        d, rule = np.full(y.size - 1, float(dx)), _equal_intervals
    else:
        d, rule = np.diff(np.asarray(x, dtype=float)), _unequal_intervals
        if np.any(d <= 0):
            raise ValueError("x must be strictly increasing")
    if y.size < 3:
        res = _trapezoid_sums(y, d)
    else:
        forward = rule(y, d)
        backward = rule(y[::-1], d[::-1])[::-1]
        pieces = np.empty(y.size - 1)
        pieces[:-1:2] = forward[::2]
        pieces[1::2] = backward[::2]
        pieces[-1] = backward[-1]
        res = np.cumsum(pieces)
    res += 0.0  # -0.0 becomes +0.0, as in scipy
    return np.concatenate(([0.0], res))


def _trapezoid_sums(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.cumsum(d * (y[1:] + y[:-1]) / 2.0)


def _equal_intervals(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Integral over [x_k, x_k+1] of the parabola through samples k, k+1
    and k+2, all spacings d equal (Cartwright, eqn 10)."""
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    return d[:-1] / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)


def _unequal_intervals(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """_equal_intervals for any spacings d (Cartwright, J. Math. Sci.
    Math. Educ. 12(2), eqn 8)."""
    x21, x32 = d[:-1], d[1:]
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)
