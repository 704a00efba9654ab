"""Cumulative trapezoid and Simpson rules on numpy alone, at a uniform step.

The Duhamel remainder curve, the metaplectic phase and the stay curves
integrate samples taken at a uniform step dx, cumulatively from 0.
Each rule is scipy.integrate's of the same name with initial=0, and
agrees with it to rounding; importing scipy.integrate would also load
scipy.optimize, scipy.sparse and scipy.linalg into every process.
"""

from __future__ import annotations

import numpy as np


def cumulative_trapezoid(y, dx) -> np.ndarray:
    """Trapezoid integrals of samples y at step dx from the first sample
    to each, 0 first."""
    y = np.asarray(y, dtype=float)
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def cumulative_simpson(y, dx) -> np.ndarray:
    """Simpson 1/3 integrals of samples y at step dx from the first
    sample to each, 0 first.

    Interval k integrates the parabola through its two samples and one
    more (Cartwright's cumulative form, J. Math. Sci. Math. Educ. 12(2),
    eqn 10): the next sample for even k, the previous one for odd k and
    for the last interval.  Below three samples the rule is the
    trapezoid.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return cumulative_trapezoid(y, dx)
    # Interval [k, k+1] from samples k, k+1, k+2, and, reversed, from
    # samples k+1, k, k-1.
    forward = dx / 3 * (5 * y[:-2] / 4 + 2 * y[1:-1] - y[2:] / 4)
    backward = dx / 3 * (5 * y[2:] / 4 + 2 * y[1:-1] - y[:-2] / 4)
    pieces = np.empty(y.size - 1)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))
