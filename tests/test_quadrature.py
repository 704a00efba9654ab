"""The numpy cumulative rules against scipy.integrate on uniform samples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.integrate

from qreduce.quadrature import cumulative_simpson, cumulative_trapezoid

# Finite values from subnormal to 1e100 of either sign, so one array
# mixes magnitudes; lengths 1 and 2 take the trapezoid fallback of the
# Simpson rule.
samples = st.lists(st.floats(-1e100, 1e100, allow_nan=False),
                   min_size=1, max_size=64)
steps = st.floats(1e-6, 1e3)


def agree(ours, theirs, y, dx):
    # Each integral is scipy's to 1e-14 of 4 dx times the sum of |y| up
    # to one sample past its end, the last sample a Simpson piece reads.
    reach = np.cumsum(np.abs(y))[np.minimum(np.arange(y.size) + 1, y.size - 1)]
    return (ours.shape == theirs.shape
            and np.all(np.abs(ours - theirs) <= 4e-14 * dx * reach))


@settings(max_examples=300, deadline=None)
@given(y=samples, dx=steps)
def test_trapezoid_matches_scipy(y, dx):
    y = np.array(y)
    with np.errstate(over="ignore", invalid="ignore"):
        assert agree(cumulative_trapezoid(y, dx),
                     scipy.integrate.cumulative_trapezoid(y, dx=dx, initial=0),
                     y, dx)


@settings(max_examples=300, deadline=None)
@given(y=samples, dx=steps)
def test_simpson_on_dx_matches_scipy(y, dx):
    y = np.array(y)
    with np.errstate(over="ignore", invalid="ignore"):
        assert agree(cumulative_simpson(y, dx),
                     scipy.integrate.cumulative_simpson(y, dx=dx, initial=0),
                     y, dx)
