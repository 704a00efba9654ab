"""The numpy cumulative rules against scipy.integrate, bit for bit."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from qreduce.quadrature import cumulative_simpson, cumulative_trapezoid

# -0.0 on its own, and finite values from subnormal to 1e100 of either
# sign, so one array mixes magnitudes; lengths 1 and 2 take the
# trapezoid fallback of the Simpson rule.
entries = st.one_of(st.just(-0.0),
                    st.floats(-1e100, 1e100, allow_nan=False))
samples = st.lists(entries, min_size=1, max_size=64)
# Strictly increasing, non-uniform: a start plus positive increments
# far above the rounding of their running sum.
increments = st.floats(1e-3, 1e3)


def same_bits(ours, theirs):
    return (ours.shape == theirs.shape
            and np.array_equal(ours, theirs, equal_nan=True)
            and np.array_equal(np.signbit(ours), np.signbit(theirs)))


def abscissae(data, n):
    start = data.draw(st.floats(-1e3, 1e3))
    steps = data.draw(st.lists(increments, min_size=n - 1, max_size=n - 1))
    return start + np.concatenate(([0.0], np.cumsum(steps)))


@settings(max_examples=300, deadline=None)
@given(y=samples, data=st.data())
def test_trapezoid_matches_scipy(y, data):
    y = np.array(y)
    x = abscissae(data, y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(cumulative_trapezoid(y, x),
                         scipy.integrate.cumulative_trapezoid(y, x, initial=0))


@settings(max_examples=300, deadline=None)
@given(y=samples, data=st.data())
def test_simpson_on_x_matches_scipy(y, data):
    y = np.array(y)
    x = abscissae(data, y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(cumulative_simpson(y, x=x),
                         scipy.integrate.cumulative_simpson(y, x=x, initial=0))


@settings(max_examples=300, deadline=None)
@given(y=samples, dx=st.floats(1e-6, 1e3))
def test_simpson_on_dx_matches_scipy(y, dx):
    y = np.array(y)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(
            cumulative_simpson(y, dx=dx),
            scipy.integrate.cumulative_simpson(y, dx=dx, initial=0))


def test_negative_zero_sums_become_positive_zero():
    # The Simpson rule adds 0.0 to its sums; the trapezoid keeps -0.0.
    y = np.full(5, -0.0)
    assert not np.any(np.signbit(cumulative_simpson(y, dx=0.5)))
    assert np.all(np.signbit(cumulative_trapezoid(y, np.arange(5.0))[1:]))


def test_simpson_refuses_a_non_increasing_x():
    with pytest.raises(ValueError, match="strictly increasing"):
        cumulative_simpson(np.ones(4), x=np.array([0.0, 1.0, 1.0, 2.0]))
