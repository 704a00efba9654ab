import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from qreduce import (
    HamiltonianSpec,
    PhasePoint,
    PotentialModel,
    PotentialDomainError,
    eval_h,
    gradient_h,
    hessian_h,
    taylor_remainder_V,
)


def harmonic_spec(mass=1.0):
    return HamiltonianSpec(mass=mass, potential=PotentialModel.polynomial([0, 0, 0.5]))


def test_eval_h_harmonic_ground_circle():
    # h = (xi^2 + pi^2)/2 on the unit circle.
    spec = harmonic_spec()
    assert eval_h(spec, PhasePoint(1.0, 0.0)) == pytest.approx(0.5)
    assert eval_h(spec, PhasePoint(0.0, 1.0)) == pytest.approx(0.5)
    assert eval_h(spec, PhasePoint(np.sqrt(0.5), np.sqrt(0.5))) == pytest.approx(0.5)


def test_eval_h_free_mass_two():
    spec = HamiltonianSpec(mass=2.0, potential=PotentialModel.polynomial([0.0]))
    assert eval_h(spec, PhasePoint(3.0, 4.0)) == pytest.approx(4.0)


def test_eval_h_cubic():
    # V = xi^3/6 at (2, 1): 1/2 + 8/6.
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 1 / 6]))
    assert eval_h(spec, PhasePoint(2.0, 1.0)) == pytest.approx(0.5 + 8.0 / 6.0)


def test_gradient_h_harmonic():
    spec = harmonic_spec()
    assert gradient_h(spec, PhasePoint(1.0, 0.0)) == pytest.approx([1.0, 0.0])
    assert gradient_h(spec, PhasePoint(0.0, 2.0)) == pytest.approx([0.0, 2.0])
    assert gradient_h(spec, PhasePoint(2.0, 1.0)) == pytest.approx([2.0, 1.0])


def test_hessian_h_quartic():
    # V = xi^4/4 has V'' = 3 xi^2, so 12 at xi = 2.
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 0, 0.25]))
    H = hessian_h(spec, PhasePoint(2.0, 0.0))
    assert H == pytest.approx(np.array([[12.0, 0.0], [0.0, 1.0]]))


def test_hessian_h_mass_two_free():
    spec = HamiltonianSpec(mass=2.0, potential=PotentialModel.polynomial([0.0]))
    H = hessian_h(spec, PhasePoint(1.0, 1.0))
    assert H == pytest.approx(np.array([[0.0, 0.0], [0.0, 0.5]]))


def test_remainder_zero_for_quadratic():
    spec = harmonic_spec()
    x = np.linspace(-3, 3, 41)
    r = taylor_remainder_V(spec, 0.7, x)
    assert np.max(np.abs(r)) < 1e-12


def test_remainder_cubic_exact():
    # V = xi^3/6 about 0: remainder is x^3/6, so 8/6 at x = 2.
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 1 / 6]))
    assert taylor_remainder_V(spec, 0.0, 2.0) == pytest.approx(8.0 / 6.0)


def test_remainder_quartic_at_shifted_center():
    # V = x^4/4 about xi = 1 at x = 1: V(2) - V(1) - V'(1) - V''(1)/2
    # = 4 - 1/4 - 1 - 3/2 = 1.25.
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 0, 0.25]))
    assert taylor_remainder_V(spec, 1.0, 1.0) == pytest.approx(1.25)


def test_remainder_coeffs_match_pointwise():
    # The exact-coefficient remainder equals the subtraction form.
    pot = PotentialModel.polynomial([0.3, -0.2, 0.5, 0.1, 0.05])
    spec = HamiltonianSpec(mass=1.0, potential=pot)
    x = np.linspace(-2, 2, 17)
    via_coeffs = pot.remainder(np.array([[0.8]]), x[None, :, None])[0]
    direct = taylor_remainder_V(spec, 0.8, x)
    assert direct == pytest.approx(via_coeffs, abs=1e-12)


coeff_lists = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=7)
points = st.floats(min_value=-3, max_value=3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(coeffs=coeff_lists, xi=points, pi=points,
       mass=st.floats(min_value=0.25, max_value=4))
def test_gradient_matches_finite_differences(coeffs, xi, pi, mass):
    spec = HamiltonianSpec(mass=mass, potential=PotentialModel.polynomial(coeffs))
    alpha = PhasePoint(xi, pi)
    g = gradient_h(spec, alpha)
    eps = 1e-5
    fd = np.empty(2)
    for k, d in enumerate([PhasePoint(eps, 0.0), PhasePoint(0.0, eps)]):
        fd[k] = (eval_h(spec, alpha + d) - eval_h(spec, alpha - d)) / (2 * eps)
    assert g == pytest.approx(fd, rel=1e-4, abs=1e-5)


@settings(max_examples=50, deadline=None)
@given(coeffs=coeff_lists, xi=points, pi=points)
def test_hessian_symmetric_and_matches_fd(coeffs, xi, pi):
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial(coeffs))
    alpha = PhasePoint(xi, pi)
    H = hessian_h(spec, alpha)
    assert H == pytest.approx(H.T)
    eps = 1e-4
    dplus = gradient_h(spec, alpha + PhasePoint(eps, 0.0))
    dminus = gradient_h(spec, alpha - PhasePoint(eps, 0.0))
    assert H[:, 0] == pytest.approx((dplus - dminus) / (2 * eps), rel=1e-3, abs=1e-4)


def test_polynomial2d_value_gradient_hessian():
    # V(x, y) = x^2 y + y^2.
    C = np.zeros((3, 3))
    C[2, 1] = 1.0
    C[0, 2] = 1.0
    pot = PotentialModel.polynomial2d(C)
    assert pot.value(np.array([2.0, 3.0])) == pytest.approx(12.0 + 9.0)
    assert pot.gradient(np.array([2.0, 3.0])) == pytest.approx([12.0, 10.0])
    H = pot.hessian(np.array([2.0, 3.0]))
    assert H == pytest.approx(np.array([[6.0, 4.0], [4.0, 2.0]]))


# Coefficient matrices within the 2D cap: C[i, j] = 0 for i + j > 4.
coefficient_matrices = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=25, max_size=25).map(
    lambda c: np.where(np.add.outer(np.arange(5), np.arange(5)) <= 4,
                       np.reshape(c, (5, 5)), 0.0))


@settings(max_examples=40, deadline=None)
@given(C=coefficient_matrices, seed=st.integers(0, 2 ** 16))
def test_stacked_derivatives_are_bitwise_the_per_point_ones(C, seed):
    # One call over a stack of points equals one call per point, to the
    # bit, and both equal the coefficient derivatives taken per call.
    pot = PotentialModel.polynomial2d(C)
    points = np.random.default_rng(seed).uniform(-3.0, 3.0, (7, 2))
    grads, hessians = pot.gradient(points), pot.hessian(points)
    assert grads.shape == (7, 2) and hessians.shape == (7, 2, 2)
    pd = npoly.polyder
    for x, g, h in zip(points, grads, hessians):
        assert np.array_equal(pot.gradient(x), g)
        assert np.array_equal(pot.hessian(x), h)
        at = lambda D: npoly.polyval2d(x[0], x[1], D)
        assert np.array_equal(g, [at(pd(C, axis=0)), at(pd(C, axis=1))])
        dxy = at(pd(pd(C, axis=0), axis=1))
        assert np.array_equal(h, [[at(pd(pd(C, axis=0), axis=0)), dxy],
                                  [dxy, at(pd(pd(C, axis=1), axis=1))]])
    # The same in 1D: a (K, 1) stack of points.
    pot1 = PotentialModel.polynomial(C[:, 0])
    column = points[:, :1]
    assert np.array_equal(pot1.gradient(column)[:, 0],
                          [pot1.gradient(x)[0] for x in column])
    assert np.array_equal(pot1.hessian(column)[:, 0, 0],
                          [pot1.hessian(x)[0, 0] for x in column])


def test_polynomial2d_remainder():
    # Cubic term x^2 y contributes remainder about origin; quadratic y^2 drops out.
    C = np.zeros((3, 3))
    C[2, 1] = 1.0
    C[0, 2] = 1.0
    pot = PotentialModel.polynomial2d(C)
    spec = HamiltonianSpec(mass=1.0, potential=pot, dimension=2)
    r = taylor_remainder_V(spec, np.array([0.0, 0.0]), np.array([2.0, 3.0]))
    assert r == pytest.approx(12.0)


def test_degree_caps():
    with pytest.raises(ValueError):
        PotentialModel.polynomial(np.zeros(11))
    C = np.zeros((6, 6))
    C[5, 0] = 1.0
    with pytest.raises(ValueError):
        PotentialModel.polynomial2d(C)


def test_tabulated_matches_polynomial_inside_range():
    x = np.linspace(-4, 4, 401)
    pot = PotentialModel.tabulated(x, 0.5 * x ** 2)
    xs = np.linspace(-3, 3, 11)
    assert pot.value(xs) == pytest.approx(0.5 * xs ** 2, abs=1e-8)
    assert pot.derivative(xs, 1) == pytest.approx(xs, abs=1e-6)
    assert pot.derivative(xs, 2) == pytest.approx(np.ones_like(xs), abs=1e-4)


def test_tabulated_rejects_third_derivative_and_extrapolation():
    x = np.linspace(-1, 1, 50)
    pot = PotentialModel.tabulated(x, x ** 2)
    with pytest.raises(PotentialDomainError):
        pot.derivative(0.0, 3)
    with pytest.raises(PotentialDomainError):
        pot.value(2.0)


def test_tabulated_rejects_coefficient_shift():
    x = np.linspace(-1, 1, 50)
    pot = PotentialModel.tabulated(x, x ** 2)
    with pytest.raises(PotentialDomainError):
        pot.remainder(np.zeros((1, 1)), np.zeros((1, 3, 1)))


def test_phase_point_arithmetic_and_norm():
    a = PhasePoint([1.0, 2.0], [3.0, 4.0])
    b = PhasePoint([0.5, 0.5], [0.5, 0.5])
    assert (a - b).vector == pytest.approx([0.5, 1.5, 2.5, 3.5])
    assert a.s_norm == pytest.approx(np.sqrt(30.0))
    assert PhasePoint.from_vector(a.vector).xi == pytest.approx(a.xi)


def test_phase_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        PhasePoint(np.nan, 0.0)


def test_spec_validation():
    pot = PotentialModel.polynomial([0, 0, 0.5])
    with pytest.raises(ValueError):
        HamiltonianSpec(mass=-1.0, potential=pot)
    with pytest.raises(ValueError):
        HamiltonianSpec(mass=1.0, potential=pot, dimension=2)
