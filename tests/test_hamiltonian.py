import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.hermite_e import hermegauss

from qreduce import HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.hamiltonian import (GAUSS_NODES, MAX_POLY_DEGREE,
                                 MAX_POLY_DEGREE_2D, _gauss_hermite,
                                 _polyder, _remainder_by_subtraction,
                                 energies, normal_rule)
from qreduce.scaling import scale_hamiltonian


def harmonic_spec(mass=1.0):
    return HamiltonianSpec(mass=mass, potential=PotentialModel.polynomial([0, 0, 0.5]))


def energy(spec, xi, pi):
    return float(energies(spec, np.array([xi]), np.array([pi])))


def by_subtraction(pot, center, x):
    """The subtraction-form remainder about a 1D centre at displacements x."""
    return _remainder_by_subtraction(pot, np.array([center]))(
        [np.asarray(x, dtype=float)])


def test_eval_h_harmonic_ground_circle():
    # h = (xi^2 + pi^2)/2 on the unit circle.
    spec = harmonic_spec()
    assert energy(spec, 1.0, 0.0) == pytest.approx(0.5)
    assert energy(spec, 0.0, 1.0) == pytest.approx(0.5)
    assert energy(spec, np.sqrt(0.5), np.sqrt(0.5)) == pytest.approx(0.5)


def test_eval_h_free_mass_two():
    spec = HamiltonianSpec(mass=2.0, potential=PotentialModel.polynomial([0.0]))
    assert energy(spec, 3.0, 4.0) == pytest.approx(4.0)


def test_eval_h_cubic():
    # V = xi^3/6 at (2, 1): 1/2 + 8/6.
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 1 / 6]))
    assert energy(spec, 2.0, 1.0) == pytest.approx(0.5 + 8.0 / 6.0)


def test_gradient_h_harmonic():
    pot = harmonic_spec().potential
    for xi in (0.0, 1.0, 2.0):
        assert pot.gradient(xi) == pytest.approx([xi])


def test_hessian_h_quartic():
    # V = xi^4/4 has V'' = 3 xi^2, so 12 at xi = 2.
    pot = PotentialModel.polynomial([0, 0, 0, 0, 0.25])
    assert pot.hessian(2.0) == pytest.approx(np.array([[12.0]]))


def test_hessian_h_mass_two_free():
    # d^2 h / d pi^2 = 1 / m, here by a central second difference.
    spec = HamiltonianSpec(mass=2.0, potential=PotentialModel.polynomial([0.0]))
    eps = 1e-3
    second = (energy(spec, 1.0, 1.0 + eps) - 2.0 * energy(spec, 1.0, 1.0)
              + energy(spec, 1.0, 1.0 - eps)) / eps ** 2
    assert second == pytest.approx(0.5, rel=1e-6)
    assert spec.potential.hessian(1.0) == pytest.approx(np.array([[0.0]]))


def test_remainder_zero_for_quadratic():
    x = np.linspace(-3, 3, 41)
    r = by_subtraction(harmonic_spec().potential, 0.7, x)
    assert np.max(np.abs(r)) < 1e-12


def test_remainder_cubic_exact():
    # V = xi^3/6 about 0: remainder is x^3/6, so 8/6 at x = 2.
    pot = PotentialModel.polynomial([0, 0, 0, 1 / 6])
    assert by_subtraction(pot, 0.0, 2.0) == pytest.approx(8.0 / 6.0)


def test_remainder_quartic_at_shifted_center():
    # V = x^4/4 about xi = 1 at x = 1: V(2) - V(1) - V'(1) - V''(1)/2
    # = 4 - 1/4 - 1 - 3/2 = 1.25.
    pot = PotentialModel.polynomial([0, 0, 0, 0, 0.25])
    assert by_subtraction(pot, 1.0, 1.0) == pytest.approx(1.25)


def test_remainder_coeffs_match_pointwise():
    # The exact-coefficient remainder equals the subtraction form.
    pot = PotentialModel.polynomial([0.3, -0.2, 0.5, 0.1, 0.05])
    x = np.linspace(-2, 2, 17)
    via_coeffs = pot.remainder(np.array([[0.8]]), x[None, :, None])[0]
    direct = by_subtraction(pot, 0.8, x)
    assert direct == pytest.approx(via_coeffs, abs=1e-12)


coeff_lists = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=7)
points = st.floats(min_value=-3, max_value=3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(coeffs=coeff_lists, xi=points, pi=points,
       mass=st.floats(min_value=0.25, max_value=4))
def test_gradient_matches_finite_differences(coeffs, xi, pi, mass):
    # The gradient of h is (V'(xi), pi / m).
    spec = HamiltonianSpec(mass=mass, potential=PotentialModel.polynomial(coeffs))
    g = [spec.potential.gradient(xi)[0], pi / mass]
    eps = 1e-5
    fd = [(energy(spec, xi + eps, pi) - energy(spec, xi - eps, pi)) / (2 * eps),
          (energy(spec, xi, pi + eps) - energy(spec, xi, pi - eps)) / (2 * eps)]
    assert g == pytest.approx(fd, rel=1e-4, abs=1e-5)


@settings(max_examples=50, deadline=None)
@given(coeffs=coeff_lists, xi=points)
def test_hessian_symmetric_and_matches_fd(coeffs, xi):
    pot = PotentialModel.polynomial(coeffs)
    H = pot.hessian(xi)
    assert H == pytest.approx(H.T)
    eps = 1e-4
    dplus, dminus = pot.gradient(xi + eps), pot.gradient(xi - eps)
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


def test_points_must_have_one_coordinate_per_axis():
    # A point or stack whose last axis is not n long is refused, not read
    # for its first n coordinates (2D) or elementwise (1D).
    pot = PotentialModel.polynomial2d([[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]])
    for xi in ([1.0, 2.0, 3.0], [[1.0], [2.0]]):
        for query in (pot.value, pot.gradient, pot.hessian):
            with pytest.raises(ValueError, match="n = 2"):
                query(np.array(xi))
    with pytest.raises(ValueError, match="n = 1"):
        PotentialModel.polynomial([0, 0, 0.5]).gradient(np.array([1.0, 2.0]))


def test_polynomial2d_remainder():
    # Cubic term x^2 y contributes remainder about origin; quadratic y^2 drops out.
    C = np.zeros((3, 3))
    C[2, 1] = 1.0
    C[0, 2] = 1.0
    pot = PotentialModel.polynomial2d(C)
    r = _remainder_by_subtraction(pot, np.array([0.0, 0.0]))(
        [np.array(2.0), np.array(3.0)])
    assert r == pytest.approx(12.0)


def test_degree_caps():
    with pytest.raises(ValueError):
        PotentialModel.polynomial(np.zeros(11))
    C = np.zeros((6, 6))
    C[5, 0] = 1.0
    with pytest.raises(ValueError):
        PotentialModel.polynomial2d(C)


def test_phase_point_arithmetic_and_norm():
    a = PhasePoint([1.0, 2.0], [3.0, 4.0])
    assert a.vector.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert a.s_norm == pytest.approx(np.sqrt(30.0))
    assert PhasePoint.from_vector(a.vector).xi == pytest.approx(a.xi)


def test_phase_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        PhasePoint(np.nan, 0.0)


def test_spec_dimension_is_the_potential_dimension():
    one = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))
    two = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(
        [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    assert (one.dimension, two.dimension) == (1, 2)


def test_spec_validation():
    pot = PotentialModel.polynomial([0, 0, 0.5])
    with pytest.raises(ValueError):
        HamiltonianSpec(mass=-1.0, potential=pot)


# The formulas the coefficient-tensor model replaced: numpy's Polynomial
# in 1D, polyval2d over polyder matrices in 2D.
def _reference_derivative(C, a):
    D = C
    for axis, m in enumerate(a):
        D = npoly.polyder(D, m, axis=axis)
    return D


def _reference_points(xi):
    xi = np.asarray(xi, dtype=float)
    return xi[None] if xi.ndim == 0 else xi


def _reference_gradient(C, xi):
    xi = _reference_points(xi)
    if C.ndim == 1:
        return np.asarray(Polynomial(C).deriv(1)(xi))
    x, y = xi[..., 0], xi[..., 1]
    return np.stack([npoly.polyval2d(x, y, _reference_derivative(C, a))
                     for a in ((1, 0), (0, 1))], axis=-1)


def _reference_hessian(C, xi):
    xi = _reference_points(xi)
    if C.ndim == 1:
        return np.asarray(Polynomial(C).deriv(2)(xi))[..., None]
    x, y = xi[..., 0], xi[..., 1]
    dxx, dxy, dyy = (npoly.polyval2d(x, y, _reference_derivative(C, a))
                     for a in ((2, 0), (1, 1), (0, 2)))
    return np.stack([np.stack([dxx, dxy], axis=-1),
                     np.stack([dxy, dyy], axis=-1)], axis=-2)


def _reference_scaled(C, lam, sign):
    if C.ndim == 1:
        degrees = np.arange(len(C))
        return C * lam ** (sign * (1.0 - degrees / 2.0))
    i, j = np.indices(C.shape)
    return C * lam ** (sign * (1.0 - (i + j) / 2.0))


def _assert_bitwise(new, ref, signed=True):
    # signed=False compares zeros by value alone: Polynomial's call maps
    # x to 0.0 + 1.0 x first, which turns an x of -0.0 into +0.0.
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert np.array_equal(new, ref)
    if signed:
        assert np.array_equal(np.signbit(new), np.signbit(ref))


@pytest.mark.parametrize("shape", [(1,), (4,), (9,), (1, 3), (3, 4), (5, 5)])
def test_polyder_is_bitwise_numpys(shape):
    # numpy.polynomial is the oracle: every axis, every order from 0 to
    # past the degree, where both give c[:1] * 0 of the input.  Signed
    # zeros among the coefficients show a zero taken from the wrong array.
    rng = np.random.default_rng(sum(shape))
    C = rng.standard_normal(shape)
    C[rng.random(shape) < 0.3] = -0.0
    C.flat[0] = -1.5
    kept = C.copy()
    for axis in range(C.ndim):
        for m in range(C.shape[axis] + 3):
            _assert_bitwise(_polyder(C, m, axis),
                            npoly.polyder(C, m, axis=axis))
    _assert_bitwise(C, kept)


@pytest.mark.parametrize("n", range(2, 20))
def test_gauss_hermite_rule_is_bitwise_hermegauss(n):
    # E Z^k of a standard normal Z for k <= 2n - 1 to rounding of the sum
    # of the terms' magnitudes; nodes and weights bitwise symmetric, the
    # middle node of an odd rule 0; and numpy's hermegauss, whose weights
    # sum to sqrt(2 pi), to rounding.
    z, w = _gauss_hermite(n)
    for k in range(2 * n):
        moment = 0.0 if k % 2 else math.prod(range(k - 1, 0, -2))
        assert abs(w @ z ** k - moment) <= 1e-13 * (w @ np.abs(z) ** k)
    assert np.array_equal(z, -z[::-1]) and np.array_equal(w, w[::-1])
    assert n % 2 == 0 or z[n // 2] == 0.0
    nodes, weights = hermegauss(n)
    np.testing.assert_allclose(z, nodes, rtol=1e-13, atol=0)
    np.testing.assert_allclose(w, weights / np.sqrt(2 * np.pi),
                               rtol=1e-13, atol=0)


def test_normal_rule_is_a_symmetric_gauss_hermite_rule():
    # The shared GAUSS_NODES-node rule, read-only, exact to degree 17:
    # r^2 at the degree caps.
    z, w = normal_rule()
    nodes, weights = _gauss_hermite(GAUSS_NODES)
    _assert_bitwise(z, nodes)
    _assert_bitwise(w, weights)
    assert not (z.flags.writeable or w.flags.writeable)
    assert 2 * GAUSS_NODES - 1 >= 2 * MAX_POLY_DEGREE + 1


finite = st.floats(-3.0, 3.0, allow_nan=False)


def _draw_coefficients(draw) -> np.ndarray:
    """A coefficient tensor within either degree cap."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(finite, min_size=1,
                                      max_size=MAX_POLY_DEGREE + 1)))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    C = np.array(draw(st.lists(finite, min_size=math.prod(shape),
                               max_size=math.prod(shape)))).reshape(shape)
    C[sum(np.indices(shape)) > MAX_POLY_DEGREE_2D] = 0.0
    return C


@st.composite
def models(draw):
    # Coefficients within either degree cap, at points of every accepted
    # form: a scalar or an array (1D values), one point or a (..., n)
    # stack.
    C = _draw_coefficients(draw)
    shape = draw(st.sampled_from([(), (1,), (5,), (3, 4)]))
    if C.ndim == 2:
        shape += (2,)
    xi = np.array(draw(st.lists(finite, min_size=math.prod(shape),
                                max_size=math.prod(shape)))).reshape(shape)
    return C, xi


@settings(max_examples=300, deadline=None)
@given(case=models(), lam=st.floats(0.01, 100.0))
def test_model_is_bitwise_the_polynomial_formulas(case, lam):
    C, xi = case
    pot = PotentialModel(C)
    signed = C.ndim == 2 or not np.any((xi == 0.0) & np.signbit(xi))
    if C.ndim == 1:
        _assert_bitwise(pot.value(xi), Polynomial(C)(xi), signed)
        for k in (1, 2, 3):
            _assert_bitwise(pot.derivative(xi, k),
                            Polynomial(C).deriv(k)(xi), signed)
        # A scalar is one point; an array becomes a (..., 1) stack.
        xi = xi if xi.ndim == 0 else xi[..., None]
    else:
        _assert_bitwise(pot.value(xi),
                        npoly.polyval2d(xi[..., 0], xi[..., 1], C))
    _assert_bitwise(pot.gradient(xi), _reference_gradient(C, xi), signed)
    _assert_bitwise(pot.hessian(xi), _reference_hessian(C, xi), signed)
    spec = HamiltonianSpec(mass=1.0, potential=pot)
    pair = scale_hamiltonian(spec, lam)
    _assert_bitwise(pair.in_scaled_units.potential.coeffs,
                    _reference_scaled(C, lam, 1.0))
    _assert_bitwise(pair.family_member.potential.coeffs,
                    _reference_scaled(C, lam, -1.0))


def _reference_polyval_nd(coef, x):
    # sum_a coef[..., a] x^a, Horner in x[..., 0] outermost: the last
    # x.shape[-1] axes of coef index powers.
    if x.shape[-1] == 0:
        return coef
    out = 0.0
    for c in reversed(np.moveaxis(coef, -x.shape[-1], 0)):
        out = out * x[..., 0] + _reference_polyval_nd(c, x[..., 1:])
    return out


def _reference_remainder(C, centers, u):
    taylor = np.zeros((len(centers), 1) + C.shape)
    for a in np.ndindex(C.shape):
        if sum(a) >= 3:
            D = C / math.prod(map(math.factorial, a))
            for axis, m in enumerate(a):
                D = npoly.polyder(D, m, axis=axis)
            taylor[(slice(None), 0) + a] = _reference_polyval_nd(D, centers)
    return _reference_polyval_nd(taylor, u)


signed_zeros = st.one_of(finite, st.just(-0.0))


@st.composite
def remainder_cases(draw):
    # (K, n) centres and (K, G, n) displacements, -0.0 entries included.
    C = _draw_coefficients(draw)
    K, G = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def array(shape):
        return np.array(draw(st.lists(signed_zeros, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))
                        ).reshape(shape)

    return C, array((K, C.ndim)), array((K, G, C.ndim))


@settings(max_examples=300, deadline=None)
@given(case=remainder_cases())
def test_remainder_is_bitwise_the_outer_first_horner(case):
    # remainder runs _evaluate's Horner in the coordinates' own order on
    # Taylor coefficients from the derivative cache; the x-outermost
    # nesting of numpy's polyder coefficients is the oracle, to 1e-12 of
    # the same remainder with every coefficient, centre and displacement
    # taken by magnitude, which bounds each term.  Subnormal coefficients
    # round differently in the two orders of the 1 / a! division, so
    # differences below the smallest normal number pass.
    C, centers, u = case
    got = PotentialModel(C).remainder(centers, u)
    want = _reference_remainder(C, centers, u)
    scale = _reference_remainder(np.abs(C), np.abs(centers), np.abs(u))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want)
                  <= 1e-12 * scale + np.finfo(float).smallest_normal)
