import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlp import (
    SphereBasisPoly,
    linearize_product,
    sphere_poly,
    sphere_sequence,
    to_sphere_basis,
    weight_quadrature,
)
from expanderlp.orthopoly import QUADRATURE_NODES, sphere_basis_from_roots
from oracles import divide_by_linear, eval_poly, from_roots, mul_poly, sphere_poly_monomial, to_monomial


def ball_poly(k, i, x):
    """B_i(x) = S_0(x) + ... + S_i(x)."""
    return sum(sphere_sequence(k, x, i))


class TestSpherePoly:
    def test_low_orders_cubic(self):
        # S_0 = 1, S_1 = x, S_2 = x^2 - 3, S_3 = x^3 - 5x for k = 3
        assert sphere_poly(3, 0, 7) == 1
        assert sphere_poly(3, 1, 5) == 5
        assert sphere_poly(3, 2, 3) == 6
        assert sphere_poly(3, 3, 2) == -2

    def test_value_at_degree(self):
        # S_i(k) counts the sphere of radius i in the k-regular tree
        for k in range(2, 9):
            for i in range(1, 13):
                assert sphere_poly(k, i, k) == k * (k - 1) ** (i - 1)

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        for k in range(2, 9):
            for i in range(3, 13):
                for x in rng.uniform(-k, k, size=5):
                    lhs = sphere_poly(k, i, x)
                    rhs = x * sphere_poly(k, i - 1, x) - (k - 1) * sphere_poly(k, i - 2, x)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_fraction_exact(self):
        x = Fraction(1, 3)
        val = sphere_poly(3, 3, x)
        assert isinstance(val, Fraction)
        assert val == x**3 - 5 * x

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(sphere_poly(3, 2, xs), xs**2 - 3)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            sphere_poly(1, 2, 0.0)
        with pytest.raises(ValueError):
            sphere_poly(True, 2, 0.0)
        with pytest.raises(ValueError):
            sphere_poly(3, -1, 0.0)
        with pytest.raises(ValueError):
            sphere_poly(3, 65, 0.0)

    @given(st.integers(2, 6), st.integers(3, 12), st.fractions())
    @settings(max_examples=60, deadline=None)
    def test_recurrence_exact(self, k, i, x):
        lhs = sphere_poly(k, i, x)
        rhs = x * sphere_poly(k, i - 1, x) - (k - 1) * sphere_poly(k, i - 2, x)
        assert lhs == rhs

    @given(st.integers(2, 6), st.integers(0, 16), st.fractions())
    @settings(max_examples=80, deadline=None)
    def test_sequence_matches_monomial_expansion(self, k, i, x):
        values = list(sphere_sequence(k, x, i))
        assert len(values) == i + 1
        assert values[i] == eval_poly(sphere_poly_monomial(k, i), x)

    @given(st.integers(2, 8), st.integers(-(10**6), 10**6), st.integers(1, 10**6), st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_homogenised_matches_fraction_recurrence(self, k, a, q, u):
        # N_j = q**j * S_j(a/q), in ints, from the same recurrence
        homogenised = list(sphere_sequence(k, a, u, q=q))
        assert all(type(n) is int for n in homogenised)
        assert homogenised == [q**j * s for j, s in enumerate(sphere_sequence(k, Fraction(a, q), u))]


class TestBallPoly:
    def test_moore_values(self):
        # B_i(k) is the ball size in the tree, i.e. the Moore bound
        assert ball_poly(3, 2, 3) == 10
        assert ball_poly(7, 2, 7) == 50
        assert ball_poly(2, 3, 2) == 7

    def test_partial_sum(self):
        for i in range(0, 7):
            x = Fraction(5, 7)
            assert ball_poly(4, i, x) == sum(sphere_poly(4, j, x) for j in range(i + 1))

    def test_linear_factor_identity(self):
        # (x - k) B_i = S_{i+1} - (k-1) S_i for i >= 1, hence B_i divides exactly
        for k in (2, 3, 5):
            for i in range(1, 8):
                num = [
                    a - (k - 1) * b
                    for a, b in zip(
                        _pad(sphere_poly_monomial(k, i + 1), i + 2),
                        _pad(sphere_poly_monomial(k, i), i + 2),
                    )
                ]
                quot, rem = divide_by_linear(tuple(num), k)
                assert rem == 0
                x = Fraction(3, 2)
                assert eval_poly(quot, x) == ball_poly(k, i, x)


def _pad(coeffs, n):
    return tuple(coeffs) + (0,) * (n - len(coeffs))


def _strip(coeffs):
    cs = tuple(coeffs) or (0,)
    while len(cs) > 1 and cs[-1] == 0:
        cs = cs[:-1]
    return cs


class TestMonomialPoly:
    # monomials as ascending coefficient tuples: to_sphere_basis's input and
    # the oracle's helpers

    def test_trailing_zeros_stripped(self):
        p = to_sphere_basis(3, (1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_zero_poly(self):
        for zero in ((0, 0), (), [0]):
            p = to_sphere_basis(3, zero)
            assert p.coeffs == (0,)
            assert p(17) == 0

    def test_eval_and_mul(self):
        p = (-4, 0, 3, 1)
        assert eval_poly(p, 2) == -4 + 12 + 8
        assert mul_poly(p, (1, 1)) == (-4, -4, 3, 4, 1)

    def test_from_roots(self):
        p = from_roots((1, -2, -2))
        assert p == (-4, 0, 3, 1)
        assert eval_poly(p, 1) == 0 and eval_poly(p, -2) == 0

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.integers(-5, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_mul_matches_eval(self, a, b, x):
        assert eval_poly(mul_poly(a, b), x) == eval_poly(a, x) * eval_poly(b, x)


class TestSphereBasis:
    def test_x_squared(self):
        basis = to_sphere_basis(3, (0, 0, 1))
        assert basis.coeffs == (3, 0, 1)

    def test_petersen_certificate_polynomial(self):
        basis = to_sphere_basis(3, from_roots((1, -2, -2)))
        assert basis.coeffs == (5, 5, 3, 1)
        assert basis(3) == 50

    def test_round_trip_exact(self):
        p = (Fraction(1, 2), -3, 0, 2, 1)
        assert to_monomial(to_sphere_basis(4, p)) == p

    @given(st.integers(2, 6), st.lists(st.integers(-30, 30), min_size=1, max_size=13))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, k, coeffs):
        assert to_monomial(to_sphere_basis(k, coeffs)) == _strip(coeffs)

    def test_rejects_past_max_degree(self):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            to_sphere_basis(3, (0,) * 65 + (1,))
        assert to_sphere_basis(3, (0,) * 64 + (1,) + (0,) * 5).degree == 64

    def test_constructor_validates_coefficients(self):
        with pytest.raises(ValueError, match="coefficient sequence must be nonempty"):
            SphereBasisPoly(3, ())
        with pytest.raises(ValueError, match="degree 65 exceeds supported maximum 64"):
            SphereBasisPoly(3, (1,) * 66)

    @given(
        st.integers(2, 7),
        st.lists(st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=60)), min_size=1, max_size=17),
        st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=1009)),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_evaluation(self, k, coeffs, x):
        # cleared to integers and divided once: the value of the Fraction
        # Horner scheme, an int exactly when x and every coefficient are
        poly = SphereBasisPoly(k, tuple(coeffs))
        value = poly(x)
        assert value == eval_poly(to_monomial(poly), Fraction(x))
        all_int = isinstance(x, int) and all(isinstance(c, int) for c in coeffs)
        assert type(value) is (int if all_int else Fraction)

    @given(
        st.integers(2, 7),
        st.lists(st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=60)), min_size=1, max_size=17),
        st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=1009)), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_polynomial_at_many_points(self, k, coeffs, xs):
        # the cleared coefficients are formed once and serve every point,
        # int points and Fraction points in any order
        poly = SphereBasisPoly(k, tuple(coeffs))
        for x in xs + xs[:1]:
            value = poly(x)
            assert value == eval_poly(to_monomial(poly), Fraction(x))
            all_int = isinstance(x, int) and all(isinstance(c, int) for c in coeffs)
            assert type(value) is (int if all_int else Fraction)

    def test_float_coefficients_at_exact_points(self):
        # one float coefficient keeps the plain recurrence at every point
        poly = SphereBasisPoly(3, (5.0, 5, 3, 1))
        assert poly(1) == 0.0 and type(poly(1)) is float
        value = poly(Fraction(1, 2))
        assert value == 5.0 + 5 * Fraction(1, 2) + 3 * Fraction(-11, 4) + Fraction(-19, 8) and type(value) is float

    def test_float_and_array_evaluation(self):
        # a float or array point keeps the plain recurrence
        poly = SphereBasisPoly(3, (5, 5, 3, 1))
        assert poly(1.0) == 0.0 and type(poly(1.0)) is float
        np.testing.assert_allclose(poly(np.array([1.0, -2.0, 3.0])), [0.0, 0.0, 50.0])

    @given(
        st.integers(2, 7),
        st.lists(st.integers(-60, 60), min_size=0, max_size=20),
        st.integers(1, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_product_matches_monomial_route(self, k, nums, q):
        # prod (q*x - a) multiplied in the sphere basis, over q**deg, equals
        # prod (x - a/q) expanded in monomials and converted
        scaled = sphere_basis_from_roots(k, nums, q)
        assert all(type(c) is int for c in scaled.coeffs)
        expected = to_sphere_basis(k, from_roots([Fraction(a, q) for a in nums]))
        assert [Fraction(c, q ** len(nums)) for c in scaled.coeffs] == list(expected.coeffs)

    def test_product_petersen(self):
        # (x - 1)(x + 2)^2 = S_3 + 3 S_2 + 5 S_1 + 5 S_0 for k = 3
        assert sphere_basis_from_roots(3, (1, -2, -2)).coeffs == (5, 5, 3, 1)
        # the same roots as halves: (2x - 2)(2x + 4)^2 = 8 (x - 1)(x + 2)^2
        assert sphere_basis_from_roots(3, (2, -4, -4), 2).coeffs == (40, 40, 24, 8)

    def test_no_global_cache(self):
        assert not hasattr(linearize_product, "cache_info")
        assert not hasattr(to_sphere_basis, "cache_info")

    def test_monomial_table_matches_recurrence(self):
        for k in (2, 3, 4, 6):
            for i in range(0, 10):
                mono = sphere_poly_monomial(k, i)
                for x in (0, 1, -2, Fraction(7, 3)):
                    assert eval_poly(mono, x) == sphere_poly(k, i, x)


class TestLinearization:
    def test_s1_squared(self):
        assert linearize_product(3, 1, 1) == (3, 0, 1)

    def test_past_max_degree(self):
        with pytest.raises(ValueError, match="product degree 70 exceeds supported maximum 64"):
            linearize_product(3, 40, 30)

    def test_symmetry(self):
        for k in (3, 5):
            for i in range(5):
                for j in range(5):
                    assert linearize_product(k, i, j) == linearize_product(k, j, i)

    def test_product_identity_exact(self):
        # S_i S_j == sum_l p_l S_l as polynomials, checked in monomials
        for k in (2, 3, 4):
            for i in range(0, 7):
                for j in range(0, 7):
                    coeffs = linearize_product(k, i, j)
                    lhs = mul_poly(sphere_poly_monomial(k, i), sphere_poly_monomial(k, j))
                    rhs = [0] * (i + j + 1)
                    for l, c in enumerate(coeffs):
                        for e, a in enumerate(sphere_poly_monomial(k, l)):
                            rhs[e] += c * a
                    assert lhs == tuple(rhs)

    def test_support_pattern(self):
        # p_l > 0 exactly when |i-j| <= l <= i+j and l = i+j (mod 2); the
        # strict half needs k >= 3 (branching tree)
        for k in range(3, 7):
            for i in range(0, 9):
                for j in range(0, 9):
                    coeffs = linearize_product(k, i, j)
                    assert len(coeffs) == i + j + 1
                    for l, c in enumerate(coeffs):
                        inside = abs(i - j) <= l <= i + j and (l - i - j) % 2 == 0
                        if inside:
                            assert c > 0, (k, i, j, l)
                        else:
                            assert c == 0, (k, i, j, l)

    def test_support_pattern_degenerate_path(self):
        # on the 2-regular tree (the path) interior coefficients can vanish
        assert linearize_product(2, 2, 2) == (2, 0, 0, 0, 1)
        for i in range(0, 9):
            for j in range(0, 9):
                coeffs = linearize_product(2, i, j)
                for l, c in enumerate(coeffs):
                    assert c >= 0
                    inside = abs(i - j) <= l <= i + j and (l - i - j) % 2 == 0
                    if not inside:
                        assert c == 0, (i, j, l)

    def test_constant_term(self):
        # p_0 is the tree sphere size for i == j and vanishes otherwise
        for k in range(2, 7):
            for i in range(0, 9):
                assert linearize_product(k, i, i)[0] == sphere_poly(k, i, k)

    @given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 6), st.fractions())
    @settings(max_examples=60, deadline=None)
    def test_pointwise(self, k, i, j, x):
        coeffs = linearize_product(k, i, j)
        lhs = sphere_poly(k, i, x) * sphere_poly(k, j, x)
        rhs = sum(c * sphere_poly(k, l, x) for l, c in enumerate(coeffs))
        assert lhs == rhs


KS = (2, 3, 4, 5, 7, 20)


class TestWeight:
    # weight_quadrature integrates against w(x) = sqrt(4(k-1) - x^2) / (k^2 - x^2)

    def test_known_values(self):
        # mass 2 pi / k, first moment 0, and second moment 2 pi, as S_2 = x^2 - k
        # is orthogonal to S_0
        for k in KS:
            x, w = weight_quadrature(k)
            assert len(x) == len(w) == QUADRATURE_NODES
            assert float(np.sum(x * w)) == pytest.approx(0, abs=1e-12)
            assert float(np.sum(x * x * w)) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_outside_support(self):
        # every node lies strictly inside the support, with a positive weight
        for k in KS:
            x, w = weight_quadrature(k)
            assert np.all(np.abs(x) < 2 * math.sqrt(k - 1))
            assert np.all(w > 0)

    def test_pole_rejected(self):
        # at k = 2 the support's ends +-2 are poles of w; the nodes avoid them
        # and w*dx is the Chebyshev weight pi/m
        x, w = weight_quadrature(2)
        assert np.all(np.abs(x) < 2)
        np.testing.assert_allclose(w, math.pi / QUADRATURE_NODES, rtol=1e-13)

    def test_normalization(self):
        # total mass is 2 pi / k (Kesten-McKay with the k/(2 pi) factor removed)
        for k in KS:
            _, w = weight_quadrature(k)
            assert w.sum() == pytest.approx(2 * math.pi / k, abs=1e-12)

    def test_orthogonality(self):
        for k in KS:
            x, w = weight_quadrature(k)
            vals = [sphere_poly(k, i, x) for i in range(9)]
            for i in range(9):
                for j in range(9):
                    inner = float(np.sum(vals[i] * vals[j] * w))
                    if i != j:
                        scale = math.sqrt(sphere_poly(k, i, k) * sphere_poly(k, j, k))
                        assert abs(inner) <= 1e-12 * scale, (k, i, j, inner)
                        assert abs(inner) <= 1e-6, (k, i, j, inner)
                    else:
                        assert inner > 1e-3

    def test_norms(self):
        # <S_i, S_i> = (2 pi / k) * S_i(k) for the tree weight
        for k in KS:
            x, w = weight_quadrature(k)
            for i in range(9):
                vals = sphere_poly(k, i, x)
                inner = float(np.sum(vals * vals * w))
                expected = 2 * math.pi / k * sphere_poly(k, i, k)
                assert inner == pytest.approx(expected, rel=1e-12)

    def test_ball_orthogonality(self):
        # partial sums are orthogonal for the weight (k - x) w(x)
        for k in (2, 3, 4):
            x, w = weight_quadrature(k)
            vals = [ball_poly(k, i, x) for i in range(7)]
            for i in range(7):
                for j in range(i):
                    inner = float(np.sum(vals[i] * vals[j] * (k - x) * w))
                    assert abs(inner) <= 1e-6, (k, i, j, inner)
