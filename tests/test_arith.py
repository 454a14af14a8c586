import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopath import arith
from monopath.construct import find_long_path_structure
from monopath.gen import extremal


def slow_le(count, bound_float):
    # reference with a margin wide enough to flag rounding disagreement
    return count <= bound_float + 1e-9


class TestCoeffSqrt:
    @given(st.integers(1, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_floor_ceil_of_sqrt(self, n):
        assert arith.floor_of_coeff_sqrt(1, n) == math.isqrt(n)
        c = arith.ceil_of_coeff_sqrt(1, n)
        assert (c - 1) ** 2 < n <= c * c

    @given(st.integers(1, 10**6), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_floor_ceil_bracket_the_value(self, n, a):
        coeff = Fraction(a, 2)
        f = arith.floor_of_coeff_sqrt(coeff, n)
        c = arith.ceil_of_coeff_sqrt(coeff, n)
        # f <= coeff*sqrt(n) < f + 1 and c - 1 < coeff*sqrt(n) <= c
        target = coeff * coeff * n
        assert f * f <= target < (f + 1) ** 2
        assert (c - 1) ** 2 < target <= c * c
        assert 0 <= c - f <= 1


class TestQuartic:
    def test_plus_quartic_known_points(self):
        # sqrt(16) + 8*2 = 20
        assert arith.le_sqrt_plus_quartic(20, 16, 8)
        assert not arith.le_sqrt_plus_quartic(21, 16, 8)
        # n=81: sqrt=9, quartic=3, coeff 8 -> 33
        assert arith.le_sqrt_plus_quartic(33, 81, 8)
        assert not arith.le_sqrt_plus_quartic(34, 81, 8)

    def test_minus_quartic_known_points(self):
        # n=81, coeff 2: 9 - 2*3 = 3
        assert arith.le_sqrt_minus_quartic(3, 81, 2)
        assert not arith.le_sqrt_minus_quartic(4, 81, 2)
        # bound can go negative, nothing non-negative passes
        assert not arith.le_sqrt_minus_quartic(0, 16, 8)

    @given(st.integers(0, 4000), st.integers(1, 10**8), st.integers(0, 20))
    @settings(max_examples=300, deadline=None)
    def test_plus_quartic_matches_floats_away_from_ties(self, count, n, coeff):
        bound = n**0.5 + coeff * n**0.25
        if abs(count - bound) > 1e-6 * max(1.0, bound):
            assert arith.le_sqrt_plus_quartic(count, n, coeff) == (count <= bound)

    @given(st.integers(0, 4000), st.integers(1, 10**8), st.integers(0, 20))
    @settings(max_examples=300, deadline=None)
    def test_minus_quartic_matches_floats_away_from_ties(self, count, n, coeff):
        bound = n**0.5 - coeff * n**0.25
        if abs(count - bound) > 1e-6 * max(1.0, abs(bound)):
            assert arith.le_sqrt_minus_quartic(count, n, coeff) == (count <= bound)


class TestReduceGuard:
    def test_empty_keep_needs_equal_constants(self):
        # sqrt(n-0) + c + 0 <= sqrt(n) iff c <= 0
        assert arith.reduce_guard(100, 0, 0, 0)
        assert not arith.reduce_guard(100, 0, 1, 0)
        assert arith.reduce_guard(100, 0, -1, 0)

    def test_spec_sized_example(self):
        # sqrt(60) + 1 + 1 = 9.74..  <= sqrt(100) = 10
        assert arith.reduce_guard(100, 40, 1, 1)
        # sqrt(96) + 1 + 1 = 11.79.. >  10, even with a bit of slack
        assert not arith.reduce_guard(100, 4, 1, 1)
        assert not arith.reduce_guard(100, 4, 0, 1)
        assert arith.reduce_guard(100, 4, -1, 1)

    @given(
        st.integers(1, 10**6),
        st.data(),
        st.integers(-10, 10),
        st.integers(0, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_float_evaluation_away_from_ties(self, n, data, c, k):
        s = data.draw(st.integers(0, n - 1))
        lhs = math.sqrt(n - s) + c + k
        rhs = math.sqrt(n)
        if abs(lhs - rhs) > 1e-6:
            assert arith.reduce_guard(n, s, c, k) == (lhs <= rhs)

    def test_exact_tie(self):
        # sqrt(16-7)=3, +1+0 vs sqrt(16): 4 <= 4
        assert arith.reduce_guard(16, 7, 1, 0)
        assert not arith.reduce_guard(16, 7, 1, 1)


class TestMisc:
    def test_lt_sqrt_plus_const(self):
        assert arith.lt_sqrt_plus_const(4, 16, 1)  # 4 < 5
        assert not arith.lt_sqrt_plus_const(5, 16, 1)  # 5 < 5 fails
        assert arith.lt_sqrt_plus_const(0, 1, 0.5)

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_ceil_div(self, a, b):
        assert arith.ceil_div(a, b) == math.ceil(a / b) == -(-a // b)


NON_FINITE = [math.inf, -math.inf, math.nan]


class TestNonFiniteConstants:
    # Fraction raises OverflowError on an infinity and an unlabelled
    # ValueError on nan; _frac owns the check and names the value
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: arith.reduce_guard(100, 4, c, 1),
            lambda c: arith.lt_sqrt_plus_const(3, 100, c),
            lambda c: arith.le_sqrt_plus_quartic(3, 100, c),
            lambda c: arith.le_sqrt_minus_quartic(3, 100, c),
            lambda c: arith.ceil_of_coeff_sqrt(c, 100),
            lambda c: arith.floor_of_coeff_sqrt(c, 100),
        ],
        ids=[
            "reduce_guard",
            "lt_sqrt_plus_const",
            "le_sqrt_plus_quartic",
            "le_sqrt_minus_quartic",
            "ceil_of_coeff_sqrt",
            "floor_of_coeff_sqrt",
        ],
    )
    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_rejected_with_value_error_naming_the_value(self, call, value):
        with pytest.raises(ValueError, match=f"finite coefficient, got {value}$"):
            call(value)

    def test_int_too_big_for_a_float_is_still_exact(self):
        assert not arith.reduce_guard(100, 4, 10**400, 1)
        assert arith.lt_sqrt_plus_const(3, 100, 10**400)


def test_slack_of_another_type_is_a_type_error():
    # the one argument check here that a public function reaches:
    # find_long_path_structure hands its slack to _frac before anything else
    with pytest.raises(TypeError, match="rational or float coefficient, got str$"):
        find_long_path_structure(extremal(5), "1")
