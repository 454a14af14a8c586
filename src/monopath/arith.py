"""Exact comparisons against sqrt/fourth-root thresholds.

Every guard in the pipeline compares an integer count with an expression in
sqrt(n) and n**(1/4).  Floating point is not trusted anywhere near these
boundaries; each predicate below is an algebraic rewrite of its inequality
into integer/rational comparisons (squaring only ever applied to sides known
to be non-negative, so each rewrite is an equivalence, not a relaxation).

The ranges in the docstrings below are the callers' to keep, and nothing
here checks them: solver and construct pass counts and coefficients
>= 0, 0 <= s <= n and divisors >= 1.  Only a coefficient's type and
finiteness are checked, in _frac, since find_long_path_structure hands its
slack argument straight to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, isqrt
from numbers import Rational


def _frac(x) -> Fraction:
    # Fraction(float) is exact on the binary value, so float-configured
    # constants stay deterministic.
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"expected a finite coefficient, got {x}")
        return Fraction(x)
    raise TypeError(f"expected a rational or float coefficient, got {type(x).__name__}")


def le_sqrt_plus_quartic(count: int, n: int, coeff) -> bool:
    """count <= sqrt(n) + coeff * n**(1/4), for coeff >= 0.

    With a = count and m = sqrt(n): a <= m + K*sqrt(m).  If a**2 <= n the
    bound is immediate; otherwise both a - m and K*sqrt(m) are non-negative
    and two squarings give (a**2 + n)**2 <= (2a + K**2)**2 * n.
    """
    k = _frac(coeff)
    a = count
    if a <= 0 or a * a <= n:
        return True
    return Fraction(a * a + n) ** 2 <= (2 * a + k * k) ** 2 * n


def le_sqrt_minus_quartic(count: int, n: int, coeff) -> bool:
    """count <= sqrt(n) - coeff * n**(1/4), for count >= 0, coeff >= 0.

    Substituting m = sqrt(n): a + K*sqrt(m) <= m.  Requires m >= a, then
    K**2 * m <= (m - a)**2, i.e. n + a**2 >= (2a + K**2) * sqrt(n), and one
    more squaring clears the radical.
    """
    k = _frac(coeff)
    a = count
    if a == 0 and k == 0:
        return True
    if a * a > n:
        return False
    return Fraction(n + a * a) ** 2 >= (2 * a + k * k) ** 2 * n


def reduce_guard(n: int, s: int, c, k: int) -> bool:
    """sqrt(n - s) + c + k <= sqrt(n), for 0 <= s <= n.

    With d = c + k: sqrt(n - s) <= sqrt(n) - d.  Non-positive d always
    passes (s >= 0); otherwise needs d**2 <= n and, after squaring,
    2*d*sqrt(n) <= s + d**2, cleared to 4*d**2*n <= (s + d**2)**2.
    """
    d = _frac(c) + k
    if d <= 0:
        return True
    if d * d > n:
        return False
    return 4 * d * d * n <= (s + d * d) ** 2


def lt_sqrt_plus_const(size: int, n: int, c) -> bool:
    """size < sqrt(n) + c."""
    t = size - _frac(c)
    if t <= 0:
        return n >= 1
    return t * t < n


def ceil_of_coeff_sqrt(coeff, n: int) -> int:
    """ceil(coeff * sqrt(n)) for coeff >= 0: least k >= 0 with k**2 >= coeff**2 * n."""
    # k = floor(coeff * sqrt(n)) has k**2 <= coeff**2 * n < (k + 1)**2
    k = floor_of_coeff_sqrt(coeff, n)
    return k + (k * k < _frac(coeff) ** 2 * n)


def floor_of_coeff_sqrt(coeff, n: int) -> int:
    """floor(coeff * sqrt(n)) for coeff >= 0: greatest k >= 0 with k**2 <= coeff**2 * n."""
    c = _frac(coeff)
    target = c * c * n
    # for an integer k, k**2 <= target exactly when k**2 <= floor(target)
    return isqrt(target.numerator // target.denominator)


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0."""
    return -(-a // b)
