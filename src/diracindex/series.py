"""Truncated formal power series in one variable t, with exact rational
coefficients.  Arithmetic is closed at a fixed truncation order.

A series stores its coefficients as integer numerators over one positive
denominator, c_k = nums[k] / den, not necessarily in lowest terms.
`coeffs` is the `Fraction` view, built on first read; `coeff(k)` and
`valuation` read the integers and build at most the one `Fraction` they
return.  Products and quotients stay on integers: division runs the
fraction-free recurrence in `TruncatedSeries.divide`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .errors import NegativeOrder


def _check_order(order: int) -> None:
    """Refuse a truncation order below zero: a series keeps c_0 .. c_order."""
    if order < 0:
        raise NegativeOrder(f"series order {order} is negative")


class TruncatedSeries:
    """Coefficients c_0 .. c_N of powers of t, as nums[k] / den."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable):
        view = tuple(Fraction(c) for c in coeffs)
        if not view:
            raise ValueError("a series needs at least the constant coefficient")
        den = math.lcm(*(c.denominator for c in view))
        self.nums = tuple(c.numerator * (den // c.denominator) for c in view)
        self.den, self._coeffs = den, view

    @classmethod
    def _from_ints(cls, nums: tuple[int, ...], den: int) -> "TruncatedSeries":
        """Wrap at least one integer numerator over a nonzero denominator,
        negated if need be so that the denominator is positive."""
        if den < 0:
            nums, den = tuple(-n for n in nums), -den
        series = object.__new__(cls)
        series.nums, series.den, series._coeffs = nums, den, None
        return series

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The `Fraction` view, built on first read."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(n, den) for n in self.nums)
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if len(self.nums) != len(other.nums):
            return False
        a, b = other.den, self.den
        return all(x * a == y * b for x, y in zip(self.nums, other.nums))

    def __hash__(self):
        return hash(self.coeffs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        _check_order(order)
        return cls._from_ints((0,) * (order + 1), 1)

    @classmethod
    def exponential(cls, rate, order: int) -> "TruncatedSeries":
        """e^{rate * t} truncated at the given order: with rate = p / q the
        t^k coefficient p^k / (q^k k!) is p^k q^(N-k) N! / k! over q^N N!."""
        _check_order(order)
        rate = Fraction(rate)
        p, q = rate.numerator, rate.denominator
        scales = [1] * (order + 1)  # q^(N-k) N! / k!
        for k in range(order - 1, -1, -1):
            scales[k] = scales[k + 1] * q * (k + 1)
        return cls._from_ints(tuple(p**k * s for k, s in enumerate(scales)), scales[0])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        a, b = self.nums, other.nums
        out = tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1))
        return TruncatedSeries._from_ints(out, self.den * other.den)

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series division; the divisor must have a nonzero constant term.

        With self = A / dA, other = B / dB and b0 = B_0, the integers

            R_k = A_k b0^k - sum_{j=1..k} B_j b0^(j-1) R_(k-j)

        give the quotient's t^k coefficient as R_k dB / (dA b0^(k+1)), so
        over the one denominator dA b0^(n+1) its numerator is
        R_k dB b0^(n-k) (fraction-free: no `Fraction` is built).
        """
        b = other.nums
        b0 = b[0]
        if b0 == 0:
            raise ZeroDivisionError("divisor has zero constant term")
        n = min(self.order, other.order)
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * b0)
        scaled = [0] + [b[j] * powers[j - 1] for j in range(1, n + 1)]
        a, r = self.nums, []
        for k in range(n + 1):
            acc = a[k] * powers[k]
            for j in range(1, k + 1):
                if scaled[j]:
                    acc -= scaled[j] * r[k - j]
            r.append(acc)
        db = other.den
        nums = tuple(rk * db * powers[n - k] for k, rk in enumerate(r))
        return TruncatedSeries._from_ints(nums, self.den * powers[n] * b0)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if all stored are zero."""
        return next((k for k, n in enumerate(self.nums) if n), None)

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        if k > self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return Fraction(self.nums[k], self.den)
