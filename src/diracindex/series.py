"""Truncated formal power series in one variable t, with exact rational
coefficients.  Arithmetic is closed at a fixed truncation order."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0 .. c_N of powers of t."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((Fraction(0),) * (order + 1))

    @classmethod
    def exponential(cls, rate, order: int) -> "TruncatedSeries":
        """e^{rate * t} truncated at the given order."""
        rate = Fraction(rate)
        coeffs = [Fraction(1)]
        for k in range(1, order + 1):
            coeffs.append(coeffs[-1] * rate / k)
        return cls(tuple(coeffs))

    def _matched(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._matched(other)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series division; the divisor must have a nonzero constant term."""
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("divisor has zero constant term")
        n = self._matched(other)
        inv0 = Fraction(1) / other.coeffs[0]
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                if other.coeffs[j]:
                    acc -= other.coeffs[j] * out[k - j]
            out[k] = acc * inv0
        return TruncatedSeries(tuple(out))

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if all stored are zero."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        if k > self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]
