"""Exact character asymptotics on the compact Cartan subgroup.

The global character of a family member at exp(t y) equals the compact
character of its Dirac index divided by ch(S+ - S-) = d_g/d_k, so as an
exact Laurent series in t it is (sum_w a_w N_{w lam})/d_g.  The pole
order never exceeds r_g - r_k, and the coefficient at exactly that order
is (prod_{compact} alpha(y) / prod_{all} alpha(y)) * Q(lam) with Q the
index polynomial.  Everything here is rational arithmetic; the limit
checks are exact equalities.

The order contract: `character_series(..., order)` returns order + 1
coefficients from the lowest power of t, as integer numerators over one
denominator.  The numerator's valuation is found by stepping its integer
moments, and its moments are built only up to valuation + order.  The
Weyl denominator U is built once per (datum, y), to the largest order any
call has asked for, and each call gets it sliced to `order`; the
fraction-free division stops at `order`.  leading_limit asks for order
max(8, d + 2), so the three limits d = gap, gap + 1, gap + 2 at one
(datum, y) share one U, and reads the pole order from the integers and
t^-d as the one `Fraction` it builds.
"""

from __future__ import annotations

from fractions import Fraction

from .dirac import IndexFamily, evaluate_index, index_polynomial
from .errors import DimensionMismatch
from .groups import RootDatum, Weight, idot
from .kmodules import (
    check_regular_direction,
    frequencies_to_series,
    numerator_frequencies,
    weyl_denominator_factored,
)
from .series import TruncatedSeries
from .value import Value


class LaurentSeries(Value):
    """Finitely many negative powers: coefficient of t^(low + k) is
    series.coeff(k), built from the integers when read."""

    __slots__ = _fields = ("low", "series")

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls(0, TruncatedSeries.zero(order))

    @property
    def pole_order(self) -> int:
        val = self.series.valuation()
        if val is None:
            return 0
        return max(0, -(self.low + val))

    def coeff(self, power: int) -> Fraction:
        k = power - self.low
        if k < 0:
            return Fraction(0)
        return self.series.coeff(k)


class LimitReport(Value):
    """One exact limit check of t^d * character at t -> 0+."""

    __slots__ = _fields = ("d", "value", "expected", "match", "underflow")
    _defaults = {"underflow": False}


def root_ratio(datum: RootDatum, y: Weight) -> Fraction:
    """prod_{alpha in R_k+} alpha(y) / prod_{alpha in R_g+} alpha(y); with
    y = n / d each alpha(y) is (alpha, n) / d, and r_g - r_k factors of d
    stay."""
    y_den, y_nums = datum.form(y)
    num = 1
    for alpha in datum.compact_positive_roots:
        num *= idot(alpha, y_nums)
    den = 1
    for alpha in datum.positive_roots:
        den *= idot(alpha, y_nums)
    return Fraction(num * y_den ** (datum.r_g - datum.r_k), den)


def character_series(
    fam: IndexFamily, lam: Weight, y: Weight, order: int = 8
) -> LaurentSeries:
    """Exact Laurent expansion of the family character at exp(t y), with
    order + 1 coefficients from the lowest power of t.

    The numerator sum_w a_w N_{w lam} is assembled from the normalized
    index (so off-lattice or compactly singular translates drop out the
    same way they do in evaluation).  Its moments are built from the
    valuation val to val + order and no further, and it is divided by d_g
    with its zero of order r_g at t = 0 factored analytically, both at
    `order`.
    """
    datum = fam.datum
    check_regular_direction(datum, y)
    if len(lam) != datum.rank:
        raise DimensionMismatch("parameter length must equal the rank")
    module = evaluate_index(fam, lam)
    if module.is_zero():
        return LaurentSeries.zero(order)
    den, freqs = numerator_frequencies(module, y)
    if not freqs:
        return LaurentSeries.zero(order)
    val, numerator = frequencies_to_series(freqs, den, order, start=None)
    r_g, u = weyl_denominator_factored(datum, y, "g", order)
    return LaurentSeries(val - r_g, numerator.divide(u))


def leading_limit(fam: IndexFamily, lam: Weight, y: Weight, d: int) -> LimitReport:
    """Exact value of lim_{t->0+} t^d * character, compared to the theorem.

    expected is 0 for d above r_g - r_k, the root ratio times Q(lam) at
    d = r_g - r_k, and None below that (the theorem is silent there).
    When d is smaller than the actual pole order the limit diverges; the
    report flags underflow instead of raising.
    """
    datum = fam.datum
    gap = datum.r_g - datum.r_k
    series = character_series(fam, lam, y, order=max(8, d + 2))
    if d < series.pole_order:
        return LimitReport(d=d, value=None, expected=None, match=False, underflow=True)
    value = series.coeff(-d)
    if d > gap:
        expected: Fraction | None = Fraction(0)
    elif d == gap:
        expected = root_ratio(datum, y) * index_polynomial(fam).evaluate(lam)
    else:
        expected = None
    match = expected is not None and value == expected
    return LimitReport(d=d, value=value, expected=expected, match=match)
