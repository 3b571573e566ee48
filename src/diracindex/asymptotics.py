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
denominator.  The series is built once per (family coefficients, lam, y)
in a bounded module-level cache, from the integer forms of lam and y,
each converted once per call: the numerator's valuation is found by
stepping its integer moments, and the entry keeps those moments and
their quotient by U at the largest order any call has asked for.  A
shorter order slices that quotient; a longer one steps the moments on to
it and divides again, with both operands at that order.  The Weyl
denominator U is shared per (datum, y) in the same way.  So the three
limits d = gap, gap + 1, gap + 2 that leading_limit checks at one
(family, lam, y), at orders max(8, d + 2), share one series, and nothing
is built past the largest order asked.  The base point is not in the
key: the coset and length checks run on every call, and the singular
direction check runs in the builder, whose exceptions are never cached.
leading_limit reads the pole order from the integers and t^-d as the one
`Fraction` it builds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .dirac import IndexFamily, _index_terms, _on_coset, index_polynomial
from .errors import DimensionMismatch
from .groups import IntWeight, RootDatum, Weight, WeylElement, idot, int_form
from .kmodules import (
    _check_regular,
    _k_type_sum,
    _Moments,
    _numerator_frequencies,
    _weyl_denominator,
)
from .series import TruncatedSeries
from .value import Value

# Entries of the character series cache.  The limits of one point are
# asked together, so a few entries lose nothing, and a sweep over many
# points holds no more than these.
SERIES_CACHE_SIZE = 16


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


class _CharacterSeries:
    """The character series t^low * N(t) / U(t) of one (family, lam, y),
    with N and U kept as moments, and N / U at the largest order built."""

    __slots__ = ("low", "_numerator", "_u", "_quotient")

    def __init__(self, numerator: _Moments, u: _Moments):
        self.low, self._numerator, self._u = numerator.v - u.v, numerator, u
        self._quotient: TruncatedSeries | None = None

    def series(self, order: int) -> TruncatedSeries:
        """N / U to the given order: the prefix of the quotient at the
        largest order built, since a coefficient of a quotient depends only
        on those at or below it."""
        quotient = self._quotient
        if quotient is None or quotient.order < order:
            quotient = self._numerator.series(order).divide(self._u.series(order))
            self._quotient = quotient
        return TruncatedSeries._from_ints(quotient.nums[: order + 1], quotient.den)


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def _character_entry(
    datum: RootDatum, coeffs: tuple[tuple[WeylElement, int], ...], lam: IntWeight, y: IntWeight
) -> _CharacterSeries | None:
    """The series of sum_w a_w N_{w lam} / d_g at exp(t y), None when the
    numerator vanishes; y is checked regular first."""
    _check_regular(datum, y)
    module = _k_type_sum(datum, _index_terms(coeffs, lam))
    if module.is_zero():
        return None
    den, freqs = _numerator_frequencies(module, y)
    if not freqs:
        return None
    return _CharacterSeries(_Moments(freqs, den, None), _weyl_denominator(datum, y, "g"))


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
    `order`; a call for no larger an order on the same (family
    coefficients, lam, y) slices the quotient already built.
    """
    datum = fam.datum
    y_form = datum.form(y)
    if len(lam) != datum.rank:
        raise DimensionMismatch("parameter length must equal the rank")
    lam_form = _on_coset(fam, int_form(lam))
    entry = _character_entry(datum, tuple(fam.coeffs.items()), lam_form, y_form)
    if entry is None:
        return LaurentSeries.zero(order)
    return LaurentSeries(entry.low, entry.series(order))


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
