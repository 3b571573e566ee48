"""Exact character asymptotics on the compact Cartan subgroup.

The global character of a family member at exp(t y) equals the compact
character of its Dirac index divided by ch(S+ - S-) = d_g/d_k, so as an
exact Laurent series in t it is (sum_w a_w N_{w lam})/d_g.  The pole
order never exceeds r_g - r_k, and the coefficient at exactly that order
is (prod_{compact} alpha(y) / prod_{all} alpha(y)) * Q(lam) with Q the
index polynomial.  Q(lam) = sum_w a_w D_k(w lam) is read from the root
products of D_k at the points w lam (`dirac.evaluate_q`); Q is never
expanded here.  Everything here is rational arithmetic; the limit checks
are exact equalities.

The order contract: `character_series(..., order)` returns order + 1
coefficients from the lowest power of t, as integer numerators over one
denominator.  The series is built once per (family coefficients, lam, y,
order) in a bounded module-level cache: the numerator's integer moments
from its valuation to valuation + order, divided by U at `order`.  Each
call wraps the cached integers in a new series.  leading_limit asks for
order 0, the only coefficient a limit reads, so the limits of one point
share one entry.  The base point is not in the key: the coset and
length checks run on every call, and the singular direction check runs
in the builder, whose exceptions are never cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .dirac import IndexFamily, _evaluate_q_form, _index_terms, _on_coset
from .errors import DimensionMismatch
from .groups import IntWeight, RootDatum, Weight, WeylElement, idot, int_form
from .kmodules import (
    _check_regular,
    _k_type_sum,
    _numerator_frequencies,
    _weyl_denominator,
    frequencies_to_series,
)
from .series import TruncatedSeries, _check_order
from .value import Value

# Numerator cache entries: one point's limits come together, so few suffice.
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
    stay.  y must be regular (SingularDirection otherwise).

    The compact roots are among the positive roots, so the ratio is
    d^(r_g - r_k) over the product of (alpha, n) on the noncompact ones,
    once the compact product shows that no compact alpha(y) is zero; a
    zero product is the one sign of a singular y, and only then is the
    root found and named."""
    return _root_ratio_form(datum, datum.form(y))


def _root_ratio_form(datum: RootDatum, y_form: IntWeight) -> Fraction:
    """root_ratio on the integer form of y."""
    y_den, y_nums = y_form
    compact = 1
    for alpha in datum.compact_positive_roots:
        compact *= idot(alpha, y_nums)
    noncompact = 1
    for alpha in datum.noncompact_positive_roots:
        noncompact *= idot(alpha, y_nums)
    if not (compact and noncompact):
        _check_regular(datum, y_form)
    return Fraction(y_den ** (datum.r_g - datum.r_k), noncompact)


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def _character_entry(datum: RootDatum, coeffs: tuple[tuple[WeylElement, int], ...],
                     lam: IntWeight, y: IntWeight, order: int) -> LaurentSeries:
    """The Laurent series of sum_w a_w N_{w lam} / d_g at exp(t y) to the
    given order; y is checked regular first."""
    _check_regular(datum, y)
    module = _k_type_sum(datum, _index_terms(coeffs, lam))
    if module.is_zero():
        return LaurentSeries.zero(order)
    den, freqs = _numerator_frequencies(module, y)
    if not freqs:
        return LaurentSeries.zero(order)
    v, numerator = frequencies_to_series(freqs, den, order, None)
    return LaurentSeries(v - datum.r_g, numerator.divide(_weyl_denominator(datum, y, "g", order)))


def character_series(
    fam: IndexFamily, lam: Weight, y: Weight, order: int = 8
) -> LaurentSeries:
    """Exact Laurent expansion of the family character at exp(t y), with
    order + 1 coefficients from the lowest power of t.

    The numerator sum_w a_w N_{w lam} is assembled from the normalized
    index (so off-lattice or compactly singular translates drop out the
    same way they do in evaluation).  Its moments run from the valuation
    val to val + order and no further, and are divided by d_g, with its
    zero of order r_g at t = 0 factored analytically, both at `order`.
    """
    _check_order(order)
    return _character_series_forms(fam, *_checked_forms(fam, lam, y), order)


def _checked_forms(fam: IndexFamily, lam: Weight, y: Weight) -> tuple[IntWeight, IntWeight]:
    """The integer forms of lam and y, y's length checked first, and lam
    checked to lie on the base coset."""
    datum = fam.datum
    y_form = datum.form(y)
    if len(lam) != datum.rank:
        raise DimensionMismatch("parameter length must equal the rank")
    return _on_coset(fam, int_form(lam)), y_form


def _character_series_forms(fam: IndexFamily, lam: IntWeight, y: IntWeight,
                            order: int) -> LaurentSeries:
    """character_series on the checked integer forms of lam and y."""
    entry = _character_entry(fam.datum, tuple(fam.coeffs.items()), lam, y, order)
    series = entry.series
    return LaurentSeries(entry.low, TruncatedSeries._from_ints(series.nums, series.den))


def leading_limit(fam: IndexFamily, lam: Weight, y: Weight, d: int) -> LimitReport:
    """Exact value of lim_{t->0+} t^d * character, compared to the theorem.

    expected is 0 for d above r_g - r_k, the root ratio times Q(lam) at
    d = r_g - r_k, and None below that (the theorem is silent there).
    Q(lam) comes from the root products of D_k at the points w lam
    (`dirac.evaluate_q`), with no polynomial built.
    When d is smaller than the actual pole order the limit diverges; the
    report flags underflow instead of raising.

    Order 0 decides every case.  With N(t) = t^v (c_v + O(t)), c_v != 0,
    and d_g = t^r_g U(t), U(0) = prod_g alpha(y) != 0, the character is
    t^(v - r_g) times a series with a nonzero constant term, so its pole
    order is p = max(0, r_g - v), and d < p underflows.  For d >= p the
    coefficient of t^-d sits at index r_g - v - d <= 0: c_v / U(0) when
    d = r_g - v, and 0 otherwise.  A zero numerator gives p = 0.
    """
    datum = fam.datum
    gap = datum.r_g - datum.r_k
    lam_form, y_form = _checked_forms(fam, lam, y)
    series = _character_series_forms(fam, lam_form, y_form, 0)
    if d < series.pole_order:
        return LimitReport(d, None, None, False, True)
    value = series.coeff(-d)
    if d > gap:
        expected: Fraction | None = Fraction(0)
    elif d == gap:
        expected = _root_ratio_form(datum, y_form) * _evaluate_q_form(fam, lam_form)
    else:
        expected = None
    return LimitReport(d, value, expected, expected is not None and value == expected, False)
