"""Integer character series against the Fraction code they replaced.

The oracles below are the Fraction implementations that `series`,
`kmodules` and `asymptotics` had before series were stored as integer
numerators over one denominator and before U, the signed W_k-orbit of y
and the spin and module weights were cached: the Fraction long division,
`frequencies_to_series`, the uncached `weyl_denominator_factored`,
`numerator_frequencies`, `character_series` and `leading_limit`, copied
as they were (the class renamed `FractionSeries`, and the view-based
`MultiPoly.evaluate` as a function).  The package must agree with them on
random groups of rank <= 4, directions with denominators 1-6 and every d
from gap - 1 to gap + 2, also when the orders come out of sequence, so
that a cached U is both sliced and extended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from fractions import Fraction as F
from math import lcm
from typing import Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from diracindex import kmodules
from diracindex.asymptotics import (
    LaurentSeries,
    LimitReport,
    character_series,
    leading_limit,
    root_ratio,
)
from diracindex.dirac import (
    IndexFamily,
    discrete_series_family,
    evaluate_index,
    index_polynomial,
    spin_weights,
)
from diracindex.errors import DimensionMismatch, InternalInvariantError
from diracindex.groups import GroupId, RootDatum, Weight, build_root_datum, idot, weyl_elements
from diracindex.kmodules import (
    VirtualKModule,
    _check_regular,
    frequencies_to_series,
    weight_multiset,
    weyl_denominator_factored,
)
from diracindex.series import TruncatedSeries
from diracindex.suites import _small_groups

# -- the Fraction code that the integer series replaced -------------------------


@dataclass(frozen=True)
class FractionSeries:
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
    def zero(cls, order: int) -> "FractionSeries":
        return cls((Fraction(0),) * (order + 1))

    @classmethod
    def exponential(cls, rate, order: int) -> "FractionSeries":
        """e^{rate * t} truncated at the given order."""
        rate = Fraction(rate)
        coeffs = [Fraction(1)]
        for k in range(1, order + 1):
            coeffs.append(coeffs[-1] * rate / k)
        return cls(tuple(coeffs))

    def _matched(self, other: "FractionSeries") -> int:
        return min(self.order, other.order)

    def __mul__(self, other: "FractionSeries") -> "FractionSeries":
        n = self._matched(other)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return FractionSeries(tuple(out))

    def divide(self, other: "FractionSeries") -> "FractionSeries":
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
        return FractionSeries(tuple(out))

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


def oracle_evaluate(poly, point) -> Fraction:
    pt = [Fraction(x) for x in point]
    return sum(
        (c * math.prod(x**e for x, e in zip(pt, exp) if e) for exp, c in poly.terms.items()),
        Fraction(0),
    )


def oracle_numerator_frequencies(module: VirtualKModule, y: Weight) -> tuple[int, dict[int, int]]:
    datum = module.datum
    y_den, y_nums = datum.form(y)
    orbit = [(w.sign(), w.apply(y_nums)) for w in weyl_elements(datum, "k")]
    den = y_den * lcm(*(form[0] for form in module.forms))
    freqs: dict[int, int] = {}
    for (gamma_den, gamma), c in module.forms.items():
        scale = den // (gamma_den * y_den)
        for sign, wy in orbit:
            f = idot(gamma, wy) * scale
            freqs[f] = freqs.get(f, 0) + sign * c
    return den, {f: c for f, c in freqs.items() if c}


def oracle_frequencies_to_series(
    freqs: Mapping[int, int], den: int, order: int, start: int | None = 0
) -> tuple[int, FractionSeries]:
    nums = list(freqs)
    moments = list(freqs.values())
    scale = 1
    v = start
    coeffs = []
    k = 0
    while True:
        total = sum(moments)
        if v is None and total:
            v = k
        if v is not None and k >= v:
            coeffs.append(Fraction(total, scale))
            if k == v + order:
                return v, FractionSeries(tuple(coeffs))
        elif total:
            raise ValueError(f"sum of exponentials is not divisible by t^{start}")
        elif v is None and k + 1 >= len(nums):
            raise InternalInvariantError(
                f"no nonzero moment among the first {len(nums)} of a sum of exponentials"
            )
        k += 1
        moments = [m * n for m, n in zip(moments, nums)]
        scale *= den * k


def oracle_weyl_denominator_factored(
    datum: RootDatum, y: Weight, which: str, order: int
) -> tuple[int, FractionSeries]:
    if which not in ("g", "k"):
        raise ValueError("which must be 'g' or 'k'")
    y_den, y_nums = datum.form(y)
    roots = datum.positive_roots if which == "g" else datum.compact_positive_roots
    freqs = {0: 1}
    for alpha in roots:
        k = idot(alpha, y_nums)
        expanded = {f + k: c for f, c in freqs.items()}
        for f, c in freqs.items():
            expanded[f - k] = expanded.get(f - k, 0) - c
        freqs = {f: c for f, c in expanded.items() if c}
    return oracle_frequencies_to_series(freqs, 2 * y_den, order, len(roots))


def oracle_character_series(
    fam: IndexFamily, lam: Weight, y: Weight, order: int = 8
) -> LaurentSeries:
    datum = fam.datum
    _check_regular(datum, datum.form(y))
    if len(lam) != datum.rank:
        raise DimensionMismatch("parameter length must equal the rank")
    module = evaluate_index(fam, lam)
    if module.is_zero():
        return LaurentSeries.zero(order)
    den, freqs = oracle_numerator_frequencies(module, y)
    if not freqs:
        return LaurentSeries.zero(order)
    val, numerator = oracle_frequencies_to_series(freqs, den, order, start=None)
    r_g, u = oracle_weyl_denominator_factored(datum, y, "g", order)
    return LaurentSeries(val - r_g, numerator.divide(u))


def oracle_leading_limit(fam: IndexFamily, lam: Weight, y: Weight, d: int) -> LimitReport:
    datum = fam.datum
    gap = datum.r_g - datum.r_k
    series = oracle_character_series(fam, lam, y, order=max(8, d + 2))
    if d < series.pole_order:
        return LimitReport(d=d, value=None, expected=None, match=False, underflow=True)
    value = series.coeff(-d)
    if d > gap:
        expected: Fraction | None = Fraction(0)
    elif d == gap:
        expected = root_ratio(datum, y) * oracle_evaluate(index_polynomial(fam), lam)
    else:
        expected = None
    match = expected is not None and value == expected
    return LimitReport(d=d, value=value, expected=expected, match=match)


# -- inputs ----------------------------------------------------------------------

SMALL_GROUPS = _small_groups(4)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def fraction_series(draw, order, unit=False):
    """A FractionSeries of the given order; with unit, its constant term
    is nonzero, of either sign."""
    coeffs = [draw(fractions) for _ in range(order + 1)]
    if unit and coeffs[0] == 0:
        coeffs[0] = draw(st.sampled_from([F(-3, 2), F(1), F(5, 4)]))
    return FractionSeries(tuple(coeffs))


@st.composite
def directions(draw, datum):
    """Distinct nonzero magnitudes over a denominator 1-6, in any order and
    with any signs: regular for every root of every family."""
    den = draw(st.integers(1, 6))
    mags = draw(st.lists(st.integers(1, 12), min_size=datum.rank, max_size=datum.rank,
                         unique=True))
    return tuple(F(m * draw(st.sampled_from([1, -1])), den) for m in mags)


@st.composite
def family_points(draw):
    """A datum of rank <= 4, a discrete-series family through a W_g-translate
    of rho_g, a point of its coset and a direction."""
    datum = build_root_datum(draw(st.sampled_from(SMALL_GROUPS)))
    w = draw(st.sampled_from(weyl_elements(datum, "g")))
    fam = discrete_series_family(w.apply(datum.rho_g), datum)
    lam = tuple(c + draw(st.integers(-2, 2)) for c in fam.base)
    return fam, lam, draw(directions(datum))


def assert_same_series(series: TruncatedSeries, oracle: FractionSeries):
    assert isinstance(series, TruncatedSeries)
    assert series.order == oracle.order
    assert series.coeffs == oracle.coeffs
    assert series.valuation() == oracle.valuation()
    assert [series.coeff(k) for k in range(-1, series.order + 1)] == \
        [oracle.coeff(k) for k in range(-1, oracle.order + 1)]


def assert_same_laurent(series: LaurentSeries, oracle: LaurentSeries):
    assert series.low == oracle.low
    assert series.pole_order == oracle.pole_order
    assert_same_series(series.series, oracle.series)


# -- the arithmetic -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_arithmetic_matches_fraction_series(data):
    n, m = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
    a = data.draw(fraction_series(n))
    b = data.draw(fraction_series(m, unit=True))
    ia, ib = TruncatedSeries(a.coeffs), TruncatedSeries(b.coeffs)
    assert_same_series(ia, a)
    assert_same_series(ia.divide(ib), a.divide(b))
    assert_same_series(ia * ib, a * b)
    # kernel-built operands, over denominators that are not the least
    quotient = ia.divide(ib)
    assert_same_series(quotient.divide(ib * ib), a.divide(b).divide(b * b))
    rate = data.draw(fractions)
    assert_same_series(TruncatedSeries.exponential(rate, n), FractionSeries.exponential(rate, n))
    assert ia == TruncatedSeries._from_ints(tuple(3 * c for c in ia.nums), 3 * ia.den)
    assert hash(ia) == hash(TruncatedSeries(a.coeffs))


def test_division_by_zero_constant_term():
    one = TruncatedSeries((1, 2))
    with pytest.raises(ZeroDivisionError):
        one.divide(TruncatedSeries((0, 1)))
    with pytest.raises(ValueError):
        TruncatedSeries(())


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-9, 9), st.integers(-4, 4).filter(bool), max_size=6),
    st.integers(1, 6),
    st.integers(0, 8),
    st.one_of(st.none(), st.integers(0, 3)),
)
@example({1: 1, -1: -1}, 2, 3, None)
@example({1: 1, -1: 1, 0: -2}, 1, 2, 1)
def test_frequencies_to_series_matches_fraction_oracle(freqs, den, order, start):
    try:
        expected = oracle_frequencies_to_series(freqs, den, order, start)
    except (ValueError, InternalInvariantError) as exc:
        with pytest.raises(type(exc)):
            frequencies_to_series(freqs, den, order, start)
        return
    v, series = frequencies_to_series(freqs, den, order, start)
    assert v == expected[0]
    assert_same_series(series, expected[1])


# -- the character series, the cached U and the limits ------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weyl_denominator_matches_uncached_oracle_in_any_order(data):
    """Each distinct (order, which) builds U once, and a repeated one is a
    cache hit; every order equals the uncached oracle."""
    kmodules._weyl_denominator.cache_clear()
    datum = build_root_datum(data.draw(st.sampled_from(SMALL_GROUPS)))
    y = data.draw(directions(datum))
    orders = data.draw(st.lists(st.integers(0, 14), min_size=2, max_size=4))
    for order in orders:
        for which in ("g", "k"):
            r, u = weyl_denominator_factored(datum, y, which, order)
            r0, u0 = oracle_weyl_denominator_factored(datum, y, which, order)
            assert r == r0
            assert_same_series(u, u0)
    info = kmodules._weyl_denominator.cache_info()
    misses = 2 * len(set(orders))
    assert (info.misses, info.hits) == (misses, 2 * len(orders) - misses)


@settings(max_examples=60, deadline=None)
@given(family_points(), st.lists(st.integers(0, 14), min_size=2, max_size=3))
def test_character_series_matches_fraction_oracle_in_any_order(case, orders):
    fam, lam, y = case
    kmodules._weyl_denominator.cache_clear()
    for order in orders:
        series = character_series(fam, lam, y, order)
        oracle = oracle_character_series(fam, lam, y, order)
        assert_same_laurent(series, oracle)


@settings(max_examples=60, deadline=None)
@given(family_points(), st.permutations([-1, 0, 1, 2]))
def test_leading_limits_match_fraction_oracle(case, offsets):
    """Every d from gap - 1 to gap + 2, asked in any order."""
    fam, lam, y = case
    gap = fam.datum.r_g - fam.datum.r_k
    kmodules._weyl_denominator.cache_clear()
    for offset in offsets:
        d = gap + offset
        assert leading_limit(fam, lam, y, d) == oracle_leading_limit(fam, lam, y, d)


# -- what the caches hand out ---------------------------------------------------------


@pytest.mark.parametrize("group", [GroupId.su(2, 1), GroupId.sp_r(4)], ids=lambda g: g.label())
def test_mutating_a_returned_multiset_leaves_later_calls_unchanged(group):
    datum = build_root_datum(group)
    highest = (F(1),) + (F(0),) * (datum.rank - 1)
    first = weight_multiset(highest, datum)
    weights = dict(first.mults)
    first.forms.clear()
    first.forms[1, (7,) * datum.rank] = 3
    assert weight_multiset(highest, datum).mults == weights

    sw = spin_weights(datum)
    plus, minus = dict(sw.plus.mults), dict(sw.minus.mults)
    sw.plus.forms.clear()
    sw.minus.forms[1, (7,) * datum.rank] = 3
    later = spin_weights(datum)
    assert later.plus is not sw.plus and later.minus is not sw.minus
    assert (later.plus.mults, later.minus.mults) == (plus, minus)


def test_cached_series_are_new_objects_of_the_order_asked():
    datum = build_root_datum(GroupId.sp_r(4))
    y = (F(1), F(3), F(-5), F(7))
    _, high = weyl_denominator_factored(datum, y, "g", 12)
    _, low = weyl_denominator_factored(datum, y, "g", 4)
    _, again = weyl_denominator_factored(datum, y, "g", 12)
    assert (high.order, low.order, again.order) == (12, 4, 12)
    assert again is not high and again == high
    assert low.coeffs == high.coeffs[:5]
