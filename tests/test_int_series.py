"""Integer character series against the Fraction references.

`series`, `kmodules` and `asymptotics` store series as integer numerators
over one denominator and cache the character series, the W_k getters and
the spin and module weights.  The package must agree with the Fraction
references of `reference` (series arithmetic, sums of exponentials, the
Weyl denominator, the character series and its limits) on random groups
of rank <= 4, directions with denominators 1-6 and every d from gap - 1
to gap + 2, also when the orders come out of sequence.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diracindex.asymptotics import character_series, leading_limit
from diracindex.dirac import discrete_series_family, spin_weights
from diracindex.errors import InternalInvariantError
from diracindex.groups import GroupId, build_root_datum, weyl_elements
from diracindex.kmodules import frequencies_to_series, weight_multiset, weyl_denominator_factored
from diracindex.series import TruncatedSeries
from diracindex.suites import _small_groups
import reference as ref
from reference import FractionSeries, directions

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
    """The coefficients from t^v, v the valuation or the start given; a
    start above the valuation, or no valuation, is refused."""
    rates = {F(f, den): c for f, c in freqs.items()}
    v = ref.exponential_valuation(rates) if start is None else start
    if v is None:
        with pytest.raises(InternalInvariantError):
            frequencies_to_series(freqs, den, order, start)
        return
    if v and any(ref.exponential_sum(rates, v - 1).coeffs):
        with pytest.raises(ValueError):
            frequencies_to_series(freqs, den, order, start)
        return
    got, series = frequencies_to_series(freqs, den, order, start)
    assert got == v
    assert_same_series(series, ref.exponential_sum(rates, order, start=v))


# -- the character series, U and the limits ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weyl_denominator_matches_uncached_oracle_in_any_order(data):
    """Every order, repeated ones included, equals the oracle."""
    datum = build_root_datum(data.draw(st.sampled_from(SMALL_GROUPS)))
    y = data.draw(directions(datum))
    orders = data.draw(st.lists(st.integers(0, 14), min_size=2, max_size=4))
    for order in orders:
        for which in ("g", "k"):
            r, u = weyl_denominator_factored(datum, y, which, order)
            assert (r, u) == ref.weyl_denominator_factored(datum, y, which, order)
            assert u.order == order


@settings(max_examples=60, deadline=None)
@given(family_points(), st.lists(st.integers(0, 14), min_size=2, max_size=3))
def test_character_series_matches_fraction_oracle_in_any_order(case, orders):
    fam, lam, y = case
    for order in orders:
        series = character_series(fam, lam, y, order)
        oracle = ref.character_series(fam, lam, y, order)
        assert series == oracle and series.pole_order == oracle.pole_order


@settings(max_examples=60, deadline=None)
@given(family_points(), st.permutations([-1, 0, 1, 2]))
def test_leading_limits_match_fraction_oracle(case, offsets):
    """Every d from gap - 1 to gap + 2, asked in any order."""
    fam, lam, y = case
    gap = fam.datum.r_g - fam.datum.r_k
    for offset in offsets:
        d = gap + offset
        assert leading_limit(fam, lam, y, d) == ref.leading_limit(fam, lam, y, d)


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
