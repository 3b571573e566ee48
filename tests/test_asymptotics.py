import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from diracindex import asymptotics, dirac, groups, kmodules
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
    index_polynomial,
    spin_character_series,
)
from diracindex.emit import emit
from diracindex.errors import (
    DiracIndexError,
    InvalidInput,
    NegativeOrder,
    OffLattice,
    SingularDirection,
)
from diracindex.fixtures import sl2_families, sl2_weight, su21_ds_families
from diracindex.groups import (
    GroupId,
    WeylElement,
    build_root_datum,
    dot,
    weight_add,
    weyl_elements,
)
from diracindex.kmodules import (
    _numerator_frequencies,
    frequencies_to_series,
    weight_multiset,
    weyl_denominator_factored,
)
from diracindex.series import TruncatedSeries
from diracindex.springer import table_groups
import reference as ref
from reference import W



def test_sl2_dplus_series():
    """One-variable oracle: e^{3t}/(e^t - e^{-t}) has pole order 1,
    residue 1/2, and constant term 3/2."""
    fams = sl2_families()
    y = W(1, -1)  # alpha(y) = 2
    ser = character_series(fams["D+"], sl2_weight(3), y, order=6)
    assert ser.pole_order == 1
    assert ser.coeff(-1) == F(1, 2)
    assert ser.coeff(0) == F(3, 2)
    # denominator 2t + t^3/3 + ..., numerator 1 + 3t + 9t^2/2 + ...
    assert ser.coeff(1) == F(9, 4) - F(1, 12)


def test_sl2_limits():
    fams = sl2_families()
    y = W(1, -1)
    r1 = leading_limit(fams["D+"], sl2_weight(3), y, 1)
    assert r1.match and r1.value == F(1, 2)
    assert r1.value == root_ratio(fams["D+"].datum, y) * 1
    r2 = leading_limit(fams["D+"], sl2_weight(3), y, 2)
    assert r2.match and r2.value == 0
    r0 = leading_limit(fams["D+"], sl2_weight(3), y, 0)
    assert r0.underflow and not r0.match
    rf = leading_limit(fams["F"], sl2_weight(3), y, 1)
    assert rf.match and rf.value == 0


def test_zero_family_series():
    fams = sl2_families()
    ser = character_series(fams["P"], sl2_weight(3), W(1, -1), order=5)
    assert ser.series.valuation() is None and ser.pole_order == 0


def test_su21_pole_order_and_value():
    fam = su21_ds_families()[0]
    y = W(2, 0, -2)
    ser = character_series(fam, fam.base, y, order=6)
    assert ser.pole_order == 2
    rep = leading_limit(fam, fam.base, y, 2)
    q = index_polynomial(fam).evaluate(fam.base)
    assert rep.match and rep.value == root_ratio(fam.datum, y) * q


def test_character_series_keeps_the_sign_of_a_d_block():
    """SOe(4,3) has compact blocks D_2 x B_1, and lam has one negative
    entry in the D block, so its K-type keeps one: (5/2,-3/2,1/2).  The
    limit at the gap reads D_k, which is even in each coordinate of a D
    block; the higher terms of the series are not."""
    datum = build_root_datum(GroupId.so_even_odd(2, 1))
    fam = discrete_series_family(datum.rho_g, datum)
    lam, y = W(F(-3, 2), F(5, 2), F(1, 2)), W(5, 2, 1)
    assert character_series(fam, lam, y, 6) == ref.character_series(fam, lam, y, 6)
    assert list(dirac.evaluate_index(fam, lam).coeffs) == [W(F(5, 2), F(-3, 2), F(1, 2))]


def test_singular_direction_rejected():
    fam = su21_ds_families()[0]
    with pytest.raises(SingularDirection):
        character_series(fam, fam.base, W(1, 1, -2), order=6)


def _random_direction(datum, rng):
    while True:
        y = [F(rng.randint(-9, 9)) for _ in range(datum.rank)]
        if datum.group.family.value == "SU":
            total = sum(y, F(0))
            y = [c - total / datum.rank for c in y]
        y = tuple(y)
        if all(dot(a, y) != 0 for a in datum.positive_roots):
            return y


@pytest.mark.parametrize(
    "key", ["D+", "D-", 0, 1, 2], ids=["sl2-D+", "sl2-D-", "su21-D0", "su21-D1", "su21-D2"]
)
def test_random_limits_exact(key):
    fam = sl2_families()[key] if isinstance(key, str) else su21_ds_families()[key]
    datum = fam.datum
    gap = datum.r_g - datum.r_k
    q = index_polynomial(fam)
    rng = random.Random(str(key).__len__() * 97 + 5)
    for _ in range(20):
        off = tuple(F(rng.randint(-4, 4)) for _ in range(datum.rank))
        lam = weight_add(fam.base, off)
        y = _random_direction(datum, rng)
        rep = leading_limit(fam, lam, y, gap)
        assert rep.match
        assert rep.value == root_ratio(datum, y) * q.evaluate(lam)
        assert leading_limit(fam, lam, y, gap + 1).value == 0
        assert leading_limit(fam, lam, y, gap + 2).value == 0


class _CountingRate(int):
    """A frequency that counts the moment products m * f taken with it."""

    products = 0

    def __rmul__(self, other):
        _CountingRate.products += 1
        return other * int(self)


def _record_builds(monkeypatch):
    """Clear the series cache, then log what its builder asks for: the
    numerator's moments (start, valuation, frequencies; the order in
    calls["orders"]; products per frequency), the orders asked of U, and
    the orders of both division operands."""
    asymptotics._character_entry.cache_clear()
    calls = {"numerator": [], "orders": [], "denominator": [], "divide": []}

    real_frequencies = asymptotics._numerator_frequencies

    def frequencies(module, y):
        den, freqs = real_frequencies(module, y)
        _CountingRate.products = 0
        return den, {_CountingRate(f): c for f, c in freqs.items()}

    def numerator(freqs, den, order, start):
        v, series = frequencies_to_series(freqs, den, order, start)
        calls["numerator"].append((start, v, len(freqs)))
        calls["orders"].append(order)
        return v, series

    real_denominator = asymptotics._weyl_denominator

    def denominator(datum, y, which, order):
        calls["denominator"].append(order)
        return real_denominator(datum, y, which, order)

    real_divide = TruncatedSeries.divide

    def divide(self, other):
        calls["divide"].append((self.order, other.order))
        return real_divide(self, other)

    monkeypatch.setattr(asymptotics, "_numerator_frequencies", frequencies)
    monkeypatch.setattr(asymptotics, "frequencies_to_series", numerator)
    monkeypatch.setattr(asymptotics, "_weyl_denominator", denominator)
    monkeypatch.setattr(TruncatedSeries, "divide", divide)
    return calls


SP13_FAMILY = discrete_series_family(W(-1, 4, -2, -3), build_root_datum(GroupId.sp_pq(1, 3)))
SP13_POINT = W(-2, 6, -2, -3), W(-1, -6, 3, 10)


@pytest.mark.parametrize("order", [0, 8, 12])
def test_character_series_builds_only_to_order(monkeypatch, order):
    """On Sp(1,3), with 58 numerator frequencies, the numerator's moments
    stop at valuation + order, the Weyl denominator is asked for `order`,
    and both operands of the division have order `order`."""
    fam, (lam, y) = SP13_FAMILY, SP13_POINT
    datum = fam.datum
    _, freqs = _numerator_frequencies(dirac.evaluate_index(fam, lam), datum.form(y))
    assert len(freqs) == 58
    calls = _record_builds(monkeypatch)
    series = character_series(fam, lam, y, order)
    [(start, val, n_freqs)] = calls["numerator"]
    assert (start, n_freqs, calls["orders"]) == (None, 58, [order])
    # moments 0 .. val + order, one product per frequency and step
    assert _CountingRate.products // n_freqs == val + order
    assert val - datum.r_g == series.low == -6
    assert calls["denominator"] == [order]
    assert calls["divide"] == [(order, order)]
    assert series.series.order == order


def test_character_series_builds_each_order_once(monkeypatch):
    """An order-8 call, then an order-12 call on the same (family, lam, y):
    each builds its own moments to val + order, asks U for its order and
    divides at it; asked again, neither builds anything.  A new order 10
    is built afresh and equals a cold call."""
    fam, (lam, y) = SP13_FAMILY, SP13_POINT
    calls = _record_builds(monkeypatch)
    first = character_series(fam, lam, y, 8)
    series = character_series(fam, lam, y, 12)
    [(_, val, n_freqs), again] = calls["numerator"]
    assert again == (None, val, n_freqs) and calls["orders"] == [8, 12]
    assert _CountingRate.products // n_freqs == val + 12
    assert calls["denominator"] == [8, 12]
    assert calls["divide"] == [(8, 8), (12, 12)]
    assert series.series.order == 12
    built, products = {key: list(log) for key, log in calls.items()}, _CountingRate.products
    assert character_series(fam, lam, y, 8) == first
    assert character_series(fam, lam, y, 12) == series
    assert calls == built and _CountingRate.products == products
    ten = character_series(fam, lam, y, 10)
    assert calls["orders"] == [8, 12, 10] and calls["denominator"] == [8, 12, 10]
    assert calls["divide"] == [(8, 8), (12, 12), (10, 10)]
    asymptotics._character_entry.cache_clear()
    assert ten == character_series(fam, lam, y, 10) and ten.series.order == 10


def test_a_repeated_order_steps_no_moment_asks_nothing_of_u_and_divides_nothing(monkeypatch):
    """A second order-8 call on a cached point builds nothing and returns
    an equal, new series."""
    fam, (lam, y) = SP13_FAMILY, SP13_POINT
    asymptotics._character_entry.cache_clear()
    first = character_series(fam, lam, y, 8)
    log = []
    real_frequencies, real_denominator = (
        asymptotics._numerator_frequencies, asymptotics._weyl_denominator)
    real_divide = TruncatedSeries.divide

    def frequencies(module, y):
        log.append("frequencies")
        den, freqs = real_frequencies(module, y)
        return den, {_CountingRate(f): c for f, c in freqs.items()}

    def denominator(*args):
        log.append("denominator")
        return real_denominator(*args)

    def divide(self, other):
        log.append("divide")
        return real_divide(self, other)

    monkeypatch.setattr(asymptotics, "_numerator_frequencies", frequencies)
    monkeypatch.setattr(asymptotics, "_weyl_denominator", denominator)
    monkeypatch.setattr(TruncatedSeries, "divide", divide)
    _CountingRate.products = 0
    second = character_series(fam, lam, y, 8)
    assert log == [] and _CountingRate.products == 0
    assert second == first and second.series is not first.series


@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_leading_limit_reads_the_series_at_order_zero(monkeypatch, offset):
    """On Sp(1,3), a limit below, at and above the gap asks the series core
    of character_series for order 0 only, which steps the numerator to its
    valuation, asks U for order 0 and divides at (0, 0)."""
    fam, (lam, y) = SP13_FAMILY, SP13_POINT
    gap = fam.datum.r_g - fam.datum.r_k
    calls = _record_builds(monkeypatch)
    orders = []
    real_series = asymptotics._character_series_forms

    def series(fam, lam, y, order):
        orders.append(order)
        return real_series(fam, lam, y, order)

    monkeypatch.setattr(asymptotics, "_character_series_forms", series)
    report = leading_limit(fam, lam, y, gap + offset)
    assert report.underflow == (offset < 0) and report.match == (offset >= 0)
    [(start, val, n_freqs)] = calls["numerator"]
    assert orders == [0] and (start, calls["orders"]) == (None, [0])
    assert _CountingRate.products // n_freqs == val
    assert calls["denominator"] == [0]
    assert calls["divide"] == [(0, 0)]


def _limit_at_the_old_order(fam, lam, y, d):
    """leading_limit as it read the series before order 0: at order
    max(8, d + 2), then the pole order and the coefficient of t^-d."""
    datum = fam.datum
    gap = datum.r_g - datum.r_k
    series = character_series(fam, lam, y, order=max(8, d + 2))
    if d < series.pole_order:
        return LimitReport(d=d, value=None, expected=None, match=False, underflow=True)
    value = series.coeff(-d)
    if d > gap:
        expected = F(0)
    elif d == gap:
        expected = root_ratio(datum, y) * index_polynomial(fam).evaluate(lam)
    else:
        expected = None
    match = expected is not None and value == expected
    return LimitReport(d=d, value=value, expected=expected, match=match)


@pytest.mark.parametrize(
    "group", [g for g in table_groups(4) if g.rank <= 4], ids=lambda g: g.label()
)
def test_order_zero_limits_match_the_old_order_rule(group):
    """Discrete-series families at rho_g and at a W_g-translate of it, and a
    family of up to three terms off the identity, at two points each (some
    with a zero numerator or a zero Q): every d from -1 to gap + 3 gives the
    report and the emitted bytes of the order max(8, d + 2) rule."""
    datum = build_root_datum(group)
    rng = random.Random(group.label())
    elements = weyl_elements(datum, "g")
    terms = rng.sample(elements, min(3, len(elements)))
    families = [
        discrete_series_family(datum.rho_g, datum),
        discrete_series_family(rng.choice(elements).apply(datum.rho_g), datum),
        IndexFamily(datum, datum.rho_g, {w: rng.choice([-2, -1, 1, 2]) for w in terms}),
    ]
    gap = datum.r_g - datum.r_k
    for fam in families:
        for _ in range(2):
            lam = weight_add(fam.base, tuple(F(rng.randint(-2, 2)) for _ in range(datum.rank)))
            y = _random_direction(datum, rng)
            for d in range(-1, gap + 4):
                report = leading_limit(fam, lam, y, d)
                oracle = _limit_at_the_old_order(fam, lam, y, d)
                assert report == oracle
                assert emit(report, "json") == emit(oracle, "json")


def test_a_negative_order_is_refused_by_every_entry():
    """Cold, with a zero numerator, and cached: order -1 raises one error,
    both a DiracIndexError and a ValueError, before anything is built."""
    fam, (lam, y) = SP13_FAMILY, SP13_POINT
    datum = fam.datum
    asymptotics._character_entry.cache_clear()
    entries = [
        lambda: character_series(fam, lam, y, -1),
        lambda: character_series(sl2_families()["P"], sl2_weight(3), W(1, -1), -1),
        lambda: weyl_denominator_factored(datum, y, "g", -1),
        lambda: frequencies_to_series({1: 1, -1: -1}, 2, -1),
        lambda: spin_character_series(datum, y, -1),
        lambda: TruncatedSeries.zero(-1),
        lambda: TruncatedSeries.exponential(F(1, 2), -1),
        lambda: LaurentSeries.zero(-1),
    ]
    for entry in entries:
        with pytest.raises(NegativeOrder) as info:
            entry()
        assert isinstance(info.value, DiracIndexError) and isinstance(info.value, ValueError)
    assert asymptotics._character_entry.cache_info().currsize == 0
    character_series(fam, lam, y, 0)
    with pytest.raises(NegativeOrder):
        character_series(fam, lam, y, -1)


# -- the series cache per (family coefficients, lam, y) ----------------


def _character_point(group):
    """A discrete-series family at rho_g of the group, a point of its coset
    where the index is nonzero, and a regular direction."""
    datum = build_root_datum(group)
    fam = discrete_series_family(datum.rho_g, datum)
    lam = next(
        lam for lam in (weight_add(fam.base, W(*off[: datum.rank])) for off in
                        [(2, 1, 0, 0), (3, 1, 1, 0), (4, 2, 1, 1)])
        if datum.is_k_regular(lam)
    )
    y = W(*(1, 3, 6, 10)[: datum.rank])
    if group.family.value == "SU":
        y = tuple(c - sum(y, F(0)) / datum.rank for c in y)
    return fam, lam, y


CACHE_CASES = {
    g.label(): _character_point(g)
    for g in [GroupId.su(1, 2), GroupId.so_even_odd(2, 1), GroupId.sp_r(4),
              GroupId.sp_pq(1, 3), GroupId.so_even_even(2, 2), GroupId.so_star(4)]
}
CACHE_CASES.update(
    (f"sl2-{key}", (fam, sl2_weight(3), W(1, -1))) for key, fam in sl2_families().items()
)
CACHE_CASES.update(
    (f"su21-D{key}", (fam, weight_add(fam.base, W(1, 0, -1)), W(2, 0, -2)))
    for key, fam in su21_ds_families().items()
)


def _cold_limit(fam, lam, y, d):
    asymptotics._character_entry.cache_clear()
    return leading_limit(fam, lam, y, d)


@pytest.mark.parametrize("name", list(CACHE_CASES))
def test_limits_share_one_series_in_every_order(name):
    """The three limits of one point, in each of the six orders with the
    cache cleared before each order, equal cold calls, report and bytes."""
    fam, lam, y = CACHE_CASES[name]
    gap = fam.datum.r_g - fam.datum.r_k
    cold = {d: _cold_limit(fam, lam, y, d) for d in (gap, gap + 1, gap + 2)}
    assert cold[gap].match
    for ds in itertools.permutations(cold):
        asymptotics._character_entry.cache_clear()
        for d in ds:
            report = leading_limit(fam, lam, y, d)
            assert report == cold[d]
            assert emit(report, "json") == emit(cold[d], "json")
        assert asymptotics._character_entry.cache_info().currsize == 1


@pytest.mark.parametrize("name", ["Sp(8,R)", "Sp(1,3)", "su21-D0"])
def test_smaller_order_after_a_larger_one_equals_a_cold_series(name):
    fam, lam, y = CACHE_CASES[name]
    asymptotics._character_entry.cache_clear()
    character_series(fam, lam, y, 14)
    for order in (0, 3, 8, 13, 14):
        warm = character_series(fam, lam, y, order)
        asymptotics._character_entry.cache_clear()
        cold = character_series(fam, lam, y, order)
        character_series(fam, lam, y, 14)
        assert len(warm.series.nums) == order + 1
        assert warm == cold
        assert [warm.coeff(warm.low + k) for k in range(order + 1)] == list(cold.series.coeffs)


def test_off_coset_is_refused_with_the_series_cached():
    """The base is not in the key: a family with the same coefficients on
    another coset still refuses lam, whatever is cached for (lam, y)."""
    datum = build_root_datum(GroupId.sp_r(2))
    e = WeylElement.identity(2)
    on, off = IndexFamily(datum, W(2, 1), {e: 1}), IndexFamily(datum, W(F(5, 2), F(1, 2)), {e: 1})
    lam, y = W(3, 1), W(1, 3)
    asymptotics._character_entry.cache_clear()
    assert character_series(on, lam, y).pole_order == 3
    for _ in range(2):
        with pytest.raises(OffLattice):
            character_series(off, lam, y)
        with pytest.raises(OffLattice):
            leading_limit(off, lam, y, 3)
    assert asymptotics._character_entry.cache_info().currsize == 1


def test_data_on_different_lattices_share_no_cached_series():
    """A datum whose lattice alone differs is another datum: the series of
    its family, cold or after the same call on the first datum, is its
    own.  With half-integral differences in Lambda, b = rho_g + (1/2, 0, 0)
    lies on Lambda + rho_g and the identity family's numerator at b is not
    zero; on the integral lattice it is."""
    d = build_root_datum(GroupId.su(2, 1))

    def half_differences(den, nums):
        return groups._lattice_integral_differences(den, tuple(2 * n for n in nums))

    half = d.replace(lattice=half_differences)
    assert half != d and hash(half) == hash(d)
    b = weight_add(d.rho_g, W(F(1, 2), 0, 0))
    y = W(1, 3, -4)

    def numerators(datum):
        fam = IndexFamily(datum, b, {WeylElement.identity(3): 1})
        return character_series(fam, b, y, order=1).series.nums

    asymptotics._character_entry.cache_clear()
    cold = numerators(half)
    assert cold == (1680, 11760)
    asymptotics._character_entry.cache_clear()
    assert numerators(d) == (0, 0)
    assert numerators(half) == cold


def test_singular_direction_raises_on_every_call():
    fam = su21_ds_families()[0]
    asymptotics._character_entry.cache_clear()
    for _ in range(3):
        with pytest.raises(SingularDirection):
            character_series(fam, fam.base, W(1, 1, -2), order=6)
        with pytest.raises(SingularDirection):
            leading_limit(fam, fam.base, W(1, 1, -2), 2)
    assert asymptotics._character_entry.cache_info().currsize == 0


@pytest.mark.parametrize("y", [W(1, 1, -2), W(1, -2, 1), W(-2, 1, 1)])
def test_root_ratio_refuses_a_singular_direction(y):
    with pytest.raises(SingularDirection):
        root_ratio(su21_ds_families()[0].datum, y)


@pytest.mark.parametrize("group", [g for g in table_groups(4) if g.rank <= 4], ids=lambda g: g.label())
def test_root_ratio_matches_the_root_products(group):
    """prod_k alpha(y) / prod_g alpha(y) on Fractions for regular y; on a
    singular y the refusal names a root that vanishes on it."""
    datum = build_root_datum(group)
    rng = random.Random(group.label())
    for _ in range(5):
        y = tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(datum.rank))
        num, den = F(1), F(1)
        for alpha in datum.compact_positive_roots:
            num *= dot(alpha, y)
        for alpha in datum.positive_roots:
            den *= dot(alpha, y)
        if den:
            assert root_ratio(datum, y) == num / den
            continue
        with pytest.raises(SingularDirection) as refused:
            root_ratio(datum, y)
        vanishing = [str(alpha) for alpha in datum.positive_roots if dot(alpha, y) == 0]
        assert str(refused.value).rsplit("root ", 1)[1] in vanishing


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2"], ids=["float", "Decimal", "str"])
def test_weight_entries_that_are_not_rational_are_refused(bad):
    """A float, Decimal or str entry raises InvalidInput naming it, from
    every entry that takes a weight, instead of an AttributeError."""
    datum = build_root_datum(GroupId.sp_r(2))
    fam = discrete_series_family(W(2, 1), datum)
    weight = (bad, F(1))
    calls = [
        lambda: weyl_denominator_factored(datum, weight, "g", 0),
        lambda: root_ratio(datum, weight),
        lambda: weight_multiset(weight, datum),
        lambda: character_series(fam, weight, W(3, 1), 0),
        lambda: character_series(fam, fam.base, weight, 0),
        lambda: discrete_series_family(weight, datum),
    ]
    for call in calls:
        with pytest.raises(InvalidInput, match=re.escape(repr(bad))):
            call()


def test_a_first_limit_on_a_new_direction_expands_no_sum_and_signs_nothing(monkeypatch):
    """With the datum warm, a limit on a new direction builds moments for
    the numerator only, none for U, and reads the W_k-orbit of y without
    calling WeylElement.sign."""
    fam, (lam, y) = SP13_FAMILY, SP13_POINT
    gap = fam.datum.r_g - fam.datum.r_k
    assert leading_limit(fam, lam, y, gap).match
    starts, signs = [], []
    real_moments, real_sign = kmodules.frequencies_to_series, WeylElement.sign

    def moments(freqs, den, order, start=0):
        starts.append(start)
        return real_moments(freqs, den, order, start)

    def sign(self):
        signs.append(self)
        return real_sign(self)

    for module in (kmodules, asymptotics):
        monkeypatch.setattr(module, "frequencies_to_series", moments)
    monkeypatch.setattr(WeylElement, "sign", sign)
    new_y = W(3, -7, 2, 11)
    assert leading_limit(fam, lam, new_y, gap).match
    assert starts == [None] and signs == []


def test_direction_caches_stay_bounded_over_a_sweep():
    """Eight more directions than the bound of the series cache, the one
    cache keyed by a direction: it ends at the bound, and every limit of
    the sweep, some taken after an eviction, equals a cold one."""
    fam, lam, _ = CACHE_CASES["su21-D0"]
    gap = fam.datum.r_g - fam.datum.r_k
    bound = asymptotics.SERIES_CACHE_SIZE
    cache = asymptotics._character_entry
    cache.cache_clear()
    ys = [W(k, 0, -k) for k in range(1, bound + 9)]
    swept = [leading_limit(fam, lam, y, gap) for y in ys]
    info = cache.cache_info()
    assert info.maxsize == info.currsize == bound and info.misses == len(ys)
    for y, report in zip(ys, swept):
        cache.cache_clear()
        assert report.match and leading_limit(fam, lam, y, gap) == report


def test_series_cache_is_a_bounded_clearable_lru_cache():
    cache = asymptotics._character_entry
    assert callable(cache.cache_clear) and callable(cache.cache_info)
    assert cache.cache_info().maxsize == asymptotics.SERIES_CACHE_SIZE
    cache.cache_clear()
    assert cache.cache_info().currsize == 0
