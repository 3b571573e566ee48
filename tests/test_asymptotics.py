import random
from fractions import Fraction as F

import pytest

from diracindex import asymptotics
from diracindex.asymptotics import character_series, leading_limit, root_ratio
from diracindex.dirac import discrete_series_family, index_polynomial
from diracindex.errors import SingularDirection
from diracindex.fixtures import sl2_families, sl2_weight, su21_ds_families
from diracindex.groups import GroupId, build_root_datum, dot, weight_add
from diracindex.kmodules import numerator_frequencies
from diracindex.series import TruncatedSeries


def W(*coords):
    return tuple(F(c) for c in coords)


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


@pytest.mark.parametrize("order", [0, 8, 12])
def test_character_series_builds_only_to_order(monkeypatch, order):
    """On Sp(1,3), with 58 numerator frequencies, the numerator's moments
    stop at valuation + order, the Weyl denominator is asked for `order`,
    and both operands of the division have order `order`."""
    datum = build_root_datum(GroupId.sp_pq(1, 3))
    fam = discrete_series_family(W(-1, 4, -2, -3), datum)
    lam, y = W(-2, 6, -2, -3), W(-1, -6, 3, 10)
    _, freqs = numerator_frequencies(asymptotics.evaluate_index(fam, lam), y)
    assert len(freqs) == 58
    calls = {"numerator": [], "denominator": [], "divide": []}

    real_numerator = asymptotics.frequencies_to_series

    def numerator(freqs, den, n, start=0):
        _CountingRate.products = 0
        v, series = real_numerator({_CountingRate(f): c for f, c in freqs.items()}, den, n, start)
        calls["numerator"].append((n, start, v, series.order, _CountingRate.products // len(freqs)))
        return v, series

    real_denominator = asymptotics.weyl_denominator_factored

    def denominator(datum, y, which, n):
        calls["denominator"].append(n)
        return real_denominator(datum, y, which, n)

    real_divide = TruncatedSeries.divide

    def divide(self, other):
        calls["divide"].append((self.order, other.order))
        return real_divide(self, other)

    monkeypatch.setattr(asymptotics, "frequencies_to_series", numerator)
    monkeypatch.setattr(asymptotics, "weyl_denominator_factored", denominator)
    monkeypatch.setattr(TruncatedSeries, "divide", divide)
    series = character_series(fam, lam, y, order)
    [(n, start, val, numerator_order, steps)] = calls["numerator"]
    assert (n, start, numerator_order) == (order, None, order)
    # moments 0 .. val + order, one product per frequency and step
    assert steps == val + order
    assert val - datum.r_g == series.low == -6
    assert calls["denominator"] == [order]
    assert calls["divide"] == [(order, order)]
    assert series.series.order == order
