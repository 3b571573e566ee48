from fractions import Fraction as F

import pytest

from diracindex.series import TruncatedSeries


def test_exponential_addition_law():
    a = TruncatedSeries.exponential(F(2, 3), 10)
    b = TruncatedSeries.exponential(F(1, 3), 10)
    assert a * b == TruncatedSeries.exponential(F(1), 10)


def test_divide_roundtrip():
    a = TruncatedSeries.exponential(F(5), 8)
    b = TruncatedSeries((F(1), F(2), F(3), F(0), F(1), F(0), F(0), F(0), F(0)))
    assert (a * b).divide(b) == a
    with pytest.raises(ZeroDivisionError):
        a.divide(TruncatedSeries.zero(8))


def test_valuation_and_coeff():
    s = TruncatedSeries((F(0), F(4), F(0)))
    assert s.valuation() == 1
    assert TruncatedSeries.zero(3).valuation() is None
    assert s.coeff(1) == 4
    assert s.coeff(-2) == 0
    with pytest.raises(ValueError):
        s.coeff(5)


def test_truncation_matching():
    a = TruncatedSeries.exponential(F(1), 10)
    b = TruncatedSeries.exponential(F(1), 4)
    assert a.divide(b).order == 4
    assert (a * b).order == 4
