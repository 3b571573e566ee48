"""Dirac index machinery: spin module weights, discrete-series indices,
index families over coherent families, translation checks, and index
polynomials.

An index family records integers a_w on Weyl group elements so that the
index at any parameter lam of the coset base + Lambda is
sum_w a_w * E(w lam), with E the sign-normalized virtual K-type.  The
translation principle is exactly the statement that one coefficient
vector serves the whole family, so evaluation is a single normalized sum.

Sign conventions, pinned once and validated operationally:

* The spin module halves S+/S- are the even/odd parity pieces of the
  exterior algebra on the positive noncompact roots, with labels swapped
  when the number of positive noncompact roots is odd; this makes
  ch(S+ - S-) equal to the quotient d_g/d_k of Weyl denominators exactly.
* A discrete series with regular Harish-Chandra parameter lam has index
  (-1)^m E(lam), m the number of positive noncompact roots of the fixed
  system that lam makes negative.  For the rank-one hyperbolic unitary
  group this gives +E_n on the holomorphic side and -E_{-n} on the
  antiholomorphic side.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, gt, mul, sub
from types import MappingProxyType

from .errors import (
    CapExceeded,
    DimensionMismatch,
    NonIntegralCoefficient,
    OffLattice,
    SingularParameter,
)
from .groups import (
    IntWeight,
    RootDatum,
    Weight,
    WeylElement,
    int_add,
    int_form,
    over,
    reduced,
)
from .kmodules import (
    VirtualKModule,
    WeightMultiset,
    _column_rates,
    _sum_on_lattice,
    frequencies_to_series,
    k_type_sum,
    tensor_virtual,
    weight_multiset,
)
from .polynomials import MultiPoly, linear_combination
from .series import TruncatedSeries, _check_order
from .value import Value
from .weylaction import _weyl_product, act, weyl_dim_poly

SPIN_SUBSET_CAP = 20


class SpinWeights(Value):
    __slots__ = _fields = ("plus", "minus")


def spin_weights(datum: RootDatum) -> SpinWeights:
    """The 2^(r_g - r_k) spin weights -rho_g + rho_k + (subset sums),
    split by subset parity, with the parity labels chosen so that
    ch(S+ - S-) = d_g/d_k holds exactly.  A datum with more than
    SPIN_SUBSET_CAP noncompact positive roots raises CapExceeded.  The
    weights are built on each call."""
    plus, minus = _spin_forms(datum)
    return SpinWeights(WeightMultiset(forms=plus), WeightMultiset(forms=minus))


def _spin_forms(datum: RootDatum) -> tuple[Mapping[IntWeight, int], Mapping[IntWeight, int]]:
    """The integer forms of the S+ and S- weights with their
    multiplicities; read-only.  Each noncompact root carries the even
    subset sums into odd ones and back; equal weights merge.  A datum past
    SPIN_SUBSET_CAP raises CapExceeded.  Not cached: the traffic reads
    them once per datum, through the cached `_spin_columns`."""
    noncompact = datum.noncompact_positive_roots
    if len(noncompact) > SPIN_SUBSET_CAP:
        raise CapExceeded(
            f"{len(noncompact)} noncompact roots exceeds the subset cap {SPIN_SUBSET_CAP}")
    # Numerators over 2: every spin weight is rho_k - rho_g plus a root sum.
    start = tuple(map(sub, over(datum.rho_k_form, 2), over(datum.rho_g_form, 2)))
    even: dict[tuple[int, ...], int] = {start: 1}
    odd: dict[tuple[int, ...], int] = {}
    for beta in noncompact:
        twice = tuple(map(mul, beta, repeat(2)))
        new_even, new_odd = dict(even), dict(odd)
        for source, target in ((odd, new_even), (even, new_odd)):
            get = target.get
            for w, m in source.items():
                w = tuple(map(add, w, twice))
                target[w] = get(w, 0) + m
        even, odd = new_even, new_odd
    plus, minus = (odd, even) if len(noncompact) % 2 == 1 else (even, odd)
    return (
        MappingProxyType({reduced(2, w): m for w, m in plus.items()}),
        MappingProxyType({reduced(2, w): m for w, m in minus.items()}),
    )


@lru_cache(maxsize=None)
def _spin_columns(datum: RootDatum) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(columns, mults): the weights of S+ - S-, equal ones merged with
    their signs, as numerator-over-2 coordinate columns (column i holds
    twice coordinate i of every weight) and their signed multiplicities,
    in one order."""
    plus, minus = _spin_forms(datum)
    signed: dict[tuple[int, ...], int] = {}
    for sign, forms in ((1, plus), (-1, minus)):
        for form, m in forms.items():
            nums = over(form, 2)
            signed[nums] = signed.get(nums, 0) + sign * m
    signed = {nums: m for nums, m in signed.items() if m}
    return tuple(zip(*signed)), tuple(signed.values())


def spin_character_series(
    datum: RootDatum, y: Weight, order: int
) -> TruncatedSeries:
    """ch(S+ - S-)(exp ty) as an exact series in t.

    A spin weight has denominator 1 or 2, so every rate is f / (2 y_den),
    with f the pairing of y's numerators with twice the weight: the rates
    are formed from the weights' coordinate columns, one map per nonzero
    coordinate of y."""
    _check_order(order)
    y_den, y_nums = datum.form(y)
    columns, mults = _spin_columns(datum)
    freqs: dict[int, int] = {}
    get = freqs.get
    for f, m in zip(_column_rates(y_nums, columns, len(mults)), mults):
        freqs[f] = get(f, 0) + m
    return frequencies_to_series(freqs, 2 * y_den, order)[1]


def _chamber_sign(datum: RootDatum, lam: IntWeight) -> int:
    """(-1)^(number of positive noncompact roots made negative by lam), on
    the integer form of lam, or 0 when lam is singular: one pass over the
    root pairings decides both."""
    nums = lam[1]
    noncompact = [sum(map(mul, nums, beta)) for beta in datum.noncompact_positive_roots]
    if 0 in noncompact or 0 in [sum(map(mul, nums, alpha))
                                for alpha in datum.compact_positive_roots]:
        return 0
    return -1 if sum(map(gt, repeat(0), noncompact)) % 2 else 1


def index_discrete_series(lam: Weight, datum: RootDatum) -> VirtualKModule:
    """Dirac index of the discrete series with Harish-Chandra parameter lam."""
    sign = _chamber_sign(datum, datum.form(lam))
    if not sign:
        raise SingularParameter(f"{lam} is singular")
    return k_type_sum(datum, [(lam, sign)])


class IndexFamily(Value):
    """Index data of one coherent family: I(X_lam) = sum_w a_w E(w lam)."""

    _fields = ("datum", "base", "coeffs", "gk_dim")

    def __init__(
        self,
        datum: RootDatum,
        base: Weight,
        coeffs: Mapping[WeylElement, int],
        gk_dim: int | None = None,
    ):
        for w, a in coeffs.items():
            if int(a) != a:
                raise NonIntegralCoefficient(f"coefficient {a} of {w} is not an integer")
        if len(base) != datum.rank:
            raise DimensionMismatch("base length must equal the rank")
        super().__init__(datum, base, {w: int(a) for w, a in coeffs.items() if a}, gk_dim)

    @cached_property
    def base_form(self) -> IntWeight:
        return int_form(self.base)


def discrete_series_family(
    lam0: Weight, datum: RootDatum, gk_dim: int | None = None
) -> IndexFamily:
    """The index family through a discrete series at regular parameter lam0,
    which must lie on the shifted lattice Lambda + rho_g."""
    if len(lam0) != datum.rank:
        raise DimensionMismatch("parameter length must equal the rank")
    form = int_form(lam0)
    if not datum.on_shifted_lattice_form(form):
        text = ",".join(str(Fraction(c)) for c in lam0)
        raise OffLattice(f"({text}) is not on the shifted lattice Lambda + rho_g")
    sign = _chamber_sign(datum, form)
    if not sign:
        text = ",".join(str(Fraction(c)) for c in lam0)
        raise SingularParameter(f"({text}) is singular")
    fam = IndexFamily(datum, lam0, {WeylElement.identity(datum.rank): sign}, gk_dim)
    fam.__dict__["base_form"] = form  # the cached property, read by _on_coset
    return fam


def family_combination(
    fam: IndexFamily, other: IndexFamily, c1: int = 1, c2: int = 1
) -> IndexFamily:
    """c1 * fam + c2 * other, over a common base."""
    if fam.datum != other.datum or fam.base != other.base:
        raise ValueError("families must share a datum and base point")
    coeffs = {w: c1 * a for w, a in fam.coeffs.items()}
    for w, a in other.coeffs.items():
        coeffs[w] = coeffs.get(w, 0) + c2 * a
    return IndexFamily(fam.datum, fam.base, coeffs)


def _on_coset(fam: IndexFamily, lam: IntWeight) -> IntWeight:
    """lam, checked to lie on the base coset base + Lambda."""
    den = math.lcm(lam[0], fam.base_form[0])
    diff = tuple(a - b for a, b in zip(over(lam, den), over(fam.base_form, den)))
    if not fam.datum.lattice(den, diff):
        raise OffLattice(f"{tuple(Fraction(n, lam[0]) for n in lam[1])} is not in base + Lambda")
    return lam


def _index_terms(
    coeffs: Iterable[tuple[WeylElement, int]], lam: IntWeight, m: int = 1
) -> list[tuple[IntWeight, int]]:
    """The terms (w lam, m a_w) of m I(X_lam), before normalization; a
    signed permutation keeps the integer form of lam canonical."""
    den, nums = lam
    return [((den, w.apply(nums)), m * a) for w, a in coeffs]


def evaluate_index(fam: IndexFamily, lam: Weight) -> VirtualKModule:
    """I(X_lam) = sum_w a_w E(w lam); lam must lie on the base coset."""
    _on_coset(fam, fam.datum.form(lam))
    return k_type_sum(fam.datum, ((w.apply(lam), a) for w, a in fam.coeffs.items()))


def index_polynomial(fam: IndexFamily) -> MultiPoly:
    """Q(lam) = sum_w a_w D_k(w lam), as an exact polynomial: the sum of
    the translates `act(w^{-1}, D_k) * a_w`, since act(w^{-1}, D_k) at lam
    is D_k(w lam).

    On every lattice point of the coset this equals the virtual dimension
    of evaluate_index, because D_k vanishes at compactly singular
    parameters and changes by sgn under the compact Weyl group.  The
    translates are summed on their numerators and normalized once.  A
    discrete-series family has one coefficient +-1 on the identity, so Q
    is its one translate, +-D_k: a unit scalar keeps the normalized form.
    Its value at one point is evaluate_q, which expands nothing.
    """
    dk = weyl_dim_poly(fam.datum)
    return linear_combination(
        fam.datum.rank, [(act(w.inverse(), dk), a) for w, a in fam.coeffs.items()])


def evaluate_q(fam: IndexFamily, lam: Weight) -> Fraction:
    """Q(lam) = sum_w a_w D_k(w lam) at one point, from the root products of
    D_k on the integer forms w lam, with no polynomial built: the value of
    index_polynomial(fam) at lam, at any lam of length the rank."""
    return _evaluate_q_form(fam, fam.datum.form(lam))


def _evaluate_q_form(fam: IndexFamily, lam: IntWeight) -> Fraction:
    """evaluate_q on the integer form of lam."""
    datum = fam.datum
    den, nums = lam
    return _weyl_product(datum.compact_positive_roots, datum.rho_k_form, den,
                         [(w.apply(nums), a) for w, a in fam.coeffs.items()])


def verify_translation(
    fam: IndexFamily, f_highest: Weight, lam: Weight
) -> bool:
    """Check I(X_lam) (x) F = sum_{mu in Delta(F)} I(X_{lam+mu}) exactly.

    lam must lie on the base coset, and every weight mu of F in Lambda
    (OffLattice otherwise).  Lambda is a W-stable group, so w(lam + mu) =
    w lam + w mu lies on Lambda + rho_g exactly when w lam does: one
    lattice test per coefficient a_w, before normalization as E is
    defined, decides that term on both sides, and the terms kept are
    normalized with no other test.  When no w lam lies on it, both sides
    are zero and the identity holds.
    """
    datum = fam.datum
    delta = weight_multiset(f_highest, datum)
    lam = _on_coset(fam, datum.form(lam))
    # lam is on the coset, so lam + mu is on it exactly when mu is in
    # Lambda; _on_coset raises for the first lam + mu that is not.
    for mu in delta.forms:
        if not datum.lattice(*mu):
            _on_coset(fam, int_add(lam, mu))

    den, nums = lam
    on_lattice = datum.on_shifted_lattice_form
    coeffs = [(w, a) for w, a in fam.coeffs.items() if on_lattice((den, w.apply(nums)))]
    if not coeffs:
        return True
    left = tensor_virtual(_sum_on_lattice(datum, _index_terms(coeffs, lam)), delta)
    right = [term for mu, m in delta.forms.items()
             for term in _index_terms(coeffs, int_add(lam, mu), m)]
    return left == _sum_on_lattice(datum, right)


def is_integral_weyl(w: WeylElement, base: Weight, datum: RootDatum) -> bool:
    """True iff base - w(base) is an integer combination of roots: integral
    coordinates summing to 0 (type A), any integral vector (B), or integral
    coordinates with an even sum (C, D; only 0 for the rootless D_1)."""
    diff = [b - c for b, c in zip(base, w.apply(base))]
    kind = datum.ambient.kind
    if any(c.denominator != 1 for c in diff):
        return False
    if kind == "D" and datum.rank == 1:
        return not any(diff)
    if kind == "A":
        return sum(diff) == 0
    return kind == "B" or sum(diff) % 2 == 0


def act_on_family(w: WeylElement, fam: IndexFamily) -> IndexFamily:
    """Coherent-continuation action: the family of w.X evaluates at lam to
    the original family at w^{-1} lam, i.e. coefficients a'_u = a_{uw}."""
    coeffs = {u.compose(w.inverse()): a for u, a in fam.coeffs.items()}
    return fam.replace(coeffs=coeffs)
