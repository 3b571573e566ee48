import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diracindex import kmodules
from diracindex.errors import (
    DimensionMismatch,
    InternalInvariantError,
    NonIntegralCoefficient,
    NotDominantIntegral,
)
from diracindex.groups import (
    GroupId,
    build_root_datum,
    dot,
    int_form,
    weight_add,
    weyl_elements,
    weyl_order,
)
from diracindex.kmodules import (
    VirtualKModule,
    _dominant_character,
    _weight_forms,
    WeightMultiset,
    dim_virtual,
    frequencies_to_series,
    k_type_sum,
    tensor_virtual,
    weight_multiset,
    weyl_denominator_factored,
    weyl_orbit,
)
from diracindex.series import TruncatedSeries
from diracindex.springer import table_groups
from diracindex.weylaction import weyl_dim_value
import reference as ref
from reference import W, dominant_rep_g, pairing


def test_virtual_k_type_normalization():
    d = build_root_datum(GroupId.su(2, 1))
    # compactly singular parameter: gamma_1 = gamma_2
    assert k_type_sum(d, [(W(1, 1, -2), 1)]).is_zero()
    # dominant regular: contributes +1
    v = k_type_sum(d, [(d.rho_g, 1)])
    assert v.coeffs == {d.rho_g: 1}
    # a compact reflection contributes with sign -1 on the dominant rep
    sgamma = W(0, 1, -1)  # swap of the first two coordinates of rho
    v = k_type_sum(d, [(sgamma, 1)])
    assert v.coeffs == {d.rho_g: -1}


def test_virtual_k_type_off_lattice_is_zero():
    d = build_root_datum(GroupId.so_even_odd(1, 1))
    # allowed parameters are integral shifts of rho_g = (3/2, 1/2)
    assert k_type_sum(d, [(W(1, 1), 1)]).is_zero()
    assert not k_type_sum(d, [(W(F(3, 2), F(1, 2)), 1)]).is_zero()


@pytest.mark.parametrize(
    "group",
    [GroupId.su(2, 1), GroupId.sp_r(2), GroupId.so_even_odd(1, 1),
     GroupId.so_even_even(1, 2), GroupId.sp_pq(1, 1), GroupId.so_star(3)],
    ids=lambda g: g.label(),
)
def test_sign_normalization_full_weyl_k_sweep(group):
    d = build_root_datum(group)
    rng = random.Random(29)
    wk = weyl_elements(d, "k")
    for _ in range(20):
        gamma = weight_add(
            d.rho_g, tuple(F(rng.randint(-3, 3)) for _ in range(d.rank))
        )
        for w in wk:
            assert k_type_sum(d, [(w.apply(gamma), 1)]) == k_type_sum(d, [(gamma, w.sign())])


def test_dim_virtual_examples():
    su11 = build_root_datum(GroupId.su(1, 1))
    assert dim_virtual(k_type_sum(su11, [(W(5, 0), 1)])) == 1
    assert dim_virtual(VirtualKModule(su11)) == 0
    # no compact roots means no sign normalization: the difference of the
    # two one-dimensional parameters has dimension 1 - 1 = 0
    rho = su11.rho_g
    srho = (rho[1], rho[0])
    diff = k_type_sum(su11, [(rho, 1), (srho, -1)])
    assert dim_virtual(diff) == 0
    # with a compact reflection the sign is absorbed by normalization and
    # the two terms add up: dimension 2 * D_k(gamma)
    su21 = build_root_datum(GroupId.su(2, 1))
    gamma = su21.rho_g
    sgamma = W(0, 1, -1)
    combined = k_type_sum(su21, [(gamma, 1), (sgamma, -1)])
    assert dim_virtual(combined) == 2 * weyl_dim_value(su21, gamma) == 2


@pytest.mark.parametrize(
    "group",
    [GroupId.su(2, 1), GroupId.sp_r(2), GroupId.so_even_odd(1, 1),
     GroupId.so_even_even(1, 2)],
    ids=lambda g: g.label(),
)
def test_dim_matches_weyl_dimension_signed(group):
    d = build_root_datum(group)
    rng = random.Random(37)
    for _ in range(100):
        gamma = weight_add(
            d.rho_g, tuple(F(rng.randint(-4, 4)) for _ in range(d.rank))
        )
        module = k_type_sum(d, [(gamma, 1)])
        expected = weyl_dim_value(d, gamma)
        assert dim_virtual(module) == expected


def test_weight_multiset_sl2_adjoint():
    d = build_root_datum(GroupId.su(1, 1))
    delta = weight_multiset(W(1, -1), d)
    assert dict(delta.mults) == {W(1, -1): 1, W(0, 0): 1, W(-1, 1): 1}


def test_weight_multiset_su21_adjoint():
    d = build_root_datum(GroupId.su(2, 1))
    delta = weight_multiset(W(1, 0, -1), d)
    roots = set(d.positive_roots) | {
        tuple(-c for c in a) for a in d.positive_roots
    }
    expected = {r: 1 for r in roots}
    expected[W(0, 0, 0)] = 2
    assert dict(delta.mults) == expected
    assert sum(delta.mults.values()) == 8


def test_weight_multiset_sp4_standard():
    d = build_root_datum(GroupId.sp_r(2))
    delta = weight_multiset(W(1, 0), d)
    assert dict(delta.mults) == {
        W(1, 0): 1,
        W(-1, 0): 1,
        W(0, 1): 1,
        W(0, -1): 1,
    }
    assert sum(delta.mults.values()) == 4


def test_weight_multiset_sp4_adjoint():
    # adjoint of the rank-two symplectic algebra: 8 roots and a
    # two-dimensional zero space
    d = build_root_datum(GroupId.sp_r(2))
    delta = weight_multiset(W(2, 0), d)
    assert sum(delta.mults.values()) == 10
    assert delta.mults[W(0, 0)] == 2
    for alpha in d.positive_roots:
        assert delta.mults[alpha] == 1


def test_weight_multiset_is_weyl_stable():
    d = build_root_datum(GroupId.su(2, 1))
    delta = weight_multiset(W(2, 1, -3), d)
    for w in weyl_elements(d, "g"):
        assert {w.apply(mu): m for mu, m in delta.mults.items()} == dict(delta.mults)


def test_weight_multiset_rejects_nondominant():
    d = build_root_datum(GroupId.su(2, 1))
    with pytest.raises(NotDominantIntegral):
        weight_multiset(W(0, 1, -1), d)
    with pytest.raises(NotDominantIntegral):
        weight_multiset(W(F(1, 2), 0, 0), d)


@pytest.mark.parametrize(
    "group, highest, message",
    [
        (GroupId.su(2, 1), W(-1, 0, 0),
         "<(1, -1, 0), (Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1))> = -1"
         " is not a nonnegative integer"),
        (GroupId.sp_r(2), W(F(1, 2), F(1, 2)),
         "<(2, 0), (Fraction(1, 2), Fraction(1, 2))> = 1/2 is not a nonnegative integer"),
        (GroupId.so_even_odd(1, 1), W(F(1, 3), 0),
         "<(1, -1), (Fraction(1, 3), Fraction(0, 1))> = 1/3 is not a nonnegative integer"),
    ],
)
def test_weight_multiset_refusal_names_the_pairing(group, highest, message):
    """The text the pairing check printed when it built one Fraction per root."""
    with pytest.raises(NotDominantIntegral) as info:
        weight_multiset(highest, build_root_datum(group))
    assert str(info.value) == message


def test_weyl_orbit():
    d = build_root_datum(GroupId.sp_r(2))
    orbit = weyl_orbit(d, W(1, 0))
    assert orbit == {W(1, 0), W(-1, 0), W(0, 1), W(0, -1)}


def test_tensor_examples():
    su11 = build_root_datum(GroupId.su(1, 1))
    e5 = k_type_sum(su11, [(W(5, 0), 1)])
    adj = weight_multiset(W(1, -1), su11)
    out = tensor_virtual(e5, adj)
    expected = k_type_sum(su11, [(W(4, 1), 1), (W(5, 0), 1), (W(6, -1), 1)])
    assert out == expected

    trivial = WeightMultiset({W(0, 0): 1})
    assert tensor_virtual(e5, trivial) == e5


def test_tensor_drops_singular_terms():
    su21 = build_root_datum(GroupId.su(2, 1))
    gamma = su21.rho_g  # (1, 0, -1)
    adj = weight_multiset(W(1, 0, -1), su21)
    out = tensor_virtual(k_type_sum(su21, [(gamma, 1)]), adj)
    # mu = (0, 1, -1) makes gamma + mu = (1, 1, -2) compactly singular
    assert W(1, 1, -2) not in out.coeffs
    # the surviving support is exactly the nonsingular dominant translates
    total_terms = sum(
        0 if k_type_sum(su21, [(weight_add(gamma, mu), 1)]).is_zero() else m
        for mu, m in adj.mults.items()
    )
    assert sum(abs(c) for c in out.coeffs.values()) <= total_terms


def test_tensor_bilinear():
    su11 = build_root_datum(GroupId.su(1, 1))
    a = k_type_sum(su11, [(W(3, 0), 1)])
    b = k_type_sum(su11, [(W(0, 2), 1)])
    adj = weight_multiset(W(1, -1), su11)
    lhs = tensor_virtual(k_type_sum(su11, [(W(3, 0), 1), (W(0, 2), 2)]), adj)
    rhs = k_type_sum(
        su11,
        list(tensor_virtual(a, adj).coeffs.items())
        + [(g, 2 * c) for g, c in tensor_virtual(b, adj).coeffs.items()],
    )
    assert lhs == rhs


def test_custom_lattice_predicate():
    d = build_root_datum(GroupId.sp_r(2))
    # restrict to the weights of even coordinate sum, which hold every root
    # of type C: parameters off it become zero; the predicate reads the
    # weight's integer form nums / den
    even = d.replace(
        lattice=lambda den, nums: all(n % den == 0 for n in nums) and sum(nums) % (2 * den) == 0)
    gamma = weight_add(even.rho_g, W(1, 0))  # (3, 1): shift (1, 0) has an odd sum
    assert k_type_sum(even, [(gamma, 1)]).is_zero()
    assert not k_type_sum(even, [(weight_add(even.rho_g, W(1, 1)), 1)]).is_zero()


def test_weyl_orbit_matches_enumerated_group():
    d = build_root_datum(GroupId.so_even_odd(1, 1))
    mu = W(3, 1)
    enumerated = {w.apply(mu) for w in weyl_elements(d, "g")}
    assert weyl_orbit(d, mu) == enumerated


rates = st.builds(F, st.integers(-12, 12), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(rates, st.integers(-3, 3)), max_size=10), st.integers(0, 12))
@example([], 0)
@example([], 12)
@example([(F(3, 4), 2), (F(0), 1), (F(3, 4), -2), (F(-1, 2), 3)], 9)
def test_frequencies_to_series_matches_exponential_fold(pairs, order):
    freqs = {}
    for rate, c in pairs:  # repeated rates add up and may cancel to 0
        freqs[rate] = freqs.get(rate, 0) + c
    den = math.lcm(*(rate.denominator for rate in freqs))
    v, series = frequencies_to_series({int(rate * den): c for rate, c in freqs.items()}, den, order)
    assert v == 0
    assert series.coeffs == ref.exponential_sum(freqs, order).coeffs
    assert series.order == order
    assert all(type(c) is F for c in series.coeffs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(rates, st.integers(-3, 3)), max_size=10), st.integers(0, 12))
@example([(F(1, 2), 1), (F(-1, 2), -1), (F(3, 2), -1), (F(-3, 2), 1)], 0)
def test_frequencies_to_series_from_the_valuation(pairs, order):
    """start=None steps the moments to the first nonzero one, and returns
    the coefficients valuation .. valuation + order of the fold."""
    freqs = {}
    for rate, c in pairs:
        freqs[rate] = freqs.get(rate, 0) + c
    freqs = {rate: c for rate, c in freqs.items() if c}
    assume(freqs)
    den = math.lcm(*(rate.denominator for rate in freqs))
    nums = {int(rate * den): c for rate, c in freqs.items()}
    fold = ref.exponential_sum(freqs, len(freqs) + order)
    val = fold.valuation()
    assert val is not None and val < len(freqs)
    v, series = frequencies_to_series(nums, den, order, start=None)
    assert (v, series.coeffs) == (val, fold.coeffs[val : val + order + 1])
    # an explicit start at the valuation reads the same coefficients
    assert frequencies_to_series(nums, den, order, start=val) == (v, series)


def test_frequencies_to_series_first_moments_cancel():
    """(e^t - 1)^3 = e^3t - 3e^2t + 3e^t - 1 has moments 0, 0, 0, 6: the
    valuation is 3 and t^3 has coefficient 1."""
    cube = {3: 1, 2: -3, 1: 3, 0: -1}
    v, series = frequencies_to_series(cube, 1, 2, start=None)
    assert v == 3
    assert series.coeffs == (F(1), F(3, 2), F(5, 4))
    # a start below the valuation keeps the zero coefficients
    assert frequencies_to_series(cube, 1, 3, start=1) == (1, TruncatedSeries((0, 0, 1, F(3, 2))))


def test_frequencies_to_series_start_divides_out_low_moments():
    """An integer start is an exact zero-of-order-start check: a sum whose
    moments below it do not all vanish raises, as the Weyl denominator's
    zero of order r would if it failed."""
    cube = {3: 1, 2: -3, 1: 3, 0: -1}
    with pytest.raises(ValueError, match="not divisible by t\\^4"):
        frequencies_to_series(cube, 1, 2, start=4)
    with pytest.raises(ValueError, match="not divisible by t\\^1"):
        frequencies_to_series({1: 1}, 2, 0, start=1)  # e^{t/2} is 1 at t = 0
    sinh = {1: 1, -1: -1}  # e^{t/2} - e^{-t/2} = t + t^3/24 + ...
    assert frequencies_to_series(sinh, 2, 2, start=1) == (1, TruncatedSeries((1, 0, F(1, 24))))
    # the empty sum is divisible by any power of t
    assert frequencies_to_series({}, 1, 2, start=5) == (5, TruncatedSeries.zero(2))


def test_frequencies_to_series_zero_sum_has_no_valuation():
    """A sum of n exponentials whose first n moments vanish is zero; the
    valuation search refuses it instead of stepping on."""
    for freqs in ({}, {2: 0}, {1: 0, -1: 0}):
        with pytest.raises(InternalInvariantError, match="no nonzero moment"):
            frequencies_to_series(freqs, 1, 3, start=None)


DENOMINATOR_GROUPS = [g for g in table_groups(4) if g.rank <= 4]
# thirds, quarters and sixths as well as half-integers
magnitudes = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def regular_directions(draw):
    """A datum of rank <= 4 and a direction y with alpha(y) != 0 for every
    root: distinct nonzero magnitudes, each with a sign, in any order."""
    datum = build_root_datum(draw(st.sampled_from(DENOMINATOR_GROUPS)))
    mags = draw(st.lists(magnitudes, min_size=datum.rank, max_size=datum.rank, unique=True))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=datum.rank, max_size=datum.rank))
    y = tuple(s * m for s, m in zip(signs, draw(st.permutations(mags))))
    return datum, y


@settings(max_examples=200, deadline=None)
@given(regular_directions(), st.sampled_from(["g", "k"]), st.integers(0, 40))
@example((build_root_datum(GroupId.sp_pq(1, 3)), W(F(7, 3), F(-1, 2), 5, F(1, 6))), "g", 40)
@example((build_root_datum(GroupId.so_star(1)), W(F(1, 3))), "g", 0)
def test_weyl_denominator_matches_root_product(case, which, order):
    datum, y = case
    assert all(dot(alpha, y) != 0 for alpha in datum.positive_roots)
    r, u = weyl_denominator_factored(datum, y, which, order)
    assert (r, u) == ref.weyl_denominator_factored(datum, y, which, order)
    assert u.order == order and all(type(c) is F for c in u.coeffs)
    roots = datum.positive_roots if which == "g" else datum.compact_positive_roots
    u0 = 1
    for alpha in roots:
        u0 *= dot(alpha, y)
    assert r == len(roots) and u.coeff(0) == u0 != 0


@pytest.mark.parametrize(
    "group, y",
    [
        pytest.param(GroupId.su(2, 1), W(1, 1, -2), id="SU(2,1)-compact-root"),
        pytest.param(GroupId.su(2, 1), W(1, -2, 1), id="SU(2,1)-noncompact-root"),
        pytest.param(GroupId.sp_r(2), W(F(1, 3), 0), id="Sp(4,R)-long-root"),
        pytest.param(GroupId.so_even_odd(2, 2), W(0, 0, 0, 0), id="SOe(4,5)-zero"),
    ],
)
@pytest.mark.parametrize("order", [0, 5])
def test_weyl_denominator_singular_direction_is_zero(group, y, order):
    """With alpha(y) = 0 for some root the exponential sum cancels to the
    empty dict, and (r, U) is r with the zero series of the given order."""
    d = build_root_datum(group)
    for which in ("g", "k"):
        roots = d.positive_roots if which == "g" else d.compact_positive_roots
        r, u = weyl_denominator_factored(d, y, which, order)
        assert (r, u) == ref.weyl_denominator_factored(d, y, which, order)
        assert r == len(roots) and u.order == order
        assert (u.valuation() is None) == any(dot(alpha, y) == 0 for alpha in roots)
    assert weyl_denominator_factored(d, y, "g", order) == (
        len(d.positive_roots),
        TruncatedSeries.zero(order),
    )


# Small entries with repeats and zeros: many of these directions are singular.
small_entries = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@pytest.mark.parametrize("group", DENOMINATOR_GROUPS, ids=lambda g: g.label())
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_weyl_denominator_matches_the_expanded_sum_in_any_order(group, data):
    """Orders 0-40 in random sequence: the series from the root factors
    equals the expanded sum's, with v = r, and is the zero series exactly
    when some root vanishes on y."""
    datum = build_root_datum(group)
    n = datum.rank
    y = data.draw(st.one_of(
        st.lists(small_entries, min_size=n, max_size=n),
        st.lists(magnitudes, min_size=n, max_size=n, unique=True),
    ).map(tuple))
    orders = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    for which in ("g", "k"):
        roots = datum.positive_roots if which == "g" else datum.compact_positive_roots
        singular = any(dot(alpha, y) == 0 for alpha in roots)
        for order in orders:
            r, u = weyl_denominator_factored(datum, y, which, order)
            assert (r, u) == ref.weyl_denominator_factored(datum, y, which, order)
            assert r == len(roots)
            assert (u == TruncatedSeries.zero(order)) == singular


@pytest.mark.parametrize("group", DENOMINATOR_GROUPS, ids=lambda g: g.label())
def test_signed_orbit_matches_the_weyl_group(group):
    """The orbit read off the getters cached per datum, as
    `_numerator_frequencies` reads it, rebuilt from its signs and
    coordinate columns, is the multiset of (sgn w, w y) over W_k, also for
    repeated and zero entries; the 30 groups include rank 1 and the
    rootless SO*(2)."""
    datum = build_root_datum(group)
    rng = random.Random(group.label())
    n = datum.rank
    directions = [(0,) * n, (3,) * n] + [
        tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(4)
    ]
    for nums in directions:
        expected = Counter((w.sign(), w.apply(nums)) for w in weyl_elements(datum, "k"))
        signs, gets = kmodules._signed_k_getters(datum)
        columns = tuple(get(nums + tuple(-c for c in nums)) for get in gets)
        assert len(columns) == n
        assert all(len(column) == len(signs) == weyl_order(datum, "k") for column in columns)
        assert Counter(zip(signs, zip(*columns))) == expected


def test_unknown_which_is_rejected():
    d = build_root_datum(GroupId.sp_r(2))
    for call in (
        lambda: weyl_order(d, "x"),
        lambda: weyl_elements(d, "x"),
        lambda: weyl_denominator_factored(d, W(2, 1), "x", 3),
    ):
        with pytest.raises(ValueError, match="which must be 'g' or 'k'"):
            call()


K_SUM_DATA = [
    build_root_datum(g)
    for g in (GroupId.su(2, 1), GroupId.sp_r(2), GroupId.so_even_odd(2, 1))
]


@st.composite
def k_type_terms(draw):
    """A datum and (gamma, c) pairs with off-lattice, compactly singular and
    cancelling parameters among them."""
    datum = draw(st.sampled_from(K_SUM_DATA))
    rank = datum.rank
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        shift = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        gamma = weight_add(datum.rho_g, W(*shift))
        c = draw(st.integers(-3, 3))
        kind = draw(st.sampled_from(["plain", "off-lattice", "singular", "cancel"]))
        if kind == "off-lattice":
            gamma = weight_add(gamma, W(F(1, 2), *[0] * (rank - 1)))
        elif kind == "singular":
            alpha = draw(st.sampled_from(datum.compact_positive_roots))
            support = [k for k, a in enumerate(alpha) if a]
            coords = list(gamma)
            if len(support) == 1:
                coords[support[0]] = F(0)
            else:
                i, j = support
                coords[j] = -alpha[i] * coords[i] / alpha[j]
            gamma = tuple(coords)
        elif kind == "cancel":
            w = draw(st.sampled_from(weyl_elements(datum, "k")))
            terms.append((w.apply(gamma), -w.sign() * c))
        terms.append((gamma, c))
    return datum, terms


@settings(max_examples=150, deadline=None)
@given(k_type_terms())
def test_k_type_sum_matches_fold(case):
    datum, terms = case
    assert k_type_sum(datum, terms) == VirtualKModule(datum, ref.k_type_sum(datum, terms))


def test_k_type_sum_checks_every_parameter_length():
    d = build_root_datum(GroupId.su(2, 1))
    with pytest.raises(DimensionMismatch):
        k_type_sum(d, [(d.rho_g, 1), (W(1, 0), 0)])


@pytest.mark.parametrize("value", [F(3, 2), 2.7, 0.5, F(-1, 3)])
def test_virtual_k_module_refuses_non_integral_coefficients(value):
    d = build_root_datum(GroupId.su(2, 1))
    with pytest.raises(NonIntegralCoefficient):
        VirtualKModule(d, {d.rho_g: value})


@pytest.mark.parametrize("value", [F(3, 2), 2.7, 0.5])
def test_weight_multiset_refuses_non_integral_multiplicities(value):
    with pytest.raises(NonIntegralCoefficient):
        WeightMultiset({W(1, 0): 1, W(0, 1): value})


def test_validated_constructors_store_integral_values_as_int():
    d = build_root_datum(GroupId.su(2, 1))
    module = VirtualKModule(d, {d.rho_g: F(2), W(F(5, 2), F(1, 2), F(-3, 2)): 0.0})
    assert module.forms == {int_form(d.rho_g): 2}
    assert type(module.forms[int_form(d.rho_g)]) is int
    multiset = WeightMultiset({W(1, 0): F(2), W(0, 1): 3.0})
    assert multiset.mults == {W(1, 0): 2, W(0, 1): 3}
    assert all(type(m) is int for m in multiset.forms.values())


def test_weight_multiset_non_integral_multiplicity_is_internal():
    """With rho_g doubled, Freudenthal's quotient at the zero weight of the
    adjoint module of SU(2,1) is not an integer; the recursion raises where
    it arises."""
    datum = build_root_datum(GroupId.su(2, 1))
    doubled = datum.replace(rho_g=tuple(2 * c for c in datum.rho_g))
    with pytest.raises(InternalInvariantError, match="non-integral weight multiplicity"):
        _dominant_character(doubled, W(1, 0, -1))
    with pytest.raises(InternalInvariantError, match="non-integral weight multiplicity"):
        weight_multiset(W(1, 0, -1), doubled)


def test_dim_virtual_non_integral_total_is_internal(monkeypatch):
    datum = build_root_datum(GroupId.su(2, 1))
    module = k_type_sum(datum, [(datum.rho_g, 1)])
    assert dim_virtual(module) == 1
    monkeypatch.setattr("diracindex.kmodules._weyl_product", lambda *args: F(1, 2))
    with pytest.raises(InternalInvariantError, match="non-integral virtual dimension 1/2"):
        dim_virtual(module)


def test_weight_multiset_mass_mismatch_is_internal(monkeypatch):
    _weight_forms.cache_clear()
    monkeypatch.setattr("diracindex.kmodules.weyl_dim_value_g", lambda datum, gamma: 0)
    with pytest.raises(InternalInvariantError, match="Weyl dimension"):
        weight_multiset(W(1, 0, 0), build_root_datum(GroupId.su(2, 1)))


# The recursion sees only the ambient block, so Sp(p,q) stops at rank 3:
# Sp(8,R) covers C_4, where each reference call takes about a second.
# SO*(2) is left out: its D_1 block has no roots, and the reference height
# functional is then an empty vector that fails to pair with any weight.
FREUDENTHAL_GROUPS = [
    GroupId.su(1, 1), GroupId.su(2, 1), GroupId.su(2, 2), GroupId.su(3, 1),
    GroupId.so_even_odd(1, 0), GroupId.so_even_odd(1, 1), GroupId.so_even_odd(2, 1),
    GroupId.so_even_odd(2, 2),
    GroupId.sp_r(1), GroupId.sp_r(2), GroupId.sp_r(3), GroupId.sp_r(4),
    GroupId.sp_pq(1, 1), GroupId.sp_pq(2, 1),
    GroupId.so_even_even(1, 1), GroupId.so_even_even(2, 1), GroupId.so_even_even(2, 2),
    GroupId.so_star(2), GroupId.so_star(3), GroupId.so_star(4),
]


@st.composite
def dominant_integral_weights(draw):
    """A datum of rank <= 4 and a dominant-integral highest weight, with
    integral or (outside type C) half-integral coordinates."""
    datum = build_root_datum(draw(st.sampled_from(FREUDENTHAL_GROUPS)))
    half = datum.ambient.kind != "C" and draw(st.booleans())
    top = 5 - datum.rank  # keeps the reference's norm ball small in rank 4
    coords = draw(st.lists(st.integers(-top, top), min_size=datum.rank, max_size=datum.rank))
    highest = dominant_rep_g(datum, W(*(c + F(1, 2) * half for c in coords)))
    for alpha in datum.positive_roots:
        p = pairing(highest, alpha)
        assume(p >= 0 and p.denominator == 1)
    return datum, highest


@settings(max_examples=40, deadline=None)
@given(dominant_integral_weights())
@example((build_root_datum(GroupId.sp_r(3)), W(2, 1, 0)))
@example((build_root_datum(GroupId.so_even_odd(2, 1)), W(F(3, 2), F(1, 2), F(1, 2))))
@example((build_root_datum(GroupId.so_even_even(2, 2)), W(F(3, 2), F(1, 2), F(1, 2), F(-1, 2))))
@example((build_root_datum(GroupId.su(2, 2)), W(1, 1, -1, -1)))
def test_dominant_character_matches_norm_ball(case):
    datum, highest = case
    expected = ref.dominant_character(datum, highest)
    got = _dominant_character(datum, highest)
    assert list(got.items()) == list(expected.items())
    assert all(type(m) is int for m in got.values())


def test_weight_multiset_sp10_standard():
    d = build_root_datum(GroupId.sp_r(5))
    unit = [W(*(int(i == j) for j in range(5))) for i in range(5)]
    expected = {u: 1 for u in unit} | {tuple(-c for c in u): 1 for u in unit}
    assert weight_multiset(W(1, 0, 0, 0, 0), d).mults == expected


def test_weight_multiset_rootless_d1():
    # SO*(2): no roots, so every weight is dominant integral and alone.
    d = build_root_datum(GroupId.so_star(1))
    assert weight_multiset(W(F(1, 2)), d).mults == {W(F(1, 2)): 1}
    assert weight_multiset(W(-3), d).mults == {W(-3): 1}
