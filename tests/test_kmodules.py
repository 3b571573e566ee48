import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diracindex.errors import (
    DimensionMismatch,
    InternalInvariantError,
    NotDominantIntegral,
    SingularDirection,
)
from diracindex.groups import (
    GroupId,
    build_root_datum,
    normalize_k_dominant,
    weight_add,
    weyl_elements,
)
from diracindex.kmodules import (
    VirtualKModule,
    _height_functional,
    WeightMultiset,
    ch_series,
    dim_virtual,
    frequencies_to_series,
    k_type_sum,
    tensor_virtual,
    virtual_k_type,
    weight_multiset,
    weyl_orbit,
)
from diracindex.series import TruncatedSeries
from diracindex.weylaction import weyl_dim_value


def W(*coords):
    return tuple(F(c) for c in coords)


def test_virtual_k_type_normalization():
    d = build_root_datum(GroupId.su(2, 1))
    # compactly singular parameter: gamma_1 = gamma_2
    assert virtual_k_type(W(1, 1, -2), d).is_zero()
    # dominant regular: contributes +1
    v = virtual_k_type(d.rho_g, d)
    assert v.coeffs == {d.rho_g: 1}
    # a compact reflection contributes with sign -1 on the dominant rep
    sgamma = W(0, 1, -1)  # swap of the first two coordinates of rho
    v = virtual_k_type(sgamma, d)
    assert v.coeffs == {d.rho_g: -1}


def test_virtual_k_type_off_lattice_is_zero():
    d = build_root_datum(GroupId.so_even_odd(1, 1))
    # allowed parameters are integral shifts of rho_g = (3/2, 1/2)
    assert virtual_k_type(W(1, 1), d).is_zero()
    assert not virtual_k_type(W(F(3, 2), F(1, 2)), d).is_zero()


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
        base = virtual_k_type(gamma, d)
        for w in wk:
            assert virtual_k_type(w.apply(gamma), d) == base.scale(w.sign())


def test_dim_virtual_examples():
    su11 = build_root_datum(GroupId.su(1, 1))
    assert dim_virtual(virtual_k_type(W(5, 0), su11)) == 1
    assert dim_virtual(VirtualKModule.zero(su11)) == 0
    # no compact roots means no sign normalization: the difference of the
    # two one-dimensional parameters has dimension 1 - 1 = 0
    rho = su11.rho_g
    srho = (rho[1], rho[0])
    diff = virtual_k_type(rho, su11) - virtual_k_type(srho, su11)
    assert dim_virtual(diff) == 0
    # with a compact reflection the sign is absorbed by normalization and
    # the two terms add up: dimension 2 * D_k(gamma)
    su21 = build_root_datum(GroupId.su(2, 1))
    gamma = su21.rho_g
    sgamma = W(0, 1, -1)
    combined = virtual_k_type(gamma, su21) - virtual_k_type(sgamma, su21)
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
        module = virtual_k_type(gamma, d)
        expected = weyl_dim_value(d, gamma)
        assert dim_virtual(module) == expected


def test_weight_multiset_sl2_adjoint():
    d = build_root_datum(GroupId.su(1, 1))
    delta = weight_multiset(W(1, -1), d)
    assert dict(delta.items()) == {W(1, -1): 1, W(0, 0): 1, W(-1, 1): 1}


def test_weight_multiset_su21_adjoint():
    d = build_root_datum(GroupId.su(2, 1))
    delta = weight_multiset(W(1, 0, -1), d)
    roots = set(d.positive_roots) | {
        tuple(-c for c in a) for a in d.positive_roots
    }
    expected = {r: 1 for r in roots}
    expected[W(0, 0, 0)] = 2
    assert dict(delta.items()) == expected
    assert delta.total() == 8


def test_weight_multiset_sp4_standard():
    d = build_root_datum(GroupId.sp_r(2))
    delta = weight_multiset(W(1, 0), d)
    assert dict(delta.items()) == {
        W(1, 0): 1,
        W(-1, 0): 1,
        W(0, 1): 1,
        W(0, -1): 1,
    }
    assert delta.total() == 4


def test_weight_multiset_sp4_adjoint():
    # adjoint of the rank-two symplectic algebra: 8 roots and a
    # two-dimensional zero space
    d = build_root_datum(GroupId.sp_r(2))
    delta = weight_multiset(W(2, 0), d)
    assert delta.total() == 10
    assert delta.mults[W(0, 0)] == 2
    for alpha in d.positive_roots:
        assert delta.mults[alpha] == 1


def test_weight_multiset_is_weyl_stable():
    d = build_root_datum(GroupId.su(2, 1))
    delta = weight_multiset(W(2, 1, -3), d)
    for w in weyl_elements(d, "g"):
        assert {w.apply(mu): m for mu, m in delta.items()} == dict(delta.items())


def test_weight_multiset_rejects_nondominant():
    d = build_root_datum(GroupId.su(2, 1))
    with pytest.raises(NotDominantIntegral):
        weight_multiset(W(0, 1, -1), d)
    with pytest.raises(NotDominantIntegral):
        weight_multiset(W(F(1, 2), 0, 0), d)


def test_weyl_orbit():
    d = build_root_datum(GroupId.sp_r(2))
    orbit = weyl_orbit(d, W(1, 0))
    assert orbit == {W(1, 0), W(-1, 0), W(0, 1), W(0, -1)}


def test_tensor_examples():
    su11 = build_root_datum(GroupId.su(1, 1))
    e5 = virtual_k_type(W(5, 0), su11)
    adj = weight_multiset(W(1, -1), su11)
    out = tensor_virtual(e5, adj)
    expected = (
        virtual_k_type(W(4, 1), su11)
        + virtual_k_type(W(5, 0), su11)
        + virtual_k_type(W(6, -1), su11)
    )
    assert out == expected

    trivial = WeightMultiset({W(0, 0): 1})
    assert tensor_virtual(e5, trivial) == e5


def test_tensor_drops_singular_terms():
    su21 = build_root_datum(GroupId.su(2, 1))
    gamma = su21.rho_g  # (1, 0, -1)
    adj = weight_multiset(W(1, 0, -1), su21)
    out = tensor_virtual(virtual_k_type(gamma, su21), adj)
    # mu = (0, 1, -1) makes gamma + mu = (1, 1, -2) compactly singular
    assert W(1, 1, -2) not in out.coeffs
    # the surviving support is exactly the nonsingular dominant translates
    total_terms = sum(
        0 if virtual_k_type(weight_add(gamma, mu), su21).is_zero() else m
        for mu, m in adj.items()
    )
    assert sum(abs(c) for c in out.coeffs.values()) <= total_terms


def test_tensor_bilinear():
    su11 = build_root_datum(GroupId.su(1, 1))
    a = virtual_k_type(W(3, 0), su11)
    b = virtual_k_type(W(0, 2), su11)
    adj = weight_multiset(W(1, -1), su11)
    lhs = tensor_virtual(a + b.scale(2), adj)
    rhs = tensor_virtual(a, adj) + tensor_virtual(b, adj).scale(2)
    assert lhs == rhs


def test_ch_series_examples():
    su11 = build_root_datum(GroupId.su(1, 1))
    v = virtual_k_type(W(4, 0), su11)
    s = ch_series(v, W(1, -1), 6)
    assert s.coeff(0) == 1  # dimension of a one-dimensional type
    assert s.coeff(1) == 4  # weight pairing <(4,0), (1,-1)> = 4

    assert ch_series(VirtualKModule.zero(su11), W(1, -1), 4).is_zero()

    su21 = build_root_datum(GroupId.su(2, 1))
    v = virtual_k_type(su21.rho_g, su21)
    s = ch_series(v, W(1, 0, -1), 6)
    assert s.coeff(0) == dim_virtual(v) == 1


def test_ch_series_constant_term_is_dimension():
    su21 = build_root_datum(GroupId.su(2, 1))
    rng = random.Random(11)
    for _ in range(10):
        gamma = weight_add(
            su21.rho_g, tuple(F(rng.randint(-3, 3)) for _ in range(3))
        )
        v = virtual_k_type(gamma, su21)
        s = ch_series(v, W(2, 1, -3), 6)
        assert s.coeff(0) == dim_virtual(v)


def test_ch_series_rejects_singular_direction():
    su21 = build_root_datum(GroupId.su(2, 1))
    v = virtual_k_type(su21.rho_g, su21)
    with pytest.raises(SingularDirection):
        ch_series(v, W(1, 1, -2), 6)


def test_custom_lattice_predicate():
    from diracindex.groups import with_lattice

    d = build_root_datum(GroupId.sp_r(2))
    # restrict to the even sublattice: parameters off it become zero
    even = with_lattice(d, lambda w: all(c.denominator == 1 and c % 2 == 0 for c in w))
    gamma = weight_add(even.rho_g, W(1, 1))  # (3, 2): shift (1, 1) is odd
    assert virtual_k_type(gamma, even).is_zero()
    assert not virtual_k_type(weight_add(even.rho_g, W(2, 0)), even).is_zero()


def test_weyl_orbit_matches_enumerated_group():
    d = build_root_datum(GroupId.so_even_odd(1, 1))
    mu = W(3, 1)
    enumerated = {w.apply(mu) for w in weyl_elements(d, "g")}
    assert weyl_orbit(d, mu) == enumerated


def test_ch_series_linear():
    d = build_root_datum(GroupId.su(2, 1))
    a = virtual_k_type(d.rho_g, d)
    b = virtual_k_type(weight_add(d.rho_g, W(1, 0, -1)), d)
    y = W(2, 1, -3)
    lhs = ch_series(a + b.scale(3), y, 6)
    rhs = ch_series(a, y, 6) + ch_series(b, y, 6).scale(3)
    assert lhs == rhs


def _k_type_by_fold(gamma, datum):
    """Reference E(gamma), normalized one parameter at a time: the body
    virtual_k_type had before sums collected in one dict."""
    if len(gamma) != datum.rank:
        raise DimensionMismatch("parameter length must equal the rank")
    if not datum.on_shifted_lattice(gamma):
        return VirtualKModule.zero(datum)
    normalized = normalize_k_dominant(datum, gamma)
    if normalized is None:
        return VirtualKModule.zero(datum)
    sign, dom = normalized
    return VirtualKModule(datum, {dom: sign})


def _series_by_exponential_fold(freqs, order):
    """Reference sum c * e^{rate t}: one truncated exponential per rate."""
    total = TruncatedSeries.zero(order)
    for rate, c in freqs.items():
        total = total + TruncatedSeries.exponential(rate, order).scale(c)
    return total


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
    series = frequencies_to_series(freqs, order)
    assert series == _series_by_exponential_fold(freqs, order)
    assert series.order == order
    assert all(type(c) is F for c in series.coeffs)


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
    expected = VirtualKModule.zero(datum)
    for gamma, c in terms:
        expected = expected + _k_type_by_fold(gamma, datum).scale(c)
    assert k_type_sum(datum, terms) == expected
    if len(terms) == 1:
        assert virtual_k_type(terms[0][0], datum).scale(terms[0][1]) == expected


def test_k_type_sum_checks_every_parameter_length():
    d = build_root_datum(GroupId.su(2, 1))
    with pytest.raises(DimensionMismatch):
        k_type_sum(d, [(d.rho_g, 1), (W(1, 0), 0)])


def test_weight_multiset_non_integral_multiplicity_is_internal(monkeypatch):
    monkeypatch.setattr(
        "diracindex.kmodules._dominant_character",
        lambda datum, highest: ((highest, F(1, 2)),),
    )
    with pytest.raises(InternalInvariantError, match="non-integral"):
        weight_multiset(W(1, 0, 0), build_root_datum(GroupId.su(2, 1)))


def test_weight_multiset_mass_mismatch_is_internal(monkeypatch):
    monkeypatch.setattr("diracindex.kmodules.weyl_dim_value_g", lambda datum, gamma: 0)
    with pytest.raises(InternalInvariantError, match="Weyl dimension"):
        weight_multiset(W(1, 0, 0), build_root_datum(GroupId.su(2, 1)))


def test_height_functional_without_solution_is_internal(monkeypatch):
    monkeypatch.setattr("diracindex.kmodules.solve_linear", lambda rows, rhs: None)
    with pytest.raises(InternalInvariantError, match="height functional"):
        _height_functional.__wrapped__(build_root_datum(GroupId.sp_r(2)))
