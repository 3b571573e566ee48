import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diracindex.dirac import (
    SPIN_SUBSET_CAP,
    IndexFamily,
    act_on_family,
    discrete_series_family,
    evaluate_index,
    evaluate_q,
    family_combination,
    index_discrete_series,
    index_polynomial,
    is_integral_weyl,
    spin_character_series,
    spin_weights,
    verify_translation,
)
from diracindex.errors import (
    CapExceeded,
    DiracIndexError,
    NonIntegralCoefficient,
    OffLattice,
    SingularParameter,
)
from diracindex.fixtures import sl2_families, sl2_weight, su21_ds_families
from diracindex.groups import (
    GroupId,
    WeylElement,
    build_root_datum,
    dot,
    int_form,
    simple_roots,
    weight_add,
    weyl_elements,
)
from diracindex.kmodules import (
    dim_virtual,
    k_type_sum,
    tensor_virtual,
    weight_multiset,
    weyl_denominator_factored,
)
from diracindex.polynomials import MultiPoly, is_harmonic
from diracindex.series import TruncatedSeries
from diracindex.springer import table_groups
from diracindex.weylaction import act, orbit_span, weyl_dim_poly
import reference as ref
from reference import W, solve_linear, sub


# -- spin weights --------------------------------------------------------


def _mass(weights):
    return sum(weights.mults.values())


def test_spin_weights_sl2():
    d = build_root_datum(GroupId.su(1, 1))
    sw = spin_weights(d)
    # in difference coordinates the two weights are +1 and -1, with the
    # labels fixed so ch(S+ - S-) = d_g/d_k
    assert dict(sw.plus.mults) == {W(F(1, 2), F(-1, 2)): 1}
    assert dict(sw.minus.mults) == {W(F(-1, 2), F(1, 2)): 1}


def test_spin_weights_su21_count():
    d = build_root_datum(GroupId.su(2, 1))
    sw = spin_weights(d)
    assert _mass(sw.plus) == _mass(sw.minus) == 2


def test_spin_weights_sp4():
    """Oracle: enumerate subset sums directly and check the parity split."""
    d = build_root_datum(GroupId.sp_r(2))
    assert len(d.noncompact_positive_roots) == 3
    expected_plus, expected_minus = ref.spin_weights(d)
    sw = spin_weights(d)
    assert dict(sw.plus.mults) == expected_plus
    assert dict(sw.minus.mults) == expected_minus
    assert _mass(sw.plus) == _mass(sw.minus) == 4


def test_spin_cap():
    """Sp(12,R) has 21 noncompact positive roots, one past SPIN_SUBSET_CAP:
    both entry points refuse it on every call."""
    d = build_root_datum(GroupId.sp_r(6))
    assert len(d.noncompact_positive_roots) == SPIN_SUBSET_CAP + 1 == 21
    for _ in range(2):
        with pytest.raises(CapExceeded, match="21 noncompact roots exceeds the subset cap 20"):
            spin_weights(d)
        with pytest.raises(CapExceeded, match="subset cap 20"):
            spin_character_series(d, tuple(F(c) for c in range(6, 0, -1)), 2)


RANK_LE_4 = [
    GroupId.su(1, 1),
    GroupId.su(1, 3),
    GroupId.su(2, 2),
    GroupId.so_even_odd(1, 1),
    GroupId.so_even_odd(2, 2),
    GroupId.so_even_odd(3, 1),
    GroupId.sp_r(2),
    GroupId.sp_r(4),
    GroupId.sp_pq(2, 2),
    GroupId.so_even_even(2, 2),
    GroupId.so_star(4),
]


@pytest.mark.parametrize("group", RANK_LE_4, ids=lambda g: g.label())
def test_spin_weights_match_subset_enumeration(group):
    d = build_root_datum(group)
    expected_plus, expected_minus = ref.spin_weights(d)
    sw = spin_weights(d)
    assert dict(sw.plus.mults) == expected_plus
    assert dict(sw.minus.mults) == expected_minus
    assert _mass(sw.plus) + _mass(sw.minus) == 2 ** len(d.noncompact_positive_roots)


@pytest.mark.parametrize("group", RANK_LE_4, ids=lambda g: g.label())
def test_spin_ratio_identity(group):
    """ch(S+ - S-) = d_g/d_k exactly, to order 12."""
    d = build_root_datum(group)
    rng = random.Random(d.rank * 7 + 1)
    while True:
        y = [F(rng.randint(-9, 9)) for _ in range(d.rank)]
        if group.family.value == "SU":
            total = sum(y, F(0))
            y = [c - total / d.rank for c in y]
        y = tuple(y)
        if all(dot(a, y) != 0 for a in d.positive_roots):
            break
    order = 12
    lhs = spin_character_series(d, y, order)
    rg, ug = weyl_denominator_factored(d, y, "g", order)
    rk, uk = weyl_denominator_factored(d, y, "k", order)
    quot = ug.divide(uk)
    rhs = TruncatedSeries(
        tuple(([F(0)] * (rg - rk) + list(quot.coeffs))[: order + 1])
    )
    assert lhs == rhs


# -- discrete series index ------------------------------------------------


def test_index_discrete_series_sl2():
    d = build_root_datum(GroupId.su(1, 1))
    assert index_discrete_series(W(4, 0), d) == k_type_sum(d, [(W(4, 0), 1)])
    # antiholomorphic side picks up the sign
    v = index_discrete_series(W(0, 4), d)
    assert v == k_type_sum(d, [(W(0, 4), -1)])
    with pytest.raises(SingularParameter):
        index_discrete_series(W(0, 0), d)


def _ds_sign(lam, datum):
    """The chamber sign at lam, read off the discrete-series family's one
    coefficient, on the identity."""
    [(w, sign)] = discrete_series_family(lam, datum).coeffs.items()
    assert w == WeylElement.identity(datum.rank)
    return sign


def test_index_discrete_series_su21_chambers():
    d = build_root_datum(GroupId.su(2, 1))
    assert _ds_sign(d.rho_g, d) == 1
    assert index_discrete_series(d.rho_g, d) == k_type_sum(d, [(d.rho_g, 1)])
    middle = W(4, 2, 3)
    assert _ds_sign(middle, d) == -1
    assert index_discrete_series(middle, d) == k_type_sum(d, [(middle, -1)])
    anti = W(4, 2, 5)
    assert _ds_sign(anti, d) == 1


# -- families -------------------------------------------------------------


def test_evaluate_sl2_families():
    fams = sl2_families()
    d = fams["D+"].datum
    assert evaluate_index(fams["D+"], sl2_weight(5)) == k_type_sum(d, [(W(5, 0), 1)])
    for n in range(-4, 5):
        v = evaluate_index(fams["F"], sl2_weight(n))
        assert dim_virtual(v) == 0
    assert evaluate_index(fams["P"], sl2_weight(3)).is_zero()


def test_evaluate_all_terms_singular():
    fam = su21_ds_families()[0]
    # force the compact coordinates equal: each translate is singular
    lam = W(2, 2, 1)
    assert sub(lam, fam.base)[0].denominator == 1
    assert evaluate_index(fam, lam).is_zero()


def test_evaluate_off_lattice():
    fams = sl2_families()
    with pytest.raises(OffLattice):
        evaluate_index(fams["D+"], (F(1, 2), F(0)))


def test_discrete_series_family_rejects_off_lattice_parameter():
    # Regular, but (5/2, 1/2) - rho_g is not integral: the family's index
    # is zero while its index polynomial would read 2 there.
    datum = build_root_datum(GroupId.sp_r(2))
    with pytest.raises(OffLattice, match=r"^\(5/2,1/2\) is not on"):
        discrete_series_family((F(5, 2), F(1, 2)), datum)
    assert discrete_series_family((F(3), F(1)), datum).base == (F(3), F(1))


def test_index_polynomials_sl2():
    fams = sl2_families()
    assert index_polynomial(fams["D+"]) == MultiPoly.const(2, 1)
    assert index_polynomial(fams["D-"]) == MultiPoly.const(2, -1)
    assert index_polynomial(fams["F"]).is_zero()
    assert index_polynomial(fams["P"]).is_zero()


def test_index_polynomial_su21_holomorphic():
    fam = su21_ds_families()[0]
    x1 = MultiPoly.variable(3, 0)
    x2 = MultiPoly.variable(3, 1)
    assert index_polynomial(fam) == x1 - x2


@pytest.mark.parametrize("name", ["F", "D+", "D-", "P"])
def test_dimension_identity_sl2(name):
    fams = sl2_families()
    fam = fams[name]
    q = index_polynomial(fam)
    rng = random.Random(len(name))
    for _ in range(200):
        lam = weight_add(fam.base, (F(rng.randint(-6, 6)), F(rng.randint(-6, 6))))
        assert q.evaluate(lam) == dim_virtual(evaluate_index(fam, lam))


def test_translation_explicit_two_sided_oracle():
    """Both sides of the translation identity built by hand for D+ at 5."""
    fams = sl2_families()
    d = fams["D+"].datum
    adj = weight_multiset(W(1, -1), d)
    lam = sl2_weight(5)
    left = tensor_virtual(evaluate_index(fams["D+"], lam), adj)
    right = k_type_sum(d, [(W(4, 1), 1), (W(5, 0), 1), (W(6, -1), 1)])
    assert left == right
    assert verify_translation(fams["D+"], W(1, -1), lam)


def test_translation_trivial_module():
    fams = sl2_families()
    for fam in fams.values():
        assert verify_translation(fam, W(0, 0), sl2_weight(2))


def test_translation_su21_adjoint():
    fam = su21_ds_families()[0]
    assert verify_translation(fam, W(1, 0, -1), fam.base)


def test_translation_off_lattice_names_the_first_point():
    """lam off the coset is named first; then lam + mu for the first weight
    mu of F off the lattice, here a weight of the spin module of SOe(2,3)."""
    datum = build_root_datum(GroupId.so_even_odd(1, 1))
    fam = discrete_series_family(datum.rho_g, datum)
    spin = W(F(1, 2), F(1, 2))
    with pytest.raises(OffLattice) as info:
        verify_translation(fam, spin, datum.rho_g)
    assert str(info.value) == "(Fraction(1, 1), Fraction(1, 1)) is not in base + Lambda"
    with pytest.raises(OffLattice) as info:
        verify_translation(fam, spin, W(1, 0))
    assert str(info.value) == "(Fraction(1, 1), Fraction(0, 1)) is not in base + Lambda"
    assert verify_translation(fam, W(1, 0), datum.rho_g)


def test_act_on_family():
    fams = sl2_families()
    s = WeylElement((1, 0), (1, 1))
    e = WeylElement.identity(2)
    dplus = fams["D+"]
    assert act_on_family(e, dplus).coeffs == dplus.coeffs
    acted = act_on_family(s, dplus)
    # the moved family evaluates at lam to the original at s^{-1} lam
    lam = sl2_weight(3)
    assert evaluate_index(acted, lam) == evaluate_index(dplus, s.apply(lam))
    assert index_polynomial(acted) == index_polynomial(dplus)  # constants
    # double application is the identity on coefficients
    twice = act_on_family(s, act_on_family(s, dplus))
    assert twice.coeffs == dplus.coeffs


def test_act_on_family_equivariance_polynomials():
    for fam in list(sl2_families().values()) + list(su21_ds_families().values()):
        q = index_polynomial(fam)
        for w in weyl_elements(fam.datum, "g"):
            assert index_polynomial(act_on_family(w, fam)) == act(w, q)


def test_is_integral_weyl():
    fams = sl2_families()
    s = WeylElement((1, 0), (1, 1))
    assert is_integral_weyl(s, sl2_weight(1), fams["D+"].datum)
    # a base with fractional difference is not moved by an integral element
    d = fams["D+"].datum
    assert not is_integral_weyl(s, (F(1, 3), F(0)), d)


def test_canonical_coset_folding():
    d = build_root_datum(GroupId.su(2, 1))
    base = W(3, 2, 1)
    e = WeylElement.identity(3)
    u = WeylElement((1, 0, 2), (1, 1, 1))  # compact reflection
    fam1 = IndexFamily(d, base, {e: 1})
    fam2 = IndexFamily(d, base, {u: -1})
    # the two families differ by the compact coset, and evaluate identically
    for off in [(0, 0, 0), (1, 0, -1), (2, 2, 2)]:
        lam = weight_add(base, W(*off))
        assert evaluate_index(fam1, lam) == evaluate_index(fam2, lam)


def test_nonvanishing_on_regular_coset():
    rng = random.Random(2)
    fams = {**sl2_families(), **{f"su21/{i}": f for i, f in su21_ds_families().items()}}
    for fam in fams.values():
        if not fam.coeffs:
            continue
        datum = fam.datum
        if evaluate_index(fam, fam.base).is_zero():
            continue
        found = 0
        while found < 20:
            off = tuple(F(rng.randint(-4, 4)) for _ in range(datum.rank))
            lam = weight_add(fam.base, off)
            if not datum.is_g_regular(lam):
                continue
            assert not evaluate_index(fam, lam).is_zero()
            found += 1


def test_fixture_polynomials_harmonic_degree_span():
    for fam in list(sl2_families().values()) + list(su21_ds_families().values()):
        datum = fam.datum
        q = index_polynomial(fam)
        assert is_harmonic(q, datum)
        assert q.is_zero() or (q.is_homogeneous() and q.total_degree() == datum.r_k)
        span = orbit_span(weyl_dim_poly(datum), datum)
        assert span.contains(q)


def test_vanishing_for_small_gk_dimension():
    fams = sl2_families()
    for name, fam in fams.items():
        gap = fam.datum.r_g - fam.datum.r_k
        if fam.gk_dim is not None and fam.gk_dim < gap:
            assert index_polynomial(fam).is_zero()
    # the finite-dimensional family is the case that actually triggers
    assert fams["F"].gk_dim == 0 < 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chamber_sign_matches_extreme_weight_models(n):
    """Independent derivation of the discrete-series index sign at both
    extreme chambers of SU(n,1).

    At the lowest-weight extreme the module is E_L (x) S(p+) with
    L = lam + rho_g - 2 rho_k, and multiplying its compact character by
    ch(S+ - S-) = e^{-rho_n} prod (1 - e^beta) telescopes every symmetric
    algebra factor away, leaving + E_{L - rho_n}.  At the highest-weight
    extreme the same telescope gives prod(-e^beta) = (-1)^q e^{2 rho_n},
    so the index is (-1)^q E_{L' + rho_n} with L' built from the opposite
    positive system.  Both reduce to the sign-normalized type at the
    parameter itself, so the model sign must equal the chamber sign."""
    from diracindex.fixtures import su_n1_chamber_base
    from diracindex.sun1 import su_n1_datum

    datum = su_n1_datum(n)
    q = datum.r_g - datum.r_k
    rho_n = sub(datum.rho_g, datum.rho_k)

    # lowest-weight extreme (chamber 0): model sign +1
    lam = su_n1_chamber_base(n, 0)
    lkt = tuple(l + g - 2 * k for l, g, k in zip(lam, datum.rho_g, datum.rho_k))
    assert sub(lkt, rho_n) == sub(lam, datum.rho_k)
    assert _ds_sign(lam, datum) == 1

    # highest-weight extreme (chamber n): model sign (-1)^q
    lam = su_n1_chamber_base(n, n)
    # rho of the opposite-noncompact system is rho_k - rho_n
    rho_opp = sub(datum.rho_k, rho_n)
    lkt = tuple(l + g - 2 * k for l, g, k in zip(lam, rho_opp, datum.rho_k))
    assert weight_add(lkt, rho_n) == sub(lam, datum.rho_k)
    model_sign = (-1) ** q
    assert _ds_sign(lam, datum) == model_sign
    # the evaluated index is exactly that sign on the normalized type
    fam = discrete_series_family(lam, datum)
    assert evaluate_index(fam, lam) == k_type_sum(datum, [(lam, model_sign)])


def test_family_action_identity_su21_all_weyl():
    rng = random.Random(6)
    for fam in su21_ds_families().values():
        for w in weyl_elements(fam.datum, "g"):
            moved = act_on_family(w, fam)
            for _ in range(3):
                lam = weight_add(
                    fam.base, tuple(F(rng.randint(-3, 3)) for _ in range(3))
                )
                winv = w.inverse()
                assert evaluate_index(moved, lam) == evaluate_index(
                    fam, winv.apply(lam)
                )


@st.composite
def zero_coordinate_families(draw):
    """Families on SOe(4,3), SOe(4,4) and Sp(1,2); the base often has a zero
    in the first compact block (a D block for the two orthogonal groups)."""
    group = draw(st.sampled_from(
        [GroupId.so_even_odd(2, 1), GroupId.so_even_even(2, 2), GroupId.sp_pq(1, 2)]
    ))
    datum = build_root_datum(group)
    den = draw(st.sampled_from((1, 2)))
    nums = draw(st.lists(st.integers(-5, 5), min_size=group.rank, max_size=group.rank))
    if draw(st.booleans()):
        nums[draw(st.integers(0, group.p - 1))] = 0
    elements = weyl_elements(datum, "g")
    coeffs = {}
    for i, a in draw(st.lists(
        st.tuples(st.integers(0, len(elements) - 1), st.integers(-3, 3)), max_size=8
    )):
        coeffs[elements[i]] = coeffs.get(elements[i], 0) + a
    return IndexFamily(datum, tuple(F(n, den) for n in nums), coeffs)


@settings(max_examples=100, deadline=None)
@given(zero_coordinate_families(), st.data())
def test_index_family_replace_rebuilds_the_same_family(fam, data):
    assert fam.replace() == fam
    # integral Fractions are stored as ints, zeros dropped
    as_fractions = {w: F(2 * a, 2) for w, a in fam.coeffs.items()}
    zero = data.draw(st.sampled_from(weyl_elements(fam.datum, "g")))
    as_fractions.setdefault(zero, F(0))
    assert fam.replace(coeffs=as_fractions) == fam


def test_index_family_refuses_a_rational_coefficient():
    d = build_root_datum(GroupId.su(2, 1))
    e = WeylElement.identity(3)
    with pytest.raises(NonIntegralCoefficient, match="coefficient 1/2 of ") as caught:
        IndexFamily(d, W(3, 2, 1), {e: F(1, 2)})
    assert isinstance(caught.value, DiracIndexError) and isinstance(caught.value, ValueError)
    fam = IndexFamily(d, W(3, 2, 1), {e: F(4, 2)})
    assert fam.coeffs == {e: 2} and type(fam.coeffs[e]) is int


def _integral_by_solver(w, base, datum):
    """Reference root-lattice test: solve for base - w(base) over the simple
    roots and ask for integral coefficients."""
    diff = sub(base, w.apply(base))
    simples = simple_roots(datum)
    rows = [[alpha[i] for alpha in simples] for i in range(datum.rank)]
    sol = solve_linear(rows, list(diff))
    return sol is not None and all(c.denominator == 1 for c in sol)


LATTICE_DATA = [
    build_root_datum(g)
    for g in (
        GroupId.su(1, 1), GroupId.su(2, 1), GroupId.su(2, 2),
        GroupId.so_even_odd(1, 0), GroupId.so_even_odd(2, 1),
        GroupId.sp_r(1), GroupId.sp_r(3), GroupId.sp_pq(1, 2),
        GroupId.so_even_even(1, 1), GroupId.so_even_even(2, 2),
        GroupId.so_star(1), GroupId.so_star(3),
    )
]


@st.composite
def signed_permutations_and_bases(draw):
    """A datum, any signed permutation of its rank (W_g or not) and a base
    with denominators up to 4."""
    datum = draw(st.sampled_from(LATTICE_DATA))
    rank = datum.rank
    perm = tuple(draw(st.permutations(range(rank))))
    signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank)))
    den = draw(st.sampled_from((1, 1, 2, 3, 4)))
    nums = draw(st.lists(st.integers(-8, 8), min_size=rank, max_size=rank))
    return WeylElement(perm, signs), tuple(F(n, den) for n in nums), datum


SO_STAR_2 = build_root_datum(GroupId.so_star(1))


@settings(max_examples=400, deadline=None)
@given(signed_permutations_and_bases())
@example((WeylElement((0,), (-1,)), W(F(1, 2)), SO_STAR_2))
@example((WeylElement((0,), (-1,)), W(1), SO_STAR_2))
@example((WeylElement((0,), (-1,)), W(0), SO_STAR_2))
@example((WeylElement((0, 1), (-1, 1)), W(F(1, 2), 0), build_root_datum(GroupId.sp_r(2))))
@example((WeylElement((0, 1), (-1, 1)), W(1, 0), build_root_datum(GroupId.so_even_odd(1, 1))))
@example((WeylElement((1, 0, 2), (1, 1, -1)), W(2, 1, 1), build_root_datum(GroupId.su(2, 1))))
def test_is_integral_weyl_matches_solver(case):
    w, base, datum = case
    assert is_integral_weyl(w, base, datum) == _integral_by_solver(w, base, datum)


# Every group of the six families up to rank 4, the rootless SO*(2) included.
INDEX_DATA = [build_root_datum(g) for g in table_groups(4) if g.rank <= 4]
SP4 = build_root_datum(GroupId.sp_r(2))


@st.composite
def family_recipes(draw):
    """(datum, base, [(i, c), ...]): the family sum_i c * (w_i . X) for the
    discrete series X at base and w_i the i-th element of W_g."""
    datum = draw(st.sampled_from(INDEX_DATA))
    elements = weyl_elements(datum, "g")
    # (2k + 1) rho_g and its W_g translates are regular points of Lambda + rho_g.
    w = elements[draw(st.integers(0, len(elements) - 1))]
    odd = 2 * draw(st.integers(0, 2)) + 1
    base = w.apply(tuple(odd * r for r in datum.rho_g))
    terms = draw(st.lists(
        st.tuples(st.integers(0, len(elements) - 1), st.integers(-3, 3)), max_size=6
    ))
    return datum, base, terms


@settings(max_examples=200, deadline=None)
@given(family_recipes())
@example((SO_STAR_2, SO_STAR_2.rho_g, [(0, 2)]))
@example((SO_STAR_2, SO_STAR_2.rho_g, [(0, 1), (0, -1)]))
@example((SP4, SP4.rho_g, [(0, 3), (5, 1), (0, -3), (5, -1)]))
# Element 4 of W_g(Sp(4,R)) swaps the coordinates, the compact reflection:
# two nonzero coefficients whose translates of D_k cancel.
@example((SP4, SP4.rho_g, [(0, 1), (4, 1)]))
# One coefficient +-1 or +-2, on the identity and on another element.
@example((SP4, SP4.rho_g, [(0, 1)]))
@example((SP4, SP4.rho_g, [(0, -1)]))
@example((SP4, SP4.rho_g, [(5, 2)]))
@example((SP4, SP4.rho_g, [(5, -2)]))
def test_index_polynomial_matches_fraction_oracle(recipe):
    datum, base, terms = recipe
    elements = weyl_elements(datum, "g")
    source = discrete_series_family(base, datum)
    fam = IndexFamily(datum, base, {})
    for i, c in terms:
        fam = family_combination(fam, act_on_family(elements[i], source), 1, c)
    den, width, num = weyl_dim_poly(datum)._int_form()
    before = (den, width, dict(num))
    q = index_polynomial(fam)
    assert q == ref.index_polynomial(fam) and q._int_form() == ref.index_polynomial(fam)._int_form()
    # the cached D_k, which a one-term Q may share, is unchanged
    den, width, num = weyl_dim_poly(datum)._int_form()
    assert (den, width, num) == before
    assert all(type(c) is F for c in q.terms.values())
    dk = weyl_dim_poly(datum)
    for w in fam.coeffs:
        assert act(w, dk) == ref.act(w, dk)


@settings(max_examples=100, deadline=None)
@given(family_recipes(), st.data())
def test_index_polynomial_evaluates_dk_at_w_lam(recipe, data):
    """Q(lam) = sum_w a_w D_k(w lam) on multi-term families of rank <= 4,
    at rational points: act(w^{-1}, D_k) at lam is D_k(w lam)."""
    datum, base, terms = recipe
    elements = weyl_elements(datum, "g")
    source = discrete_series_family(base, datum)
    fam = IndexFamily(datum, base, {})
    for i, c in terms:
        fam = family_combination(fam, act_on_family(elements[i], source), 1, c)
    assume(len(fam.coeffs) > 1)
    q, dk = index_polynomial(fam), weyl_dim_poly(datum)
    for _ in range(3):
        den = data.draw(st.integers(1, 3))
        lam = tuple(F(data.draw(st.integers(-6, 6)), den) for _ in range(datum.rank))
        assert q.evaluate(lam) == sum(a * dk.evaluate(w.apply(lam)) for w, a in fam.coeffs.items())


def test_index_polynomial_is_not_dk_at_w_inverse_lam():
    """A 3-cycle w of Sp(6,R), with w != w^-1: Q of the family a_w = a is
    a D_k(w lam), which differs from a D_k(w^-1 lam) at a generic point;
    evaluate_q reads the same value from the root products."""
    datum = build_root_datum(GroupId.sp_r(3))
    w = WeylElement((1, 2, 0), (1, -1, 1))
    assert w != w.inverse()
    dk = weyl_dim_poly(datum)
    lam = (F(5), F(2), F(-1))
    for a in (1, -1, 3):
        fam = IndexFamily(datum, datum.rho_g, {w: a})
        q = index_polynomial(fam)
        assert q.evaluate(lam) == a * dk.evaluate(w.apply(lam)) != a * dk.evaluate(
            w.inverse().apply(lam))
        assert evaluate_q(fam, lam) == q.evaluate(lam)
        assert type(evaluate_q(fam, lam)) is F


@settings(max_examples=200, deadline=None)
@given(family_recipes(), st.integers(0, 2**32))
@example((SO_STAR_2, SO_STAR_2.rho_g, [(0, 1), (0, -1)]), 0)
@example((SP4, SP4.rho_g, [(0, 1), (4, 1)]), 0)
@example((SP4, SP4.rho_g, [(0, -1), (5, 2)]), 0)
def test_evaluate_q_matches_expanded_q(recipe, seed):
    """evaluate_q(fam, lam) is index_polynomial(fam).evaluate(lam) on
    multi-term families of rank <= 4, at points of the base coset and at
    rational points off it, where Q is a polynomial all the same."""
    datum, base, terms = recipe
    elements = weyl_elements(datum, "g")
    source = discrete_series_family(base, datum)
    fam = IndexFamily(datum, base, {})
    for i, c in terms:
        fam = family_combination(fam, act_on_family(elements[i], source), 1, c)
    q = index_polynomial(fam)
    rng = random.Random(seed)
    for _ in range(3):
        on_coset = weight_add(base, tuple(F(rng.randint(-5, 5)) for _ in base))
        den = rng.randint(1, 4)
        anywhere = tuple(F(rng.randint(-7, 7), den) for _ in base)
        for lam in (on_coset, anywhere):
            assert evaluate_q(fam, lam) == q.evaluate(lam)
    assert evaluate_q(fam, on_coset) == dim_virtual(evaluate_index(fam, on_coset))


# The table groups of rank <= 6, SO*(2) included.
TABLE_DATA_6 = [build_root_datum(g) for g in table_groups(6) if g.rank <= 6]


@pytest.mark.parametrize("datum", TABLE_DATA_6, ids=lambda d: d.group.label())
def test_evaluate_q_matches_expanded_q_on_discrete_series(datum):
    """The discrete-series family of rho_g has Q = +-D_k; the product
    evaluator agrees with the expanded polynomial at a few points."""
    fam = discrete_series_family(datum.rho_g, datum)
    q = index_polynomial(fam)
    rng = random.Random(datum.group.label())
    points = [datum.rho_g]
    for den in (1, 1, 2, 3):
        points.append(tuple(F(rng.randint(-9, 9), den) for _ in range(datum.rank)))
    for lam in points:
        assert evaluate_q(fam, lam) == q.evaluate(lam)
    assert evaluate_q(fam, datum.rho_g) == dim_virtual(evaluate_index(fam, datum.rho_g))


RANK3_DATA = [build_root_datum(g) for g in table_groups(3) if g.rank <= 3]


@st.composite
def integer_families(draw):
    """An index family on rho_g with integer coefficients, zero to six of
    them, on elements of W_g of a table group of rank <= 3."""
    datum = draw(st.sampled_from(RANK3_DATA))
    elements = weyl_elements(datum, "g")
    picks = st.tuples(st.sampled_from(elements), st.integers(-4, 4))
    return IndexFamily(datum, datum.rho_g, dict(draw(st.lists(picks, max_size=6))))


@settings(max_examples=300, deadline=None)
@given(integer_families())
def test_index_polynomial_of_integer_families_matches_fraction_oracle(fam):
    q = index_polynomial(fam)
    assert q._int_form() == ref.index_polynomial(fam)._int_form()


@st.composite
def multi_term_families(draw):
    """An index family on rho_g with two to eight distinct elements of W_g
    of a table group of rank <= 3, each with a nonzero coefficient."""
    datum = draw(st.sampled_from([d for d in RANK3_DATA if len(weyl_elements(d, "g")) > 1]))
    elements = draw(st.lists(
        st.sampled_from(weyl_elements(datum, "g")), min_size=2, max_size=8, unique=True))
    coeffs = st.integers(-9, 9).filter(bool)
    return IndexFamily(datum, datum.rho_g, {w: draw(coeffs) for w in elements})


@settings(max_examples=200, deadline=None)
@given(multi_term_families())
def test_multi_term_index_polynomial_sums_once(fam):
    """The one-normalization sum equals the Fraction reference and the sum
    of normalized translates, integer form and all."""
    q = index_polynomial(fam)
    assert q._int_form() == ref.index_polynomial(fam)._int_form()
    dk = weyl_dim_poly(fam.datum)
    ring_sum = sum((act(w.inverse(), dk) * a for w, a in fam.coeffs.items()),
                   MultiPoly.zero(fam.datum.rank))
    assert q._int_form() == ring_sum._int_form()


@pytest.mark.parametrize("datum", RANK3_DATA, ids=lambda d: d.group.label())
def test_one_term_index_polynomial_is_its_translate(datum):
    dk = weyl_dim_poly(datum)
    for w in weyl_elements(datum, "g")[:4]:
        for a in (1, -1, 3):
            fam = IndexFamily(datum, datum.rho_g, {w: a})
            q = index_polynomial(fam)
            assert q._int_form() == ref.index_polynomial(fam)._int_form()
            assert q == act(w.inverse(), dk) * a
    # a discrete-series family with sign +1 keeps the numerator of D_k
    q = index_polynomial(IndexFamily(datum, datum.rho_g, {WeylElement.identity(datum.rank): 1}))
    assert q._int_form()[2] is dk._int_form()[2]


def _family_points(datum, rng):
    """rho_g plus small integer shifts, many of them singular; an SU trace
    shift or, for B and D ambients, a half-integer shift moves some off
    the shifted lattice."""
    points = []
    for _ in range(40):
        shift = [F(rng.randint(-2, 2)) for _ in range(datum.rank)]
        if rng.random() < 0.3:
            t = F(1, 2) if datum.ambient.kind != "A" else F(rng.randint(1, 5), rng.randint(2, 6))
            shift = [c + t for c in shift]
        points.append(weight_add(datum.rho_g, tuple(shift)))
    return points


@pytest.mark.parametrize("datum", INDEX_DATA, ids=lambda d: d.group.label())
def test_family_sign_and_refusals_match_the_two_pass_definition(datum):
    """discrete_series_family decides regularity and the chamber sign in
    one pass; the refusals keep their texts, and the sign is that of the
    definition: -1 to the number of positive noncompact roots that lam
    makes negative, counted apart from the regularity test."""
    for lam in _family_points(datum, random.Random(datum.group.label())):
        text = ",".join(str(F(c)) for c in lam)
        if not ref.on_lattice(datum, sub(lam, datum.rho_g)):
            with pytest.raises(OffLattice) as off:
                discrete_series_family(lam, datum)
            assert str(off.value) == f"({text}) is not on the shifted lattice Lambda + rho_g"
            continue
        if any(dot(lam, alpha) == 0 for alpha in datum.positive_roots):
            with pytest.raises(SingularParameter) as singular:
                discrete_series_family(lam, datum)
            assert str(singular.value) == f"({text}) is singular"
            with pytest.raises(SingularParameter) as singular:
                index_discrete_series(lam, datum)
            assert str(singular.value) == f"{lam} is singular"
            continue
        flips = sum(1 for beta in datum.noncompact_positive_roots if dot(lam, beta) < 0)
        fam = discrete_series_family(lam, datum)
        assert fam.coeffs == {WeylElement.identity(datum.rank): (-1) ** flips}
        assert fam.base_form == int_form(lam)
        assert index_discrete_series(lam, datum) == evaluate_index(fam, lam)
