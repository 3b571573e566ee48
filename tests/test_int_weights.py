"""Integer weights against the Fraction references.

The public functions of `groups`, `kmodules`, `dirac` and `asymptotics`
store weights as integer numerators over one denominator; they must agree
with the Fraction references of `reference` on random groups of rank
<= 4, lattice and off-lattice parameters (SU trace shifts with
denominators 2-6, half-integral B and D parameters) and directions with
denominators 1-6.  Also: every public function that takes a weight
refuses a wrong length, and no float leaks out of integer-only roots.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from diracindex.asymptotics import (
    character_series,
    leading_limit,
    root_ratio,
)
from diracindex.dirac import (
    _chamber_sign,
    discrete_series_family,
    evaluate_index,
    evaluate_q,
    spin_character_series,
    spin_weights,
    verify_translation,
)
from diracindex.errors import DimensionMismatch
from diracindex.groups import (
    Family,
    GroupId,
    build_root_datum,
    weyl_elements,
)
from diracindex.kmodules import (
    VirtualKModule,
    WeightMultiset,
    _check_regular,
    _numerator_frequencies,
    dim_virtual,
    k_type_sum,
    tensor_virtual,
    weight_multiset,
    weyl_denominator_factored,
)
from diracindex.suites import _small_groups
from diracindex.weylaction import weyl_dim_value, weyl_dim_value_g
import reference as ref
from reference import add, directions, dominant_rep_g, fdot, highest_weight, pairing, parameters, sub

SMALL_GROUPS = _small_groups(4)


# -- inputs --------------------------------------------------------------------


@st.composite
def regular_parameters(draw, datum):
    """A W_g-translate of rho_g plus a weakly decreasing shift of
    nonnegative integers (and, for SU, of a trace shift): regular and on
    the shifted lattice."""
    steps = draw(st.lists(st.integers(0, 2), min_size=datum.rank, max_size=datum.rank))
    shift = [F(sum(steps[i:])) for i in range(datum.rank)]
    if datum.group.family == Family.SU:
        t = F(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
        shift = [c + t for c in shift]
    w = draw(st.sampled_from(weyl_elements(datum, "g")))
    return w.apply(add(datum.rho_g, tuple(shift)))


data_groups = st.sampled_from(SMALL_GROUPS).map(build_root_datum)


# -- oracle properties -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_k_type_sum_and_tensor_match_fraction_oracle(data):
    datum = data.draw(data_groups)
    terms = [(data.draw(parameters(datum)), data.draw(st.integers(-3, 3)))
             for _ in range(data.draw(st.integers(0, 5)))]
    module = k_type_sum(datum, terms)
    expected = ref.k_type_sum(datum, terms)
    assert module.coeffs == expected
    assert module == VirtualKModule(datum, module.coeffs)
    highest = highest_weight(datum, data.draw(st.sampled_from(["standard", "adjoint", "spin"])))
    delta = weight_multiset(highest, datum)
    assert delta.mults == ref.weight_multiset(highest, datum)
    tensored = tensor_virtual(module, delta)
    assert tensored.coeffs == ref.tensor_virtual(datum, expected, delta.mults)
    assert tensored == VirtualKModule(datum, tensored.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weight_multiset_of_random_dominant_weights_matches_fraction_oracle(data):
    datum = data.draw(data_groups)
    half = datum.ambient.kind in ("B", "D") and data.draw(st.booleans())
    coords = [data.draw(st.integers(-2, 2)) + F(half, 2) for _ in range(datum.rank)]
    highest = dominant_rep_g(datum, tuple(coords))
    assume(all(pairing(highest, alpha).denominator == 1 for alpha in datum.positive_roots))
    assert weight_multiset(highest, datum).mults == ref.weight_multiset(highest, datum)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.label())
def test_spin_weights_match_fraction_oracle(group):
    datum = build_root_datum(group)
    plus, minus = ref.spin_weights(datum)
    sw = spin_weights(datum)
    assert (sw.plus.mults, sw.minus.mults) == (plus, minus)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_match_fraction_oracle(data):
    datum = data.draw(data_groups)
    y = data.draw(directions(datum))
    order = data.draw(st.integers(0, 6))
    for which in ("g", "k"):
        assert weyl_denominator_factored(datum, y, which, order) == \
            ref.weyl_denominator_factored(datum, y, which, order)
    terms = [(data.draw(parameters(datum)), data.draw(st.integers(-3, 3))) for _ in range(3)]
    module = k_type_sum(datum, terms)
    den, freqs = _numerator_frequencies(module, datum.form(y))
    assert {F(f, den): c for f, c in freqs.items()} == \
        ref.numerator_frequencies(datum, module.coeffs, y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_character_series_and_translation_match_fraction_oracle(data):
    datum = data.draw(data_groups)
    fam = discrete_series_family(data.draw(regular_parameters(datum)), datum)
    offset = tuple(F(data.draw(st.integers(-3, 3))) for _ in range(datum.rank))
    lam = add(fam.base, offset)
    y = data.draw(directions(datum))
    assert character_series(fam, lam, y, 4) == ref.character_series(fam, lam, y, 4)
    # the weights of a B or D spin module leave the family's coset
    modules = ["standard", "adjoint"] + ["spin"] * (datum.ambient.kind == "A")
    highest = highest_weight(datum, data.draw(st.sampled_from(modules)))
    holds, left = ref.verify_translation(fam, highest, lam)
    assert verify_translation(fam, highest, lam) == holds
    assert tensor_virtual(evaluate_index(fam, lam), weight_multiset(highest, datum)).coeffs == left


# The seven groups of the benchmark's character workload, where the
# numerator has up to about 80 frequencies (Sp(1,3)).
CHARACTER_BENCH_GROUPS = [
    GroupId.su(1, 2),
    GroupId.su(2, 1),
    GroupId.so_even_odd(2, 1),
    GroupId.sp_r(4),
    GroupId.sp_pq(1, 3),
    GroupId.so_even_even(2, 2),
    GroupId.so_star(4),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_character_series_and_limits_match_fraction_oracle_on_bench_groups(data):
    """Orders 6-14 of the series, and the limits that leading_limit reads."""
    datum = build_root_datum(data.draw(st.sampled_from(CHARACTER_BENCH_GROUPS)))
    fam = discrete_series_family(data.draw(regular_parameters(datum)), datum)
    lam = add(fam.base, tuple(F(data.draw(st.integers(-2, 2))) for _ in range(datum.rank)))
    y = data.draw(directions(datum))
    order = data.draw(st.integers(6, 14))
    series = character_series(fam, lam, y, order)
    assert series.series.order == order
    assert series == ref.character_series(fam, lam, y, order)
    gap = datum.r_g - datum.r_k
    for d in (gap, gap + 1, gap + 2):
        assert leading_limit(fam, lam, y, d) == ref.leading_limit(fam, lam, y, d)


# -- the constructors --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_public_constructor_validates_and_trusted_sums_agree(data):
    datum = data.draw(data_groups)
    gamma = data.draw(parameters(datum))
    dominant = all(fdot(gamma, a) > 0 for a in datum.compact_positive_roots)
    if dominant and ref.on_lattice(datum, sub(gamma, datum.rho_g)):
        assert VirtualKModule(datum, {gamma: 2}).coeffs == {gamma: 2}
    else:
        with pytest.raises(ValueError):
            VirtualKModule(datum, {gamma: 2})
    terms = [(data.draw(parameters(datum)), data.draw(st.integers(-3, 3))) for _ in range(4)]
    module = k_type_sum(datum, terms)
    assert module == VirtualKModule(datum, module.coeffs)
    assert hash(module) == hash(VirtualKModule(datum, module.coeffs))


# -- wrong lengths -------------------------------------------------------------


def _wrong_length_calls():
    datum = build_root_datum(GroupId.su(2, 1))
    fam = discrete_series_family(datum.rho_g, datum)
    lam, y = datum.rho_g, (F(3), F(1), F(-4))
    return {
        "k_type_sum": lambda w: k_type_sum(datum, [(w, 1)]),
        "evaluate_index": lambda w: evaluate_index(fam, w),
        "weight_multiset": lambda w: weight_multiset(w, datum),
        "spin_character_series": lambda w: spin_character_series(datum, w, 3),
        "weyl_denominator_factored": lambda w: weyl_denominator_factored(datum, w, "g", 3),
        "root_ratio": lambda w: root_ratio(datum, w),
        # the private kernels take the integer form that datum.form checks
        "chamber_sign": lambda w: _chamber_sign(datum, datum.form(w)),
        "check_regular_direction": lambda w: _check_regular(datum, datum.form(w)),
        "evaluate_q": lambda w: evaluate_q(fam, w),
        "character_series/lam": lambda w: character_series(fam, w, y),
        "character_series/y": lambda w: character_series(fam, lam, w),
        "leading_limit/lam": lambda w: leading_limit(fam, w, y, 1),
        "leading_limit/y": lambda w: leading_limit(fam, lam, w, 1),
        "tensor_virtual": lambda w: tensor_virtual(evaluate_index(fam, lam), WeightMultiset({w: 1})),
        "verify_translation": lambda w: verify_translation(fam, (F(1), F(0), F(0)), w),
        "weyl_dim_value": lambda w: weyl_dim_value(datum, w),
        "is_g_regular": datum.is_g_regular,
    }


WRONG_LENGTH_CALLS = _wrong_length_calls()


@pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CALLS))
@pytest.mark.parametrize("weight", [(F(1), F(0)), (F(2), F(1), F(0), F(-1))],
                         ids=["short", "long"])
def test_wrong_length_weight_raises(name, weight):
    with pytest.raises(DimensionMismatch):
        WRONG_LENGTH_CALLS[name](weight)


# -- no floats ---------------------------------------------------------------------


def _exact(value) -> bool:
    return type(value) in (int, F)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.label())
def test_integer_roots_leak_no_float(group):
    datum = build_root_datum(group)
    assert all(_exact(c) for root in datum.positive_roots for c in root)
    assert all(_exact(c) for c in datum.rho_g + datum.rho_k)
    assert all(_exact(pairing(datum.rho_g, alpha)) for alpha in datum.positive_roots)
    assert _exact(weyl_dim_value(datum, datum.rho_g))
    assert _exact(weyl_dim_value_g(datum, datum.rho_g))
    fam = discrete_series_family(datum.rho_g, datum)
    assert _exact(dim_virtual(evaluate_index(fam, datum.rho_g)))
    y = (F(1, 2), F(7, 3), F(5), F(-11))[:datum.rank]  # regular: distinct, nonzero |y_i|
    assert _exact(root_ratio(datum, y))
    gap = datum.r_g - datum.r_k
    assert _exact(leading_limit(fam, datum.rho_g, y, gap).value)
    assert all(_exact(c) for c in spin_character_series(datum, y, 4).coeffs)
