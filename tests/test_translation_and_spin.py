"""Translation checks, tensoring and spin series against the Fraction
references, and the contracts of the K-type normalization cache.

They run on random groups of rank <= 4, on multi-term families, and on
type C and D data restricted to the weights of even coordinate sum, a
lattice that holds every root but not the weights of the standard
module, with modules of several K-types.
"""

from fractions import Fraction as F
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from diracindex import dirac, kmodules
from diracindex.dirac import (
    IndexFamily,
    act_on_family,
    discrete_series_family,
    family_combination,
    spin_character_series,
    spin_weights,
    verify_translation,
)
from diracindex.errors import DimensionMismatch, OffLattice
from diracindex.groups import GroupId, build_root_datum, normalize_k_dominant, weyl_elements
from diracindex.kmodules import (
    K_TYPE_CACHE_SIZE,
    WeightMultiset,
    _k_dominant,
    _numerator_frequencies,
    _weight_forms,
    k_type_sum,
    tensor_virtual,
    weight_multiset,
)
from diracindex.suites import _small_groups
import reference as ref
from reference import add, highest_weight, parameters

SMALL_DATA = [build_root_datum(g) for g in _small_groups(4)]
EVEN_DATA = [d for d in SMALL_DATA if d.ambient.kind in ("C", "D")]
SP4 = build_root_datum(GroupId.sp_r(2))
SU21 = build_root_datum(GroupId.su(2, 1))


def _even(datum):
    """The datum with Lambda restricted to the integral weights of even
    coordinate sum: on a type C or D datum a W-stable group that holds
    every root but no weight of the standard module."""
    return datum.replace(
        lattice=lambda den, nums: all(n % den == 0 for n in nums) and sum(nums) % (2 * den) == 0)


# -- inputs --------------------------------------------------------------------


@st.composite
def families(draw, datum):
    """sum_i c_i (w_i . X) over one to four elements w_i of W_g, X the
    discrete series at a W_g-translate of rho_g or 3 rho_g, built by
    family_combination, so most coefficients sit off the identity."""
    elements = weyl_elements(datum, "g")
    odd = draw(st.sampled_from([1, 3]))
    base = draw(st.sampled_from(elements)).apply(tuple(odd * r for r in datum.rho_g))
    source = discrete_series_family(base, datum)
    fam = IndexFamily(datum, base, {})
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.sampled_from(elements))
        fam = family_combination(fam, act_on_family(w, source), 1, draw(st.integers(-3, 3)))
    return fam


@st.composite
def translation_cases(draw):
    """(family, highest weight, lam): a family on a group of rank <= 4,
    sometimes with its base moved off Lambda + rho_g, translated by the
    trivial, standard or adjoint module at a point of its base coset; on
    a type C or D datum sometimes restricted to even coordinate sums, where
    the check refuses the standard module, whose weights leave Lambda."""
    datum = draw(st.sampled_from(SMALL_DATA))
    fam = draw(families(datum))
    module = draw(st.sampled_from(["trivial", "standard", "adjoint"]))
    highest = (F(0),) * datum.rank if module == "trivial" else highest_weight(datum, module)
    even = datum in EVEN_DATA and draw(st.booleans())
    if even:
        fam = fam.replace(datum=_even(datum))
    if draw(st.booleans()):
        fam = fam.replace(base=add(fam.base, (F(1, 2),) + (F(0),) * (datum.rank - 1)))
    step = 2 if even else 1
    lam = add(fam.base, tuple(F(step * draw(st.integers(-2, 2))) for _ in range(datum.rank)))
    return fam, highest, lam


def even_parameters(datum):
    """rho_g + 2v for an integer vector v: a parameter on the even
    sublattice's Lambda + rho_g."""
    steps = st.lists(st.integers(-2, 2), min_size=datum.rank, max_size=datum.rank)
    return steps.map(lambda v: add(datum.rho_g, tuple(F(2 * c) for c in v)))


def _run_with_tensor_spy(fam, highest, lam):
    """(verify_translation's result, the left sides it tensored)."""
    seen = []
    real = dirac.tensor_virtual

    def spy(module, delta):
        out = real(module, delta)
        seen.append(out)
        return out

    with mock.patch.object(dirac, "tensor_virtual", spy):
        holds = verify_translation(fam, highest, lam)
    return holds, seen


# -- reference properties -----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(translation_cases())
def test_translation_matches_per_term_oracle(case):
    """The result, the raised OffLattice and the point it names, and the
    left side I(X_lam) (x) F all match the reference, which tests the
    lattice and normalizes per term; when no w lam lies on Lambda + rho_g
    nothing is tensored and the reference's left side is zero."""
    fam, highest, lam = case
    off = ref.off_coset_points(fam, highest, lam)
    if off:
        with pytest.raises(OffLattice) as info:
            verify_translation(fam, highest, lam)
        # lam is checked before any lam + mu
        named = [lam] if lam in off else off
        assert str(info.value) in {f"{p} is not in base + Lambda" for p in named}
        return
    holds, left = ref.verify_translation(fam, highest, lam)
    got, seen = _run_with_tensor_spy(fam, highest, lam)
    assert got == holds
    assert len(seen) <= 1
    if seen:
        assert seen[0].coeffs == left
    else:
        assert not left


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tensor_on_the_even_sublattice_matches_per_term_oracle(data):
    """Modules of several K-types on the even-sum lattice of a type C or D
    datum, by the trivial, standard and adjoint modules: the weights off
    Lambda drop out exactly as the reference's per-term lattice test drops
    their terms.  (On the package's own lattices test_int_weights checks
    tensoring against the reference.)"""
    datum = _even(data.draw(st.sampled_from(EVEN_DATA)))
    terms = [(data.draw(even_parameters(datum)), data.draw(st.integers(-3, 3)))
             for _ in range(data.draw(st.integers(2, 6)))]
    module = k_type_sum(datum, terms)
    assert module.coeffs == ref.k_type_sum(datum, terms)
    module_name = data.draw(st.sampled_from(["trivial", "standard", "adjoint"]))
    highest = (F(0),) * datum.rank if module_name == "trivial" else \
        highest_weight(datum, module_name)
    delta = weight_multiset(highest, datum)
    tensored = tensor_virtual(module, delta)
    assert tensored.coeffs == ref.tensor_virtual(datum, module.coeffs, delta.mults)


def test_even_sublattice_drops_weights_and_refuses_translation():
    """On the even-sum lattice of Sp(4,R) every adjoint weight stays, as
    the roots and 0 do, and every standard weight +-e_i drops out; the
    translation by the adjoint module holds, and by the standard module
    the check names the first point off the coset."""
    even = _even(SP4)
    module = k_type_sum(even, [(add(even.rho_g, (F(2), F(0))), 1), (even.rho_g, 2)])
    assert len(module.forms) == 2
    adjoint = weight_multiset((F(2), F(0)), even)
    assert all(even.lattice(*mu) for mu in adjoint.forms)
    tensored = tensor_virtual(module, adjoint)
    assert tensored.coeffs == ref.tensor_virtual(even, module.coeffs, adjoint.mults)
    assert not tensored.is_zero()
    standard = weight_multiset((F(1), F(0)), even)
    assert not any(even.lattice(*mu) for mu in standard.forms)
    assert tensor_virtual(module, standard).is_zero()
    fam = discrete_series_family(even.rho_g, even)
    assert verify_translation(fam, (F(2), F(0)), even.rho_g)
    with pytest.raises(OffLattice, match="is not in base"):
        verify_translation(fam, (F(1), F(0)), even.rho_g)


def test_a_lattice_that_holds_no_root_is_refused():
    """Lambda holds the root lattice of every cover.  The even sublattice
    2Z^n of SU(1,2) holds no root, and on it a dominant representative
    could leave Lambda + rho_g: (1, 0, 1) normalizes to (1, 1, 0).  The
    datum is refused when it is built, naming the first positive root
    the predicate rejects."""
    su12 = build_root_datum(GroupId.su(1, 2))
    with pytest.raises(OffLattice, match=r"\(1, -1, 0\)"):
        su12.replace(lattice=lambda den, nums: all(n % (2 * den) == 0 for n in nums))


@pytest.mark.parametrize("datum", [SU21, SP4, build_root_datum(GroupId.sp_pq(1, 3))],
                         ids=lambda d: d.group.label())
def test_base_off_the_shifted_lattice_holds_without_building_a_side(datum):
    """A family whose base is off Lambda + rho_g has zero on both sides:
    the check holds, as the reference's does, and normalizes nothing."""
    half = (F(1, 2),) + (F(0),) * (datum.rank - 1)
    base = add(datum.rho_g, half)
    elements = weyl_elements(datum, "g")
    fam = IndexFamily(datum, base, {elements[0]: 1, elements[-1]: -2})
    lam = add(base, (F(1),) * datum.rank)
    highest = highest_weight(datum, "adjoint")
    holds, left = ref.verify_translation(fam, highest, lam)
    assert holds and not left
    with mock.patch.object(dirac, "_sum_on_lattice", side_effect=AssertionError):
        assert verify_translation(fam, highest, lam)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spin_series_matches_idot_oracle(data):
    """Orders 0-12, directions over a denominator 1-6 with zero entries
    allowed, the zero direction included."""
    datum = data.draw(st.sampled_from(SMALL_DATA))
    den = data.draw(st.integers(1, 6))
    y = tuple(F(data.draw(st.integers(-9, 9)), den) for _ in range(datum.rank))
    order = data.draw(st.integers(0, 12))
    assert spin_character_series(datum, y, order) == ref.spin_character_series(datum, y, order)


@pytest.mark.parametrize("datum", SMALL_DATA, ids=lambda d: d.group.label())
def test_spin_series_matches_idot_oracle_on_every_small_group(datum):
    ys = [(F(0),) * datum.rank, tuple(F(3 * k - 7, 2) for k in range(datum.rank))]
    for y in ys:
        for order in (0, 12):
            assert spin_character_series(datum, y, order) == \
                ref.spin_character_series(datum, y, order)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_numerator_frequencies_match_idot_oracle(data):
    """Modules of several K-types with denominators 1-6 (SU trace shifts),
    and directions with zero entries."""
    datum = data.draw(st.sampled_from(SMALL_DATA))
    terms = [(data.draw(parameters(datum)), data.draw(st.integers(-3, 3)))
             for _ in range(data.draw(st.integers(1, 5)))]
    module = k_type_sum(datum, terms)
    y_den = data.draw(st.integers(1, 6))
    y = tuple(F(data.draw(st.integers(-9, 9)), y_den) for _ in range(datum.rank))
    den, freqs = _numerator_frequencies(module, datum.form(y))
    assert {F(f, den): c for f, c in freqs.items()} == \
        ref.numerator_frequencies(datum, module.coeffs, y)


# -- the normalization cache and the copies ---------------------------------------------


def test_k_type_cache_is_a_bounded_module_level_lru_cache():
    assert vars(kmodules)["_k_dominant"] is _k_dominant
    assert callable(_k_dominant.cache_clear)
    assert _k_dominant.cache_info().maxsize == K_TYPE_CACHE_SIZE
    # the public entry stays uncached
    assert not hasattr(normalize_k_dominant, "cache_info")


def test_k_type_cache_stays_bounded_over_a_sweep():
    """More distinct parameters than the bound, one sum each: the cache
    ends at or below the bound, and every sum, some normalized after an
    eviction, equals the uncached one."""
    bound = K_TYPE_CACHE_SIZE
    rho = SU21.rho_g
    gammas = [add(rho, (F(i), F(j), F(0))) for i in range(bound // 64 + 2) for j in range(64)]
    assert len(gammas) > bound
    _k_dominant.cache_clear()
    swept = [k_type_sum(SU21, [(gamma, 1)]) for gamma in gammas]
    info = _k_dominant.cache_info()
    assert info.maxsize == bound and info.currsize <= bound
    assert info.misses == len(gammas)
    for gamma, module in zip(gammas, swept):
        assert module.coeffs == ref.k_type_sum(SU21, [(gamma, 1)])
    # evicted and cached parameters again, warm
    assert [k_type_sum(SU21, [(g, 1)]) for g in gammas[:50] + gammas[-50:]] == \
        swept[:50] + swept[-50:]


def test_wrong_length_raises_after_a_right_length_form_is_cached():
    _k_dominant.cache_clear()
    rho = SU21.rho_g
    assert not k_type_sum(SU21, [(rho, 1)]).is_zero()
    assert _k_dominant.cache_info().currsize == 1
    for wrong in (rho[:2], rho + (F(0),)):
        with pytest.raises(DimensionMismatch):
            k_type_sum(SU21, [(rho, 1), (wrong, 1)])
        with pytest.raises(DimensionMismatch):
            _k_dominant(SU21, SU21.form(rho)[1][:2] if len(wrong) < 3 else (1, 0, -1, 0))
    assert _k_dominant.cache_info().currsize == 1


def test_weight_multiset_forms_are_the_callers_own():
    highest = (F(2), F(0))
    delta = weight_multiset(highest, SP4)
    cached = _weight_forms(SP4, highest)
    before = dict(cached)
    assert type(delta.forms) is dict and delta.forms == before
    delta.forms.clear()
    delta.forms[(1, (9, 9))] = 5
    assert dict(_weight_forms(SP4, highest)) == before
    assert weight_multiset(highest, SP4).forms == before
    plus = spin_weights(SP4).plus
    plus.forms.clear()
    assert spin_weights(SP4).plus.forms


@pytest.mark.parametrize("m", [0, -1])
def test_weight_multiset_refuses_a_nonpositive_multiplicity_from_a_proxy(m):
    forms = MappingProxyType({(1, (1, 0)): 2, (1, (0, 1)): m})
    with pytest.raises(ValueError, match="positive"):
        WeightMultiset(forms=forms)
    assert type(WeightMultiset(forms=MappingProxyType({(1, (1, 0)): 2})).forms) is dict
