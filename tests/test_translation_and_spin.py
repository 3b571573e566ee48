"""Translation checks, tensoring and spin series against the loops they
replaced, and the contracts of the K-type normalization cache.

The oracles are the code that `kmodules` and `dirac` ran before a lattice
test was made once per weight or family term and each parameter was
normalized once per datum: a lattice test and an uncached
`normalize_k_dominant` per term, and one `idot` per spin weight or per
(K-type, W_k element).  They run on random groups of rank <= 4, on
multi-term families, and on a datum restricted to the even sublattice,
where some module weights leave Lambda, with modules of several K-types.
"""

from fractions import Fraction as F
from math import lcm
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from diracindex import dirac, kmodules
from diracindex.dirac import (
    IndexFamily,
    _index_terms,
    _on_coset,
    act_on_family,
    discrete_series_family,
    family_combination,
    spin_character_series,
    spin_weights,
    verify_translation,
)
from diracindex.errors import DimensionMismatch, OffLattice
from diracindex.groups import (
    GroupId,
    build_root_datum,
    idot,
    int_add,
    normalize_k_dominant,
    weyl_elements,
)
from diracindex.kmodules import (
    K_TYPE_CACHE_SIZE,
    VirtualKModule,
    WeightMultiset,
    _k_dominant,
    _numerator_frequencies,
    _weight_forms,
    frequencies_to_series,
    k_type_sum,
    tensor_virtual,
    weight_multiset,
)
from diracindex.suites import _small_groups
from test_int_weights import _highest, parameters

SMALL_DATA = [build_root_datum(g) for g in _small_groups(4)]
SP4 = build_root_datum(GroupId.sp_r(2))
SU21 = build_root_datum(GroupId.su(2, 1))


def _even(datum):
    """The datum with Lambda restricted to its even sublattice 2Z^n: a
    W-stable group that holds neither every root nor every weight of the
    standard module."""
    return datum.replace(lattice=lambda den, nums: all(n % (2 * den) == 0 for n in nums))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


# -- the oracles -------------------------------------------------------------


def per_term_k_type_sum(datum, terms):
    """The former kmodules._k_type_sum: normalize, then test the lattice,
    per term."""
    acc = {}
    for form, c in terms:
        normalized = normalize_k_dominant(datum, form[1])
        if normalized is not None and datum.on_shifted_lattice_form(form):
            sign, dom = normalized
            key = (form[0], dom)
            acc[key] = acc.get(key, 0) + sign * c
    return VirtualKModule._trusted(datum, {key: c for key, c in acc.items() if c})


def per_term_tensor_virtual(module, delta):
    shifted = [(int_add(gamma, mu), c * m)
               for gamma, c in module.forms.items() for mu, m in delta.forms.items()]
    return per_term_k_type_sum(module.datum, shifted)


def per_term_verify_translation(fam, f_highest, lam):
    """(holds, left side) of the former verify_translation."""
    delta = weight_multiset(f_highest, fam.datum)
    lam = _on_coset(fam, fam.datum.form(lam))
    for mu in delta.forms:
        if not fam.datum.lattice(*mu):
            _on_coset(fam, int_add(lam, mu))
    coeffs = fam.coeffs.items()
    module = per_term_k_type_sum(fam.datum, _index_terms(coeffs, lam))
    left = per_term_tensor_virtual(module, delta)
    right = [term for mu, m in delta.forms.items()
             for term in _index_terms(coeffs, int_add(lam, mu), m)]
    return left == per_term_k_type_sum(fam.datum, right), left


def oracle_spin_character_series(datum, y, order):
    """The former spin_character_series: one idot per spin weight."""
    y_den, y_nums = datum.form(y)
    sw = spin_weights(datum)
    freqs = {}
    for sign, weights in ((1, sw.plus), (-1, sw.minus)):
        for (w_den, w), m in weights.forms.items():
            f = idot(w, y_nums) * (2 // w_den)
            freqs[f] = freqs.get(f, 0) + sign * m
    return frequencies_to_series(freqs, 2 * y_den, order)[1]


def oracle_numerator_frequencies(module, y):
    """The former _numerator_frequencies: one idot per (K-type, W_k
    element), on the integer form of y."""
    y_den, y_nums = y
    orbit = [(w.sign(), w.apply(y_nums)) for w in weyl_elements(module.datum, "k")]
    den = y_den * lcm(*(form[0] for form in module.forms))
    freqs = {}
    for (gamma_den, gamma), c in module.forms.items():
        scale = den // (gamma_den * y_den)
        for sign, wy in orbit:
            f = idot(gamma, wy) * scale
            freqs[f] = freqs.get(f, 0) + sign * c
    return den, {f: c for f, c in freqs.items() if c}


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
    trivial, standard or adjoint module at a point of its base coset; or
    on the even sublattice by a module with a weight off it, which the
    check refuses."""
    datum = draw(st.sampled_from(SMALL_DATA))
    fam = draw(families(datum))
    module = draw(st.sampled_from(["trivial", "standard", "adjoint"]))
    highest = (F(0),) * datum.rank if module == "trivial" else _highest(datum, module)
    even = module != "trivial" and draw(st.booleans())
    if even:
        fam = fam.replace(datum=_even(datum))
        # Sp(2,R) has only even adjoint weights; see the trivial-module test.
        assume(not all(fam.datum.lattice(*mu) for mu in weight_multiset(highest, datum).forms))
    if draw(st.booleans()):
        fam = fam.replace(base=_add(fam.base, (F(1, 2),) + (F(0),) * (datum.rank - 1)))
    step = 2 if even else 1
    lam = _add(fam.base, tuple(F(step * draw(st.integers(-2, 2))) for _ in range(datum.rank)))
    return fam, highest, lam


def even_parameters(datum):
    """rho_g + 2v for an integer vector v: a parameter on the even
    sublattice's Lambda + rho_g."""
    steps = st.lists(st.integers(-2, 2), min_size=datum.rank, max_size=datum.rank)
    return steps.map(lambda v: _add(datum.rho_g, tuple(F(2 * c) for c in v)))


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


# -- oracle properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(translation_cases())
def test_translation_matches_per_term_oracle(case):
    """The result, the raised OffLattice and its text, and the left side
    I(X_lam) (x) F all match the per-term oracle; when no w lam lies on
    Lambda + rho_g nothing is tensored and the oracle's left side is zero."""
    fam, highest, lam = case
    try:
        holds, left = per_term_verify_translation(fam, highest, lam)
    except OffLattice as exc:
        with pytest.raises(OffLattice) as info:
            verify_translation(fam, highest, lam)
        assert str(info.value) == str(exc)
        return
    got, seen = _run_with_tensor_spy(fam, highest, lam)
    assert got == holds
    assert len(seen) <= 1
    if seen:
        assert seen[0].forms == left.forms
    else:
        assert left.is_zero()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tensor_on_the_even_sublattice_matches_per_term_oracle(data):
    """Modules of several K-types on the even sublattice, by the trivial,
    standard and adjoint modules: the weights off Lambda drop out exactly
    as the per-term lattice test dropped their terms.  (On the package's
    own lattices test_int_weights checks tensoring against its oracle.)"""
    datum = _even(data.draw(st.sampled_from(SMALL_DATA)))
    terms = [(data.draw(even_parameters(datum)), data.draw(st.integers(-3, 3)))
             for _ in range(data.draw(st.integers(2, 6)))]
    module = k_type_sum(datum, terms)
    # tensor_virtual takes parameters on Lambda + rho_g; on a lattice that
    # holds no root a dominant representative need not be on it.
    module = VirtualKModule._trusted(datum, {
        form: c for form, c in module.forms.items() if datum.on_shifted_lattice_form(form)})
    module_name = data.draw(st.sampled_from(["trivial", "standard", "adjoint"]))
    highest = (F(0),) * datum.rank if module_name == "trivial" else _highest(datum, module_name)
    delta = weight_multiset(highest, datum)
    tensored = tensor_virtual(module, delta)
    assert tensored.forms == per_term_tensor_virtual(module, delta).forms


def test_even_sublattice_drops_weights_and_refuses_translation():
    """On the even sublattice of Sp(4,R) the adjoint weights +-2 e_i and 0
    stay and +-e_1 +-e_2 drop out; every standard weight drops out, and the
    translation check names the first point off the coset."""
    even = _even(SP4)
    module = k_type_sum(even, [(_add(even.rho_g, (F(2), F(0))), 1), (even.rho_g, 2)])
    assert len(module.forms) == 2
    adjoint = weight_multiset((F(2), F(0)), even)
    kept = [mu for mu in adjoint.forms if even.lattice(*mu)]
    assert sorted(kept) == [(1, (-2, 0)), (1, (0, -2)), (1, (0, 0)), (1, (0, 2)), (1, (2, 0))]
    tensored = tensor_virtual(module, adjoint)
    assert tensored.forms == per_term_tensor_virtual(module, adjoint).forms
    assert not tensored.is_zero()
    assert tensor_virtual(module, weight_multiset((F(1), F(0)), even)).is_zero()
    fam = discrete_series_family(even.rho_g, even)
    for highest in ((F(2), F(0)), (F(1), F(0))):
        with pytest.raises(OffLattice, match="is not in base"):
            verify_translation(fam, highest, even.rho_g)


def test_translation_by_the_trivial_module_holds_off_a_root_lattice():
    """On the even sublattice of SU(1,2), which holds no root, lam = (1, 0, 1)
    is on Lambda + rho_g and its dominant representative (1, 1, 0) is not.
    The per-term oracle tested the lattice again after normalizing, so it
    found I(X_lam) (x) 1 = 0 against I(X_lam) != 0 and the identity false.
    Each term is now tested once, as E(gamma) is defined, before
    normalization, and I(X_lam) (x) 1 is I(X_lam)."""
    even = _even(build_root_datum(GroupId.su(1, 2)))
    fam = discrete_series_family(even.rho_g, even)
    lam, trivial = (F(1), F(0), F(1)), (F(0), F(0), F(0))
    holds, left = per_term_verify_translation(fam, trivial, lam)
    assert not holds and left.is_zero()
    got, seen = _run_with_tensor_spy(fam, trivial, lam)
    index = dirac.evaluate_index(fam, lam)
    assert got and seen == [index] and index.forms == {(1, (1, 1, 0)): -1}


@pytest.mark.parametrize("datum", [SU21, SP4, build_root_datum(GroupId.sp_pq(1, 3))],
                         ids=lambda d: d.group.label())
def test_base_off_the_shifted_lattice_holds_without_building_a_side(datum):
    """A family whose base is off Lambda + rho_g has zero on both sides:
    the check holds, as the oracle's does, and normalizes nothing."""
    half = (F(1, 2),) + (F(0),) * (datum.rank - 1)
    base = _add(datum.rho_g, half)
    elements = weyl_elements(datum, "g")
    fam = IndexFamily(datum, base, {elements[0]: 1, elements[-1]: -2})
    lam = _add(base, (F(1),) * datum.rank)
    highest = _highest(datum, "adjoint")
    holds, left = per_term_verify_translation(fam, highest, lam)
    assert holds and left.is_zero()
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
    assert spin_character_series(datum, y, order) == oracle_spin_character_series(datum, y, order)


@pytest.mark.parametrize("datum", SMALL_DATA, ids=lambda d: d.group.label())
def test_spin_series_matches_idot_oracle_on_every_small_group(datum):
    ys = [(F(0),) * datum.rank, tuple(F(3 * k - 7, 2) for k in range(datum.rank))]
    for y in ys:
        for order in (0, 12):
            assert spin_character_series(datum, y, order) == \
                oracle_spin_character_series(datum, y, order)


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
    y = datum.form(tuple(F(data.draw(st.integers(-9, 9)), y_den) for _ in range(datum.rank)))
    assert _numerator_frequencies(module, y) == oracle_numerator_frequencies(module, y)


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
    gammas = [_add(rho, (F(i), F(j), F(0))) for i in range(bound // 64 + 2) for j in range(64)]
    assert len(gammas) > bound
    _k_dominant.cache_clear()
    swept = [k_type_sum(SU21, [(gamma, 1)]) for gamma in gammas]
    info = _k_dominant.cache_info()
    assert info.maxsize == bound and info.currsize <= bound
    assert info.misses == len(gammas)
    for gamma, module in zip(gammas, swept):
        assert module.forms == per_term_k_type_sum(SU21, [(SU21.form(gamma), 1)]).forms
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
