"""Integer weights against the Fraction code they replaced.

The oracles below are the Fraction implementations that `groups`,
`kmodules`, `dirac` and `asymptotics` had before weights were stored as
integer numerators over one denominator; the public functions must agree
with them on random groups of rank <= 4, lattice and off-lattice
parameters (SU trace shifts with denominators 2-6, half-integral B and D
parameters) and directions with denominators 1-6.  Also: every public
function that takes a weight refuses a wrong length, and no float leaks
out of integer-only roots.
"""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from diracindex.asymptotics import (
    LaurentSeries,
    LimitReport,
    character_series,
    leading_limit,
    root_ratio,
)
from diracindex.dirac import (
    _chamber_sign,
    discrete_series_family,
    evaluate_index,
    evaluate_q,
    index_polynomial,
    spin_character_series,
    spin_weights,
    verify_translation,
)
from diracindex.errors import DimensionMismatch
from diracindex.groups import (
    Family,
    GroupId,
    build_root_datum,
    normalize_k_dominant,
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
    weyl_orbit,
)
from diracindex.series import TruncatedSeries
from diracindex.suites import _small_groups
from diracindex.weylaction import weyl_dim_value, weyl_dim_value_g
from test_groups import dominant_rep_g, pairing

SMALL_GROUPS = _small_groups(4)


# -- the Fraction oracles ----------------------------------------------------


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def _fdot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), F(0))


def _on_lattice(datum, w):
    if datum.group.family == Family.SU:
        return all((c - w[0]).denominator == 1 for c in w[1:])
    return all(c.denominator == 1 for c in w)


def _on_shifted_lattice(datum, gamma):
    return _on_lattice(datum, _sub(gamma, datum.rho_g))


def oracle_k_type_sum(datum, terms):
    acc = {}
    for gamma, c in terms:
        if len(gamma) != datum.rank:
            raise DimensionMismatch("parameter length must equal the rank")
        if _on_shifted_lattice(datum, gamma):
            normalized = normalize_k_dominant(datum, gamma)
            if normalized is not None:
                sign, dom = normalized
                acc[dom] = acc.get(dom, 0) + sign * c
    return {gamma: c for gamma, c in acc.items() if c}


def oracle_tensor_virtual(datum, coeffs, mults):
    shifted = [(_add(gamma, mu), c * m) for gamma, c in coeffs.items() for mu, m in mults.items()]
    return oracle_k_type_sum(datum, shifted)


def _oracle_dominant_character(datum, highest):
    rho = datum.rho_g
    pos = datum.positive_roots

    def norm(mu):
        return _fdot(_add(mu, rho), _add(mu, rho))

    top_norm = norm(highest)
    seen = {highest}
    frontier = [highest]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in pos:
                child = _sub(mu, alpha)
                if child not in seen and dominant_rep_g(datum, child) == child:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    mult = {}
    for mu in sorted(seen, key=norm, reverse=True):
        if mu == highest:
            mult[mu] = F(1)
            continue
        mu_rho = _add(mu, rho)
        denom = top_norm - _fdot(mu_rho, mu_rho)
        acc = F(0)
        for alpha in pos:
            norm2 = _fdot(alpha, alpha)
            k = 1
            while True:
                nu = _add(mu, tuple(k * a for a in alpha))
                if norm(nu) > top_norm:
                    if k * norm2 > -_fdot(mu_rho, alpha):
                        break
                else:
                    m = mult.get(dominant_rep_g(datum, nu), F(0))
                    if m:
                        acc += m * _fdot(nu, alpha)
                k += 1
        value = 2 * acc / denom
        if value:
            mult[mu] = value
    return mult


def oracle_weight_multiset(highest, datum):
    for alpha in datum.positive_roots:
        p = 2 * _fdot(highest, alpha) / _fdot(alpha, alpha)
        assert p >= 0 and p.denominator == 1
    out = {}
    for mu, m in _oracle_dominant_character(datum, highest).items():
        assert m.denominator == 1
        for nu in weyl_orbit(datum, mu):
            out[nu] = int(m)
    return out


def oracle_spin_weights(datum):
    noncompact = datum.noncompact_positive_roots
    even = {_sub(datum.rho_k, datum.rho_g): 1}
    odd = {}
    for beta in noncompact:
        new_even, new_odd = dict(even), dict(odd)
        for source, target in ((odd, new_even), (even, new_odd)):
            for w, m in source.items():
                w = _add(w, beta)
                target[w] = target.get(w, 0) + m
        even, odd = new_even, new_odd
    return (odd, even) if len(noncompact) % 2 == 1 else (even, odd)


def oracle_numerator_frequencies(datum, coeffs, y):
    freqs = {}
    for gamma, c in coeffs.items():
        for w in weyl_elements(datum, "k"):
            f = _fdot(w.apply(gamma), y)
            freqs[f] = freqs.get(f, 0) + c * w.sign()
    return {f: c for f, c in freqs.items() if c}


def oracle_frequencies_to_series(freqs, order):
    den = lcm(*(F(rate).denominator for rate in freqs))
    nums = [int(rate * den) for rate in freqs]
    moments = list(freqs.values())
    scale = 1
    coeffs = []
    for k in range(order + 1):
        if k:
            moments = [m * n for m, n in zip(moments, nums)]
            scale *= den * k
        coeffs.append(F(sum(moments), scale))
    return TruncatedSeries(tuple(coeffs))


def oracle_weyl_denominator_factored(datum, y, which, order):
    roots = datum.positive_roots if which == "g" else datum.compact_positive_roots
    halves = [F(_fdot(alpha, y), 2) for alpha in roots]
    den = lcm(*(half.denominator for half in halves))
    freqs = {0: 1}
    for half in halves:
        k = int(half * den)
        expanded = {f + k: c for f, c in freqs.items()}
        for f, c in freqs.items():
            expanded[f - k] = expanded.get(f - k, 0) - c
        freqs = {f: c for f, c in expanded.items() if c}
    r = len(roots)
    rates = {F(f, den): c for f, c in freqs.items()}
    return r, _shift_down(oracle_frequencies_to_series(rates, order + r), r)


def _shift_down(series, k):
    """series / t^k, checking exactly that the low coefficients vanish."""
    assert k <= series.order and not any(series.coeffs[:k])
    return TruncatedSeries(series.coeffs[k:])


def oracle_evaluate_index(fam, lam):
    assert _on_lattice(fam.datum, _sub(lam, fam.base))
    return oracle_k_type_sum(fam.datum, [(w.apply(lam), a) for w, a in fam.coeffs.items()])


def oracle_character_series(fam, lam, y, order=8):
    datum = fam.datum
    coeffs = oracle_evaluate_index(fam, lam)
    if not coeffs:
        return LaurentSeries.zero(order)
    freqs = oracle_numerator_frequencies(datum, coeffs, y)
    if not freqs:
        return LaurentSeries.zero(order)
    r_g = datum.r_g
    numerator = oracle_frequencies_to_series(freqs, max(order + r_g, len(freqs)))
    val = numerator.valuation()
    shifted = _shift_down(numerator, val)
    _, u = oracle_weyl_denominator_factored(datum, y, "g", shifted.order)
    return LaurentSeries(val - r_g, TruncatedSeries(shifted.divide(u).coeffs[: order + 1]))


def oracle_leading_limit(fam, lam, y, d):
    datum = fam.datum
    gap = datum.r_g - datum.r_k
    series = oracle_character_series(fam, lam, y, order=max(8, d + 2))
    if d < series.pole_order:
        return LimitReport(d=d, value=None, expected=None, match=False, underflow=True)
    value = series.coeff(-d)
    expected = None
    if d > gap:
        expected = F(0)
    elif d == gap:
        ratio = F(1)
        for alpha in datum.compact_positive_roots:
            ratio *= _fdot(alpha, y)
        for alpha in datum.positive_roots:
            ratio /= _fdot(alpha, y)
        expected = ratio * index_polynomial(fam).evaluate(lam)
    match = expected is not None and value == expected
    return LimitReport(d=d, value=value, expected=expected, match=match)


def oracle_verify_translation(fam, f_highest, lam):
    """(holds, left side) of the translation identity."""
    delta = oracle_weight_multiset(f_highest, fam.datum)
    left = oracle_tensor_virtual(fam.datum, oracle_evaluate_index(fam, lam), delta)
    right = [(gamma, m * c) for mu, m in delta.items()
             for gamma, c in oracle_evaluate_index(fam, _add(lam, mu)).items()]
    return left == oracle_k_type_sum(fam.datum, right), left


# -- inputs --------------------------------------------------------------------


def _highest(datum, module):
    """Highest weight of the standard or adjoint module of the ambient
    algebra; of the spin module of a B or D ambient, and of a trace-shifted
    standard module of an A ambient."""
    r, kind = datum.rank, datum.ambient.kind
    if module == "spin" and kind in ("B", "D"):
        return (F(1, 2),) * r
    if module == "spin" and kind == "A":  # the standard module, trace-shifted
        return (F(3, 2),) + (F(1, 2),) * (r - 1)
    if module != "adjoint" or r == 1:
        return (F(1),) + (F(0),) * (r - 1)
    if kind == "A":
        return (F(1),) + (F(0),) * (r - 2) + (F(-1),)
    if kind == "C":
        return (F(2),) + (F(0),) * (r - 1)
    return (F(1), F(1)) + (F(0),) * (r - 2)


@st.composite
def parameters(draw, datum, spread=3):
    """rho_g plus an integer vector; an SU trace shift with denominator 2-6
    (still on the lattice), or for B and D ambients sometimes half of
    (1, ..., 1), which moves D parameters off the lattice."""
    shift = [F(draw(st.integers(-spread, spread))) for _ in range(datum.rank)]
    kind = datum.ambient.kind
    if datum.group.family == Family.SU and draw(st.booleans()):
        t = F(draw(st.integers(-5, 5)), draw(st.integers(2, 6)))
        shift = [c + t for c in shift]
    elif kind in ("B", "D") and draw(st.booleans()):
        shift = [c + F(1, 2) for c in shift]
    return _add(datum.rho_g, tuple(shift))


@st.composite
def directions(draw, datum):
    """Distinct nonzero magnitudes over a denominator 1-6, in any order and
    with any signs: regular for every root of every family."""
    den = draw(st.integers(1, 6))
    mags = draw(st.lists(st.integers(1, 12), min_size=datum.rank, max_size=datum.rank,
                         unique=True))
    return tuple(F(m * draw(st.sampled_from([1, -1])), den) for m in mags)


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
    return w.apply(_add(datum.rho_g, tuple(shift)))


data_groups = st.sampled_from(SMALL_GROUPS).map(build_root_datum)


# -- oracle properties -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_k_type_sum_and_tensor_match_fraction_oracle(data):
    datum = data.draw(data_groups)
    terms = [(data.draw(parameters(datum)), data.draw(st.integers(-3, 3)))
             for _ in range(data.draw(st.integers(0, 5)))]
    module = k_type_sum(datum, terms)
    expected = oracle_k_type_sum(datum, terms)
    assert module.coeffs == expected
    assert module == VirtualKModule(datum, module.coeffs)
    highest = _highest(datum, data.draw(st.sampled_from(["standard", "adjoint", "spin"])))
    delta = weight_multiset(highest, datum)
    assert delta.mults == oracle_weight_multiset(highest, datum)
    tensored = tensor_virtual(module, delta)
    assert tensored.coeffs == oracle_tensor_virtual(datum, expected, delta.mults)
    assert tensored == VirtualKModule(datum, tensored.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weight_multiset_of_random_dominant_weights_matches_fraction_oracle(data):
    datum = data.draw(data_groups)
    half = datum.ambient.kind in ("B", "D") and data.draw(st.booleans())
    coords = [data.draw(st.integers(-2, 2)) + F(half, 2) for _ in range(datum.rank)]
    highest = dominant_rep_g(datum, tuple(coords))
    assume(all(pairing(highest, alpha).denominator == 1 for alpha in datum.positive_roots))
    assert weight_multiset(highest, datum).mults == oracle_weight_multiset(highest, datum)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.label())
def test_spin_weights_match_fraction_oracle(group):
    datum = build_root_datum(group)
    plus, minus = oracle_spin_weights(datum)
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
            oracle_weyl_denominator_factored(datum, y, which, order)
    terms = [(data.draw(parameters(datum)), data.draw(st.integers(-3, 3))) for _ in range(3)]
    module = k_type_sum(datum, terms)
    den, freqs = _numerator_frequencies(module, datum.form(y))
    assert {F(f, den): c for f, c in freqs.items()} == \
        oracle_numerator_frequencies(datum, module.coeffs, y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_character_series_and_translation_match_fraction_oracle(data):
    datum = data.draw(data_groups)
    fam = discrete_series_family(data.draw(regular_parameters(datum)), datum)
    offset = tuple(F(data.draw(st.integers(-3, 3))) for _ in range(datum.rank))
    lam = _add(fam.base, offset)
    y = data.draw(directions(datum))
    assert character_series(fam, lam, y, 4) == oracle_character_series(fam, lam, y, 4)
    # the weights of a B or D spin module leave the family's coset
    modules = ["standard", "adjoint"] + ["spin"] * (datum.ambient.kind == "A")
    highest = _highest(datum, data.draw(st.sampled_from(modules)))
    holds, left = oracle_verify_translation(fam, highest, lam)
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
    """character_series builds its numerator from the valuation and
    divides at `order`; the oracle builds the numerator to
    max(order + r_g, len(freqs)) and divides at that length.  They agree
    through `order`, and so do the limits that leading_limit reads."""
    datum = build_root_datum(data.draw(st.sampled_from(CHARACTER_BENCH_GROUPS)))
    fam = discrete_series_family(data.draw(regular_parameters(datum)), datum)
    lam = _add(fam.base, tuple(F(data.draw(st.integers(-2, 2))) for _ in range(datum.rank)))
    y = data.draw(directions(datum))
    order = data.draw(st.integers(6, 14))
    series = character_series(fam, lam, y, order)
    oracle = oracle_character_series(fam, lam, y, order)
    assert series.series.order == order
    assert series.low == oracle.low
    # the oracle stops short of `order` only when its valuation is above
    # max(order + r_g, len(freqs)) - order
    assert series.series.coeffs[: oracle.series.order + 1] == oracle.series.coeffs
    gap = datum.r_g - datum.r_k
    for d in (gap, gap + 1, gap + 2):
        assert leading_limit(fam, lam, y, d) == oracle_leading_limit(fam, lam, y, d)


# -- the constructors --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_public_constructor_validates_and_trusted_sums_agree(data):
    datum = data.draw(data_groups)
    gamma = data.draw(parameters(datum))
    dominant = all(_fdot(gamma, a) > 0 for a in datum.compact_positive_roots)
    if dominant and _on_shifted_lattice(datum, gamma):
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
