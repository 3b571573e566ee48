import ast
import functools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diracindex.errors import (
    DimensionMismatch,
    InternalInvariantError,
    NonIntegralCoefficient,
    ZeroForm,
)
from diracindex.groups import GroupId, build_root_datum
from diracindex.emit import dumps, frac_str, poly_from_obj, poly_to_obj
from diracindex.polynomials import (
    LinearForm,
    MultiPoly,
    _alternant,
    _move_fields,
    divides_linear_form,
    extract_linear_factors,
    invariant_operator_images,
    is_harmonic,
    linear_combination,
    linear_divisors,
    linear_form_product,
    poly_det,
    restrict_to_hyperplane,
)
from reference import (
    act_on_keys,
    alternant_terms,
    divides,
    evaluate,
    fraction_add,
    fraction_derivative,
    fraction_extract,
    fraction_horner,
    fraction_mul,
    fraction_quotient,
    fraction_pow,
    form_content,
    gl_key,
    graded_rows_by_sorting,
    leibniz_det,
    power_sum_image,
    primitive,
    repack_keys,
    restrict,
    view_repr,
)


def V(*names):
    arity = len(names)
    return [MultiPoly.variable(arity, i) for i in range(arity)]


# -- strategies ---------------------------------------------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def polys(draw, arity=3, max_degree=3, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(
            draw(st.integers(0, max_degree)) for _ in range(arity)
        )
        terms[exp] = draw(coeffs)
    return MultiPoly(arity, terms)


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), st.lists(coeffs, min_size=3, max_size=3), coeffs)
def test_ring_axioms_and_eval_homomorphism(p, q, point, c):
    """The ring axioms, evaluation as a ring homomorphism, and every kernel
    result in the normalized form."""
    assert (p + q) - q == p, "additive inverse"
    assert p * q == q * p, "commutative product"
    pt = tuple(point)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt), "value of a sum"
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt), "value of a product"
    for result in (p + q, p - q, p + (-p), -p, p * q, p * c, p * 0, p.derivative(1)):
        assert_normalized(result, 3)
    assert (p + (-p)).terms == {}, "p - p is zero"


@settings(max_examples=200, deadline=None)
@given(polys(), st.sampled_from([1, F(1), -1, F(-1)]))
def test_unit_scalar_keeps_the_normalized_form(p, unit):
    """p * 1 is p itself and p * -1 is -p, whatever the type of the unit."""
    if unit == 1:
        assert p * unit is p and unit * p is p
    else:
        assert (p * unit)._int_form() == (-p)._int_form()
        assert (unit * p)._int_form() == (-p)._int_form()
    assert p * unit == p * F(3 * unit, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(polys(max_degree=6), st.integers(-6, 6)), max_size=5))
def test_linear_combination_matches_the_ring_sum(terms):
    """One normalization gives the form of the term-by-term ring sum, over
    mixed widths and denominators; one term is P * a itself."""
    combined = linear_combination(3, terms)
    expected = sum((p * a for p, a in terms), MultiPoly.zero(3))
    assert combined._int_form() == expected._int_form()
    if len(terms) == 1 and terms[0][1] == 1:
        assert combined is terms[0][0]


def test_linear_combination_cancels_and_checks_arity():
    x, y = V("x", "y")
    p = (x - y) * F(1, 3)
    assert linear_combination(2, [(p, 3), (x - y, -1)]).is_zero()
    assert linear_combination(2, [])._int_form() == MultiPoly.zero(2)._int_form()
    with pytest.raises(DimensionMismatch):
        linear_combination(3, [(p, 1)])
    with pytest.raises(DimensionMismatch):
        linear_combination(2, [(p, 1), (MultiPoly.variable(3, 0), 2)])


def test_linear_combination_refuses_non_integer_coefficients():
    """A coefficient that is not an int or an integral Fraction is refused
    before any sum, on the one-term path too; a float is refused even when
    it is integral, and an integral Fraction counts as its integer."""
    x, y = V("x", "y")
    for bad in (F(1, 2), 0.5, 2.0, float("nan"), float("inf"), "1", None):
        with pytest.raises(NonIntegralCoefficient):
            linear_combination(2, [(x, bad), (y, 1)])
        with pytest.raises(NonIntegralCoefficient):
            linear_combination(2, [(x, bad)])
    combined = linear_combination(2, [(x, F(4, 2)), (y, True)])
    assert combined._int_form() == (x * 2 + y)._int_form()
    assert all(type(c) is int for c in combined._int_form()[2].values())
    assert hash(combined) == hash(x * 2 + y)


@st.composite
def packed_numerators(draw):
    """(arity, width, new, perm, signs, num): arity 0-7, widths 1-6 with a
    wider, narrower or equal target, a random signed permutation (the
    identity and no signs among them) and a numerator whose fields fit both
    widths."""
    arity = draw(st.integers(0, 7))
    width, new = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    perm = draw(st.permutations(range(arity)) | st.just(list(range(arity))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=arity, max_size=arity)
                 | st.just([1] * arity))
    exps = st.lists(st.integers(0, (1 << min(width, new)) - 1), min_size=arity, max_size=arity)
    keys = exps.map(lambda exp: sum(e << (i * width) for i, e in enumerate(exp)))
    values = st.integers(-9, 9).filter(bool)
    num = draw(st.dictionaries(keys, values, max_size=12))
    return arity, width, new, tuple(perm), tuple(signs), num


@settings(max_examples=300, deadline=None)
@given(packed_numerators())
@example((0, 3, 5, (), (), {0: 4}))
@example((3, 2, 2, (0, 1, 2), (1, 1, 1), {0b110110: 1, 0b1: -2}))
@example((3, 4, 2, (0, 1, 2), (), {0b11 << 8 | 0b10: 5}))
@example((2, 1, 6, (1, 0), (-1, 1), {0b11: 3, 0b10: -1}))
def test_move_fields_matches_the_repack_and_action_oracles(case):
    """The one kernel gives the separate routines' dicts, contents and
    iteration order: a repack is the identity permutation with no signs, a
    signed permutation keeps the width, and both at once are the action
    followed by the repack.  Nothing moving returns num itself."""
    arity, width, new, perm, signs, num = case
    ids = range(arity)
    repacked = _move_fields(width, new, ids, (), num)
    assert list(repacked.items()) == list(repack_keys(arity, width, new, num).items())
    acted = _move_fields(width, width, perm, signs, num)
    assert list(acted.items()) == list(act_on_keys(perm, signs, width, num).items())
    both = _move_fields(width, new, perm, signs, num)
    expected = repack_keys(arity, width, new, act_on_keys(perm, signs, width, num))
    assert list(both.items()) == list(expected.items())
    # a repack moves field k by k * (new - width) bits: field 0 stays
    identity, same_width = perm == tuple(ids) and -1 not in signs, width == new or arity <= 1
    assert (acted is num) == identity
    assert (repacked is num) == same_width
    assert (both is num) == (identity and same_width)


def test_permute_checks_its_length_and_shares_the_numerator_at_the_identity():
    x, y, z = V("x", "y", "z")
    p = x * x * y - z * F(1, 3)
    same = p.permute((0, 1, 2), (1, 1, 1))
    assert same == p and same._int_form()[2] is p._int_form()[2]
    # a new value, so a view built on p is not taken for one built on it
    p.terms
    assert same is not p and same._terms is None
    # X_{perm[k]} becomes signs[k] X_k: z -> x, x -> -y, y -> z
    assert p.permute((2, 0, 1), (1, -1, 1)) == y * y * z - x * F(1, 3)
    assert p.permute((2, 0, 1), (-1, 1, 1)) == y * y * z + x * F(1, 3)
    for perm, signs in [((0, 1), (1, 1)), ((0, 1, 2), (1, 1))]:
        with pytest.raises(DimensionMismatch):
            p.permute(perm, signs)
    assert p.den == p._int_form()[0] == 3


SRC = Path(__file__).resolve().parents[1] / "src" / "diracindex"
LAYOUT_NAMES = {"_int_form", "_repack", "IntTerms", "_move_fields", "_packed"}
LAYOUT_ATTRS = {"_int_form", "_num", "_width", "_move_fields", "_repack"}


def _layout_uses(tree):
    """(line, text) of each use of the packed layout in a parsed module:
    the names and attributes above, MultiPoly._packed and
    MultiPoly._from_ints, and a shift that reads a name `width`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in LAYOUT_NAMES:
            yield node.lineno, f"import {node.name}"
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr in LAYOUT_ATTRS or (
                    owner == "MultiPoly" and node.attr in ("_packed", "_from_ints")):
                yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)):
            if any(isinstance(n, ast.Name) and n.id == "width" for n in ast.walk(node)):
                yield node.lineno, "a shift by a field width"


def test_only_polynomials_knows_the_packed_layout():
    """No module but polynomials reads the integer form, repacks keys, builds
    a packed MultiPoly or a field mask; kmodules and series keep their own
    `_den` and `_from_ints`, which are not this layout."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "polynomials.py":
            uses = list(_layout_uses(ast.parse(path.read_text(), str(path))))
            if uses:
                found[path.name] = uses
    assert found == {}
    # the check sees what it is meant to find
    probe = ast.parse(
        "den, width, num = p._int_form()\nMultiPoly._packed(1, den, width, num)\n"
        "MultiPoly._from_ints(1, width, num)\nmask = (1 << width) - 1\np._num, p._width\n"
        "from .polynomials import IntTerms, _repack\n")
    seen = {text for _, text in _layout_uses(probe)}
    assert seen == {"._int_form", "._packed", "._from_ints", "a shift by a field width",
                    "._num", "._width", "import IntTerms", "import _repack"}


def test_eval_examples():
    x1, x2 = V("x1", "x2")
    assert (x1 - x2).evaluate((3, 1)) == 2
    x, y, z = V("x", "y", "z")
    vdm = (x - y) * (x - z) * (y - z)
    assert vdm.evaluate((2, 1, 0)) == 2
    assert MultiPoly.zero(2).evaluate((5, 7)) == 0
    with pytest.raises(DimensionMismatch):
        x1.evaluate((1, 2, 3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_evaluate_matches_view_oracle(data):
    """Non-homogeneous, zero and arity-0 polynomials at integer and
    fractional points; the integer form is read without building the view."""
    arity = data.draw(st.integers(0, 3))
    poly = data.draw(polys(arity=arity, max_degree=data.draw(st.integers(0, 7)), max_terms=6))
    point = tuple(data.draw(st.lists(st.one_of(coeffs, st.integers(-6, 6)),
                                     min_size=arity, max_size=arity)))
    kernel = extract_linear_factors(poly, [])[1]
    value = kernel.evaluate(point)
    assert kernel._terms is None
    assert type(value) is F and value == evaluate(poly, point)
    with pytest.raises(DimensionMismatch):
        kernel.evaluate(point + (1,))


@pytest.mark.parametrize("poly, point, value", [
    (MultiPoly.zero(0), (), 0),
    (MultiPoly.const(0, F(-7, 3)), (), F(-7, 3)),
    (MultiPoly.zero(2), (F(1, 2), 3), 0),
    (MultiPoly(2, {(2, 0): F(1), (0, 1): F(-1, 2), (0, 0): F(3)}), (F(1, 2), F(-2, 3)), F(43, 12)),
])
def test_integer_evaluate_examples(poly, point, value):
    kernel = extract_linear_factors(poly, [])[1]
    assert kernel.evaluate(point) == value and type(kernel.evaluate(point)) is F
    assert kernel._terms is None


def graded_terms(poly):
    """(exponent tuple, Fraction) of each term, in `graded_rows` order."""
    den = poly._int_form()[0]
    return [(tuple(exp), F(c, den)) for exp, c in poly.graded_rows()]


def test_graded_rows_graded_lex():
    x1, x2 = V("x1", "x2")
    p = (x1 - x2) + MultiPoly.const(2, 7)
    assert p.graded_rows() == [([0, 0], 7), ([1, 0], 1), ([0, 1], -1)]
    assert repr(p) == "MultiPoly(7 + 1*X1 + -1*X2)"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: polys(arity=n, max_degree=4, max_terms=12)))
@example(MultiPoly(3, {(0, 0, 0): 1, (0, 0, 2): 2, (1, 1, 0): 3, (2, 0, 0): 4, (0, 1, 0): 5}))
@example(MultiPoly(3, {(2, 0, 0): 1, (1, 1, 0): F(-2, 3), (0, 0, 2): 3, (0, 2, 0): 1}))
@example(MultiPoly(0, {(): F(-7, 3)}))
@example(MultiPoly.zero(0))
@example(MultiPoly.zero(3))
def test_graded_rows_matches_gl_key_sort(poly):
    expected = sorted(poly.terms.items(), key=lambda t: gl_key(t[0]))
    assert graded_terms(poly) == expected
    assert poly.graded_rows() == graded_rows_by_sorting(poly)


# Total degrees at the edges of one, two, three and five bytes a field, and
# one past 64 bits.
_EDGES = (255, 256, 65535, 65536, 2**33 + 3, 2**64 + 5)


def _near_edge():
    return st.sampled_from(_EDGES).flatmap(lambda e: st.integers(e - 2, e + 2))


@st.composite
def wide_polys(draw):
    """Polynomials of arity 1-5 whose fields are wider than a byte:
    homogeneous ones of a degree near an edge, or terms of mixed degrees
    with exponents near an edge."""
    arity = draw(st.integers(1, 5))
    degree = draw(_near_edge())
    homogeneous = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        if homogeneous:
            cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=arity - 1,
                                        max_size=arity - 1)))
            exp = tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))
        else:
            exp = tuple(draw(st.one_of(st.integers(0, 3), _near_edge())) for _ in range(arity))
        terms[exp] = draw(coeffs.filter(bool))
    if not homogeneous:
        terms[tuple(degree if i == arity - 1 else 0 for i in range(arity))] = 1
    return MultiPoly(arity, terms)


@settings(max_examples=150, deadline=None)
@given(wide_polys())
@example(MultiPoly(1, {(255,): 1}))
@example(MultiPoly(1, {(256,): F(-1, 2)}))
@example(MultiPoly(2, {(255, 0): 1, (0, 255): -1, (128, 127): 3}))
@example(MultiPoly(3, {(65535, 0, 0): 1, (0, 65535, 0): 2, (1, 1, 65533): -4}))
@example(MultiPoly(2, {(65536, 0): 1, (0, 1): 2, (0, 0): 3}))
@example(MultiPoly(4, {(2**33, 0, 0, 1): 1, (0, 2**33 + 1, 0, 0): F(5, 3), (0, 0, 0, 2**33 + 1): 1}))
@example(MultiPoly(5, {(2**64, 1, 0, 0, 7): 1, (0, 0, 2**64 + 8, 0, 0): -1, (1, 0, 0, 0, 0): 2}))
# more keys than one batch of 64 keys, and a partial last batch
@example(MultiPoly(2, {(i, 300 - i): i + 1 for i in range(100)}))
@example(MultiPoly(3, {(i, 70000 - 2 * i, i % 3): F(1, i + 1) for i in range(150)}))
def test_graded_rows_wide_fields_match_oracle_and_round_trip(poly):
    assert poly._width >= 8
    assert poly.graded_rows() == graded_rows_by_sorting(poly)
    assert graded_terms(poly) == sorted(poly.terms.items(), key=lambda t: gl_key(t[0]))
    assert poly_from_obj(json.loads(dumps(poly_to_obj(poly)))) == poly
    assert repr(poly) == view_repr(poly)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: polys(arity=n, max_degree=4, max_terms=8)))
@example(MultiPoly(0, {(): F(3)}))
@example(MultiPoly(2, {(3, 0): 1, (1, 2): F(-1, 2)}))
@example(MultiPoly(2, {(3, 0): 1, (1, 1): 1}))
def test_is_homogeneous_matches_view(poly):
    assert poly.is_homogeneous() == (len({sum(e) for e in poly.terms}) <= 1)


@st.composite
def supported_alternants(draw):
    """(variables, exponents, support) with m <= 5 columns: exponents may
    repeat, and columns of equal exponent cover disjoint rows."""
    m = draw(st.integers(0, 5))
    variables = draw(st.permutations(range(5)))[:m]
    exponents = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    support = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m))
    for b in range(m):
        for a in range(b):
            if exponents[a] == exponents[b]:
                support[b] &= ~support[a]
    return variables, exponents, support


@pytest.mark.parametrize(
    "exponents,support",
    [([1, 1], ()), ([0, 2, 0], [0b011, 0b111, 0b110]), ([3, 0, 3], [0b100, 0b011, 0b101])],
)
def test_alternant_rejects_equal_exponents_on_a_shared_row(exponents, support):
    with pytest.raises(InternalInvariantError, match="share a row"):
        _alternant(2, range(len(exponents)), exponents, support)


@st.composite
def alternant_cases(draw, masked):
    """(variables, exponents, support, width) in 5 variables: masked, as
    `supported_alternants` draws them, or with no support and distinct
    exponents; the field width fits the total degree, with up to 2 spare
    bits."""
    if masked:
        variables, exponents, support = draw(supported_alternants())
    else:
        m = draw(st.integers(0, 5))
        variables = draw(st.permutations(range(5)))[:m]
        exponents = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m, unique=True))
        support = []
    width = max(sum(exponents), 1).bit_length() + draw(st.integers(0, 2))
    return variables, exponents, support, width


def _packed(width, terms):
    return {sum(e << (i * width) for i, e in enumerate(exp)): c for exp, c in terms.items()}


@settings(max_examples=300, deadline=None)
@given(st.one_of(alternant_cases(masked=False), alternant_cases(masked=True)))
@example(([0, 1, 2], [2, 1, 0], [], 2))
@example(([0, 1, 2, 3], [2, 1, 0, 0], [15, 15, 3, 12], 3))
def test_alternant_matches_leibniz_expansion(case):
    """The packed numerator is the Leibniz sum, one +-1 term per nonzero
    permutation.  Reordered to ascending variables and non-increasing
    exponents, each support moved with its column, it is the Leibniz sum
    again and iterates in descending lex order of the exponents."""
    variables, exponents, support, width = case
    num = _alternant(width, variables, exponents, support)
    expected = alternant_terms(5, variables, exponents, support)
    assert num == _packed(width, expected), "the Leibniz sum"
    assert set(num.values()) <= {1, -1}, "no two permutations merge or cancel"
    assert MultiPoly._from_ints(5, width, num) == MultiPoly(5, expected), "the value"
    order = sorted(range(len(exponents)), key=lambda c: -exponents[c])
    variables = sorted(variables)
    exponents = [exponents[c] for c in order]
    support = [support[c] for c in order] if support else support
    num = _alternant(width, variables, exponents, support)
    assert num == _packed(width, alternant_terms(5, variables, exponents, support)), \
        "the Leibniz sum of the ordered input"
    mask = (1 << width) - 1
    exps = [tuple(key >> s & mask for s in range(0, 5 * width, width)) for key in num]
    assert all(a > b for a, b in zip(exps, exps[1:])), "descending lex order"


def test_linear_form_product_examples():
    f = LinearForm((F(1), F(-1)))
    assert linear_form_product(2, [f]) == MultiPoly(2, {(1, 0): 1, (0, 1): -1})
    assert linear_form_product(3, []) == MultiPoly.const(3, 1)

    # compact-root products match the displayed generators
    sp4 = build_root_datum(GroupId.sp_r(2))
    forms = [LinearForm(tuple(a)) for a in sp4.compact_positive_roots]
    x1, x2 = V("x1", "x2")
    assert linear_form_product(2, forms) == x1 - x2

    so45 = build_root_datum(GroupId.so_even_odd(2, 2))
    forms = [LinearForm(tuple(a)) for a in so45.compact_positive_roots]
    y1, y2, y3, y4 = V("a", "b", "c", "d")
    displayed = (y1 * y1 - y2 * y2) * (y3 * y3 - y4 * y4) * y3 * y4
    assert linear_form_product(4, forms) == displayed


def assert_normalized(poly, arity):
    """The MultiPoly invariants the trusted constructor relies on."""
    assert poly.arity == arity
    for exp, c in poly.terms.items():
        assert type(exp) is tuple and len(exp) == arity
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) is F and c != 0


# Unit coefficients make products like (X1 - X2)(X1 + X2) that cancel.
form_coeffs = st.one_of(st.sampled_from([F(-1), F(0), F(1)]), coeffs)


@st.composite
def linear_forms(draw, arity):
    values = draw(st.lists(form_coeffs, min_size=arity, max_size=arity))
    if not any(values):
        values[draw(st.integers(0, arity - 1))] = draw(coeffs.filter(bool))
    return LinearForm(tuple(values))


@st.composite
def form_products(draw):
    arity = draw(st.integers(1, 5))
    return arity, draw(st.lists(linear_forms(arity), max_size=8))


@settings(max_examples=150, deadline=None)
@given(form_products(), st.data())
def test_linear_form_product_matches_naive_fold(case, data):
    """The product is the ring product of the forms, term for term and
    normalized, whatever the order of the forms."""
    arity, forms = case
    naive = functools.reduce(
        MultiPoly.__mul__, (f.to_poly() for f in forms), MultiPoly.const(arity, 1)
    )
    product = linear_form_product(arity, forms)
    assert product == naive, "the ring product"
    assert graded_terms(product) == graded_terms(naive), "its rows"
    assert_normalized(product, arity)
    shuffled = data.draw(st.permutations(forms))
    assert graded_terms(linear_form_product(arity, shuffled)) == graded_terms(product), \
        "the order of the forms"


def test_linear_form_product_cancels():
    x1, x2 = V("x1", "x2")
    forms = [LinearForm((F(1), F(-1))), LinearForm((F(1), F(1)))]
    product = linear_form_product(2, forms)
    assert product == x1 * x1 - x2 * x2
    assert set(product.terms) == {(2, 0), (0, 2)}
    assert_normalized(product, 2)
    halves = [LinearForm((F(1, 2), F(-3, 2))), LinearForm((F(-2, 3), F(2)))]
    assert linear_form_product(2, halves) == MultiPoly(
        2, {(2, 0): F(-1, 3), (1, 1): 2, (0, 2): -3}
    )


# The ring operations agree with the Fraction-dict ring of `reference` by
# `==`, by hash and term for term.  `==` compares (den, width, num) with a
# value the public constructor packed, so agreement also means the kernel
# result is normalized.


@st.composite
def operand_pairs(draw):
    """Two polynomials of one arity 0-3, each under its own degree bound
    0-9, so their field widths (1-4 bits) often differ."""
    arity = draw(st.integers(0, 3))
    p, q = (
        draw(polys(arity=arity, max_degree=draw(st.integers(0, 9)), max_terms=5))
        for _ in range(2)
    )
    return p, q


def _assert_same(result: MultiPoly, expected: MultiPoly):
    assert result == expected and hash(result) == hash(expected)
    assert result.terms == expected.terms
    assert_normalized(result, expected.arity)


@settings(max_examples=300, deadline=None)
@given(operand_pairs(), coeffs.filter(bool), st.integers(0, 3), st.integers(0, 2), st.integers(0, 4))
# X^8 + X minus X^8 narrows the fields from 4 bits to 1
@example(
    (MultiPoly(1, {(8,): F(1), (1,): F(1)}), MultiPoly(1, {(8,): F(1)})),
    F(-2, 3), 2, 0, 1,
)
@example((MultiPoly.const(0, F(3, 2)), MultiPoly.zero(0)), F(4), 3, 0, 1)
def test_ring_operations_match_fraction_dict_oracle(case, c, n, i, k):
    public = case
    # the same operands as kernel results, without a Fraction view
    kernel = tuple(extract_linear_factors(x, [])[1] for x in case)
    assert all(x._terms is None for x in kernel)
    for p, q in (public, kernel):
        arity = p.arity
        minus_q = fraction_mul(q, -1)
        _assert_same(p + q, fraction_add(p, q))
        _assert_same(p - q, fraction_add(p, minus_q))
        _assert_same(-q, minus_q)
        _assert_same(p + c, fraction_add(p, MultiPoly.const(arity, c)))
        _assert_same(p * q, fraction_mul(p, q))
        _assert_same(p * c, fraction_mul(p, c))
        _assert_same(c * p, fraction_mul(p, c))
        _assert_same(p * 0, fraction_mul(p, 0))
        _assert_same(0 * p, MultiPoly.zero(arity))
        _assert_same(p**n, fraction_pow(p, n))
        # a cancellation down to q, whose fields may be narrower
        _assert_same((p + q) - p, case[1])
        if arity:
            j = i % arity
            _assert_same(p.derivative(j, k), fraction_derivative(p, j, k))
        with pytest.raises(IndexError):
            p.derivative(arity)


def test_restrict_examples():
    x1, x2 = V("x1", "x2")
    f = LinearForm((F(1), F(-1)))
    assert restrict_to_hyperplane(x1 - x2, f).is_zero()
    r = restrict_to_hyperplane(x1 + x2, f)
    assert r == MultiPoly(1, {(1,): 2})
    with pytest.raises(ZeroForm):
        LinearForm((F(0), F(0)))


def test_restrict_kills_products():
    rng = random.Random(123)
    for trial in range(50):
        arity = rng.randint(2, 5)
        coeffs_ = [F(rng.randint(-3, 3)) for _ in range(arity)]
        if all(c == 0 for c in coeffs_):
            coeffs_[0] = F(1)
        form = LinearForm(tuple(coeffs_))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 4) for _ in range(arity))
            terms[exp] = F(rng.randint(-4, 4))
        p = MultiPoly(arity, terms)
        assert restrict_to_hyperplane(p * form.to_poly(), form).is_zero()


@pytest.mark.parametrize("kernel", [
    restrict_to_hyperplane,
    divides_linear_form,
    lambda poly, form: extract_linear_factors(poly, [LinearForm((1, 0, -1)), form]),
])
def test_form_of_another_arity_is_refused(kernel):
    poly = MultiPoly(3, {(1, 1, 0): F(1), (0, 0, 2): F(-2)})
    with pytest.raises(DimensionMismatch, match="polynomial and form arities differ"):
        kernel(poly, LinearForm((1, -1)))


@st.composite
def polys_and_forms(draw):
    """A polynomial and a form whose pivot may follow zero coefficients."""
    arity = draw(st.integers(1, 5))
    pivot = draw(st.integers(0, arity - 1))
    tail = arity - pivot - 1
    values = [F(0)] * pivot + [draw(coeffs.filter(bool))]
    values += draw(st.lists(form_coeffs, min_size=tail, max_size=tail))
    poly = draw(polys(arity=arity, max_degree=4, max_terms=8))
    return poly, LinearForm(tuple(values))


@settings(max_examples=200, deadline=None)
@given(polys_and_forms())
def test_horner_pass_matches_substitution_and_division(case):
    """Restriction is the substitution of the hyperplane, as the reference
    Horner pass computes it; what it leaves out is divisible, and divides
    back out exactly."""
    poly, form = case
    arity, j = poly.arity, form._pivot
    rest = restrict_to_hyperplane(poly, form)
    assert rest == restrict(poly, form)
    assert_normalized(rest, arity - 1)
    assert divides_linear_form(poly, form) == rest.is_zero()
    if not rest.is_zero():
        assert extract_linear_factors(poly, [form]) == ([], poly)
    lifted = MultiPoly(arity, {e[:j] + (0,) + e[j:]: c for e, c in rest.terms.items()})
    divisible = poly - lifted
    assert divides_linear_form(divisible, form)
    factors, cofactor = extract_linear_factors(divisible, [form])
    assert_normalized(cofactor, arity)
    assert bool(factors) == (not divisible.is_zero())
    for factor, mult in factors:
        cofactor = cofactor * factor.to_poly() ** mult
    assert cofactor + lifted == poly


def test_divides_agrees_with_univariate_oracle():
    """The reference divides as a polynomial in the pivot variable alone,
    by synthetic division (the Horner pass)."""
    rng = random.Random(321)
    for trial in range(20):
        arity = rng.randint(2, 4)
        coeffs_ = [F(0)] * arity
        while all(c == 0 for c in coeffs_):
            coeffs_ = [F(rng.randint(-2, 2)) for _ in range(arity)]
        form = LinearForm(tuple(coeffs_))
        factors = [form.to_poly()] if trial % 2 == 0 else []
        poly = MultiPoly.const(arity, 1)
        for f in factors:
            poly = poly * f
        for _ in range(2):
            exp = tuple(rng.randint(0, 2) for _ in range(arity))
            poly = poly * MultiPoly(arity, {exp: F(rng.randint(1, 3))})
        extra = MultiPoly(
            arity,
            {tuple(rng.randint(0, 2) for _ in range(arity)): F(rng.randint(1, 2))},
        )
        if trial % 3 == 0:
            poly = poly + extra
        assert divides_linear_form(poly, form) == divides(poly, form)


def test_divide_by_linear_form_roundtrip():
    """Exact division by a linear form, as extract_linear_factors peels it."""
    rng = random.Random(99)
    for _ in range(20):
        arity = rng.randint(2, 4)
        coeffs_ = [F(0)] * arity
        while all(c == 0 for c in coeffs_):
            coeffs_ = [F(rng.randint(-3, 3)) for _ in range(arity)]
        form = LinearForm(tuple(coeffs_))
        terms = {
            tuple(rng.randint(0, 3) for _ in range(arity)): F(rng.randint(-3, 3))
            for _ in range(3)
        }
        q = MultiPoly(arity, terms)
        product = q * form.to_poly()
        factors, cofactor = extract_linear_factors(product, [form])
        if q.is_zero():
            assert (factors, cofactor) == ([], product)
            continue
        [(factor, mult)] = factors
        assert factor == form and cofactor * form.to_poly() ** (mult - 1) == q
    x1, x2 = V("x1", "x2")
    assert extract_linear_factors(x1 + x2, [LinearForm((F(1), F(-1)))]) == ([], x1 + x2)


def test_divides_examples():
    x1, x2 = V("x1", "x2")
    assert divides_linear_form(x1 * x1 - x2 * x2, LinearForm((F(1), F(1))))


def test_extract_linear_factors():
    x1, x2, x3 = V("a", "b", "c")
    f12 = LinearForm((F(1), F(-1), F(0)))
    f13 = LinearForm((F(1), F(0), F(-1)))
    p = (x1 - x2) * (x1 - x2) * (x1 - x3) * (x2 + x3)
    factors, cofactor = extract_linear_factors(p, [f12, f13])
    assert dict(factors) == {f12: 2, f13: 1}
    assert cofactor == x2 + x3


def _support_cases():
    x1, x2, x3 = V("x1", "x2", "x3")
    # (poly, form, the Horner methods the three kernels run, in order)
    return [
        # X3 misses the support {X1, X2}
        (x1 * x2 + x3, LinearForm((1, -1, 0)), ()),
        # a constant misses every support
        (MultiPoly.const(3, F(2, 3)), LinearForm((1, 1, 1)), ()),
        # pivot after a zero and Fraction coefficients: X1^2 misses {X2, X3}
        (x1 * x1 * F(1, 2) - x2 * x3, LinearForm((F(0), F(3, 2), F(-1, 2))), ()),
        # every term meets {X1, X3}, and the Horner pass refuses the form
        (x1 * x2 + x2 * x3, LinearForm((1, 0, -1)), ("_horner", "_horner", "_restriction")),
        # the zero polynomial has no term to miss, and every form divides it;
        # restriction by a form that is not X_p +- X_q runs a Horner pass
        (MultiPoly.zero(3), LinearForm((2, 0, -3)), ("_horner", "_restriction", "_horner")),
    ]


@pytest.mark.parametrize("poly, form, passes", _support_cases())
def test_a_form_that_misses_a_term_is_refused_before_the_horner_pass(poly, form, passes,
                                                                     monkeypatch):
    """If L divides N, every term of N = L * Q has a variable of supp(L), so
    a term without one refuses L with no Horner pass; the sweeps and
    `divides_linear_form` run the pass only on a form that meets every
    term."""
    ran = []

    def spied(name):
        method = getattr(LinearForm, name)

        def run(self, width, num):
            if not passes:
                raise AssertionError(f"{name} ran on a form that misses a term")
            ran.append(name)
            return method(self, width, num)
        return run

    monkeypatch.setattr(LinearForm, "_horner", spied("_horner"))
    monkeypatch.setattr(LinearForm, "_restriction", spied("_restriction"))
    zero = poly.is_zero()
    assert linear_divisors(poly, [form]) == ([form] if zero else [])
    assert extract_linear_factors(poly, [form]) == ([], poly)
    assert divides_linear_form(poly, form) == zero == divides(poly, form)
    assert tuple(ran) == passes


@st.composite
def kernel_cases(draw):
    """A polynomial with rational coefficients, possibly zero, times some
    of up to three forms, and those forms as candidates.  Pivots range over
    +-1/3 .. +-7, so they are often negative or of magnitude above one, and
    often follow leading zero coefficients."""
    arity = draw(st.integers(1, 4))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        pivot = draw(st.integers(0, arity - 1))
        lead = draw(st.fractions(min_value=-7, max_value=7, max_denominator=3).filter(bool))
        tail = draw(st.lists(form_coeffs, min_size=arity - pivot - 1, max_size=arity - pivot - 1))
        forms.append(LinearForm((F(0),) * pivot + (lead,) + tuple(tail)))
    poly = draw(polys(arity=arity, max_degree=3, max_terms=5))
    for k in draw(st.lists(st.integers(0, len(forms) - 1), max_size=3)):
        poly = poly * forms[k].to_poly()
    return poly, forms


def _fraction_horner_results(poly, forms):
    """([(restriction, divisible)] per form, (factors, cofactor)) by the
    reference Horner pass."""
    layers = [fraction_horner(poly, form)[0] for form in forms]
    return ([(MultiPoly(poly.arity - 1, h0), not h0) for h0 in layers],
            fraction_extract(poly, forms))


def _assert_kernels_match_fraction_horner(poly, forms, expected):
    """Restriction, divisibility and extraction agree with the reference
    results, in value and in emission order, and stay normalized."""
    per_form, (expected_factors, expected_cofactor) = expected
    for form, (expected_rest, divisible) in zip(forms, per_form):
        rest = restrict_to_hyperplane(poly, form)
        assert rest == expected_rest, "restriction"
        assert graded_terms(rest) == graded_terms(expected_rest), "restriction's rows"
        assert_normalized(rest, poly.arity - 1)
        assert divides_linear_form(poly, form) == divisible, "divisibility"
    factors, cofactor = extract_linear_factors(poly, forms)
    assert factors == expected_factors, "extracted factors"
    assert cofactor == expected_cofactor, "cofactor"
    assert graded_terms(cofactor) == graded_terms(expected_cofactor), "cofactor's rows"
    assert_normalized(cofactor, poly.arity)


@settings(max_examples=300, deadline=None)
@given(kernel_cases(), st.randoms(use_true_random=False))
@example((MultiPoly(2, {}), [LinearForm((F(-3), F(2)))]), random.Random(0))
@example(
    (
        MultiPoly(3, {(0, 2, 1): F(-6, 5), (0, 1, 2): F(4, 5), (1, 0, 0): F(1, 2)})
        * LinearForm((F(0), F(-3), F(2))).to_poly(),
        [LinearForm((F(0), F(-3), F(2))), LinearForm((F(0), F(6), F(-4)))],
    ),
    random.Random(0),
)
# a duplicate candidate, and a proportional one after a squared factor
@example((MultiPoly.variable(1, 0), [LinearForm((F(1),)), LinearForm((F(1),))]), random.Random(0))
@example(
    (
        linear_form_product(2, [LinearForm((F(2), F(-3)))] * 2 + [LinearForm((F(0), F(1)))]),
        [LinearForm((F(0), F(1))), LinearForm((F(2), F(-3))), LinearForm((F(-4), F(6)))],
    ),
    random.Random(0),
)
@example((MultiPoly(1, {(3,): F(2, 3)}), [LinearForm((F(-2),))]), random.Random(0))
# Degree 8 drops to 7 on division, so the cofactor's fields narrow.
@example((
    linear_form_product(2, [LinearForm((F(1), F(-1)))] * 8),
    [LinearForm((F(1), F(-1))), LinearForm((F(2), F(3)))],
), random.Random(0))
def test_integer_horner_matches_fraction_oracle(case, rng):
    """The kernels against the reference Horner pass on the public value
    and on the same value built in the integer form, with no Fraction view;
    extraction by distinct candidates ignores their order."""
    poly, forms = case
    expected = _fraction_horner_results(poly, forms)
    _assert_kernels_match_fraction_horner(poly, forms, expected)
    kernel = extract_linear_factors(poly, [])[1]
    assert kernel._terms is None and kernel == poly, "a kernel result without a view"
    _assert_kernels_match_fraction_horner(kernel, forms, expected)
    distinct = list({primitive(form).coeffs: form for form in forms}.values())
    factors, cofactor = extract_linear_factors(poly, distinct)
    shuffled = rng.sample(distinct, len(distinct))
    got, got_cofactor = extract_linear_factors(poly, shuffled)
    assert dict(got) == dict(factors) and got_cofactor == cofactor, "candidate order"
    assert [form for form, _ in got] == [form for form in shuffled if form in dict(got)], \
        "factors in candidate order"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_char_poly_det_kernels_match_fraction_horner(n):
    from diracindex.sun1 import _root_forms, char_poly_det

    forms = list(_root_forms(n).values())
    for i in range(1, n):
        det = char_poly_det.__wrapped__(n, i)
        # the same value through the public constructor
        fractions = MultiPoly(n, dict(det.terms))
        assert det == fractions and hash(det) == hash(fractions)
        _assert_kernels_match_fraction_horner(det, forms, _fraction_horner_results(det, forms))


@st.composite
def divisor_cases(draw):
    """A polynomial, possibly zero, times some of up to three forms, some
    of them more than once, and those forms as candidates with forms
    proportional to them mixed in, in any order.  Pivots range over +-1/3
    .. +-7 and may follow leading zero coefficients."""
    arity = draw(st.integers(1, 4))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        pivot = draw(st.integers(0, arity - 1))
        lead = draw(st.fractions(min_value=-7, max_value=7, max_denominator=3).filter(bool))
        tail = draw(st.lists(form_coeffs, min_size=arity - pivot - 1, max_size=arity - pivot - 1))
        forms.append(LinearForm((F(0),) * pivot + (lead,) + tuple(tail)))
    poly = draw(polys(arity=arity, max_degree=2, max_terms=4))
    for k in draw(st.lists(st.integers(0, len(forms) - 1), max_size=4)):
        poly = poly * forms[k].to_poly()
    for k in draw(st.lists(st.integers(0, len(forms) - 1), max_size=2)):
        scale = draw(st.sampled_from([F(1), F(-1), F(2), F(-3, 2)]))
        forms.append(LinearForm(tuple(c * scale for c in forms[k].coeffs)))
    return poly, draw(st.permutations(forms))


def _ratios(form):
    """The coefficients over the first nonzero one: equal exactly for
    proportional forms."""
    lead = next(F(c) for c in form.coeffs if c)
    return tuple(F(c) / lead for c in form.coeffs)


@settings(max_examples=200, deadline=None)
@given(divisor_cases())
# pivot coefficient 3/2 after a zero, four nonzero coefficients, a square
@example((
    MultiPoly(4, {(1, 0, 2, 0): F(2, 3), (0, 1, 0, 1): F(-1)})
    * linear_form_product(4, [LinearForm((F(0), F(3, 2), F(-1, 2), F(2)))] * 2),
    [LinearForm((1, 1, -1, 0)), LinearForm((F(0), F(3, 2), F(-1, 2), F(2)))],
))
# proportional duplicates, each before and after the first divisor
@example((
    linear_form_product(3, [LinearForm((2, -3, 1)), LinearForm((0, 1, 1))]),
    [LinearForm((-4, 6, -2)), LinearForm((0, 1, 1)), LinearForm((2, -3, 1)),
     LinearForm((0, F(-1, 2), F(-1, 2)))],
))
# the zero polynomial, which every form divides
@example((MultiPoly.zero(2), [LinearForm((F(-3), F(2))), LinearForm((6, -4)), LinearForm((0, 1))]))
def test_linear_divisors_match_extraction_and_the_fraction_quotients(case):
    """One sweep finds the distinct candidates that divide, in candidate
    order: those that `extract_linear_factors` finds with multiplicity,
    and those that `divides_linear_form` accepts.  Each running quotient
    of the sweep is the reference Horner quotient, normalized."""
    poly, candidates = case
    distinct: dict = {}
    for form in candidates:
        distinct.setdefault(_ratios(form), form)
    distinct = list(distinct.values())
    divisors = linear_divisors(poly, candidates)
    assert divisors == [form for form in distinct if divides_linear_form(poly, form)]
    factors, _ = extract_linear_factors(poly, candidates)
    if poly.is_zero():
        assert divisors == distinct and factors == [], "zero: every form divides, none is a factor"
    else:
        assert divisors == [form for form, mult in factors if mult >= 1]
    den, width, num = poly._int_form()
    current, scale = poly, F(1, den)
    for form in distinct:
        hs = fraction_horner(current, form)
        quotient = form._horner(width, num)[1]
        assert (quotient is None) == bool(hs[0]), "divisibility of the running quotient"
        if quotient is not None:
            current = fraction_quotient(current, form, hs)
            num, scale = quotient, scale * F(form._scale[1], form._scale[0])
            kernel = MultiPoly._from_ints(poly.arity, width, num, scale)
            assert kernel == current, "the running quotient"
            assert_normalized(kernel, poly.arity)


# -- the eq/hash contract between kernel results and the constructor -------


def _numerator(poly: MultiPoly):
    """(D, N) with poly = N / D and N an int-valued dict on exponent tuples."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in poly.terms.items()}


@st.composite
def unnormalized_numerators(draw):
    """(poly, (width, num, scale)): poly = scale * num, num on packed keys of
    a width at or above the canonical one, times a common factor k that
    scale divides back out."""
    poly = draw(polys(arity=draw(st.integers(0, 4)), max_degree=4, max_terms=6))
    degree = max(poly.total_degree(), 1)
    width = degree.bit_length() + draw(st.integers(0, 2))
    k = draw(st.integers(-12, 12).filter(bool))
    den, num = _numerator(poly) if not poly.is_zero() else (1, {})
    packed = {
        sum(e << (i * width) for i, e in enumerate(exp)): c * k for exp, c in num.items()
    }
    return poly, (width, packed, F(1, den * k))


@settings(max_examples=300, deadline=None)
@given(unnormalized_numerators())
@example((MultiPoly(2, {(1, 1): F(3, 4), (2, 0): F(-3, 2)}), (3, {9: -18, 2: 36}, F(-1, 24))))
def test_kernel_and_public_constructor_agree_on_eq_and_hash(case):
    poly, (width, num, scale) = case
    kernel = MultiPoly._from_ints(poly.arity, width, num, scale)
    public = MultiPoly(poly.arity, dict(poly.terms))
    assert kernel == public and public == kernel
    assert hash(kernel) == hash(public)
    # normalized integer forms: equal values, equal (den, width, numerator)
    assert kernel._int_form() == public._int_form()
    assert kernel.terms == public.terms
    assert all(type(c) is F for c in kernel.terms.values())
    assert_normalized(kernel, poly.arity)
    # the Fraction view is cached and read-only
    assert kernel.terms is kernel.terms
    with pytest.raises(TypeError):
        kernel.terms[(0,) * poly.arity] = F(1)
    # negation stays in the integer form and keeps the contract
    assert -kernel == -public and hash(-kernel) == hash(-public)
    assert kernel.total_degree() == public.total_degree()


def test_forms_of_different_values_differ():
    x1, x2 = V("x1", "x2")
    kernel = linear_form_product(2, [LinearForm((F(1), F(-1)))])
    assert kernel == x1 - x2
    assert kernel != x2 - x1 and kernel != 2 * (x1 - x2)
    assert kernel != MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): -1})
    assert len({kernel, x1 - x2, -(x2 - x1)}) == 1


def test_primitive_forms():
    f = LinearForm((F(2), F(0)))
    assert primitive(f) == LinearForm((F(1), F(0)))
    g = LinearForm((F(-1, 2), F(1, 2)))
    assert primitive(g) == LinearForm((F(1), F(-1)))


# -- the integer data of a form, and restriction by substitution -----------


@st.composite
def form_values(draw):
    """Nonzero coefficient lists of ints, Fractions or both, often scaled by
    a content other than one and often with a negative pivot."""
    arity = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-6, 6), coeffs, st.sampled_from([F(3), F(-2), F(0)]))
    values = draw(st.lists(entry, min_size=arity, max_size=arity))
    if not any(values):
        values[draw(st.integers(0, arity - 1))] = draw(st.sampled_from([1, -2, F(-1, 2)]))
    scale = draw(st.sampled_from([1, -1, 3, -6, F(1, 2), F(-2, 3)]))
    return [v * scale for v in values]


@settings(max_examples=300, deadline=None)
@given(form_values())
@example([F(-2), 0, F(2)])
@example([3, 0, -6])
@example([F(1, 2), F(-1, 2)])
# all ints: primitive as given, and with a negative pivot
@example([0, 2, -3])
@example([-1, 0, 1])
def test_stored_form_data_matches_fraction_oracle(values):
    form = LinearForm(tuple(values))
    content, ints, pivot = form_content(form)
    assert form._scale == (content.numerator, content.denominator)
    assert form._ints == tuple(ints)
    assert form._pivot == pivot and form._lead == ints[pivot] > 0
    assert all(type(k) is int for k in form._ints)
    assert form.coeffs == tuple(values)


@pytest.mark.parametrize("values", [(), (0,), (0, 0), (F(0), 0, F(0))])
def test_zero_form_raises(values):
    with pytest.raises(ZeroForm):
        LinearForm(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(any))
def test_int_and_fraction_forms_agree(values):
    ints, fractions = LinearForm(tuple(values)), LinearForm(tuple(F(v) for v in values))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert [frac_str(c) for c in ints.coeffs] == [frac_str(c) for c in fractions.coeffs]
    assert ints._scale == fractions._scale and ints._ints == fractions._ints
    assert ints._pivot == fractions._pivot


@st.composite
def unit_form_cases(draw):
    """A polynomial of arity 2-5 (zero, a constant, random terms, or a
    multiple of the form) and c (X_p + s X_q) with s = +-1, c in
    {1, 3, -1, 1/2}."""
    arity = draw(st.integers(2, 5))
    p, q = draw(st.permutations(range(arity)))[:2]
    values = [0] * arity
    values[p], values[q] = 1, draw(st.sampled_from([1, -1]))
    c = draw(st.sampled_from([1, 3, -1, F(1, 2)]))
    form = LinearForm(tuple(v * c for v in values))
    poly = draw(st.one_of(
        polys(arity=arity, max_degree=4, max_terms=8),
        coeffs.map(lambda k: MultiPoly.const(arity, k)),
    ))
    if draw(st.booleans()):
        poly = poly * form.to_poly()
    return poly, form


@settings(max_examples=300, deadline=None)
@given(unit_form_cases())
@example((MultiPoly(2, {}), LinearForm((1, 1))))
@example((MultiPoly.const(3, F(2, 3)), LinearForm((0, F(1, 2), F(-1, 2)))))
def test_substitution_matches_horner_oracle(case):
    """A unit form takes the substitution branch, which runs no Horner pass
    of the kernel, and agrees with the reference Horner pass."""
    poly, form = case
    expected = restrict(poly, form)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearForm, "_horner", None)
        rest = restrict_to_hyperplane(poly, form)
        divisible = divides_linear_form(poly, form)
    assert rest == expected and rest._int_form() == expected._int_form(), "restriction"
    assert_normalized(rest, poly.arity - 1)
    assert divisible == divides(poly, form) == rest.is_zero(), "divisibility"


def test_harmonic_examples():
    d2 = build_root_datum(GroupId.su(1, 1))
    x1, x2 = V("x1", "x2")
    assert is_harmonic(x1 - x2, d2)
    sq = (x1 - x2) * (x1 - x2)
    assert power_sum_image(sq, 2) == MultiPoly.const(2, 4)
    assert not is_harmonic(sq, d2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vandermonde_harmonic_type_a(n):
    """Oracle: apply all power sums p_1..p_n of derivatives and check zero."""
    from diracindex.sun1 import vandermonde

    vdm = vandermonde(n)
    datum = build_root_datum(GroupId.su(1, n - 1)) if n > 1 else None
    for k in range(1, n + 1):
        assert power_sum_image(vdm, k).is_zero()
    assert is_harmonic(vdm, datum)


def test_harmonic_type_bcd_generators():
    # type C rank 2: p_2, p_4; the compact-root difference is harmonic
    sp4 = build_root_datum(GroupId.sp_r(2))
    x1, x2 = V("x1", "x2")
    assert is_harmonic(x1 - x2, sp4)
    assert not is_harmonic(x1 * x1, sp4)
    # type D rank 2 includes the product derivative d_1 d_2
    so22 = build_root_datum(GroupId.so_even_even(1, 1))
    assert is_harmonic(x1 * x1 - x2 * x2, so22)
    assert not is_harmonic(x1 * x2, so22)
    images = invariant_operator_images(x1 * x2, so22)
    assert any(not im.is_zero() for im in images)


def test_harmonicity_weyl_invariant():
    from diracindex.weylaction import act
    from diracindex.groups import weyl_elements

    d = build_root_datum(GroupId.sp_r(2))
    rng = random.Random(7)
    for _ in range(10):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-2, 2))
            for _ in range(3)
        }
        p = MultiPoly(2, terms)
        flags = {is_harmonic(act(w, p), d) for w in weyl_elements(d, "g")}
        assert len(flags) == 1


def test_poly_det_matches_permutation_expansion():
    rng = random.Random(15)
    for _ in range(5):
        n = rng.randint(2, 4)
        rows = [
            [
                MultiPoly(
                    2,
                    {
                        (rng.randint(0, 1), rng.randint(0, 1)): F(
                            rng.randint(-2, 2)
                        )
                    },
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert poly_det(rows) == leibniz_det(rows)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): F(1)})
