import functools
import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from diracindex.errors import DimensionMismatch, ZeroForm
from diracindex.groups import GroupId, build_root_datum
from diracindex.polynomials import (
    LinearForm,
    MultiPoly,
    _gl_key,
    divides_linear_form,
    extract_linear_factors,
    invariant_operator_images,
    is_harmonic,
    linear_form_product,
    poly_det,
    restrict_to_hyperplane,
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
@given(polys(), polys(), st.lists(coeffs, min_size=3, max_size=3))
def test_ring_axioms_and_eval_homomorphism(p, q, point):
    assert (p + q) - q == p
    assert p * q == q * p
    pt = tuple(point)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_eval_examples():
    x1, x2 = V("x1", "x2")
    assert (x1 - x2).evaluate((3, 1)) == 2
    x, y, z = V("x", "y", "z")
    vdm = (x - y) * (x - z) * (y - z)
    assert vdm.evaluate((2, 1, 0)) == 2
    assert MultiPoly.zero(2).evaluate((5, 7)) == 0
    with pytest.raises(DimensionMismatch):
        x1.evaluate((1, 2, 3))


def test_sorted_terms_graded_lex():
    x1, x2 = V("x1", "x2")
    p = (x1 - x2) + MultiPoly.const(2, 7)
    order = [exp for exp, _ in p.sorted_terms()]
    assert order == [(0, 0), (1, 0), (0, 1)]


@settings(max_examples=100, deadline=None)
@given(polys(arity=4, max_degree=4, max_terms=12))
@example(MultiPoly(3, {(0, 0, 0): 1, (0, 0, 2): 2, (1, 1, 0): 3, (2, 0, 0): 4, (0, 1, 0): 5}))
def test_sorted_terms_matches_gl_key_sort(poly):
    expected = sorted(poly.terms.items(), key=lambda t: _gl_key(t[0]))
    assert poly.sorted_terms() == expected


def test_linear_form_product_examples():
    f = LinearForm((F(1), F(-1)))
    assert linear_form_product(2, [f]) == MultiPoly(2, {(1, 0): 1, (0, 1): -1})
    assert linear_form_product(3, []) == MultiPoly.const(3, 1)

    # compact-root products match the displayed generators
    sp4 = build_root_datum(GroupId.sp_r(2))
    forms = [LinearForm.from_weight(a) for a in sp4.compact_positive_roots]
    x1, x2 = V("x1", "x2")
    assert linear_form_product(2, forms) == x1 - x2

    so45 = build_root_datum(GroupId.so_even_odd(2, 2))
    forms = [LinearForm.from_weight(a) for a in so45.compact_positive_roots]
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
@given(form_products())
def test_linear_form_product_matches_naive_fold(case):
    arity, forms = case
    naive = functools.reduce(
        MultiPoly.__mul__, (f.to_poly() for f in forms), MultiPoly.const(arity, 1)
    )
    product = linear_form_product(arity, forms)
    assert product == naive
    assert product.sorted_terms() == naive.sorted_terms()
    assert_normalized(product, arity)


@settings(max_examples=100, deadline=None)
@given(form_products(), st.data())
def test_linear_form_product_ignores_form_order(case, data):
    arity, forms = case
    shuffled = data.draw(st.permutations(forms))
    expected = linear_form_product(arity, forms).sorted_terms()
    assert linear_form_product(arity, shuffled).sorted_terms() == expected


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


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), coeffs)
def test_kernel_results_stay_normalized(p, q, c):
    for result in (p + q, p - q, p + (-p), -p, p * q, p * c, p * 0, p.derivative(1)):
        assert_normalized(result, 3)
    assert (p + (-p)).terms == {}


# The Fraction-dict ring operations that the packed ones replaced, kept
# verbatim as the reference: every operation must agree with them by `==`,
# by hash and term for term.  `==` compares (den, width, num) with a value
# the public constructor packed, so agreement also means the kernel result
# is normalized.


def _fraction_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    terms = dict(p.terms)
    for exp, c in q.terms.items():
        total = terms.get(exp, 0) + c
        if total:
            terms[exp] = total
        else:
            del terms[exp]
    return MultiPoly(p.arity, terms)


def _fraction_mul(p: MultiPoly, other) -> MultiPoly:
    if not isinstance(other, MultiPoly):
        scalar = F(other)
        if not scalar:
            return MultiPoly.zero(p.arity)
        return MultiPoly(p.arity, {e: c * scalar for e, c in p.terms.items()})
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in other.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return MultiPoly(p.arity, {e: c for e, c in out.items() if c})


def _fraction_derivative(p: MultiPoly, i: int, k: int) -> MultiPoly:
    out = {}
    for exp, coeff in p.terms.items():
        if exp[i] >= k:
            out[exp[:i] + (exp[i] - k,) + exp[i + 1 :]] = coeff * math.perm(exp[i], k)
    return MultiPoly(p.arity, out)


def _fraction_pow(p: MultiPoly, n: int) -> MultiPoly:
    return functools.reduce(_fraction_mul, [p] * n, MultiPoly.const(p.arity, 1))


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
        minus_q = _fraction_mul(q, -1)
        _assert_same(p + q, _fraction_add(p, q))
        _assert_same(p - q, _fraction_add(p, minus_q))
        _assert_same(-q, minus_q)
        _assert_same(p + c, _fraction_add(p, MultiPoly.const(arity, c)))
        _assert_same(p * q, _fraction_mul(p, q))
        _assert_same(p * c, _fraction_mul(p, c))
        _assert_same(c * p, _fraction_mul(p, c))
        _assert_same(p * 0, _fraction_mul(p, 0))
        _assert_same(0 * p, MultiPoly.zero(arity))
        _assert_same(p**n, _fraction_pow(p, n))
        # a cancellation down to q, whose fields may be narrower
        _assert_same((p + q) - p, case[1])
        if arity:
            j = i % arity
            _assert_same(p.derivative(j, k), _fraction_derivative(p, j, k))
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


def _restrict_by_substitution(poly: MultiPoly, form: LinearForm) -> MultiPoly:
    """Reference restriction: multiply every term by the matching power of
    the substitution S = -sum_{i != j} (c_i / c_j) X_i, memoized."""
    j = form.pivot()
    cj = form.coeffs[j]
    new_arity = poly.arity - 1
    sub_coeffs = [-form.coeffs[i] / cj for i in range(poly.arity) if i != j]
    substitution = MultiPoly.from_linear(sub_coeffs)
    sub_powers = {0: MultiPoly.const(new_arity, 1)}

    def power(d):
        if d not in sub_powers:
            sub_powers[d] = power(d - 1) * substitution
        return sub_powers[d]

    acc = {}
    for exp, coeff in poly.terms.items():
        rest = tuple(e for i, e in enumerate(exp) if i != j)
        for sexp, scoeff in power(exp[j]).terms.items():
            key = tuple(a + b for a, b in zip(sexp, rest))
            acc[key] = acc.get(key, F(0)) + coeff * scoeff
    return MultiPoly(new_arity, acc)


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
    poly, form = case
    arity, j = poly.arity, form.pivot()
    rest = restrict_to_hyperplane(poly, form)
    assert rest == _restrict_by_substitution(poly, form)
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


def _univariate_division_oracle(p: MultiPoly, form: LinearForm) -> bool:
    """Divisibility via a full linear change of coordinates: map the form
    to the first new variable and check the univariate remainder there."""
    arity = p.arity
    j = form.pivot()
    # old X_j = (Y_1 - sum_{i != j} c_i Y_slot(i)) / c_j; old X_i = Y_slot(i)
    slots = {}
    nxt = 1
    for i in range(arity):
        if i != j:
            slots[i] = nxt
            nxt += 1
    images = []
    for i in range(arity):
        if i == j:
            coeffs_ = [F(0)] * arity
            coeffs_[0] = F(1) / form.coeffs[j]
            for k in range(arity):
                if k != j:
                    coeffs_[slots[k]] = -form.coeffs[k] / form.coeffs[j]
            images.append(MultiPoly.from_linear(coeffs_))
        else:
            images.append(MultiPoly.variable(arity, slots[i]))
    transformed = MultiPoly.zero(arity)
    for exp, c in p.terms.items():
        term = MultiPoly.const(arity, c)
        for i, e in enumerate(exp):
            for _ in range(e):
                term = term * images[i]
        transformed = transformed + term
    # remainder modulo Y_1: drop every monomial with positive Y_1 exponent
    remainder = MultiPoly(
        arity, {e: c for e, c in transformed.terms.items() if e[0] == 0}
    )
    return remainder.is_zero()


def test_divides_agrees_with_univariate_oracle():
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
        assert divides_linear_form(poly, form) == _univariate_division_oracle(
            poly, form
        )


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


# The Fraction Horner pass that the integer pass replaced, kept verbatim as
# the reference: restriction, divisibility, division and factor extraction
# must agree with it term for term.


def _fraction_horner(poly: MultiPoly, form: LinearForm) -> list[dict]:
    """[H_0, ..., H_top] of the Horner pass (module docstring) as term
    dicts over the variables other than the pivot, renumbered in order."""
    if poly.arity != form.arity:
        raise DimensionMismatch("polynomial and form arities differ")
    j = form.pivot()
    cj = form.coeffs[j]
    # X_i with i > j is variable i - 1 of H; every c_i with i < j is zero.
    steps = [(k, -c / cj) for k, c in enumerate(form.coeffs[j + 1 :], j) if c]
    layers: dict[int, dict] = {}
    for exp, coeff in poly.terms.items():
        layers.setdefault(exp[j], {})[exp[:j] + exp[j + 1 :]] = coeff
    top = max(layers, default=0)
    hs = [layers.get(top, {})]
    for d in range(top - 1, -1, -1):
        acc = layers.pop(d, {})
        for exp, c in hs[-1].items():
            for k, s in steps:
                key = exp[:k] + (exp[k] + 1,) + exp[k + 1 :]
                term = c * s
                acc[key] = acc[key] + term if key in acc else term
        hs.append({e: c for e, c in acc.items() if c})
    hs.reverse()
    return hs


def _fraction_quotient(poly: MultiPoly, form: LinearForm, hs: list[dict]) -> MultiPoly:
    """poly / form assembled from the Horner layers hs[1:]."""
    j = form.pivot()
    inv = 1 / form.coeffs[j]
    return MultiPoly(
        poly.arity,
        {
            exp[:j] + (d,) + exp[j:]: c * inv
            for d, layer in enumerate(hs[1:])
            for exp, c in layer.items()
        },
    )


def _fraction_extract(poly: MultiPoly, candidates):
    factors = []
    current = poly
    for form in candidates:
        mult = 0
        while not current.is_zero():
            hs = _fraction_horner(current, form)
            if hs[0]:
                break
            current = _fraction_quotient(current, form, hs)
            mult += 1
        if mult:
            factors.append((form, mult))
    return factors, current


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


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((MultiPoly(2, {}), [LinearForm((F(-3), F(2)))]))
@example(
    (
        MultiPoly(3, {(0, 2, 1): F(-6, 5), (0, 1, 2): F(4, 5), (1, 0, 0): F(1, 2)})
        * LinearForm((F(0), F(-3), F(2))).to_poly(),
        [LinearForm((F(0), F(-3), F(2))), LinearForm((F(0), F(6), F(-4)))],
    )
)
def test_integer_horner_matches_fraction_oracle(case):
    poly, forms = case
    for form in forms:
        hs = _fraction_horner(poly, form)
        rest = restrict_to_hyperplane(poly, form)
        assert rest == MultiPoly(poly.arity - 1, hs[0])
        assert_normalized(rest, poly.arity - 1)
        assert divides_linear_form(poly, form) == (not hs[0])
    factors, cofactor = extract_linear_factors(poly, forms)
    assert (factors, cofactor) == _fraction_extract(poly, forms)
    assert_normalized(cofactor, poly.arity)


# The tuple-key integer Horner pass that the packed pass replaced, kept
# verbatim as a second reference: it took the integer numerator apart into
# exponent tuples on every call and built a new tuple per term and step.


def _numerator(poly: MultiPoly):
    """(D, N) with poly = N / D and N an int-valued dict on exponent tuples."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in poly.terms.items()}


class _TuplePivot:
    def __init__(self, arity, form):
        self.content, ints = form._content()
        self.j = j = form.pivot()
        self.a = ints[j]
        self.steps = [(k, -c) for k, c in enumerate(ints[j + 1 :], j) if c]

    def horner(self, num):
        j, a, steps = self.j, self.a, self.steps
        layers = {}
        for exp, coeff in num.items():
            layers.setdefault(exp[j], {})[exp[:j] + exp[j + 1 :]] = coeff
        top = max(layers, default=0)
        hs = [layers.get(top, {})]
        for d in range(top - 1, -1, -1):
            acc = layers.pop(d, {})
            if a != 1:
                power = a ** (top - d)
                acc = {e: c * power for e, c in acc.items()}
            for exp, c in hs[-1].items():
                for k, s in steps:
                    key = exp[:k] + (exp[k] + 1,) + exp[k + 1 :]
                    term = c * s
                    acc[key] = acc[key] + term if key in acc else term
            hs.append({e: c for e, c in acc.items() if c})
        hs.reverse()
        return hs

    def quotient(self, hs):
        j, top = self.j, len(hs) - 1
        powers = [self.a ** (top - d) for d in range(top)]
        return {
            exp[:j] + (d,) + exp[j:]: c // powers[d]
            for d, layer in enumerate(hs[1:])
            for exp, c in layer.items()
        }


def _tuple_restrict(poly, form):
    pivot = _TuplePivot(poly.arity, form)
    den, num = _numerator(poly)
    hs = pivot.horner(num)
    scale = F(1, pivot.a ** (len(hs) - 1) * den)
    return MultiPoly(poly.arity - 1, {e: c * scale for e, c in hs[0].items()})


def _tuple_divides(poly, form):
    return not _TuplePivot(poly.arity, form).horner(_numerator(poly)[1])[0]


def _tuple_extract(poly, candidates):
    factors = []
    den, num = _numerator(poly)
    scale = F(1, den)
    for form in candidates:
        pivot = _TuplePivot(poly.arity, form)
        mult = 0
        while num:
            hs = pivot.horner(num)
            if hs[0]:
                break
            num = pivot.quotient(hs)
            scale /= pivot.content
            mult += 1
        if mult:
            factors.append((form, mult))
    return factors, MultiPoly(poly.arity, {e: c * scale for e, c in num.items()})


def _assert_same_kernel_results(poly, forms):
    for form in forms:
        rest = restrict_to_hyperplane(poly, form)
        expected = _tuple_restrict(poly, form)
        assert rest == expected and rest.sorted_terms() == expected.sorted_terms()
        assert_normalized(rest, poly.arity - 1)
        assert divides_linear_form(poly, form) == _tuple_divides(poly, form)
    factors, cofactor = extract_linear_factors(poly, forms)
    expected_factors, expected_cofactor = _tuple_extract(poly, forms)
    assert factors == expected_factors
    assert cofactor == expected_cofactor
    assert cofactor.sorted_terms() == expected_cofactor.sorted_terms()
    assert_normalized(cofactor, poly.arity)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((MultiPoly(1, {(3,): F(2, 3)}), [LinearForm((F(-2),))]))
# Degree 8 drops to 7 on division, so the cofactor's fields narrow.
@example((
    linear_form_product(2, [LinearForm((F(1), F(-1)))] * 8),
    [LinearForm((F(1), F(-1))), LinearForm((F(2), F(3)))],
))
def test_packed_horner_matches_tuple_key_oracle(case):
    poly, forms = case
    _assert_same_kernel_results(poly, forms)
    # the same value as a kernel result, built in the integer form
    kernel = extract_linear_factors(poly, [])[1]
    assert kernel._terms is None and kernel == poly
    _assert_same_kernel_results(kernel, forms)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_char_poly_det_kernels_match_tuple_key_oracle(n):
    from diracindex.sun1 import _root_forms, char_poly_det

    forms = _root_forms(n)
    for i in range(1, n):
        det = char_poly_det.__wrapped__(n, i)
        # the same value through the public constructor
        fractions = MultiPoly(n, dict(det.terms))
        assert det == fractions and hash(det) == hash(fractions)
        _assert_same_kernel_results(det, forms)


# -- the eq/hash contract between kernel results and the constructor -------


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
    assert f.primitive() == LinearForm((F(1), F(0)))
    g = LinearForm((F(-1, 2), F(1, 2)))
    assert g.primitive() == LinearForm((F(1), F(-1)))


def _apply_power_sum(poly, k):
    out = MultiPoly.zero(poly.arity)
    for i in range(poly.arity):
        p = poly
        for _ in range(k):
            p = p.derivative(i)
        out = out + p
    return out


def test_harmonic_examples():
    d2 = build_root_datum(GroupId.su(1, 1))
    x1, x2 = V("x1", "x2")
    assert is_harmonic(x1 - x2, d2)
    sq = (x1 - x2) * (x1 - x2)
    assert _apply_power_sum(sq, 2) == MultiPoly.const(2, 4)
    assert not is_harmonic(sq, d2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vandermonde_harmonic_type_a(n):
    """Oracle: apply all power sums p_1..p_n of derivatives and check zero."""
    from diracindex.sun1 import vandermonde

    vdm = vandermonde(n)
    datum = build_root_datum(GroupId.su(1, n - 1)) if n > 1 else None
    for k in range(1, n + 1):
        assert _apply_power_sum(vdm, k).is_zero()
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


def _det_permutation_oracle(rows):
    n = len(rows)
    arity = rows[0][0].arity
    total = MultiPoly.zero(arity)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = MultiPoly.const(arity, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


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
        assert poly_det(rows) == _det_permutation_oracle(rows)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): F(1)})
