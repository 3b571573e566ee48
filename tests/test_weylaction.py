import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diracindex import polynomials, springer, weylaction
from diracindex.dirac import IndexFamily, index_polynomial
from diracindex.errors import CapExceeded
from diracindex.groups import (
    GroupId,
    WeylElement,
    build_root_datum,
    dot,
    reflection,
    weyl_elements,
)
from diracindex.polynomials import LinearForm, MultiPoly, linear_form_product
from diracindex.sun1 import char_poly_det
from diracindex.weylaction import (
    act,
    orbit_span,
    weyl_dim_poly,
    weyl_dim_value,
)
from reference import act_on_keys, gl_key


def _rank_oracle(polys):
    """Independent rank computation: dense matrix over the union of
    monomials, straightforward forward elimination."""
    monos = sorted({e for p in polys for e in p.terms})
    rows = [[p.terms.get(m, F(0)) for m in monos] for p in polys]
    rank = 0
    col = 0
    while col < len(monos) and rank < len(rows):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _oracle_leading(poly):
    return min(poly.terms, key=gl_key) if poly.terms else ()


def _oracle_reduce(poly, echelon):
    current = poly
    for b in echelon:
        lead = _oracle_leading(b)
        if not current.terms:
            break
        c = current.terms.get(lead)
        if c is not None:
            current = current - b * (c / b.terms[lead])
    return current


def oracle_echelonize(polys):
    """Gaussian elimination over Q on the Fraction terms: the reduced
    echelon basis, sorted by leading exponent in graded-lex order."""
    basis = []
    for p in polys:
        r = _oracle_reduce(p, basis)
        if not r.is_zero():
            lead = _oracle_leading(r)
            r = r * (F(1) / r.terms[lead])
            basis = [b - r * b.terms.get(lead, F(0)) for b in basis]
            basis.append(r)
            basis.sort(key=lambda b: gl_key(_oracle_leading(b)))
    return basis


def oracle_orbit_span(poly, datum):
    """The echelon basis of all |W_g| translates of poly."""
    return oracle_echelonize([act(w, poly) for w in weyl_elements(datum, "g")])


def oracle_contains(basis, poly):
    return _oracle_reduce(poly, basis).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(-3, 3, max_denominator=3),
        max_size=4,
    ).map(lambda terms: MultiPoly(2, terms)),
    max_size=5,
))
@example([MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1),
          MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1), MultiPoly.variable(2, 0)])
def test_oracle_echelonize_has_dense_rank_and_ignores_order(polys):
    basis = oracle_echelonize(polys)
    assert len(basis) == _rank_oracle(polys)
    assert oracle_echelonize(polys[::-1]) == basis
    assert all(oracle_contains(basis, p) for p in polys)


def test_act_examples():
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    s = WeylElement((1, 0), (1, 1))
    assert act(s, x1 - x2) == -(x1 - x2)
    e = WeylElement.identity(2)
    p = x1 * x2 + x1
    assert act(e, p) == p
    flip = WeylElement((0, 1), (-1, 1))
    assert act(flip, x1 * x2) == -(x1 * x2)


def test_act_is_group_action():
    d = build_root_datum(GroupId.sp_r(2))
    rng = random.Random(3)
    elements = weyl_elements(d, "g")
    p = MultiPoly(2, {(2, 0): F(1), (1, 1): F(-2), (0, 1): F(3)})
    for _ in range(20):
        a, b = rng.choice(elements), rng.choice(elements)
        assert act(a, act(b, p)) == act(a.compose(b), p)


def test_orbit_span_dims():
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    su11 = build_root_datum(GroupId.su(1, 1))
    span = orbit_span(x1 - x2, su11)
    assert span.dim == 1

    sp4 = build_root_datum(GroupId.sp_r(2))
    translates = [act(w, x1 - x2) for w in weyl_elements(sp4, "g")]
    assert _rank_oracle(translates) == 2
    span = orbit_span(x1 - x2, sp4)
    assert span.dim == 2

    span = orbit_span(MultiPoly.const(2, 5), sp4)
    assert span.dim == 1


def test_orbit_span_refuses_before_translating(monkeypatch):
    # P's own row has two columns, over a cap of one: no image is built.
    sp4 = build_root_datum(GroupId.sp_r(2))
    p = MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1)

    def no_move(width, new, perm, signs, num):
        raise AssertionError("an image built before the check of P's row")

    monkeypatch.setattr(polynomials, "_move_fields", no_move)
    monkeypatch.setattr(weylaction, "SPAN_COLUMN_CAP", 1)
    with pytest.raises(CapExceeded, match=r"^2 columns x 1 rows .* cap 1$"):
        orbit_span(p, sp4)


def test_orbit_span_refuses_on_exact_column_count(monkeypatch):
    # X1 has one term, but the span of its images +-X1, +-X2 has two columns.
    sp4 = build_root_datum(GroupId.sp_r(2))
    monkeypatch.setattr(weylaction, "SPAN_COLUMN_CAP", 1)
    with pytest.raises(CapExceeded, match=r"^2 columns x 2 rows .* cap 1$"):
        orbit_span(MultiPoly.variable(2, 0), sp4)
    monkeypatch.setattr(weylaction, "SPAN_COLUMN_CAP", 2)
    assert orbit_span(MultiPoly.variable(2, 0), sp4).dim == 2


def test_orbit_span_conjugation_invariant():
    d = build_root_datum(GroupId.sp_r(2))
    p = MultiPoly(2, {(2, 0): F(1), (0, 1): F(1)})
    dims = {orbit_span(act(w, p), d).dim for w in weyl_elements(d, "g")}
    assert len(dims) == 1


def test_span_contains():
    d = build_root_datum(GroupId.su(2, 1))
    dk = weyl_dim_poly(d)
    span = orbit_span(dk, d)
    assert span.contains(dk)
    assert span.contains(MultiPoly.zero(3))
    assert not span.contains(MultiPoly.const(3, 1))


def _assert_span_matches_oracle(datum, poly, other):
    """orbit_span and the Fraction echelon over all of W_g agree on the
    dimension and on membership of translates, their sums, other, zero,
    constants and a polynomial wider than poly."""
    span, basis = orbit_span(poly, datum), oracle_orbit_span(poly, datum)
    assert span.dim == len(basis)
    # each row is primitive, with its largest key as its pivot
    assert all(max(row) == p and math.gcd(*row.values()) == 1 for p, row in span.rows.items())
    n = datum.rank
    translates = [act(w, poly) for w in weyl_elements(datum, "g")[:6]]
    _, width, _ = poly._int_form()
    wider = MultiPoly.variable(n, 0) ** (1 << width)
    candidates = translates + [
        translates[0] + translates[-1],
        translates[1 % len(translates)] * 2 - translates[-1] * F(1, 3),
        other,
        other + translates[-1],
        MultiPoly.zero(n),
        MultiPoly.const(n, 1),
        MultiPoly.const(n, F(-7, 2)),
        wider,
        wider + poly,
    ]
    for q in candidates:
        assert span.contains(q) == oracle_contains(basis, q), q


RANK_LE_3 = [g for g in springer.table_groups(3) if g.rank <= 3]


@st.composite
def group_polys(draw):
    """(datum, P, other) on a table group of rank <= 3: P homogeneous or
    not, zero or constant included, and another polynomial of that arity."""
    datum = build_root_datum(draw(st.sampled_from(RANK_LE_3)))
    n = datum.rank
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    if draw(st.booleans()):  # homogeneous of one degree
        d = draw(st.integers(0, 3))
        exps = st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1).filter(
            lambda e: sum(e) <= d).map(lambda e: (*e, d - sum(e)))
    values = st.fractions(-4, 4, max_denominator=3)
    polys = st.dictionaries(exps, values, max_size=5).map(lambda t: MultiPoly(n, t))
    return datum, draw(polys), draw(polys)


@settings(max_examples=100, deadline=None)
@given(group_polys())
@example((build_root_datum(GroupId.sp_r(3)), MultiPoly.zero(3), MultiPoly.variable(3, 2)))
@example((build_root_datum(GroupId.su(2, 1)), MultiPoly.const(3, 5), MultiPoly.zero(3)))
@example((build_root_datum(GroupId.so_star(3)),
          MultiPoly(3, {(2, 1, 0): 1, (0, 0, 1): F(-1, 2), (0, 0, 0): 3}),
          MultiPoly(3, {(0, 1, 2): 1})))
def test_orbit_span_matches_fraction_echelon(case):
    _assert_span_matches_oracle(*case)


@pytest.mark.parametrize(
    "group", [g for g in springer.table_groups(4) if g.rank <= 4], ids=lambda g: g.label()
)
def test_orbit_span_of_dk_matches_fraction_echelon(group):
    datum = build_root_datum(group)
    n = datum.rank
    other = MultiPoly.variable(n, 0) ** datum.r_k if datum.r_k else MultiPoly.variable(n, 0)
    _assert_span_matches_oracle(datum, weyl_dim_poly(datum), other)


def test_weyl_dim_poly_su21():
    d = build_root_datum(GroupId.su(2, 1))
    x1 = MultiPoly.variable(3, 0)
    x2 = MultiPoly.variable(3, 1)
    assert weyl_dim_poly(d) == x1 - x2
    assert weyl_dim_poly(d).evaluate(d.rho_k) == 1


def test_weyl_dim_poly_su31_proportional_to_vandermonde():
    from diracindex.sun1 import vandermonde

    d = build_root_datum(GroupId.su(3, 1))
    dk = weyl_dim_poly(d)
    vdm3 = vandermonde(3)
    lifted = MultiPoly(4, {e + (0,): c for e, c in vdm3.terms.items()})
    # D_k = V / prod <rho_k, alpha>; the normalizing constant here is 1*1*2
    assert dk * 2 == lifted
    assert dk.evaluate(d.rho_k) == 1


def _parity(arrangement, order):
    """+1 or -1: the sign of the permutation that arranges order as
    arrangement, (-1)^(m - number of cycles)."""
    pos = [order.index(e) for e in arrangement]
    cycles = 0
    for start in range(len(pos)):
        if pos[start] is not None:
            cycles += 1
            i = start
            while pos[i] is not None:
                pos[i], i = None, pos[i]
    return -1 if (len(pos) - cycles) % 2 else 1


@pytest.mark.parametrize(
    "group", [g for g in springer.table_groups(8) if g.rank <= 8], ids=lambda g: g.label()
)
def test_weyl_dim_poly_is_the_product_of_block_alternants_in_order(group):
    """By Leibniz, the product of the block alternants det(x_i^{e_j}) has
    one term per choice of an arrangement of each block's exponents, signed
    by their parities: D_k's numerator is one scale times that, pinned by
    D_k(rho_k) = 1, and iterates in descending lex order, left block
    outermost."""
    datum = build_root_datum(group)
    dk = weyl_dim_poly.__wrapped__(datum)
    _, width, num = dk._int_form()
    assert width == max(datum.r_k, 1).bit_length()
    blocks = datum.compact_blocks
    rows = _dict_order_exponents(dk)
    by_block = [tuple(tuple(row[i] for i in b.indices) for b in blocks) for row in rows]
    assert by_block == sorted(set(by_block), reverse=True)
    assert len(by_block) == math.prod(math.factorial(b.size) for b in blocks)
    signs = []
    for row, arrangements in zip(rows, by_block):
        assert sum(row) == sum(map(sum, arrangements)) == datum.r_k
        signs.append(math.prod(_parity(e, b.exponents) for e, b in zip(arrangements, blocks)))
    scale = next(iter(num.values())) * signs[0]
    assert [c * sign for c, sign in zip(num.values(), signs)] == [scale] * len(signs)
    assert dk.evaluate(datum.rho_k) == 1


def _product_form_dim_poly(datum):
    """D_k as the expanded product of the compact root forms
    alpha / <rho_k, alpha>: the oracle for the block alternants."""
    forms = [
        LinearForm(tuple(c / dot(datum.rho_k, alpha) for c in alpha))
        for alpha in datum.compact_positive_roots
    ]
    return linear_form_product(datum.rank, forms)


DK_GROUPS = [g for g in springer.table_groups(7) if g.rank <= 7] + [GroupId.sp_r(8)]


@pytest.mark.parametrize("group", DK_GROUPS, ids=lambda g: g.label())
def test_weyl_dim_poly_matches_product_of_root_forms(group):
    d = build_root_datum(group)
    dk = weyl_dim_poly(d)
    oracle = _product_form_dim_poly(d)
    assert dk == oracle and hash(dk) == hash(oracle)
    # one term per permutation of each block's alternant, and every
    # numerator is the same scale times +-1
    _, _, num = dk._int_form()
    assert len(num) == math.prod(math.factorial(b.size) for b in d.compact_blocks)
    assert len({abs(c) for c in num.values()}) == 1
    assert dk.evaluate(d.rho_k) == 1


@pytest.mark.parametrize(
    "group", [GroupId.so_star(1), GroupId.su(2, 1), GroupId.sp_r(3)], ids=lambda g: g.label()
)
def test_act_packed_matches_mask_pass_and_returns_num_at_identity(group):
    d = build_root_datum(group)
    _, width, num = weyl_dim_poly(d)._int_form()
    identity = WeylElement.identity(d.rank)
    for w in weyl_elements(d, "g"):
        out = polynomials._move_fields(width, width, w.perm, w.signs, num)
        assert out == act_on_keys(w.perm, w.signs, width, num)
        assert (out is num) == (w == identity)


def _dict_order_exponents(poly):
    """The exponent lists of the packed keys, in the numerator's dict order."""
    _, width, num = poly._int_form()
    mask, shifts = (1 << width) - 1, range(0, poly.arity * width, width)
    return [[key >> s & mask for s in shifts] for key in num]


def test_kernels_write_dk_and_determinants_in_emission_order():
    """Q = +-D_k of a discrete-series family (coefficient +-1 on the
    identity) and the SU(n,1) character determinant come out of their
    kernels in `graded_rows` order, so that sort is one linear run."""
    polys = [char_poly_det(n, i) for n in range(2, 8) for i in range(1, n)]
    for group in springer.table_groups(6):
        if group.rank <= 6:
            d = build_root_datum(group)
            identity = WeylElement.identity(d.rank)
            polys += [index_polynomial(IndexFamily(d, d.rho_g, {identity: a})) for a in (1, -1)]
    for poly in polys:
        assert _dict_order_exponents(poly) == [exp for exp, _ in poly.graded_rows()]


GROUPS_RANK_LE_4 = [
    GroupId.su(1, 1),
    GroupId.su(2, 2),
    GroupId.so_even_odd(2, 2),
    GroupId.sp_r(4),
    GroupId.sp_pq(2, 2),
    GroupId.so_even_even(2, 2),
    GroupId.so_star(4),
]


@pytest.mark.parametrize("group", GROUPS_RANK_LE_4, ids=lambda g: g.label())
def test_weyl_dim_positive_integer_on_dominant_lattice(group):
    d = build_root_datum(group)
    assert weyl_dim_poly(d).evaluate(d.rho_k) == 1
    rng = random.Random(41)
    count = 0
    while count < 100:
        gamma = tuple(
            g + F(rng.randint(0, 6)) for g in d.rho_g
        )  # on the shifted lattice
        gamma = _dominate_compact(d, gamma)
        if gamma is None:
            continue
        val = weyl_dim_value(d, gamma)
        assert val == weyl_dim_poly(d).evaluate(gamma)
        assert val.denominator == 1 and val > 0
        count += 1


def _dominate_compact(datum, gamma):
    from diracindex.groups import normalize_k_dominant

    norm = normalize_k_dominant(datum, gamma)
    return None if norm is None else norm[1]
