"""Block-diagonal alternants kept as their blocks (`MultiPoly._described`).

The oracle throughout is the expanded twin: the same value as a packed
numerator from `polynomials._alternant`, whose `graded_rows` unpack keys
and whose text comes from the JSON encoder.  A described value is also
held to the Leibniz sum of `reference.alternant_terms`.
"""

import copy
import io
import math
import pickle
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from diracindex import emit as emit_module, polynomials, springer
from diracindex.cli import main, parse_group
from diracindex.dirac import IndexFamily, discrete_series_family, index_polynomial
from diracindex.emit import dumps, emit, poly_json_chunks, poly_to_obj
from diracindex.groups import Family, WeylElement, build_root_datum, reflection, simple_roots
from diracindex.errors import InternalInvariantError
from diracindex.polynomials import MultiPoly, alternant, linear_combination, masked_alternant
from diracindex.sun1 import char_poly_det, gcd_with_index, vandermonde
from diracindex.weylaction import act, weyl_dim_poly
from reference import alternant_terms

RANK7_GROUPS = [g for g in springer.table_groups(7) if g.rank <= 7]


def _twin(poly: MultiPoly) -> MultiPoly:
    """poly as a packed numerator alone, so its rows are unpacked keys."""
    twin = MultiPoly._packed(poly.arity, poly.den, poly._width, dict(poly._num))
    assert twin._leibniz is None
    return twin


def _unbuilt(poly: MultiPoly) -> bool:
    """True while no packed numerator has been built for the description."""
    try:
        object.__getattribute__(poly, "_num")
    except AttributeError:
        return not poly._leibniz[2]
    return False


def _check_rows(poly: MultiPoly) -> None:
    """The rows of P and -P from the description equal the twin's, and
    listing them builds no numerator."""
    for signed in (poly, -poly):
        assert signed._leibniz is not None
        fresh = -(-signed)
        rows = fresh.graded_rows()
        assert _unbuilt(fresh)
        assert rows == _twin(signed).graded_rows()


@pytest.mark.parametrize("group", RANK7_GROUPS, ids=lambda g: g.label())
def test_rows_of_plus_and_minus_dk_match_the_expanded_twin(group):
    _check_rows(weyl_dim_poly(build_root_datum(group)))


@pytest.mark.parametrize("n", range(2, 8))
def test_rows_of_gcd_with_index_match_the_expanded_twin(n):
    for i in range(1, n):
        _check_rows(gcd_with_index(n, i))


@pytest.mark.parametrize("n_vars", range(0, 7))
def test_rows_of_vandermonde_on_ascending_indices_match_the_expanded_twin(n_vars):
    """The Vandermonde of n_vars variables, and the products of the
    Vandermondes on the runs of every split of 1..n_vars into ascending
    runs of indices."""
    _check_rows(vandermonde(n_vars))
    for k in range(n_vars):
        for cuts in combinations(range(1, n_vars), k):
            sizes = [b - a for a, b in zip((0, *cuts), (*cuts, n_vars))]
            _check_rows(alternant([range(size - 1, -1, -1) for size in sizes]))


@pytest.mark.parametrize("n", range(3, 8))
def test_char_poly_det_takes_the_eager_path(n):
    for i in range(1, n):
        assert char_poly_det(n, i)._leibniz is None


@pytest.mark.parametrize("blocks", [
    [[0, 1]],
    [[0, 1], [0]],
    [[2, 1], [0, 1]],
    [[3, 2, 2]],
    [[1, -1]],
], ids=["rising", "rising-in-a-block", "rising-in-a-later-block", "repeated", "negative"])
def test_alternant_refuses_non_falling_exponents(blocks):
    with pytest.raises(InternalInvariantError, match="do not fall strictly"):
        alternant(blocks)


@pytest.mark.parametrize("blocks", [[[1, 0]], [[2, 1, 0]], [[2, 1, 0], [0]]],
                         ids=["two-variables", "three-variables", "two-blocks"])
def test_a_zero_scale_gives_the_plain_zero(blocks):
    poly = alternant(blocks, 0)
    zero = MultiPoly.zero(sum(map(len, blocks)))
    assert poly._leibniz is None
    assert poly.is_zero() and poly == zero and poly_to_obj(poly) == poly_to_obj(zero)


@pytest.mark.parametrize("exponents, support", [
    ([1, 0, 0], [7, 3, 4]),
    ([2, 1, 0], [3, 3, 6]),
    ([1, 0, 0], [7, 1, 6]),
], ids=["column-beyond-its-block", "blocks-sharing-a-row", "char-poly-det-layout"])
def test_masked_alternants_are_expanded_at_once(exponents, support):
    poly = masked_alternant(3, exponents, support)
    assert poly._leibniz is None
    assert poly == MultiPoly(3, alternant_terms(3, range(3), exponents, support))


def _cases():
    """(blocks, scale) of described alternants: one block, two blocks,
    three with a block of one variable, a negative scale, no block."""
    return [
        ([[2, 1, 0]], 1),
        ([[3, 1], [1, 0]], F(-5, 3)),
        ([[5, 2, 0], [4], [2, 1]], F(7, 2)),
        ([[2, 0], [4, 1]], -2),
        ([], F(3, 4)),
    ]


def _leibniz_sum(blocks, scale) -> MultiPoly:
    """scale times the Leibniz sum of the block-diagonal matrix, each
    block's columns on its own rows."""
    exponents, support = [], []
    for block in blocks:
        support += [((1 << len(block)) - 1) << len(support)] * len(block)
        exponents += block
    terms = alternant_terms(len(exponents), range(len(exponents)), exponents, support)
    return MultiPoly(len(exponents), {exp: c * F(scale) for exp, c in terms.items()})


@pytest.mark.parametrize("case", _cases(), ids=range(len(_cases())))
def test_a_described_value_agrees_with_its_expanded_twin(case):
    twin = _leibniz_sum(*case)
    assert twin._leibniz is None
    arity = twin.arity

    def fresh() -> MultiPoly:
        poly = alternant(*case)
        assert poly._leibniz is not None and _unbuilt(poly)
        return poly

    assert fresh().graded_rows() == twin.graded_rows()
    assert fresh() == twin and twin == fresh() and fresh() != -twin
    assert hash(fresh()) == hash(twin)
    assert repr(fresh()) == repr(twin)
    assert fresh().den == twin.den
    assert fresh()._int_form() == twin._int_form()
    assert fresh().terms == twin.terms
    assert fresh().total_degree() == twin.total_degree()
    assert fresh().is_homogeneous() and fresh().is_zero() is False
    assert poly_to_obj(fresh()) == poly_to_obj(twin)
    rng = random.Random(arity)
    for _ in range(3):
        point = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(arity)]
        assert fresh().evaluate(point) == twin.evaluate(point)
    for copied in (copy.copy(fresh()), copy.deepcopy(fresh()),
                   pickle.loads(pickle.dumps(fresh()))):
        assert copied == twin and copied.graded_rows() == twin.graded_rows()
    # the ring operations, each from an unbuilt description
    assert fresh() + fresh() == twin + twin
    assert (fresh() - twin).is_zero() and (twin - fresh()).is_zero()
    assert fresh() * fresh() == twin * twin
    assert fresh() * 3 == twin * 3 and fresh() * F(2, 7) == twin * F(2, 7)
    assert (fresh() * 0).is_zero()
    assert fresh() * -1 == -twin and -fresh() == -twin
    assert linear_combination(arity, [(fresh(), 2), (twin, -1)]) == twin
    for i in range(arity):
        assert fresh().derivative(i) == twin.derivative(i)
    perm = list(range(arity))[::-1]
    signs = [(-1) ** k for k in range(arity)]
    assert fresh().permute(perm, signs) == twin.permute(perm, signs)


def test_unit_scalars_and_the_identity_keep_the_description():
    poly = alternant([[3, 1], [1, 0]], F(-5, 3))
    blocks, p, memo = poly._leibniz
    assert blocks == ((3, 1), (1, 0)) and p == -5 and poly.den == 3
    assert (poly * 1) is poly
    same = poly.permute((0, 1, 2, 3), (1, 1, 1, 1))
    assert same is not poly and same._leibniz is poly._leibniz
    for negated in (-poly, poly * -1, poly * F(-1)):
        assert negated._leibniz[:2] == (blocks, -p) and negated._leibniz[2] is not memo
        assert _unbuilt(negated)
    # values that share a description share its numerator, built once
    assert same._int_form()[2] is poly._int_form()[2] is memo[0]
    assert (-poly)._leibniz[2] == []


@pytest.mark.parametrize("label", ["Sp(14,R)", "SO*(14)", "SU(2,5)", "SOe(4,3)", "Sp(1,3)"])
@pytest.mark.parametrize("sign", [1, -1])
def test_emitting_a_discrete_series_index_polynomial_builds_no_numerator(label, sign):
    datum = build_root_datum(parse_group(label))
    weyl_dim_poly.cache_clear()
    fam = IndexFamily(datum, datum.rho_g, {WeylElement.identity(datum.rank): sign})
    poly = index_polynomial(fam)
    text = emit(poly, "json")
    assert _unbuilt(poly) and poly._terms is None
    assert _unbuilt(weyl_dim_poly(datum))
    assert text == emit(_twin(poly), "json")


def test_a_multi_term_index_polynomial_is_expanded():
    datum = build_root_datum(parse_group("Sp(4,R)"))
    s = reflection(simple_roots(datum)[0])
    fam = IndexFamily(datum, datum.rho_g, {WeylElement.identity(datum.rank): 1, s: -1})
    poly = index_polynomial(fam)
    assert poly._leibniz is None
    dk = weyl_dim_poly(datum)
    assert poly == dk - act(s.inverse(), dk)


@st.composite
def block_layouts(draw):
    """(blocks, scale) of a block-diagonal alternant: 1-3 blocks of 1-4
    variables and at most 288 terms, either sign and a denominator up to
    6."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
        lambda sizes: math.prod(map(math.factorial, sizes)) <= 288))
    blocks = [
        sorted(draw(st.lists(st.integers(0, 6), min_size=size, max_size=size, unique=True)),
               reverse=True)
        for size in sizes
    ]
    scale = F(draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, 6)))
    return blocks, scale


@settings(max_examples=150, deadline=None)
@given(block_layouts(), st.integers(1, 4), st.integers(1, 40))
def test_streamed_terms_of_any_block_layout_match_the_packed_twin(case, run_items, chunk_terms):
    """The term dicts and the chunked text of a described alternant equal
    those of its packed twin, whatever parity runs are listed in full and
    however many terms a chunk holds."""
    with mock.patch.object(polynomials, "_RUN_ITEMS", run_items), \
            mock.patch.object(emit_module, "_CHUNK_TERMS", chunk_terms):
        poly = alternant(*case)
        assert poly._leibniz is not None
        obj = poly_to_obj(poly)
        chunks = list(poly_json_chunks(poly))
        assert _unbuilt(poly)
        twin = _twin(poly)
        assert obj == poly_to_obj(twin)
        assert poly.graded_rows() == twin.graded_rows()
        assert "".join(chunks) == dumps({"type": "polynomial", **obj}) == emit(twin, "json")
        assert len(chunks) == 1 + -(-len(obj["terms"]) // chunk_terms)


RANK6_GROUPS = [g for g in springer.table_groups(6) if g.rank <= 6]


@st.composite
def chamber_parameters(draw):
    """(group, parameter): a table group of rank <= 6 and rho_g plus a
    weakly decreasing shift of nonnegative integers (and, for SU, of a
    trace shift), carried to a random chamber by a permutation and, off
    type A, signs: regular and on the shifted lattice."""
    group = draw(st.sampled_from(RANK6_GROUPS))
    datum = build_root_datum(group)
    steps = draw(st.lists(st.integers(0, 2), min_size=group.rank, max_size=group.rank))
    point = [rho + sum(steps[i:]) for i, rho in enumerate(datum.rho_g)]
    if group.family == Family.SU:
        t = F(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
        point = [c + t for c in point]
    order = draw(st.permutations(range(group.rank)))
    signs = [1] * group.rank
    if datum.ambient.kind != "A":
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=group.rank,
                              max_size=group.rank))
    return group, tuple(s * point[i] for s, i in zip(signs, order))


@settings(max_examples=100, deadline=None)
@given(chamber_parameters())
def test_index_poly_writes_what_emit_writes_in_any_chamber(case):
    """`index-poly` streams +-D_k to stdout; its bytes equal `emit` of the
    index polynomial and the encoder's text of the packed twin."""
    group, lam = case
    poly = index_polynomial(discrete_series_family(lam, build_root_datum(group)))
    assert poly._leibniz is not None
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["index-poly", "--group", group.label(),
                     "--hc-param=" + ",".join(map(str, lam))])
    assert code == 0
    assert out.getvalue() == emit(poly, "json") == emit(_twin(poly), "json")
