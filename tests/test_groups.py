import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from diracindex.errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    IllegalParams,
    InvalidInput,
    RankCapExceeded,
)
from diracindex import groups
from diracindex.groups import (
    DEFAULT_RANK_CAP,
    Family,
    GroupId,
    WeylElement,
    _chamber_block,
    build_root_datum,
    check_rank,
    dot,
    int_add,
    int_form,
    normalize_k_dominant,
    over,
    reduced,
    reflection,
    simple_roots,
    weight_add,
    weyl_elements,
    weyl_order,
)
from diracindex.cli import main
from diracindex.springer import springer_row, table_groups
from diracindex.suites import _small_groups
from reference import add, dominant_rep_g, dominate, pairing, simple_roots_by_sums

SMALL_GROUPS = [
    GroupId.su(1, 1),
    GroupId.su(2, 1),
    GroupId.su(2, 2),
    GroupId.so_even_odd(1, 1),
    GroupId.so_even_odd(2, 2),
    GroupId.so_even_odd(3, 1),
    GroupId.sp_r(2),
    GroupId.sp_r(3),
    GroupId.sp_pq(1, 2),
    GroupId.so_even_even(1, 2),
    GroupId.so_even_even(2, 2),
    GroupId.so_star(3),
    GroupId.so_star(4),
]


def test_su11_roots():
    d = build_root_datum(GroupId.su(1, 1))
    assert d.positive_roots == ((F(1), F(-1)),)
    assert d.compact_positive_roots == ()
    assert d.r_g - d.r_k == 1


def test_sp4_roots():
    d = build_root_datum(GroupId.sp_r(2))
    roots = set(d.positive_roots)
    assert roots == {(F(1), F(-1)), (F(1), F(1)), (F(2), F(0)), (F(0), F(2))}
    assert set(d.compact_positive_roots) == {(F(1), F(-1))}
    assert 2 * (d.r_g - d.r_k) == 6  # n(n+1) for n = 2


def test_so45_noncompact_dimension():
    d = build_root_datum(GroupId.so_even_odd(2, 2))
    assert 2 * (d.r_g - d.r_k) == 20  # 2p(2q+1) for p = q = 2


def test_illegal_params():
    with pytest.raises(IllegalParams):
        GroupId.su(0, 1)
    with pytest.raises(IllegalParams):
        GroupId.sp_pq(1, 0)
    with pytest.raises(IllegalParams):
        GroupId(Family.SP_R, 2, 1)


def test_rank_cap():
    with pytest.raises(RankCapExceeded):
        build_root_datum(GroupId.su(5, 5))  # rank 10 > default cap 8
    datum = build_root_datum(GroupId.su(5, 5), max_rank=10)
    assert datum.rank == 10


def test_rank_cap_reads_dirac_max_rank(monkeypatch):
    """DIRAC_MAX_RANK replaces the default cap; a max_rank argument
    replaces both, and a value that is not an integer is refused."""
    group = GroupId.sp_r(9)
    monkeypatch.delenv("DIRAC_MAX_RANK", raising=False)
    with pytest.raises(RankCapExceeded, match="rank 9 exceeds cap 8; set DIRAC_MAX_RANK"):
        build_root_datum(group)
    monkeypatch.setenv("DIRAC_MAX_RANK", "9")
    assert build_root_datum(group).rank == 9
    with pytest.raises(RankCapExceeded, match="rank 9 exceeds cap 8"):
        build_root_datum(group, max_rank=8)
    monkeypatch.setenv("DIRAC_MAX_RANK", "")
    with pytest.raises(RankCapExceeded, match="exceeds cap 8"):
        build_root_datum(group)
    monkeypatch.setenv("DIRAC_MAX_RANK", "x")
    with pytest.raises(InvalidInput, match="DIRAC_MAX_RANK must be an integer, got 'x'"):
        build_root_datum(GroupId.su(1, 1))
    assert build_root_datum(GroupId.su(1, 1), max_rank=8).rank == 2
    with pytest.raises(InvalidInput):
        check_rank("--n", 3)


def test_rank_cap_advice_names_the_variable_only_when_it_counts(monkeypatch):
    """A max_rank argument replaces DIRAC_MAX_RANK, so its refusal does not
    advise setting the variable; the default and the variable's do."""
    big = GroupId.su(5, 5)
    monkeypatch.setenv("DIRAC_MAX_RANK", "20")
    with pytest.raises(RankCapExceeded) as refused:
        build_root_datum(big, max_rank=9)
    assert str(refused.value) == "rank 10 exceeds cap 9"
    monkeypatch.delenv("DIRAC_MAX_RANK")
    with pytest.raises(RankCapExceeded) as refused:
        build_root_datum(big)
    assert str(refused.value) == "rank 10 exceeds cap 8; set DIRAC_MAX_RANK to raise it"
    monkeypatch.setenv("DIRAC_MAX_RANK", "9")
    with pytest.raises(RankCapExceeded, match="exceeds cap 9; set DIRAC_MAX_RANK to raise it"):
        build_root_datum(big)


def _block_roots_closure(block, rank):
    """The block's positive roots, one closure call per root: the oracle of
    groups._block_roots, order included."""

    def root(*entries):
        v = [0] * rank
        for i, c in entries:
            v[i] = c
        return tuple(v)

    idx = block.indices
    roots = []
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            roots.append(root((i, 1), (j, -1)))
            if block.kind != "A":
                roots.append(root((i, 1), (j, 1)))
    if block.kind == "B":
        roots.extend(root((i, 1)) for i in idx)
    elif block.kind == "C":
        roots.extend(root((i, 2)) for i in idx)
    return roots


@pytest.mark.parametrize("kind", "ABCD")
def test_block_roots_match_closure_oracle_and_root_count(kind):
    for size in range(13):
        for start in (0, 1, 3):
            block = groups.Block(kind, start, size)
            rank = start + size + 2
            roots = groups._block_roots(block, rank)
            assert roots == _block_roots_closure(block, rank), (kind, size, start)
            assert block.root_count == len(roots), (kind, size)
        m = size
        assert block.root_count == {
            "A": m * (m - 1) // 2, "B": m * m, "C": m * m, "D": m * (m - 1)}[kind]


def test_weyl_orders():
    assert len(weyl_elements(build_root_datum(GroupId.su(2, 1)), "g")) == 6
    assert len(weyl_elements(build_root_datum(GroupId.sp_r(2)), "g")) == 8
    d = build_root_datum(GroupId.so_even_odd(2, 2))
    assert len(weyl_elements(d, "k")) == 4 * 8  # |W(D_2)| * |W(B_2)|


def test_weyl_elements_order_is_pinned():
    """The first block's moves outermost; within a block the permutations
    in lexicographic order, each with its sign patterns in product order.
    kmodules lays out the columns of its W_k getters in this order."""
    su21 = weyl_elements(build_root_datum(GroupId.su(2, 1)), "g")
    assert [(w.perm, w.signs) for w in su21] == [
        ((0, 1, 2), (1, 1, 1)),
        ((0, 2, 1), (1, 1, 1)),
        ((1, 0, 2), (1, 1, 1)),
        ((1, 2, 0), (1, 1, 1)),
        ((2, 0, 1), (1, 1, 1)),
        ((2, 1, 0), (1, 1, 1)),
    ]
    # W_k of SOe(4,3): a D_2 block, then a B_1 block.
    so43 = weyl_elements(build_root_datum(GroupId.so_even_odd(2, 1)), "k")
    assert [(w.perm, w.signs) for w in so43] == [
        ((0, 1, 2), (1, 1, 1)),
        ((0, 1, 2), (1, 1, -1)),
        ((0, 1, 2), (-1, -1, 1)),
        ((0, 1, 2), (-1, -1, -1)),
        ((1, 0, 2), (1, 1, 1)),
        ((1, 0, 2), (1, 1, -1)),
        ((1, 0, 2), (-1, -1, 1)),
        ((1, 0, 2), (-1, -1, -1)),
    ]


def _reflection_closure(roots, rank):
    """{w: (-1)^(length of a word for w)} over the group generated by the
    reflections of roots, found breadth first from the identity."""
    gens = [reflection(alpha) for alpha in roots]
    signs = {WeylElement.identity(rank): 1}
    frontier = list(signs)
    while frontier:
        found = []
        for w in frontier:
            for s in gens:
                x = w.compose(s)
                if x not in signs:
                    signs[x] = -signs[w]
                    found.append(x)
        frontier = found
    return signs


@pytest.mark.parametrize(
    "group", [g for g in table_groups(4) if g.rank <= 4], ids=lambda g: g.label())
def test_weyl_elements_are_the_reflection_closure(group):
    """W_g is generated by the simple reflections and W_k by the compact
    ones, and an element's sign is (-1)^(length of any word for it)."""
    d = build_root_datum(group)
    for which, roots in (("g", simple_roots(d)), ("k", d.compact_positive_roots)):
        elements = weyl_elements(d, which)
        assert len(elements) == weyl_order(d, which)
        closure = _reflection_closure(roots, d.rank)
        assert set(elements) == set(closure)
        assert [w.sign() for w in elements] == [closure[w] for w in elements]


def test_enumeration_cap(monkeypatch):
    """|W(C_7)| = 2^7 7! = 645,120 is past DEFAULT_WEYL_CAP: Sp(14,R) is
    refused before any element is built."""
    d = build_root_datum(GroupId.sp_r(7))
    assert weyl_order(d, "g") == 645_120 > groups.DEFAULT_WEYL_CAP

    def enumerated(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(groups, "_block_moves", enumerated)
    with pytest.raises(EnumerationCapExceeded, match="645120 exceeds cap 100000"):
        weyl_elements(d, "g")


def test_pairing_examples():
    assert pairing((F(3), F(1)), (F(1), F(-1))) == 2
    # <alpha^vee, rho> for the highest root of a rank-two type A system
    # is 2 by the defining formula 2(lam, alpha)/(alpha, alpha).
    rho = build_root_datum(GroupId.su(2, 1)).rho_g
    assert pairing(rho, (F(1), F(0), F(-1))) == 2
    assert pairing((F(1), F(0)), (F(2), F(0))) == 1
    with pytest.raises(DimensionMismatch):
        pairing((F(1),), (F(1), F(0)))


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.label())
def test_positive_roots_sum_to_twice_rho(group):
    d = build_root_datum(group)
    total = (F(0),) * d.rank
    for alpha in d.positive_roots:
        total = weight_add(total, alpha)
    assert total == tuple(2 * c for c in d.rho_g)
    total_k = (F(0),) * d.rank
    for alpha in d.compact_positive_roots:
        total_k = weight_add(total_k, alpha)
    assert total_k == tuple(2 * c for c in d.rho_k)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.label())
def test_compact_roots_are_weyl_k_stable(group):
    d = build_root_datum(group)
    compact = set(d.compact_positive_roots)
    full = compact | {tuple(-c for c in a) for a in compact}
    for w in weyl_elements(d, "k"):
        for alpha in compact:
            assert w.apply(alpha) in full


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.label())
def test_simply_transitive_on_chambers(group):
    d = build_root_datum(group)
    elements = weyl_elements(d, "g")
    images = {w.apply(d.rho_g) for w in elements}
    assert len(images) == len(elements) == weyl_order(d, "g")


def test_weyl_element_algebra():
    import random

    rng = random.Random(5)
    d = build_root_datum(GroupId.so_even_odd(2, 1))
    elements = weyl_elements(d, "g")
    lam = (F(5), F(3), F(1))
    for _ in range(50):
        a, b = rng.choice(elements), rng.choice(elements)
        assert a.compose(b).apply(lam) == a.apply(b.apply(lam))
        assert a.compose(a.inverse()) == WeylElement.identity(d.rank)
        assert a.sign() * b.sign() == a.compose(b).sign()


def test_reflection_matches_formula():
    from diracindex.groups import dot

    d = build_root_datum(GroupId.sp_r(2))
    lam = (F(3), F(1))
    for alpha in d.positive_roots:
        s = reflection(alpha)
        expected = tuple(
            l - pairing(lam, alpha) * a for l, a in zip(lam, alpha)
        )
        assert s.apply(lam) == expected
        assert s.sign() == -1


def test_simple_roots():
    d = build_root_datum(GroupId.su(2, 1))
    assert set(simple_roots(d)) == {(F(1), F(-1), F(0)), (F(0), F(1), F(-1))}
    d2 = build_root_datum(GroupId.sp_r(2))
    assert set(simple_roots(d2)) == {(F(1), F(-1)), (F(0), F(2))}


@pytest.mark.parametrize(
    "group", [g for g in table_groups(6) if g.rank <= 6], ids=lambda g: g.label())
def test_simple_roots_are_no_sum_of_two_positive_roots(group):
    """<rho_g, alpha^vee> = 1 picks the positive roots that no two positive
    roots sum to, in the order of the positive roots, on every table group
    of rank <= 6."""
    d = build_root_datum(group)
    assert simple_roots(d) == simple_roots_by_sums(d)


@pytest.mark.parametrize(
    "group",
    [GroupId.su(2, 1), GroupId.sp_r(2), GroupId.so_even_odd(1, 1),
     GroupId.so_even_even(1, 2), GroupId.sp_pq(1, 1), GroupId.so_star(3)],
    ids=lambda g: g.label(),
)
def test_normalize_k_dominant_matches_brute_force(group):
    """Oracle: scan W_k for the element making gamma dominant regular."""
    import random

    rng = random.Random(17)
    d = build_root_datum(group)
    wk = weyl_elements(d, "k")
    for _ in range(40):
        gamma = tuple(F(rng.randint(-4, 4)) for _ in range(d.rank))
        brute = None
        for w in wk:
            image = w.apply(gamma)
            if all(dot(image, a) > 0 for a in d.compact_positive_roots):
                brute = (w.sign(), image)
                break
        fast = normalize_k_dominant(d, gamma)
        if brute is None:
            assert fast is None
        else:
            assert fast == brute


def test_normalize_k_dominant_rejects_wrong_length():
    d = build_root_datum(GroupId.sp_r(2))
    for gamma in [(F(1),), (F(2), F(1), F(5))]:
        with pytest.raises(DimensionMismatch):
            normalize_k_dominant(d, gamma)
        with pytest.raises(DimensionMismatch):
            dominate(d.compact_blocks, gamma)
        with pytest.raises(DimensionMismatch):
            dominate((d.ambient,), gamma)


# Every family, with size-one D blocks (SOe(2,4), SOe(2,3)), an empty B
# block (SOe(4,1)) and D blocks of size two and three.
CHAMBER_GROUPS = [
    GroupId.su(2, 1),
    GroupId.su(2, 2),
    GroupId.so_even_odd(1, 1),
    GroupId.so_even_odd(2, 0),
    GroupId.so_even_odd(2, 1),
    GroupId.so_even_odd(3, 1),
    GroupId.sp_r(3),
    GroupId.sp_pq(1, 2),
    GroupId.sp_pq(2, 1),
    GroupId.so_even_even(1, 2),
    GroupId.so_even_even(2, 2),
    GroupId.so_star(3),
    GroupId.so_star(4),
]


@st.composite
def chamber_cases(draw):
    group = draw(st.sampled_from(CHAMBER_GROUPS))
    which = draw(st.sampled_from(("g", "k")))
    den = draw(st.sampled_from((1, 2)))
    nums = draw(st.lists(st.integers(-4, 4), min_size=group.rank, max_size=group.rank))
    return build_root_datum(group), which, tuple(F(n, den) for n in nums)


@settings(max_examples=400, deadline=None)
@given(chamber_cases())
def test_dominate_matches_weyl_scan(case):
    """Oracle: scan the whole Weyl group of the blocks."""
    d, which, gamma = case
    blocks = (d.ambient,) if which == "g" else d.compact_blocks
    roots = d.positive_roots if which == "g" else d.compact_positive_roots
    elements = weyl_elements(d, which)
    x, regular = dominate(blocks, gamma)
    assert x in set(elements)
    image = x.apply(gamma)
    assert all(dot(image, alpha) >= 0 for alpha in roots)
    assert regular == all(dot(gamma, alpha) != 0 for alpha in roots)
    if regular:
        strict = [w for w in elements
                  if all(dot(w.apply(gamma), alpha) > 0 for alpha in roots)]
        assert strict == [x]
    if which == "k":
        expected = (x.sign(), image) if regular else None
        assert normalize_k_dominant(d, gamma) == expected


# Every ambient kind: A (SU), B (SOe(2p,2q+1)), C (Sp) and D (SOe(2p,2q),
# SO*(2n)), with entries drawn from few values, so that repeats, zeros and
# a D block with an odd count of negative entries are common.
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CHAMBER_GROUPS), st.data())
def test_dominant_rep_g_matches_reference(group, data):
    """The W_g representative the chamber kernel ranks on the ambient
    block, singular weights included, on half-integral weights and on
    integer numerators."""
    d = build_root_datum(group)
    nums = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d.rank, max_size=d.rank)))
    halves = tuple(F(n, 2) for n in nums)
    for gamma in (nums, halves):
        assert tuple(_chamber_block(d.ambient.kind, gamma)[1]) == dominant_rep_g(d, gamma)


def test_one_group_builds_one_root_datum():
    """springer_row builds no datum, and weyl_elements builds none either:
    it reads the blocks of the datum it is given."""
    groups._root_datum.cache_clear()
    group = GroupId.sp_r(3)
    springer_row(group)
    datum = build_root_datum(group, max_rank=max(DEFAULT_RANK_CAP, group.rank))
    weyl_elements(datum, "k")
    info = groups._root_datum.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_root_datum_is_one_object_whatever_the_cap():
    group = GroupId.su(2, 1)
    assert build_root_datum(group) is build_root_datum(group, max_rank=12)
    big = GroupId.su(5, 5)
    assert build_root_datum(big, max_rank=10) is build_root_datum(big, max_rank=11)
    with pytest.raises(RankCapExceeded, match="rank 10 exceeds cap 9"):
        build_root_datum(big, max_rank=9)
    with pytest.raises(RankCapExceeded, match="rank 10 exceeds cap 8"):
        build_root_datum(big)


def test_ind_eq_char_suite_builds_one_root_datum_per_group(capsys):
    groups._root_datum.cache_clear()
    assert main(["verify", "--suite", "ind-eq-char"]) == 0
    capsys.readouterr()
    touched = set(_small_groups(4)) | {GroupId.su(1, 1), GroupId.su(2, 1)}
    info = groups._root_datum.cache_info()
    assert info.currsize == info.misses == len(touched)


# -- the K-type normalization kernel against the reference dominate ------

ORACLE_GROUPS = [g for g in table_groups(5) if g.rank <= 5]


def _dominate_oracle(blocks, gamma):
    x, regular = dominate(blocks, gamma)
    return (x.sign(), x.apply(gamma)) if regular else None


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=lambda g: g.label())
def test_signed_dominant_matches_dominate(group):
    """Random integer numerators and half-integral weights, zeros
    included, against (sign(x), x.gamma) of the element dominate builds."""
    rng = random.Random(group.rank * 31 + len(group.label()))
    d = build_root_datum(group)
    for blocks in (d.compact_blocks, (d.ambient,)):
        for _ in range(40):
            nums = tuple(rng.randint(-3, 3) for _ in range(d.rank))
            halves = tuple(F(2 * n + 1, 2) if rng.random() < 0.5 else F(n) for n in nums)
            for gamma in (nums, halves):
                assert groups._signed_dominant(blocks, gamma) == _dominate_oracle(blocks, gamma)


@pytest.mark.parametrize(
    "group, gamma, expected",
    [
        # D_3 x D_1: one negative and a zero in D_3; the zero takes the flip.
        (GroupId.so_even_even(3, 1), (0, -2, 1, 5), (1, (2, 1, 0, 5))),
        # one negative, no zero: the last slot of the block turns negative
        (GroupId.so_even_even(3, 1), (3, -2, 1, -5), (1, (3, 2, -1, -5))),
        # three negatives and a zero, and a repeated absolute value
        (GroupId.so_even_even(3, 1), (-1, -2, 0, -4), (-1, (2, 1, 0, -4))),
        (GroupId.so_even_even(3, 1), (2, -2, 0, 1), None),
        # SOe(4,1) and SOe(6,1): D blocks beside an empty B block
        (GroupId.so_even_odd(2, 0), (F(-1, 2), F(3, 2)), (-1, (F(3, 2), F(-1, 2)))),
        (GroupId.so_even_odd(3, 0), (0, -3, 1), (1, (3, 1, 0))),
        (GroupId.so_even_odd(3, 0), (1, -1, 2), None),
    ],
)
def test_signed_dominant_d_blocks(group, gamma, expected):
    d = build_root_datum(group)
    assert normalize_k_dominant(d, gamma) == expected
    assert _dominate_oracle(d.compact_blocks, gamma) == expected


@st.composite
def int_weights(draw, length):
    """A reduced integer form of length coordinates, integral half the time."""
    den = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    nums = draw(st.lists(st.integers(-30, 30), min_size=length, max_size=length))
    return reduced(den, tuple(nums))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(int_weights(n), int_weights(n))))
def test_int_add_matches_lcm_oracle(pair):
    (da, na), (db, nb) = a, b = pair
    den = math.lcm(da, db)
    oracle = reduced(den, tuple(x * (den // da) + y * (den // db) for x, y in zip(na, nb)))
    assert int_add(a, b) == oracle == int_add(b, a)


@pytest.mark.parametrize("a, b, total", [
    ((2, (1, 1)), (2, (1, 1)), (1, (1, 1))),
    ((2, (1, 3)), (1, (0, -2)), (2, (1, -1))),
    ((1, (4, 0)), (3, (1, 2)), (3, (13, 2))),
    ((1, (1, 2)), (1, (-1, 5)), (1, (0, 7))),
])
def test_int_add_examples(a, b, total):
    assert int_add(a, b) == total
    with pytest.raises(DimensionMismatch):
        int_add(a, (1, (0,) * (len(a[1]) + 1)))


@st.composite
def fractional_weights(draw, length):
    """A weight whose first coordinate is never integral, so its integer
    form has a denominator above 1; denominators up to 6."""
    first = F(2 * draw(st.integers(-15, 15)) + 1, draw(st.sampled_from([2, 4, 6])))
    rest = [F(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 2, 3, 4, 6])))
            for _ in range(length - 1)]
    return (first, *rest)


def _fractions(form):
    den, nums = form
    return tuple(F(n, den) for n in nums)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    fractional_weights(n), fractional_weights(n), st.permutations(range(n)),
    st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), st.integers(1, 4))))
def test_map_kernels_match_the_fraction_references(case):
    """int_form, reduced, int_add, over and WeylElement.apply, with
    denominators above 1 on both operands, against Fraction arithmetic."""
    a, b, perm, signs, k = case
    forms = int_form(a), int_form(b)
    for w, (den, nums) in zip((a, b), forms):
        assert den > 1 and den == math.lcm(*(c.denominator for c in w))
        assert math.gcd(den, *nums) == 1 and _fractions((den, nums)) == w
        assert reduced(k * den, tuple(k * n for n in nums)) == (den, nums)
        assert _fractions((k * den, over((den, nums), k * den))) == w
    assert int_add(*forms) == int_add(*forms[::-1]) == int_form(add(a, b))
    assert _fractions(int_add(*forms)) == add(a, b)
    x = WeylElement(tuple(perm), tuple(signs))
    image = tuple(s * a[p] for p, s in zip(perm, signs))
    assert x.apply(a) == image and (forms[0][0], x.apply(forms[0][1])) == int_form(image)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(-20, 20), min_size=0, max_size=5))
def test_lattice_predicates_match_the_fraction_references(den, nums):
    """den need not be the least denominator of nums / den."""
    w = tuple(F(n, den) for n in nums)
    assert groups._lattice_integral(den, tuple(nums)) is all(c.denominator == 1 for c in w)
    assert groups._lattice_integral_differences(den, tuple(nums)) is all(
        (c - w[0]).denominator == 1 for c in w)


def test_map_kernels_refuse_a_wrong_length_and_name_a_bad_entry():
    for a, b in [((2, (1, 3)), (3, (1, 1, 1))), ((1, (1,)), (1, (1, 2))),
                 ((1, (1, 2)), (2, (1,))), ((2, (1, 1)), (1, (0,)))]:
        with pytest.raises(DimensionMismatch):
            int_add(a, b)
    with pytest.raises(DimensionMismatch):
        WeylElement((1, 0), (1, -1)).apply((F(1),))
    for bad in ("x", 1.5, None, (1, 2)):
        with pytest.raises(InvalidInput) as refused:
            int_form((F(1, 2), bad, F(3)))
        assert str(refused.value) == f"weight entry {bad!r} is not an integer or a fraction"


ROUND_TRIPS = [lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy]


@pytest.mark.parametrize("trip", ROUND_TRIPS, ids=["pickle", "copy", "deepcopy"])
def test_group_and_datum_keep_equality_hash_and_lookups_across_copies(trip):
    """Family hashes by identity, and its members come back as themselves,
    so a copied GroupId or RootDatum finds the entries of the original."""
    for group in SMALL_GROUPS:
        datum = build_root_datum(group)
        group2, datum2, family2 = trip(group), trip(datum), trip(group.family)
        assert family2 is group.family and hash(family2) == hash(group.family)
        assert group2 == group and hash(group2) == hash(group)
        assert datum2 == datum and hash(datum2) == hash(datum)
        table = {group: "group", datum: "datum", group.family: "family"}
        assert table[group2] == "group" and table[datum2] == "datum"
        assert table[family2] == "family"
        assert {group2: 1, datum2: 2} == {group: 1, datum: 2}
