import random
import time
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from diracindex import springer as springer_module
from diracindex.emit import generator_text
from diracindex.errors import InternalInvariantError, InvalidPartition
from diracindex.fixtures import reference_table_row
from diracindex.groups import Family, GroupId, _family_layout, _root_datum, build_root_datum
from diracindex.polynomials import LinearForm, linear_form_product
from diracindex.springer import (
    Bipartition,
    Symbol,
    ambient_algebra,
    bipartition_dim,
    _dual,
    _valid_nilpotent,
    bipartition_of_symbol,
    is_very_even,
    orbit_dim,
    partition_of_symbol,
    sigma_k_bipartition,
    springer_row,
    springer_table,
    standard_tableaux_count,
    symbol_of_bipartition,
    symbol_of_partition,
    symbols_equivalent,
    table_groups,
)
from diracindex.suites import springer_suite
from diracindex.weylaction import orbit_span
from reference import generator_forms, partitions_of, primitive, valid_nilpotent


def _merge_quadratic_factors(forms: Sequence[LinearForm]) -> list[tuple[str, tuple]]:
    """Group (X_i - X_j) with (X_i + X_j) into (X_i^2 - X_j^2) for display."""
    singles: list[tuple[str, tuple]] = []
    diffs: set[tuple[int, int]] = set()
    sums: set[tuple[int, int]] = set()
    for form in forms:
        support = [(k, c) for k, c in enumerate(form.coeffs) if c != 0]
        if len(support) == 1:
            singles.append(("var", (support[0][0],)))
        else:
            (i, ci), (j, cj) = support
            if ci * cj < 0:
                diffs.add((i, j))
            else:
                sums.add((i, j))
    out: list[tuple[str, tuple]] = []
    for i, j in sorted(diffs):
        if (i, j) in sums:
            out.append(("sqdiff", (i, j)))
        else:
            out.append(("diff", (i, j)))
    for i, j in sorted(sums - diffs):
        out.append(("sum", (i, j)))
    out.extend(sorted(singles, key=lambda t: t[1]))
    return out


_GENERATOR_TEXT = {
    "var": lambda i: f"X{i + 1}",
    "diff": lambda i, j: f"(X{i + 1}-X{j + 1})",
    "sum": lambda i, j: f"(X{i + 1}+X{j + 1})",
    "sqdiff": lambda i, j: f"(X{i + 1}^2-X{j + 1}^2)",
}


def _merged_text(forms) -> str:
    """The generator text as the merge of the factored root forms wrote it."""
    pieces = [_GENERATOR_TEXT[kind](*data) for kind, data in _merge_quadratic_factors(forms)]
    return "".join(pieces) if pieces else "1"


TABLE_12 = table_groups(12)


def test_generator_text_is_the_merge_of_the_root_forms():
    """On every row of rank <= 24 the text from the block layout is the
    merge of the primitive compact root forms, and of the forms of the
    negated roots, whose pivots are negative; no datum is cached."""
    assert len(TABLE_12) == 414
    for group in TABLE_12:
        datum = _root_datum.__wrapped__(group)
        text = generator_text(springer_row(group))
        assert text == _merged_text(generator_forms.__wrapped__(datum)), group.label()
        negated = tuple(tuple(-c for c in a) for a in datum.compact_positive_roots)
        stub = SimpleNamespace(compact_positive_roots=negated)
        assert text == _merged_text(generator_forms.__wrapped__(stub)), group.label()


def test_block_root_counts_are_the_datum_root_counts():
    for group in (g for g in TABLE_12 if g.rank <= 12):
        datum = _root_datum.__wrapped__(group)
        ambient, compact_blocks = _family_layout(group)
        assert ambient.root_count == datum.r_g, group.label()
        assert sum(b.root_count for b in compact_blocks) == datum.r_k, group.label()


# -- symbols -------------------------------------------------------------


def test_displayed_symbol_type_b():
    sym = symbol_of_bipartition(Bipartition((1, 1), (1, 1)), "B")
    assert sym == Symbol((0, 2, 3), (1, 2), "B")


def test_displayed_symbol_type_c():
    sym = symbol_of_bipartition(Bipartition((), (2, 1)), "C")
    assert sym == Symbol((0, 1, 2), (1, 3), "C")


def test_empty_bipartition_symbol():
    sym = symbol_of_bipartition(Bipartition((), ()), "B")
    assert sym == Symbol((0,), (), "B")


def test_partition_of_displayed_symbols():
    assert partition_of_symbol(Symbol((0, 2, 3), (1, 2), "B")) == (3, 2, 2, 1, 1)
    assert partition_of_symbol(Symbol((0, 1, 2), (1, 3), "C")) == (3, 1, 1, 1)


def test_symbol_equivalence_under_shift():
    a = Symbol((0, 2, 3), (1, 2), "B")
    shifted = Symbol((0, 1, 3, 4), (0, 2, 3), "B")
    assert symbols_equivalent(a, shifted)
    assert not symbols_equivalent(a, Symbol((0, 1, 3), (1, 2), "B"))
    assert partition_of_symbol(a) == partition_of_symbol(shifted)


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol((0, 0), (1,), "B")  # not strictly increasing
    with pytest.raises(ValueError):
        Symbol((0, 1), (1,), "D")  # row lengths must match in type D


# -- partitions -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["A", "B", "C", "D"])
def test_validity_matches_enumeration_oracle(kind):
    for total in range(1, 15):
        for p in partitions_of(total):
            assert _valid_nilpotent(p, kind, total) == valid_nilpotent(p, kind, total)


def test_validity_examples():
    assert _valid_nilpotent((3, 2, 2, 1, 1), "B", 9)
    assert not _valid_nilpotent((3, 1, 1, 1), "C", 6)
    assert not _valid_nilpotent((3, 2, 2, 2), "B", 9)
    with pytest.raises(InvalidPartition):
        orbit_dim((3, 1, 1, 1), "C", 6)


def _dual_oracle(p):
    cells = {(r, c) for r, row in enumerate(p) for c in range(row)}
    transposed = {(c, r) for r, c in cells}
    rows = Counter(r for r, _ in transposed)
    return tuple(rows[r] for r in sorted(rows))


def test_dual_partition_involution_and_oracle():
    rng = random.Random(4)
    for total in range(1, 21):
        parts = list(partitions_of(total))
        sample = parts if len(parts) <= 30 else rng.sample(parts, 30)
        for p in sample:
            assert _dual(p) == _dual_oracle(p)
            assert _dual(_dual(p)) == p


def test_orbit_dims():
    assert orbit_dim((3, 2, 2, 1, 1), "B", 9) == 20
    assert orbit_dim((2, 2), "C", 4) == 6
    for p, q in [(1, 1), (1, 2), (2, 3)]:
        part = (2,) * p + (1,) * (q - p)
        assert orbit_dim(part, "A", p + q) == 2 * p * q
    with pytest.raises(InvalidPartition):
        orbit_dim((3, 1, 1, 1), "C", 6)


def test_very_even():
    assert is_very_even((2, 2))
    assert not is_very_even((3, 1))
    assert not is_very_even(())


# -- tableaux counts -------------------------------------------------------


def _syt_count_oracle(shape):
    """Count standard fillings by brute-force backtracking."""
    if not shape:
        return 1
    n = sum(shape)
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]

    def backtrack(filled):
        if len(filled) == n:
            return 1
        total = 0
        value = len(filled)
        for r, c in cells:
            if (r, c) in filled:
                continue
            if (r > 0 and (r - 1, c) not in filled) or (
                c > 0 and (r, c - 1) not in filled
            ):
                continue
            filled[(r, c)] = value
            total += backtrack(filled)
            del filled[(r, c)]
        return total

    return backtrack({})


@pytest.mark.parametrize(
    "shape", [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 2, 1)]
)
def test_hook_length_formula_matches_backtracking(shape):
    assert standard_tableaux_count(shape) == _syt_count_oracle(shape)


def test_bipartition_dims():
    assert bipartition_dim(Bipartition((), (4,))) == 1
    assert bipartition_dim(Bipartition((1,), (1,))) == 2
    assert bipartition_dim(Bipartition((1, 1), (1, 1))) == 6


# -- the catalog and the classification table -----------------------------


def test_catalog_entries():
    assert sigma_k_bipartition(GroupId.so_even_odd(2, 2)) == Bipartition(
        (1, 1), (1, 1)
    )
    assert sigma_k_bipartition(GroupId.sp_pq(1, 2)) == Bipartition((), (2, 1))
    assert sigma_k_bipartition(GroupId.sp_r(2)) == Bipartition((1,), (1,))
    assert sigma_k_bipartition(GroupId.su(2, 3)) == (2, 2, 1)


def test_pipeline_rows():
    row = springer_row(GroupId.so_even_odd(2, 2))
    assert row.is_springer and row.partition == (3, 2, 2, 1, 1)
    assert row.orbit_dim == 20

    row = springer_row(GroupId.sp_pq(1, 2))
    assert not row.is_springer and row.partition is None

    row = springer_row(GroupId.so_star(3))
    assert row.is_springer and row.partition == (2, 2, 1, 1)
    assert row.orbit_dim == 6
    assert not row.two_orbits

    row = springer_row(GroupId.so_star(4))
    assert row.two_orbits and row.partition == (2, 2, 2, 2)


def test_invalid_pipeline_partition_is_reported():
    # p >= q + 2 in the even-odd orthogonal family: the merged partition
    # exists but fails the parity rule
    group = GroupId.so_even_odd(3, 1)
    kind, total = ambient_algebra(group)
    merged = partition_of_symbol(symbol_of_bipartition(sigma_k_bipartition(group), kind))
    assert merged == (3, 2, 2, 2)
    assert not _valid_nilpotent((3, 2, 2, 2), kind, total)
    assert not springer_row(group).is_springer


@pytest.mark.parametrize("group", table_groups(3), ids=lambda g: g.label())
def test_table_against_reference(group):
    flag, partition, dim = reference_table_row(group)
    row = springer_row(group)
    assert row.is_springer == flag
    if flag:
        assert row.partition == partition
        assert row.orbit_dim == dim
        datum = build_root_datum(group, max_rank=max(8, group.rank))
        assert row.orbit_dim == 2 * (datum.r_g - datum.r_k)
        generator = linear_form_product(datum.rank, generator_forms(datum))
        assert generator.total_degree() == datum.r_k


def test_generator_forms_match_primitive_fraction_forms():
    """Each form is the root's Fraction form divided by its content with a
    positive pivot, as LinearForm.primitive built it, on every row of the
    rank <= 11 table."""
    for group in table_groups(6):
        datum = build_root_datum(group, max_rank=max(8, group.rank))
        expected = tuple(primitive(LinearForm(tuple(a))) for a in datum.compact_positive_roots)
        assert generator_forms(datum) == expected, group.label()
    # no table root has a negative pivot; the uncached function on bare roots
    roots = ((0, -2, 2), (-3, 0, 6), (0, 0, -1))
    stub = SimpleNamespace(compact_positive_roots=roots)
    expected = tuple(primitive(LinearForm(a)) for a in roots)
    assert generator_forms.__wrapped__(stub) == expected


@pytest.mark.parametrize("group", table_groups(3), ids=lambda g: g.label())
def test_catalog_certified_by_inversion(group):
    """Invert the recorded partition through the merge construction and
    recover the catalog label; the symbol construction round-trips."""
    flag, partition, _ = reference_table_row(group)
    if not flag:
        return
    kind, _ = ambient_algebra(group)
    label = sigma_k_bipartition(group)
    if kind == "A":
        assert label == partition
        return
    sym = symbol_of_partition(partition, kind)
    assert bipartition_of_symbol(sym) == label
    assert symbols_equivalent(symbol_of_bipartition(label, kind), sym)
    assert partition_of_symbol(symbol_of_bipartition(label, kind)) == partition


def test_springer_table_deterministic_order():
    rows = springer_table(2)
    labels = [r.group.label() for r in rows]
    assert labels == [g.label() for g in table_groups(2)]


def test_springer_suite_to_parameter_8_within_bound():
    """Rows up to rank 16 stay cheap because no row expands its generator."""
    t0 = time.time()
    report = springer_suite(max_param=8)
    elapsed = time.time() - t0
    table_cases = [c for c in report.cases if c.id.startswith("table/")]
    assert len(table_cases) == len(table_groups(8)) == 196
    assert report.all_pass
    assert elapsed < 10.0


RANK_LE_6 = [g for g in table_groups(6) if g.rank <= 6]


@pytest.mark.parametrize("group", RANK_LE_6, ids=lambda g: g.label())
def test_span_dimension_matches_label_dimension(group):
    """The Weyl-orbit span of the generator has the dimension of the
    catalog label: the hook-length count for hyperoctahedral labels, the
    plain tableaux count in type A, halved for the split equal-pair
    labels of type D."""
    datum = build_root_datum(group)
    row = springer_row(group)
    generator = linear_form_product(datum.rank, generator_forms(datum))
    span = orbit_span(generator, datum)
    label = row.label
    kind, _ = ambient_algebra(group)
    if kind == "A":
        expected = standard_tableaux_count(label)
    else:
        expected = bipartition_dim(label)
        if kind == "D" and label.alpha == label.beta:
            expected //= 2
    assert span.dim == expected


@pytest.mark.parametrize("group", table_groups(5), ids=lambda g: g.label())
def test_orbit_dimension_is_twice_noncompact_count(group):
    # for every valid row the orbit dimension equals dim_C(p) = 2(r_g - r_k)
    row = springer_row(group)
    if row.is_springer:
        datum = build_root_datum(group, max_rank=max(8, group.rank))
        assert row.orbit_dim == 2 * (datum.r_g - datum.r_k)


def test_bipartition_dim_cap():
    from diracindex.errors import CapExceeded

    with pytest.raises(CapExceeded):
        bipartition_dim(Bipartition((7, 6), ()))


from hypothesis import given, settings, strategies as st


@st.composite
def partitions(draw, max_total=16):
    total = draw(st.integers(1, max_total))
    parts = []
    remaining = total
    cap = total
    while remaining > 0:
        part = draw(st.integers(1, min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


@settings(max_examples=150, deadline=None)
@given(partitions(), st.sampled_from(["B", "C", "D"]))
def test_symbol_partition_roundtrip_on_valid_partitions(p, kind):
    total = sum(p)
    if kind == "B" and total % 2 == 0:
        p = p + (1,) if p[-1] >= 1 else p
        p = tuple(sorted(p, reverse=True))
        total = sum(p)
    if kind in ("C", "D") and total % 2 == 1:
        p = tuple(sorted(p + (1,), reverse=True))
        total = sum(p)
    if not _valid_nilpotent(p, kind, total):
        return
    sym = symbol_of_partition(p, kind)
    assert partition_of_symbol(sym) == p
    # and the bipartition read off the symbol rebuilds an equivalent symbol
    bp = bipartition_of_symbol(sym)
    assert symbols_equivalent(symbol_of_bipartition(bp, kind), sym)


def test_springer_row_orbit_dimension_is_internal(monkeypatch):
    monkeypatch.setattr("diracindex.springer.orbit_dim", lambda partition, kind, total: -1)
    with pytest.raises(InternalInvariantError, match="orbit dimension"):
        springer_row(GroupId.sp_r(2))


def test_springer_row_symbol_collision_is_internal(monkeypatch):
    monkeypatch.setattr("diracindex.springer.partition_of_symbol", lambda sym: None)
    with pytest.raises(InternalInvariantError, match="symbol merge collided"):
        springer_row(GroupId.sp_r(2))


def test_springer_row_checks_the_label_kind(monkeypatch):
    """A type A label must be a partition, any other a bipartition."""
    monkeypatch.setattr("diracindex.springer.sigma_k_bipartition", lambda g: Bipartition((1,), ()))
    with pytest.raises(InternalInvariantError, match="type A label"):
        springer_row(GroupId.su(1, 1))
    monkeypatch.setattr("diracindex.springer.sigma_k_bipartition", lambda g: (1, 1))
    with pytest.raises(InternalInvariantError, match="type C label"):
        springer_row(GroupId.sp_r(2))


def _ambient_algebra_by_family(group):
    """(type, N) of the complexified algebra, one branch per family: the
    oracle of ambient_algebra, which reads the block layout."""
    r = group.rank
    fam = group.family
    if fam == Family.SU:
        return "A", r
    if fam == Family.SO_EVEN_ODD:
        return "B", 2 * r + 1
    if fam in (Family.SP_R, Family.SP_PQ):
        return "C", 2 * r
    return "D", 2 * r


def test_ambient_algebra_matches_the_family_chain():
    groups = table_groups(12)
    assert {g.family for g in groups} == set(Family)
    for group in groups:
        assert ambient_algebra(group) == _ambient_algebra_by_family(group), group.label()


def test_springer_row_reads_its_label_once(monkeypatch):
    """One row reads the catalog once and checks validity in orbit_dim alone."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(f"diracindex.springer.{name}", wrapper)

    for name in ("sigma_k_bipartition", "orbit_dim", "_valid_nilpotent"):
        counted(name, getattr(springer_module, name))
    for group in table_groups(3):
        calls.clear()
        springer_row(group)
        # orbit_dim applies the parity rules once, through the module global
        assert calls == {"sigma_k_bipartition": 1, "orbit_dim": 1, "_valid_nilpotent": 1}


def test_family_layout_is_built_once_per_group():
    group = GroupId.sp_r(7)
    assert _family_layout(group) is _family_layout(group)


def test_orbit_dim_checks_its_partition_once(monkeypatch):
    calls = Counter()
    check = springer_module.check_partition

    def counted(p):
        calls[tuple(p)] += 1
        return check(p)

    monkeypatch.setattr("diracindex.springer.check_partition", counted)
    assert orbit_dim([3, 2, 2, 1, 1], "B", 9) == 20
    assert calls == {(3, 2, 2, 1, 1): 1}
    # orbit_dim still refuses what is not a partition, or not one of total
    with pytest.raises(InvalidPartition):
        orbit_dim((1, 2), "A", 3)
    with pytest.raises(InvalidPartition):
        orbit_dim((2, 2), "A", 5)
