"""Classification pipeline for the Weyl-group representation generated by
the compact Weyl dimension polynomial: Macdonald labels, two-row symbols,
associated nilpotent-orbit partitions, parity validity, and orbit
dimensions, assembled into the classification table for the six classical
equal-rank families.

Symbol conventions.  For types B and C the top row has one more entry
than the bottom row; for type D the rows have equal length.  A bipartition
(alpha, beta) is padded with zeros to lengths (m+1, m) -- (m, m) in type D
-- with m minimal, written weakly increasing, and the staircase 0,1,2,...
is added to each row, giving strictly increasing rows.  The associated
partition merges {2*top+1} with {2*bottom} in type B and {2*top} with
{2*bottom+1} in types C and D, sorts, subtracts the staircase, and strips
zeros.  Two symbols are equivalent when they agree after removing
simultaneous leading zeros.

The Macdonald label of each family's compact subsystem is recorded in
``sigma_k_bipartition`` and is certified against this pipeline by the
round trips exercised in the test suite: inverting the classification
partition through the same merge recovers the label.

Table rows build no root datum and no polynomial.  The block layout
``groups._family_layout`` alone gives the ambient algebra (its type and
size), the root counts of the orbit-dimension check and, through the
alternant exponents of each ``groups.Block``, the printed generator.  A
row reads its label once, merges it into a partition once, and lets
``orbit_dim`` decide whether that partition is a nilpotent orbit's.
"""

from __future__ import annotations

from math import comb, factorial

from .errors import (
    CapExceeded,
    InternalInvariantError,
    InvalidPartition,
    UnsupportedFamily,
)
from .groups import Family, GroupId, _family_layout
# Unused: test_tracer_wraps_every_alias_and_restores_the_originals reads it; ROADMAP item 9
from .polynomials import linear_form_product
from .value import Value

Partition = tuple[int, ...]  # weakly decreasing positive parts


def check_partition(p: Partition) -> Partition:
    p = tuple(int(x) for x in p)
    if any(x <= 0 for x in p):
        raise InvalidPartition(f"nonpositive part in {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise InvalidPartition(f"parts not weakly decreasing in {p}")
    return p


class Bipartition(Value):
    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: Partition, beta: Partition):
        super().__init__(
            check_partition(alpha) if alpha else (), check_partition(beta) if beta else ()
        )


class Symbol(Value):
    # kind is 'B', 'C' or 'D'
    __slots__ = _fields = ("top", "bottom", "kind")

    def __init__(self, top: tuple[int, ...], bottom: tuple[int, ...], kind: str):
        if kind not in ("B", "C", "D"):
            raise ValueError(f"symbol kind must be B, C or D, not {kind!r}")
        for row in (top, bottom):
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"symbol row {row} is not strictly increasing")
            if row and row[0] < 0:
                raise ValueError("symbol entries must be nonnegative")
        expected = len(bottom) + (0 if kind == "D" else 1)
        if len(top) != expected:
            raise ValueError(
                f"type {kind} symbol needs |top| = |bottom|"
                + ("" if kind == "D" else " + 1")
            )
        super().__init__(top, bottom, kind)


def symbol_of_bipartition(bp: Bipartition, kind: str) -> Symbol:
    """Two-row symbol of a bipartition, minimal padding."""
    alpha, beta = bp.alpha, bp.beta
    if kind == "D":
        m = max(len(alpha), len(beta), 1)
        top_len, bottom_len = m, m
    else:
        m = max(len(alpha) - 1, len(beta), 0)
        top_len, bottom_len = m + 1, m
    top_parts = sorted(alpha) if alpha else []
    bottom_parts = sorted(beta) if beta else []
    top_parts = [0] * (top_len - len(top_parts)) + top_parts
    bottom_parts = [0] * (bottom_len - len(bottom_parts)) + bottom_parts
    top = tuple(v + i for i, v in enumerate(top_parts))
    bottom = tuple(v + i for i, v in enumerate(bottom_parts))
    return Symbol(top, bottom, kind)


def normalize_symbol(sym: Symbol) -> Symbol:
    """Strip simultaneous leading zeros; symbols equal here are equivalent."""
    top, bottom = list(sym.top), list(sym.bottom)
    while top and bottom and top[0] == 0 and bottom[0] == 0:
        top = [v - 1 for v in top[1:]]
        bottom = [v - 1 for v in bottom[1:]]
    return Symbol(tuple(top), tuple(bottom), sym.kind)


def symbols_equivalent(a: Symbol, b: Symbol) -> bool:
    return a.kind == b.kind and normalize_symbol(a) == normalize_symbol(b)


def partition_of_symbol(sym: Symbol) -> Partition | None:
    """Partition attached to a symbol via the parity merge.

    Returns None if the merged sequence collides; for well-formed symbols
    built here that cannot happen, but the guard keeps the contract total.
    """
    if sym.kind == "B":
        merged = [2 * v + 1 for v in sym.top] + [2 * v for v in sym.bottom]
    else:
        merged = [2 * v for v in sym.top] + [2 * v + 1 for v in sym.bottom]
    merged.sort()
    if len(set(merged)) != len(merged):
        return None
    parts = [v - i for i, v in enumerate(merged)]
    if any(p < 0 for p in parts):
        return None
    parts = [p for p in parts if p > 0]
    parts.sort(reverse=True)
    return tuple(parts)


def symbol_of_partition(partition: Partition, kind: str) -> Symbol:
    """Inverse construction: pad to 2m+1 (B/C) or 2m (D) parts, add the
    staircase, and split by parity into the two rows."""
    parts = sorted(check_partition(partition))
    if kind == "D":
        if len(parts) % 2 == 1:
            parts = [0] + parts
    else:
        if len(parts) % 2 == 0:
            parts = [0] + parts
    staged = [v + i for i, v in enumerate(parts)]
    evens = [v // 2 for v in staged if v % 2 == 0]
    odds = [(v - 1) // 2 for v in staged if v % 2 == 1]
    if kind == "B":
        top, bottom = odds, evens
    else:
        top, bottom = evens, odds
    return Symbol(tuple(top), tuple(bottom), kind)


def bipartition_of_symbol(sym: Symbol) -> Bipartition:
    alpha = tuple(
        sorted((v - i for i, v in enumerate(sym.top) if v - i > 0), reverse=True)
    )
    beta = tuple(
        sorted((v - i for i, v in enumerate(sym.bottom) if v - i > 0), reverse=True)
    )
    return Bipartition(alpha, beta)


def _dual(p: Partition) -> Partition:
    """The dual (transposed) partition of a checked partition."""
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1)) if p else ()


def _valid_nilpotent(p: Partition, kind: str, total: int) -> bool:
    """Parity rules for nilpotent-orbit partitions of the classical types,
    on a checked partition: type A needs only the right size; even parts
    need even multiplicity in types B and D; odd parts need even
    multiplicity in type C."""
    if sum(p) != total:
        return False
    if kind == "A":
        return True
    counts: dict[int, int] = {}
    for x in p:
        counts[x] = counts.get(x, 0) + 1
    if kind in ("B", "D"):
        return all(c % 2 == 0 for x, c in counts.items() if x % 2 == 0)
    if kind == "C":
        return all(c % 2 == 0 for x, c in counts.items() if x % 2 == 1)
    raise ValueError(f"unknown type {kind!r}")


def is_very_even(p: Partition) -> bool:
    return bool(p) and all(x % 2 == 0 for x in p)


def orbit_dim(p: Partition, kind: str, total: int) -> int:
    """Complex dimension of the nilpotent orbit with Jordan type p, which
    is checked once."""
    p = check_partition(p) if p else ()
    if not _valid_nilpotent(p, kind, total):
        raise InvalidPartition(f"{p} is not a type-{kind} partition of {total}")
    dual = _dual(p)
    s2 = sum(x * x for x in dual)
    odd = sum(1 for x in p if x % 2 == 1)
    if kind == "A":
        return total * total - s2
    if kind in ("B", "D"):
        return (total * total - total) // 2 - (s2 - odd) // 2
    return (total * total + total) // 2 - (s2 + odd) // 2


def hook_product(p: Partition) -> int:
    rows = check_partition(p) if p else ()
    dual = _dual(rows)
    prod = 1
    for r, row_len in enumerate(rows):
        for c in range(row_len):
            prod *= (row_len - c) + (dual[c] - r) - 1
    return prod


def standard_tableaux_count(p: Partition) -> int:
    """Hook length formula."""
    if not p:
        return 1
    return factorial(sum(p)) // hook_product(p)


BIPARTITION_DIM_CAP = 12


def bipartition_dim(bp: Bipartition) -> int:
    """Dimension of the hyperoctahedral-group representation labelled by
    (alpha, beta): binomial(n, |alpha|) * f^alpha * f^beta."""
    n = sum(bp.alpha) + sum(bp.beta)
    if n > BIPARTITION_DIM_CAP:
        raise CapExceeded(f"bipartition size {n} exceeds {BIPARTITION_DIM_CAP}")
    return (
        comb(n, sum(bp.alpha))
        * standard_tableaux_count(bp.alpha)
        * standard_tableaux_count(bp.beta)
    )


# -- the catalog -------------------------------------------------------


def sigma_k_bipartition(group: GroupId) -> Partition | Bipartition:
    """Macdonald label of the representation generated by the compact Weyl
    dimension polynomial.  Type A labels are plain partitions; the rest
    are bipartitions oriented so the pipeline reproduces the recorded
    classification partitions (the test suite certifies every entry)."""
    p, q = group.p, group.q
    fam = group.family
    if fam == Family.SU:
        m, d = min(p, q), abs(p - q)
        return (2,) * m + (1,) * d
    if fam == Family.SO_EVEN_ODD:
        return Bipartition((1,) * p, (1,) * q)
    if fam == Family.SP_R:
        n = group.n
        return Bipartition((1,) * ((n + 1) // 2), (1,) * (n // 2))
    if fam == Family.SP_PQ:
        m, d = min(p, q), abs(p - q)
        return Bipartition((), (2,) * m + (1,) * d)
    if fam == Family.SO_EVEN_EVEN:
        m, d = min(p, q), abs(p - q)
        return Bipartition((2,) * m + (1,) * d, ())
    if fam == Family.SO_STAR:
        n = group.n
        return Bipartition((1,) * ((n + 1) // 2), (1,) * (n // 2))
    raise UnsupportedFamily(f"no catalog entry for {fam}")


def ambient_algebra(group: GroupId) -> tuple[str, int]:
    """(type, N) of the complexified algebra, sl(N), so(N) or sp(N), read
    off the ambient block of ``groups._family_layout``: of size m, it has
    N = m in type A, 2m + 1 in type B and 2m in types C and D."""
    block = _family_layout(group)[0]
    m = block.size
    return block.kind, {"A": m, "B": 2 * m + 1}.get(block.kind, 2 * m)


class SpringerRow(Value):
    __slots__ = _fields = ("group", "label", "is_springer", "partition", "orbit_dim", "two_orbits")
    _defaults = {"two_orbits": False}


def springer_row(group: GroupId) -> SpringerRow:
    """One classification row: label -> symbol -> partition -> validity ->
    dimension, with the structural consistency checks along the way.  The
    label is read once and merged into a partition once; ``orbit_dim``
    checks the partition, and one it refuses is not Springer.  The numbers
    r_g and r_k of positive roots of G and K are read off the ambient and
    compact blocks."""
    ambient, compact_blocks = _family_layout(group)
    r_g, r_k = ambient.root_count, sum(b.root_count for b in compact_blocks)
    label = sigma_k_bipartition(group)
    kind, total = ambient_algebra(group)
    if kind == "A":
        if not isinstance(label, tuple):
            raise InternalInvariantError(f"type A label {label!r} is not a partition")
        partition = label
    else:
        if not isinstance(label, Bipartition):
            raise InternalInvariantError(f"type {kind} label {label!r} is not a bipartition")
        partition = partition_of_symbol(symbol_of_bipartition(label, kind))
        if partition is None:
            raise InternalInvariantError("symbol merge collided; catalog entry is inconsistent")
    try:
        dim = orbit_dim(partition, kind, total)
    except InvalidPartition:
        dim = None
    ok = dim is not None
    if ok and dim != 2 * (r_g - r_k):
        raise InternalInvariantError(
            f"orbit dimension {dim} disagrees with 2(r_g - r_k) for {group.label()}"
        )
    return SpringerRow(
        group=group,
        label=label,
        is_springer=ok,
        partition=partition if ok else None,
        orbit_dim=dim,
        two_orbits=ok and kind == "D" and is_very_even(partition),
    )


def table_groups(max_param: int = 5) -> list[GroupId]:
    """Deterministic enumeration of table rows with parameters <= max_param."""
    groups: list[GroupId] = []
    for p in range(1, max_param + 1):
        for q in range(p, max_param + 1):
            groups.append(GroupId.su(p, q))
    for p in range(1, max_param + 1):
        for q in range(0, max_param + 1):
            groups.append(GroupId.so_even_odd(p, q))
    for n in range(1, max_param + 1):
        groups.append(GroupId.sp_r(n))
    for p in range(1, max_param + 1):
        for q in range(p, max_param + 1):
            groups.append(GroupId.sp_pq(p, q))
    for p in range(1, max_param + 1):
        for q in range(p, max_param + 1):
            groups.append(GroupId.so_even_even(p, q))
    for n in range(1, max_param + 1):
        groups.append(GroupId.so_star(n))
    return groups


def springer_table(max_param: int = 5, families: set[Family] | None = None) -> list[SpringerRow]:
    rows = []
    for group in table_groups(max_param):
        if families is not None and group.family not in families:
            continue
        rows.append(springer_row(group))
    return rows
