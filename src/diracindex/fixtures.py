"""Recorded reference data and the concrete index families used by the
verification suites.

The rank-one fixture realizes SL(2,R) as SU(1,1), embedding the integer
weight n as (n, 0); only coordinate differences matter there.  The four
irreducible modules at a positive integral infinitesimal character are
the finite-dimensional module F, the two discrete series D+ and D-, and
the irreducible principal series P.  Their index families, the simple
reflection's coherent-continuation action, the decomposition into
irreducibles, the associated-cycle multiplicity data, and the index
constants of the indecomposable example are all recorded here and
re-derived where a computation is available.
"""

from __future__ import annotations

from fractions import Fraction

from .dirac import IndexFamily, discrete_series_family
from .errors import IndexOutOfRange
from .groups import Family, GroupId, RootDatum, Weight, WeylElement, build_root_datum
from .springer import Partition
from .sun1 import su_n1_datum
from .value import Value


def sl2_datum() -> RootDatum:
    return build_root_datum(GroupId.su(1, 1))


def sl2_weight(n: int) -> Weight:
    return (Fraction(n), Fraction(0))


def sl2_simple_reflection() -> WeylElement:
    return WeylElement((1, 0), (1, 1))


class SL2Fixture(Value):
    """Everything the rank-one suite asserts, in one immutable record."""

    __slots__ = _fields = (
        "base_parameter",
        # index polynomial values (constants) for F, D+, D-, P
        "q_values",
        # s-action matrix columns in the ordered basis (F, D+, D-, P)
        "s_matrix",
        # coherent continuation content: trivial count, sign count
        "decomposition",
        # associated-cycle multiplicities (m1, m2) per module
        "multiplicities",
        # integer coefficients making Q = c1*m1 + c2*m2 across all four modules
        "conjecture_coeffs",
        # recorded index constants of the indecomposable extension example:
        # weights of I(P), I(V_0), I(V_-2) with signs, as (coeff, weight) pairs
        "ps_index_constants",
        "gk_dims",
    )


SL2 = SL2Fixture(
    base_parameter=1,
    q_values={"F": 0, "D+": 1, "D-": -1, "P": 0},
    # s.F = -F, s.D+ = D+ + F, s.D- = D- + F, s.P = P
    s_matrix=(
        (-1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (0, 0, 0, 1),
    ),
    decomposition=(3, 1),
    multiplicities={"F": (0, 0), "D+": (1, 0), "D-": (0, 1), "P": (1, 1)},
    conjecture_coeffs=(1, -1),
    ps_index_constants={"P": (-1, 1), "V0": (-1, 1), "V-2": (-1, -1)},
    gk_dims={"F": 0, "D+": 1, "D-": 1, "P": 1},
)


def sl2_families() -> dict[str, IndexFamily]:
    """Index families of the four irreducibles at SL2.base_parameter."""
    datum = sl2_datum()
    base = sl2_weight(SL2.base_parameter)
    e = WeylElement.identity(2)
    s = sl2_simple_reflection()
    return {
        "F": IndexFamily(datum, base, {e: -1, s: 1}),
        "D+": IndexFamily(datum, base, {e: 1}),
        "D-": IndexFamily(datum, base, {s: -1}),
        "P": IndexFamily(datum, base, {}),
    }


# -- SU(n,1) discrete series -------------------------------------------


def su_n1_chamber_base(n: int, i: int) -> Weight:
    """A regular integral parameter inside chamber D_i of SU(n,1).

    The compact block takes the even values 2n, 2n-2, ..., 2 and the last
    coordinate the odd value 2i+1, which sits strictly between the i-th
    pair from the bottom, so exactly i noncompact pairings are negative.
    """
    coords = [Fraction(2 * v) for v in range(n, 0, -1)] + [Fraction(2 * i + 1)]
    return tuple(coords)


def su_n1_ds_family(n: int, i: int) -> IndexFamily:
    """The index family of the discrete series of chamber D_i."""
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"chamber index {i} out of range for SU({n},1)")
    return discrete_series_family(su_n1_chamber_base(n, i), su_n1_datum(n))


def su_n1_gk_dim(n: int, i: int) -> int:
    """Recorded GK dimension of the discrete series of chamber D_i: n for
    the holomorphic D_0 and antiholomorphic D_n, whose associated variety
    is p+ or p-, and 2n - 1 for the chambers between."""
    return n if i in (0, n) else 2 * n - 1


def su21_ds_families() -> dict[int, IndexFamily]:
    return {i: su_n1_ds_family(2, i) for i in range(3)}


# -- recorded classification table ------------------------------------


def reference_table_row(group: GroupId) -> tuple[bool, Partition | None, int | None]:
    """Recorded (Springer?, partition, complex orbit dimension) for one
    classification row; the verification suite checks the computed pipeline
    against these values."""
    p, q = group.p, group.q
    fam = group.family
    if fam == Family.SU:
        m = min(p, q)
        return True, (2,) * m + (1,) * abs(p - q), 2 * p * q
    if fam == Family.SO_EVEN_ODD:
        if p >= q + 2:
            return False, None, None
        ones = 2 * (q - p) + 2
        part = (3,) + (2,) * (2 * p - 2) + (1,) * ones
        return True, part, 2 * p * (2 * q + 1)
    if fam == Family.SP_R:
        n = group.n
        return True, (2,) * n, n * (n + 1)
    if fam == Family.SP_PQ:
        return False, None, None
    if fam == Family.SO_EVEN_EVEN:
        m = min(p, q)
        part = (3,) + (2,) * (2 * m - 2) + (1,) * (2 * abs(p - q) + 1)
        return True, part, 4 * p * q
    if fam == Family.SO_STAR:
        n = group.n
        part = (2,) * n if n % 2 == 0 else (2,) * (n - 1) + (1, 1)
        return True, part, n * (n - 1)
    raise ValueError(f"no reference row for {fam}")
