"""Weyl group action on polynomials, orbit spans, and Weyl dimension polynomials.

The action is (w.P)(lam) = P(w^{-1} lam); since every w is a signed
permutation this is a monomial-level remap, no general composition needed.

Orbit spans close P under the simple reflections on integer numerators: a
span that holds P and is stable under generators of W is the orbit span.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import CapExceeded, DimensionMismatch
from .groups import IntWeight, RootDatum, Weight, WeylElement, idot, reflection, simple_roots
from .polynomials import IntTerms, MultiPoly, _repack, alternant
from .value import Value

SPAN_COLUMN_CAP = 20_000


def _act_packed(w: WeylElement, width: int, num: dict[int, int]) -> dict[int, int]:
    """The integer numerator of w.P from that of P, on packed keys of the
    given width (see `polynomials`).

    Exponent k of w.P is exponent perm[k] of P, and a monomial changes
    sign when its exponents over the coordinates perm[k] with signs[k] < 0
    sum to an odd number.  Fields that move by the same distance move
    together under one mask, and the parity of that sum is the parity of
    the ones among the low bits of the negated fields.  The map is a
    bijection on keys, so each term is assigned once.  The identity moves
    and negates no field, and its numerator is num itself, which no kernel
    changes in place.
    """
    field = (1 << width) - 1
    moves: dict[int, int] = {}
    for k, p in enumerate(w.perm):
        moves[k - p] = moves.get(k - p, 0) | field << (p * width)
    left = [(d * width, mask) for d, mask in moves.items() if d >= 0]
    right = [(-d * width, mask) for d, mask in moves.items() if d < 0]
    odd = sum(1 << (p * width) for p, s in zip(w.perm, w.signs) if s < 0)
    if not odd and moves.keys() <= {0}:
        return num
    out = {}
    for key, c in num.items():
        new = 0
        for shift, mask in left:
            new |= (key & mask) << shift
        for shift, mask in right:
            new |= (key & mask) >> shift
        out[new] = -c if (key & odd).bit_count() & 1 else c
    return out


def act(w: WeylElement, poly: MultiPoly) -> MultiPoly:
    """(w.P)(lam) = P(w^{-1} lam), on the integer form: a signed permutation
    keeps the degree and the content, so the result is normalized."""
    if poly.arity != len(w.perm):
        raise DimensionMismatch("polynomial arity must match the Weyl element")
    den, width, num = poly._int_form()
    return MultiPoly._packed(poly.arity, den, width, _act_packed(w, width, num))


class PolySpan(Value):
    """An exact Q-span: primitive integer numerators on packed keys of one
    width, keyed by pivot, the largest key; distinct pivots are independent."""

    __slots__ = _fields = ("arity", "width", "rows")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, poly: MultiPoly) -> bool:
        if poly.arity != self.arity:
            raise DimensionMismatch("polynomial arity must match the span")
        _, width, num = poly._int_form()
        # a wider polynomial has a degree above all in the span, and is not 0
        return width <= self.width and not _reduce(
            _repack(self.arity, width, self.width, num), self.rows)


def _reduce(row: IntTerms, rows: Mapping[int, IntTerms]) -> IntTerms:
    """row less a combination of the rows, primitive, with no pivot among its
    keys: pivot p, a row's largest key, goes by b row - row[p] rows[p] with
    b = rows[p][p], which adds only smaller keys.  A nonzero combination of
    rows has its largest pivot as a key, so row is in the span iff the
    result is empty.  It may be row itself; no dict is changed in place."""
    for lead, basis in sorted(rows.items(), reverse=True):
        if lead in row:
            b, c = basis[lead], row[lead]
            out = {key: b * v for key, v in row.items()}
            for key, v in basis.items():
                out[key] = out.get(key, 0) - c * v
            row = {key: v for key, v in out.items() if v}
    g = math.gcd(*row.values())
    return row if g <= 1 else {key: v // g for key, v in row.items()}


def orbit_span(poly: MultiPoly, datum: RootDatum, cap: int = SPAN_COLUMN_CAP) -> PolySpan:
    """The span of {w.P : w in W_g}, exactly: each row that survives
    `_reduce` is kept and its images under the simple reflections queued.
    Every row lies in the orbit span, and once the queue is empty the rows
    span a space that contains P and is stable under generators of W_g.
    Columns (keys of the rows) and rows are checked against the cap at
    each new row, P's own first, so a refusal precedes any image."""
    if poly.arity != datum.rank:
        raise DimensionMismatch("polynomial arity must match the root datum")
    gens = [reflection(alpha) for alpha in simple_roots(datum)]
    _, width, num = poly._int_form()
    rows: dict[int, IntTerms] = {}
    columns: set[int] = set()
    queue = [num]
    while queue:
        row = _reduce(queue.pop(), rows)
        if row:
            rows[max(row)] = row
            columns.update(row)
            if len(columns) > cap or len(columns) * len(rows) > 50 * cap:
                raise CapExceeded(
                    f"{len(columns)} columns x {len(rows)} rows exceeds the span cap {cap}")
            queue += [_act_packed(s, width, row) for s in gens]
    return PolySpan(poly.arity, width, MappingProxyType(rows))


@lru_cache(maxsize=None)
def weyl_dim_poly(datum: RootDatum) -> MultiPoly:
    """Weyl dimension polynomial for the compact subgroup.

    D_k(lam) = prod_{alpha in R_k^+} <lam, alpha> / <rho_k, alpha>, so that
    D_k(gamma) is the dimension of the K-type with infinitesimal character
    gamma and D_k(rho_k) = 1.

    By Weyl's denominator identity the product of the primitive forms
    alpha / gcd(alpha) over the positive roots of one compact block in
    x_1..x_m is an alternant det(x_i^{e_j}), j = 1..m, the Vandermonde
    determinant in x_i or x_i^2:

        type A      prod_{i<j} (x_i - x_j)                  e_j = m - j
        type D      prod_{i<j} (x_i^2 - x_j^2)              e_j = 2(m - j)
        types B, C  prod_i x_i prod_{i<j} (x_i^2 - x_j^2)   e_j = 2(m - j) + 1

    These exponents are `groups.Block.exponents`.  The blocks have
    disjoint variables, so D_k is one block-diagonal alternant, each
    block's columns on its rows only, expanded by one
    `polynomials.alternant` call.  The blocks of `groups._family_layout`
    are contiguous and ascending, so the terms come out in descending lex
    order (see `polynomials`) and `MultiPoly.graded_rows` sorts D_k in one
    linear run.  The scale is one integer quotient: with rho_k = nums / den
    and N compact positive roots,

        D_k = prod gcd(alpha) den^N / prod (nums, alpha) * alternant.

    D_k is built once per datum; a `MultiPoly` is never changed in place.
    """
    roots = datum.compact_positive_roots
    blocks = datum.compact_blocks
    den, nums = datum.rho_k_form
    scale = Fraction(
        math.prod(math.gcd(*alpha) for alpha in roots) * den ** len(roots),
        math.prod(idot(nums, alpha) for alpha in roots),
    )
    return alternant(
        datum.rank,
        [i for b in blocks for i in b.indices],
        [e for b in blocks for e in b.exponents],
        [((1 << b.size) - 1) << b.start for b in blocks for _ in range(b.size)],
        scale,
    )


def _weyl_product(roots, rho: IntWeight, gamma: IntWeight) -> Fraction:
    """prod (gamma, alpha) / (rho, alpha) over the roots, on integer forms:
    with gamma = n / d and rho = r / e it is prod (n, alpha) e / ((r, alpha) d)."""
    (den, nums), (rho_den, rho_nums) = gamma, rho
    num = scale = 1
    for alpha in roots:
        num *= idot(nums, alpha)
        scale *= idot(rho_nums, alpha)
    return Fraction(num * rho_den ** len(roots), scale * den ** len(roots))


def weyl_dim_value(datum: RootDatum, gamma: Weight) -> Fraction:
    """D_k(gamma) evaluated directly (same normalization as weyl_dim_poly)."""
    return _weyl_product(datum.compact_positive_roots, datum.rho_k_form, datum.form(gamma))


def weyl_dim_value_g(datum: RootDatum, lam_plus_rho: Weight) -> Fraction:
    """Full-group Weyl dimension at a rho-shifted parameter."""
    return _weyl_product(datum.positive_roots, datum.rho_g_form, datum.form(lam_plus_rho))
