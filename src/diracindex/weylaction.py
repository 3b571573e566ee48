"""Weyl group action on polynomials, orbit spans, and Weyl dimension polynomials.

The action is (w.P)(lam) = P(w^{-1} lam); since every w is a signed
permutation this is a monomial-level remap, no general composition needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .errors import CapExceeded, DimensionMismatch
from .groups import IntWeight, RootDatum, Weight, WeylElement, idot
from .polynomials import Exponent, MultiPoly, _alternant, _gl_key

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


@dataclass(frozen=True)
class PolySpan:
    """Echelonized basis of a Q-span of polynomials of one arity."""

    basis: tuple[MultiPoly, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, poly: MultiPoly) -> bool:
        return _reduce_against(poly, self.basis).is_zero()


def _leading(poly: MultiPoly) -> Exponent:
    return min(poly.terms, key=_gl_key) if poly.terms else ()


def _reduce_against(poly: MultiPoly, echelon: Sequence[MultiPoly]) -> MultiPoly:
    current = poly
    for b in echelon:
        lead = _leading(b)
        if not current.terms:
            break
        c = current.terms.get(lead)
        if c is not None:
            current = current - b * (c / b.terms[lead])
    return current


def echelonize(polys: Iterable[MultiPoly]) -> list[MultiPoly]:
    """Gaussian elimination over Q; leading monomials in graded-lex order."""
    basis: list[MultiPoly] = []
    for p in polys:
        r = _reduce_against(p, basis)
        if not r.is_zero():
            lead = _leading(r)
            r = r * (Fraction(1) / r.terms[lead])
            basis = [b - r * b.terms.get(lead, Fraction(0)) for b in basis]
            basis.append(r)
            basis.sort(key=lambda b: _gl_key(_leading(b)))
    return basis


def _check_span_size(columns: int, rows: int, cap: int, qualifier: str = "") -> None:
    if columns > cap or columns * rows > 50 * cap:
        raise CapExceeded(
            f"{qualifier}{columns} columns x {rows} rows exceeds the span cap {cap}"
        )


def orbit_span(
    poly: MultiPoly, elements: Sequence[WeylElement], cap: int = SPAN_COLUMN_CAP
) -> PolySpan:
    """Echelonized span of {w.P : w in W}; dimension is exact."""
    # act is a bijection on monomials, so each translate has as many terms
    # as poly: a lower bound on the columns, checked before any translate.
    _check_span_size(len(poly._int_form()[2]), len(elements), cap, "at least ")
    translates = [act(w, poly) for w in elements]
    # act keeps the field width, so equal monomials have equal packed keys
    columns = len({key for t in translates for key in t._int_form()[2]})
    _check_span_size(columns, len(translates), cap)
    return PolySpan(tuple(echelonize(translates)))


# (a, b) by block kind: column j = 0..m-1 of the alternant of an m-block
# has exponent a (m - 1 - j) + b (see weyl_dim_poly).
_ALTERNANT_EXPONENTS = {"A": (1, 0), "B": (2, 1), "C": (2, 1), "D": (2, 0)}


def _disjoint_product(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    """Product of integer numerators in disjoint variables: no two pairs of
    terms give the same key."""
    return {k1 + k2: c1 * c2 for k1, c1 in left.items() for k2, c2 in right.items()}


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

    Each is expanded by `polynomials._alternant`, and the blocks, having
    disjoint variables, multiply by adding keys.  Each alternant has
    ascending variables and falling exponents, so its terms come out in
    descending lex order; the blocks of `groups._family_layout` are
    contiguous and ascending, so the product, left block outermost, keeps
    that order, and `MultiPoly.graded_rows` sorts D_k in one linear run.
    The scale is one integer quotient: with rho_k = nums / den and N
    compact positive roots,

        D_k = prod gcd(alpha) den^N / prod (nums, alpha) * prod_blocks alternant.

    D_k is built once per datum; a `MultiPoly` is never changed in place.
    """
    roots = datum.compact_positive_roots
    degree = len(roots)
    width = max(degree, 1).bit_length()
    alternants = []
    for block in datum.compact_blocks:
        a, b = _ALTERNANT_EXPONENTS[block.kind]
        exponents = [a * (block.size - 1 - j) + b for j in range(block.size)]
        alternants.append(_alternant(width, block.indices, exponents))
    num = reduce(_disjoint_product, alternants)
    den, nums = datum.rho_k_form
    scale = Fraction(
        math.prod(math.gcd(*alpha) for alpha in roots) * den**degree,
        math.prod(idot(nums, alpha) for alpha in roots),
    )
    return MultiPoly._from_ints(datum.rank, width, num, scale, degree)


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
