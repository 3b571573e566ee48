"""Weyl group action on polynomials, orbit spans, and Weyl dimension polynomials.

Every w in W is a signed permutation, so the action (w.P)(lam) =
P(w^{-1} lam) is `MultiPoly.permute` on w's (perm, signs), and the orbit
span is `polynomials.invariant_span` under the simple reflections: a span
that holds P and is stable under generators of W is the orbit span.  This
module only maps W to signed permutations; it knows no packed layout.

D_k is built from the exponents of the compact blocks alone
(`polynomials.alternant`).  Weyl dimension products at points have one
kernel, `_weyl_product`, which `dirac.evaluate_q` and
`kmodules.dim_virtual` read too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch
from .groups import IntWeight, RootDatum, Weight, WeylElement, idot, reflection, simple_roots
from .polynomials import MultiPoly, PolySpan, alternant, invariant_span

SPAN_COLUMN_CAP = 20_000


def act(w: WeylElement, poly: MultiPoly) -> MultiPoly:
    """(w.P)(lam) = P(w^{-1} lam), w's signed permutation of the variables;
    P itself for the identity."""
    return poly.permute(w.perm, w.signs)


def orbit_span(poly: MultiPoly, datum: RootDatum) -> PolySpan:
    """The span of {w.P : w in W_g}, exactly: the span of P closed under the
    simple reflections, which generate W_g (`invariant_span`, capped at
    SPAN_COLUMN_CAP)."""
    if poly.arity != datum.rank:
        raise DimensionMismatch("polynomial arity must match the root datum")
    gens = [reflection(alpha) for alpha in simple_roots(datum)]
    return invariant_span(poly, [(s.perm, s.signs) for s in gens], SPAN_COLUMN_CAP)


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

    These exponents are `groups.Block.exponents`.  The compact blocks
    cover the coordinates in order, so D_k is the block-diagonal
    alternant of their exponents, made by one `polynomials.alternant`
    call, which keeps it as its blocks: signed permutations list D_k in
    emission order (see `polynomials`).
    The scale is one integer quotient, from the roots alone: with rho_k =
    nums / den and N compact positive roots,

        D_k = prod gcd(alpha) den^N / prod (nums, alpha) * alternant.

    D_k is built once per datum.  Its packed numerator is a memo, filled
    once by the first kernel that reads it, such as a Weyl translate or an
    evaluation; emitting +-D_k does not build it.
    """
    roots = datum.compact_positive_roots
    den, nums = datum.rho_k_form
    scale = Fraction(
        math.prod(math.gcd(*alpha) for alpha in roots) * den ** len(roots),
        math.prod(idot(nums, alpha) for alpha in roots),
    )
    return alternant([b.exponents for b in datum.compact_blocks], scale)


def _weyl_product(roots, rho: IntWeight, den: int, terms) -> Fraction:
    """sum c * prod (n / den, alpha) / (rho, alpha) over the N roots, for
    the (n, c) pairs of terms, all weights over the one denominator den:
    with rho = r / e it is e^N sum c prod (n, alpha) over den^N prod (r,
    alpha), summed in integers and divided once."""
    rho_den, rho_nums = rho
    total = 0
    for nums, c in terms:
        for alpha in roots:
            c *= idot(nums, alpha)
        total += c
    scale = 1
    for alpha in roots:
        scale *= idot(rho_nums, alpha)
    return Fraction(total * rho_den ** len(roots), scale * den ** len(roots))


def weyl_dim_value(datum: RootDatum, gamma: Weight) -> Fraction:
    """D_k(gamma) evaluated directly (same normalization as weyl_dim_poly)."""
    den, nums = datum.form(gamma)
    return _weyl_product(datum.compact_positive_roots, datum.rho_k_form, den, ((nums, 1),))


def weyl_dim_value_g(datum: RootDatum, lam_plus_rho: Weight) -> Fraction:
    """Full-group Weyl dimension at a rho-shifted parameter."""
    den, nums = datum.form(lam_plus_rho)
    return _weyl_product(datum.positive_roots, datum.rho_g_form, den, ((nums, 1),))
