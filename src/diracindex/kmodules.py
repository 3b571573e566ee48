"""Virtual modules for the spin double cover of K, indexed by infinitesimal
character, plus weight multisets of finite-dimensional modules and exact
character series on the compact torus.

A spectral parameter gamma contributes the (virtual) irreducible of
highest weight gamma - rho_k when gamma is strictly dominant regular for
the compact positive system; a W_k-translate contributes with the sign of
the translating element; compactly singular or off-lattice parameters
contribute zero.  The allowed parameters form the coset Lambda + rho_g.

Freudenthal's recursion visits only the dominant weights, found by
positive-root steps that stay dominant, in descending order of |mu + rho|^2.

Sums collect in one dict: k_type_sum normalizes every (gamma, c) pair into
one dictionary and validates the module once, and frequencies_to_series
builds every exponential sum, Weyl denominators too, from integer moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Mapping

from .errors import (
    DimensionMismatch,
    InternalInvariantError,
    NotDominantIntegral,
    SingularDirection,
)
from .groups import (
    RootDatum,
    Weight,
    dominate,
    dot,
    normalize_k_dominant,
    pairing,
    reflection,
    simple_roots,
    weight_add,
    weight_sub,
    weyl_elements,
)
from .series import TruncatedSeries
from .weylaction import weyl_dim_value, weyl_dim_value_g


class VirtualKModule:
    """Finitely supported integer combination of dominant-regular parameters."""

    __slots__ = ("datum", "coeffs")

    def __init__(self, datum: RootDatum, coeffs: Mapping[Weight, int] | None = None):
        self.datum = datum
        clean: dict[Weight, int] = {}
        for gamma, c in (coeffs or {}).items():
            c = int(c)
            if c == 0:
                continue
            if len(gamma) != datum.rank:
                raise DimensionMismatch("parameter length must equal the rank")
            if not datum.is_k_dominant_regular(gamma):
                raise ValueError("stored parameters must be dominant regular for K")
            if not datum.on_shifted_lattice(gamma):
                raise ValueError("stored parameters must lie on the shifted lattice")
            clean[gamma] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VirtualKModule)
            and self.datum.group == other.datum.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.datum.group, frozenset(self.coeffs.items())))

def k_type_sum(datum: RootDatum, terms: Iterable[tuple[Weight, int]]) -> VirtualKModule:
    """sum c * E(gamma) over the (gamma, c) pairs, collected in one dict.

    E(gamma) is zero when gamma is off the shifted lattice or singular for a
    compact root; otherwise sgn(x) times the dominant representative x.gamma.
    """
    acc: dict[Weight, int] = {}
    for gamma, c in terms:
        if len(gamma) != datum.rank:
            raise DimensionMismatch("parameter length must equal the rank")
        if datum.on_shifted_lattice(gamma):
            normalized = normalize_k_dominant(datum, gamma)
            if normalized is not None:
                sign, dom = normalized
                acc[dom] = acc.get(dom, 0) + sign * c
    return VirtualKModule(datum, acc)


def dim_virtual(module: VirtualKModule) -> int:
    """Dimension sum(coeff * WeylDim); exact and always an integer."""
    total = Fraction(0)
    for gamma, c in module.coeffs.items():
        total += c * weyl_dim_value(module.datum, gamma)
    if total.denominator != 1:
        raise ValueError(f"non-integral virtual dimension {total}")
    return int(total)


@dataclass(frozen=True)
class WeightMultiset:
    """Finite multiset of weights with positive integer multiplicities."""

    mults: Mapping[Weight, int]

    def __post_init__(self):
        object.__setattr__(self, "mults", dict(self.mults))
        if any(m <= 0 for m in self.mults.values()):
            raise ValueError("multiplicities must be positive")

    def items(self):
        return self.mults.items()


def _dominant_rep_g(datum: RootDatum, mu: Weight) -> Weight:
    """Dominant representative of mu under the full Weyl group."""
    x, _ = dominate((datum.ambient,), mu)
    return x.apply(mu)


@lru_cache(maxsize=None)
def _dominant_character(datum: RootDatum, highest: Weight) -> tuple:
    """Freudenthal multiplicities at the dominant weights of V(highest)."""
    rho = datum.rho_g
    pos = datum.positive_roots
    top_norm = dot(weight_add(highest, rho), weight_add(highest, rho))

    # Each dominant weight of V below highest is a positive root below another
    # (Stembridge, "The partial order of dominant weights", Adv. Math. 1998),
    # so positive-root steps that stay dominant find them all.
    seen = {highest}
    frontier = [highest]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in pos:
                child = weight_sub(mu, alpha)
                if child not in seen and _dominant_rep_g(datum, child) == child:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt

    # For alpha > 0 and k >= 1, mu + k alpha and its dominant representative
    # have larger |. + rho|^2 than mu, so descending order computes them first.
    dominants = sorted(seen, reverse=True,
                       key=lambda mu: dot(weight_add(mu, rho), weight_add(mu, rho)))

    mult: dict[Weight, Fraction] = {}

    def mult_of(nu: Weight) -> Fraction:
        return mult.get(_dominant_rep_g(datum, nu), Fraction(0))

    for mu in dominants:
        if mu == highest:
            mult[mu] = Fraction(1)
            continue
        mu_rho = weight_add(mu, rho)
        denom = top_norm - dot(mu_rho, mu_rho)
        acc = Fraction(0)
        for alpha in pos:
            norm2 = dot(alpha, alpha)
            k = 1
            while True:
                nu = weight_add(mu, tuple(k * a for a in alpha))
                nr = weight_add(nu, rho)
                if dot(nr, nr) > top_norm:
                    # Past the vertex of the norm parabola the bound is final.
                    if k * norm2 > -dot(mu_rho, alpha):
                        break
                else:
                    m = mult_of(nu)
                    if m:
                        acc += m * dot(nu, alpha)
                k += 1
        value = 2 * acc / denom
        if value:
            mult[mu] = value
    return tuple(sorted(mult.items()))


def weyl_orbit(datum: RootDatum, mu: Weight) -> set[Weight]:
    """Full Weyl group orbit of mu, generated by simple reflections."""
    gens = [reflection(alpha) for alpha in simple_roots(datum)]
    orbit = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for nu in frontier:
            for s in gens:
                im = s.apply(nu)
                if im not in orbit:
                    orbit.add(im)
                    nxt.append(im)
        frontier = nxt
    return orbit


def weight_multiset(highest: Weight, datum: RootDatum) -> WeightMultiset:
    """All weights of the finite-dimensional module with the given highest
    weight, with multiplicities (Freudenthal recursion, exact rationals)."""
    if len(highest) != datum.rank:
        raise DimensionMismatch("highest weight length must equal the rank")
    for alpha in datum.positive_roots:
        p = pairing(highest, alpha)
        if p < 0 or p.denominator != 1:
            raise NotDominantIntegral(
                f"<{alpha}, {highest}> = {p} is not a nonnegative integer"
            )
    dom = dict(_dominant_character(datum, tuple(highest)))
    out: dict[Weight, int] = {}
    for mu, m in dom.items():
        if m.denominator != 1:
            raise InternalInvariantError("non-integral weight multiplicity")
        for nu in weyl_orbit(datum, mu):
            out[nu] = int(m)
    total = sum(out.values())
    expected = weyl_dim_value_g(datum, weight_add(highest, datum.rho_g))
    if total != expected:
        raise InternalInvariantError(
            f"weight multiset mass {total} disagrees with Weyl dimension {expected}"
        )
    return WeightMultiset(out)


def tensor_virtual(module: VirtualKModule, delta: WeightMultiset) -> VirtualKModule:
    """Tensor by the weight multiset of a finite-dimensional module."""
    shifted = [(weight_add(gamma, mu), c * m)
               for gamma, c in module.coeffs.items() for mu, m in delta.items()]
    return k_type_sum(module.datum, shifted)


# -- exact character series on the compact torus ----------------------


def check_regular_direction(datum: RootDatum, y: Weight) -> None:
    if len(y) != datum.rank:
        raise DimensionMismatch("direction length must equal the rank")
    for alpha in datum.positive_roots:
        if dot(alpha, y) == 0:
            raise SingularDirection(f"direction is singular for root {alpha}")


def weyl_numerator_frequencies(
    datum: RootDatum, gamma: Weight, y: Weight
) -> dict[Fraction, int]:
    """Exponent frequencies of sum_{w in W_k} sgn(w) e^{(w gamma)(y) t}."""
    freqs: dict[Fraction, int] = {}
    for w in weyl_elements(datum, "k"):
        f = dot(w.apply(gamma), y)
        freqs[f] = freqs.get(f, 0) + w.sign()
    return {f: c for f, c in freqs.items() if c != 0}


def numerator_frequencies(module: VirtualKModule, y: Weight) -> dict[Fraction, int]:
    """Nonzero exponent frequencies of the module's Weyl numerator at exp(t y)."""
    freqs: dict[Fraction, int] = {}
    for gamma, c in module.coeffs.items():
        for f, m in weyl_numerator_frequencies(module.datum, gamma, y).items():
            freqs[f] = freqs.get(f, 0) + c * m
    return {f: c for f, c in freqs.items() if c}


def frequencies_to_series(freqs: Mapping[Fraction, int], order: int) -> TruncatedSeries:
    """sum c * e^{rate t} to the given order; the t^k coefficient is the
    integer moment sum c * (D rate)^k over D^k k!, D the rates' denominator."""
    den = lcm(*(Fraction(rate).denominator for rate in freqs))
    nums = [int(rate * den) for rate in freqs]
    moments = list(freqs.values())
    scale = 1
    coeffs = []
    for k in range(order + 1):
        if k:
            moments = [m * n for m, n in zip(moments, nums)]
            scale *= den * k
        coeffs.append(Fraction(sum(moments), scale))
    return TruncatedSeries(tuple(coeffs))


def weyl_denominator_factored(
    datum: RootDatum, y: Weight, which: str, order: int
) -> tuple[int, TruncatedSeries]:
    """d(exp ty) = t^r * U(t) with U(0) = prod alpha(y) != 0; returns (r, U).

    The r factors e^{a t/2} - e^{-a t/2} multiply out as one sum of
    exponentials on integer rates over the common denominator of the a/2.
    """
    if which not in ("g", "k"):
        raise ValueError("which must be 'g' or 'k'")
    roots = datum.positive_roots if which == "g" else datum.compact_positive_roots
    halves = [Fraction(dot(alpha, y), 2) for alpha in roots]
    den = lcm(*(half.denominator for half in halves))
    freqs = {0: 1}
    for half in halves:
        k = int(half * den)
        expanded = {f + k: c for f, c in freqs.items()}
        for f, c in freqs.items():
            expanded[f - k] = expanded.get(f - k, 0) - c
        freqs = {f: c for f, c in expanded.items() if c}
    r = len(roots)
    rates = {Fraction(f, den): c for f, c in freqs.items()}
    return r, frequencies_to_series(rates, order + r).shift_down(r)

