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
It runs on integer numerators over one denominator, with the chamber
kernel of `groups`, and returns integer forms and multiplicities.

Modules and multisets store their weights as integer forms (see
`groups`): `forms` maps (den, nums) to a coefficient or multiplicity, and
`VirtualKModule.coeffs` and `WeightMultiset.mults` are its `Weight` view,
built on first read.  k_type_sum tests each (gamma, c) pair against
the lattice, normalizes the pairs on it into one dictionary on integer
numerators and builds its module through the trusted constructor, since
normalization already guarantees what the public constructor checks.
Where the lattice question is decided once for many terms, the terms
skip the test: tensor_virtual tests each weight of the multiset once,
and verify_translation each family term once.  frequencies_to_series,
the one routine that turns a sum of exponentials into a series, takes
integer rates over one denominator.  It divides out a known power of t
exactly, or finds the valuation by stepping the integer moments, builds
only the coefficients it returns, as integer numerators over one
denominator, and keeps nothing.  The spin series and the Weyl numerators
form their rates from coordinate columns, one map per nonzero
coordinate.  The Weyl denominator d(exp ty) = t^r U(t) is never
multiplied out into one sum: U is built at the order asked from its r
root factors by a binomial recurrence on integers (`_weyl_denominator`),
and U(0) = prod alpha(y) takes r integer products.

What depends only on the datum is built once in a module-level cache:
the weights of V(highest) per (datum, highest), whose Freudenthal
recursion keeps no cache of its own, and the signs and per-coordinate
index maps of W_k per datum, from which each call reads the signed
W_k-orbit of y as coordinate columns.  Nothing here is kept per
direction y: U and the orbit columns are rebuilt on every call, since
few calls repeat a direction.  The dominant representative and sign of each K-type
parameter are kept per (datum, numerators), K_TYPE_CACHE_SIZE entries at
most.  A cache never keeps an exception: a wrong length or a highest
weight that is not dominant integral raises on every call.  Every call
gets new objects: a module and a multiset of its own, the multiset's dict
copied in one step from the read-only cache, and a new series.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, lcm, prod
from operator import add, itemgetter, mul
from types import MappingProxyType

from .errors import (
    DimensionMismatch,
    InternalInvariantError,
    NonIntegralCoefficient,
    NotDominantIntegral,
    SingularDirection,
)
from .groups import (
    IntWeight,
    RootDatum,
    Weight,
    _chamber_block,
    idot,
    int_add,
    int_form,
    normalize_k_dominant,
    over,
    reduced,
    reflection,
    simple_roots,
    weight_add,
    weyl_elements,
)
from .series import TruncatedSeries, _check_order
from .weylaction import _weyl_product, weyl_dim_value_g

# Entries of the K-type normalization cache: a seed-1 pass of the
# `character` benchmark normalizes 656 distinct parameters.
K_TYPE_CACHE_SIZE = 4096


class _OnForms:
    """Integers keyed by the integer forms of weights (`forms`), with the
    read-only `Weight`-keyed view built on first read."""

    __slots__ = ("forms", "_view")

    def _weights(self) -> Mapping[Weight, int]:
        if self._view is None:
            self._view = MappingProxyType({tuple(Fraction(n, den) for n in nums): c
                                           for (den, nums), c in self.forms.items()})
        return self._view


class VirtualKModule(_OnForms):
    """Finitely supported integer combination of dominant-regular parameters."""

    __slots__ = ("datum",)

    coeffs = property(_OnForms._weights)

    def __init__(self, datum: RootDatum, coeffs: Mapping[Weight, int] | None = None):
        forms: dict[IntWeight, int] = {}
        for gamma, c in (coeffs or {}).items():
            if int(c) != c:
                raise NonIntegralCoefficient(f"coefficient {c} of {gamma} is not an integer")
            c = int(c)
            if c == 0:
                continue
            form = datum.form(gamma)
            if not all(idot(form[1], a) > 0 for a in datum.compact_positive_roots):
                raise ValueError("stored parameters must be dominant regular for K")
            if not datum.on_shifted_lattice_form(form):
                raise ValueError("stored parameters must lie on the shifted lattice")
            forms[form] = c
        self.datum, self.forms, self._view = datum, forms, None

    @classmethod
    def _trusted(cls, datum: RootDatum, forms: dict[IntWeight, int]) -> "VirtualKModule":
        """Wrap nonzero coefficients on canonical forms of strictly
        k-dominant parameters of the shifted lattice, unchecked."""
        module = object.__new__(cls)
        module.datum, module.forms, module._view = datum, forms, None
        return module

    def is_zero(self) -> bool:
        return not self.forms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VirtualKModule)
            and self.datum == other.datum
            and self.forms == other.forms
        )

    def __hash__(self):
        return hash((self.datum.group, frozenset(self.forms.items())))


@lru_cache(maxsize=K_TYPE_CACHE_SIZE)
def _k_dominant(datum: RootDatum, nums: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """normalize_k_dominant on the numerators of an integer form, once per
    (datum, nums): it reads only the compact blocks, which datum equality
    compares, and a wrong length raises, uncached, on every call."""
    return normalize_k_dominant(datum, nums)


def _sum_on_lattice(datum: RootDatum, terms: Iterable[tuple[IntWeight, int]]) -> VirtualKModule:
    """sum c * E(gamma) over (form, c) pairs whose canonical forms of
    length the rank all lie on Lambda + rho_g; a signed permutation keeps a
    form canonical, so the dominant representatives need no reduction."""
    acc: dict[IntWeight, int] = {}
    get = acc.get
    for (den, nums), c in terms:
        normalized = _k_dominant(datum, nums)
        if normalized is not None:
            sign, dom = normalized
            key = den, dom
            acc[key] = get(key, 0) + sign * c
    return VirtualKModule._trusted(datum, {key: c for key, c in acc.items() if c})


def _k_type_sum(datum: RootDatum, terms: Iterable[tuple[IntWeight, int]]) -> VirtualKModule:
    """k_type_sum on canonical integer forms of length the rank: one
    lattice test per term drops those off Lambda + rho_g."""
    on_lattice = datum.on_shifted_lattice_form
    return _sum_on_lattice(datum, [(form, c) for form, c in terms if on_lattice(form)])


def k_type_sum(datum: RootDatum, terms: Iterable[tuple[Weight, int]]) -> VirtualKModule:
    """sum c * E(gamma) over the (gamma, c) pairs, collected in one dict.

    E(gamma) is zero when gamma is off the shifted lattice or singular for a
    compact root; otherwise sgn(x) times the dominant representative x.gamma.
    Each length is checked before the lattice test.
    """
    form = datum.form
    return _k_type_sum(datum, ((form(gamma), c) for gamma, c in terms))


def dim_virtual(module: VirtualKModule) -> int:
    """Dimension sum(coeff * WeylDim), exact: one root product over the
    module's integer forms, brought to one denominator.  A sum that is not
    an integer breaks an invariant (InternalInvariantError)."""
    datum = module.datum
    den = lcm(*(form[0] for form in module.forms))
    total = _weyl_product(datum.compact_positive_roots, datum.rho_k_form, den,
                          [(over(form, den), c) for form, c in module.forms.items()])
    if total.denominator != 1:
        raise InternalInvariantError(f"non-integral virtual dimension {total}")
    return int(total)


class WeightMultiset(_OnForms):
    """Finite multiset of weights with positive integer multiplicities,
    given as {Weight: mult} or, by the kernels, as {integer form: mult}."""

    __slots__ = ()

    mults = property(_OnForms._weights)

    def __init__(self, mults: Mapping[Weight, int] | None = None, *,
                 forms: Mapping[IntWeight, int] | None = None):
        if forms is None:
            forms = {}
            for w, m in (mults or {}).items():
                if int(m) != m:
                    raise NonIntegralCoefficient(f"multiplicity {m} of {w} is not an integer")
                forms[int_form(w)] = int(m)
        # dict() reads a read-only cache key by key; its copy() is the
        # wrapped dict's, in one step.
        self.forms = forms.copy() if isinstance(forms, MappingProxyType) else dict(forms)
        self._view = None
        if min(self.forms.values(), default=1) <= 0:
            raise ValueError("multiplicities must be positive")


def _dominant_rep_g(datum: RootDatum, mu: tuple[int, ...]) -> tuple[int, ...]:
    """Dominant representative of integer numerators under the full Weyl
    group."""
    return tuple(_chamber_block(datum.ambient.kind, mu)[1])


def _dominant_character(datum: RootDatum, highest: Weight) -> dict[IntWeight, int]:
    """Freudenthal multiplicities at the dominant weights of V(highest), on
    their integer forms, in ascending order of the weights.

    Runs on the numerators of highest and rho_g over their common
    denominator D, with the roots scaled by D too, so every norm and
    pairing is D^2 times the true one.  A multiplicity that is not an
    integer raises InternalInvariantError where it arises."""
    form = int_form(highest)
    den = lcm(form[0], datum.rho_g_form[0])
    top, rho = over(form, den), over(datum.rho_g_form, den)
    pos = [tuple(den * c for c in alpha) for alpha in datum.positive_roots]

    def norm(mu):
        shifted = [m + r for m, r in zip(mu, rho)]
        return idot(shifted, shifted)

    top_norm = norm(top)

    # Each dominant weight of V below highest is a positive root below another
    # (Stembridge, "The partial order of dominant weights", Adv. Math. 1998),
    # so positive-root steps that stay dominant find them all.
    seen = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in pos:
                child = tuple(m - a for m, a in zip(mu, alpha))
                if child not in seen and _dominant_rep_g(datum, child) == child:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt

    # For alpha > 0 and k >= 1, mu + k alpha and its dominant representative
    # have larger |. + rho|^2 than mu, so descending order computes them first.
    dominants = sorted(seen, key=norm, reverse=True)

    mult: dict[tuple[int, ...], int] = {}

    def mult_of(nu):
        return mult.get(_dominant_rep_g(datum, nu), 0)

    for mu in dominants:
        if mu == top:
            mult[mu] = 1
            continue
        mu_rho = [m + r for m, r in zip(mu, rho)]
        mu_norm = idot(mu_rho, mu_rho)
        acc = 0
        for alpha in pos:
            norm2 = idot(alpha, alpha)
            mu_alpha = idot(mu_rho, alpha)
            k = 1
            while True:
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                if mu_norm + 2 * k * mu_alpha + k * k * norm2 > top_norm:
                    # Past the vertex of the norm parabola the bound is final.
                    if k * norm2 > -mu_alpha:
                        break
                else:
                    m = mult_of(nu)
                    if m:
                        acc += m * idot(nu, alpha)
                k += 1
        # 2 sum m (nu, alpha) / (|highest + rho|^2 - |mu + rho|^2): D^2 cancels
        value, rest = divmod(2 * acc, top_norm - mu_norm)
        if rest:
            raise InternalInvariantError("non-integral weight multiplicity")
        if value:
            mult[mu] = value
    return {reduced(den, mu): mult[mu] for mu in sorted(mult)}


def weyl_orbit(datum: RootDatum, mu: Weight) -> set[Weight]:
    """Full Weyl group orbit of mu, generated by simple reflections; mu may
    also be the numerators of an integer form."""
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


@lru_cache(maxsize=None)
def _weight_forms(datum: RootDatum, highest: Weight) -> Mapping[IntWeight, int]:
    """The weights of V(highest) with their multiplicities, on integer
    forms: the W-orbits of the dominant weights, checked integral and
    against the Weyl dimension; read-only.  A highest weight that is not
    dominant integral raises NotDominantIntegral, uncached, on every call."""
    den, top = int_form(highest)
    for alpha in datum.positive_roots:
        # <alpha^vee, highest> = 2 (top, alpha) / (den (alpha, alpha))
        twice, scale = 2 * idot(top, alpha), den * idot(alpha, alpha)
        if twice < 0 or twice % scale:
            raise NotDominantIntegral(
                f"<{alpha}, {highest}> = {Fraction(twice, scale)} is not a nonnegative integer"
            )
    forms: dict[IntWeight, int] = {}
    for (mu_den, mu), m in _dominant_character(datum, highest).items():
        for nu in weyl_orbit(datum, mu):
            forms[mu_den, nu] = m
    total = sum(forms.values())
    expected = weyl_dim_value_g(datum, weight_add(highest, datum.rho_g))
    if total != expected:
        raise InternalInvariantError(
            f"weight multiset mass {total} disagrees with Weyl dimension {expected}"
        )
    return MappingProxyType(forms)


def weight_multiset(highest: Weight, datum: RootDatum) -> WeightMultiset:
    """All weights of the finite-dimensional module with the given highest
    weight, with multiplicities (Freudenthal recursion, exact rationals).
    The weights are built once per (datum, highest), and each call gets a
    new multiset."""
    datum.form(highest)  # checks the length
    return WeightMultiset(forms=_weight_forms(datum, tuple(highest)))


def tensor_virtual(module: VirtualKModule, delta: WeightMultiset) -> VirtualKModule:
    """Tensor by the weight multiset of a finite-dimensional module.

    The module's parameters lie on Lambda + rho_g, and Lambda is a group,
    so gamma + mu lies on it exactly when mu lies in Lambda: one test per
    weight of delta decides every term, and the weights off Lambda drop
    out."""
    datum = module.datum
    rank, lattice = datum.rank, datum.lattice
    weights = []
    for mu, m in delta.forms.items():
        # int_add checks the length of a kept weight only.
        if len(mu[1]) != rank:
            raise DimensionMismatch(f"weight length {len(mu[1])} != rank {rank}")
        if lattice(*mu):
            weights.append((mu, m))
    return _sum_on_lattice(datum, [(int_add(gamma, mu), c * m)
                                   for gamma, c in module.forms.items() for mu, m in weights])


# -- exact character series on the compact torus ----------------------


def _check_regular(datum: RootDatum, y: IntWeight) -> None:
    """Raise SingularDirection when a positive root vanishes on y, given by
    its integer form."""
    for alpha in datum.positive_roots:
        if idot(alpha, y[1]) == 0:
            raise SingularDirection(f"direction is singular for root {alpha}")


@lru_cache(maxsize=None)
def _signed_k_getters(datum: RootDatum) -> tuple[tuple[int, ...], tuple[itemgetter, ...]]:
    """(signs, gets), once per datum: sgn w over W_k, and per coordinate i
    a getter with gets[i](y + (-y)) = ((w y)_i over W_k), in the order of
    signs.  (w y)_i = signs[i] y[perm[i]] is entry perm[i] of y followed
    by -y, or entry perm[i] + rank when signs[i] = -1."""
    rank = datum.rank
    elements = weyl_elements(datum, "k")
    picks = [[p if s > 0 else p + rank for p, s in zip(w.perm, w.signs)] for w in elements]
    # itemgetter of one index returns the entry, not a 1-tuple
    gets = tuple(
        itemgetter(*column) if len(elements) > 1 else itemgetter(slice(column[0], column[0] + 1))
        for column in zip(*picks))
    return tuple(w.sign() for w in elements), gets


def _column_rates(coords: Iterable[int], columns: tuple[tuple[int, ...], ...], size: int):
    """sum_i coords[i] * columns[i], entrywise, as an iterator of size
    integers: one map per nonzero coordinate."""
    rates = None
    for c, column in zip(coords, columns):
        if c:
            term = map(mul, column, repeat(c))
            rates = term if rates is None else map(add, rates, term)
    return repeat(0, size) if rates is None else rates


def _numerator_frequencies(module: VirtualKModule, y: IntWeight) -> tuple[int, dict[int, int]]:
    """(D, freqs): the Weyl numerator sum_gamma c_gamma sum_{w in W_k}
    sgn(w) e^{(w gamma)(y) t} of the module at exp(t y), y given by its
    integer form, is sum freqs[f] e^{(f / D) t}, over its nonzero
    frequencies.

    (w gamma)(y) = gamma(w^-1 y), so the signed W_k-orbit of y is read
    off the getters of the datum as coordinate columns, column i the
    entries (w y)_i in the order of the signs: each K-type's rates take
    one map per nonzero coordinate."""
    datum = module.datum
    y_den, y_nums = y
    signs, gets = _signed_k_getters(datum)
    both = y_nums + tuple(-c for c in y_nums)
    columns = tuple(get(both) for get in gets)
    size = len(signs)
    den = y_den * lcm(*(form[0] for form in module.forms))
    freqs: dict[int, int] = {}
    get = freqs.get
    for (gamma_den, gamma), c in module.forms.items():
        scale = den // (gamma_den * y_den)
        if scale != 1:
            gamma = [g * scale for g in gamma]
        for f, sign in zip(_column_rates(gamma, columns, size), signs):
            freqs[f] = get(f, 0) + sign * c
    return den, {f: c for f, c in freqs.items() if c}


def frequencies_to_series(
    freqs: Mapping[int, int], den: int, order: int, start: int | None = 0
) -> tuple[int, TruncatedSeries]:
    """(v, S) with sum c * e^{(f / den) t} = t^v * S(t) over the pairs (f, c)
    of freqs, and S to the given order, as integer numerators over one
    denominator; nothing is kept.

    The t^k coefficient of the sum is the integer moment M_k = sum c f^k
    over den^k k!.  With an integer start, v is start and the moments
    below it must vanish (ValueError otherwise).  With start None, v is
    the valuation: the first nonzero moment, which a sum of n
    exponentials with distinct rates and nonzero coefficients has among
    its first n (Vandermonde).  Only the moments 0 .. v + order are built,
    and M_(v+j) / (den^(v+j) (v+j)!) is M_(v+j) den^(N-j) (v+N)! / (v+j)!
    over den^(v+N) (v+N)!.
    """
    _check_order(order)
    rates, powers = list(freqs), list(freqs.values())
    v, total = 0, sum(powers)
    while not (total if start is None else v >= start):
        if total:
            raise ValueError(f"sum of exponentials is not divisible by t^{start}")
        if start is None and v + 1 >= len(rates):
            raise InternalInvariantError(
                f"no nonzero moment among the first {len(rates)} of a sum of exponentials"
            )
        v += 1
        powers = [p * f for p, f in zip(powers, rates)]
        total = sum(powers)
    moments = [total]  # M_v .. M_(v+order)
    for _ in range(order):
        powers = [p * f for p, f in zip(powers, rates)]
        moments.append(sum(powers))
    nums, mult = [0] * (order + 1), 1
    for j in range(order, -1, -1):
        nums[j] = moments[j] * mult
        if j:
            mult *= den * (v + j)
    # mult is now den^N (v+N)! / v!
    return v, TruncatedSeries._from_ints(tuple(nums), mult * den**v * factorial(v))


@lru_cache(maxsize=None)
def _binomials(n: int, e: int) -> tuple[int, ...]:
    """C(n, e), C(n, e + 2), C(n, e + 4), ...: entry i is C(n, e + 2i)."""
    return tuple(comb(n, i) for i in range(e, n + 1, 2))


def _factor_coefficients(factor: list[int], top: int) -> tuple[int, list[int]]:
    """(e, [c_0 .. c_top]): sinh(k s) for factor [k], or sinh(a s) sinh(b s)
    = (cosh((a+b) s) - cosh((a-b) s)) / 2 for factor [a, b], is
    sum_i c_i s^(e+2i) / (e+2i)! with c_i = k^(2i+1), or
    c_i = ((a+b)^(2i+2) - (a-b)^(2i+2)) / 2."""
    if len(factor) == 1:
        (k,) = factor
        coeffs, square = [k], k * k
        for _ in range(top):
            coeffs.append(coeffs[-1] * square)
        return 1, coeffs
    a, b = factor
    p, q = (a + b) ** 2, (a - b) ** 2
    x, y, coeffs = p, q, []
    for _ in range(top + 1):
        coeffs.append((x - y) // 2)
        x, y = x * p, y * q
    return 2, coeffs


def _weyl_denominator(datum: RootDatum, y: IntWeight, which: str, order: int) -> TruncatedSeries:
    """U to the given order, where d(exp ty) = t^v U(t) over the v positive
    roots of g or k: the product of the root factors e^{k t / 2D} -
    e^{-k t / 2D} on the integer rates k = (alpha, y_nums) over D = y_den.

    With s = t / 2D a factor is 2 sinh(k s), so U is even in t, and below
    order 2 it is U(0) = prod k / D^v, which takes v integer products.
    Above that the factors are taken two at a time, one left over when v
    is odd (see `_factor_coefficients`).  If those so far, of degree m in
    s, multiply to sum_j N_j s^(m+2j) / (m+2j)!, starting from the empty
    product N = [1, 0, ..., 0], one more factor of degree e gives the
    integers

        N'_j = sum_(i <= j) C(m + e + 2j, e + 2i) c_i N_(j-i),

    and with the 2^v of the factors the t^2j coefficient of U is
    N_j / ((v + 2j)! 4^j D^(v+2j)), that is N_j (4 D^2)^(J-j) (v+2J)! /
    (v+2j)! over (v+2J)! 4^J D^(v+2J); a zero rate zeroes every row from
    its factor on."""
    y_den, y_nums = y
    roots = datum.positive_roots if which == "g" else datum.compact_positive_roots
    rates = [idot(alpha, y_nums) for alpha in roots]
    v = len(rates)
    if order < 2:
        return TruncatedSeries._from_ints((prod(rates),) + (0,) * order, y_den**v)
    top = order // 2
    row, m = [1] + [0] * top, 0
    for factor in (rates[i:i + 2] for i in range(0, v, 2)):
        e, coeffs = _factor_coefficients(factor, top)
        m += e
        row = [sum(map(mul, row[j::-1], map(mul, _binomials(m + 2 * j, e), coeffs)))
               for j in range(top + 1)]
    square = 4 * y_den**2
    nums, mult = [0] * (order + 1), 1
    for j in range(top, -1, -1):
        nums[2 * j] = row[j] * mult
        if j:
            mult *= square * (v + 2 * j) * (v + 2 * j - 1)
    return TruncatedSeries._from_ints(tuple(nums), mult * factorial(v) * y_den**v)


def weyl_denominator_factored(
    datum: RootDatum, y: Weight, which: str, order: int
) -> tuple[int, TruncatedSeries]:
    """d(exp ty) = t^r * U(t) with U(0) = prod alpha(y) != 0; returns (r, U).

    U is built from the r root factors of d, not from their product
    multiplied out, on every call."""
    _check_order(order)
    if which not in ("g", "k"):
        raise ValueError("which must be 'g' or 'k'")
    u = _weyl_denominator(datum, datum.form(y), which, order)
    return datum.r_g if which == "g" else datum.r_k, u
