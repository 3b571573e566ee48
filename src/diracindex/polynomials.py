"""Exact multivariate polynomials over Q.

A `MultiPoly` stores its value in one form, the integer numerator num / den:
den > 0 is coprime to the content of num, a `dict[int, int]` on packed
exponent keys, variable i in bits [i*w, (i+1)*w) with w the bit length of
the total degree (at least 1).  No exponent sum of a term reaches 2^w, so
adding keys never carries between fields.  `terms` is a read-only view,
{exponent tuple: nonzero Fraction}, built on first read and cached;
`MultiPoly(arity, terms)` validates its Fraction terms, packs them at once
and keeps them as that view.  The form is unique, so `==` and the hash
compare (den, width, num) whichever way a value was built.  Every ring
operation, product of linear forms, the SU(n,1) determinant, index
polynomials, restrictions and quotients work on packed keys, without a
`Fraction` per term, and normalize through `MultiPoly._from_ints`, which
may keep the dict it is given: no kernel changes a `_num` dict in place.
Terms serialize in graded-lex order: ascending total degree, then
descending lexicographic on the exponent tuple, so X1 - X2 prints its X1
term first.

`linear_form_product` scales each form to a primitive integer form and
expands their product on packed keys, rows in order of their last nonzero
variable, which keeps the partial products in the fewest variables for
longest.  Restriction, divisibility, exact division and factor extraction
share one Horner pass on P = N / D.  Write a form as L = c * L' with
L' = a X_j + sum_{i > j} a_i X_i primitive, X_j its pivot and a > 0, split
N = sum_d N_d X_j^d and set

    H'_top = N_top,   H'_d = a^(top-d) N_d - (sum_{i > j} a_i X_i) H'_{d+1}

down to d = 0, on packed keys with the pivot field at zero: multiplying
by X_i adds 1 << (i*w).  H'_d is a^(top-d) D times the rational Horner
layer of the substitution X_j = -sum (a_i / a) X_i, so H'_0 / (a^top D),
its pivot field dropped by shifts and masks, is the restriction to L = 0,
and L divides P exactly when H'_0 is empty.  Then N = L' * Q with Q
integral (Gauss's lemma), the X_j^d layer of Q is H'_{d+1} // a^(top-d)
and P / L = Q / (c D).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from operator import lshift
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, ZeroForm
from .groups import RootDatum, Weight

Exponent = tuple[int, ...]
IntTerms = dict[int, int]


def _gl_key(exp: Exponent):
    return (sum(exp), tuple(-e for e in exp))


def _degree(arity: int, width: int, num: Iterable[int]) -> int:
    """Total degree of nonempty packed keys: field arity - 1 of key * ones
    is the sum of every field of key, which fits a field."""
    mask = (1 << width) - 1
    ones = ((1 << (width * arity)) - 1) // mask
    shift = width * max(arity - 1, 0)
    return max((key * ones >> shift) & mask for key in num)


def _repack(arity: int, width: int, new: int, num: IntTerms) -> IntTerms:
    """num with its keys moved from fields of the given width to fields of
    width new; num itself when the widths agree."""
    if new == width:
        return num
    mask = (1 << width) - 1
    pairs = [(width * i, new * i) for i in range(arity)]
    return {sum((key >> s & mask) << t for s, t in pairs): c for key, c in num.items()}


class MultiPoly:
    __slots__ = ("arity", "_terms", "_den", "_width", "_num")

    def __init__(self, arity: int, terms: dict[Exponent, Fraction] | None = None):
        self.arity = int(arity)
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            if len(exp) != self.arity:
                raise DimensionMismatch(
                    f"exponent {exp} has arity {len(exp)}, expected {self.arity}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(int(e) for e in exp)] = c
        # the validated dict is the view; the integer form is what is stored
        self._terms = MappingProxyType(clean)
        self._den = den = math.lcm(*(c.denominator for c in clean.values()))
        self._width = width = max(1, max(map(sum, clean), default=0)).bit_length()
        shifts = range(0, self.arity * width, width)
        self._num = {
            sum(map(lshift, exp, shifts)): c.numerator * (den // c.denominator)
            for exp, c in clean.items()
        }

    @classmethod
    def _packed(cls, arity: int, den: int, width: int, num: IntTerms) -> "MultiPoly":
        """Wrap an integer form that is already normalized (module docstring)."""
        poly = object.__new__(cls)
        poly.arity, poly._terms = arity, None
        poly._den, poly._width, poly._num = den, width, num
        return poly

    @classmethod
    def _from_ints(cls, arity, width, num, scale=Fraction(1), degree=None) -> "MultiPoly":
        """scale * num, for nonzero values on keys of a width that fits the
        total degree (computed unless given); normalizes width and scale.
        The result may keep num itself (module docstring)."""
        if not num:
            return cls._packed(arity, 1, 1, {})
        new = max(_degree(arity, width, num) if degree is None else degree, 1).bit_length()
        num = _repack(arity, width, new, num)
        p, q = scale.numerator, scale.denominator
        g = math.gcd(q, *num.values()) if q != 1 else 1
        if g != 1 or p != 1:
            num = {key: c // g * p for key, c in num.items()}
        return cls._packed(arity, q // g, new, num)

    # -- the stored form and its view ------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only {exponent tuple: nonzero Fraction}."""
        if self._terms is None:
            width, den = self._width, self._den
            mask, shifts = (1 << width) - 1, range(0, self.arity * width, width)
            # one Fraction per distinct value, shared by the terms
            value = {c: Fraction(c, den) for c in set(self._num.values())}
            self._terms = MappingProxyType({
                tuple([key >> s & mask for s in shifts]): value[c]
                for key, c in self._num.items()
            })
        return self._terms

    def _int_form(self) -> tuple[int, int, IntTerms]:
        """(den, width, num) of the integer form; read-only."""
        return self._den, self._width, self._num

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: Fraction(value)})

    @classmethod
    def variable(cls, arity: int, i: int) -> "MultiPoly":
        return cls(arity, {tuple(int(k == i) for k in range(arity)): Fraction(1)})

    @classmethod
    def from_linear(cls, coeffs: Sequence) -> "MultiPoly":
        n = len(coeffs)
        return cls(n, {tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coeffs)})

    # -- ring operations, on packed keys ----------------------------------

    def _check(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise DimensionMismatch(f"arity {self.arity} != {other.arity}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        self._check(other)
        width, den = max(self._width, other._width), math.lcm(self._den, other._den)
        out = {}
        for poly in (self, other):
            k = den // poly._den
            for key, c in _repack(self.arity, poly._width, width, poly._num).items():
                out[key] = out.get(key, 0) + c * k
        out = {key: c for key, c in out.items() if c}
        return MultiPoly._from_ints(self.arity, width, out, Fraction(1, den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        num = {key: -c for key, c in self._num.items()}
        return MultiPoly._packed(self.arity, self._den, self._width, num)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = Fraction(other)
            if not scalar:
                return MultiPoly.zero(self.arity)
            return MultiPoly._from_ints(self.arity, self._width, self._num, scalar / self._den)
        self._check(other)
        # each factor's degree is below 2^w for its width w, so their sum
        # fits one bit more than the wider field
        width = max(self._width, other._width) + 1
        right = _repack(self.arity, other._width, width, other._num).items()
        out: IntTerms = {}
        for k1, c1 in _repack(self.arity, self._width, width, self._num).items():
            for k2, c2 in right:
                key = k1 + k2
                out[key] = out.get(key, 0) + c1 * c2
        out = {key: c for key, c in out.items() if c}
        return MultiPoly._from_ints(self.arity, width, out, Fraction(1, self._den * other._den))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly) or self.arity != other.arity:
            return False
        return self._int_form() == other._int_form()

    def __hash__(self):
        return hash((self.arity, self._den, frozenset(self._num.items())))

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        return _degree(self.arity, self._width, self._num) if self._num else -1

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lex order, as `_gl_key` sorts them: exponents
        descending, then a stable sort by degree."""
        terms = self.terms
        exps = sorted(terms, reverse=True)
        exps.sort(key=sum)
        return [(e, terms[e]) for e in exps]

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.arity:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.arity}"
            )
        pt = [Fraction(x) for x in point]
        return sum(
            (c * math.prod(x**e for x, e in zip(pt, exp) if e) for exp, c in self.terms.items()),
            Fraction(0),
        )

    def derivative(self, i: int, k: int = 1) -> "MultiPoly":
        """The k-th partial derivative in X_i."""
        if not 0 <= i < self.arity:
            raise IndexError(f"variable {i} out of range for arity {self.arity}")
        shift, mask = i * self._width, (1 << self._width) - 1
        # Lowering field i is injective on the surviving terms: no merging.
        out: IntTerms = {}
        for key, c in self._num.items():
            e = key >> shift & mask
            if e >= k:
                out[key - (k << shift)] = c * math.perm(e, k)
        return MultiPoly._from_ints(self.arity, self._width, out, Fraction(1, self._den))

    def __repr__(self):
        if self.is_zero():
            return "MultiPoly(0)"
        bits = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(
                f"X{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form sum c_i X_i."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )
        if all(c == 0 for c in self.coeffs):
            raise ZeroForm("linear form is identically zero")

    @classmethod
    def from_weight(cls, w: Weight) -> "LinearForm":
        return cls(tuple(w))

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def pivot(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise ZeroForm("linear form is identically zero")

    def to_poly(self) -> MultiPoly:
        return MultiPoly.from_linear(self.coeffs)

    def _content(self) -> tuple[Fraction, list[int]]:
        """(c, ints) with gcd(ints) = 1, ints positive at the pivot and
        this form = c * sum ints_i X_i."""
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (lcm // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints)
        if ints[self.pivot()] < 0:
            g = -g
        return Fraction(g, lcm), [k // g for k in ints]

    def primitive(self) -> "LinearForm":
        """Divide by the coefficient content and make the pivot positive."""
        return LinearForm(tuple(self._content()[1]))


def _packed_product(
    packed: IntTerms, rows: Iterable[Sequence[int]], width: int
) -> IntTerms:
    """packed times the integer forms sum_i row_i X_i, on keys packed with
    fields of the given width, rows taken in order of their last nonzero
    variable (module docstring).  Every row is nonzero."""
    for row in sorted(rows, key=lambda row: max(i for i, k in enumerate(row) if k)):
        (step, k), *rest = [(1 << (width * i), k) for i, k in enumerate(row) if k]
        # One step maps distinct keys to distinct keys: no merging.
        out = {key + step: c * k for key, c in packed.items()}
        for step, k in rest:
            for key, c in packed.items():
                key += step
                out[key] = out.get(key, 0) + c * k
        packed = {key: c for key, c in out.items() if c}
    return packed


def linear_form_product(arity: int, forms: Iterable[LinearForm]) -> MultiPoly:
    """Expanded product of linear forms, in the integer form (module
    docstring); the empty product is the constant 1."""
    forms = list(forms)
    content = Fraction(1)
    rows = []
    for form in forms:
        if form.arity != arity:
            raise DimensionMismatch("form arity mismatch")
        scale, ints = form._content()
        content *= scale
        rows.append(ints)
    width = max(len(forms), 1).bit_length()
    product = _packed_product({0: 1}, rows, width)
    return MultiPoly._from_ints(arity, width, product, content, len(forms))


class _Pivot:
    """A form L = c * L', split for the integer Horner pass: the pivot index
    j, the pivot coefficient a > 0 of the primitive L', and the pairs
    (i, -a_i) for the variables X_i, i > j, of L'."""

    __slots__ = ("content", "j", "a", "steps")

    def __init__(self, arity: int, form: LinearForm):
        if arity != form.arity:
            raise DimensionMismatch("polynomial and form arities differ")
        self.content, ints = form._content()
        self.j = j = form.pivot()
        self.a = ints[j]
        # every a_i with i < j is zero
        self.steps = [(i, -c) for i, c in enumerate(ints[j + 1 :], j + 1) if c]

    def horner(self, width: int, num: IntTerms) -> list[IntTerms]:
        """[H'_0, ..., H'_top] of the integer Horner pass (module docstring)
        on keys of the given width; only H'_0 is cleared of zero values."""
        shift, mask, a = self.j * width, (1 << width) - 1, self.a
        steps = [(1 << (i * width), s) for i, s in self.steps]
        layers: dict[int, IntTerms] = defaultdict(dict)
        for key, c in num.items():
            d = key >> shift & mask
            layers[d][key - (d << shift)] = c
        top = max(layers, default=0)
        hs = [layers.pop(top, {})]
        for d in range(top - 1, -1, -1):
            acc = layers.pop(d, {})
            if a != 1:
                power = a ** (top - d)
                acc = {key: c * power for key, c in acc.items()}
            for step, s in steps:
                for key, c in hs[-1].items():
                    key += step
                    acc[key] = acc.get(key, 0) + c * s
            hs.append(acc)
        hs[-1] = {key: c for key, c in hs[-1].items() if c}
        hs.reverse()
        return hs

    def quotient(self, width: int, hs: list[IntTerms]) -> IntTerms:
        """The integer numerator Q = N / L' from the layers hs[1:]."""
        unit, top = 1 << (self.j * width), len(hs) - 1
        powers = [self.a ** (top - d) for d in range(top)]
        return {
            key + d * unit: c // powers[d]
            for d, layer in enumerate(hs[1:])
            for key, c in layer.items()
            if c
        }


def restrict_to_hyperplane(poly: MultiPoly, form: LinearForm) -> MultiPoly:
    """Substitute X_j = -sum_{i != j} (c_i / c_j) X_i for the pivot X_j of
    form; the other variables are renumbered in order (arity one less)."""
    pivot = _Pivot(poly.arity, form)
    den, width, num = poly._int_form()
    hs = pivot.horner(width, num)
    low, high = (1 << (pivot.j * width)) - 1, (pivot.j + 1) * width
    rest = {key & low | key >> high << (high - width): c for key, c in hs[0].items()}
    scale = Fraction(1, pivot.a ** (len(hs) - 1) * den)
    return MultiPoly._from_ints(poly.arity - 1, width, rest, scale)


def divides_linear_form(poly: MultiPoly, form: LinearForm) -> bool:
    """True iff the linear form divides the polynomial exactly."""
    _, width, num = poly._int_form()
    return not _Pivot(poly.arity, form).horner(width, num)[0]


def extract_linear_factors(
    poly: MultiPoly, candidates: Sequence[LinearForm]
) -> tuple[list[tuple[LinearForm, int]], MultiPoly]:
    """Peel off every candidate linear factor, with multiplicity.

    Returns the factor list and the remaining cofactor.  Candidates are
    processed in the given order; the result is independent of the order
    because Q[X] is a UFD and the candidates are pairwise non-proportional
    in every use here.  Each attempt is one integer Horner pass on the
    packed numerator; the cofactor is normalized once, at the end.
    """
    factors: list[tuple[LinearForm, int]] = []
    den, width, num = poly._int_form()
    scale = Fraction(1, den)
    for form in candidates:
        pivot = _Pivot(poly.arity, form)
        mult = 0
        while num:
            hs = pivot.horner(width, num)
            if hs[0]:
                break
            num = pivot.quotient(width, hs)
            scale /= pivot.content
            mult += 1
        if mult:
            factors.append((form, mult))
    return factors, MultiPoly._from_ints(poly.arity, width, num, scale)


def poly_det(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square matrix of polynomials by Laplace expansion.

    Memoized on column subsets, which keeps the n <= 8 cases cheap.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    arity = matrix[0][0].arity
    cache: dict[tuple[int, ...], MultiPoly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> MultiPoly:
        if not cols:
            return MultiPoly.const(arity, 1)
        if cols in cache:
            return cache[cols]
        total = MultiPoly.zero(arity)
        for pos, c in enumerate(cols):
            entry = matrix[row][c]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            total = total + (term if pos % 2 == 0 else -term)
        cache[cols] = total
        return total

    return minor(0, tuple(range(n)))


def invariant_operator_images(poly: MultiPoly, datum: RootDatum) -> list[MultiPoly]:
    """Apply generators of the W-invariant constant-coefficient operators.

    Type A on r coordinates uses the power sums p_1(d), ..., p_r(d);
    types B/C use p_2(d), p_4(d), ..., p_{2r}(d); type D uses
    p_2(d), ..., p_{2r-2}(d) together with d_1 d_2 ... d_r.
    """
    if poly.arity != datum.rank:
        raise DimensionMismatch("polynomial arity must equal the rank")
    r, kind = datum.rank, datum.ambient.kind
    if kind == "A":
        degrees = range(1, r + 1)
    else:
        degrees = range(2, 2 * r - 1 if kind == "D" else 2 * r + 1, 2)
    zero = MultiPoly.zero(r)
    images = [sum((poly.derivative(i, k) for i in range(r)), zero) for k in degrees]
    if kind == "D":
        images.append(reduce(MultiPoly.derivative, range(r), poly))
    return images


def is_harmonic(poly: MultiPoly, datum: RootDatum) -> bool:
    """True iff every invariant operator without constant term kills poly."""
    return all(img.is_zero() for img in invariant_operator_images(poly, datum))
