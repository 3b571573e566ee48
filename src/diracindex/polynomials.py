"""Exact multivariate polynomials over Q.

Terms are stored sparsely as {exponent tuple: nonzero Fraction}.  The
serialization order is graded lexicographic: ascending total degree,
then descending lexicographic on the exponent tuple, so X1 - X2 prints
its X1 term first.  No floating point enters anywhere.

`MultiPoly(arity, terms)` validates and normalizes every term; it is the
constructor for data from outside the package.  Kernel results (sums,
negations, products, derivatives, Weyl translates, restrictions and
quotients) go through the private `MultiPoly._trusted`, which stores a
dict the kernel has already built with int-tuple exponents of the right
arity and nonzero `Fraction` values.

`linear_form_product` never multiplies `MultiPoly`s.  It scales each form
to a primitive integer form, multiplies the rational contents into one
`Fraction`, and expands the integer product in a `dict[int, int]` whose
keys pack the exponent vector into fixed-width bit fields (variable i in
bits [i*w, (i+1)*w) with w = len(forms).bit_length(), wide enough for
any exponent of the product, so adding keys never carries between
fields).  The result is unpacked and scaled by the content once.

Hyperplane restriction, divisibility, exact division and factor
extraction share one Horner pass.  For a form L = sum c_i X_i with pivot
X_j (its first nonzero coefficient), write P = sum_d P_d X_j^d and
S = -sum_{i != j} (c_i / c_j) X_i; set H_top = P_top and
H_d = P_d + S * H_{d+1} down to d = 0.  H_0 = P(X_j = S) is the
restriction to L = 0, zero exactly when L divides P, and H_{d+1} / c_j is
the X_j^d layer of P / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ZeroForm
from .groups import RootDatum, Weight

Exponent = tuple[int, ...]
Terms = dict[Exponent, Fraction]


def _gl_key(exp: Exponent):
    return (sum(exp), tuple(-e for e in exp))


class MultiPoly:
    __slots__ = ("arity", "terms")

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
        self.terms = clean

    @classmethod
    def _trusted(cls, arity: int, terms: dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap a kernel-built dict without validating it.

        The caller guarantees int-tuple exponents of length arity and
        nonzero Fraction values; the dict is stored, not copied.
        """
        poly = object.__new__(cls)
        poly.arity = arity
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: Fraction(value)})

    @classmethod
    def variable(cls, arity: int, i: int) -> "MultiPoly":
        exp = [0] * arity
        exp[i] = 1
        return cls(arity, {tuple(exp): Fraction(1)})

    @classmethod
    def from_linear(cls, coeffs: Sequence) -> "MultiPoly":
        arity = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c != 0:
                exp = [0] * arity
                exp[i] = 1
                terms[tuple(exp)] = c
        return cls(arity, terms)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise DimensionMismatch(f"arity {self.arity} != {other.arity}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            total = terms.get(exp, 0) + c
            if total:
                terms[exp] = total
            else:
                del terms[exp]
        return MultiPoly._trusted(self.arity, terms)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        return self + (-other)

    def __neg__(self):
        return MultiPoly._trusted(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = Fraction(other)
            if not scalar:
                return MultiPoly.zero(self.arity)
            return MultiPoly._trusted(
                self.arity, {e: c * scalar for e, c in self.terms.items()}
            )
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return MultiPoly._trusted(self.arity, {e: c for e, c in out.items() if c})

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
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _gl_key(t[0]))

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.arity:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.arity}"
            )
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            val = coeff
            for x, e in zip(pt, exp):
                if e:
                    val *= x**e
            total += val
        return total

    def derivative(self, i: int) -> "MultiPoly":
        # Lowering exp[i] is injective on the surviving terms: no merging.
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = coeff * exp[i]
        return MultiPoly._trusted(self.arity, out)

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
        """(c, ints) with gcd(ints) = 1 and this form = c * sum ints_i X_i."""
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (lcm // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints)
        return Fraction(g, lcm), [k // g for k in ints]

    def primitive(self) -> "LinearForm":
        """Divide by the coefficient content and make the pivot positive."""
        _, ints = self._content()
        if ints[self.pivot()] < 0:
            ints = [-k for k in ints]
        return LinearForm(tuple(ints))

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.arity:
            raise DimensionMismatch("point arity mismatch")
        return sum(
            (c * Fraction(x) for c, x in zip(self.coeffs, point)), Fraction(0)
        )


def linear_form_product(arity: int, forms: Iterable[LinearForm]) -> MultiPoly:
    """Expanded product of linear forms; the empty product is the constant 1.

    The integer product runs on packed exponent keys (see the module
    docstring); only the final terms become tuples and Fractions.
    """
    forms = list(forms)
    width = len(forms).bit_length()
    content = Fraction(1)
    packed: dict[int, int] = {0: 1}
    for form in forms:
        if form.arity != arity:
            raise DimensionMismatch("form arity mismatch")
        scale, ints = form._content()
        content *= scale
        steps = [(1 << (width * i), k) for i, k in enumerate(ints) if k]
        out: dict[int, int] = {}
        for key, coeff in packed.items():
            for step, k in steps:
                out[key + step] = out.get(key + step, 0) + coeff * k
        packed = {key: c for key, c in out.items() if c}
    mask = (1 << width) - 1
    shifts = [width * i for i in range(arity)]
    return MultiPoly._trusted(
        arity,
        {
            tuple((key >> s) & mask for s in shifts): content * c
            for key, c in packed.items()
        },
    )


def _horner(poly: MultiPoly, form: LinearForm) -> list[Terms]:
    """[H_0, ..., H_top] of the Horner pass (module docstring) as term
    dicts over the variables other than the pivot, renumbered in order."""
    if poly.arity != form.arity:
        raise DimensionMismatch("polynomial and form arities differ")
    j = form.pivot()
    cj = form.coeffs[j]
    # X_i with i > j is variable i - 1 of H; every c_i with i < j is zero.
    steps = [(k, -c / cj) for k, c in enumerate(form.coeffs[j + 1 :], j) if c]
    layers: dict[int, Terms] = {}
    for exp, coeff in poly.terms.items():
        layers.setdefault(exp[j], {})[exp[:j] + exp[j + 1 :]] = coeff
    top = max(layers, default=0)
    hs = [layers.get(top, {})]
    for d in range(top - 1, -1, -1):
        acc = layers.pop(d, {})
        for exp, c in hs[-1].items():
            for k, s in steps:
                key = exp[:k] + (exp[k] + 1,) + exp[k + 1 :]
                term = c * s
                acc[key] = acc[key] + term if key in acc else term
        hs.append({e: c for e, c in acc.items() if c})
    hs.reverse()
    return hs


def _quotient(poly: MultiPoly, form: LinearForm, hs: list[Terms]) -> MultiPoly:
    """poly / form assembled from the Horner layers hs[1:]."""
    j = form.pivot()
    inv = 1 / form.coeffs[j]
    return MultiPoly._trusted(
        poly.arity,
        {
            exp[:j] + (d,) + exp[j:]: c * inv
            for d, layer in enumerate(hs[1:])
            for exp, c in layer.items()
        },
    )


def restrict_to_hyperplane(poly: MultiPoly, form: LinearForm) -> MultiPoly:
    """Substitute X_j = -sum_{i != j} (c_i / c_j) X_i for the pivot X_j of
    form; the other variables are renumbered in order (arity one less)."""
    return MultiPoly._trusted(poly.arity - 1, _horner(poly, form)[0])


def divides_linear_form(poly: MultiPoly, form: LinearForm) -> bool:
    """True iff the linear form divides the polynomial exactly."""
    return not _horner(poly, form)[0]


def divide_by_linear_form(poly: MultiPoly, form: LinearForm) -> MultiPoly:
    """Exact quotient poly / form; raises ValueError when not divisible."""
    hs = _horner(poly, form)
    if hs[0]:
        raise ValueError("polynomial is not divisible by the linear form")
    return _quotient(poly, form, hs)


def extract_linear_factors(
    poly: MultiPoly, candidates: Sequence[LinearForm]
) -> tuple[list[tuple[LinearForm, int]], MultiPoly]:
    """Peel off every candidate linear factor, with multiplicity.

    Returns the factor list and the remaining cofactor.  Candidates are
    processed in the given order; the result is independent of the order
    because Q[X] is a UFD and the candidates are pairwise non-proportional
    in every use here.  Each attempt is one Horner pass.
    """
    factors: list[tuple[LinearForm, int]] = []
    current = poly
    for form in candidates:
        mult = 0
        while not current.is_zero():
            hs = _horner(current, form)
            if hs[0]:
                break
            current = _quotient(current, form, hs)
            mult += 1
        if mult:
            factors.append((form, mult))
    return factors, current


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


def _power_sum_operator(poly: MultiPoly, k: int) -> MultiPoly:
    out = MultiPoly.zero(poly.arity)
    for i in range(poly.arity):
        p = poly
        for _ in range(k):
            p = p.derivative(i)
        out = out + p
    return out


def _product_derivative(poly: MultiPoly) -> MultiPoly:
    p = poly
    for i in range(poly.arity):
        p = p.derivative(i)
    return p


def invariant_operator_images(poly: MultiPoly, datum: RootDatum) -> list[MultiPoly]:
    """Apply generators of the W-invariant constant-coefficient operators.

    Type A on r coordinates uses the power sums p_1(d), ..., p_r(d);
    types B/C use p_2(d), p_4(d), ..., p_{2r}(d); type D uses
    p_2(d), ..., p_{2r-2}(d) together with d_1 d_2 ... d_r.
    """
    if poly.arity != datum.rank:
        raise DimensionMismatch("polynomial arity must equal the rank")
    r = datum.rank
    kind = datum.ambient.kind
    images = []
    if kind == "A":
        degrees = range(1, r + 1)
    elif kind in ("B", "C"):
        degrees = range(2, 2 * r + 1, 2)
    else:
        degrees = range(2, 2 * r - 1, 2)
    for k in degrees:
        images.append(_power_sum_operator(poly, k))
    if kind == "D":
        images.append(_product_derivative(poly))
    return images


def is_harmonic(poly: MultiPoly, datum: RootDatum) -> bool:
    """True iff every invariant operator without constant term kills poly."""
    return all(img.is_zero() for img in invariant_operator_images(poly, datum))
