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
fields).  The result is unpacked and scaled by the content once.  The
rows are multiplied in order of their last nonzero variable: the product
commutes, and this order keeps the partial products in the fewest
variables for longest, so they have fewer terms.

Graded-lex order is two sorts: exponents descending, then a stable sort
by degree.  Code that sums many Weyl translates (`dirac.index_polynomial`)
works on the integer numerator from `_numerator` and builds `Fraction`s
once, through `_scaled`.

Hyperplane restriction, divisibility, exact division and factor
extraction share one Horner pass, run on integers.  Write P = N / D with
N an int-valued term dict over one common denominator D, and a form as
L = c * L' with L' = a X_j + sum_{i > j} a_i X_i primitive, X_j its pivot
(first nonzero coefficient) and a > 0.  Split N = sum_d N_d X_j^d and set

    H'_top = N_top,   H'_d = a^(top-d) N_d - (sum_{i != j} a_i X_i) H'_{d+1}

down to d = 0.  Each H'_d is a^(top-d) D times the rational Horner layer
H_d = P_d + S H_{d+1} of the substitution X_j = S = -sum (a_i / a) X_i,
so the pass never leaves Z[X].  H'_0 / (a^top D) = P(X_j = S) is the
restriction to L = 0, and L divides P exactly when H'_0 is empty.  Then
N = L' * Q with Q integral by Gauss's lemma (L' is primitive), the X_j^d
layer of Q is H'_{d+1} // a^(top-d), an exact division, and
P / L = Q / (c D).  Factor extraction carries (scale, int dict) from one
candidate to the next and builds `Fraction`s only for the cofactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ZeroForm
from .groups import RootDatum, Weight

Exponent = tuple[int, ...]
IntTerms = dict[Exponent, int]


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
        """Terms in graded-lex order, as `_gl_key` sorts them: exponents
        descending, then a stable sort by degree."""
        exps = sorted(self.terms, reverse=True)
        exps.sort(key=sum)
        terms = self.terms
        return [(e, terms[e]) for e in exps]

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


def _scaled(arity: int, num: IntTerms, scale: Fraction) -> MultiPoly:
    """The polynomial scale * num, for a nonzero scale."""
    p, q = scale.numerator, scale.denominator
    if q == 1:
        return MultiPoly._trusted(arity, {e: Fraction(p * c) for e, c in num.items()})
    return MultiPoly._trusted(arity, {e: Fraction(p * c, q) for e, c in num.items()})


def _packed_product(
    packed: dict[int, int], rows: Iterable[Sequence[int]], width: int
) -> dict[int, int]:
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


def _unpacked(
    arity: int, width: int, packed: dict[int, int], scale: Fraction
) -> MultiPoly:
    mask = (1 << width) - 1
    shifts = [width * i for i in range(arity)]
    return _scaled(
        arity,
        {tuple([(key >> s) & mask for s in shifts]): c for key, c in packed.items()},
        scale,
    )


def linear_form_product(arity: int, forms: Iterable[LinearForm]) -> MultiPoly:
    """Expanded product of linear forms; the empty product is the constant 1.

    The integer product runs on packed exponent keys (see the module
    docstring); only the final terms become tuples and Fractions.
    """
    forms = list(forms)
    content = Fraction(1)
    rows = []
    for form in forms:
        if form.arity != arity:
            raise DimensionMismatch("form arity mismatch")
        scale, ints = form._content()
        content *= scale
        rows.append(ints)
    width = len(forms).bit_length()
    return _unpacked(arity, width, _packed_product({0: 1}, rows, width), content)


def _numerator(poly: MultiPoly) -> tuple[int, IntTerms]:
    """(D, N) with poly = N / D and N an int-valued term dict."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in poly.terms.items()}


class _Pivot:
    """A form L = c * L', split for the integer Horner pass: the pivot index
    j, the pivot coefficient a > 0 of the primitive L', and the steps
    (i - 1, -a_i) that multiply a layer by -sum_{i > j} a_i X_i, with X_i
    renumbered as variable i - 1 of the layer."""

    __slots__ = ("content", "j", "a", "steps")

    def __init__(self, arity: int, form: LinearForm):
        if arity != form.arity:
            raise DimensionMismatch("polynomial and form arities differ")
        self.content, ints = form._content()
        self.j = j = form.pivot()
        self.a = ints[j]
        # every a_i with i < j is zero
        self.steps = [(k, -c) for k, c in enumerate(ints[j + 1 :], j) if c]

    def horner(self, num: IntTerms) -> list[IntTerms]:
        """[H'_0, ..., H'_top] of the integer Horner pass (module docstring),
        over the variables other than the pivot, renumbered in order."""
        j, a, steps = self.j, self.a, self.steps
        layers: dict[int, IntTerms] = {}
        for exp, coeff in num.items():
            layers.setdefault(exp[j], {})[exp[:j] + exp[j + 1 :]] = coeff
        top = max(layers, default=0)
        hs = [layers.get(top, {})]
        for d in range(top - 1, -1, -1):
            acc = layers.pop(d, {})
            if a != 1:
                power = a ** (top - d)
                acc = {e: c * power for e, c in acc.items()}
            for exp, c in hs[-1].items():
                for k, s in steps:
                    key = exp[:k] + (exp[k] + 1,) + exp[k + 1 :]
                    term = c * s
                    acc[key] = acc[key] + term if key in acc else term
            hs.append({e: c for e, c in acc.items() if c})
        hs.reverse()
        return hs

    def quotient(self, hs: list[IntTerms]) -> IntTerms:
        """The integer numerator Q = N / L' from the layers hs[1:]."""
        j, top = self.j, len(hs) - 1
        powers = [self.a ** (top - d) for d in range(top)]
        return {
            exp[:j] + (d,) + exp[j:]: c // powers[d]
            for d, layer in enumerate(hs[1:])
            for exp, c in layer.items()
        }


def restrict_to_hyperplane(poly: MultiPoly, form: LinearForm) -> MultiPoly:
    """Substitute X_j = -sum_{i != j} (c_i / c_j) X_i for the pivot X_j of
    form; the other variables are renumbered in order (arity one less)."""
    pivot = _Pivot(poly.arity, form)
    den, num = _numerator(poly)
    hs = pivot.horner(num)
    return _scaled(
        poly.arity - 1, hs[0], Fraction(1, pivot.a ** (len(hs) - 1) * den)
    )


def divides_linear_form(poly: MultiPoly, form: LinearForm) -> bool:
    """True iff the linear form divides the polynomial exactly."""
    return not _Pivot(poly.arity, form).horner(_numerator(poly)[1])[0]


def extract_linear_factors(
    poly: MultiPoly, candidates: Sequence[LinearForm]
) -> tuple[list[tuple[LinearForm, int]], MultiPoly]:
    """Peel off every candidate linear factor, with multiplicity.

    Returns the factor list and the remaining cofactor.  Candidates are
    processed in the given order; the result is independent of the order
    because Q[X] is a UFD and the candidates are pairwise non-proportional
    in every use here.  Each attempt is one integer Horner pass; the
    cofactor is kept as a scale over an integer numerator throughout.
    """
    factors: list[tuple[LinearForm, int]] = []
    den, num = _numerator(poly)
    scale = Fraction(1, den)
    for form in candidates:
        pivot = _Pivot(poly.arity, form)
        mult = 0
        while num:
            hs = pivot.horner(num)
            if hs[0]:
                break
            num = pivot.quotient(hs)
            scale /= pivot.content
            mult += 1
        if mult:
            factors.append((form, mult))
    return factors, _scaled(poly.arity, num, scale)


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
