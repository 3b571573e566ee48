"""Exact multivariate polynomials over Q.

A `MultiPoly` stores its value in one form, the integer numerator num / den:
den > 0 is coprime to the content of num, a `dict[int, int]` on packed
exponent keys, variable i in bits [i*w, (i+1)*w) with w the bit length of
the total degree (at least 1).  No exponent sum of a term reaches 2^w, so
adding keys never carries between fields.  This module is the only one
that knows that layout.  `terms` is a read-only view, {exponent tuple:
nonzero Fraction}, built on first read and cached; `MultiPoly(arity,
terms)` validates its Fraction terms, packs them at once and keeps them as
that view, and `den` reads the denominator.  The form is unique, so `==`
and the hash compare (den, width, num) whichever way a value was built.
A block-diagonal alternant (below) also holds its description, the
exponents of its blocks and the signed scale numerator, in the slot
`_leibniz`; its `_num` is then a memo that the first read fills through
`_alternant`, shared by the values that share the description, so every
kernel reads one integer form.
Every ring operation, product of linear forms, alternant, restriction and
quotient works on packed keys, without a `Fraction` per term, and
normalizes through `MultiPoly._from_ints`, which may keep the dict it is
given: no kernel changes a `_num` dict in place; p * 1 is p and p * -1 is
-p.  `linear_combination` sums a_1 P_1 + ... + a_k P_k with integer a_i
on one width over one denominator and normalizes once; `+` is its
two-term case.

One kernel, `_move_fields`, moves whole fields: field perm[k] of width w
goes to field k of width w', and a term is negated when its exponents over
the fields perm[k] with signs[k] < 0 sum to an odd number.  A width change
is the identity permutation with no signs; the Weyl action is a signed
permutation on one width, `MultiPoly.permute`, so X_{perm[k]} becomes
signs[k] X_k.  Fields that move by the same distance move together under
one mask, the sign is the parity of the low bits of the negated fields,
and when nothing moves or changes sign the numerator is returned itself.
`invariant_span` grows the span of P under signed permutations by
fraction-free elimination on numerators of one width, as a `PolySpan` of
primitive rows keyed by their largest key; the rows span a space that
holds P and is stable under the generators once no new row survives, at
a cost of dim x generators images, not the order of the group.

Terms serialize in graded-lex order: ascending total degree, then
descending lexicographic on the exponent tuple, so X1 - X2 prints its X1
term first.  `MultiPoly.graded_rows` gives that order straight from the
packed numerator, every key unpacked at once, and emission prints from it
without building the `Fraction` view.  Index polynomials, determinants
and cofactors are homogeneous, so their order is lex order, and the
alternants below and what is built from them iterate in it already: the
sort is one linear run.  A described alternant lists its terms from
signed permutations instead, with no key packed or unpacked: one stream
(`MultiPoly.described_terms`) yields each term's exponents alongside a
value that its sign picks, ints for `graded_rows` and coefficient text
for emission, so no row list is built on the way to term dicts or text.

A `LinearForm` keeps its coefficients as given: the package builds every
form from ints, and only parsed input (`emit.factored_from_obj`) holds a
`Fraction`, for a coefficient that is not an integer.  `Fraction(k)`
equals k and hashes like it, so equality and the hash do not depend on
which was given.  The form's integer data is built once, on construction:
with q the lcm of the denominators and p the gcd of the integers q c_i,
signed like the pivot coefficient, the content is the pair (p, q) and the
primitive tuple is q c_i / p, with gcd 1 and a positive pivot.  This is
exact, term by term, and p/q is reduced: a prime dividing q divides the
denominator of some c_i to the full power it has in q, so q c_i is prime
to it.  When every coefficient is an int, q = 1 and no lcm or `Fraction`
arithmetic is done.  Pivot and pivot coefficient are stored with them.

`linear_form_product` scales each form to a primitive integer form and
expands their product on packed keys, rows in order of their last nonzero
variable, which keeps the partial products in the fewest variables for
longest.  A product that is an alternant, as the positive roots of a
classical block are by Weyl's denominator identity, is expanded directly
by `_alternant`: det(X_{v_i}^{e_j}) has one term of coefficient +-1 per
permutation, with no cancellation, and a Laplace expansion along the
first row, rows added from the last to the first, writes each term once.
Entries may be zero, by one row bitmask per column, if columns of equal
exponent cover disjoint rows, as in the SU(n,1) character determinant
(`masked_alternant`, expanded at once).  When the variables ascend and
the exponents do not increase, the columns that reach a row have
strictly falling exponents, and by induction on the rows the terms are
written in descending lex order, the order emission wants.

`alternant` takes a block-diagonal alternant as its blocks, the falling
exponents of each, on consecutive variables that together are all of
them: D_k (`weylaction`), the gcd of `sun1` and the Vandermonde.  By
Leibniz each block's terms are its permutations, with no cancellation,
so the blocks give the rows in emission order, left block outermost,
and `_alternant` on the masks of the blocks gives the numerator alike.
-P, P * +-1 and the identity `permute` keep the description, so an index
polynomial +-D_k is printed without its numerator being built; any other
operation reads `_num`.

Restriction, divisibility, exact division and the divisor sweeps share
one Horner pass on P = N / D, `LinearForm._horner`, run from the split the
form stores.  Write a form as L = c * L' with
L' = a X_j + sum_{i > j} a_i X_i primitive, X_j its pivot and a > 0, split
N = sum_d N_d X_j^d and set

    H'_top = N_top,   H'_d = a^(top-d) N_d - (sum_{i > j} a_i X_i) H'_{d+1}

down to d = 0.  H'_d is a^(top-d) D times the rational Horner layer of
the substitution X_j = -sum (a_i / a) X_i, so H'_0 / (a^top D), its pivot
field dropped by shifts and masks, is the restriction to L = 0, and L
divides P exactly when H'_0 is empty.  Then N = L' * Q with Q integral
(Gauss's lemma), the X_j^d layer of Q is H'_{d+1} // a^(top-d) and
P / L = Q / (c D).  The pass stores the terms of N_d, and so each layer
H'_d, on keys one pivot unit low, key - (1 << j*w): a step of the carry
multiplies by X_i / X_j, adding (1 << i*w) - (1 << j*w), and H'_{d+1}
lands on the keys of the X_j^d layer of Q.  Each layer is cleared of
zero values when it is finished, before it is carried down, and Q is the
union of the layers H'_1 .. H'_top, built only when H'_0 is empty and
each layer divided by its power of a only when a > 1.

When L' = X_j - s X_q with s = +-1, so a = 1 and there is one step,
restriction and divisibility substitute instead: each key moves its
field j into field q, negated when s = -1 and e_j is odd, and the terms
merge.  That is exact: with a = 1 the recursion is H'_d = N_d + s X_q
H'_{d+1}, so H'_0 = sum_d N_d (s X_q)^d = N(X_j = s X_q) and no power of
a scales it.  No field overflows, because the width holds the total
degree and the new exponent of X_q is at most that.  Division keeps the
Horner pass, which gives the quotient.

`linear_divisors` runs one sweep of divisions: each candidate, less those
proportional to an earlier one, is probed once on the quotient so far
and divided out when it divides.  A probe first refuses a form when some
term of the numerator has no variable of the form's support: if L
divides N, each term of N = L * Q is a term of L times a term of Q, and
cancellation only removes terms, so every term of N has a variable of
supp(L).  On packed keys that is one scan, each key masked by the fields
of the nonzero coefficients of L; the zero polynomial has no terms, so
every form still divides it.  Only a form that meets every term runs the
Horner pass.  `divides_linear_form` refuses by the same scan before it
restricts, and `restrict_to_hyperplane` runs the full pass (or the
substitution), as it needs the true remainder.  As Q[X] is a UFD, a
form that divides N and is not proportional to an earlier divisor
divides their quotient too, so the sweep finds every divisor, with no
multiplicity and no cofactor.  `extract_linear_factors` runs the sweep
again on the forms that divided until none does: a form that does not
divide N divides no quotient of N, and the probes for a second power run
on the cofactor, which is normalized once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import reduce
from fractions import Fraction
from itertools import chain, permutations, product, repeat, zip_longest
from operator import add, and_, itemgetter, lshift, neg
from types import MappingProxyType

from .errors import (CapExceeded, DimensionMismatch, InternalInvariantError,
                     NonIntegralCoefficient, ZeroForm)
from .groups import RootDatum
from .value import Value

Exponent = tuple[int, ...]
IntTerms = dict[int, int]


def _degrees(arity: int, width: int, num: Iterable[int]) -> Iterator[int]:
    """Total degree of each packed key: field arity - 1 of key * ones is
    the sum of every field of key, which fits a field."""
    mask = (1 << width) - 1
    ones = ((1 << (width * arity)) - 1) // mask
    shift = width * max(arity - 1, 0)
    return ((key * ones >> shift) & mask for key in num)


def _move_fields(width: int, new: int, perm: Sequence[int], signs: Sequence[int],
                 num: IntTerms) -> IntTerms:
    """num with field perm[k] of each key, of the given width, moved to
    field k of width new, signs as in the module docstring; the terms keep
    the order of num, which is returned itself when no field moves or flips."""
    field = (1 << width) - 1
    moves: dict[int, int] = {}
    for k, p in enumerate(perm):
        d = k * new - p * width
        moves[d] = moves.get(d, 0) | field << (p * width)
    odd = sum(1 << (p * width) for p, s in zip(perm, signs) if s < 0)
    if not odd and moves.keys() <= {0}:
        return num
    left = [(d, mask) for d, mask in moves.items() if d >= 0]
    right = [(-d, mask) for d, mask in moves.items() if d < 0]
    out = {}
    for key, c in num.items():
        moved = 0
        for shift, mask in left:
            moved |= (key & mask) << shift
        for shift, mask in right:
            moved |= (key & mask) >> shift
        out[moved] = -c if (key & odd).bit_count() & 1 else c
    return out


class MultiPoly:
    __slots__ = ("arity", "_terms", "_den", "_width", "_num", "_leibniz")

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
        self._leibniz = None

    @classmethod
    def _packed(cls, arity: int, den: int, width: int, num: IntTerms) -> "MultiPoly":
        """Wrap an integer form that is already normalized (module docstring)."""
        poly = object.__new__(cls)
        poly.arity, poly._terms, poly._leibniz = arity, None, None
        poly._den, poly._width, poly._num = den, width, num
        return poly

    @classmethod
    def _described(cls, arity: int, den: int, width: int, leibniz: tuple) -> "MultiPoly":
        """p / den times the block-diagonal alternant of the blocks, kept as
        its description leibniz = (blocks, p, memo): blocks as `alternant`
        takes them, a tuple of exponent tuples, and memo a list that holds
        the packed numerator once a first read of `_num` has built it.
        Values that share the description share that memo."""
        poly = object.__new__(cls)
        poly.arity, poly._terms, poly._leibniz = arity, None, leibniz
        poly._den, poly._width = den, width
        return poly

    def __getattr__(self, name: str):
        # Only a slot never set gets here: `_num` of a described alternant
        # before its first read fills it through `_alternant`, once.
        if name != "_num" or self._leibniz is None:
            raise AttributeError(f"'MultiPoly' object has no attribute {name!r}")
        blocks, p, memo = self._leibniz
        if not memo:
            exponents, support = [], []
            for block in blocks:
                support += [((1 << len(block)) - 1) << len(support)] * len(block)
                exponents += block
            num = _alternant(self._width, range(self.arity), exponents, support)
            memo.append(num if p == 1 else {key: c * p for key, c in num.items()})
        self._num = memo[0]
        return self._num

    @classmethod
    def _from_ints(cls, arity, width, num, scale=Fraction(1), degree=None) -> "MultiPoly":
        """scale * num, for nonzero values on keys of a width that fits the
        total degree (computed unless given); normalizes width and scale.
        The result may keep num itself (module docstring)."""
        if not num:
            return cls._packed(arity, 1, 1, {})
        if degree is None:
            degree = max(_degrees(arity, width, num))
        new = max(degree, 1).bit_length()
        if new != width:
            num = _move_fields(width, new, range(arity), (), num)
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

    @property
    def den(self) -> int:
        """The denominator of the integer form; read-only."""
        return self._den

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

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        return linear_combination(self.arity, [(self, 1), (other, 1)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self._leibniz is not None:
            blocks, p, _ = self._leibniz
            return MultiPoly._described(self.arity, self._den, self._width, (blocks, -p, []))
        num = {key: -c for key, c in self._num.items()}
        return MultiPoly._packed(self.arity, self._den, self._width, num)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = Fraction(other)
            if not scalar:
                return MultiPoly.zero(self.arity)
            # a unit keeps the normalized form: no degree or gcd pass
            if scalar == 1:
                return self
            if scalar == -1:
                return -self
            return MultiPoly._from_ints(self.arity, self._width, self._num, scalar / self._den)
        if self.arity != other.arity:
            raise DimensionMismatch(f"arity {self.arity} != {other.arity}")
        # each factor's degree is below 2^w for its width w, so their sum
        # fits one bit more than the wider field
        width, ids = max(self._width, other._width) + 1, range(self.arity)
        right = _move_fields(other._width, width, ids, (), other._num).items()
        out: IntTerms = {}
        for k1, c1 in _move_fields(self._width, width, ids, (), self._num).items():
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
        return max(_degrees(self.arity, self._width, self._num), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(_degrees(self.arity, self._width, self._num))) <= 1

    def described_terms(self, value: Callable[[int], object], spell: Callable = int,
                        shape: Callable = list) -> tuple[Iterator, Iterator] | None:
        """For a described alternant, its terms in `graded_rows` order from
        signed permutations (`_leibniz_terms`), with no key packed or
        unpacked: two parallel iterators, shape(exponents) of each term,
        the exponents spelled by spell, and value(c) for its coefficient
        c / den, value being called once for each of the two signs.  None
        for any other polynomial."""
        if self._leibniz is None:
            return None
        blocks, p, _ = self._leibniz
        return _leibniz_terms(blocks, value(p), value(-p), spell, shape)

    def graded_rows(self) -> list[tuple[list[int], int]]:
        """(exponent list, numerator over den) of every term, by ascending
        total degree, then descending lex order on the exponents; zero has
        none, whatever its arity.  The sort is right for any numerator, and
        one linear run on one that iterates in descending lex order.  A
        described alternant lists its rows from `described_terms` instead,
        the numerator of each term as its value."""
        if self._leibniz is not None:
            return list(zip(*self.described_terms(int)))
        arity, width, num = self.arity, self._width, self._num
        if not arity or not num:
            return [([], c) for c in num.values()]
        # Key j fills slot j of `packed`, `size` bytes a field; one shift
        # and mask takes field i of every key at once, and `spread` holds it
        # at byte i * size of each slot, so columns are stride slices.
        size = -(-width // 8)
        slot = arity * size
        # Joined 64 keys at a time, so that few small bytes objects live at
        # once: joining all of them raised the peak RSS of `expand` 0.3-0.5 MB.
        each = map(int.to_bytes, num, repeat(slot), repeat("little"))
        keys = b"".join(map(b"".join, zip_longest(*[each] * 64, fillvalue=b"")))
        packed = int.from_bytes(keys, "little")
        ones = int.from_bytes((b"\x01" + bytes(slot - 1)) * len(num), "little")
        mask = (1 << width) - 1
        low = mask * ones
        spread = degrees = 0
        for i in range(arity):
            field = packed >> (i * width) & low
            spread |= field << (8 * size * i)
            degrees += field
        data = spread.to_bytes(slot * len(num), "little")
        columns = []
        for start in range(0, slot, size):
            column = data[start::slot]
            for t in range(1, size):
                column = list(map(add, column, map(lshift, data[start + t :: slot], repeat(8 * t))))
            columns.append(column)
        rows = sorted(zip(map(list, zip(*columns)), num.values()), key=itemgetter(0), reverse=True)
        # Each slot of `degrees` holds its term's degree, which fits a field.
        if degrees != (degrees & mask) * ones:
            rows.sort(key=lambda row: sum(row[0]))
        return rows

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a point, from the packed numerator: with the point
        over one denominator q, x_i = a_i / q, a term of degree e is
        scaled by q^(top - e), so the sum is one integer over den q^top."""
        if len(point) != self.arity:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.arity}"
            )
        pt = [Fraction(x) for x in point]
        q = math.lcm(*(x.denominator for x in pt))
        ints = [x.numerator * (q // x.denominator) for x in pt]
        degrees = list(_degrees(self.arity, self._width, self._num))
        top = max(degrees, default=0)
        width, mask = self._width, (1 << self._width) - 1
        total = 0
        for (key, c), e in zip(self._num.items(), degrees):
            term = c * q ** (top - e)
            for a in ints:
                if key & mask:
                    term *= a ** (key & mask)
                key >>= width
            total += term
        return Fraction(total, self._den * q**top)

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

    def permute(self, perm: Sequence[int], signs: Sequence[int]) -> "MultiPoly":
        """P with each X_{perm[k]} replaced by signs[k] X_k, for a signed
        permutation: it keeps the degree and the content, so the result is
        normalized; it shares P's numerator when nothing moves or flips, and
        a described alternant's description then."""
        if len(perm) != self.arity or len(signs) != self.arity:
            raise DimensionMismatch(
                f"signed permutation of length {len(perm)} for arity {self.arity}")
        if (self._leibniz is not None and tuple(perm) == tuple(range(self.arity))
                and all(s > 0 for s in signs)):
            return MultiPoly._described(self.arity, self._den, self._width, self._leibniz)
        num = _move_fields(self._width, self._width, perm, signs, self._num)
        return MultiPoly._packed(self.arity, self._den, self._width, num)

    def __repr__(self):
        if self.is_zero():
            return "MultiPoly(0)"
        bits = []
        for exp, c in self.graded_rows():
            coeff = Fraction(c, self._den)
            mono = "*".join(
                f"X{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


class LinearForm(Value):
    """A nonzero linear form sum c_i X_i, its coefficients ints, or
    Fractions where they are not integers.  Built once, outside equality,
    hash and repr: the primitive integer tuple `_ints`, positive at the
    pivot; the content `_scale` = (p, q), this form being p/q times the
    primitive one; the pivot index `_pivot`; and the pivot coefficient
    `_lead` of the primitive form.  The Horner methods read them."""

    __slots__ = ("coeffs", "_ints", "_scale", "_pivot", "_lead")
    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]):
        coeffs = tuple(coeffs)
        if all(type(c) is int for c in coeffs):
            den, ints = 1, coeffs
        else:
            den = math.lcm(*(c.denominator for c in coeffs))
            ints = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        g = math.gcd(*ints)
        if not g:
            raise ZeroForm("linear form is identically zero")
        j = next(i for i, k in enumerate(ints) if k)
        if ints[j] < 0:
            g = -g
        prim = ints if g == 1 else tuple(k // g for k in ints)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_ints", prim)
        object.__setattr__(self, "_scale", (g, den))
        object.__setattr__(self, "_pivot", j)
        object.__setattr__(self, "_lead", prim[j])

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def to_poly(self) -> MultiPoly:
        return MultiPoly.from_linear(self.coeffs)

    def _horner(self, width: int, num: IntTerms) -> tuple[IntTerms, IntTerms | None, int]:
        """(H'_0, Q, top) of the integer Horner pass (module docstring) on
        keys of the given width: each layer H'_d is cleared of zero values
        and stored one pivot unit low, so H'_{d+1} sits on the keys of
        layer d of Q.  Q is the integer numerator N / L' when H'_0 is
        empty, and None otherwise."""
        j, a = self._pivot, self._lead
        shift, unit, mask = j * width, 1 << (j * width), (1 << width) - 1
        # every a_i with i < j is zero; a step multiplies by X_i / X_j
        steps = [((1 << (i * width)) - unit, -c)
                 for i, c in enumerate(self._ints[j + 1 :], j + 1) if c]
        layers: dict[int, IntTerms] = defaultdict(dict)
        for key, c in num.items():
            layers[key >> shift & mask][key - unit] = c
        top = max(layers, default=0)
        h = layers.pop(top, {})
        done = []
        for d in range(top - 1, -1, -1):
            done.append(h)
            acc = layers.pop(d, {})
            if a != 1:
                power = a ** (top - d)
                acc = {key: c * power for key, c in acc.items()}
            get = acc.get
            for step, s in steps:
                for key, c in h.items():
                    key += step
                    acc[key] = get(key, 0) + c * s
            h = {key: c for key, c in acc.items() if c}
        if h:
            return h, None, top
        quotient: IntTerms = {}
        for d, layer in enumerate(reversed(done)):
            if a != 1:
                power = a ** (top - d)
                layer = {key: c // power for key, c in layer.items()}
            quotient.update(layer)
        return h, quotient, top

    def _restriction(self, width: int, num: IntTerms) -> tuple[IntTerms, int]:
        """(H'_0, a^top), H'_0 cleared of zero values.  For L' = X_j - s X_q,
        s = +-1, H'_0 is N(X_j = s X_q), by substitution (module
        docstring); otherwise it is the remainder of the Horner pass."""
        j = self._pivot
        rest = [(i, c) for i, c in enumerate(self._ints[j + 1 :], j + 1) if c]
        if self._lead != 1 or len(rest) != 1 or abs(rest[0][1]) != 1:
            h, _, top = self._horner(width, num)
            unit = 1 << (j * width)
            return {key + unit: c for key, c in h.items()}, self._lead ** top
        ((q, minus_s),) = rest
        shift, mask = j * width, (1 << width) - 1
        spread = (1 << ((q - j) * width)) - 1
        out: IntTerms = {}
        for key, c in num.items():
            e = key >> shift & mask
            if e:
                key += (e << shift) * spread
                if minus_s > 0 and e & 1:
                    c = -c
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}, 1


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


def _alternant(
    width: int, variables: Sequence[int], exponents: Sequence[int], support: Sequence[int] = ()
) -> IntTerms:
    """det(M), M[i][j] = X_{v_i}^{e_j} where bit i of support[j] is set (every
    bit when support is empty) and 0 elsewhere, for distinct variables v_i
    (rows), on keys packed with fields of the given width.  Columns of equal
    exponent must cover disjoint rows: then a key gives each row its
    exponent and that exponent one column on the row, so no two
    permutations share a key and every coefficient is +-1.

    Laplace expansion along the first row, memoized on the set of columns
    used: minors[cols] is the minor of the last popcount(cols) rows on
    those columns, rows are added from the last to the first, and the new
    top row on column c sits at (0, p) with p the number of the minor's
    columns below c.  A minor is a pair of lists, its keys and their signs,
    and each step extends both, since no two permutations share a key; the
    column loop is the outer one, so every minor gets its pieces in
    ascending column order, and one dict is built at the end.  When the
    variables ascend and the exponents do not increase, the result iterates
    in descending lex order on the exponent tuples (module docstring).
    """
    support = support or [(1 << len(variables)) - 1] * len(exponents)
    for c, (e, rows) in enumerate(zip(exponents, support)):
        if any(f == e and s & rows for f, s in zip(exponents[:c], support[:c])):
            raise InternalInvariantError(f"two columns of exponent {e} share a row")
    minors: dict[int, tuple[list[int], list[int]]] = {0: ([0], [1])}
    for row in range(len(variables) - 1, -1, -1):
        shift, grown = variables[row] * width, {}
        for c, (e, rows) in enumerate(zip(exponents, support)):
            if not rows >> row & 1:
                continue
            bit, step = 1 << c, e << shift
            for cols, (keys, signs) in minors.items():
                if cols & bit:
                    continue
                out_keys, out_signs = grown.setdefault(cols | bit, ([], []))
                out_keys.extend(map(add, keys, repeat(step)))
                odd = (cols & (bit - 1)).bit_count() & 1
                out_signs.extend(map(neg, signs) if odd else signs)
        minors = grown
    keys, signs = minors.get((1 << len(exponents)) - 1, ((), ()))
    return dict(zip(keys, signs))


# Permutations of at most this many items take their values from runs
# listed in full, 2 x 7! entries; longer ones chain those runs lazily.
_RUN_ITEMS = 7


def _parities(k: int, even, odd) -> Callable[[int], Iterator]:
    """A function of a start parity s whose value iterates over even or odd
    for each of the k! permutations of k items in lex order, by its parity
    plus s.  The parities of that order are p_k: p_1 = 0, and p_k is
    p_{k-1} and its complement, alternating, k times, since putting the
    j-th item first takes j transpositions.  The runs p_m and their
    complements, m = min(k, _RUN_ITEMS), are listed with the reader's two
    values; above m each choice of the first k - m items picks a run by
    the parity of its indices, so no list of k! entries is kept."""
    m = min(k, _RUN_ITEMS)
    p, q = [even], [odd]
    for j in range(2, m + 1):
        p, q = (p + q) * (j // 2) + p * (j % 2), (q + p) * (j // 2) + q * (j % 2)
    runs = (p, q)
    choices = [range(i) for i in range(k, m, -1)]

    def values(s: int) -> Iterator:
        if not choices:
            return iter(runs[s])
        return chain.from_iterable(runs[s ^ sum(t) & 1] for t in product(*choices))
    return values


def _leibniz_terms(blocks: tuple, even, odd, spell: Callable,
                   shape: Callable) -> tuple[Iterator, Iterator]:
    """The terms of the alternant of the blocks (see `alternant`), from
    signed permutations, as two parallel iterators: shape(exponents) of
    each term, the exponents spelled by spell, and even or odd by the
    term's sign.  By Leibniz a block's terms are sgn(pi) x^{pi.e}, one per
    permutation pi and distinct, and `permutations` of its falling
    exponents e lists them in descending lex order, signed as `_parities`
    gives.  Blocks are chained with the left block outermost and their
    signs multiplied, so the terms are in descending lex order too; no
    block at all acts as one empty block, whose one term is empty.  The
    last block is permuted afresh under each term of the others, so
    nothing grows with its k! terms."""
    *outer, last = [tuple(map(spell, exponents)) for exponents in blocks] or [()]
    heads = [((), 0)]
    for spelled in outer:
        signs = list(_parities(len(spelled), 0, 1)(0))
        terms = list(permutations(spelled))
        heads = [(head + term, s ^ t) for head, s in heads for term, t in zip(terms, signs)]
    values = _parities(len(last), even, odd)
    if not outer:
        return map(shape, permutations(last)), values(0)
    return (map(shape, chain.from_iterable(
                map(add, repeat(head), permutations(last)) for head, _ in heads)),
            chain.from_iterable(values(s) for _, s in heads))


def alternant(blocks: Iterable[Sequence[int]], scale: int | Fraction = 1) -> MultiPoly:
    """scale times the block-diagonal alternant of the blocks, each the
    column exponents e_j of det(X_{v_i}^{e_j}) on the next variables in
    order: the blocks cover every variable, so the arity is the sum of
    their sizes, and a term takes one entry of each column, so the degree
    is the sum of the exponents.  Within a block the exponents fall
    strictly to a last one of at least 0.  A zero scale gives the zero
    polynomial; any other value is kept as its blocks
    (`MultiPoly._described`) and expanded on first read."""
    blocks = tuple(map(tuple, blocks))
    for exponents in blocks:
        # strictly falling, and above -1 at the end
        if any(a <= b for a, b in zip(exponents, exponents[1:] + (-1,))):
            raise InternalInvariantError(f"block exponents {exponents} do not fall strictly to >= 0")
    arity, scale = sum(map(len, blocks)), Fraction(scale)
    if not scale:
        return MultiPoly.zero(arity)
    width = max(sum(map(sum, blocks)), 1).bit_length()
    return MultiPoly._described(arity, scale.denominator, width, (blocks, scale.numerator, []))


def masked_alternant(arity: int, exponents: Sequence[int], support: Sequence[int]) -> MultiPoly:
    """det(M) on the rows X_0..X_{arity-1}, M as in `_alternant`, expanded
    at once: a term takes one entry of each column, so its degree is the
    sum of the exponents."""
    degree = sum(exponents)
    width = max(degree, 1).bit_length()
    num = _alternant(width, range(arity), exponents, support)
    return MultiPoly._from_ints(arity, width, num, degree=degree)


def linear_combination(arity: int, terms: Iterable[tuple[MultiPoly, int]]) -> MultiPoly:
    """sum a_i P_i over the (P_i, a_i) pairs, with integer a_i: the
    numerators are summed on one width over one denominator and the sum
    normalized once.  One term is P * a, which keeps the normalized form
    of P for a = +-1 (module docstring); with no terms the sum is zero.
    A coefficient that is neither an int nor an integral Fraction raises
    NonIntegralCoefficient, before any term is summed."""
    terms = list(terms)
    for poly, a in terms:
        if poly.arity != arity:
            raise DimensionMismatch(f"arity {arity} != {poly.arity}")
        if not isinstance(a, (int, Fraction)) or a.denominator != 1:
            raise NonIntegralCoefficient(f"coefficient {a!r} is not an integer")
    if len(terms) == 1:
        [(poly, a)] = terms
        return poly * a
    width = max((poly._width for poly, _ in terms), default=1)
    den = math.lcm(*(poly._den for poly, _ in terms))
    out: IntTerms = {}
    for poly, a in terms:
        k = int(a) * (den // poly._den)
        for key, c in _move_fields(poly._width, width, range(arity), (), poly._num).items():
            out[key] = out.get(key, 0) + c * k
    out = {key: c for key, c in out.items() if c}
    return MultiPoly._from_ints(arity, width, out, Fraction(1, den))


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
        # a wider polynomial has a degree above all in the span, and is not 0
        return poly._width <= self.width and not _reduce(
            _move_fields(poly._width, self.width, range(self.arity), (), poly._num), self.rows)


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


def invariant_span(poly: MultiPoly, generators: Sequence[tuple[Sequence[int], Sequence[int]]],
                   cap: int) -> PolySpan:
    """The smallest span that holds P and is stable under the signed
    permutations (perm, signs) of P's arity (module docstring): each row
    that survives `_reduce` is kept and its images queued.  Columns (keys
    of the rows) and rows are checked against the cap at each new row, P's
    own first, so a refusal precedes any image."""
    width = poly._width
    rows: dict[int, IntTerms] = {}
    columns: set[int] = set()
    queue = [poly._num]
    while queue:
        row = _reduce(queue.pop(), rows)
        if row:
            rows[max(row)] = row
            columns.update(row)
            if len(columns) > cap or len(columns) * len(rows) > 50 * cap:
                raise CapExceeded(
                    f"{len(columns)} columns x {len(rows)} rows exceeds the span cap {cap}")
            queue += [_move_fields(width, width, perm, signs, row) for perm, signs in generators]
    return PolySpan(poly.arity, width, MappingProxyType(rows))


def linear_form_product(arity: int, forms: Iterable[LinearForm]) -> MultiPoly:
    """Expanded product of linear forms, in the integer form (module
    docstring); the empty product is the constant 1."""
    forms = list(forms)
    p = q = 1
    rows = []
    for form in forms:
        if form.arity != arity:
            raise DimensionMismatch("form arity mismatch")
        p, q = p * form._scale[0], q * form._scale[1]
        rows.append(form._ints)
    width = max(len(forms), 1).bit_length()
    product = _packed_product({0: 1}, rows, width)
    return MultiPoly._from_ints(arity, width, product, Fraction(p, q), len(forms))


def _check_arity(poly: MultiPoly, form: LinearForm) -> None:
    if poly.arity != form.arity:
        raise DimensionMismatch("polynomial and form arities differ")


def restrict_to_hyperplane(poly: MultiPoly, form: LinearForm) -> MultiPoly:
    """Substitute X_j = -sum_{i != j} (c_i / c_j) X_i for the pivot X_j of
    form; the other variables are renumbered in order (arity one less)."""
    _check_arity(poly, form)
    den, width, num = poly._int_form()
    rest, power = form._restriction(width, num)
    low, high = (1 << (form._pivot * width)) - 1, (form._pivot + 1) * width
    rest = {key & low | key >> high << (high - width): c for key, c in rest.items()}
    return MultiPoly._from_ints(poly.arity - 1, width, rest, Fraction(1, power * den))


def _misses_support(form: LinearForm, width: int, num: IntTerms) -> bool:
    """True when some key of num has no variable of the form's support,
    which proves that the form does not divide it (module docstring)."""
    field = (1 << width) - 1
    mask = sum(field << (i * width) for i, c in enumerate(form._ints) if c)
    return not all(map(and_, num, repeat(mask)))


def divides_linear_form(poly: MultiPoly, form: LinearForm) -> bool:
    """True iff the linear form divides the polynomial exactly."""
    _check_arity(poly, form)
    _, width, num = poly._int_form()
    return not _misses_support(form, width, num) and not form._restriction(width, num)[0]


def _distinct(poly: MultiPoly, candidates: Iterable[LinearForm]) -> list[LinearForm]:
    """The candidates, in order, less each one proportional to an earlier
    one; every form must have the arity of poly."""
    distinct: dict[tuple, LinearForm] = {}
    for form in candidates:
        _check_arity(poly, form)
        # proportional forms share their primitive form
        distinct.setdefault(form._ints, form)
    return list(distinct.values())


def _sweep(width: int, num: IntTerms, forms: list[LinearForm]) -> tuple[IntTerms, list[LinearForm]]:
    """(quotient, divisors): each form probed once, in order, on the
    quotient so far, and divided out where it divides.  A form that misses
    a term is refused before its Horner pass."""
    divisors = []
    for form in forms:
        if _misses_support(form, width, num):
            continue
        quotient = form._horner(width, num)[1]
        if quotient is not None:
            num = quotient
            divisors.append(form)
    return num, divisors


def linear_divisors(poly: MultiPoly, candidates: Iterable[LinearForm]) -> list[LinearForm]:
    """The candidates that divide poly, in candidate order, skipping one
    proportional to an earlier candidate: one sweep of divisions on the
    running quotient, with no multiplicity and no cofactor.  As Q[X] is a
    UFD, a form that divides poly and is not proportional to an earlier
    divisor divides their quotient too, so one probe per form decides.
    Every form divides the zero polynomial."""
    _, width, num = poly._int_form()
    return _sweep(width, num, _distinct(poly, candidates))[1]


def extract_linear_factors(
    poly: MultiPoly, candidates: Iterable[LinearForm]
) -> tuple[list[tuple[LinearForm, int]], MultiPoly]:
    """Peel off every candidate linear factor, with multiplicity.

    Returns the factors in candidate order and the remaining cofactor,
    skipping a candidate proportional to an earlier one: the sweep of
    `linear_divisors`, run again on the forms that divided until none
    does, the cofactor normalized once.  As Q[X] is a UFD, the order
    changes neither the multiplicities nor the cofactor.  The zero
    polynomial has no factors.
    """
    den, width, num = poly._int_form()
    mult = dict.fromkeys(_distinct(poly, candidates), 0)
    p, q = 1, den  # the scale p/q of the cofactor's numerator
    live = list(mult) if num else []
    while live:
        num, live = _sweep(width, num, live)
        for form in live:
            mult[form] += 1
            p, q = p * form._scale[1], q * form._scale[0]
    factors = [(form, m) for form, m in mult.items() if m]
    return factors, MultiPoly._from_ints(poly.arity, width, num, Fraction(p, q))


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
