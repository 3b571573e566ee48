"""One reference per kernel, and the inputs that several test modules share.

Each reference computes what a kernel of `diracindex` computes, another
way, and on `Fraction` values where the kernel runs on integers:

- the ring: sums, products, powers, derivatives and values of `MultiPoly`
  as dicts of `Fraction` terms, with its graded rows, repr, the content of
  a linear form and the power-sum operators;
- packed keys: a width change field by field, and a signed permutation as
  one pass of field masks;
- restriction to a hyperplane, divisibility, exact division and factor
  extraction by a linear form: the Horner pass on `Fraction` terms;
- alternants and determinants: the Leibniz sum over permutations, and
  the Vandermonde of any indices as the product of their differences;
- the chamber routine `dominate`, which test_groups holds to a scan of the
  Weyl group;
- simple roots as the positive roots that are no sum of two positive
  roots, W_g-orbits breadth first under their reflections, and the
  signed W_k-orbit element by element from `weyl_elements`;
- Freudenthal's multiplicities over the lattice points of the norm ball;
- the Weyl action and the index polynomial on `Fraction` terms;
- sums of K-types, tensoring, evaluation of a family, the translation
  identity, spin weights by subset sums and S+ - S- from them, sums of
  exponentials, the Weyl denominator, the character series and its
  limits, all on `Fraction` weights.

Test modules take references and shared inputs from here and from no
other test module; test_reference_guard checks it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache, reduce
from itertools import combinations, permutations
from operator import itemgetter, mul

from hypothesis import strategies as st

from diracindex import groups
from diracindex.asymptotics import LaurentSeries, LimitReport
from diracindex.errors import DimensionMismatch
from diracindex.groups import (
    Family, RootDatum, WeylElement, dot, int_form, reflection, weyl_elements,
)
from diracindex.polynomials import LinearForm, MultiPoly
from diracindex.series import TruncatedSeries
from diracindex.weylaction import weyl_dim_poly

# -- shared helpers ------------------------------------------------------------


def W(*coords):
    """A weight of Fraction coordinates."""
    return tuple(F(c) for c in coords)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def fdot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), F(0))


def pairing(lam, alpha):
    """The coroot pairing <alpha^vee, lam> = 2(lam, alpha)/(alpha, alpha)."""
    return 2 * dot(lam, alpha) / dot(alpha, alpha)


def gl_key(exp):
    """Graded-lex order: ascending total degree, then descending lex."""
    return (sum(exp), tuple(-e for e in exp))


def primitive(form):
    """form divided by the content of its coefficients, its pivot made
    positive."""
    return LinearForm(form._ints)


@lru_cache(maxsize=None)
def generator_forms(datum: RootDatum) -> tuple[LinearForm, ...]:
    """Primitive linear forms of the compact positive roots, built once
    per datum: each integer root divided by its content, signed so that
    its first nonzero coefficient, the pivot, is positive."""
    forms = []
    for alpha in datum.compact_positive_roots:
        g = math.gcd(*alpha)
        if next(c for c in alpha if c) < 0:
            g = -g
        forms.append(LinearForm(tuple(c // g for c in alpha)))
    return tuple(forms)


def partitions_of(n, cap=None):
    """The partitions of n with parts at most cap, largest part first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def valid_nilpotent(p, kind, total):
    """Whether the partition p of total labels a nilpotent orbit of type
    kind, by the parity rules: in type C each odd part, in B and D each
    even part, occurs an even number of times."""
    if sum(p) != total:
        return False
    if kind == "A":
        return True
    counts = Counter(p)
    if kind == "C":
        bad = [x for x in counts if x % 2 == 1 and counts[x] % 2 == 1]
    else:
        bad = [x for x in counts if x % 2 == 0 and counts[x] % 2 == 1]
    return not bad


def solve_linear(rows, rhs):
    """Exact solver: one solution x of rows x = rhs with free variables
    set to zero, or None if the system is inconsistent."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    a = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if a[r][col] != 0), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        pv = a[row][col]
        a[row] = [v / pv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    if any(a[r][n] != 0 for r in range(row, m)):
        return None
    x = [F(0)] * n
    for r, c in pivots:
        x[c] = a[r][n]
    return x


def highest_weight(datum, module):
    """Highest weight of the standard or adjoint module of the ambient
    algebra; of the spin module of a B or D ambient, and of a trace-shifted
    standard module of an A ambient."""
    r, kind = datum.rank, datum.ambient.kind
    if module == "spin" and kind in ("B", "D"):
        return (F(1, 2),) * r
    if module == "spin" and kind == "A":  # the standard module, trace-shifted
        return (F(3, 2),) + (F(1, 2),) * (r - 1)
    if module != "adjoint" or r == 1:
        return (F(1),) + (F(0),) * (r - 1)
    if kind == "A":
        return (F(1),) + (F(0),) * (r - 2) + (F(-1),)
    if kind == "C":
        return (F(2),) + (F(0),) * (r - 1)
    return (F(1), F(1)) + (F(0),) * (r - 2)


@st.composite
def parameters(draw, datum, spread=3):
    """rho_g plus an integer vector; an SU trace shift with denominator 2-6
    (still on the lattice), or for B and D ambients sometimes half of
    (1, ..., 1), which moves D parameters off the lattice."""
    shift = [F(draw(st.integers(-spread, spread))) for _ in range(datum.rank)]
    kind = datum.ambient.kind
    if datum.group.family == Family.SU and draw(st.booleans()):
        t = F(draw(st.integers(-5, 5)), draw(st.integers(2, 6)))
        shift = [c + t for c in shift]
    elif kind in ("B", "D") and draw(st.booleans()):
        shift = [c + F(1, 2) for c in shift]
    return add(datum.rho_g, tuple(shift))


@st.composite
def directions(draw, datum):
    """Distinct nonzero magnitudes over a denominator 1-6, in any order and
    with any signs: regular for every root of every family."""
    den = draw(st.integers(1, 6))
    mags = draw(st.lists(st.integers(1, 12), min_size=datum.rank, max_size=datum.rank,
                         unique=True))
    return tuple(F(m * draw(st.sampled_from([1, -1])), den) for m in mags)


# -- the Fraction-dict ring ------------------------------------------------------


def fraction_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    terms = dict(p.terms)
    for exp, c in q.terms.items():
        total = terms.get(exp, 0) + c
        if total:
            terms[exp] = total
        else:
            del terms[exp]
    return MultiPoly(p.arity, terms)


def fraction_mul(p: MultiPoly, other) -> MultiPoly:
    if not isinstance(other, MultiPoly):
        scalar = F(other)
        if not scalar:
            return MultiPoly.zero(p.arity)
        return MultiPoly(p.arity, {e: c * scalar for e, c in p.terms.items()})
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in other.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return MultiPoly(p.arity, {e: c for e, c in out.items() if c})


def fraction_derivative(p: MultiPoly, i: int, k: int) -> MultiPoly:
    out = {}
    for exp, coeff in p.terms.items():
        if exp[i] >= k:
            out[exp[:i] + (exp[i] - k,) + exp[i + 1 :]] = coeff * math.perm(exp[i], k)
    return MultiPoly(p.arity, out)


def fraction_pow(p: MultiPoly, n: int) -> MultiPoly:
    return reduce(fraction_mul, [p] * n, MultiPoly.const(p.arity, 1))


def graded_rows_by_sorting(poly):
    """graded_rows with each key unpacked into its own list and sorted
    twice, by exponents and then by degree."""
    _, width, num = poly._int_form()
    mask, shifts = (1 << width) - 1, range(0, poly.arity * width, width)
    rows = [([key >> s & mask for s in shifts], c) for key, c in num.items()]
    rows.sort(key=itemgetter(0), reverse=True)
    rows.sort(key=lambda row: sum(row[0]))
    return rows


def view_repr(poly):
    """repr built from the Fraction view in graded-lex order."""
    if not poly.terms:
        return "MultiPoly(0)"
    bits = []
    for exp, c in sorted(poly.terms.items(), key=lambda t: gl_key(t[0])):
        mono = "*".join(f"X{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e)
        bits.append(f"{c}" + (f"*{mono}" if mono else ""))
    return "MultiPoly(" + " + ".join(bits) + ")"


def form_content(form):
    """(c, ints, pivot) of a linear form: its coefficients are c * ints,
    ints coprime integers whose first nonzero entry, the pivot, is
    positive."""
    coeffs = tuple(F(c) for c in form.coeffs)
    pivot = next(i for i, c in enumerate(coeffs) if c != 0)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    if ints[pivot] < 0:
        g = -g
    return F(g, lcm), [k // g for k in ints], pivot


def power_sum_image(poly, k):
    """sum_i d^k P / d X_i^k: the power-sum operator p_k applied to P."""
    out = MultiPoly.zero(poly.arity)
    for i in range(poly.arity):
        p = poly
        for _ in range(k):
            p = p.derivative(i)
        out = out + p
    return out


def evaluate(poly: MultiPoly, point) -> F:
    """The value at a point, summed over the Fraction terms."""
    pt = [F(x) for x in point]
    return sum(
        (c * math.prod(x**e for x, e in zip(pt, exp) if e) for exp, c in poly.terms.items()),
        F(0),
    )


# -- packed keys -------------------------------------------------------------------


def repack_keys(arity, width, new, num):
    """num with every field of width bits moved on its own to new bits."""
    mask = (1 << width) - 1
    pairs = [(width * i, new * i) for i in range(arity)]
    return {sum((key >> s & mask) << t for s, t in pairs): c for key, c in num.items()}


def act_on_keys(perm, signs, width, num):
    """The signed permutation X_perm[k] -> signs[k] X_k on packed keys of
    one width, as one pass of field masks grouped by distance."""
    field = (1 << width) - 1
    moves = {}
    for k, p in enumerate(perm):
        moves[k - p] = moves.get(k - p, 0) | field << (p * width)
    left = [(d * width, mask) for d, mask in moves.items() if d >= 0]
    right = [(-d * width, mask) for d, mask in moves.items() if d < 0]
    odd = sum(1 << (p * width) for p, s in zip(perm, signs) if s < 0)
    out = {}
    for key, c in num.items():
        new = 0
        for shift, mask in left:
            new |= (key & mask) << shift
        for shift, mask in right:
            new |= (key & mask) >> shift
        out[new] = -c if (key & odd).bit_count() & 1 else c
    return out


# -- the Fraction Horner pass ------------------------------------------------------


def fraction_horner(poly: MultiPoly, form: LinearForm) -> list[dict]:
    """[H_0, ..., H_top] of the Horner pass by the form's pivot j, its
    first nonzero coefficient, as term dicts over the variables other than
    X_j, renumbered in order.  poly = sum_d H_d-part X_j^d rewritten so that
    H_0 is the restriction to the hyperplane, and H_1 .. H_top carry the
    quotient by the form."""
    if poly.arity != len(form.coeffs):
        raise DimensionMismatch("polynomial and form arities differ")
    coeffs = tuple(F(c) for c in form.coeffs)
    j = next(i for i, c in enumerate(coeffs) if c)
    cj = coeffs[j]
    # X_i with i > j is variable i - 1 of H; every c_i with i < j is zero.
    steps = [(k, -c / cj) for k, c in enumerate(coeffs[j + 1 :], j) if c]
    layers: dict[int, dict] = {}
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


def fraction_quotient(poly: MultiPoly, form: LinearForm, hs: list[dict]) -> MultiPoly:
    """poly / form assembled from the Horner layers hs[1:]."""
    coeffs = tuple(F(c) for c in form.coeffs)
    j = next(i for i, c in enumerate(coeffs) if c)
    inv = 1 / coeffs[j]
    return MultiPoly(
        poly.arity,
        {
            exp[:j] + (d,) + exp[j:]: c * inv
            for d, layer in enumerate(hs[1:])
            for exp, c in layer.items()
        },
    )


def restrict(poly: MultiPoly, form: LinearForm) -> MultiPoly:
    """poly on the hyperplane form = 0, in the variables but the pivot."""
    return MultiPoly(poly.arity - 1, fraction_horner(poly, form)[0])


def divides(poly: MultiPoly, form: LinearForm) -> bool:
    return not fraction_horner(poly, form)[0]


def fraction_extract(poly: MultiPoly, candidates):
    """([(form, multiplicity)], cofactor): each candidate divided out in
    turn as often as it divides."""
    factors = []
    current = poly
    for form in candidates:
        mult = 0
        while not current.is_zero():
            hs = fraction_horner(current, form)
            if hs[0]:
                break
            current = fraction_quotient(current, form, hs)
            mult += 1
        if mult:
            factors.append((form, mult))
    return factors, current


# -- the Leibniz sum -------------------------------------------------------------


def perm_sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions % 2 else 1


def leibniz_det(rows):
    """det of a square matrix of MultiPoly entries, one signed product per
    permutation."""
    n = len(rows)
    total = MultiPoly.zero(rows[0][0].arity)
    for perm in permutations(range(n)):
        term = MultiPoly.const(total.arity, perm_sign(perm))
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def alternant_terms(arity, variables, exponents, support=()):
    """det [X_{variables[r]}^{exponents[c]}], the entry of row r and
    column c zero when bit r of support[c] is clear, as {exponent tuple:
    coefficient}; no support means no zero entries."""
    m = len(exponents)
    support = support or [(1 << m) - 1] * m
    terms = {}
    for perm in permutations(range(m)):
        if all(support[col] >> row & 1 for row, col in enumerate(perm)):
            exp = [0] * arity
            for row, col in enumerate(perm):
                exp[variables[row]] += exponents[col]
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + perm_sign(perm)
    return {e: c for e, c in terms.items() if c}


@lru_cache(maxsize=None)
def vandermonde_on(arity, indices):
    """prod (X_p - X_q) over the pairs p before q of the given 1-based
    indices (a tuple), in arity variables: the product of the differences
    on `Fraction` terms."""
    total = MultiPoly.const(arity, 1)
    for p, q in combinations(indices, 2):
        diff = {tuple(int(k == p - 1) for k in range(arity)): F(1),
                tuple(int(k == q - 1) for k in range(arity)): F(-1)}
        total = fraction_mul(total, MultiPoly(arity, diff))
    return total


# -- the chamber routine ---------------------------------------------------------


def dominate(blocks, gamma):
    """Reference chamber routine, held to the Weyl-group scan: (x, regular)
    with x in the Weyl group of the blocks, x.gamma dominant, and whether
    gamma is regular for the roots of the blocks.

    Works blockwise.  An A block sorts its coordinates in descending order;
    B, C and D blocks sort absolute values in descending order and make
    every sign positive.  Sign flips come in pairs in a D block, so an odd
    flip count flips the last slot back: a no-op on a zero coordinate,
    otherwise the last coordinate of x.gamma ends up negative.  gamma is
    regular when the sort keys are pairwise distinct and, in a B or C
    block, none is zero; x is then the unique element with x.gamma dominant.
    """
    rank = len(gamma)
    if sum(blk.size for blk in blocks) != rank:
        raise DimensionMismatch(f"weight length {rank} does not match the blocks")
    perm = list(range(rank))
    signs = [1] * rank
    regular = True
    for blk in blocks:
        idx = blk.indices
        signed = blk.kind != "A"
        keys = [abs(gamma[i]) if signed else gamma[i] for i in idx]
        order = sorted(range(blk.size), key=keys.__getitem__, reverse=True)
        for slot, b in zip(idx, order):
            perm[slot] = blk.start + b
            if signed and gamma[perm[slot]] < 0:
                signs[slot] = -1
        if blk.kind == "D" and signs[idx.start:idx.stop].count(-1) % 2:
            signs[idx[-1]] = -signs[idx[-1]]
        if len(set(keys)) != len(keys) or (blk.kind in ("B", "C") and 0 in keys):
            regular = False
    return WeylElement(tuple(perm), tuple(signs)), regular


def dominant_rep_g(datum, mu):
    """The W_g representative of a weight, or of integer numerators."""
    x, _ = dominate((datum.ambient,), mu)
    return x.apply(mu)


# -- simple roots and Weyl orbits --------------------------------------------------


def simple_roots_by_sums(datum):
    """The positive roots that are not a sum of two positive roots, in the
    order of the positive roots."""
    pos = set(datum.positive_roots)
    sums = {add(a, b) for a in pos for b in pos}
    return tuple(r for r in datum.positive_roots if r not in sums)


def reflection_orbit(datum, mu):
    """The W_g-orbit of mu, breadth first under the reflections of the
    simple roots, applied as Weyl elements."""
    gens = [reflection(alpha) for alpha in simple_roots_by_sums(datum)]
    orbit, frontier = {tuple(mu)}, [tuple(mu)]
    while frontier:
        found = [s.apply(nu) for nu in frontier for s in gens]
        frontier = [nu for nu in dict.fromkeys(found) if nu not in orbit]
        orbit.update(frontier)
    return orbit


def signed_k_orbit(datum, y):
    """[(sgn w, w y)] over `weyl_elements(datum, "k")`, in its order."""
    return [(w.sign(), w.apply(y)) for w in weyl_elements(datum, "k")]


# -- Freudenthal over the norm ball ----------------------------------------------


@lru_cache(maxsize=None)
def dominant_character(datum, highest):
    """Freudenthal multiplicities: every lattice point of the ball
    |mu + rho|^2 <= |highest + rho|^2 reached by simple-root steps, filtered
    to the dominant ones by their pairings with the simple roots and
    ordered by height in the simple-root basis; {integer form: multiplicity}, in ascending
    order of the weights.  A rootless datum has highest as its one weight.

    Runs on the numerators of the weights over the common denominator D of
    highest and rho_g, with the roots scaled by D too, so every norm and
    pairing is D^2 times the true one, and the height functional is scaled
    to integers."""
    simples = simple_roots_by_sums(datum)
    if not simples:
        return {int_form(highest): 1}
    den = math.lcm(*(c.denominator for c in highest + datum.rho_g))

    def scaled(w):
        return tuple(int(c * den) for c in w)

    def idot(a, b):
        return sum(map(mul, a, b))

    top, rho = scaled(highest), scaled(datum.rho_g)
    pos = [scaled(alpha) for alpha in datum.positive_roots]
    steps = [(alpha, idot(alpha, alpha)) for alpha in map(scaled, simples)]

    def norm(mu):
        shifted = [m + r for m, r in zip(mu, rho)]
        return idot(shifted, shifted)

    top_norm = norm(top)
    # |mu - alpha + rho|^2 = |mu + rho|^2 - 2 (mu + rho, alpha) + |alpha|^2
    seen = {top: top_norm}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            mu_rho = [m + r for m, r in zip(mu, rho)]
            for alpha, alpha_norm in steps:
                child_norm = seen[mu] - 2 * idot(mu_rho, alpha) + alpha_norm
                if child_norm <= top_norm:
                    child = tuple(m - a for m, a in zip(mu, alpha))
                    if child not in seen:
                        seen[child] = child_norm
                        nxt.append(child)
        frontier = nxt
    dominants = [mu for mu in seen if all(idot(mu, alpha) >= 0 for alpha, _ in steps)]
    height = solve_linear(simples, [F(1)] * len(simples))
    height = [int(h * math.lcm(*(h.denominator for h in height))) for h in height]
    dominants.sort(key=lambda mu: idot(sub(top, mu), height))
    mult = {}
    for mu in dominants:
        if mu == top:
            mult[mu] = 1
            continue
        mu_rho = [m + r for m, r in zip(mu, rho)]
        mu_norm = idot(mu_rho, mu_rho)
        acc = 0
        for alpha in pos:
            norm2 = idot(alpha, alpha)
            k = 1
            while True:
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                if norm(nu) > top_norm:
                    if k * norm2 > -idot(mu_rho, alpha):
                        break
                else:
                    m = mult.get(dominant_rep_g(datum, nu), 0)
                    if m:
                        acc += m * idot(nu, alpha)
                k += 1
        value = F(2 * acc, top_norm - mu_norm)
        if value:
            mult[mu] = int(value) if value.denominator == 1 else value
    return {int_form(tuple(F(n, den) for n in mu)): mult[mu] for mu in sorted(mult)}


def weight_multiset(highest, datum):
    """{weight: multiplicity} of V(highest): the W_g-orbits of the dominant
    weights of `dominant_character`."""
    for alpha in datum.positive_roots:
        p = pairing(highest, alpha)
        assert p >= 0 and p.denominator == 1
    elements = weyl_elements(datum, "g")
    out = {}
    for (den, mu), m in dominant_character(datum, tuple(highest)).items():
        assert type(m) is int
        for w in elements:
            out[tuple(F(n, den) for n in w.apply(mu))] = m
    return out


# -- the Weyl action and the index polynomial --------------------------------------


def act(w, poly):
    """w.P on the Fraction terms: X_k becomes signs X_perm, one sign flip
    per odd exponent on a negated coordinate."""
    inv = w.inverse()
    out = {}
    for exp, coeff in poly.terms.items():
        negate = sum(e for s, e in zip(inv.signs, exp) if s < 0) % 2 == 1
        out[tuple(exp[p] for p in w.perm)] = -coeff if negate else coeff
    return MultiPoly(poly.arity, out)


def index_polynomial(fam):
    """sum_w a_w (w^{-1}.D_k), one Fraction product and sum per term."""
    dk = weyl_dim_poly(fam.datum)
    acc = {}
    for w, a in fam.coeffs.items():
        for exp, c in act(w.inverse(), dk).terms.items():
            acc[exp] = acc.get(exp, 0) + a * c
    return MultiPoly(fam.datum.rank, acc)


# -- K-types and translation -----------------------------------------------------

# The package's lattices: integral coordinates, or for SU integral
# differences.  A datum given another predicate is read through it.
_PACKAGE_LATTICES = (groups._lattice_integral, groups._lattice_integral_differences)


def on_lattice(datum, w):
    if datum.lattice not in _PACKAGE_LATTICES:
        return datum.lattice(*int_form(w))
    if datum.group.family == Family.SU:
        return all((c - w[0]).denominator == 1 for c in w[1:])
    return all(c.denominator == 1 for c in w)


def k_type_sum(datum, terms):
    """{dominant parameter: coefficient} of sum c E(gamma): a gamma off
    Lambda + rho_g or compactly singular is zero, and a regular one is
    sign(x) times the K-type at x.gamma, x from the chamber routine."""
    acc = {}
    for gamma, c in terms:
        if len(gamma) != datum.rank:
            raise DimensionMismatch("parameter length must equal the rank")
        if on_lattice(datum, sub(gamma, datum.rho_g)):
            x, regular = dominate(datum.compact_blocks, gamma)
            if regular:
                dom = x.apply(gamma)
                acc[dom] = acc.get(dom, 0) + x.sign() * c
    return {gamma: c for gamma, c in acc.items() if c}


def tensor_virtual(datum, coeffs, mults):
    shifted = [(add(gamma, mu), c * m) for gamma, c in coeffs.items() for mu, m in mults.items()]
    return k_type_sum(datum, shifted)


def evaluate_index(fam, lam):
    assert on_lattice(fam.datum, sub(lam, fam.base))
    return k_type_sum(fam.datum, [(w.apply(lam), a) for w, a in fam.coeffs.items()])


def off_coset_points(fam, f_highest, lam):
    """lam and the points lam + mu, mu a weight of F, that are off the
    base coset base + Lambda."""
    points = [lam] + [add(lam, mu) for mu in weight_multiset(f_highest, fam.datum)]
    return [p for p in points if not on_lattice(fam.datum, sub(p, fam.base))]


def verify_translation(fam, f_highest, lam):
    """(holds, left side) of I(X_lam) (x) F = sum_mu I(X_{lam + mu})."""
    delta = weight_multiset(f_highest, fam.datum)
    left = tensor_virtual(fam.datum, evaluate_index(fam, lam), delta)
    right = [(gamma, m * c) for mu, m in delta.items()
             for gamma, c in evaluate_index(fam, add(lam, mu)).items()]
    return left == k_type_sum(fam.datum, right), left


def spin_weights(datum):
    """(plus, minus): rho_k - rho_g plus each subset sum of the noncompact
    positive roots, bucketed by the subset's size, even sizes in plus when
    there is an even number of noncompact roots and in minus otherwise."""
    noncompact = datum.noncompact_positive_roots
    base = sub(datum.rho_k, datum.rho_g)
    plus, minus = {}, {}
    flip = len(noncompact) % 2 == 1
    for size in range(len(noncompact) + 1):
        bucket = plus if (size % 2 == 0) != flip else minus
        for subset in combinations(noncompact, size):
            w = reduce(add, subset, base)
            bucket[w] = bucket.get(w, 0) + 1
    return plus, minus


def signed_spin_weights(datum):
    """{weight: its multiplicity in S+ minus that in S-}, zeros dropped."""
    plus, minus = spin_weights(datum)
    out = dict(plus)
    for w, m in minus.items():
        out[w] = out.get(w, 0) - m
    return {w: m for w, m in out.items() if m}


# -- sums of exponentials and the character ------------------------------------------


class FractionSeries:
    """Coefficients c_0 .. c_N of powers of t, in Fraction arithmetic."""

    def __init__(self, coeffs):
        self.coeffs = tuple(F(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def exponential(cls, rate, order: int) -> "FractionSeries":
        """e^{rate * t} truncated at the given order."""
        rate = F(rate)
        coeffs = [F(1)]
        for k in range(1, order + 1):
            coeffs.append(coeffs[-1] * rate / k)
        return cls(coeffs)

    def __mul__(self, other: "FractionSeries") -> "FractionSeries":
        n = min(self.order, other.order)
        out = [F(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return FractionSeries(out)

    def divide(self, other: "FractionSeries") -> "FractionSeries":
        """Series division; the divisor must have a nonzero constant term."""
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("divisor has zero constant term")
        n = min(self.order, other.order)
        out = [F(0)] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc -= other.coeffs[j] * out[k - j]
            out[k] = acc / other.coeffs[0]
        return FractionSeries(out)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if all are zero."""
        return next((k for k, c in enumerate(self.coeffs) if c), None)

    def coeff(self, k: int) -> F:
        if k < 0:
            return F(0)
        if k > self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]


def exponential_sum(freqs, order, start=0):
    """The coefficients of t^start .. t^(start + order) of sum c e^{rate t}
    over {rate: c}: sum c rate^k / k! at t^k, the rates n / D over one
    denominator D."""
    den = math.lcm(*(F(rate).denominator for rate in freqs))
    nums = [int(F(rate) * den) for rate in freqs]
    moments = list(freqs.values())  # c n^k at step k
    coeffs = []
    for k in range(start + order + 1):
        if k >= start:
            coeffs.append(F(sum(moments), den**k * math.factorial(k)))
        moments = [m * n for m, n in zip(moments, nums)]
    return FractionSeries(coeffs)


def exponential_valuation(freqs):
    """The lowest power of t in sum c e^{rate t}, None for the zero sum: n
    distinct rates with nonzero coefficients have a nonzero moment below
    n."""
    rates = [F(rate) for rate in freqs]
    moments = list(freqs.values())
    for k in range(len(rates)):
        if sum(moments):
            return k
        moments = [m * r for m, r in zip(moments, rates)]
    return None


def numerator_frequencies(datum, coeffs, y):
    """{rate: c} of sum_gamma c sum_{w in W_k} sgn(w) e^{(w gamma, y) t}."""
    freqs = {}
    for gamma, c in coeffs.items():
        for w in weyl_elements(datum, "k"):
            f = fdot(w.apply(gamma), y)
            freqs[f] = freqs.get(f, 0) + c * w.sign()
    return {f: c for f, c in freqs.items() if c}


def _weyl_denominator(datum, y, which, order):
    roots = datum.positive_roots if which == "g" else datum.compact_positive_roots
    # alpha(y) / 2 = k / den, with k an integer
    den = 2 * math.lcm(*(F(c).denominator for c in y))
    freqs = {0: 1}
    for alpha in roots:
        k = int(fdot(alpha, y) * den / 2)
        expanded = {f + k: c for f, c in freqs.items()}
        for f, c in freqs.items():
            expanded[f - k] = expanded.get(f - k, 0) - c
        freqs = {f: c for f, c in expanded.items() if c}
    r = len(roots)
    series = exponential_sum({F(f, den): c for f, c in freqs.items()}, r + order)
    assert not any(series.coeffs[:r]), "no zero of order r at t = 0"
    return r, FractionSeries(series.coeffs[r:])


def weyl_denominator_factored(datum, y, which, order):
    """(r, U): the product over the r positive roots of g or k of
    e^{alpha(y) t/2} - e^{-alpha(y) t/2}, expanded, is t^r U."""
    r, u = _weyl_denominator(datum, y, which, order)
    return r, TruncatedSeries(u.coeffs)


def character_series(fam, lam, y, order=8):
    """The Laurent expansion of the family character at exp(t y): the
    numerator's coefficients from its valuation, order + 1 of them, over U
    of g."""
    datum = fam.datum
    coeffs = evaluate_index(fam, lam)
    freqs = numerator_frequencies(datum, coeffs, y)
    if not freqs:
        return LaurentSeries.zero(order)
    val = exponential_valuation(freqs)
    r_g, u = _weyl_denominator(datum, y, "g", order)
    series = exponential_sum(freqs, order, start=val).divide(u)
    return LaurentSeries(val - r_g, TruncatedSeries(series.coeffs))


def leading_limit(fam, lam, y, d):
    datum = fam.datum
    gap = datum.r_g - datum.r_k
    # t^-d with d at or above the pole order is at or below the first
    # stored power, so order 0 reads it
    series = character_series(fam, lam, y, order=0)
    if d < series.pole_order:
        return LimitReport(d=d, value=None, expected=None, match=False, underflow=True)
    value = series.coeff(-d)
    expected = None
    if d > gap:
        expected = F(0)
    elif d == gap:
        ratio = F(1)
        for alpha in datum.compact_positive_roots:
            ratio *= fdot(alpha, y)
        for alpha in datum.positive_roots:
            ratio /= fdot(alpha, y)
        expected = ratio * evaluate(index_polynomial(fam), lam)
    match = expected is not None and value == expected
    return LimitReport(d=d, value=value, expected=expected, match=match)


def spin_character_series(datum, y, order):
    """sum over the spin weights of +-m e^{(w, y) t}, plus minus minus."""
    plus, minus = spin_weights(datum)
    freqs = {}
    for sign, weights in ((1, plus), (-1, minus)):
        for w, m in weights.items():
            f = fdot(w, y)
            freqs[f] = freqs.get(f, 0) + sign * m
    return TruncatedSeries(exponential_sum(freqs, order).coeffs)
