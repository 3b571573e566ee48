"""Discrete-series chamber combinatorics for SU(n,1): the determinant
character polynomial, its divisor structure against the index polynomial,
tau-invariants, and degree bookkeeping.

Coordinates: C^(n+1) with the compact block on the first n coordinates.
The closed dominant chamber C for K is lam_1 >= ... >= lam_n; it splits
into n+1 chambers D_0, ..., D_n according to where lam_{n+1} interleaves,
with D_0 the holomorphic one (lam_{n+1} <= lam_n) and D_n the
antiholomorphic one (lam_{n+1} >= lam_1).

The index polynomial is D_k for K = U(n), the Vandermonde of lam_1..lam_n
over a constant, so every root form lam_p - lam_q divides it exactly once;
only the character determinant is divided.  The gcd claim runs one sweep
of divisions by the root forms (`polynomials.linear_divisors`), with no
multiplicity and no cofactor, and `extract_det_factors` runs factor
extraction; both probe in the order of `_probe_order`.  Each term of the
determinant misses one variable of each block, and a probe refuses a
form that misses a term before its Horner pass (`polynomials`), so a
crossing form, and an in-block form probed again on the cofactor, costs
one scan of the keys: the Horner passes are the C(n-i, 2) + C(i, 2)
divisions, none leaving a remainder.  The
Vandermonde and the gcd are alternants of blocks that cover the variables
in order (`polynomials.alternant`); the determinant has zero entries off
any such layout and is expanded at once (`polynomials.masked_alternant`).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod
from types import MappingProxyType

from .errors import ClaimMismatch, IndexOutOfRange, NotInC
from .groups import GroupId, RootDatum, Weight, build_root_datum
from .polynomials import (
    LinearForm,
    MultiPoly,
    alternant,
    extract_linear_factors,
    linear_divisors,
    masked_alternant,
    # Unused here: bench/tests names sun1.poly_det; tools/census.py allows it, ROADMAP item 9
    poly_det,
)


def su_n1_datum(n: int) -> RootDatum:
    if n < 1:
        raise IndexOutOfRange("n must be at least 1")
    return build_root_datum(GroupId.su(n, 1))


def chamber_of(lam: Weight, n: int) -> int:
    """Index i of the chamber D_i containing lam; ties resolve downward."""
    if len(lam) != n + 1:
        raise NotInC(f"expected {n + 1} coordinates")
    for a in range(n - 1):
        if lam[a] < lam[a + 1]:
            raise NotInC("coordinates are not weakly decreasing on the compact block")
    last = lam[n]
    if last <= lam[n - 1]:
        return 0
    for i in range(1, n):
        if lam[n - i - 1] >= last >= lam[n - i]:
            return i
    return n


def difference_form(n_vars: int, p: int, q: int) -> LinearForm:
    """The form lam_p - lam_q in n_vars variables (1-based indices)."""
    coeffs = [0] * n_vars
    coeffs[p - 1], coeffs[q - 1] = 1, -1
    return LinearForm(tuple(coeffs))


@lru_cache(maxsize=None)
def char_poly_det(n: int, i: int) -> MultiPoly:
    """Exact expansion of the n x n character determinant in lam_1..lam_n.

    Rows are the power rows lam^(n-2), ..., lam^1 followed by the two
    indicator rows of the split {1..n-i} | {n-i+1..n}.  Its transpose is
    one alternant with zero entries (`polynomials.masked_alternant`),
    lam_l on row l: columns of exponents n-2, ..., 1 on every row, then
    two of exponent 0 on the disjoint rows {1..n-i} and {n-i+1..n}.  Each
    of its i (n-i) (n-2)! terms has coefficient +-1, and its degree is
    C(n-1, 2).
    """
    if n < 2 or not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"need n >= 2 and 1 <= i <= n-1, got n={n}, i={i}")
    every, low = (1 << n) - 1, (1 << (n - i)) - 1
    exponents = [*range(n - 2, 0, -1), 0, 0]
    return masked_alternant(n, exponents, [every] * (n - 2) + [low, every ^ low])


@lru_cache(maxsize=None)
def _root_forms(n: int) -> Mapping[tuple[int, int], LinearForm]:
    """Read-only {(p, q): lam_p - lam_q} for 1 <= p < q <= n, in the order
    of `combinations(range(1, n + 1), 2)`."""
    return MappingProxyType(
        {(p, q): difference_form(n, p, q) for p, q in combinations(range(1, n + 1), 2)}
    )


def vandermonde(n_vars: int) -> MultiPoly:
    """prod_{p<q} (lam_p - lam_q) over lam_1..lam_{n_vars}: the type-A
    alternant det(lam_a^{n_vars-b}), one block."""
    return alternant([range(n_vars - 1, -1, -1)])


def gcd_factor_pairs(n: int, i: int) -> list[tuple[int, int]]:
    """Index pairs (p,q) of the common-divisor product for chamber i."""
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"need 1 <= i <= n-1, got i={i}")
    pairs = [(p, q) for p in range(1, n - i + 1) for q in range(p + 1, n - i + 1)]
    pairs += [(p, q) for p in range(n - i + 1, n + 1) for q in range(p + 1, n + 1)]
    return pairs


@lru_cache(maxsize=None)
def index_poly_restricted(n: int) -> MultiPoly:
    """The SU(n,1) index polynomial in the first n variables only.

    It is D_k for K = U(n), which never involves lam_{n+1}:
    prod_{p<q} (lam_p - lam_q) / (q - p), the Vandermonde of n variables
    over 0! 1! ... (n-1)!.
    """
    if n < 1:
        raise IndexOutOfRange("n must be at least 1")
    return vandermonde(n) * Fraction(1, prod(factorial(k) for k in range(n)))


def _probe_order(n: int, i: int) -> list[LinearForm]:
    """The root forms in the order the determinant's divisors are probed:
    the in-block forms of `gcd_factor_pairs` first, so that the others
    meet a small quotient, and those of the larger block {1..n-i} or
    {n-i+1..n} before those of the other, as each division then leaves
    fewer terms for the next; a tie keeps {1..n-i} first."""
    forms = _root_forms(n)
    first = set(gcd_factor_pairs(n, i))

    def probe_rank(pair: tuple[int, int]) -> tuple[int, int]:
        if pair not in first:
            return (1, 0)
        return (0, -(n - i) if pair[1] <= n - i else -i)

    return [forms[pair] for pair in sorted(forms, key=probe_rank)]


@lru_cache(maxsize=None)
def gcd_with_index(n: int, i: int) -> MultiPoly:
    """Greatest common linear-divisor product of the character determinant
    and the index polynomial: the Vandermonde of {1..n-i} times that of
    {n-i+1..n}, the block-diagonal alternant of the two, which
    `polynomials.alternant` keeps as its blocks until a kernel reads its
    numerator.  Every root form divides the index polynomial, a multiple
    of the Vandermonde, exactly once, so the claim is checked on the
    determinant alone: the root forms dividing it, found by one sweep of
    divisions (`polynomials.linear_divisors`) in the probe order, must be
    those of the pairs of `gcd_factor_pairs`, which that order puts
    first.  A crossing form misses a term of the running quotient, which
    proves that it does not divide, so the sweep refuses it before any
    Horner pass and runs the pass only on the in-block forms, each one a
    division."""
    if n < 2:
        raise IndexOutOfRange("n must be at least 2")
    order = _probe_order(n, i)
    # the probe order lists the claimed divisors first, each form once
    if linear_divisors(char_poly_det(n, i), order) != order[: len(gcd_factor_pairs(n, i))]:
        raise ClaimMismatch("extracted common factor disagrees with the closed form")
    return alternant([range(n - i - 1, -1, -1), range(i - 1, -1, -1)])


def extract_det_factors(
    n: int, i: int
) -> tuple[list[tuple[LinearForm, int]], MultiPoly]:
    """Linear root-form factors of the character determinant, in `_root_forms`
    order, plus cofactor, extracted in the probe order of `_probe_order`.
    The factors are reported in `_root_forms` order and the cofactor is
    unique, so that order changes only the cost."""
    factors, cofactor = extract_linear_factors(char_poly_det(n, i), _probe_order(n, i))
    mult = dict(factors)
    return [(form, mult[form]) for form in _root_forms(n).values() if form in mult], cofactor


def tau_invariant(n: int, i: int) -> tuple[Weight, ...]:
    """Simple compact roots of chamber D_i, as weights in Q^(n+1).

    The simple roots of D_i are the consecutive differences of the chamber
    order; the compact ones are e_j - e_{j+1} for j != n - i.
    """
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"need 0 <= i <= n, got i={i}")
    out = []
    for j in range(1, n):
        if j == n - i:
            continue
        coords = [Fraction(0)] * (n + 1)
        coords[j - 1] = Fraction(1)
        coords[j] = Fraction(-1)
        out.append(tuple(coords))
    return tuple(out)


def tau_generated_pairs(n: int, i: int) -> list[tuple[int, int]]:
    """Pairs (p,q) of the positive roots generated by the tau-invariant:
    each simple root e_j - e_{j+1} of ``tau_invariant`` links j and j+1
    (counted from 1), and p < q pair up when links join them."""
    linked = {alpha.index(1) + 1 for alpha in tau_invariant(n, i)}
    runs = [[1]]
    for j in range(1, n):
        if j in linked:
            runs[-1].append(j + 1)
        else:
            runs.append([j + 1])
    return [pair for run in runs for pair in combinations(run, 2)]


def degree_report(n: int, i: int) -> dict[str, int]:
    """Verified degree identities for chamber i of SU(n,1)."""
    if n < 4 or not 2 <= i <= n - 2:
        raise IndexOutOfRange(f"need n >= 4 and 2 <= i <= n-2, got n={n}, i={i}")
    det = char_poly_det(n, i)
    index_poly = index_poly_restricted(n)
    common = gcd_with_index(n, i)
    deg_p = det.total_degree()
    deg_q = index_poly.total_degree()
    deg_r = common.total_degree()
    report = {
        "deg_P": deg_p,
        "deg_Q": deg_q,
        "deg_R": deg_r,
        "deg_P_over_R": deg_p - deg_r,
        "deg_Q_over_R": deg_q - deg_r,
    }
    expected = {
        "deg_P": comb(n - 1, 2),
        "deg_Q": comb(n, 2),
        "deg_R": comb(i, 2) + comb(n - i, 2),
        "deg_P_over_R": i * (n - i) - (n - 1),
        "deg_Q_over_R": i * (n - i),
    }
    if report != expected:
        raise ClaimMismatch(f"degree identities fail: {report} != {expected}")
    return report
