"""Discrete-series chamber combinatorics for SU(n,1): the determinant
character polynomial, its divisor structure against the index polynomial,
tau-invariants, and degree bookkeeping.

Coordinates: C^(n+1) with the compact block on the first n coordinates.
The closed dominant chamber C for K is lam_1 >= ... >= lam_n; it splits
into n+1 chambers D_0, ..., D_n according to where lam_{n+1} interleaves,
with D_0 the holomorphic one (lam_{n+1} <= lam_n) and D_n the
antiholomorphic one (lam_{n+1} >= lam_1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ClaimMismatch, IndexOutOfRange, InternalInvariantError, NotInC
from .groups import GroupId, RootDatum, Weight, build_root_datum
from .polynomials import (
    LinearForm,
    MultiPoly,
    _packed_product,
    extract_linear_factors,
    linear_form_product,
    # Unused here: bench/tests names sun1.poly_det; tools/census.py allows it, ROADMAP item 9
    poly_det,
)
from .weylaction import weyl_dim_poly


def su_n1_datum(n: int) -> RootDatum:
    if n < 1:
        raise IndexOutOfRange("n must be at least 1")
    return build_root_datum(GroupId.su(n, 1), max_rank=max(8, n + 1))


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
    coeffs = [Fraction(0)] * n_vars
    coeffs[p - 1] = Fraction(1)
    coeffs[q - 1] = Fraction(-1)
    return LinearForm(tuple(coeffs))


@lru_cache(maxsize=None)
def char_poly_det(n: int, i: int) -> MultiPoly:
    """Exact expansion of the n x n character determinant in lam_1..lam_n.

    Rows are the power rows lam^(n-2), ..., lam^1 followed by the two
    indicator rows of the split {1..n-i} | {n-i+1..n}.  Laplace expansion
    along the indicator rows keeps only the column pairs j < n-i <= k
    (0-based), whose 2 x 2 indicator minor is 1; the complementary power
    minor is the monomial prod_{l != j,k} lam_l times a Vandermonde, so

        det = sum_{j < n-i <= k} (-1)^(j+k+1) (prod_{l != j,k} lam_l)
                  prod_{a < b; a,b not in {j,k}} (lam_a - lam_b).

    The sum runs on packed integer keys (see `polynomials`), with the
    field width of the total degree n - 2 + C(n-2, 2) = C(n-1, 2).
    """
    if n < 2 or not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"need n >= 2 and 1 <= i <= n-1, got n={n}, i={i}")
    degree = comb(n - 1, 2)
    width = max(degree, 1).bit_length()
    total: dict[int, int] = {}
    for j in range(n - i):
        for k in range(n - i, n):
            rest = [l for l in range(n) if l != j and l != k]
            monomial = sum(1 << (width * l) for l in rest)
            rows = []
            for pos, a in enumerate(rest):
                for b in rest[pos + 1 :]:
                    row = [0] * n
                    row[a], row[b] = 1, -1
                    rows.append(row)
            start = {monomial: -1 if (j + k) % 2 == 0 else 1}
            for key, c in _packed_product(start, rows, width).items():
                total[key] = total.get(key, 0) + c
    total = {key: c for key, c in total.items() if c}
    return MultiPoly._from_ints(n, width, total, degree=degree)


def _root_forms(n_vars: int, indices: list[int] | None = None) -> list[LinearForm]:
    """The forms lam_p - lam_q for p before q among the given 1-based indices."""
    idx = indices if indices is not None else list(range(1, n_vars + 1))
    return [
        difference_form(n_vars, idx[a], idx[b])
        for a in range(len(idx))
        for b in range(a + 1, len(idx))
    ]


def vandermonde(n_vars: int, indices: list[int] | None = None) -> MultiPoly:
    """prod_{p < q} (lam_p - lam_q) over the given 1-based indices."""
    return linear_form_product(n_vars, _root_forms(n_vars, indices))


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

    The compact Weyl dimension polynomial never involves lam_{n+1}, so
    dropping that variable is exact: its integer form is the one of n
    variables once the top field is checked empty.
    """
    den, width, num = weyl_dim_poly(su_n1_datum(n))._int_form()
    top = ((1 << width) - 1) << (n * width)
    if any(key & top for key in num):
        raise InternalInvariantError("index polynomial unexpectedly involves lam_{n+1}")
    return MultiPoly._packed(n, den, width, num)


@lru_cache(maxsize=None)
def _index_factors(n: int) -> tuple[tuple[LinearForm, int], ...]:
    """Root-form factors of the restricted index polynomial; they do not
    depend on the chamber, so every gcd_with_index(n, i) shares them."""
    factors, _ = extract_linear_factors(index_poly_restricted(n), _root_forms(n))
    return tuple(factors)


@lru_cache(maxsize=None)
def gcd_with_index(n: int, i: int) -> MultiPoly:
    """Greatest common linear-divisor product of the character determinant
    and the index polynomial, computed by factor extraction and checked
    against the closed-form block product."""
    if n < 2:
        raise IndexOutOfRange("n must be at least 2")
    candidates = _root_forms(n)
    det_factors, _ = extract_det_factors(n, i)
    det_mult, idx_mult = dict(det_factors), dict(_index_factors(n))
    common = linear_form_product(
        n,
        [
            form
            for form in candidates
            for _ in range(min(det_mult.get(form, 0), idx_mult.get(form, 0)))
        ],
    )
    closed = linear_form_product(
        n, [difference_form(n, p, q) for p, q in gcd_factor_pairs(n, i)]
    )
    if common != closed:
        raise ClaimMismatch("extracted common factor disagrees with the closed form")
    return closed


def extract_det_factors(
    n: int, i: int
) -> tuple[list[tuple[LinearForm, int]], MultiPoly]:
    """Linear root-form factors of the character determinant, plus cofactor."""
    return extract_linear_factors(char_poly_det(n, i), _root_forms(n))


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
    """Pairs (p,q) of the positive roots generated by the tau-invariant."""
    blocks: list[list[int]] = []
    current = [1]
    tau_positions = {j for j in range(1, n) if j != n - i}
    for j in range(1, n):
        if j in tau_positions:
            current.append(j + 1)
        else:
            blocks.append(current)
            current = [j + 1]
    blocks.append(current)
    pairs = []
    for block in blocks:
        pairs += [
            (block[a], block[b])
            for a in range(len(block))
            for b in range(a + 1, len(block))
        ]
    return pairs


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
