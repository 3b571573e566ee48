from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial, prod

import pytest

from diracindex import sun1
from diracindex.errors import (
    ClaimMismatch,
    DiracIndexError,
    IndexOutOfRange,
    NotInC,
    RankCapExceeded,
)
from diracindex.groups import DEFAULT_RANK_CAP
from diracindex.polynomials import (
    MultiPoly,
    divides_linear_form,
    extract_linear_factors,
    linear_divisors,
    linear_form_product,
    poly_det,
    restrict_to_hyperplane,
)
from diracindex.sun1 import (
    _root_forms,
    chamber_of,
    char_poly_det,
    degree_report,
    difference_form,
    extract_det_factors,
    gcd_factor_pairs,
    gcd_with_index,
    index_poly_restricted,
    su_n1_datum,
    tau_generated_pairs,
    tau_invariant,
    vandermonde,
)
from diracindex.weylaction import weyl_dim_poly
from reference import W, vandermonde_on



def test_chamber_of():
    # last coordinate below the compact block: holomorphic chamber
    assert chamber_of(W(3, 2, 1), 2) == 0
    # last coordinate above: antiholomorphic chamber
    assert chamber_of(W(3, 2, 4), 2) == 2
    assert chamber_of(W(3, 1, 2), 2) == 1
    # ties resolve to the smaller index
    assert chamber_of(W(3, 2, 2), 2) == 0
    assert chamber_of(W(2, 2, 2), 2) == 0
    assert chamber_of(W(3, 2, 3), 2) == 1
    with pytest.raises(NotInC):
        chamber_of(W(1, 2, 0), 2)
    with pytest.raises(NotInC):
        chamber_of(W(1, 2), 2)


def L(arity, i):
    return MultiPoly.variable(arity, i)


def test_det_4_2_displayed():
    l1, l2, l3, l4 = (L(4, i) for i in range(4))
    displayed = -((l1 - l2) * (l3 - l4) * (l1 + l2 - l3 - l4))
    assert char_poly_det(4, 2) == displayed


def test_det_5_2_displayed():
    l1, l2, l3, l4, l5 = (L(5, i) for i in range(5))
    quad = (
        l1 * l2 + l1 * l3 - l1 * l4 - l1 * l5 + l2 * l3
        - l2 * l4 - l2 * l5 - l3 * l4 - l3 * l5
        + l4 * l4 + l4 * l5 + l5 * l5
    )
    displayed = -((l1 - l2) * (l1 - l3) * (l2 - l3) * (l4 - l5) * quad)
    assert char_poly_det(5, 2) == displayed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_det_extreme_chambers_are_vandermonde(n):
    assert char_poly_det(n, 1) == vandermonde_on(n, tuple(range(1, n)))
    # the opposite extreme reduces to a Vandermonde too, with a sign that
    # alternates with n under the pinned determinant normalization
    tail = vandermonde_on(n, tuple(range(2, n + 1)))
    sign = 1 if n % 2 == 0 else -1
    assert char_poly_det(n, n - 1) == tail * sign


@pytest.mark.parametrize(
    "n_vars,indices",
    [(1, None), (4, None), (7, None), (5, [3, 1, 4]), (6, [6, 2, 5, 1]), (3, []), (3, [2])],
)
def test_vandermonde_matches_root_form_product(n_vars, indices):
    """The Vandermonde of all the variables, and the reference's on any
    of them in any order, is the product of the root forms."""
    idx = tuple(range(1, n_vars + 1)) if indices is None else tuple(indices)
    forms = [difference_form(n_vars, p, q) for p, q in combinations(idx, 2)]
    oracle = linear_form_product(n_vars, forms)
    assert vandermonde_on(n_vars, idx) == oracle
    if indices is None:
        assert vandermonde(n_vars) == oracle


@pytest.mark.parametrize("n,i", [(4, 2), (5, 2), (6, 3)])
def test_det_degree_and_homogeneity(n, i):
    det = char_poly_det(n, i)
    assert det.is_homogeneous()
    assert det.total_degree() == comb(n - 1, 2)


def test_det_bad_indices():
    with pytest.raises(IndexOutOfRange):
        char_poly_det(4, 0)
    with pytest.raises(IndexOutOfRange):
        char_poly_det(4, 4)
    with pytest.raises(IndexOutOfRange):
        char_poly_det(1, 1)


def test_divisibility_examples():
    det = char_poly_det(4, 2)
    assert divides_linear_form(det, difference_form(4, 1, 2))
    assert not divides_linear_form(det, difference_form(4, 1, 3))
    # the crossing restriction is a signed Vandermonde in the survivors
    rest = restrict_to_hyperplane(det, difference_form(4, 1, 3))
    vdm = vandermonde(3)
    assert rest == vdm or rest == -vdm
    assert not rest.is_zero()


def test_gcd_closed_forms():
    l1, l2, l3, l4 = (L(4, i) for i in range(4))
    assert gcd_with_index(4, 2) == (l1 - l2) * (l3 - l4)
    g51 = gcd_with_index(5, 1)
    assert g51 == vandermonde_on(5, (1, 2, 3, 4))
    for n in range(2, 7):
        for i in range(1, n):
            g = gcd_with_index(n, i)
            assert g.total_degree() == comb(i, 2) + comb(n - i, 2)


def test_gcd_is_the_product_of_the_block_vandermondes(monkeypatch):
    """The one block-diagonal alternant has the integer form of the product
    of the two Vandermondes for every n <= 8 and every i.  The sweep of
    divisions (checked by the tests above and below) is replaced by the
    divisors it finds."""
    claimed = []
    monkeypatch.setattr(
        sun1, "linear_divisors", lambda poly, candidates: [f for f in candidates if f in claimed]
    )
    gcd_with_index.cache_clear()
    try:
        for n in range(2, 9):
            for i in range(1, n):
                claimed[:] = [sun1._root_forms(n)[pair] for pair in gcd_factor_pairs(n, i)]
                low, high = tuple(range(1, n - i + 1)), tuple(range(n - i + 1, n + 1))
                product = vandermonde_on(n, low) * vandermonde_on(n, high)
                assert gcd_with_index(n, i)._int_form() == product._int_form()
    finally:
        gcd_with_index.cache_clear()


def test_tau_invariant_sets():
    tau42 = tau_invariant(4, 2)
    assert set(tau42) == {
        W(1, -1, 0, 0, 0),
        W(0, 0, 1, -1, 0),
    }
    # holomorphic chamber: every compact simple root
    tau0 = tau_invariant(4, 0)
    assert len(tau0) == 3
    # n = 2, i = 1 degenerates to the empty set
    assert tau_invariant(2, 1) == ()
    with pytest.raises(IndexOutOfRange):
        tau_invariant(4, 5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tau_generates_exactly_the_gcd_factors(n):
    for i in range(1, n):
        assert set(tau_generated_pairs(n, i)) == set(gcd_factor_pairs(n, i))


def test_degree_report_values():
    assert degree_report(4, 2) == {
        "deg_P": 3,
        "deg_Q": 6,
        "deg_R": 2,
        "deg_P_over_R": 1,
        "deg_Q_over_R": 4,
    }
    assert degree_report(5, 2) == {
        "deg_P": 6,
        "deg_Q": 10,
        "deg_R": 4,
        "deg_P_over_R": 2,
        "deg_Q_over_R": 6,
    }
    with pytest.raises(IndexOutOfRange):
        degree_report(4, 1)
    with pytest.raises(IndexOutOfRange):
        degree_report(3, 2)


def _weyl_dim_index_poly(n):
    """The index polynomial as D_k of the SU(n,1) datum, repacked to the
    first n variables once the lam_{n+1} field is checked empty."""
    den, width, num = weyl_dim_poly(su_n1_datum(n))._int_form()
    top = ((1 << width) - 1) << (n * width)
    assert not any(key & top for key in num)
    return MultiPoly._packed(n, den, width, num)


@pytest.mark.parametrize("n", range(1, 9))
def test_index_poly_restricted_is_scaled_vandermonde(n, monkeypatch):
    if n + 1 > DEFAULT_RANK_CAP:
        # the SU(n,1) datum has rank n + 1
        monkeypatch.setenv("DIRAC_MAX_RANK", str(n + 1))
    idx = index_poly_restricted.__wrapped__(n)
    assert idx == vandermonde(n) * F(1, prod(factorial(k) for k in range(n)))
    assert idx == _weyl_dim_index_poly(n)


def test_su_n1_datum_honours_the_rank_cap(monkeypatch):
    monkeypatch.delenv("DIRAC_MAX_RANK", raising=False)
    assert su_n1_datum(7).rank == 8
    with pytest.raises(RankCapExceeded, match="rank 9 exceeds cap 8; set DIRAC_MAX_RANK"):
        su_n1_datum(8)
    monkeypatch.setenv("DIRAC_MAX_RANK", "9")
    assert su_n1_datum(8).rank == 9


@pytest.mark.parametrize("n", range(2, 8))
def test_index_poly_restricted_has_every_root_form_once(n):
    forms = list(_root_forms(n).values())
    factors, cofactor = extract_linear_factors(index_poly_restricted(n), forms)
    assert factors == [(form, 1) for form in forms]
    assert cofactor.total_degree() == 0 and not cofactor.is_zero()


@pytest.mark.parametrize("n", range(2, 8))
def test_root_forms_are_one_read_only_table_by_pair(n):
    forms = _root_forms(n)
    assert list(forms) == list(combinations(range(1, n + 1), 2))
    assert all(form == difference_form(n, p, q) for (p, q), form in forms.items())
    assert _root_forms(n) is forms
    with pytest.raises(TypeError):
        forms[1, 2] = difference_form(n, 1, 2)


@pytest.mark.parametrize("n", [0, -1])
def test_index_poly_restricted_refuses_small_n(n):
    with pytest.raises(IndexOutOfRange):
        index_poly_restricted(n)


def test_extract_det_factors():
    factors, cofactor = extract_det_factors(4, 2)
    found = {tuple(f.coeffs): m for f, m in factors}
    assert found == {
        tuple(difference_form(4, 1, 2).coeffs): 1,
        tuple(difference_form(4, 3, 4).coeffs): 1,
    }
    l1, l2, l3, l4 = (L(4, i) for i in range(4))
    assert cofactor == -(l1 + l2 - l3 - l4)


@pytest.mark.parametrize("n", range(2, 8))
def test_det_factors_match_extraction_in_root_form_order(n):
    # probing the in-block forms first changes the cost, not the result
    for i in range(1, n):
        expected = extract_linear_factors(char_poly_det(n, i), list(_root_forms(n).values()))
        assert extract_det_factors(n, i) == expected


@pytest.mark.parametrize("n, i", [(7, 5), (7, 2), (6, 3), (8, 6)])
def test_det_factors_probe_the_larger_block_first(n, i, monkeypatch):
    seen, probed = [], []

    def spy(poly, candidates):
        seen.extend(candidates)
        return extract_linear_factors(poly, candidates)

    def divisor_spy(poly, candidates):
        probed.extend(candidates)
        return linear_divisors(poly, candidates)

    monkeypatch.setattr("diracindex.sun1.extract_linear_factors", spy)
    monkeypatch.setattr("diracindex.sun1.linear_divisors", divisor_spy)
    extract_det_factors(n, i)
    gcd_with_index.__wrapped__(n, i)
    forms = _root_forms(n)
    low = [forms[pair] for pair in combinations(range(1, n - i + 1), 2)]
    high = [forms[pair] for pair in combinations(range(n - i + 1, n + 1), 2)]
    # a tie keeps {1..n-i} first
    first = high + low if i > n - i else low + high
    assert seen[:len(first)] == first
    assert sorted(seen, key=list(forms.values()).index) == list(forms.values())
    assert probed == seen, "the gcd claim probes in the extraction's order"


def _det_oracle_4x4(i):
    """Independent construction of the 4x4 determinant by cofactor
    expansion along the first row, written out directly."""
    n = 4
    rows = []
    for power in (2, 1):
        rows.append([L(n, j) ** power for j in range(n)])
    rows.append([MultiPoly.const(n, 1 if j < n - i else 0) for j in range(n)])
    rows.append([MultiPoly.const(n, 1 if j >= n - i else 0) for j in range(n)])

    def det3(cols, r0):
        total = MultiPoly.zero(n)
        for pos, c in enumerate(cols):
            sub_cols = cols[:pos] + cols[pos + 1 :]
            minor = rows[r0 + 1][sub_cols[0]] * rows[r0 + 2][sub_cols[1]] - rows[
                r0 + 1
            ][sub_cols[1]] * rows[r0 + 2][sub_cols[0]]
            term = rows[r0][c] * minor
            total = total + (term if pos % 2 == 0 else -term)
        return total

    total = MultiPoly.zero(n)
    cols = (0, 1, 2, 3)
    for pos, c in enumerate(cols):
        sub = cols[:pos] + cols[pos + 1 :]
        term = rows[0][c] * det3(sub, 1)
        total = total + (term if pos % 2 == 0 else -term)
    return total


@pytest.mark.parametrize("i", [1, 2, 3])
def test_det_matches_cofactor_oracle(i):
    assert char_poly_det(4, i) == _det_oracle_4x4(i)


def test_degree_report_consistent_with_gk_dimension():
    # deg P = (number of positive roots) - (GK dimension 2n - 1)
    from diracindex.fixtures import su_n1_ds_family

    for n in (4, 5, 6):
        fam = su_n1_ds_family(n, 2)
        assert fam.gk_dim == 2 * n - 1
        r_g = comb(n + 1, 2)
        assert degree_report(n, 2)["deg_P"] == r_g - fam.gk_dim


def _explicit_char_matrix(n, i):
    """Power rows lam^(n-2), ..., lam^1, then the two indicator rows."""
    rows = [[L(n, j) ** power for j in range(n)] for power in range(n - 2, 0, -1)]
    rows.append([MultiPoly.const(n, 1 if j < n - i else 0) for j in range(n)])
    rows.append([MultiPoly.const(n, 1 if j >= n - i else 0) for j in range(n)])
    return rows


@pytest.mark.parametrize("n", range(2, 9))
def test_char_poly_det_matches_poly_det_of_explicit_matrix(n):
    # i(n-i) indicator column pairs, each with an (n-2)! term Vandermonde.
    for i in range(1, n):
        det = char_poly_det.__wrapped__(n, i)
        assert det == poly_det(_explicit_char_matrix(n, i))
        assert len(det._int_form()[2]) == i * (n - i) * factorial(n - 2)


def test_failed_gcd_claim_is_claim_mismatch(monkeypatch):
    assert issubclass(ClaimMismatch, ValueError)
    assert not issubclass(ClaimMismatch, DiracIndexError)
    gcd_with_index.cache_clear()
    monkeypatch.setattr("diracindex.sun1.gcd_factor_pairs", lambda n, i: [(1, 2)])
    with pytest.raises(ClaimMismatch, match="closed form"):
        gcd_with_index(4, 2)
    with pytest.raises(ClaimMismatch):
        degree_report(4, 2)


def _misreported_divisors(monkeypatch, edit):
    """Patch the sweep that `gcd_with_index` runs so that it reports
    edit(divisors) instead of the divisors it finds."""
    divisors = sun1.linear_divisors
    monkeypatch.setattr(
        "diracindex.sun1.linear_divisors", lambda poly, candidates: edit(divisors(poly, candidates))
    )
    gcd_with_index.cache_clear()


def test_extra_det_factor_is_claim_mismatch(monkeypatch):
    # one crossing form reported as a determinant divisor breaks the claim
    _misreported_divisors(monkeypatch, lambda found: found + [difference_form(4, 1, 3)])
    with pytest.raises(ClaimMismatch, match="closed form"):
        gcd_with_index(4, 2)
    with pytest.raises(ClaimMismatch, match="closed form"):
        degree_report(4, 2)


def test_missing_det_factor_is_claim_mismatch(monkeypatch):
    # one in-block divisor gone missing breaks the claim too
    _misreported_divisors(monkeypatch, lambda found: found[:-1])
    with pytest.raises(ClaimMismatch, match="closed form"):
        gcd_with_index(5, 2)
    with pytest.raises(ClaimMismatch, match="closed form"):
        degree_report(5, 2)


def test_failed_degree_claim_is_claim_mismatch(monkeypatch):
    monkeypatch.setattr("diracindex.sun1.comb", lambda a, b: 0)
    with pytest.raises(ClaimMismatch, match="degree identities"):
        degree_report(4, 2)


def test_default_su_n1_suite_runs_to_n_7():
    from diracindex.suites import su_n1_suite

    report = su_n1_suite()
    ids = [case.id for case in report.cases]
    assert report.all_pass and len(ids) == 57
    assert {"gcd/7,6", "divisibility/7,6", "degrees/7,5"} <= set(ids)
    assert not any(case_id.endswith(("/8", "/8,1")) for case_id in ids)
