"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them all); every comparison is exact rational equality, tolerance zero.
Runtime bounds are part of the criteria where stated.
"""

import random
import time
from fractions import Fraction as F

from diracindex.groups import build_root_datum
from diracindex.polynomials import (
    LinearForm,
    MultiPoly,
    divides_linear_form,
    linear_form_product,
)
from diracindex.springer import (
    Bipartition,
    Symbol,
    _dual,
    _valid_nilpotent,
    ambient_algebra,
    bipartition_dim,
    springer_row,
    standard_tableaux_count,
    symbol_of_bipartition,
    table_groups,
)
from diracindex.suites import (
    harmonic_suite,
    ind_eq_char_suite,
    sl2_suite,
    springer_suite,
    su_n1_suite,
    translation_suite,
)
from diracindex.weylaction import orbit_span
from reference import divides, generator_forms, partitions_of, valid_nilpotent


def _report(number: int, label: str, passed: bool, elapsed: float | None = None):
    status = "PASS" if passed else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[{status}] criterion {number}: {label}{timing}")
    assert passed, f"criterion {number} failed: {label}"


def _failures(report):
    return [c.id for c in report.cases if not c.passed]


def test_criterion_1_sl2_suite():
    t0 = time.time()
    report = sl2_suite()
    elapsed = time.time() - t0
    ok = report.all_pass and elapsed < 1.0
    _report(1, f"rank-one suite, failures={_failures(report)}", ok, elapsed)


def test_criterion_2_springer_table():
    t0 = time.time()
    report = springer_suite(max_param=5)
    elapsed = time.time() - t0
    table_cases = [c for c in report.cases if c.id.startswith("table/")]
    ok = report.all_pass and len(table_cases) == len(table_groups(5))
    ok = ok and elapsed < 10.0
    _report(2, f"classification table <= 5, failures={_failures(report)}", ok, elapsed)


def test_criterion_3_displayed_symbols():
    b = symbol_of_bipartition(Bipartition((1, 1), (1, 1)), "B")
    c = symbol_of_bipartition(Bipartition((), (2, 1)), "C")
    ok = b == Symbol((0, 2, 3), (1, 2), "B") and c == Symbol((0, 1, 2), (1, 3), "C")
    _report(3, "displayed type-B and type-C symbols", ok)


def test_criterion_4_su_n1_claims():
    t0 = time.time()
    report = su_n1_suite(max_n=6)
    elapsed = time.time() - t0
    ok = report.all_pass and elapsed < 30.0
    _report(4, f"SU(n,1) determinant/gcd/degree claims, failures={_failures(report)}",
            ok, elapsed)


def test_criterion_5_index_equals_character_asymptotics():
    report = ind_eq_char_suite()
    _report(5, f"exact compact-Cartan limits, failures={_failures(report)}",
            report.all_pass)


def test_criterion_6_translation_principle():
    report = translation_suite()
    _report(6, f"translation identities, failures={_failures(report)}",
            report.all_pass)


def test_criterion_7_index_polynomial_properties():
    report = harmonic_suite()
    _report(7, f"harmonicity/degree/span/equivariance, failures={_failures(report)}",
            report.all_pass)


# -- criterion 8: oracle equivalences -------------------------------------


def test_criterion_8_oracle_equivalences():
    rng = random.Random(777)
    ok = True

    # (a) linear divisibility vs the Fraction Horner pass
    for trial in range(20):
        arity = rng.randint(2, 4)
        coeffs = [F(0)] * arity
        while all(c == 0 for c in coeffs):
            coeffs = [F(rng.randint(-2, 2)) for _ in range(arity)]
        form = LinearForm(tuple(coeffs))
        poly = MultiPoly.const(arity, 1)
        if trial % 2 == 0:
            poly = poly * form.to_poly()
        for _ in range(2):
            exp = tuple(rng.randint(0, 2) for _ in range(arity))
            poly = poly * MultiPoly(arity, {exp: F(rng.randint(1, 3))})
        if trial % 3 == 0:
            poly = poly + MultiPoly.const(arity, 1)
        ok = ok and divides_linear_form(poly, form) == divides(poly, form)

    # (b) parity validity vs the parity-rule reference, N <= 14
    for total in range(1, 15):
        for p in partitions_of(total):
            for kind in ("A", "B", "C", "D"):
                if _valid_nilpotent(p, kind, total) != valid_nilpotent(p, kind, total):
                    ok = False

    # (c) dual-partition involution, N <= 20
    for total in range(1, 21):
        parts = list(partitions_of(total))
        sample = parts if len(parts) <= 25 else rng.sample(parts, 25)
        for p in sample:
            if _dual(_dual(p)) != p:
                ok = False

    # (d) orbit-span dimension equals the catalog label dimension, rank <= 4
    for group in (g for g in table_groups(4) if g.rank <= 4):
        datum = build_root_datum(group)
        row = springer_row(group)
        generator = linear_form_product(datum.rank, generator_forms(datum))
        span = orbit_span(generator, datum)
        kind, _ = ambient_algebra(group)
        if kind == "A":
            expected = standard_tableaux_count(row.label)
        else:
            expected = bipartition_dim(row.label)
            if kind == "D" and row.label.alpha == row.label.beta:
                expected //= 2
        if span.dim != expected:
            ok = False

    _report(8, "division, parity, duality and span-dimension oracles", ok)
