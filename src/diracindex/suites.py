"""Named verification suites behind ``verify --suite ...``.

Each suite returns a SuiteReport whose cases are deterministic (seeded
randomness only) and order-independent.  The same functions back the
acceptance tests.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from .asymptotics import leading_limit
from .dirac import (
    IndexFamily,
    act_on_family,
    discrete_series_family,
    evaluate_index,
    evaluate_q,
    family_combination,
    index_polynomial,
    spin_character_series,
    verify_translation,
)
from .emit import dumps, limit_report_to_obj
from .errors import UnknownSuite
from .fixtures import (
    SL2,
    reference_table_row,
    sl2_families,
    sl2_simple_reflection,
    su21_ds_families,
    su_n1_ds_family,
)
from .groups import (
    Family,
    GroupId,
    build_root_datum,
    dot,
    weight_add,
    weyl_elements,
)
from .kmodules import dim_virtual, weyl_denominator_factored
from .polynomials import (
    MultiPoly,
    divides_linear_form,
    is_harmonic,
    restrict_to_hyperplane,
)
from .series import TruncatedSeries
from .springer import (
    Bipartition,
    Symbol,
    ambient_algebra,
    bipartition_of_symbol,
    partition_of_symbol,
    springer_row,
    symbol_of_bipartition,
    symbol_of_partition,
    table_groups,
)
from .sun1 import (
    char_poly_det,
    degree_report,
    difference_form,
    gcd_factor_pairs,
    gcd_with_index,
    index_poly_restricted,
    su_n1_datum,
    tau_generated_pairs,
    vandermonde,
)
from .value import Value
from .weylaction import act, orbit_span, weyl_dim_poly, weyl_dim_value

SUITE_NAMES = ("sl2", "translation", "ind-eq-char", "harmonic", "su-n1", "springer")
# Lattice points per translation case, and (lam, y) pairs per family of the
# ind-eq-char suite, whose draws start from IND_EQ_CHAR_SEED.
TRANSLATION_POINTS = 10
IND_EQ_CHAR_TRIALS = 20
IND_EQ_CHAR_SEED = 7113


def _stable_seed(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


class SuiteCase(Value):
    __slots__ = _fields = ("id", "passed", "detail")
    _defaults = {"detail": ""}


class SuiteReport(Value):
    """The cases of one suite run; mutable, so unhashable."""

    __slots__ = _fields = ("suite", "cases")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, suite: str, cases: list[SuiteCase] | None = None):
        self.suite = suite
        self.cases = [] if cases is None else cases

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.cases)

    def add(self, case_id: str, passed: bool, detail: str = ""):
        self.cases.append(SuiteCase(case_id, bool(passed), detail))

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [
                {"id": c.id, "pass": c.passed, "detail": c.detail}
                for c in self.cases
            ],
            "all_pass": self.all_pass,
        }


# -- rank one -----------------------------------------------------------


def sl2_suite() -> SuiteReport:
    report = SuiteReport("sl2")
    fams = sl2_families()
    names = ["F", "D+", "D-", "P"]
    s = sl2_simple_reflection()

    for name in names:
        q = index_polynomial(fams[name])
        expected = MultiPoly.const(2, SL2.q_values[name])
        report.add(
            f"index-polynomial/{name}",
            q == expected,
            f"Q_{name} = {q!r}",
        )

    # The reflection action on index families matches the recorded matrix.
    matrix = SL2.s_matrix
    for j, name in enumerate(names):
        acted = act_on_family(s, fams[name])
        combo = None
        for i, basis_name in enumerate(names):
            c = matrix[j][i]
            if c == 0:
                continue
            scaled = IndexFamily(
                fams[basis_name].datum,
                fams[basis_name].base,
                {w: c * a for w, a in fams[basis_name].coeffs.items()},
            )
            combo = scaled if combo is None else family_combination(combo, scaled)
        if combo is None:
            combo = IndexFamily(fams[name].datum, fams[name].base, {})
        report.add(
            f"s-action/{name}",
            dict(acted.coeffs) == dict(combo.coeffs),
            f"s.{name}: {sorted_coeff_str(acted)} vs {sorted_coeff_str(combo)}",
        )

    # Involution and content of the coherent continuation representation:
    # three trivial summands and one sign summand.
    m = [list(col) for col in matrix]  # m[j][i]: column j expresses s.names[j]
    square = [
        [
            sum(m[j][k] * m[k][i] for k in range(4))
            for i in range(4)
        ]
        for j in range(4)
    ]
    identity = [[1 if i == j else 0 for i in range(4)] for j in range(4)]
    report.add("s-action/involution", square == identity)
    trace = sum(matrix[j][j] for j in range(4))
    trivial = (4 + trace) // 2
    sign_count = 4 - trivial
    report.add(
        "decomposition/trivial+sign",
        (trivial, sign_count) == SL2.decomposition,
        f"{trivial} trivial + {sign_count} sign",
    )
    # Explicit invariant vectors: F + D+ + D-, D+ - D-, P; sign vector: F.
    combos = {
        "F+D+ +D-": (family_combination(family_combination(fams["F"], fams["D+"]), fams["D-"]), 0),
        "D+ -D-": (family_combination(fams["D+"], fams["D-"], 1, -1), 2),
        "P": (fams["P"], 0),
        "F": (fams["F"], 0),
    }
    for label, (fam, qval) in combos.items():
        report.add(
            f"q-map/{label}",
            index_polynomial(fam) == MultiPoly.const(2, qval),
        )

    # Associated-cycle multiplicities: Q = c1*m1 + c2*m2 with (c1, c2)
    # recorded; the discrete-series rows force the coefficients.
    c1, c2 = SL2.conjecture_coeffs
    conj_ok = all(
        SL2.q_values[name] == c1 * SL2.multiplicities[name][0] + c2 * SL2.multiplicities[name][1]
        for name in names
    )
    forced = (
        SL2.q_values["D+"] == c1 * SL2.multiplicities["D+"][0]
        and SL2.q_values["D-"] == c2 * SL2.multiplicities["D-"][1]
    )
    report.add("conjecture/coefficients", conj_ok and forced, f"(c1,c2)=({c1},{c2})")

    # Recorded index constants of the indecomposable extension: additivity
    # fails for the naive index, which is the point of the record.
    ip = SL2.ps_index_constants["P"]
    iv0 = SL2.ps_index_constants["V0"]
    ivm2 = SL2.ps_index_constants["V-2"]
    report.add(
        "ps-example/constants",
        ip == (-1, 1) and iv0 == (-1, 1) and ivm2 == (-1, -1),
        "I(P) = -C_1, I(V_0) = -C_1, I(V_-2) = -C_-1",
    )
    report.add(
        "ps-example/nonadditive",
        ip == iv0 and ip != _formal_sum(iv0, ivm2),
        "I(P) = I(V_0) while I(V_0) + I(V_-2) differs",
    )
    return report


def _formal_sum(a: tuple[int, int], b: tuple[int, int]):
    out: dict[int, int] = {}
    for coeff, weight in (a, b):
        out[weight] = out.get(weight, 0) + coeff
    return {w: c for w, c in out.items() if c != 0}


def sorted_coeff_str(fam: IndexFamily) -> str:
    return str(
        sorted(
            ((w.perm, w.signs, a) for w, a in fam.coeffs.items()),
        )
    )


# -- translation --------------------------------------------------------


def _lattice_offsets_rank(rank: int) -> list[tuple[int, ...]]:
    """TRANSLATION_POINTS distinct seeded offsets in [-3, 3]^rank, or all
    7^rank of them when there are fewer."""
    count = min(TRANSLATION_POINTS, 7**rank)
    rng = random.Random(11 * rank + 3)
    seen: list[tuple[int, ...]] = []
    while len(seen) < count:
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        if v not in seen:
            seen.append(v)
    return seen


def translation_suite() -> SuiteReport:
    report = SuiteReport("translation")
    sl2 = sl2_families()
    su21 = su21_ds_families()
    jobs: list[tuple[str, IndexFamily, tuple]] = []
    for name, fam in sl2.items():
        jobs.append((f"sl2/{name}/adjoint", fam, (1, -1)))
        jobs.append((f"sl2/{name}/standard", fam, (1, 0)))
    for i, fam in su21.items():
        jobs.append((f"su21/D{i}/adjoint", fam, (1, 0, -1)))
        jobs.append((f"su21/D{i}/standard", fam, (1, 0, 0)))
    for case_id, fam, highest in jobs:
        offsets = _lattice_offsets_rank(fam.datum.rank)
        ok = True
        for off in offsets:
            lam = weight_add(fam.base, tuple(Fraction(x) for x in off))
            if not verify_translation(fam, tuple(Fraction(x) for x in highest), lam):
                ok = False
                break
        report.add(case_id, ok, f"{len(offsets)} lattice points")
    return report


# -- character asymptotics ---------------------------------------------


def _limit_json(report) -> str:
    return dumps(limit_report_to_obj(report)).strip()


def _random_regular_direction(datum, rng: random.Random):
    traceless = datum.group.family == Family.SU
    while True:
        y = [Fraction(rng.randint(-9, 9)) for _ in range(datum.rank)]
        if traceless:
            total = sum(y, Fraction(0))
            y = [c - total / datum.rank for c in y]
        y = tuple(y)
        if all(dot(alpha, y) != 0 for alpha in datum.positive_roots):
            return y


def ind_eq_char_suite() -> SuiteReport:
    report = SuiteReport("ind-eq-char")
    sl2 = sl2_families()
    families = {
        "sl2/D+": sl2["D+"],
        "sl2/D-": sl2["D-"],
        "sl2/F": sl2["F"],
    }
    for i, fam in su21_ds_families().items():
        families[f"su21/D{i}"] = fam
    for name, fam in families.items():
        datum = fam.datum
        gap = datum.r_g - datum.r_k
        rng = random.Random(IND_EQ_CHAR_SEED + _stable_seed(name))
        ok = True
        detail = ""
        last_report = None
        for _ in range(IND_EQ_CHAR_TRIALS):
            off = tuple(Fraction(rng.randint(-4, 4)) for _ in range(datum.rank))
            lam = weight_add(fam.base, off)
            y = _random_regular_direction(datum, rng)
            at_gap = leading_limit(fam, lam, y, gap)
            above1 = leading_limit(fam, lam, y, gap + 1)
            above2 = leading_limit(fam, lam, y, gap + 2)
            last_report = at_gap
            if not (at_gap.match and above1.value == 0 and above2.value == 0):
                ok = False
                detail = f"failed at lam={lam}, y={y}: {_limit_json(at_gap)}"
                break
        if not detail:
            detail = f"{IND_EQ_CHAR_TRIALS} random (lam, y) pairs; last {_limit_json(last_report)}"
        report.add(name, ok, detail)

    # Spin parity convention: ch(S+ - S-) equals the Weyl denominator
    # quotient as an exact series, for every family of rank <= 4.
    for group in _small_groups(max_rank=4):
        datum = build_root_datum(group)
        rng = random.Random(IND_EQ_CHAR_SEED + datum.rank)
        y = _random_regular_direction(datum, rng)
        order = 12
        lhs = spin_character_series(datum, y, order)
        rg, ug = weyl_denominator_factored(datum, y, "g", order)
        rk, uk = weyl_denominator_factored(datum, y, "k", order)
        # d_g/d_k = t^(rg-rk) * ug/uk
        quot = ug.divide(uk)
        shifted = [Fraction(0)] * (rg - rk) + list(quot.coeffs)
        rhs = TruncatedSeries(tuple(shifted[: order + 1]))
        report.add(
            f"spin-ratio/{group.label()}",
            lhs == rhs,
            f"series to order {order}",
        )
    return report


def _small_groups(max_rank: int = 4) -> list[GroupId]:
    groups = []
    for g in table_groups(max_param=max_rank):
        if g.rank <= max_rank:
            groups.append(g)
    return groups


# -- harmonic / property suite ------------------------------------------


def fixture_families() -> dict[str, IndexFamily]:
    out = dict(sl2_families())
    out = {f"sl2/{k}": v for k, v in out.items()}
    for i, fam in su21_ds_families().items():
        out[f"su21/D{i}"] = fam
    # extra coverage for C and B types
    sp4 = build_root_datum(GroupId.sp_r(2))
    out["sp4/hol"] = discrete_series_family((Fraction(2), Fraction(1)), sp4, gk_dim=None)
    so23 = build_root_datum(GroupId.so_even_odd(1, 1))
    out["so23/hol"] = discrete_series_family(so23.rho_g, so23, gk_dim=None)
    return out


def harmonic_suite() -> SuiteReport:
    report = SuiteReport("harmonic")
    for name, fam in fixture_families().items():
        datum = fam.datum
        q = index_polynomial(fam)
        report.add(f"{name}/harmonic", is_harmonic(q, datum))
        hom_ok = q.is_zero() or (
            q.is_homogeneous() and q.total_degree() == datum.r_k
        )
        report.add(f"{name}/degree", hom_ok, f"deg {q.total_degree()}")
        span = orbit_span(weyl_dim_poly(datum), datum)
        report.add(f"{name}/span-membership", span.contains(q))
        equi_ok = True
        for w in weyl_elements(datum, "g"):
            lhs = index_polynomial(act_on_family(w, fam))
            rhs = act(w, q)
            if lhs != rhs:
                equi_ok = False
                break
        report.add(f"{name}/equivariance", equi_ok)
        if fam.gk_dim is not None and fam.gk_dim < datum.r_g - datum.r_k:
            report.add(f"{name}/vanishing", q.is_zero(), f"GK dim {fam.gk_dim}")
        # dimension identity on 200 lattice points
        rng = random.Random(_stable_seed(name))
        dim_ok = True
        for _ in range(200):
            off = tuple(Fraction(rng.randint(-5, 5)) for _ in range(datum.rank))
            lam = weight_add(fam.base, off)
            if q.evaluate(lam) != dim_virtual(evaluate_index(fam, lam)):
                dim_ok = False
                break
        report.add(f"{name}/dimension-identity", dim_ok, "200 lattice points")
    return report


# -- SU(n,1) -------------------------------------------------------------


def _displayed_det_4_2() -> MultiPoly:
    l1, l2, l3, l4 = (MultiPoly.variable(4, i) for i in range(4))
    return -((l1 - l2) * (l3 - l4) * (l1 + l2 - l3 - l4))


def _displayed_det_5_2() -> MultiPoly:
    l1, l2, l3, l4, l5 = (MultiPoly.variable(5, i) for i in range(5))
    quad = (
        l1 * l2
        + l1 * l3
        - l1 * l4
        - l1 * l5
        + l2 * l3
        - l2 * l4
        - l2 * l5
        - l3 * l4
        - l3 * l5
        + l4 * l4
        + l4 * l5
        + l5 * l5
    )
    return -((l1 - l2) * (l1 - l3) * (l2 - l3) * (l4 - l5) * quad)


def su_n1_suite(max_n: int = 7) -> SuiteReport:
    report = SuiteReport("su-n1")
    report.add("det/4,2", char_poly_det(4, 2) == _displayed_det_4_2())
    report.add("det/5,2", char_poly_det(5, 2) == _displayed_det_5_2())
    for n in range(2, max_n + 1):
        for i in range(1, n):
            try:
                gcd_with_index(n, i)  # raises if extraction != closed form
                ok = True
            except ValueError:
                ok = False
            report.add(f"gcd/{n},{i}", ok)

    # divisibility matrix: block pairs divide both polynomials, crossing
    # pairs divide neither the determinant nor drop from the gcd, and the
    # crossing restriction is a (signed) Vandermonde in the leftovers.
    for n in range(2, max_n + 1):
        forms = {
            (p, qq): difference_form(n, p, qq)
            for p in range(1, n + 1)
            for qq in range(p + 1, n + 1)
        }
        # the index polynomial contains every factor, whatever the chamber
        idxpoly = index_poly_restricted(n)
        idx_ok = all(divides_linear_form(idxpoly, form) for form in forms.values())
        vdm = vandermonde(n - 1)
        for i in range(1, n):
            det = char_poly_det(n, i)
            block = set(gcd_factor_pairs(n, i))
            ok = idx_ok and set(tau_generated_pairs(n, i)) == block
            for pair, form in forms.items():
                rest = restrict_to_hyperplane(det, form)
                if (pair in block) != rest.is_zero():
                    ok = False
                if pair not in block and not (rest == vdm or rest == -vdm):
                    ok = False
            report.add(f"divisibility/{n},{i}", ok)

    for n in range(4, max_n + 1):
        for i in range(2, n - 1):
            try:
                degree_report(n, i)
                ok = True
            except ValueError:
                ok = False
            report.add(f"degrees/{n},{i}", ok)

    # Holomorphic side of the associated-cycle comparison: the index
    # polynomial value, from the root products of D_k, equals the lowest
    # K-type dimension.
    for n in range(2, 5):
        datum = su_n1_datum(n)
        fam = su_n1_ds_family(n, 0)
        ok = True
        rng = random.Random(400 + n)
        for _ in range(10):
            head = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
            off = tuple(Fraction(x) for x in head) + (Fraction(0),)
            lam = weight_add(fam.base, off)
            # lowest K-type of the holomorphic discrete series at lam
            lkt = tuple(
                l + g - 2 * k for l, g, k in zip(lam, datum.rho_g, datum.rho_k)
            )
            dim_lkt = weyl_dim_value(datum, weight_add(lkt, datum.rho_k))
            if evaluate_q(fam, lam) != dim_lkt:
                ok = False
                break
        report.add(f"lowest-k-type/{n}", ok, "holomorphic chamber")
    return report


# -- classification table -------------------------------------------------


def springer_suite(max_param: int = 5) -> SuiteReport:
    report = SuiteReport("springer")
    b_sym = symbol_of_bipartition(Bipartition((1, 1), (1, 1)), "B")
    report.add(
        "symbol/B",
        b_sym == Symbol((0, 2, 3), (1, 2), "B"),
        f"{b_sym.top}/{b_sym.bottom}",
    )
    c_sym = symbol_of_bipartition(Bipartition((), (2, 1)), "C")
    report.add(
        "symbol/C",
        c_sym == Symbol((0, 1, 2), (1, 3), "C"),
        f"{c_sym.top}/{c_sym.bottom}",
    )
    for group in table_groups(max_param):
        expected_flag, expected_partition, expected_dim = reference_table_row(group)
        row = springer_row(group)
        ok = row.is_springer == expected_flag
        if expected_flag:
            ok = ok and row.partition == expected_partition
            ok = ok and row.orbit_dim == expected_dim
            # certify the catalog label by inverting the recorded partition
            kind, _ = ambient_algebra(group)
            if kind != "A":
                sym = symbol_of_partition(expected_partition, kind)
                ok = ok and bipartition_of_symbol(sym) == row.label
                ok = ok and partition_of_symbol(
                    symbol_of_bipartition(bipartition_of_symbol(sym), kind)
                ) == expected_partition
            else:
                ok = ok and row.label == expected_partition
        report.add(
            f"table/{group.label()}",
            ok,
            f"computed {'Yes' if row.is_springer else 'No'}"
            + (f" {row.partition} dim {row.orbit_dim}" if row.is_springer else ""),
        )
    return report


def run_suite(name: str, **kwargs) -> SuiteReport:
    runners = {
        "sl2": sl2_suite,
        "translation": translation_suite,
        "ind-eq-char": ind_eq_char_suite,
        "harmonic": harmonic_suite,
        "su-n1": su_n1_suite,
        "springer": springer_suite,
    }
    if name not in runners:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return runners[name](**kwargs)
