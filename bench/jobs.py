"""Seeded job lists for the three benchmark workloads, the calls that run
one job, and the correctness checks made outside the timed region.

A workload is an endless sequence of rounds.  Every round has the same
template of job classes; the seed picks the concrete input of each class
(which group, which parameter, which direction), cycling each class
through a seeded permutation so a run covers a class evenly.  Keeping the
template fixed keeps the cost of a run nearly independent of the seed.

Jobs call the package through module attributes (``sun1.char_poly_det``),
never through names bound here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from diracindex import (
    asymptotics,
    dirac,
    emit,
    fixtures,
    groups,
    kmodules,
    polynomials,
    springer,
    sun1,
)
from diracindex.groups import Family, GroupId, Weight

WORKLOADS = ("expand", "divide", "character")
DEFAULT_SEED = 1
# expand and divide start every job from cold caches; character keeps them.
CLEARS_CACHES = {"expand": True, "divide": True, "character": False}
SPIN_ORDER = 12
# Summed job time of one round on a 2-CPU x86-64 host with Python 3.11, at
# the commit that defined the benchmark.  A run executes run_rounds(workload,
# seconds) whole rounds, so its job set depends on the seed and --seconds
# only, never on the speed of the program: an order statistic such as
# job_s.tail can then only grow when some jobs get slower.
ROUND_S = {"expand": 6.0, "divide": 4.2, "character": 2.45}
# Six expand rounds hold twelve tier-2 and six tier-1 jobs, so the
# eleventh-slowest job is one of them whichever of the two tiers slows down.
MIN_ROUNDS = {"expand": 6, "divide": 4, "character": 4}


def run_rounds(workload: str, seconds: float) -> int:
    """Whole rounds a run of the workload executes for --seconds."""
    return max(MIN_ROUNDS[workload], round(seconds / ROUND_S[workload]))


@dataclass(frozen=True)
class Job:
    kind: str
    group: GroupId | None = None
    n: int = 0
    i: int = 0
    pair: tuple[int, ...] = ()
    lam: Weight = ()
    y: Weight = ()
    d: int = 0
    gap: int = 0
    module: str = ""
    points: tuple[Weight, ...] = ()

    def spec(self) -> str:
        """Canonical text of the job's inputs; keys the golden digests."""
        parts = [self.kind]
        if self.group is not None:
            parts.append(self.group.label())
        if self.n:
            parts.append(f"n={self.n},i={self.i}")
        if self.pair:
            parts.append("pair=" + ",".join(map(str, self.pair)))
        if self.lam:
            parts.append("lam=" + ",".join(map(str, self.lam)))
        if self.y:
            parts.append("y=" + ",".join(map(str, self.y)))
        if self.kind == "limit":
            parts.append(f"d={self.d}")
        if self.module:
            parts.append(self.module)
        for pt in self.points:
            parts.append("at=" + ",".join(map(str, pt)))
        return "|".join(parts)


# -- seeded inputs -------------------------------------------------------


def _rng(*key) -> random.Random:
    return random.Random(":".join(map(str, key)))


def _datum(group: GroupId):
    return groups.build_root_datum(group, max_rank=max(groups.DEFAULT_RANK_CAP, group.rank))


def regular_param(datum, rng: random.Random, spread: int = 3) -> Weight:
    """A g-regular parameter on the rho_g-shifted lattice."""
    while True:
        lam = tuple(r + rng.randint(-spread, spread) for r in datum.rho_g)
        if datum.is_g_regular(lam):
            return lam


def lattice_point(base: Weight, rng: random.Random, spread: int = 4) -> Weight:
    return tuple(b + rng.randint(-spread, spread) for b in base)


def signed_permutation(values, rng: random.Random, signs: bool = True) -> Weight:
    """The values in seeded order, each with a seeded sign when signs."""
    out = [Fraction(v) for v in values]
    rng.shuffle(out)
    return tuple(-v if signs and rng.random() < 0.5 else v for v in out)


# Magnitudes of the character workload's inputs.  Fixing them and drawing
# only order and signs keeps every seed's rationals, hence its cost, alike.
DIRECTION = (1, 3, 6, 10)
EVAL_OFFSET = (2, 1, 0, 0)
SHIFT_OFFSET = (1, 0, 0, 0)


def regular_direction(datum, rng: random.Random) -> Weight:
    """A direction y with alpha(y) != 0 for every root (traceless for SU)."""
    y = signed_permutation(DIRECTION[: datum.rank], rng)
    if datum.group.family == Family.SU:
        mean = sum(y, Fraction(0)) / datum.rank
        y = tuple(c - mean for c in y)
    if any(groups.dot(alpha, y) == 0 for alpha in datum.positive_roots):
        raise ValueError(f"direction {y} is singular")
    return y


def offset(datum, base: Weight, values, rng: random.Random) -> Weight:
    """base plus a seeded signed permutation of values that is regular for
    K, so the family's index there is nonzero and every job does the same
    work; base itself (regular) when 50 draws all miss."""
    for _ in range(50):
        moved = signed_permutation(values[: len(base)], rng)
        lam = tuple(b + v for b, v in zip(base, moved))
        if datum.is_k_regular(lam):
            return lam
    return base


def module_highest(datum, module: str) -> Weight:
    """Highest weight of the standard or adjoint module of the ambient algebra."""
    r = datum.rank
    one, zero = Fraction(1), Fraction(0)
    kind = datum.ambient.kind
    if module == "standard":
        return (one,) + (zero,) * (r - 1)
    if kind == "A":
        return (one,) + (zero,) * (r - 2) + (-one,)
    if kind == "C":
        return (Fraction(2),) + (zero,) * (r - 1)
    return (one, one) + (zero,) * (r - 2)


class _Cycle:
    """Seeded permutation of a job class, consumed one member per round."""

    def __init__(self, members, rng: random.Random):
        self.members = list(members)
        rng.shuffle(self.members)

    def __getitem__(self, k: int):
        return self.members[k % len(self.members)]


# Expand jobs in cost tiers, measured cold on a 2-CPU x86-64 host with
# Python 3.11: every tier holds jobs of similar cost, so a round costs about
# the same whatever members the seed picks.  The median job of a run falls
# in tier 5 and the tail in tier 2.
EXPAND_TIERS = {
    # springer rows of rank 11 (86,400-term generator), 1.3-1.6 s
    "tier1": ["row SU(5,6)", "row SOe(10,12)", "row SOe(12,11)", "row Sp(5,6)",
              "row SOe(10,13)"],
    # rank-7 index polynomials with a U(7) compact part (5040 terms), 1.1 s
    "tier2": ["ipoly Sp(14,R)", "ipoly SO*(14)"],
    # 0.22-0.39 s
    "tier3": ["row SU(5,5)", "row SOe(10,11)", "row SOe(10,10)", "row Sp(5,5)",
              "row SU(4,6)", "row SOe(12,1)", "row SOe(12,3)", "row SOe(12,5)",
              "row SOe(6,12)", "row Sp(1,6)", "row SOe(2,12)", "row Sp(2,6)",
              "row SOe(4,12)", "row SOe(2,13)", "row SOe(12,7)", "row SOe(12,9)",
              "row Sp(3,6)", "row SOe(4,13)", "ipoly SOe(2,13)", "ipoly SOe(2,12)",
              "ipoly SOe(12,3)", "ipoly SOe(12,1)", "ipoly Sp(1,6)"],
    # 0.11-0.15 s
    "tier4": ["row SU(2,6)", "row SU(3,6)", "ipoly SO*(12)", "ipoly Sp(12,R)"],
    # 0.07-0.11 s; the median job of a run
    "tier5": ["row SU(4,5)", "row Sp(12,R)", "row Sp(4,5)", "row SOe(8,11)",
              "row SU(1,6)", "row SO*(12)", "ipoly SU(1,6)", "ipoly Sp(2,5)"],
    # 0.03-0.07 s
    "tier6": ["row SOe(4,10)", "row SOe(2,10)", "row Sp(1,5)", "row SOe(10,7)",
              "row SOe(4,11)", "row SOe(2,11)", "row Sp(2,5)", "row SOe(10,9)",
              "row SOe(6,11)", "row Sp(3,5)", "row SOe(8,10)", "row SOe(6,10)",
              "ipoly SOe(2,11)", "ipoly SOe(6,8)", "ipoly SOe(10,1)", "ipoly SU(2,5)",
              "ipoly SOe(8,7)", "ipoly SOe(2,10)", "ipoly SOe(6,9)", "ipoly SOe(10,3)",
              "ipoly Sp(1,5)", "ipoly Sp(3,4)", "ipoly SOe(10,5)", "ipoly SOe(4,10)",
              "ipoly SOe(4,11)"],
}
# Left out of the timed mix: they fall between tiers (DESIGN.json,
# excluded_from_timed_mix).
EXPAND_EXCLUDED = ["row SOe(6,13)", "row SOe(8,13)", "row SOe(8,12)", "row Sp(4,6)",
                   "ipoly SOe(14,1)"]
# Jobs per round drawn from each tier; tier7 is every remaining row of
# rank <= 11 and index polynomial of rank 5-7, all under 0.03 s.
EXPAND_ROUND = {"tier1": 1, "tier2": 2, "tier3": 2, "tier4": 1, "tier5": 4, "tier6": 3,
                "tier7": 2}


def expand_pool() -> list[str]:
    """Every expand job the workload definition admits, as 'kind label'."""
    rows = [f"row {g.label()}" for g in springer.table_groups(6) if g.rank <= 11]
    ipolys = [f"ipoly {g.label()}" for g in springer.table_groups(7) if 5 <= g.rank <= 7]
    return rows + ipolys


def _expand_classes(seed: int) -> dict[str, _Cycle]:
    rng = _rng("expand", seed, "classes")
    labels = {g.label(): g for g in springer.table_groups(7)}
    tiers = dict(EXPAND_TIERS)
    taken = set(EXPAND_EXCLUDED).union(*tiers.values())
    tiers["tier7"] = [job for job in expand_pool() if job not in taken]
    classes = {}
    for name, members in tiers.items():
        parsed = [(kind, labels[label]) for kind, label in (m.split(" ") for m in members)]
        classes[name] = _Cycle(parsed, rng)
    return classes


def _expand_round(seed: int, k: int, classes) -> list[Job]:
    rng = _rng("expand", seed, k)
    out = []
    for name, count in EXPAND_ROUND.items():
        for slot in range(count):
            kind, group = classes[name][k * count + slot]
            if kind == "row":
                out.append(Job("row", group=group))
                continue
            lam = regular_param(_datum(group), rng)
            points = tuple(lattice_point(lam, rng) for _ in range(3))
            out.append(Job("ipoly", group=group, lam=lam, points=points))
    rng.shuffle(out)
    return out


# The n = 7 factor extractions cost 0.43, 0.81, 1.29, 1.70, 1.58 and 0.50 s
# for i = 1..6; these pairs each sum to about 2.1 s.
FACTOR7_PAIRS = [(4, 1), (5, 6), (3, 2)]


def _divide_classes(seed: int) -> dict[str, _Cycle]:
    # The n = 6 gcd and degree reports (0.49-0.62 s) set job_s.tail; cycling
    # each over i = 2..4 gives every run of six rounds the same multiset of
    # them, whatever the seed.
    rng = _rng("divide", seed, "classes")
    return {
        "factor7": _Cycle(FACTOR7_PAIRS, rng),
        "gcd6": _Cycle((2, 3, 4), rng),
        "deg6": _Cycle((2, 3, 4), rng),
    }


def _div_job(n: int, rng: random.Random) -> Job:
    p = rng.randint(1, n - 1)
    q = rng.randint(p + 1, n)
    return Job("div", n=n, i=rng.randint(1, n - 1), pair=(p, q))


# The median block of every divide round: one request repeated, so the
# median job of a run is always the same request at the same cost.
MEDIAN_BLOCK = (Job("gcd", n=5, i=2), 6)


def _divide_round(seed: int, k: int, classes) -> list[Job]:
    """21 jobs: two n = 7 factor extractions (0.4-1.7 s), the costlier
    n = 6 requests, the median block (0.076 s each) and cheap n <= 6
    requests.

    gcd_with_index and degree_report at n = 7 take 4-5.5 s each and stay out
    of the timed mix (DESIGN.json, excluded_from_timed_mix); n = 7 enters
    through factor extraction and single divisibility checks.
    """
    rng = _rng("divide", seed, k)
    out = [Job("factor", n=7, i=i) for i in classes["factor7"][k]]
    out += [
        Job("gcd", n=6, i=classes["gcd6"][k]),
        Job("deg", n=6, i=classes["deg6"][k]),
        _div_job(7, rng),
        _div_job(7, rng),
        Job("factor", n=6, i=rng.randint(2, 4)),
    ]
    block, repeats = MEDIAN_BLOCK
    out += [block] * repeats
    out += [
        _div_job(6, rng),
        _div_job(6, rng),
        Job("factor", n=5, i=rng.randint(1, 4)),
        _div_job(5, rng),
        Job("factor", n=4, i=rng.randint(1, 3)),
        Job("gcd", n=4, i=rng.randint(1, 3)),
        Job("deg", n=4, i=2),
        _div_job(4, rng),
    ]
    rng.shuffle(out)
    return out


def character_groups(seed: int) -> list[GroupId]:
    """One group per family: rank 3 for the type A and B ambients, rank 4
    for C and D.  Splits of one rank differ in cost by up to 40%, so only
    the mirror-image SU splits are left to the seed."""
    su_p = _rng("character", seed, "groups").randint(1, 2)
    return [
        GroupId.su(su_p, 3 - su_p),
        GroupId.so_even_odd(2, 1),
        GroupId.sp_r(4),
        GroupId.sp_pq(1, 3),
        GroupId.so_even_even(2, 2),
        GroupId.so_star(4),
    ]


# Inputs per group in the character pool: one per round of a run at
# --seconds 24 (run_rounds), so such a run uses every input once.
CHARACTER_POOL = 10


def _character_classes(seed: int) -> dict:
    """{group: (datum, base, cycle of per-round inputs)}.

    The base point of each group's discrete-series family is a fixed Weyl
    translate of rho_g, and each group has a fixed pool of CHARACTER_POOL
    inputs (evaluation point, direction, translation point, spin
    direction); the seed picks the order in which the rounds use them.
    The cost of a warm leading_limit varies 2.5-fold with (lam, y) and
    with the base's chamber, so a freshly drawn set of inputs would move
    job_s.tail with the seed.  Holding the data keeps round generation
    from touching the package caches."""
    order = _rng("character", seed, "order")
    out = {}
    for group in character_groups(seed):
        datum = _datum(group)
        rng = _rng("character", "pool", group.label())
        base = signed_permutation(datum.rho_g, rng, datum.ambient.kind != "A")
        pool = [
            (offset(datum, base, EVAL_OFFSET, rng), regular_direction(datum, rng),
             offset(datum, base, SHIFT_OFFSET, rng), regular_direction(datum, rng))
            for _ in range(CHARACTER_POOL)
        ]
        out[group] = (datum, base, _Cycle(pool, order))
    return out


def _character_round(seed: int, k: int, classes) -> list[Job]:
    out = []
    for group, (datum, base, inputs) in classes.items():
        gap = datum.r_g - datum.r_k
        lam, y, shift, spin_y = inputs[k]
        for d in (gap, gap + 1, gap + 2):
            out.append(Job("limit", group=group, lam=base, y=y, d=d, gap=gap, points=(lam,)))
        for module in ("standard", "adjoint"):
            out.append(Job("translate", group=group, lam=base, module=module, points=(shift,)))
        out.append(Job("spin", group=group, y=spin_y))
    _rng("character", seed, k).shuffle(out)
    return out


_ROUNDS = {
    "expand": (_expand_classes, _expand_round),
    "divide": (_divide_classes, _divide_round),
    "character": (_character_classes, _character_round),
}


def rounds(workload: str, seed: int):
    """Endless iterator over the seeded rounds of a workload."""
    make_classes, make_round = _ROUNDS[workload]
    classes = make_classes(seed)
    k = 0
    while True:
        yield make_round(seed, k, classes)
        k += 1


# -- running one job ---------------------------------------------------------


def _poly_text(poly) -> str:
    return emit.dumps({"type": "polynomial", **emit.poly_to_obj(poly)})


def _weight_text(w: Weight) -> list[str]:
    return [emit.frac_str(c) for c in w]


def run_job(job: Job):
    """Run one job; return (emitted text, data the checks need)."""
    kind = job.kind
    if kind == "row":
        row = springer.springer_row(job.group)
        return emit.springer_rows_to_csv([row]), row
    if kind == "ipoly":
        fam = dirac.discrete_series_family(job.lam, _datum(job.group))
        poly = dirac.index_polynomial(fam)
        return _poly_text(poly), (fam, poly)
    if kind in ("factor", "gcd", "deg", "div"):
        return _run_sun1(job)
    datum = _datum(job.group)
    if kind == "limit":
        fam = dirac.discrete_series_family(job.lam, datum)
        report = asymptotics.leading_limit(fam, job.points[0], job.y, job.d)
        return emit.emit(report, "json"), report
    if kind == "translate":
        fam = dirac.discrete_series_family(job.lam, datum)
        highest = module_highest(datum, job.module)
        holds = dirac.verify_translation(fam, highest, job.points[0])
        text = emit.dumps({
            "type": "translation",
            "group": job.group.label(),
            "highest": _weight_text(highest),
            "lam": _weight_text(job.points[0]),
            "holds": holds,
        })
        return text, holds
    if kind == "spin":
        lhs = dirac.spin_character_series(datum, job.y, SPIN_ORDER)
        text = emit.dumps({"type": "series", "coeffs": [emit.frac_str(c) for c in lhs.coeffs]})
        return text, lhs.coeffs
    raise ValueError(f"unknown job kind {kind!r}")


def _run_sun1(job: Job):
    n, i = job.n, job.i
    det = sun1.char_poly_det(n, i)
    if job.kind == "factor":
        factors, cofactor = sun1.extract_det_factors(n, i)
        obj = {"type": "polynomial", **emit.poly_to_obj(det)}
        obj["factors"] = [
            {"form": [str(c) for c in form.coeffs], "mult": m} for form, m in factors
        ]
        obj["cofactor"] = emit.poly_to_obj(cofactor)
        return emit.dumps(obj), (det, factors, cofactor)
    if job.kind == "gcd":
        common = sun1.gcd_with_index(n, i)
        return _poly_text(common), common
    if job.kind == "deg":
        report = sun1.degree_report(n, i)
        return emit.dumps({"type": "degree_report", "n": n, "i": i, **report}), report
    form = sun1.difference_form(n, *job.pair)
    rest = polynomials.restrict_to_hyperplane(det, form)
    divides = polynomials.divides_linear_form(det, form)
    text = emit.dumps({
        "type": "divisibility",
        "n": n,
        "i": i,
        "form": [str(c) for c in form.coeffs],
        "divides": divides,
        "restriction": emit.poly_to_obj(rest),
    })
    return text, (rest, divides)


# -- checks outside the timed region ----------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(job: Job, data) -> str | None:
    """None when the job's output is right, else a one-line reason."""
    kind = job.kind
    if kind == "row":
        expected = fixtures.reference_table_row(job.group)
        got = (data.is_springer, data.partition, data.orbit_dim)
        return None if got == expected else f"row {got} != reference {expected}"
    if kind == "ipoly":
        fam, poly = data
        for pt in job.points:
            dim = kmodules.dim_virtual(dirac.evaluate_index(fam, pt))
            if poly.evaluate(pt) != dim:
                return f"Q{pt} != dim of the index {dim}"
        return None
    if kind == "factor":
        det, factors, cofactor = data
        product = cofactor
        for form, mult in factors:
            product = product * form.to_poly() ** mult
        return None if product == det else "factors times cofactor != determinant"
    if kind == "gcd":
        expected = math.comb(job.i, 2) + math.comb(job.n - job.i, 2)
        return None if data.total_degree() == expected else "gcd has the wrong degree"
    if kind == "deg":
        n, i = job.n, job.i
        ok = data["deg_P"] == math.comb(n - 1, 2) and data["deg_Q"] == math.comb(n, 2)
        return None if ok else f"degree report {data}"
    if kind == "div":
        rest, divides = data
        in_block = tuple(job.pair) in set(sun1.gcd_factor_pairs(job.n, job.i))
        if divides != in_block or divides != rest.is_zero():
            return f"divisibility {divides} disagrees with the block structure"
        if not divides:
            vdm = sun1.vandermonde(job.n - 1)
            if rest != vdm and rest != -vdm:
                return "crossing restriction is not a signed Vandermonde"
        return None
    if kind == "limit":
        gap = job.gap
        if job.d == gap and not data.match:
            return "limit at d = gap does not match root ratio times Q(lam)"
        if job.d > gap and data.value != 0:
            return f"limit above the gap is {data.value}, not 0"
        return None
    if kind == "translate":
        return None if data else "translation identity fails"
    if kind == "spin":
        datum = _datum(job.group)
        rg, ug = kmodules.weyl_denominator_factored(datum, job.y, "g", SPIN_ORDER)
        rk, uk = kmodules.weyl_denominator_factored(datum, job.y, "k", SPIN_ORDER)
        quotient = [Fraction(0)] * (rg - rk) + list(ug.divide(uk).coeffs)
        if tuple(data) != tuple(quotient[: SPIN_ORDER + 1]):
            return "ch(S+ - S-) != d_g/d_k"
        return None
    return f"no check for job kind {kind!r}"
