"""Command-line front end.

Exit codes: 0 success / all cases pass, 1 verification failure (a
failed suite case, or a ClaimMismatch printed as one `error:` line),
2 usage error (an argparse error, or a DiracIndexError printed as one
`error:` line), 3 internal error (an InternalInvariantError, printed as
one `internal error:` line; a bug in the package, please report it).
Only long option names exist.  The environment variable DIRAC_MAX_RANK
overrides the rank cap, which also bounds the `--n` of `char-poly` and
`gcd`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .dirac import discrete_series_family, index_polynomial
from .emit import (
    TAGGED_SHAPES,
    check_tagged,
    dumps,
    emit,
    factored_from_obj,
    factored_to_obj,
    poly_from_obj,
    poly_to_obj,
    springer_table_csv,
    springer_table_latex,
)
from .errors import (
    ClaimMismatch,
    DiracIndexError,
    InternalInvariantError,
    InvalidInput,
    RankCapExceeded,
    UnsupportedFormat,
)
from .fixtures import su_n1_ds_family
from .groups import DEFAULT_RANK_CAP, Family, GroupId, build_root_datum
from .springer import springer_table
from .suites import SUITE_NAMES, run_suite
from .sun1 import char_poly_det, extract_det_factors, gcd_with_index

_GROUP_RE = re.compile(r"^(SU|SOe|Sp|SO\*)\(([-0-9R,]+)\)$")


def parse_group(text: str) -> GroupId:
    """Parse labels like SU(2,1), SOe(4,5), Sp(4,R), Sp(1,2), SO*(6)."""
    m = _GROUP_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse group {text!r}")
    head, args = m.groups()
    parts = args.split(",")
    arity = 1 if head == "SO*" else 2
    if len(parts) != arity:
        raise argparse.ArgumentTypeError(
            f"cannot parse group {text!r}: {head} takes {arity} argument(s)"
        )
    try:
        if head == "SU":
            p, q = int(parts[0]), int(parts[1])
            return GroupId.su(p, q)
        if head == "SO*":
            n2 = int(parts[0])
            if n2 % 2:
                raise ValueError("SO*(2n) needs an even argument")
            return GroupId.so_star(n2 // 2)
        if head == "SOe":
            a, b = int(parts[0]), int(parts[1])
            if a % 2:
                raise ValueError("first SOe argument must be even")
            if b % 2:
                return GroupId.so_even_odd(a // 2, (b - 1) // 2)
            return GroupId.so_even_even(a // 2, b // 2)
        if head == "Sp":
            if parts[1] == "R":
                n2 = int(parts[0])
                if n2 % 2:
                    raise ValueError("Sp(2n,R) needs an even argument")
                return GroupId.sp_r(n2 // 2)
            p, q = int(parts[0]), int(parts[1])
            return GroupId.sp_pq(p, q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse group {text!r}: {exc}")
    raise argparse.ArgumentTypeError(f"cannot parse group {text!r}")


def parse_weight(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not comma-separated rationals: {text!r}") from None


def _rank_cap() -> int:
    value = os.environ.get("DIRAC_MAX_RANK")
    if not value:
        return DEFAULT_RANK_CAP
    try:
        return int(value)
    except ValueError:
        raise InvalidInput(f"DIRAC_MAX_RANK must be an integer, got {value!r}") from None


def _capped_rank(label: str, rank: int) -> int:
    """The rank cap, after checking that rank (named by label) is within it."""
    cap = _rank_cap()
    if rank > cap:
        raise RankCapExceeded(
            f"{label} {rank} exceeds the cap {cap}; set DIRAC_MAX_RANK to raise it"
        )
    return cap


def _max_param(value: int) -> int:
    """The --max parameter bound; a bound below 1 selects no group at all."""
    if value < 1:
        raise DiracIndexError(f"--max must be at least 1, got {value}")
    return value


def _cmd_springer_table(args) -> int:
    max_param = _max_param(args.max)
    families = None
    if args.families != "all":
        try:
            families = {Family(f) for f in args.families.split(",")}
        except ValueError:
            tags = ", ".join(f.value for f in Family)
            raise DiracIndexError(f"unknown family tag; choose from: {tags}")
    rows = springer_table(max_param=max_param, families=families)
    sys.stdout.write(emit(rows, args.format))
    return 0


def _cmd_index_poly(args) -> int:
    group = args.group
    cap = _capped_rank("rank", group.rank)
    if args.chamber is not None:
        if group.family != Family.SU or group.q != 1:
            raise DiracIndexError("--chamber applies to SU(n,1) groups only")
        fam = su_n1_ds_family(group.p, args.chamber)
    else:
        datum = build_root_datum(group, max_rank=cap)
        fam = discrete_series_family(args.hc_param, datum)
    sys.stdout.write(emit(index_polynomial(fam), "json"))
    return 0


def _cmd_char_poly(args) -> int:
    # The determinant has up to i(n-i)(n-2)! terms; refuse before expanding.
    _capped_rank("--n", args.n)
    poly = char_poly_det(args.n, args.i)
    if args.factor:
        obj = factored_to_obj(poly, *extract_det_factors(args.n, args.i))
    else:
        obj = {"type": "polynomial", **poly_to_obj(poly)}
    sys.stdout.write(dumps(obj))
    return 0


def _cmd_gcd(args) -> int:
    _capped_rank("--n", args.n)
    sys.stdout.write(emit(gcd_with_index(args.n, args.i), "json"))
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.max is not None:
        if args.suite != "springer":
            raise DiracIndexError(
                f"--max applies to the springer suite only, not {args.suite}"
            )
        kwargs["max_param"] = _max_param(args.max)
    report = run_suite(args.suite, **kwargs)
    if args.format == "json":
        sys.stdout.write(dumps(report.to_obj()))
    else:
        for case in report.cases:
            status = "PASS" if case.passed else "FAIL"
            line = f"[{status}] {report.suite}/{case.id}"
            if case.detail:
                line += f"  ({case.detail})"
            print(line)
        print(f"{report.suite}: {'all passed' if report.all_pass else 'FAILURES'}")
    return 0 if report.all_pass else 1


# `verify --format json` prints a suite report without a "type" tag.
_SUITE_REPORT_KEYS = {"suite", "cases", "all_pass"}


def _read_json_object(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path!r}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON in {path!r}: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidInput(f"expected a JSON object in {path!r}, got {type(obj).__name__}")
    return obj


def _cmd_emit(args) -> int:
    obj = _read_json_object(args.input)
    kind = obj.get("type")
    if kind is None and obj.keys() == _SUITE_REPORT_KEYS:
        kind = "suite_report"
    if kind == "polynomial" and ("factors" in obj or "cofactor" in obj):
        factored = factored_to_obj(*factored_from_obj(obj))
        if args.format != "json":
            msg = f"factored polynomials only serialize to json, not {args.format}"
            raise UnsupportedFormat(msg)
        sys.stdout.write(dumps(factored))
        return 0
    if kind == "polynomial":
        sys.stdout.write(emit(poly_from_obj(obj), args.format))
        return 0
    if isinstance(kind, str) and kind in TAGGED_SHAPES:
        check_tagged(kind, obj)
        if args.format == "json":
            sys.stdout.write(dumps(obj))
            return 0
        if kind == "springer_table":
            render = springer_table_csv if args.format == "csv" else springer_table_latex
            sys.stdout.write(render(obj["rows"]))
            return 0
    raise DiracIndexError(f"cannot emit {kind!r} as {args.format}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracindex",
        description="Exact Dirac index polynomials, character asymptotics, "
        "and the Springer classification table for classical equal-rank groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("springer-table", help="emit the classification table")
    p_table.add_argument("--families", default="all",
                         help="comma-separated family tags or 'all'")
    p_table.add_argument("--max", type=int, default=5, help="parameter bound, at least 1")
    p_table.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p_table.set_defaults(func=_cmd_springer_table)

    p_ip = sub.add_parser("index-poly", help="index polynomial of a discrete-series family")
    p_ip.add_argument("--group", type=parse_group, required=True,
                      help="e.g. 'SU(2,1)', 'Sp(4,R)', 'SOe(4,5)', 'SO*(6)'")
    family = p_ip.add_mutually_exclusive_group(required=True)
    family.add_argument("--chamber", type=int, help="chamber index for SU(n,1)")
    family.add_argument("--hc-param", type=parse_weight,
                        help="regular Harish-Chandra parameter, comma-separated rationals")
    p_ip.set_defaults(func=_cmd_index_poly)

    p_cp = sub.add_parser("char-poly", help="character determinant polynomial for SU(n,1)")
    p_cp.add_argument("--n", type=int, required=True)
    p_cp.add_argument("--i", type=int, required=True)
    p_cp.add_argument("--factor", action="store_true",
                      help="also list extracted linear factors")
    p_cp.set_defaults(func=_cmd_char_poly)

    p_gcd = sub.add_parser("gcd", help="common divisor of character and index polynomials")
    p_gcd.add_argument("--n", type=int, required=True)
    p_gcd.add_argument("--i", type=int, required=True)
    p_gcd.set_defaults(func=_cmd_gcd)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p_verify.add_argument("--max", type=int, default=None,
                          help="parameter bound, at least 1 (springer suite only)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_emit = sub.add_parser("emit", help="re-serialize a tagged JSON object")
    p_emit.add_argument("--input", default="-", help="file path or - for stdin")
    p_emit.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p_emit.set_defaults(func=_cmd_emit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiracIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClaimMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
