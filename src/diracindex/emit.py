"""Deterministic machine-readable emitters: tagged JSON, CSV and LaTeX.

JSON schemas (bit-exact across platforms; fractions as reduced strings):

* polynomial     {"vars": n, "terms": [{"exp": [...], "coeff": "a/b"}]}
                 terms sorted graded-lex (degree ascending, then exponent
                 tuple descending lexicographically);
* limit report   {"d": n, "value": "a/b"|null, "expected": "a/b"|null,
                 "match": bool, "underflow": bool};
* suite report   {"suite": name, "cases": [{"id", "pass", "detail"}],
                 "all_pass": bool}.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice

from .asymptotics import LimitReport
from .errors import InvalidInput, UnsupportedFormat, _echo
from .groups import _family_layout
from .polynomials import LinearForm, MultiPoly
from .springer import Bipartition, SpringerRow


# The most digits a rational read from input may spell, an exponent counting as
# the digits it adds: below the interpreter's int-string limit of 4300 digits.
MAX_DIGITS = 4000


def parse_rational(text: str | int) -> Fraction:
    """Fraction(text), refused with ValueError, before any power of ten is
    built, when the text spells more than MAX_DIGITS digits."""
    text = str(text)
    mantissa, _, exponent = text.upper().partition("E")
    exponent = exponent.strip().lstrip("+-").replace("_", "")
    digits = sum(map(str.isdecimal, mantissa)) + (int(exponent) if exponent.isdecimal() else 0)
    if digits > MAX_DIGITS:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    return Fraction(text)


def frac_str(x: int | Fraction) -> str:
    """Reduced text "a" or "a/b"; a Fraction is always stored reduced."""
    return str(x)


def poly_to_obj(poly: MultiPoly) -> dict:
    """The polynomial object.  A described alternant such as +-D_k gives its
    term dicts straight from `MultiPoly.described_terms`, whose two values
    are the coefficient strings, so no row list is built; any other
    polynomial is read from `MultiPoly.graded_rows` of its packed numerator,
    each distinct numerator printed once.  No `Fraction` view is built."""
    den = poly.den
    described = poly.described_terms(lambda c: frac_str(Fraction(c, den)))
    if described is not None:
        terms = [{"exp": exp, "coeff": coeff} for exp, coeff in zip(*described)]
    else:
        rows = poly.graded_rows()
        coeff = {c: frac_str(Fraction(c, den)) for c in {c for _, c in rows}}
        terms = [{"exp": exp, "coeff": coeff[c]} for exp, c in rows]
    return {"vars": poly.arity, "terms": terms}


# Terms of a described polynomial written per chunk of poly_json_chunks.
_CHUNK_TERMS = 4096
# The text between the exponents of two terms starts with the first term's
# coefficient and ends with this opening of the next term.
_NEXT_TERM = ',{"exp":['


def poly_json_chunks(poly: MultiPoly) -> Iterator[str]:
    """The text of `dumps({"type": "polynomial", **poly_to_obj(poly)})`, in
    chunks.  A described alternant is written from `described_terms`
    with no term dict and no row alive: each term's exponents are joined
    from a table of their strings, and its sign picks the text that closes
    it with its coefficient and opens the next term, _CHUNK_TERMS terms a
    chunk; the last chunk drops the opening of a next term.  Any other
    polynomial is one chunk."""
    den = poly.den
    described = poly.described_terms(
        lambda c: f'],"coeff":"{frac_str(Fraction(c, den))}"}}' + _NEXT_TERM, str, ",".join)
    if described is None:
        yield dumps({"type": "polynomial", **poly_to_obj(poly)})
        return
    text = chain.from_iterable(zip(*described))
    chunk = f'{{"type":"polynomial","vars":{poly.arity},"terms":[{{"exp":['
    while more := "".join(islice(text, 2 * _CHUNK_TERMS)):
        yield chunk
        chunk = more
    yield chunk[:-len(_NEXT_TERM)] + "]}\n"


def _is_a(value: object, types) -> bool:
    """isinstance(value, types), except that JSON true and false are not ints."""
    if type(value) is bool:
        return bool in (types if isinstance(types, tuple) else (types,))
    return isinstance(value, types)


def _field(obj: object, key: str, types, where: str) -> object:
    """obj[key], checked to be present and of one of the given types."""
    if not (isinstance(obj, dict) and key in obj and _is_a(obj[key], types)):
        raise InvalidInput(f"{where} has a missing or malformed {key!r} field")
    return obj[key]


def poly_from_obj(obj: dict, where: str = "polynomial") -> MultiPoly:
    """Inverse of poly_to_obj; InvalidInput names a malformed field of the
    object, which error messages call where."""
    arity = _field(obj, "vars", int, where)
    if arity < 0:
        raise InvalidInput(f"{where} has a malformed 'vars' {arity}")
    terms = {}
    for term in _field(obj, "terms", list, where):
        exp = _field(term, "exp", list, f"{where} term")
        coeff = _field(term, "coeff", (str, int), f"{where} term")
        if not all(type(e) is int and e >= 0 for e in exp):
            raise InvalidInput(f"{where} term has a malformed 'exp' {_echo(exp)}")
        if len(exp) != arity:
            raise InvalidInput(f"{where} term has {len(exp)} 'exp' entries, not {arity}")
        if tuple(exp) in terms:
            raise InvalidInput(f"{where} has a repeated 'exp' {_echo(exp)}")
        try:
            terms[tuple(exp)] = parse_rational(coeff)
        except (ValueError, ZeroDivisionError):
            msg = f"{where} term has a malformed 'coeff' {_echo(coeff)}"
            raise InvalidInput(msg) from None
    return MultiPoly(arity, terms)


def factored_to_obj(
    poly: MultiPoly, factors: list[tuple[LinearForm, int]], cofactor: MultiPoly
) -> dict:
    """A polynomial with its linear factors, as `char-poly --factor` writes it."""
    return {
        "type": "polynomial",
        **poly_to_obj(poly),
        "factors": [
            {"form": [frac_str(c) for c in form.coeffs], "mult": m} for form, m in factors
        ],
        "cofactor": poly_to_obj(cofactor),
    }


def factored_from_obj(obj: dict) -> tuple[MultiPoly, list[tuple[LinearForm, int]], MultiPoly]:
    """Inverse of factored_to_obj; InvalidInput names a malformed field."""
    poly = poly_from_obj(obj)
    factors = []
    for item in _field(obj, "factors", list, "polynomial"):
        form = _field(item, "form", list, "factor")
        mult = _field(item, "mult", int, "factor")
        try:
            if len(form) != poly.arity or not all(_is_a(c, (str, int)) for c in form):
                raise ValueError
            coeffs = [parse_rational(c) for c in form]
            # integers stay ints, as in the forms the package builds
            coeffs = [c.numerator if c.denominator == 1 else c for c in coeffs]
            factors.append((LinearForm(tuple(coeffs)), mult))
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"factor has a malformed 'form' {_echo(form)}") from None
        if mult < 1:
            raise InvalidInput(f"factor has a malformed 'mult' {mult}")
    cofactor = poly_from_obj(_field(obj, "cofactor", dict, "polynomial"), "cofactor")
    if cofactor.arity != poly.arity:
        raise InvalidInput(f"cofactor has {cofactor.arity} 'vars', not {poly.arity}")
    return poly, factors, cofactor


_OPT_STR = (str, type(None))

# The fields of each tagged object that emit writes: a type (or tuple of
# types) per field, [item] for a list of items and a dict for an object.
TAGGED_SHAPES = {
    "springer_table": {"rows": [{
        "group": str, "generator": str, "springer": bool,
        "partition": (list, type(None)), "dim": (int, type(None)),
    }]},
    "limit_report": {"d": int, "value": _OPT_STR, "expected": _OPT_STR,
                     "match": bool, "underflow": bool},
    "suite_report": {"suite": str, "all_pass": bool,
                     "cases": [{"id": str, "pass": bool, "detail": str}]},
}


def _check_shape(obj: object, shape: dict, where: str) -> None:
    for key, want in shape.items():
        if isinstance(want, dict):
            _check_shape(_field(obj, key, dict, where), want, f"{where}.{key}")
        elif isinstance(want, list):
            for item in _field(obj, key, list, where):
                if isinstance(want[0], dict):
                    _check_shape(item, want[0], f"{where}.{key}[]")
                elif not _is_a(item, want[0]):
                    raise InvalidInput(f"{where} has a malformed {key!r} item {_echo(item)}")
        else:
            _field(obj, key, want, where)


def check_tagged(kind: str, obj: dict) -> None:
    """Check obj against the fields emit writes for a tagged object of this
    kind; InvalidInput names the first malformed field."""
    _check_shape(obj, TAGGED_SHAPES[kind], kind)


def limit_report_to_obj(report: LimitReport) -> dict:
    return {
        "d": report.d,
        "value": None if report.value is None else frac_str(report.value),
        "expected": None if report.expected is None else frac_str(report.expected),
        "match": report.match,
        "underflow": report.underflow,
    }


def partition_str(partition) -> str:
    if partition is None:
        return "-"
    return "[" + ",".join(str(x) for x in partition) + "]"


def generator_text(row: SpringerRow) -> str:
    """The product of the primitive forms of the compact positive roots, as
    printed, from the compact blocks of the group alone.  For each pair
    i < j of a block's indices it prints (Xi-Xj), or (Xi^2-Xj^2) when the
    block's alternant has a = 2; the blocks are contiguous and ascending, so
    the pairs come in ascending order.  Then it prints Xi for each index i
    of a block with b = 1 (`groups.Block.ALTERNANT`); the empty product is
    1.  Indices print from 1; the pairs of one leading index are one join."""
    pairs, singles = [], []
    for block in _family_layout(row.group)[1]:
        a, b = block.ALTERNANT[block.kind]
        sq = "^2" if a == 2 else ""
        names = [f"X{i + 1}{sq}" for i in block.indices]
        for n, lead in enumerate(names[:-1]):
            pairs.append(f"({lead}-" + f")({lead}-".join(names[n + 1:]) + ")")
        if b:
            singles += [f"X{i + 1}" for i in block.indices]
    return "".join(pairs + singles) or "1"


def springer_row_to_obj(row: SpringerRow) -> dict:
    label = row.label
    if isinstance(label, Bipartition):
        label_obj: object = {"alpha": list(label.alpha), "beta": list(label.beta)}
    else:
        label_obj = list(label)
    return {
        "group": row.group.label(),
        "family": row.group.family.value,
        "params": [row.group.p, row.group.q],
        "generator": generator_text(row),
        "label": label_obj,
        "springer": row.is_springer,
        "partition": None if row.partition is None else list(row.partition),
        "dim": row.orbit_dim,
        "two_orbits": row.two_orbits,
    }


def springer_table_csv(rows: list[dict]) -> str:
    """CSV of springer_table JSON row dicts (see springer_row_to_obj)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "generator", "springer", "partition", "dim"])
    for row in rows:
        writer.writerow(
            [
                row["group"],
                row["generator"],
                "Yes" if row["springer"] else "No",
                partition_str(row["partition"]),
                row["dim"] if row["dim"] is not None else "-",
            ]
        )
    return buf.getvalue()


def springer_rows_to_csv(rows: list[SpringerRow]) -> str:
    return springer_table_csv([springer_row_to_obj(r) for r in rows])


def springer_table_latex(rows: list[dict]) -> str:
    """LaTeX tabular of springer_table JSON row dicts (see springer_row_to_obj)."""
    lines = [
        r"\begin{tabular}{ccccc}",
        r"\hline",
        r"$G$ & generator & Springer? & partition & $\dim_{\mathbb C}$ \\",
        r"\hline",
    ]
    for row in rows:
        group = row["group"].replace("*", r"^{*}")
        generator = re.sub(r"X(\d+)", r"X_{\1}", row["generator"])
        part = partition_str(row["partition"])
        if part != "-":
            part = "$" + part.replace("[", r"\lbrack ").replace("]", r"\rbrack") + "$"
        dim = str(row["dim"]) if row["dim"] is not None else "-"
        lines.append(
            f"${group}$ & ${generator}$ & "
            f"{'Yes' if row['springer'] else 'No'} & {part} & {dim} \\\\"
        )
    lines += [r"\hline", r"\end{tabular}"]
    return "\n".join(lines) + "\n"


_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
# A top-level list member longer than this is encoded this many items at a
# time; see dumps.
_SLICE = 256


def dumps(obj: dict) -> str:
    """Compact JSON text of obj and a newline, byte for byte what
    `json.dumps(obj, separators=(",", ":"))` writes: the one encoder skips
    the cycle check, which no object written here needs, since emitters
    build fresh trees and `emit` re-reads what `json.loads` built.

    The C encoder keeps every fragment of its text alive until it joins
    them, about ten strings per polynomial term.  So a dict with str keys
    and a top-level list member longer than _SLICE (polynomial terms, table
    rows, suite cases) is written member by member, and that list _SLICE
    items at a time, each slice's text stripped of its brackets.  A JSON
    list is its items joined by commas, and every piece comes from the same
    encoder, so the bytes are the same."""
    encode = _ENCODER.encode
    if not (
        type(obj) is dict
        and any(type(v) is list and len(v) > _SLICE for v in obj.values())
        and all(type(k) is str for k in obj)
    ):
        return encode(obj) + "\n"
    parts = []
    for key, value in obj.items():
        parts += (",", encode(key), ":")
        if type(value) is list and len(value) > _SLICE:
            parts.append("[")
            for start in range(0, len(value), _SLICE):
                parts += (encode(value[start:start + _SLICE])[1:-1], ",")
            parts[-1] = "]"
        else:
            parts.append(encode(value))
    parts[0] = "{"
    parts.append("}\n")
    return "".join(parts)


# The formats emit writes each kind of object in.
_FORMATS = {
    "polynomial": ("json",),
    "limit_report": ("json",),
    "suite_report": ("json",),
    "springer_table": ("json", "csv", "latex"),
}
# `verify --format json` prints a suite report without a "type" tag.
_SUITE_REPORT_KEYS = {"suite", "cases", "all_pass"}


def emit(obj: object, fmt: str) -> str:
    """Serialize to json, csv or latex text a polynomial, a limit report, a
    list of Springer rows, or a JSON object that the commands write, which
    is checked first.  Each kind and format not in _FORMATS is refused with
    one message."""
    if isinstance(obj, MultiPoly):
        kind = "polynomial"
    elif isinstance(obj, LimitReport):
        kind = "limit_report"
    elif isinstance(obj, list) and all(isinstance(r, SpringerRow) for r in obj):
        kind = "springer_table"
    elif isinstance(obj, dict):
        kind = obj.get("type")
        if kind is None and obj.keys() == _SUITE_REPORT_KEYS:
            kind = "suite_report"
    else:
        kind = type(obj)
    if not (isinstance(kind, str) and fmt in _FORMATS.get(kind, ())):
        raise UnsupportedFormat(f"cannot emit {_echo(kind)} as {fmt}")
    if isinstance(obj, MultiPoly):
        return "".join(poly_json_chunks(obj))
    if isinstance(obj, LimitReport):
        return dumps({"type": "limit_report", **limit_report_to_obj(obj)})
    if kind == "polynomial":
        if "factors" in obj or "cofactor" in obj:
            return dumps(factored_to_obj(*factored_from_obj(obj)))
        return emit(poly_from_obj(obj), fmt)
    if isinstance(obj, list):
        obj = {"type": "springer_table", "rows": [springer_row_to_obj(r) for r in obj]}
    else:
        check_tagged(kind, obj)
    if fmt == "json":
        return dumps(obj)
    render = springer_table_csv if fmt == "csv" else springer_table_latex
    return render(obj["rows"])
