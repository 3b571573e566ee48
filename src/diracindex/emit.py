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
from fractions import Fraction
from typing import Any

from .asymptotics import LimitReport
from .errors import InvalidInput, UnsupportedFormat
from .groups import build_root_datum
from .polynomials import LinearForm, MultiPoly
from .springer import Bipartition, SpringerRow, generator_forms


def frac_str(x: int | Fraction) -> str:
    """Reduced text "a" or "a/b"; a Fraction is always stored reduced."""
    return str(x)


def poly_to_obj(poly: MultiPoly) -> dict:
    return {
        "vars": poly.arity,
        "terms": [
            {"exp": list(exp), "coeff": frac_str(c)}
            for exp, c in poly.sorted_terms()
        ],
    }


def _is_a(value: Any, types) -> bool:
    """isinstance(value, types), except that JSON true and false are not ints."""
    if type(value) is bool:
        return bool in (types if isinstance(types, tuple) else (types,))
    return isinstance(value, types)


def _field(obj: Any, key: str, types, where: str) -> Any:
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
            raise InvalidInput(f"{where} term has a malformed 'exp' {exp}")
        if tuple(exp) in terms:
            raise InvalidInput(f"{where} has a repeated 'exp' {exp}")
        try:
            terms[tuple(exp)] = Fraction(coeff)
        except (ValueError, ZeroDivisionError):
            msg = f"{where} term has a malformed 'coeff' {coeff!r}"
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
            factors.append((LinearForm(tuple(Fraction(c) for c in form)), mult))
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"factor has a malformed 'form' {form!r}") from None
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


def _check_shape(obj: Any, shape: dict, where: str) -> None:
    for key, want in shape.items():
        if isinstance(want, dict):
            _check_shape(_field(obj, key, dict, where), want, f"{where}.{key}")
        elif isinstance(want, list):
            for item in _field(obj, key, list, where):
                if isinstance(want[0], dict):
                    _check_shape(item, want[0], f"{where}.{key}[]")
                elif not _is_a(item, want[0]):
                    raise InvalidInput(f"{where} has a malformed {key!r} item {item!r}")
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


def _merge_quadratic_factors(forms: list[LinearForm]) -> list[tuple[str, tuple]]:
    """Group (X_i - X_j) with (X_i + X_j) into (X_i^2 - X_j^2) for display."""
    singles: list[tuple[str, tuple]] = []
    diffs: set[tuple[int, int]] = set()
    sums: set[tuple[int, int]] = set()
    for form in forms:
        support = [(k, c) for k, c in enumerate(form.coeffs) if c != 0]
        if len(support) == 1:
            singles.append(("var", (support[0][0],)))
        else:
            (i, ci), (j, cj) = support
            if ci * cj < 0:
                diffs.add((i, j))
            else:
                sums.add((i, j))
    out: list[tuple[str, tuple]] = []
    for i, j in sorted(diffs):
        if (i, j) in sums:
            out.append(("sqdiff", (i, j)))
        else:
            out.append(("diff", (i, j)))
    for i, j in sorted(sums - diffs):
        out.append(("sum", (i, j)))
    out.extend(sorted(singles, key=lambda t: t[1]))
    return out


_GENERATOR_TEXT = {
    "var": lambda i: f"X{i + 1}",
    "diff": lambda i, j: f"(X{i + 1}-X{j + 1})",
    "sum": lambda i, j: f"(X{i + 1}+X{j + 1})",
    "sqdiff": lambda i, j: f"(X{i + 1}^2-X{j + 1}^2)",
}


def generator_text(row: SpringerRow) -> str:
    datum = build_root_datum(row.group, max_rank=max(8, row.group.rank))
    pieces = [
        _GENERATOR_TEXT[kind](*data)
        for kind, data in _merge_quadratic_factors(generator_forms(datum))
    ]
    return "".join(pieces) if pieces else "1"


def springer_row_to_obj(row: SpringerRow) -> dict:
    label = row.label
    if isinstance(label, Bipartition):
        label_obj: Any = {"alpha": list(label.alpha), "beta": list(label.beta)}
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


def springer_rows_to_latex(rows: list[SpringerRow]) -> str:
    return springer_table_latex([springer_row_to_obj(r) for r in rows])


def dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False) + "\n"


def emit(obj: Any, fmt: str) -> str:
    """Serialize a recognized object to json, csv or latex text."""
    if fmt not in ("json", "csv", "latex"):
        raise UnsupportedFormat(f"unsupported format {fmt!r}")
    if isinstance(obj, MultiPoly):
        if fmt == "json":
            return dumps({"type": "polynomial", **poly_to_obj(obj)})
        raise UnsupportedFormat(f"polynomials only serialize to json, not {fmt}")
    if isinstance(obj, LimitReport):
        if fmt == "json":
            return dumps({"type": "limit_report", **limit_report_to_obj(obj)})
        raise UnsupportedFormat(f"limit reports only serialize to json, not {fmt}")
    if isinstance(obj, list) and all(isinstance(r, SpringerRow) for r in obj):
        if fmt == "json":
            return dumps(
                {"type": "springer_table", "rows": [springer_row_to_obj(r) for r in obj]}
            )
        if fmt == "csv":
            return springer_rows_to_csv(obj)
        return springer_rows_to_latex(obj)
    raise UnsupportedFormat(f"cannot emit object of type {type(obj).__name__}")
