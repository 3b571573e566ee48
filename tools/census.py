"""Census of the functions that the command line reaches.

    python -I -S tools/census.py

Imports every module of the package, then runs through ``cli.main``
every subcommand in each ``--format`` choice, every suite in text and
json, and ``emit --input`` of each JSON output in json, csv and latex,
all under ``sys.setprofile``; ``emit --format json`` must print each JSON
output back byte for byte.  It compares the code objects called, keyed
by (file, first line), with the ``ast`` definitions of ``src/diracindex``:
module-level functions and the methods of module-level classes.

Each subcommand also runs once against a stdout whose ``write`` raises
BrokenPipeError, as a pipe whose reader has gone does; it must exit 1
with one ``error:`` line.

It exits 1, naming each culprit, when a definition is unreached and not
in ALLOWED, when an entry of ALLOWED is reached or no longer exists, when
a command exits with another code than the table expects or meets a
closed pipe otherwise, or when emit changes a JSON output.  It uses only
the standard library, so under ``-I -S`` a third-party import anywhere in
the package fails it too.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "diracindex"

# (argv, expected exit code) for every subcommand; emit runs are added for
# each JSON output in each of EMIT_FORMATS.
COMMANDS = [
    (["springer-table", "--max", "5", "--format", "json"], 0),
    (["springer-table", "--max", "5", "--format", "csv"], 0),
    (["springer-table", "--max", "5", "--format", "latex"], 0),
    (["index-poly", "--group", "SU(2,1)", "--chamber", "0"], 0),
    (["index-poly", "--group", "Sp(4,R)", "--hc-param", "2,1"], 0),
    (["char-poly", "--n", "4", "--i", "2"], 0),
    (["char-poly", "--n", "4", "--i", "2", "--factor"], 0),
    (["gcd", "--n", "5", "--i", "2"], 0),
] + [
    (["verify", "--suite", suite, "--format", fmt], 0)
    for suite in ("sl2", "translation", "ind-eq-char", "harmonic", "su-n1", "springer")
    for fmt in ("text", "json")
]

EMIT_FORMATS = ("json", "csv", "latex")

# Unreached definitions that stay: the reason, and the ROADMAP item that
# either reaches or deletes them.
ALLOWED = {
    "polynomials.poly_det": "bench/tests names sun1.poly_det; item 9",
    "polynomials.linear_form_product": "bench/tests names it; item 9",
    "polynomials._packed_product": "bench/tests names it; item 9",
    "series.TruncatedSeries.exponential": "bench/spans.py wraps it by name; item 9",
    "series.TruncatedSeries.__mul__": "bench/spans.py wraps it by name; item 9",
    "groups.RootDatum.is_k_regular": "only bench jobs call it; item 9",
    "polynomials.MultiPoly.from_linear": "only bench jobs call it; item 9",
    "polynomials.MultiPoly.__pow__": "only bench jobs call it; item 9",
    "polynomials.LinearForm.to_poly": "only bench jobs call it; item 9",
    "emit.springer_rows_to_csv": "only bench jobs call it; item 9",
    "kmodules._OnForms._weights":
        "only bench jobs read the Weight view of a module or multiset; item 9",
    "polynomials.MultiPoly.terms": "bench/run.py reads len(result.terms); item 9",
    "asymptotics.character_series":
        "public series; leading_limit calls its form-taking core; bench/run.py counts it by name",
    "asymptotics.root_ratio":
        "public, exported and tested; leading_limit calls its form-taking core (README)",
    "dirac.index_discrete_series": "paper object no suite checks yet; item 3",
    "dirac.is_integral_weyl": "paper object no suite checks yet; item 3",
    "dirac.spin_weights":
        "public, exported and tested; the spin-ratio suite reaches its core through "
        "cached columns (README)",
    "springer.normalize_symbol": "Springer-label computation; item 15",
    "springer.symbols_equivalent": "Springer-label computation; item 15",
    "springer.bipartition_dim": "label dimension check; item 15",
    "springer.standard_tableaux_count": "label dimension check; item 15",
    "springer.hook_product": "label dimension check; item 15",
    "polynomials.PolySpan.dim": "span dimension of the irreducibility check; item 17",
    "groups.RootDatum.is_g_regular": "only bench jobs call it; item 9",
    "sun1.tau_invariant": "paper object no suite checks yet; item 4",
    "sun1.chamber_of": "paper object no suite checks yet; item 4",
    "polynomials.MultiPoly.__hash__": "eq/hash contract of a value type",
    "series.TruncatedSeries.__hash__": "eq/hash contract of a value type",
    "kmodules.VirtualKModule.__hash__": "eq/hash contract of a value type",
    "kmodules.VirtualKModule.__init__":
        "validated public constructor; k_type_sum builds through the trusted one",
    "value.Value.__setattr__": "refuses assignment to a value; no command assigns one",
    "value.Value.__delattr__": "refuses deletion from a value; no command deletes one",
    "value.Value.__repr__": "repr contract of a value type; no command prints a repr",
    "value.Value.__setstate__": "pickle and copy contract of a value type; no command copies one",
}


def definitions() -> dict[tuple[str, int], str]:
    """{(file, first line): 'module.qualname'} for module-level functions and
    the methods of module-level classes; a decorated function starts at its
    first decorator, as its code object does."""
    out = {}

    def first_line(node) -> int:
        return min([node.lineno] + [d.lineno for d in node.decorator_list])

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(item, node.name + ".") for item in node.body]
            for item, prefix in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[(str(path), first_line(item))] = f"{path.stem}.{prefix}{item.name}"
    return out


class ClosedPipe(io.TextIOBase):
    """A text stdout whose reader has gone: every write raises."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


def run(main, argv: list[str], stdin: str = "", out=None) -> tuple[int, str, str]:
    """main(argv) with stdin given, stdout captured or the given stream,
    and stderr captured."""
    out, err = out or io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue() if isinstance(out, io.StringIO) else "", err.getvalue()


def census() -> tuple[set, list[str]]:
    """Run every command under the profiler; return the (file, first line)
    of each code object called, and one line per command whose exit code
    was not the expected one or whose JSON emit changed its input."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    wrong = []
    sys.setprofile(record)
    try:
        import diracindex

        for info in pkgutil.iter_modules(diracindex.__path__):
            importlib.import_module(f"diracindex.{info.name}")
        from diracindex.cli import main

        outputs = []
        for argv, expected in COMMANDS:
            code, out, err = run(main, argv)
            if code != expected:
                wrong.append(f"{' '.join(argv)}: exit {code}, expected {expected}\n{err}")
            elif out.startswith("{"):
                outputs.append((argv, out))
        for source, text in outputs:
            kind = json.loads(text).get("type")
            for fmt in EMIT_FORMATS:
                argv = ["emit", "--input", "-", "--format", fmt]
                # only the springer table renders as csv and latex
                expected = 0 if fmt == "json" or kind == "springer_table" else 2
                code, out, err = run(main, argv, text)
                if code != expected:
                    wrong.append(f"{' '.join(argv)} < {' '.join(source)}: "
                                 f"exit {code}, expected {expected}\n{err}")
                elif fmt == "json" and out != text:
                    wrong.append(f"{' '.join(argv)} < {' '.join(source)}: "
                                 f"printed {len(out)} bytes, not its {len(text)}-byte input")
        firsts = {argv[0]: argv for argv, _ in reversed(COMMANDS)}
        closed = [(argv, "") for argv in firsts.values()]
        closed.append((["emit", "--input", "-"], outputs[0][1]))
        for argv, stdin in closed:
            try:
                code, _, err = run(main, argv, stdin, ClosedPipe())
            except BrokenPipeError as exc:
                code, err = None, f"{exc!r} escaped main\n"
            if code != 1 or not err.startswith("error: ") or err.count("\n") != 1:
                wrong.append(f"{' '.join(argv)} > closed pipe: exit {code}, expected 1 "
                             f"with one error: line\n{err}")
    finally:
        sys.setprofile(None)
    return {(c.co_filename, c.co_firstlineno) for c in called}, wrong


def main() -> int:
    sys.path.insert(0, str(SRC))
    reached, wrong = census()
    defs = definitions()
    names = set(defs.values())
    problems = list(wrong)
    for key, name in sorted(defs.items()):
        if key not in reached and name not in ALLOWED:
            problems.append(f"unreached: {name} ({Path(key[0]).name}:{key[1]})")
        if key in reached and name in ALLOWED:
            problems.append(f"allowed but reached: {name}; remove it from ALLOWED")
    for name in sorted(set(ALLOWED) - names):
        problems.append(f"allowed but not defined: {name}; remove it from ALLOWED")
    for line in problems:
        print(line)
    print(f"census: {len(defs)} definitions, {len(ALLOWED)} allowed unreached, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
