import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diracindex import dirac
from diracindex.asymptotics import leading_limit
from diracindex.cli import main, parse_group
from diracindex.emit import (
    MAX_DIGITS,
    _SLICE,
    dumps,
    emit,
    factored_to_obj,
    frac_str,
    limit_report_to_obj,
    parse_rational,
    poly_from_obj,
    poly_to_obj,
    springer_row_to_obj,
    springer_rows_to_csv,
)
from diracindex.errors import InternalInvariantError, UnknownSuite, UnsupportedFormat
from diracindex.fixtures import sl2_families
from diracindex.groups import GroupId, build_root_datum
from diracindex.polynomials import (
    LinearForm,
    MultiPoly,
    linear_form_product,
    restrict_to_hyperplane,
)
from diracindex.springer import springer_row, table_groups
from diracindex.sun1 import char_poly_det, extract_det_factors
from diracindex.suites import SUITE_NAMES, run_suite


def test_poly_json_matches_schema_example():
    p = MultiPoly(2, {(1, 0): F(1), (0, 1): F(-1)})
    assert poly_to_obj(p) == {
        "vars": 2,
        "terms": [{"exp": [1, 0], "coeff": "1"}, {"exp": [0, 1], "coeff": "-1"}],
    }


def test_poly_json_roundtrip_random():
    rng = random.Random(8)
    for _ in range(25):
        arity = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(arity)): F(
                rng.randint(-9, 9), rng.randint(1, 9)
            )
            for _ in range(rng.randint(0, 5))
        }
        p = MultiPoly(arity, terms)
        assert poly_from_obj(json.loads(dumps(poly_to_obj(p)))) == p


def _view_poly_to_obj(poly):
    """poly_to_obj as it read the Fraction view: exponents sorted
    descending, then stably by degree, and one frac_str per term."""
    terms = poly.terms
    exps = sorted(terms, reverse=True)
    exps.sort(key=sum)
    return {
        "vars": poly.arity,
        "terms": [{"exp": list(exp), "coeff": frac_str(terms[exp])} for exp in exps],
    }


_coeffs = st.fractions(min_value=-7, max_value=7, max_denominator=6)


@st.composite
def _view_built(draw):
    """MultiPoly(arity, terms), of any degrees: non-homogeneous, zero or of
    arity 0 included."""
    arity = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 5)] * arity)
    return MultiPoly(arity, draw(st.dictionaries(exps, _coeffs, max_size=8)))


@st.composite
def _kernel_built(draw):
    """Products of linear forms, with a sum, a scalar multiple or a
    restriction on top, which never build the Fraction view."""
    arity = draw(st.integers(1, 4))
    forms = st.lists(_coeffs, min_size=arity, max_size=arity).filter(any).map(
        lambda c: LinearForm(tuple(c))
    )
    poly = linear_form_product(arity, draw(st.lists(forms, max_size=5)))
    step = draw(st.sampled_from(["none", "add", "scale", "restrict"]))
    if step == "add":
        poly = poly + linear_form_product(arity, draw(st.lists(forms, max_size=3)))
    elif step == "scale":
        poly = poly * draw(_coeffs)
    elif step == "restrict" and arity > 1:
        poly = restrict_to_hyperplane(poly, draw(forms))
    return poly


@settings(max_examples=200, deadline=None)
@given(st.one_of(_view_built(), _kernel_built()))
@example(MultiPoly.zero(3))
@example(MultiPoly(0, {}))
@example(MultiPoly(0, {(): F(-5, 3)}))
@example(MultiPoly(2, {(0, 0): F(1, 2), (2, 0): F(-3), (1, 1): F(-3), (0, 3): F(7, 4)}))
def test_poly_to_obj_matches_fraction_view_oracle(poly):
    obj = poly_to_obj(poly)
    assert obj == _view_poly_to_obj(poly)
    assert dumps(obj) == dumps(_view_poly_to_obj(poly))
    assert poly_from_obj(obj) == poly


@pytest.mark.parametrize("label", ["Sp(14,R)", "SU(2,1)", "SOe(4,3)"])
def test_emit_index_polynomial_builds_no_fraction_view(label):
    datum = build_root_datum(parse_group(label))
    poly = dirac.index_polynomial(dirac.discrete_series_family(datum.rho_g, datum))
    text = emit(poly, "json")
    assert poly._terms is None
    obj = json.loads(text)
    assert obj["type"] == "polynomial"
    del obj["type"]
    assert obj == _view_poly_to_obj(poly)
    assert poly_from_obj(obj) == poly


def test_springer_csv_line():
    row = springer_row(GroupId.so_even_odd(2, 2))
    csv_text = springer_rows_to_csv([row])
    lines = csv_text.strip().split("\n")
    assert lines[0] == "group,generator,springer,partition,dim"
    assert "Yes" in lines[1]
    assert "[3,2,2,1,1]" in lines[1]
    assert lines[1].endswith(",20")


def test_springer_latex():
    row = springer_row(GroupId.sp_r(2))
    text = emit([row], "latex")
    assert r"\begin{tabular}" in text
    assert "(X_{1}-X_{2})" in text
    assert "Yes" in text


def test_emit_dispatch_and_errors():
    p = MultiPoly(2, {(1, 0): F(1)})
    out = emit(p, "json")
    assert json.loads(out)["type"] == "polynomial"
    with pytest.raises(UnsupportedFormat):
        emit(p, "csv")
    with pytest.raises(UnsupportedFormat):
        emit(p, "yaml")


def test_suite_report_json():
    rep = run_suite("sl2")
    obj = rep.to_obj()
    assert obj["suite"] == "sl2"
    assert obj["all_pass"] is True
    assert all(set(c) == {"id", "pass", "detail"} for c in obj["cases"])


def test_parse_group():
    assert parse_group("SU(2,1)") == GroupId.su(2, 1)
    assert parse_group("SOe(4,5)") == GroupId.so_even_odd(2, 2)
    assert parse_group("SOe(4,4)") == GroupId.so_even_even(2, 2)
    assert parse_group("Sp(4,R)") == GroupId.sp_r(2)
    assert parse_group("Sp(1,2)") == GroupId.sp_pq(1, 2)
    assert parse_group("SO*(6)") == GroupId.so_star(3)


def test_cli_springer_table(capsys):
    code = main(["springer-table", "--max", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("group,generator,springer,partition,dim")
    assert '"Sp(1,1)",X1X2,No,-,-' in out


def test_cli_emit_csv_of_table_json_matches_table_csv(tmp_path, capsys):
    assert main(["springer-table", "--max", "3", "--format", "json"]) == 0
    path = tmp_path / "table.json"
    path.write_text(capsys.readouterr().out)
    assert main(["springer-table", "--max", "3", "--format", "csv"]) == 0
    direct = capsys.readouterr().out
    assert main(["emit", "--input", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == direct


def test_cli_springer_table_json_deterministic(capsys):
    main(["springer-table", "--max", "2", "--format", "json"])
    first = capsys.readouterr().out
    main(["springer-table", "--max", "2", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    rows = json.loads(first)["rows"]
    assert any(r["group"] == "SOe(4,5)" and r["dim"] == 20 for r in rows)


def test_cli_verify_pass_and_format(capsys):
    code = main(["verify", "--suite", "sl2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "all passed" in out
    code = main(["verify", "--suite", "sl2", "--format", "json"])
    out = capsys.readouterr().out
    assert json.loads(out)["all_pass"] is True


def test_cli_index_poly(capsys):
    code = main(["index-poly", "--group", "SU(2,1)", "--chamber", "0"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0
    assert obj["terms"] == [
        {"exp": [1, 0, 0], "coeff": "1"},
        {"exp": [0, 1, 0], "coeff": "-1"},
    ]
    code = main(["index-poly", "--group", "Sp(4,R)", "--hc-param", "2,1"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0 and obj["vars"] == 2


def test_cli_char_poly_factor(capsys):
    code = main(["char-poly", "--n", "4", "--i", "2", "--factor"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(obj["factors"]) == 2
    assert obj["cofactor"]["vars"] == 4


def test_cli_gcd(capsys):
    code = main(["gcd", "--n", "4", "--i", "2"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0
    # (l1 - l2)(l3 - l4) has four monomials
    assert len(obj["terms"]) == 4


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


# Past MAX_DIGITS, a parameter is refused as it is parsed, before a power
# of ten is built or a message prints it.
@pytest.mark.parametrize(
    "text", ["1/0,1", "a,1", "1,,2", "1e-5000,0", "1e3000000,0", "1" * 4001 + ",0"],
    ids=lambda text: text if len(text) < 20 else "4001-digits",
)
def test_cli_bad_hc_param_is_usage_error(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index-poly", "--group", "Sp(4,R)", "--hc-param", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    shown = repr(text) if len(repr(text)) <= 40 else repr(text)[:37] + "..."
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"diracindex index-poly: error: argument --hc-param: not comma-separated "
        f"rationals of at most {MAX_DIGITS} digits: {shown}"
    ]


# A refused text is echoed in at most 40 characters, however long it is.
LONG_TEXT = "1" * 100_000 + "x"
_LONG_POLY = {"type": "polynomial", "vars": 1, "terms": [{"exp": [0], "coeff": "1"}]}


@pytest.mark.parametrize(
    "obj, field",
    [
        ({**_LONG_POLY, "terms": [{"exp": [0], "coeff": LONG_TEXT}]},
         "polynomial term has a malformed 'coeff' '1111"),
        ({**_LONG_POLY, "terms": [{"exp": [1] * 50_000, "coeff": "1"}]},
         "polynomial term has 50000 'exp' entries, not 1"),
        ({**_LONG_POLY, "terms": [{"exp": [-1] * 50_000, "coeff": "1"}]},
         "polynomial term has a malformed 'exp' [-1, "),
        ({**_LONG_POLY, "factors": [{"form": [LONG_TEXT], "mult": 1}],
          "cofactor": {"vars": 1, "terms": []}},
         "factor has a malformed 'form' ['1111"),
    ],
    ids=["coeff", "exp-length", "exp-entries", "form"],
)
def test_cli_emit_cuts_the_echo_of_a_long_refused_field(obj, field, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main(["emit", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {field}") and len(line) < 100


def test_cli_cuts_the_echo_of_a_long_hc_param(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index-poly", "--group", "Sp(4,R)", "--hc-param", LONG_TEXT])
    assert exc.value.code == 2
    [line] = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert line.endswith(f"digits: '{'1' * 36}...") and len(line) < 160


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e3999", F(10) ** 3999),
        ("-1E-3999", -F(1, 10**3999)),
        ("1" * 4000, int("1" * 4000)),
        ("1/" + "3" * 3999, F(1, int("3" * 3999))),
        (" 2.5e+3_997 ", F(25) * 10**3996),
        (10**3999, 10**3999),
    ],
    ids=["1e3999", "-1E-3999", "4000-digits", "1/(4000-digits)", "underscores", "int"],
)
def test_parse_rational_accepts_up_to_the_digit_bound(text, value):
    parsed = parse_rational(text)
    assert parsed == value
    str(parsed)  # every value read prints


@pytest.mark.parametrize(
    "text",
    ["1e4000", "1e-4000", "12e3999", "1" * 4001, "1/" + "3" * 4000, "1e4_000",
     "1e" + "9" * 4000, 10**4000],
    ids=["1e4000", "1e-4000", "12e3999", "4001-digits", "1/(4001-digits)", "underscores",
         "4000-digit-exponent", "int"],
)
def test_parse_rational_refuses_over_the_digit_bound(text):
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
        parse_rational(text)


@pytest.mark.parametrize(
    "label", ["SU(2,1,9)", "SO*(6,4)", "SOe(4,5,7)", "Sp(4,R,1)", "Sp(1,2,3)"]
)
def test_cli_group_with_extra_arguments_is_usage_error(label, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index-poly", "--group", label, "--chamber", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--group" in err and "Traceback" not in err


def test_cli_chamber_on_wrong_group_errors(capsys):
    code = main(["index-poly", "--group", "Sp(4,R)", "--chamber", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "options",
    [["--chamber", "0", "--hc-param", "5,0,-5"], ["--hc-param", "5,0,-5", "--chamber", "0"], []],
    ids=["both", "both-reversed", "neither"],
)
def test_cli_index_poly_needs_exactly_one_of_chamber_and_hc_param(options, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index-poly", "--group", "SU(2,1)", *options])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--chamber" in captured.err and "--hc-param" in captured.err
    assert "Traceback" not in captured.err


def test_cli_emit_roundtrip(tmp_path, capsys):
    main(["char-poly", "--n", "4", "--i", "1"])
    text = capsys.readouterr().out
    path = tmp_path / "poly.json"
    path.write_text(text)
    code = main(["emit", "--input", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == json.loads(text)


def test_cli_emit_wide_fields_same_bytes(tmp_path, capsys):
    """Exponents of 2^16 to 2^33 + 1 take fields of three and five bytes."""
    poly = MultiPoly(3, {(2**33 + 1, 0, 0): 1, (0, 65536, 2**33 - 65535): F(-3, 2), (0, 0, 1): 7})
    text = emit(poly, "json")
    path = tmp_path / "wide.json"
    path.write_text(text)
    code = main(["emit", "--input", str(path)])
    assert code == 0
    assert capsys.readouterr().out == text
    assert poly_from_obj(json.loads(text)) == poly


def test_cli_rank_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("DIRAC_MAX_RANK", "4")
    code = main(["index-poly", "--group", "SU(4,1)", "--hc-param", "9,7,5,3,1"])
    assert code == 2
    monkeypatch.setenv("DIRAC_MAX_RANK", "6")
    code = main(["index-poly", "--group", "SU(4,1)", "--hc-param", "9,7,5,3,1"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize(
    "env, suite", [("2", "translation"), ("x", "sl2")], ids=["under-cap", "not-an-integer"]
)
def test_cli_verify_honours_dirac_max_rank(env, suite, monkeypatch, capsys):
    """verify builds root data, so it honours the cap as index-poly does."""
    monkeypatch.setenv("DIRAC_MAX_RANK", env)
    assert main(["verify", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "DIRAC_MAX_RANK" in captured.err


def test_cli_cuts_the_echo_of_a_long_dirac_max_rank(monkeypatch, capsys):
    monkeypatch.setenv("DIRAC_MAX_RANK", LONG_TEXT)
    assert main(["index-poly", "--group", "Sp(4,R)", "--hc-param", "2,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == f"error: DIRAC_MAX_RANK must be an integer, got '{'1' * 36}..."
    assert len(line) < 100


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "diracindex.cli", "verify", "--suite", "sl2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "all passed" in result.stdout


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    # one write of 228 KB, and 229 KB written in chunks
    ["springer-table", "--max", "12", "--format", "csv"],
    ["index-poly", "--group", "Sp(14,R)", "--hc-param", "7,6,5,4,3,2,1"],
], ids=lambda argv: argv[0])
def test_a_reader_that_closes_early_gets_exit_1_and_one_error_line(argv, unbuffered):
    """Both outputs outgrow a pipe, so the command is still writing when
    the reader closes after 20 bytes: it must exit 1 with one `error:`
    line, never 0 with its output cut, and print no traceback."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(dirac.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # leaving the block closes both pipes and waits for the child
    with subprocess.Popen([sys.executable, "-m", "diracindex.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(20)) == 20
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1, err
    [line] = err.splitlines()
    assert line.startswith("error: standard output was closed")


def test_lattice_offsets_return_at_rank_one():
    """Rank 1 has 7 offsets in [-3, 3], fewer than the 10 asked for.  The
    call runs in a fresh interpreter with a timeout, so a hang fails the
    test in seconds instead of holding the run."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from diracindex.suites import _lattice_offsets_rank\n"
        "print(sorted(_lattice_offsets_rank(1)))\n"
    )
    src = str(Path(dirac.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[(c,) for c in range(-3, 4)]}\n"


def test_suites_deterministic_across_runs():
    first = run_suite("ind-eq-char").to_obj()
    second = run_suite("ind-eq-char").to_obj()
    assert first == second
    assert run_suite("translation").to_obj() == run_suite("translation").to_obj()


def test_run_suite_names_the_registered_suites():
    assert SUITE_NAMES == ("sl2", "translation", "ind-eq-char", "harmonic", "su-n1", "springer")
    with pytest.raises(UnknownSuite) as caught:
        run_suite("nope")
    assert str(caught.value) == (
        "unknown suite 'nope'; choose from "
        "('sl2', 'translation', 'ind-eq-char', 'harmonic', 'su-n1', 'springer')"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--suite", "translation", "--max", "-3"], "springer suite only"),
        (["verify", "--suite", "harmonic", "--max", "0"], "springer suite only"),
        (["verify", "--suite", "springer", "--max", "0"], "at least 1"),
        (["springer-table", "--max", "-1"], "at least 1"),
        (["springer-table", "--max", "0", "--format", "csv"], "at least 1"),
        (["springer-table", "--max", "41"], "at most 40"),
        (["springer-table", "--max", "400", "--format", "csv"], "at most 40"),
        (["verify", "--suite", "springer", "--max", "41"], "at most 40"),
    ],
)
def test_cli_misused_max_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --max ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_cli_unknown_family_tag(capsys):
    code = main(["springer-table", "--families", "E8", "--max", "2"])
    assert code == 2
    assert "unknown family tag" in capsys.readouterr().err


_OVERSIZED_COEFF = '{"type":"polynomial","vars":1,"terms":[{"exp":[1],"coeff":"1e5000"}]}'


def _oversized_form():
    """A factored polynomial whose one factor has the form entry "1e5000"."""
    return {
        "type": "polynomial", "vars": 1, "terms": [{"exp": [1], "coeff": "1"}],
        "factors": [{"form": ["1e5000"], "mult": 1}],
        "cofactor": {"vars": 1, "terms": [{"exp": [0], "coeff": "1"}]},
    }


@pytest.mark.parametrize(
    "argv, env, content",
    [
        (["emit", "--input", "{missing}"], None, None),
        (["emit", "--input", "{path}"], None, '{"type": "polynomial",'),
        (["emit", "--input", "{path}"], None, "[1,2]"),
        (["index-poly", "--group", "SU(2,1)", "--chamber", "5"], None, None),
        (["index-poly", "--group", "SU(2,1)", "--chamber", "0"], "x", None),
        (["emit", "--input", "{path}"], None, '{"type": "polynomial"}'),
        (
            ["emit", "--input", "{path}"],
            None,
            '{"type": "polynomial", "vars": "x", "terms": 5}',
        ),
        (
            ["emit", "--input", "{path}"],
            None,
            '{"type": "polynomial", "vars": 2, "terms": [{"exp": [1, 0], "coeff": "1/0"}]}',
        ),
        (
            ["emit", "--input", "{path}"],
            None,
            '{"type": "polynomial", "vars": -1, "terms": []}',
        ),
        (
            ["emit", "--input", "{path}", "--format", "csv"],
            None,
            '{"type": "springer_table"}',
        ),
        (
            ["emit", "--input", "{path}", "--format", "latex"],
            None,
            '{"type": "springer_table", "rows": [{}]}',
        ),
        (["emit", "--input", "{path}"], None, '{"type":"limit_report"}'),
        (["emit", "--input", "{path}"], None, '{"type":"virtual_module","terms":5}'),
        (["emit", "--input", "{path}"], None, '{"type":"index_family"}'),
        (["emit", "--input", "{path}"], None, '{"type":"virtual_module","terms":[]}'),
        (["emit", "--input", "{path}"], None, '{"type":"index_family","base":[],"coeffs":[]}'),
        (["emit", "--input", "{path}"], None, '{"suite":1,"cases":2,"all_pass":3}'),
        (
            ["emit", "--input", "{path}"],
            None,
            '{"type": "limit_report", "d": true, "value": null, "expected": null,'
            ' "match": false, "underflow": true}',
        ),
        (["emit", "--input", "{path}"], None, '{"type": "polynomial", "vars": true, "terms": []}'),
        (
            ["emit", "--input", "{path}"],
            None,
            '{"type":"polynomial","vars":1,"terms":[{"exp":[1],"coeff":"1"},'
            '{"exp":[1],"coeff":"-1"}]}',
        ),
        (["emit", "--input", "{path}"], None, '{"type": []}'),
        (["emit", "--input", "{path}"], None, "[" * 100_000),
        (["index-poly", "--group", "SU(2,1)", "--hc-param", "1/2,0,-1/2"], None, None),
        (["char-poly", "--n", "12", "--i", "6"], None, None),
        (["gcd", "--n", "12", "--i", "6"], None, None),
        (["char-poly", "--n", "9", "--i", "1"], "8", None),
        (["emit", "--input", "{path}"], None, _OVERSIZED_COEFF),
        (["emit", "--input", "{path}"], None, _OVERSIZED_COEFF.replace('"1e5000"', "1" * 5000)),
        (["emit", "--input", "{path}"], None, json.dumps(_oversized_form())),
    ],
    ids=[
        "missing-file",
        "malformed-json",
        "json-array",
        "chamber-range",
        "rank-cap-env",
        "poly-no-vars",
        "poly-field-types",
        "poly-zero-denominator",
        "poly-negative-vars",
        "table-csv-no-rows",
        "table-latex-empty-row",
        "limit-report-no-fields",
        "virtual-module-terms-int",
        "index-family-no-fields",
        "virtual-module-not-emittable",
        "index-family-not-emittable",
        "suite-report-field-types",
        "limit-report-bool-d",
        "poly-bool-vars",
        "poly-repeated-exp",
        "type-unhashable",
        "deeply-nested-json",
        "hc-param-off-lattice",
        "char-poly-n-over-cap",
        "gcd-n-over-cap",
        "char-poly-n-over-env-cap",
        "poly-coeff-over-digit-bound",
        "poly-coeff-json-number-over-int-limit",
        "factor-form-over-digit-bound",
    ],
)
def test_cli_bad_input_exits_2_with_one_error_line(
    argv, env, content, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    argv = [a.format(missing=tmp_path / "missing.json", path=path) for a in argv]
    if env is not None:
        monkeypatch.setenv("DIRAC_MAX_RANK", env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "kind",
    [json.dumps(list(range(200_000))), json.dumps("x" * 500_000), "[" * 950 + "]" * 950],
    ids=["long-list", "long-string", "deep-list"],
)
def test_cli_emit_cuts_the_echo_of_a_long_type_value(kind, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"type": ' + kind + "}")
    assert main(["emit", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = captured.err.encode()
    assert line.startswith(b"error: cannot emit ") and line.endswith(b"... as json\n")
    assert line.count(b"\n") == 1 and len(line) < 200


def test_cli_emit_echoes_a_short_type_value_whole(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"type": "polynomal"}')
    assert main(["emit", "--input", str(path), "--format", "csv"]) == 2
    assert capsys.readouterr().err == "error: cannot emit 'polynomal' as csv\n"


def _refused_objects():
    """(kind, Python object, JSON text) of each kind emit writes only as json."""
    poly = char_poly_det(4, 2)
    report = _tagged_objects()["limit_report"]
    suite = run_suite("sl2")
    factored = factored_to_obj(poly, *extract_det_factors(4, 2))
    return {
        "polynomial": ("polynomial", poly, emit(poly, "json")),
        "factored": ("polynomial", factored, dumps(factored)),
        "limit_report": ("limit_report", report, emit(report, "json")),
        "suite_report": ("suite_report", suite.to_obj(), dumps(suite.to_obj())),
    }


@pytest.mark.parametrize("fmt", ["csv", "latex"])
@pytest.mark.parametrize("name", ["polynomial", "factored", "limit_report", "suite_report"])
def test_emit_refuses_each_json_only_kind_in_one_message(name, fmt, tmp_path, capsys):
    kind, obj, text = _refused_objects()[name]
    message = f"cannot emit {kind!r} as {fmt}"
    with pytest.raises(UnsupportedFormat) as caught:
        emit(obj, fmt)
    assert str(caught.value) == message
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["emit", "--input", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _tagged_objects():
    fams = sl2_families()
    lam = (F(5), F(0))
    return {
        "limit_report": leading_limit(fams["D+"], lam, (F(1), F(-1)), 1),
        "underflow_report": leading_limit(fams["D+"], lam, (F(1), F(-1)), 0),
    }


@pytest.mark.parametrize("name", ["limit_report", "underflow_report"])
def test_cli_emit_reemits_tagged_object_byte_identically(name, tmp_path, capsys):
    text = emit(_tagged_objects()[name], "json")
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["emit", "--input", str(path)]) == 0
    assert capsys.readouterr().out == text


def _factored_text(capsys, n=4, i=2):
    assert main(["char-poly", "--n", str(n), "--i", str(i), "--factor"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n, i", [(4, 2), (5, 1), (6, 3)])
def test_cli_emit_reemits_factored_char_poly_byte_identically(n, i, tmp_path, capsys):
    text = _factored_text(capsys, n, i)
    assert {"factors", "cofactor"} <= json.loads(text).keys()
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["emit", "--input", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == text


def test_cli_emit_prints_rational_forms_reduced(tmp_path, capsys):
    """Forms with fractions, a negative pivot, content 3 and integral
    fractions re-emit as reduced text, byte for byte."""
    obj = {
        "type": "polynomial",
        "vars": 3,
        "terms": [{"exp": [1, 0, 0], "coeff": "1/2"}, {"exp": [0, 1, 0], "coeff": "-1/2"}],
        "factors": [
            {"form": ["1/2", "-1/2", "0"], "mult": 1},
            {"form": ["-2", "0", "2"], "mult": 2},
            {"form": [3, "0", "-6/2"], "mult": 1},
            {"form": ["0", "2/4", 0], "mult": 3},
        ],
        "cofactor": {"vars": 3, "terms": [{"exp": [0, 0, 0], "coeff": "2/6"}]},
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main(["emit", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        '{"type":"polynomial","vars":3,"terms":[{"exp":[1,0,0],"coeff":"1/2"},'
        '{"exp":[0,1,0],"coeff":"-1/2"}],"factors":[{"form":["1/2","-1/2","0"],"mult":1},'
        '{"form":["-2","0","2"],"mult":2},{"form":["3","0","-3"],"mult":1},'
        '{"form":["0","1/2","0"],"mult":3}],'
        '"cofactor":{"vars":3,"terms":[{"exp":[0,0,0],"coeff":"1/3"}]}}\n'
    )


def _set(path, value):
    """A mutation of a char-poly --factor object: set obj[path] = value."""
    def mutate(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value
    return mutate


def _drop(key):
    return lambda obj: obj.pop(key)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_drop("factors"), "'factors'"),
        (_drop("cofactor"), "'cofactor'"),
        (_set(["factors"], {}), "'factors'"),
        (_set(["factors", 0, "form"], ["1", "x", "0", "0"]), "'form'"),
        (_set(["factors", 0, "form"], ["0", "0", "0", "0"]), "'form'"),
        (_set(["factors", 0, "form"], ["1", "-1"]), "'form'"),
        (_set(["factors", 0, "form"], [True, 0, 0, 0]), "'form'"),
        (_set(["factors", 0, "mult"], 0), "'mult'"),
        (_set(["factors", 0, "mult"], "1"), "'mult'"),
        (_set(["cofactor"], {"vars": 3, "terms": []}), "'vars'"),
        (_set(["cofactor", "terms", 0, "coeff"], "1/0"), "cofactor term has a malformed 'coeff'"),
    ],
    ids=[
        "no-factors", "no-cofactor", "factors-not-list", "form-not-rational",
        "form-zero", "form-arity", "form-bool", "mult-zero", "mult-str",
        "cofactor-arity", "cofactor-coeff",
    ],
)
def test_cli_emit_rejects_malformed_factor_fields(mutate, field, tmp_path, capsys):
    obj = json.loads(_factored_text(capsys))
    mutate(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main(["emit", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err


@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_cli_emit_factored_char_poly_only_as_json(fmt, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(_factored_text(capsys))
    assert main(["emit", "--input", str(path), "--format", fmt]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _pipe(monkeypatch, capsys, first, second):
    """stdout of main(second) with stdout of main(first) on stdin."""
    assert main(first) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(second) == 0
    return capsys.readouterr().out


def test_cli_emit_reads_verify_json(monkeypatch, capsys):
    verify = ["verify", "--suite", "sl2", "--format", "json"]
    assert main(verify) == 0
    direct = capsys.readouterr().out
    assert _pipe(monkeypatch, capsys, verify, ["emit"]) == direct


def test_cli_emit_latex_of_table_json_matches_table_latex(monkeypatch, capsys):
    assert main(["springer-table", "--max", "5", "--format", "latex"]) == 0
    direct = capsys.readouterr().out
    piped = _pipe(
        monkeypatch,
        capsys,
        ["springer-table", "--max", "5", "--format", "json"],
        ["emit", "--format", "latex"],
    )
    assert piped == direct


def test_cli_internal_invariant_exits_3(monkeypatch, capsys):
    def broken(n, i):
        raise InternalInvariantError("self-check failed")

    monkeypatch.setattr("diracindex.cli.gcd_with_index", broken)
    assert main(["gcd", "--n", "4", "--i", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: self-check failed\n"


def test_cli_failed_weight_multiset_check_exits_3(monkeypatch, capsys):
    from diracindex import kmodules

    kmodules._weight_forms.cache_clear()
    monkeypatch.setattr("diracindex.kmodules.weyl_dim_value_g", lambda datum, gamma: 0)
    assert main(["verify", "--suite", "translation"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: weight multiset mass ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_cli_off_lattice_hc_param_message(capsys):
    assert main(["index-poly", "--group", "SU(2,1)", "--hc-param", "1/2,0,-1/2"]) == 2
    assert capsys.readouterr().err == (
        "error: (1/2,0,-1/2) is not on the shifted lattice Lambda + rho_g\n"
    )


def test_cli_emits_a_wide_zero_polynomial_at_once(monkeypatch, capsys):
    # zero has no rows, so nothing is built per variable
    text = '{"type":"polynomial","vars":1000000000000,"terms":[]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    start = time.perf_counter()
    assert main(["emit", "--input", "-"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == text + "\n"


def test_cli_n_cap_refuses_before_expanding(monkeypatch, capsys):
    start = time.perf_counter()
    assert main(["char-poly", "--n", "12", "--i", "6"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "DIRAC_MAX_RANK" in capsys.readouterr().err
    monkeypatch.setenv("DIRAC_MAX_RANK", "9")
    assert main(["char-poly", "--n", "9", "--i", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["vars"] == 9 and obj["terms"]


def test_cli_failed_claim_exits_1(monkeypatch, capsys):
    from diracindex import sun1

    sun1.gcd_with_index.cache_clear()
    monkeypatch.setattr("diracindex.sun1.gcd_factor_pairs", lambda n, i: [(1, 2)])
    assert main(["gcd", "--n", "4", "--i", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: extracted common factor disagrees with the closed form\n"
    )
    assert main(["verify", "--suite", "su-n1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] su-n1/gcd/4,2" in lines and lines[-1] == "su-n1: FAILURES"


def _emitted_objects():
    """One object of every kind that emit writes as JSON, by kind."""
    fams = sl2_families()
    lam = (F(5), F(0))
    sp4 = build_root_datum(GroupId.sp_r(2))
    poly = dirac.index_polynomial(dirac.discrete_series_family((F(2), F(-1)), sp4))
    return {
        "polynomial": {"type": "polynomial", **poly_to_obj(poly)},
        "zero polynomial": {"type": "polynomial", **poly_to_obj(MultiPoly.zero(0))},
        "factored polynomial": factored_to_obj(
            char_poly_det(4, 2), *extract_det_factors(4, 2)
        ),
        "limit_report": {
            "type": "limit_report",
            **limit_report_to_obj(leading_limit(fams["D+"], lam, (F(1), F(-1)), 1)),
        },
        "springer_table": {
            "type": "springer_table",
            "rows": [springer_row_to_obj(springer_row(g)) for g in table_groups(2)],
        },
        "suite_report": run_suite("sl2").to_obj(),
    }


@pytest.mark.parametrize("kind", list(_emitted_objects()))
def test_dumps_matches_json_dumps_with_cycle_check(kind):
    obj = _emitted_objects()[kind]
    text = json.dumps(obj, separators=(",", ":")) + "\n"
    assert dumps(obj) == text
    # emit re-reads what json.loads builds
    assert dumps(json.loads(text)) == text


class _ListSubclass(list):
    pass


# JSON leaves, with the floats nan and inf, non-ASCII text and text that
# needs escapes
_json_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["\u00e9", "\"\\/\n\t\x00\x1f", "\u2603\U0001d11e", "\ud800"])
)
_json_items = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _sliced_candidates(draw):
    """A dict with top-level list members of the lengths around _SLICE, which
    dumps writes in slices, and beside them such lists where it must not:
    nested in a dict member or a tuple, as a list subclass, or in a dict
    with a key that is not a str."""
    pool = draw(st.lists(_json_items, min_size=1, max_size=4))

    def long_list():
        n = draw(st.sampled_from([0, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1]))
        return [pool[k % len(pool)] for k in range(n)]

    obj = draw(st.dictionaries(st.text(max_size=3), _json_items, max_size=3))
    for key in draw(st.lists(st.text(max_size=3), min_size=1, max_size=3)):
        obj[key] = long_list()
    nested = draw(st.sampled_from(["none", "dict member", "tuple", "list subclass"]))
    if nested == "dict member":
        obj["nested"] = {"inner": long_list()}
    elif nested == "tuple":
        obj["nested"] = (long_list(), tuple(long_list()))
    elif nested == "list subclass":
        obj["nested"] = _ListSubclass(long_list())
    if draw(st.booleans()):
        key = draw(st.integers() | st.booleans() | st.none() | st.floats())
        obj[key] = long_list()
    return obj if draw(st.booleans()) else [obj]


@settings(max_examples=60, deadline=None)
@given(_sliced_candidates())
def test_sliced_dumps_matches_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, separators=(",", ":")) + "\n"


def test_dumps_of_a_long_polynomial_peaks_near_its_text():
    """The C encoder keeps every fragment of its text until it joins them:
    on CPython 3.11, dumps in one call of the 5040-term Sp(14,R) index
    polynomial peaked at 3.16 MB for 0.23 MB of text.  Written in slices,
    it holds the text about twice: once in pieces and once joined."""
    datum = build_root_datum(parse_group("Sp(14,R)"))
    poly = dirac.index_polynomial(dirac.discrete_series_family(datum.rho_g, datum))
    obj = {"type": "polynomial", **poly_to_obj(poly)}
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        text = dumps(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(obj["terms"]) == 5040
    assert peak < 4 * len(text)
