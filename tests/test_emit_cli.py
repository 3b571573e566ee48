import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from diracindex.asymptotics import leading_limit
from diracindex.cli import main, parse_group
from diracindex.emit import (
    dumps,
    emit,
    poly_from_obj,
    poly_to_obj,
    springer_rows_to_csv,
    springer_rows_to_latex,
)
from diracindex.errors import InternalInvariantError, UnsupportedFormat
from diracindex.fixtures import sl2_families
from diracindex.groups import GroupId
from diracindex.polynomials import MultiPoly
from diracindex.springer import springer_row
from diracindex.suites import run_suite


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
    text = springer_rows_to_latex([row])
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


@pytest.mark.parametrize("text", ["1/0,1", "a,1", "1,,2"])
def test_cli_bad_hc_param_is_usage_error(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index-poly", "--group", "Sp(4,R)", "--hc-param", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--hc-param" in err and "Traceback" not in err


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


def test_cli_rank_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("DIRAC_MAX_RANK", "4")
    code = main(["index-poly", "--group", "SU(4,1)", "--hc-param", "9,7,5,3,1"])
    assert code == 2
    monkeypatch.setenv("DIRAC_MAX_RANK", "6")
    code = main(["index-poly", "--group", "SU(4,1)", "--hc-param", "9,7,5,3,1"])
    capsys.readouterr()
    assert code == 0


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "diracindex.cli", "verify", "--suite", "sl2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "all passed" in result.stdout


def test_suites_deterministic_across_runs():
    first = run_suite("ind-eq-char").to_obj()
    second = run_suite("ind-eq-char").to_obj()
    assert first == second
    assert run_suite("translation").to_obj() == run_suite("translation").to_obj()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--suite", "translation", "--max", "-3"], "springer suite only"),
        (["verify", "--suite", "harmonic", "--max", "0"], "springer suite only"),
        (["verify", "--suite", "springer", "--max", "0"], "at least 1"),
        (["springer-table", "--max", "-1"], "at least 1"),
        (["springer-table", "--max", "0", "--format", "csv"], "at least 1"),
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
        (["index-poly", "--group", "SU(2,1)", "--hc-param", "1/2,0,-1/2"], None, None),
        (["char-poly", "--n", "12", "--i", "6"], None, None),
        (["gcd", "--n", "12", "--i", "6"], None, None),
        (["char-poly", "--n", "9", "--i", "1"], "8", None),
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
        "hc-param-off-lattice",
        "char-poly-n-over-cap",
        "gcd-n-over-cap",
        "char-poly-n-over-env-cap",
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
