"""Random argv for the command line: every outcome is an exit code of the
contract (0, 1, 2 or 3) or argparse's SystemExit(2), never a traceback.

Sizes stay small so that each call is cheap: groups of rank <= 3,
--n <= 5, --max <= 2, and verify runs only the sl2 suite.
"""

import contextlib
import io
import sys

from hypothesis import given, settings, strategies as st

from diracindex.cli import main

GROUPS = [
    "SU(1,1)", "SU(2,1)", "SU(1,2)", "Sp(2,R)", "Sp(4,R)", "Sp(6,R)", "Sp(1,1)",
    "SOe(2,1)", "SOe(2,3)", "SOe(4,1)", "SOe(2,2)", "SO*(4)", "SO*(6)",
]
BAD_GROUPS = [
    "SU(2,1,9)", "SO*(6,4)", "SOe(4,5,7)", "Sp(4,R,1)", "Sp(1,2,3)", "SU(1)",
    "Sp(3,R)", "SO*(5)", "SOe(3,2)", "SU(-1,2)", "SU(0,0)", "SU(,)", "SL(2,R)",
    "SU(2,1", "", "R",
]
WORDS = ["", "-", "a", "1/0", "1.5", ",", "1,,2", "2,1"]
FORMATS = ["json", "csv", "latex", "text"]
BAD_FORMATS = ["yaml", ""]
FAMILIES = ["all", "SU", "Sp2nR", "SOstar,SpPQ", "SOe_even_odd,SOe_even_even"]
BAD_FAMILIES = ["bogus", "", "SU,"]
EMIT_INPUTS = [
    "",
    "[]",
    "{",
    '{"type":"polynomial","vars":2,"terms":[{"exp":[1,0],"coeff":"1/2"}]}',
    '{"type":"polynomial","vars":1,"terms":[{"exp":[1],"coeff":"1"},{"exp":[1],"coeff":"-1"}]}',
    '{"type":"polynomial","vars":-1,"terms":[]}',
    '{"type":"springer_table","rows":[]}',
    '{"type":"limit_report","d":1,"value":"0","expected":"0","match":true,"underflow":false}',
    '{"suite":"sl2","cases":[],"all_pass":true}',
    '{"type":"virtual_module","terms":[]}',
    '{"type":"index_family","base":[],"coeffs":[]}',
    '{"type":7}',
    "[" * 100_000,
]


def _mostly(good, bad):
    """A well-formed value three times in four, else a malformed one."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


small_ints = _mostly(st.integers(1, 5).map(str), st.sampled_from(WORDS + ["0", "-1", "-2"]))
coordinates = _mostly(
    st.integers(-5, 5).map(str) | st.fractions(-5, 5, max_denominator=4).map(str),
    st.sampled_from(WORDS),
)
# regular parameters of some of GROUPS, or random coordinates
weights = _mostly(
    st.sampled_from(["1/2,-1/2", "2,1", "3,1", "3/2,1/2", "1,0,-1", "3,2,1", "5/2,3/2,1/2"]),
    st.lists(coordinates, min_size=1, max_size=4).map(",".join),
)

# Per subcommand: the options it requires, then all of its options.
OPTIONS = {
    "springer-table": (["--max"], {  # the default --max 5 is not cheap
        "--families": _mostly(st.sampled_from(FAMILIES), st.sampled_from(BAD_FAMILIES)),
        "--max": _mostly(st.integers(-1, 2).map(str), st.sampled_from(WORDS)),
        "--format": _mostly(st.sampled_from(FORMATS), st.sampled_from(BAD_FORMATS)),
    }),
    "index-poly": (["--group"], {
        "--group": _mostly(st.sampled_from(GROUPS), st.sampled_from(BAD_GROUPS)),
        "--chamber": small_ints,
        "--hc-param": weights,
    }),
    "char-poly": (["--n", "--i"], {"--n": small_ints, "--i": small_ints, "--factor": st.none()}),
    "gcd": (["--n", "--i"], {"--n": small_ints, "--i": small_ints}),
    "verify": (["--suite"], {
        "--suite": _mostly(st.just("sl2"), st.sampled_from(["nonsense", ""])),
        "--max": st.integers(-1, 2).map(str),
        "--format": _mostly(st.sampled_from(FORMATS), st.sampled_from(BAD_FORMATS)),
    }),
    "emit": ([], {
        "--input": st.just("-"),
        "--format": _mostly(st.sampled_from(FORMATS), st.sampled_from(BAD_FORMATS)),
    }),
}


@st.composite
def command_lines(draw):
    """(argv, stdin): a subcommand with its required options, usually, and a
    random subset of the others, each with a well-formed or malformed value,
    in random order; sometimes a stray argument at the end."""
    command = draw(st.sampled_from(sorted(OPTIONS) + ["--bogus"]))
    required, options = OPTIONS.get(command, ([], {}))
    chosen = [name for name in options if name in required or draw(st.booleans())]
    if required and draw(st.integers(0, 7)) == 0:
        chosen.remove(draw(st.sampled_from(required)))
    argv = [command]
    for name in draw(st.permutations(chosen)):
        value = draw(options[name])
        argv += [name] if value is None else [name, value]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--max"])))
    return argv, draw(st.sampled_from(EMIT_INPUTS))


def _outcome(argv, stdin):
    """main(argv)'s return value, or "usage" for argparse's SystemExit(2),
    with stdin given; stderr is returned too."""
    err = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                return main(argv), err.getvalue()
            except SystemExit as exc:
                assert exc.code == 2, argv
                return "usage", err.getvalue()
    finally:
        sys.stdin = saved


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_cli_fuzz_exits_with_a_contract_code(case):
    argv, stdin = case
    code, err = _outcome(argv, stdin)
    assert code in (0, 1, 2, 3, "usage"), (argv, code)
    assert "Traceback" not in err
