"""Golden CLI gate: stdout of fixed commands must stay byte-identical.

`golden_cli.json` maps each command line to the sha256 and byte length of
its stdout.  The `emit` example reads `table.json`, the output of
`springer-table --max 5 --format json`, from the working directory.

Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from diracindex.cli import main

DIGESTS = Path(__file__).with_name("golden_cli.json")
TABLE_JSON = "springer-table --max 5 --format json"

COMMANDS = [
    # README examples
    "springer-table --max 5 --format csv",
    "index-poly --group 'SU(2,1)' --chamber 0",
    "index-poly --group 'Sp(4,R)' --hc-param 2,1",
    "char-poly --n 4 --i 2 --factor",
    "gcd --n 5 --i 2",
    "verify --suite sl2",
    "emit --input table.json --format csv",
    # the table in every format
    TABLE_JSON,
    "springer-table --max 5 --format latex",
    # the rows of rank <= 11 that the benchmark emits
    "springer-table --max 6 --format csv",
    # the generator text at rank <= 16, and in LaTeX with two-digit indices
    "springer-table --max 8 --format json",
    "springer-table --max 6 --format latex",
    # every suite report
    *(
        f"verify --suite {suite} --format json"
        for suite in ("sl2", "translation", "ind-eq-char", "harmonic", "su-n1", "springer")
    ),
    # larger kernels
    "index-poly --group 'Sp(14,R)' --hc-param 7,6,5,4,3,2,1",
    # chamber sign -1: the index polynomial is -D_k
    "index-poly --group 'Sp(14,R)' --hc-param 7,6,5,4,3,2,-1",
    # rank-7 index polynomials over every compact block kind and layout
    "index-poly --group 'SO*(14)' --hc-param 6,5,4,3,2,1,0",
    "index-poly --group 'SOe(12,3)' --hc-param 13/2,11/2,9/2,7/2,5/2,3/2,1/2",
    "index-poly --group 'Sp(1,6)' --hc-param 7,6,5,4,3,2,1",
    "index-poly --group 'SOe(6,8)' --hc-param 6,5,4,3,2,1,0",
    "index-poly --group 'SU(1,6)' --hc-param 3,2,1,0,-1,-2,-3",
    # rank 8 at the default cap: 40,320 terms of eight fields each
    "index-poly --group 'Sp(16,R)' --hc-param 8,7,6,5,4,3,2,1",
    # a D4 block beside a B3 block
    "index-poly --group 'SOe(8,7)' --hc-param 13/2,11/2,9/2,7/2,5/2,3/2,1/2",
    # a chamber family above rank 3, built on the SU(n,1) datum of sun1
    "index-poly --group 'SU(7,1)' --chamber 3",
    "char-poly --n 6 --i 3 --factor",
    "gcd --n 6 --i 3",
    # gcd at the smallest n and at the ranks of the benchmark and suite
    "gcd --n 2 --i 1",
    "gcd --n 7 --i 3",
    "gcd --n 8 --i 4",
    # the heaviest factor extractions of the benchmark; i = 1 leaves a
    # constant cofactor
    "char-poly --n 7 --i 3 --factor",
    "char-poly --n 7 --i 1 --factor",
    # D_k over block layouts that the block-diagonal alternant expands in
    # one call: a D7 block beside the empty B0 block, two exponent-0
    # columns on disjoint rows (D1 beside D6), and the balanced C4 x C4
    "index-poly --group 'SOe(14,1)' --hc-param 13/2,11/2,9/2,7/2,5/2,3/2,1/2",
    "index-poly --group 'SOe(2,12)' --hc-param 6,5,4,3,2,1,0",
    "index-poly --group 'Sp(4,4)' --hc-param 8,7,6,5,4,3,2,1",
    # the character determinant without --factor
    "char-poly --n 6 --i 2",
    # factor extractions whose compact block {n-i+1..n} is the larger one
    "char-poly --n 7 --i 5 --factor",
    "char-poly --n 6 --i 4 --factor",
    "char-poly --n 8 --i 6 --factor",
    # the n = 8 middle chamber: the most divisions and failed probes
    "char-poly --n 8 --i 4 --factor",
    # fifteen successive divisions down to a constant cofactor
    "gcd --n 7 --i 1",
]


def _run(command: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(command))
    return code, buf.getvalue().encode()


def _digest(out: bytes) -> dict:
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _, table = _run(TABLE_JSON)
    (path / "table.json").write_bytes(table)
    return path


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_stdout_matches_golden_digest(command, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    code, out = _run(command)
    assert code == 0
    assert _digest(out) == json.loads(DIGESTS.read_text())[command]


def test_digest_file_lists_exactly_the_commands():
    assert list(json.loads(DIGESTS.read_text())) == COMMANDS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("table.json").write_bytes(_run(TABLE_JSON)[1])
        digests = {}
        for command in COMMANDS:
            code, out = _run(command)
            if code != 0:
                sys.exit(f"{command!r} exited {code}")
            digests[command] = _digest(out)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
