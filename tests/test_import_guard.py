"""Every command runs in a fresh interpreter, so what importing the package
and building the parser pulls in is paid on each run.  dataclasses brought
inspect, ast, dis and tokenize, and typing costs a few milliseconds more;
the package uses neither."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = ("dataclasses", "inspect", "typing")
CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import diracindex.cli\n"
    "diracindex.cli.build_parser()\n"
    f"print(*[m for m in {AVOIDED!r} if m in sys.modules])\n"
)


def test_parser_setup_imports_no_dataclasses_inspect_or_typing():
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CODE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
