"""The command table of tools/census.py covers the whole command line, so a
new subcommand, format or suite cannot escape the unreached-code census."""

import argparse
import importlib.util
from pathlib import Path

from diracindex.cli import build_parser
from diracindex.suites import SUITE_NAMES

CENSUS = Path(__file__).resolve().parents[1] / "tools" / "census.py"


def _census():
    """Import tools/census.py without running it."""
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _format_choices(parser):
    """The --format choices of a subparser, or [None] if it has no --format."""
    for action in parser._actions:
        if "--format" in action.option_strings:
            return list(action.choices)
    return [None]


def test_census_covers_every_subcommand_format_and_suite():
    census = _census()
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    covered = {(argv[0], _option(argv, "--format")) for argv, _ in census.COMMANDS}
    covered |= {("emit", fmt) for fmt in census.EMIT_FORMATS}
    for name, parser in subparsers.choices.items():
        for fmt in _format_choices(parser):
            assert (name, fmt) in covered, f"census runs no {name} --format {fmt}"
    suites = {
        (_option(argv, "--suite"), _option(argv, "--format"))
        for argv, _ in census.COMMANDS
        if argv[0] == "verify"
    }
    verify_formats = _format_choices(subparsers.choices["verify"])
    for suite in SUITE_NAMES:
        for fmt in verify_formats:
            assert (suite, fmt) in suites, f"census runs no verify --suite {suite} --format {fmt}"
