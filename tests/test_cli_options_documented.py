"""Every option the CLI lists in `--help` is documented in README.md.

Options hidden from `--help` (help=argparse.SUPPRESS) are accepted for
old scripts only and are not checked; `-h/--help` is argparse's own.
"""

import argparse
import re
from pathlib import Path

import pytest

from resconv.cli import _PARSER

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SUBCOMMANDS = next(a for a in _PARSER._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def listed_options(parser):
    return [opt for action in parser._actions
            if action.help != argparse.SUPPRESS and not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_listed_options_appear_in_the_readme(command):
    missing = [opt for opt in listed_options(SUBCOMMANDS[command])
               if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", README)]
    assert not missing, f"{command} lists options the README never names: {missing}"
