"""Only `stoch` reads a map's integer form.

A `StochMap` holds integer numerators `nums` over one denominator `den`.
Map equality already is exact rational equality, so every other module
compares maps with `==` and reads entries through `matrix`, `column` or
a call; the integer form stays private to the module that keeps it
reduced.
"""

import ast

import pytest

from conftest import SOURCES

OUTSIDE_STOCH = [p for p in SOURCES if p.name != "stoch.py"]


def test_modules_outside_stoch_are_found():
    assert len(OUTSIDE_STOCH) == len(SOURCES) - 1 and any(p.name == "cli.py" for p in OUTSIDE_STOCH)


@pytest.mark.parametrize("path", OUTSIDE_STOCH, ids=[p.name for p in OUTSIDE_STOCH])
def test_no_read_of_den_or_nums(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [f"{node.attr} at line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("den", "nums")]
    assert not reads, f"{path.name} reads a map's integer form: {reads}"
