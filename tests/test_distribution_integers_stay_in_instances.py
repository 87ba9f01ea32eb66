"""Only `instances` reads a distribution's integer form.

A `ProbVector` holds integer `weights` over one `total`.  Distribution
equality already is exact rational equality, so every other module
compares distributions with `==` and reads entries through `entries`,
indexing or `str`; the integer form stays private to the module that
keeps it reduced.
"""

import ast

import pytest

from conftest import SOURCES

OUTSIDE_INSTANCES = [p for p in SOURCES if p.name != "instances.py"]


def test_modules_outside_instances_are_found():
    assert len(OUTSIDE_INSTANCES) == len(SOURCES) - 1 \
        and any(p.name == "cli.py" for p in OUTSIDE_INSTANCES)


@pytest.mark.parametrize("path", OUTSIDE_INSTANCES, ids=[p.name for p in OUTSIDE_INSTANCES])
def test_no_read_of_total_or_weights(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [f"{node.attr} at line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("total", "weights")]
    assert not reads, f"{path.name} reads a distribution's integer form: {reads}"
