"""Runtime checks in the package never rely on `assert`.

`python -O` strips assert statements, so a check written as one silently
disappears; every check in `src/resconv/` raises explicitly instead.
"""

import ast

import pytest

from conftest import SOURCES


def test_package_sources_are_found():
    assert any(p.name == "stoch.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at line(s) {lines}"
