"""Alphabets are compared as `FinSet`s, not as element tuples.

`FinSet` equality compares elements only (its label is not compared), so
`x == y` on two alphabets is the type test.  The one exception is the
free-transformation closure, `stoch.search_free_transformation_batch`,
which keys its hot dicts and states by raw element tuples because a
`FinSet`'s dataclass `__hash__` is a Python call on every lookup.
"""

import ast

import pytest

from conftest import SOURCES

EXEMPT_FUNCTION = ("stoch.py", "search_free_transformation_batch")


def _reads_elements(node: ast.expr) -> bool:
    """An operand that is `x.elements`, or a tuple with such an item."""
    if isinstance(node, ast.Tuple):
        return any(_reads_elements(item) for item in node.elts)
    return isinstance(node, ast.Attribute) and node.attr == "elements"


def element_comparisons(name: str, text: str) -> list[int]:
    """Lines of `==`/`!=` comparisons that read `.elements` in an operand,
    outside the exempt closure."""
    tree = ast.parse(text, filename=name)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (name, node.name) == EXEMPT_FUNCTION:
            exempt.update(id(inner) for inner in ast.walk(node))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) not in exempt
                  and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                  and any(_reads_elements(x) for x in [node.left, *node.comparators]))


def test_the_guard_sees_each_form():
    text = ("def f(a, b):\n"
            "    return a.elements == b.elements\n"
            "def g(a, b, c, d):\n"
            "    return (a.elements, b) != (c, d)\n"
            "def h(a, b):\n"
            "    return a == b and len(a.elements) != 0\n"
            "def search_free_transformation_batch(a, b):\n"
            "    return a.elements == b\n")
    assert element_comparisons("stoch.py", text) == [2, 4]
    assert element_comparisons("combs.py", text) == [2, 4, 8]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_alphabets_compare_as_finsets(path):
    lines = element_comparisons(path.name, path.read_text())
    assert not lines, (f"{path.name} compares element tuples at line(s) {lines}; "
                       "compare the FinSets themselves")
