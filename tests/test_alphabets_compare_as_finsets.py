"""Alphabets are compared as `FinSet`s, not as element tuples.

A `FinSet` is the tuple of its element names (its label is not
compared), so `x == y` on two alphabets is the type test, and the
free-transformation closure keys its dicts and states by `FinSet`s too.
"""

import ast

import pytest

from conftest import SOURCES


def _reads_elements(node: ast.expr) -> bool:
    """An operand that is `x.elements`, or a tuple with such an item."""
    if isinstance(node, ast.Tuple):
        return any(_reads_elements(item) for item in node.elts)
    return isinstance(node, ast.Attribute) and node.attr == "elements"


def element_comparisons(name: str, text: str) -> list[int]:
    """Lines of `==`/`!=` comparisons that read `.elements` in an operand."""
    tree = ast.parse(text, filename=name)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
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
    assert element_comparisons("stoch.py", text) == [2, 4, 8]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_alphabets_compare_as_finsets(path):
    lines = element_comparisons(path.name, path.read_text())
    assert not lines, (f"{path.name} compares element tuples at line(s) {lines}; "
                       "compare the FinSets themselves")


def test_stoch_reads_alphabets_as_tuples():
    # a FinSet has no `elements`: it is the tuple of its element names
    path = next(p for p in SOURCES if p.name == "stoch.py")
    reads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "elements"]
    assert not reads, f"stoch.py reads `.elements` at line(s) {reads}"
