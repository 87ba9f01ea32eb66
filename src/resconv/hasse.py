"""Covering-relation diagrams of the order, quotiented by interconvertibility.

Nodes are equivalence classes (mutually convertible terms merged, the
label listing representatives); edges point from the greater class to
the classes it covers.  Output follows the Graphviz plain-text grammar,
with `\\` and `"` escaped in labels, and is byte-deterministic for a
fixed input.
"""

from __future__ import annotations

from typing import Any, Sequence

from .core import TheoryOracle, order_matrix


def hasse_classes(t: TheoryOracle, terms: Sequence[Any]) -> tuple[list[list[Any]], list[tuple[int, int]]]:
    """Equivalence classes and covering edges of the quotient order."""
    elems = list(dict.fromkeys(terms))
    ge = order_matrix(t, elems)

    classes: list[list[Any]] = []
    reps: list[int] = []
    for i in range(len(elems)):
        for c, r in enumerate(reps):
            if ge[i][r] and ge[r][i]:
                classes[c].append(elems[i])
                break
        else:
            classes.append([elems[i]])
            reps.append(i)

    m = len(classes)
    strictly_above = [[False] * m for _ in range(m)]
    for c1, r1 in enumerate(reps):
        for c2, r2 in enumerate(reps):
            if c1 != c2 and ge[r1][r2]:
                strictly_above[c1][c2] = True
    edges = []
    for c1 in range(m):
        for c2 in range(m):
            if not strictly_above[c1][c2]:
                continue
            if any(strictly_above[c1][mid] and strictly_above[mid][c2] for mid in range(m)):
                continue  # not a covering pair
            edges.append((c1, c2))
    return classes, edges


def hasse_dot(t: TheoryOracle,
              diagram: tuple[list[list[Any]], list[tuple[int, int]]]) -> str:
    """DOT text of `diagram`, the (classes, edges) pair of `hasse_classes`.
    Nodes are numbered in the order of their unescaped labels."""
    classes, edges = diagram
    labeled = [", ".join(sorted(t.format_term(x) for x in cls)) for cls in classes]
    order = sorted(range(len(classes)), key=lambda c: labeled[c])
    rename = {c: i for i, c in enumerate(order)}
    lines = ["digraph order {", "  node [shape=box];"]
    for c in order:
        label = labeled[c].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{rename[c]} [label="{label}"];')
    for c1, c2 in sorted(edges, key=lambda e: (rename[e[0]], rename[e[1]])):
        lines.append(f"  n{rename[c1]} -> n{rename[c2]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
