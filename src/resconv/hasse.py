"""Covering-relation diagrams of the order, quotiented by interconvertibility.

Nodes are equivalence classes (mutually convertible terms merged, the
label listing representatives); edges point from the greater class to
the classes it covers.  Output follows the Graphviz plain-text grammar,
with `\\` and `"` escaped in labels, and is byte-deterministic for a
fixed input.
"""

from __future__ import annotations

from typing import Any, Sequence

from .core import TheoryOracle, bit_indices, order_matrix


def hasse_classes(t: TheoryOracle, terms: Sequence[Any]) -> tuple[list[list[Any]], list[tuple[int, int]]]:
    """Equivalence classes and covering edges of the quotient order.

    Each class is represented by its first term.  A class covers the
    classes strictly below it that are strictly below none of those, read
    off the order's bitset rows restricted to the representatives."""
    elems = list(dict.fromkeys(terms))
    ge = order_matrix(t, elems)

    classes: list[list[Any]] = []
    reps: list[int] = []
    for i in range(len(elems)):
        for c, r in enumerate(reps):
            if ge[i] >> r & 1 and ge[r] >> i & 1:
                classes[c].append(elems[i])
                break
        else:
            classes.append([elems[i]])
            reps.append(i)

    class_of = {r: c for c, r in enumerate(reps)}
    rep_bits = sum(1 << r for r in reps)
    below = {r: ge[r] & rep_bits & ~(1 << r) for r in reps}
    edges = []
    for c1, r1 in enumerate(reps):
        covers = below[r1]
        for mid in bit_indices(below[r1]):
            covers &= ~below[mid]
        edges.extend((c1, class_of[r2]) for r2 in bit_indices(covers))
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
