"""Only the constructors and the two kernels build a map unchecked.

`stoch._kernel_map` makes a map from integers without checking them.
Its callers are the places whose maps are valid by construction:
`from_ratios` (checked just before), `from_function`, the kernels
`compose_seq` and `compose_par`, and `SharedRandomness`, which keeps the
state its own check builds.  Anything else, `simulate_channel` among
them, composes those maps instead of building one by hand.
"""

import ast

from conftest import SOURCES

STOCH = next(p for p in SOURCES if p.name == "stoch.py")
BUILDERS = {"from_ratios", "from_function", "compose_seq", "compose_par",
            "SharedRandomness.__init__"}


def _scopes_naming(tree: ast.AST, name: str) -> list[str]:
    """The dotted function or class scope of every read of `name`: calls,
    and any alias that could be called later."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_constructors_and_kernels_build_maps():
    scopes = _scopes_naming(ast.parse(STOCH.read_text(), filename=str(STOCH)), "_kernel_map")
    stray = sorted(set(scopes) - BUILDERS)
    assert not stray, f"_kernel_map is read outside the constructors and kernels: {stray}"
    assert "SharedRandomness.__init__" in scopes and "compose_seq" in scopes
