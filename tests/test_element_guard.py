"""Whether a value is a group element is decided in one place, the guard
``sgroup._element``; every other check of an element argument calls it.
The source of ``bms`` is parsed, not imported, so a check in code that no
test runs is found too."""

import ast
from pathlib import Path

import bms

SRC = Path(bms.__file__).parent


class _Scan(ast.NodeVisitor):
    """The (module, function) of each ``isinstance(..., GroupElement)``."""

    def __init__(self, module: str) -> None:
        self.module, self.scope = module, "<module>"
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(ast.unparse(n).split(".")[-1] == "GroupElement" for n in names):
                self.found.append((self.module, self.scope))
        self.generic_visit(node)


def _scan(source: str, module: str) -> list[tuple[str, str]]:
    scan = _Scan(module)
    scan.visit(ast.parse(source))
    return scan.found


def test_the_scan_finds_each_form_of_the_test():
    source = (
        "def f(x):\n"
        "    return isinstance(x, GroupElement)\n"
        "def g(x):\n"
        "    return isinstance(x, (int, sgroup.GroupElement))\n"
        "isinstance(1, int)\n"
    )
    assert _scan(source, "m") == [("m", "f"), ("m", "g")]


def test_only_the_guard_tests_for_a_group_element():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _scan(path.read_text(), path.stem)
    assert found == [("sgroup", "_element")]
