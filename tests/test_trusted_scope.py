"""Each unchecked ``_trusted`` constructor is reached only from the module
that defines its class, so every construction that skips a check sits next
to the check it skips.  The source of ``bms`` is parsed, not imported, so a
reference in code that no test runs is found too."""

import ast
from pathlib import Path

import bms
from bms.mspace import MultiSpace

SRC = Path(bms.__file__).parent

# (module, function, class) of each reference allowed outside the defining
# module.  The legs of ``limits.limit`` stay unchecked so that a wrong apex
# multiplicity reaches ``laws.check_limit_law`` as a failed law, where the
# checked constructor would stop the sweep with a DivisibilityError (the
# "limit takes max for lcm" row of tests/test_law_sensitivity.py).
ALLOWED = [("limits", "limit", "BmsMorphism")]


class _Scan(ast.NodeVisitor):
    """The classes that define ``_trusted`` and the references to it."""

    def __init__(self, module: str) -> None:
        self.module, self.scope = module, "<module>"
        self.owners: dict[str, str] = {}
        self.refs: list[tuple[str, str, str]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(isinstance(f, ast.FunctionDef) and f.name == "_trusted" for f in node.body):
            self.owners[node.name] = self.module
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "_trusted":
            self.refs.append((self.module, self.scope, ast.unparse(node.value)))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if any(alias.name == "_trusted" for alias in node.names):
            self.refs.append((self.module, self.scope, f"import from {node.module}"))


def _scan() -> tuple[dict[str, str], list[tuple[str, str, str]]]:
    owners, refs = {}, []
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(), str(path)))
        owners.update(scan.owners)
        refs += scan.refs
    return owners, refs


def test_the_trusted_constructors_are_found():
    owners, refs = _scan()
    assert owners == {"BmsMorphism": "mspace", "GroupElement": "sgroup"}
    assert not hasattr(MultiSpace, "_trusted")
    assert {module for module, _, _ in refs} >= {"mspace", "sgroup"}


def test_trusted_is_reached_only_from_its_module():
    owners, refs = _scan()
    outside = [(m, f, c) for m, f, c in refs if owners.get(c) != m]
    assert outside == ALLOWED
