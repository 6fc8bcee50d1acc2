"""Module boundaries inside the package: no module under src/ltsdeform/
imports an underscore-prefixed (private) name from a sibling module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ltsdeform"


def _private_sibling_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "ltsdeform"
        if sibling:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield "%s:%d imports %s from %s" % (
                        path.name, node.lineno, alias.name, "." * node.level + (node.module or ""))


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _private_sibling_imports(path)]
    assert not found, found
