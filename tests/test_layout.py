"""Module boundaries inside the package: no module under src/ltsdeform/
imports an underscore-prefixed (private) name from a sibling module, or a
name it never uses (the package's __init__.py re-exports and the
__future__ imports aside); and no function or class it defines goes unnamed
in src, tests, scripts and perfbench, which would make it dead code."""

import ast
import re
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


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield "%s:%d imports %s and never uses it" % (path.name, node.lineno, name)


def test_no_module_imports_a_name_it_never_uses():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    found = [hit for path in modules for hit in _unused_imports(path)]
    assert not found, found


ROOT = PACKAGE.parent.parent
READERS = ("src", "tests", "scripts", "perfbench")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _names_read(tree):
    """Every name the code reads: names, attributes, imported names, and the
    words of string constants other than docstrings (the benchmark tracer
    names the functions it wraps in strings)."""
    docs = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield from re.findall(r"\w+", node.value)


def test_every_definition_in_the_package_is_named_somewhere():
    read = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            read.update(_names_read(ast.parse(path.read_text(), filename=str(path))))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("__") and node.name not in read):
                unread.append("%s:%d defines %s" % (path.name, node.lineno, node.name))
    assert not unread, unread
