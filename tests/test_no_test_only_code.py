"""The package ships no function or class whose only callers are tests.

A top-level function or class of a ``src/rissim`` module counts as used when
its name appears as an AST name, attribute or import in another package
module or in its own module outside its definition, as a name or inside a
string in ``benchmarks/*.py`` (the tracer names its layers as strings), or
in one of README's code blocks. Docstrings and comments do not count.
Test-only references belong in ``tests/reference_paths.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rissim"


def docstrings(tree):
    """The string constants that are docstrings of the tree's scopes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def referenced(tree, skip=None, strings=False):
    """Names, attributes and imports under ``tree``, not descending into ``skip``.

    With ``strings``, also the words of every string constant but docstrings.
    """
    names, excluded, stack = set(), docstrings(tree), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in excluded:
                names.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_package_function_and_class_has_a_non_test_reference():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        outside |= referenced(ast.parse(path.read_text()), strings=True)
    for block in re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        outside.update(re.findall(r"\w+", block))

    inside = {stem: referenced(tree) for stem, tree in modules.items()}
    unused = []
    for stem, tree in modules.items():
        others = set().union(*(names for s, names in inside.items() if s != stem))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                used = others | outside | referenced(tree, skip=node)
                if node.name not in used:
                    unused.append(f"{stem}.{node.name}")
    assert unused == []
