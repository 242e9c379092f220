"""No ``import`` statements inside functions of the simulator's hot layers.

A function-level ``import`` runs the import machinery on every call
(about 1 us on a shared Xeon host), which a protocol handler pays once
per home transaction.  The kernel, network, coherence,
cache, memory, node and sync layers import at module level only.  Imports
under ``if TYPE_CHECKING:`` never run and are allowed anywhere.

An exception belongs in ``ALLOWED`` with the reason it cannot be hoisted
(a circular import on a cold path, say).
"""

import ast
import os

import pytest

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
LAYERS = ("sim", "network", "coherence", "cache", "memory", "node", "sync")

#: ``"<path relative to src/repro>::<function qualname>"`` -> reason.
ALLOWED: dict = {}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _function_imports(tree: ast.Module):
    """Yield ``(qualname, lineno)`` for every import inside a function body."""

    def visit(node, scope, in_function):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if in_function:
                yield ".".join(scope), node.lineno
            return
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            children = node.orelse
        else:
            children = ast.iter_child_nodes(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope, in_function = scope + [node.name], True
            elif isinstance(node, ast.ClassDef):
                scope = scope + [node.name]
        for child in children:
            yield from visit(child, scope, in_function)

    yield from visit(tree, [], False)


def _layer_files():
    base = os.path.join(REPO_ROOT, "src", "repro")
    for layer in LAYERS:
        for root, _dirs, files in os.walk(os.path.join(base, layer)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    yield os.path.relpath(path, base).replace(os.sep, "/"), path


def test_no_imports_inside_hot_layer_functions():
    found = []
    for rel, path in _layer_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for qualname, lineno in _function_imports(tree):
            if f"{rel}::{qualname}" not in ALLOWED:
                found.append(f"{rel}:{lineno} in {qualname}")
    assert not found, "function-level imports (hoist them or allowlist with a reason):\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    import os\n", ["f"]),
        ("class C:\n    def m(self):\n        from x import y\n", ["C.m"]),
        ("def f():\n    def g():\n        import os\n", ["f.g"]),
        ("import os\nclass C:\n    import sys\n", []),
        ("from typing import TYPE_CHECKING\ndef f():\n    if TYPE_CHECKING:\n        import os\n", []),
        ("def f():\n    if TYPE_CHECKING:\n        pass\n    else:\n        import os\n", ["f"]),
    ],
)
def test_detector(source, expected):
    assert [q for q, _ in _function_imports(ast.parse(source))] == expected
