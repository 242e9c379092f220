"""No ``<Enum>.<MEMBER>`` loads inside functions of the simulator's hot layers.

On CPython 3.11 ``enum.EnumType`` defines ``__getattr__``, so a member
load through the class (``MessageType.INV``) takes the generic attribute
hook that a metaclass ``__getattr__`` installs, which the interpreter
cannot specialize: about 150 ns against about 15 ns for a module
global.  Handlers branch on
the message type, line state or directory state for every message, so the
kernel, network, coherence, cache, memory, node, sync, workload,
consistency and system layers load the module-level bindings instead
(``INV`` from :mod:`repro.network.message`, ``LINE_SHARED`` from
:mod:`repro.cache.states`, ``DIR_SHARED`` from
:mod:`repro.memory.directory`).  Module-level and class-body tables run
once and stay legal, as do default values and decorators, which are
evaluated where the function is defined.

An exception belongs in ``ALLOWED`` with the reason it needs the class
attribute.
"""

import ast
import os

import pytest

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
LAYERS = (
    "sim", "network", "coherence", "cache", "memory", "node", "sync",
    "workloads", "consistency", "system",
)
ENUMS = frozenset({"MessageType", "SizeClass", "LineState", "LockMode", "DirState", "Usage"})

#: ``"<path relative to src/repro>:<line>"`` -> reason.
ALLOWED: dict = {}


def _member_loads(tree: ast.Module):
    """Yield ``(lineno, "Enum.MEMBER")`` for every member load of an enum
    in :data:`ENUMS` that runs inside a function or lambda body."""

    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Decorators and defaults run where the function is defined.
            outer = list(getattr(node, "decorator_list", ())) + [node.args]
            for child in outer:
                yield from visit(child, in_function)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                yield from visit(child, True)
            return
        if (
            in_function
            and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ENUMS
            and not node.attr.startswith("_")
        ):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_function)

    yield from visit(tree, False)


def _layer_files():
    base = os.path.join(REPO_ROOT, "src", "repro")
    for layer in LAYERS:
        for root, _dirs, files in os.walk(os.path.join(base, layer)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    yield os.path.relpath(path, base).replace(os.sep, "/"), path


def test_no_enum_member_loads_in_hot_functions():
    found = []
    for rel, path in _layer_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for lineno, expr in _member_loads(tree):
            if f"{rel}:{lineno}" not in ALLOWED:
                found.append(f"{rel}:{lineno}: {expr}")
    assert not found, "enum member loaded in a function (bind it at module level):\n" + "\n".join(
        found
    )


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(m):\n    return m.mtype is MessageType.INV\n", [(2, "MessageType.INV")]),
        ("def f(l):\n    l.state = LineState.SHARED\n", [(2, "LineState.SHARED")]),
        ("class C:\n    def f(self):\n        return Usage.LOCK\n", [(3, "Usage.LOCK")]),
        ("f = lambda e: e.state is DirState.SHARED\n", [(1, "DirState.SHARED")]),
        ("def f():\n    def g():\n        return LockMode.NONE\n", [(3, "LockMode.NONE")]),
        ("def f(c):\n    return c is SizeClass.BLOCK\n", [(2, "SizeClass.BLOCK")]),
        ("def f():\n    class K:\n        X = Usage.NONE\n", [(3, "Usage.NONE")]),
        ("INV = MessageType.INV\n", []),
        ("class C:\n    T = frozenset({MessageType.INV})\n", []),
        ("def f(s=LineState.INVALID):\n    return s\n", []),
        ("def f(m):\n    return m.mtype is INV\n", []),
        ("def f():\n    return MessageType.__members__\n", []),
        ("def f(m):\n    return m.mtype.name\n", []),
        ("def f(x):\n    return Other.INV\n", []),
    ],
)
def test_detector(source, expected):
    assert list(_member_loads(ast.parse(source))) == expected
