"""No ``yield <expr>.timeout(<delay>)`` in the simulator's hot layers.

A process sleeps with a bare ``yield delay``: the process itself goes on
the calendar and no event is built.  ``yield sim.timeout(d)`` allocates a
:class:`~repro.sim.core.Timeout` and its callback list for one use, so the
kernel, network, coherence, cache, memory, node, sync and workload layers
never write it.  Build a timeout only where an object is needed (a timer
raced in an ``AnyOf``, a callback delay) and do not yield it directly.
``yield sim.timeout(d, value)`` stays legal: the value is the point.

An exception belongs in ``ALLOWED`` with the reason it needs the object.
"""

import ast
import os

import pytest

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
LAYERS = ("sim", "network", "coherence", "cache", "memory", "node", "sync", "workloads")

#: ``"<path relative to src/repro>:<line>"`` -> reason.
ALLOWED: dict = {}


def _timeout_yields(tree: ast.Module):
    """Yield the line of every ``yield <expr>.timeout(<one positional arg>)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Yield):
            continue
        call = node.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "timeout"
            and len(call.args) == 1
            and not call.keywords
        ):
            yield node.lineno


def _layer_files():
    base = os.path.join(REPO_ROOT, "src", "repro")
    for layer in LAYERS:
        for root, _dirs, files in os.walk(os.path.join(base, layer)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    yield os.path.relpath(path, base).replace(os.sep, "/"), path


def test_no_timeout_sleeps_in_hot_layers():
    found = []
    for rel, path in _layer_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for lineno in _timeout_yields(tree):
            if f"{rel}:{lineno}" not in ALLOWED:
                found.append(f"{rel}:{lineno}")
    assert not found, "yield <expr>.timeout(d) (write `yield d`):\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(sim):\n    yield sim.timeout(3)\n", [2]),
        ("def f(self):\n    yield self.sim.timeout(self.cfg.dir_cycle + 1)\n", [2]),
        ("def f(sim):\n    x = yield sim.timeout(0)\n", [2]),
        ("def f(sim):\n    yield 3\n", []),
        ("def f(sim):\n    yield sim.timeout(3, 'v')\n", []),
        ("def f(sim):\n    yield sim.timeout(3, value='v')\n", []),
        ("def f(sim):\n    t = sim.timeout(3)\n    yield sim.any_of([t])\n", []),
        ("def f(sim):\n    yield timeout(3)\n", []),
    ],
)
def test_detector(source, expected):
    assert list(_timeout_yields(ast.parse(source))) == expected
