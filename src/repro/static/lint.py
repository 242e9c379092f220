"""Determinism / sim-discipline linter for the simulator's own source.

The repo's north-star performance work (kernel fast path, sweep result
caching, kernel-equivalence differential tests) rests on **bit-identical
determinism**: the same (config, seed) pair must replay the same run on
the kernel's run loop and on its all-heap test referee, with tracing on
or off.  This linter audits the source for the bug classes that
silently break that property:

``unseeded-random``
    Module-global ``random.*`` / legacy ``numpy.random.*`` calls and
    zero-argument ``random.Random()`` / ``np.random.default_rng()``
    constructions.  All randomness must flow through per-object seeded
    generators (:mod:`repro.sim.rng`).

``wall-clock``
    ``time.time()`` / ``time.monotonic()`` / ``datetime.now()`` and
    friends inside sim paths.  Wall-clock reads are legitimate only in
    reporting and budget code, which must carry a suppression explaining
    why.

``set-iteration``
    Iteration over ``set`` / ``frozenset`` values (literals, ``set()``
    calls, set-operator methods, locals assigned from them, and
    well-known set-valued attributes such as directory ``sharers``)
    feeding loops or comprehensions.  Set order is a hash-table artifact;
    when the loop body sends messages or schedules events, iteration
    order becomes part of the simulated behavior.  Iterate ``sorted(...)``
    instead.  (Dict iteration is insertion-ordered in CPython ≥ 3.7 and is
    not flagged here; ``unsorted-dict-fanout`` covers the dict case.)

``unsorted-dict-fanout``
    Iteration over a dict view (``.items()`` / ``.keys()`` / ``.values()``)
    whose body sends messages or emits trace events, without ``sorted(...)``.
    Dict order is insertion order — deterministic for the *process that
    built it*, but when the dict was populated by simulated events its
    insertion order is itself schedule-dependent, and fanning it out into
    sends or the trace bakes that order into behavior and artifacts.
    Iterate ``sorted(d)`` / ``sorted(d.items())`` instead, or suppress
    with a reason when insertion order is provably fixed (e.g. built from
    a seeded or static sequence).

``yieldless-process``
    A function handed to ``spawn(...)`` that contains no ``yield`` — it
    is not a generator, so the "process" runs zero simulated steps and
    the spawn silently does nothing.

``ungated-trace``
    ``obs.instant/span/counter(...)`` emission not guarded by an
    ``if ... is not None`` test of the same bus reference.  The zero-cost
    contract of :mod:`repro.obs.bus` requires every hot-path site to gate
    on enablement; an ungated site either crashes on a disabled machine
    (``None``) or hides a measurable overhead.

Suppression: append ``# lint-ok: rule-name`` (comma-separate several
rules) on the offending line, or on a comment line directly above it.

CLI
---
``python -m repro.static.lint PATH [PATH...]`` prints findings as
``path:line:col: [rule] message`` and exits 1 when any survive, 0 when
clean, 2 on usage errors.  ``--json`` switches to a machine-readable
report; ``--rules`` restricts the rule set; ``--list-rules`` documents it.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import sys
import tokenize
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Finding", "Rule", "RULES", "lint_source", "lint_paths", "main"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class Rule:
    """A named check run over one module's AST."""

    name: str
    summary: str
    check: Callable[[ast.Module, str], List[Tuple[ast.AST, str]]]


# --------------------------------------------------------------------------
# Shared AST helpers
# --------------------------------------------------------------------------

def _attach_parents(tree: ast.Module) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def _ancestors(node: ast.AST):
    cur = getattr(node, "_lint_parent", None)
    while cur is not None:
        yield cur
        cur = getattr(cur, "_lint_parent", None)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------------
# unseeded-random
# --------------------------------------------------------------------------

_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randrange", "randint", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "expovariate", "betavariate", "paretovariate",
    "triangular", "vonmisesvariate", "getrandbits", "randbytes", "seed",
})
_NP_LEGACY_FUNCS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "uniform", "normal", "exponential",
})


def _check_unseeded_random(tree: ast.Module, path: str):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _dotted(node.func)
        if target is None:
            continue
        if target in {f"random.{f}" for f in _RANDOM_MODULE_FUNCS}:
            out.append((node, f"module-global {target}() draws from the shared "
                        "interpreter stream; use a per-object seeded "
                        "random.Random (see repro.sim.rng.py_random)"))
        elif target == "random.Random" and not node.args and not node.keywords:
            out.append((node, "random.Random() without a seed is "
                        "nondeterministic; pass an explicit seed"))
        elif target in {f"np.random.{f}" for f in _NP_LEGACY_FUNCS} or target in {
            f"numpy.random.{f}" for f in _NP_LEGACY_FUNCS
        }:
            out.append((node, f"legacy global {target}() bypasses the seeded "
                        "RngStreams; draw from a named stream instead"))
        elif target in ("np.random.default_rng", "numpy.random.default_rng") and not (
            node.args or node.keywords
        ):
            out.append((node, "default_rng() without entropy is seeded from the "
                        "OS; pass a SeedSequence or integer seed"))
    return out


# --------------------------------------------------------------------------
# wall-clock
# --------------------------------------------------------------------------

_TIME_FUNCS = frozenset({
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
})


def _check_wall_clock(tree: ast.Module, path: str):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _dotted(node.func)
        if target is None:
            continue
        if target in {f"time.{f}" for f in _TIME_FUNCS}:
            out.append((node, f"{target}() reads the wall clock inside a sim "
                        "path; simulated time lives on Simulator.now "
                        "(suppress with a reason if this is reporting/budget code)"))
        elif target in ("datetime.now", "datetime.utcnow",
                        "datetime.datetime.now", "datetime.datetime.utcnow"):
            out.append((node, f"{target}() reads the wall clock; sim code must "
                        "be replayable from seeds alone"))
    return out


# --------------------------------------------------------------------------
# set-iteration
# --------------------------------------------------------------------------

#: Attribute names known (by convention in this codebase) to hold sets.
KNOWN_SET_ATTRS = frozenset({"sharers", "copyset", "subscribers"})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


def _set_locals(func: ast.AST) -> Set[str]:
    """Names assigned a syntactically-evident set within ``func``'s body
    (nested function bodies excluded)."""
    names: Set[str] = set()

    def expr_is_set(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            t = _dotted(expr.func)
            return t in ("set", "frozenset")
        return False

    def walk(node: ast.AST, top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and not top:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # do not descend into nested scopes
            if isinstance(child, ast.Assign) and expr_is_set(child.value):
                for tgt in child.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
            if isinstance(child, ast.AnnAssign) and child.value is not None and expr_is_set(child.value):
                if isinstance(child.target, ast.Name):
                    names.add(child.target.id)
            walk(child, False)

    walk(func, True)
    return names


def _check_set_iteration(tree: ast.Module, path: str):
    out = []

    def set_reason(expr: ast.AST, local_sets: Set[str]) -> Optional[str]:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal/comprehension"
        if isinstance(expr, ast.Call):
            t = _dotted(expr.func)
            if t in ("set", "frozenset"):
                return f"a {t}() value"
            if isinstance(expr.func, ast.Attribute) and expr.func.attr in _SET_METHODS:
                return f"the result of .{expr.func.attr}() (a set)"
            return None
        if isinstance(expr, ast.Attribute) and expr.attr in KNOWN_SET_ATTRS:
            return f"the set-valued attribute .{expr.attr}"
        if isinstance(expr, ast.Name) and expr.id in local_sets:
            return f"local {expr.id!r}, assigned from a set"
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            left = set_reason(expr.left, local_sets)
            right = set_reason(expr.right, local_sets)
            if left or right:
                return "a set-operator expression"
        return None

    funcs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    scopes: List[Tuple[ast.AST, Set[str]]] = [(tree, _set_locals(tree))]
    scopes += [(f, _set_locals(f)) for f in funcs]

    def locals_for(node: ast.AST) -> Set[str]:
        for anc in _ancestors(node):
            for scope, names in scopes:
                if anc is scope:
                    return names
        return scopes[0][1]

    for node in ast.walk(tree):
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iters.extend(gen.iter for gen in node.generators)
        else:
            continue
        local_sets = locals_for(node)
        for it in iters:
            reason = set_reason(it, local_sets)
            if reason is not None:
                out.append((it, f"iterating {reason}: set order is a hash-table "
                            "artifact and becomes simulated behavior when the "
                            "body sends messages or schedules events; iterate "
                            "sorted(...) instead"))
    return out


# --------------------------------------------------------------------------
# unsorted-dict-fanout
# --------------------------------------------------------------------------

_DICT_VIEW_METHODS = frozenset({"items", "keys", "values"})


def _is_obs_receiver(recv: ast.AST) -> bool:
    return (isinstance(recv, ast.Name) and recv.id == "obs") or (
        isinstance(recv, ast.Attribute) and recv.attr == "obs"
    )


def _fanout_call(nodes: Sequence[ast.AST]) -> Optional[str]:
    """The first message-send or trace-emission call under ``nodes``."""
    for root in nodes:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute):
                if fn.attr in _TRACE_EMITTERS and _is_obs_receiver(fn.value):
                    return f"trace emission .{fn.attr}(...)"
                if fn.attr in ("send", "reply_to"):
                    return f"message send .{fn.attr}(...)"
            elif isinstance(fn, ast.Name) and fn.id == "send":
                return "message send send(...)"
    return None


def _check_unsorted_dict_fanout(tree: ast.Module, path: str):
    out = []

    def view_reason(expr: ast.AST) -> Optional[str]:
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _DICT_VIEW_METHODS
            and not expr.args
            and not expr.keywords
        ):
            return f".{expr.func.attr}()"
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            pairs = [(node.iter, list(node.body))]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            pairs = [(gen.iter, [node]) for gen in node.generators]
        else:
            continue
        for it, body in pairs:
            view = view_reason(it)
            if view is None:
                continue
            fanout = _fanout_call(body)
            if fanout is None:
                continue
            out.append((it, f"iterating a dict {view} view into {fanout}: the "
                        "dict's insertion order is schedule-dependent when "
                        "simulated events populated it, so the fan-out order "
                        "becomes part of the run; iterate sorted(...) instead"))
    return out


# --------------------------------------------------------------------------
# yieldless-process
# --------------------------------------------------------------------------

def _check_yieldless_process(tree: ast.Module, path: str):
    out = []
    defs: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)

    def has_yield(func: ast.AST) -> bool:
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scope: its yields are not ours
            stack.extend(ast.iter_child_nodes(node))
        return False

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        is_spawn = (isinstance(fn, ast.Attribute) and fn.attr == "spawn") or (
            isinstance(fn, ast.Name) and fn.id == "spawn"
        )
        if not is_spawn or not node.args:
            continue
        arg = node.args[0]
        if not isinstance(arg, ast.Call):
            continue
        name = None
        if isinstance(arg.func, ast.Name):
            name = arg.func.id
        elif isinstance(arg.func, ast.Attribute) and isinstance(arg.func.value, ast.Name) \
                and arg.func.value.id == "self":
            name = arg.func.attr
        if name is None or name not in defs:
            continue
        candidates = defs[name]
        if all(not has_yield(f) for f in candidates):
            out.append((node, f"spawn({name}(...)) but {name!r} contains no "
                        "yield — it is not a generator, so the process runs "
                        "zero simulated steps"))
    return out


# --------------------------------------------------------------------------
# ungated-trace
# --------------------------------------------------------------------------

_TRACE_EMITTERS = frozenset({"instant", "span", "counter"})


def _check_ungated_trace(tree: ast.Module, path: str):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in _TRACE_EMITTERS:
            continue
        recv = node.func.value
        is_bus = (isinstance(recv, ast.Name) and recv.id == "obs") or (
            isinstance(recv, ast.Attribute) and recv.attr == "obs"
        )
        if not is_bus:
            continue
        recv_dump = ast.dump(recv)
        guarded = False
        for anc in _ancestors(node):
            test = None
            if isinstance(anc, ast.If):
                test = anc.test
            elif isinstance(anc, ast.IfExp):
                test = anc.test
            elif isinstance(anc, ast.Assert):
                test = anc.test
            if test is not None and recv_dump in ast.dump(test):
                guarded = True
                break
        if not guarded:
            out.append((node, f"trace emission .{node.func.attr}(...) is not "
                        "gated on bus enablement; wrap it in "
                        "`if obs is not None:` so a disabled machine pays only "
                        "the attribute load"))
    return out


# --------------------------------------------------------------------------
# Registry, suppression, drivers
# --------------------------------------------------------------------------

RULES: Tuple[Rule, ...] = (
    Rule("unseeded-random",
         "module-global random.* / legacy np.random.* / unseeded constructors",
         _check_unseeded_random),
    Rule("wall-clock",
         "time.time()/monotonic()/datetime.now() in sim paths",
         _check_wall_clock),
    Rule("set-iteration",
         "iteration over sets feeding event order or message dispatch",
         _check_set_iteration),
    Rule("unsorted-dict-fanout",
         "dict-view iteration fanning out into sends or trace emission",
         _check_unsorted_dict_fanout),
    Rule("yieldless-process",
         "spawn() of a function that never yields",
         _check_yieldless_process),
    Rule("ungated-trace",
         "obs.instant/span/counter not guarded by an enablement check",
         _check_ungated_trace),
)

_RULES_BY_NAME = {r.name: r for r in RULES}

_SUPPRESS_RE = re.compile(r"#\s*lint-ok\s*:\s*([A-Za-z0-9_,\s-]+)")


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """line number → rule names suppressed on that line.

    A suppression on a comment-only line also covers the next line.
    """
    supp: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            rules = {part.strip() for part in m.group(1).split(",") if part.strip()}
            line = tok.start[0]
            supp.setdefault(line, set()).update(rules)
            if tok.line.strip().startswith("#"):
                supp.setdefault(line + 1, set()).update(rules)
    except tokenize.TokenError:
        pass
    return supp


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one module's source; returns surviving findings, sorted."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, exc.offset or 0, "syntax-error", str(exc.msg))]
    _attach_parents(tree)
    active = RULES if rules is None else tuple(_RULES_BY_NAME[r] for r in rules)
    supp = _suppressions(source)
    findings: List[Finding] = []
    for rule in active:
        for node, message in rule.check(tree, path):
            line = getattr(node, "lineno", 0)
            if rule.name in supp.get(line, ()):
                continue
            findings.append(Finding(path, line, getattr(node, "col_offset", 0), rule.name, message))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                files.extend(os.path.join(root, n) for n in sorted(names) if n.endswith(".py"))
        else:
            files.append(path)
    return files


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as fh:
            findings.extend(lint_source(fh.read(), filename, rules=rules))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.static.lint",
        description="Determinism linter: audit simulator source for "
        "nondeterminism hazards (unseeded RNG, wall-clock reads, set "
        "iteration in dispatch paths, yieldless processes, ungated tracing).",
    )
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the findings as JSON ('-' for stdout)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name:20s} {rule.summary}")
        return 0

    rule_names: Optional[List[str]] = None
    if args.rules is not None:
        rule_names = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rule_names if r not in _RULES_BY_NAME]
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(sorted(_RULES_BY_NAME))}")

    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    findings = lint_paths(paths, rules=rule_names)
    n_files = len(iter_python_files(paths))

    if args.json:
        doc = {
            "checked_files": n_files,
            "findings": [f.to_dict() for f in findings],
            "counts": {
                rule.name: sum(1 for f in findings if f.rule == rule.name)
                for rule in RULES
            },
        }
        payload = json.dumps(doc, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
    if not args.json or args.json != "-":
        for f in findings:
            print(f.format())
        if not args.quiet:
            status = "clean" if not findings else f"{len(findings)} finding(s)"
            print(f"lint: {n_files} file(s) checked, {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
