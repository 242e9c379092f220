"""Parallel sweep runner with deterministic seeding and an on-disk cache.

Every figure/table reproduction is a bag of independent *points* — pure
functions of JSON-able parameters returning JSON-able results.  This module
runs such bags:

* **in parallel** across worker processes (``ProcessPoolExecutor``), since
  each point is an isolated simulation with no shared state;
* **deterministically** — a point's result depends only on its parameters
  (each carries its own seed; :func:`derive_seed` splits independent
  sub-seeds from a base seed without correlation), never on worker
  scheduling; and
* **incrementally** — results are cached on disk keyed by a digest of the
  point function, its parameters, and a digest of the simulator's source
  (:func:`code_digest`), so a result never outlives the code that produced
  it.

A point function is referenced by dotted path (``"repro.experiments:fig_point"``)
so workers import it by name — nothing is pickled beyond strings and plain
data, and the same task file works across interpreter sessions.

Environment knobs::

    REPRO_SWEEP_JOBS    worker count (default: os.cpu_count())
    REPRO_SWEEP_CACHE   cache directory (default: .repro-sweep-cache when
                        caching is requested without an explicit directory)

Usage::

    from repro.sweep import SweepTask, run_sweep
    tasks = [SweepTask("repro.experiments:fig_point",
                       {"n": n, "model": "queue", "scheme": "cbl",
                        "grain": "medium"}) for n in (2, 4, 8, 16)]
    results = run_sweep(tasks, jobs=8, cache_dir=".repro-sweep-cache")
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "code_digest",
    "source_digest",
    "SweepTask",
    "SweepStats",
    "task_digest",
    "config_fingerprint",
    "derive_seed",
    "run_sweep",
    "default_jobs",
]

#: The package whose source defines simulated semantics.  Every module in
#: it is hashed: a module that only formats or caches results costs a
#: spurious recompute when edited, while a semantic module left out would
#: serve stale results, so the whole package is in.
_SOURCE_ROOT = os.path.dirname(os.path.abspath(__file__))

_code_digest: Optional[str] = None


def source_digest(root: str) -> str:
    """sha256 over every ``.py`` file under ``root``: relative paths and
    bytes, in sorted path order, so the digest is a pure function of the
    tree's Python source."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths.extend(os.path.join(dirpath, f) for f in filenames if f.endswith(".py"))
    h = hashlib.sha256()
    for path in sorted(paths):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "rb") as f:
            data = f.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def code_digest() -> str:
    """Digest of the simulator's source; part of every task digest and cache
    entry, so a result is never served to code other than its producer's.

    Computed on first use, not at import, and then kept for the process.
    """
    global _code_digest
    if _code_digest is None:
        _code_digest = source_digest(_SOURCE_ROOT)
    return _code_digest


@dataclass(frozen=True)
class SweepTask:
    """One sweep point: a dotted function path plus JSON-able kwargs.

    ``fn`` is ``"package.module:function"``; the function must be importable
    at module top level in a fresh interpreter (workers resolve it by name)
    and must return a JSON-serializable value.
    """

    fn: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(f"fn must be 'module:function', got {self.fn!r}")
        # Fail fast on un-cacheable params rather than deep in a worker.
        json.dumps(self.params, sort_keys=True)


@dataclass
class SweepStats:
    """What :func:`run_sweep` did: cache hits vs. computed points."""

    total: int = 0
    hits: int = 0
    computed: int = 0
    jobs: int = 1


def _canonical(obj: Any) -> Any:
    """JSON-stable form of ``obj`` (dataclasses/tuples/sets normalized)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(v) for v in obj)
    return obj


def config_fingerprint(cfg: Any) -> str:
    """Short stable digest of a config object (e.g. ``MachineConfig``).

    Dataclasses are normalized field-by-field, so two configs digest equal
    exactly when every field (including nested resilience/obs params) does.
    """
    blob = json.dumps(_canonical(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def task_digest(task: SweepTask, version: Optional[str] = None) -> str:
    """Cache key of ``task``: sha256 over (version, fn, canonical params).

    ``version`` defaults to :func:`code_digest`.
    """
    if version is None:
        version = code_digest()
    blob = json.dumps(
        {"version": version, "fn": task.fn, "params": _canonical(task.params)},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def derive_seed(base_seed: int, *key: Any) -> int:
    """A deterministic 31-bit sub-seed for (``base_seed``, ``key``).

    Hash-derived, so sweep points get independent streams regardless of the
    order they run in — the parallel sweep and the serial loop see identical
    seeds.
    """
    blob = json.dumps([base_seed, [_canonical(k) for k in key]], sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") & 0x7FFFFFFF


def default_jobs() -> int:
    """Worker count: ``REPRO_SWEEP_JOBS`` or the machine's CPU count."""
    env = os.environ.get("REPRO_SWEEP_JOBS")
    if env:
        n = int(env)
        if n <= 0:
            raise ValueError(f"REPRO_SWEEP_JOBS must be positive, got {n}")
        return n
    return os.cpu_count() or 1


def default_cache_dir() -> str:
    return os.environ.get("REPRO_SWEEP_CACHE", ".repro-sweep-cache")


def _resolve(fn_path: str) -> Callable[..., Any]:
    mod_name, _, fn_name = fn_path.partition(":")
    fn = getattr(importlib.import_module(mod_name), fn_name, None)
    if fn is None:
        raise ImportError(f"cannot resolve sweep point function {fn_path!r}")
    return fn


def _run_task(fn_path: str, params: Dict[str, Any]) -> Any:
    """Worker entry point: resolve the function by name and call it."""
    return _resolve(fn_path)(**params)


def _cache_path(cache_dir: str, digest: str) -> str:
    return os.path.join(cache_dir, f"{digest}.json")


def _cache_read(cache_dir: str, digest: str) -> Optional[Dict[str, Any]]:
    try:
        with open(_cache_path(cache_dir, digest)) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if doc.get("version") != code_digest():
        return None
    return doc


def _cache_write(cache_dir: str, digest: str, task: SweepTask, result: Any) -> None:
    """Atomic write (tmp + rename): concurrent jobs never see torn files."""
    os.makedirs(cache_dir, exist_ok=True)
    doc = {
        "version": code_digest(),
        "fn": task.fn,
        "params": _canonical(task.params),
        "result": result,
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f, sort_keys=True)
        os.replace(tmp, _cache_path(cache_dir, digest))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run_sweep(
    tasks: Sequence[SweepTask],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    stats: Optional[SweepStats] = None,
) -> List[Any]:
    """Run every task, in parallel, returning results in task order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs=1`` runs inline (no
    pool — also the path workers themselves may take, since nested pools
    are not allowed).  ``cache_dir=None`` with ``use_cache=True`` uses
    :func:`default_cache_dir`.  Identical tasks in the batch are computed
    once.  Pass a :class:`SweepStats` to observe hit/computed counts.
    """
    tasks = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if use_cache and cache_dir is None:
        cache_dir = default_cache_dir()
    if stats is None:
        stats = SweepStats()
    stats.total = len(tasks)
    stats.jobs = jobs

    digests = [task_digest(t) for t in tasks]
    results: Dict[str, Any] = {}
    to_run: List[int] = []
    seen: set = set()
    for i, (task, digest) in enumerate(zip(tasks, digests)):
        if digest in seen or digest in results:
            continue
        if use_cache and cache_dir is not None:
            doc = _cache_read(cache_dir, digest)
            if doc is not None:
                results[digest] = doc["result"]
                stats.hits += 1
                continue
        seen.add(digest)
        to_run.append(i)

    stats.computed = len(to_run)
    if to_run:
        if jobs > 1 and len(to_run) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(to_run))) as pool:
                futures = [
                    (i, pool.submit(_run_task, tasks[i].fn, tasks[i].params))
                    for i in to_run
                ]
                for i, fut in futures:
                    results[digests[i]] = fut.result()
        else:
            for i in to_run:
                results[digests[i]] = _run_task(tasks[i].fn, tasks[i].params)
        if use_cache and cache_dir is not None:
            for i in to_run:
                _cache_write(cache_dir, digests[i], tasks[i], results[digests[i]])

    return [results[d] for d in digests]
