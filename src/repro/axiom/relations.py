"""Candidate executions and the relational axioms that judge them.

A **candidate execution** of an event graph fixes three choices:

* a per-lock total order of critical-section instances (which generates
  the release→acquire synchronizes-with edges),
* a coherence order ``co`` per location (a linear order on its writes,
  with the virtual init write first), and
* a reads-from map ``rf`` (each read paired with a write to its
  location).

A candidate is **consistent** — and its outcome allowed — when it
passes the axioms:

1. **ghb acyclicity**: the global happens-before relation — ppo and
   rendezvous edges (:meth:`EventGraph.base_edges`), synchronizes-with,
   ``co``, plus ``rf`` and ``fr`` restricted to *global* (non-cached)
   reads — is acyclic.  Global reads block until the home replies, so
   their value pins real time; cached reads may return stale values and
   contribute no global edges.
2. **per-location coherence**: for every location,
   ``po-loc ∪ rf ∪ co ∪ fr`` is acyclic — all reads included.  The
   machine serializes each word at its home and delivers READ-UPDATE
   pushes over FIFO channels, so even a stale cache never runs
   backwards.
3. **strict-ack visibility**: a cached read ``r`` must not read
   coherence-before any write ``w`` whose own thread executes a
   draining fence after ``w`` that happens-before ``r``.  Under
   ``strict_global_ack`` (the default) a write's ack — and therefore
   any later fence completion in the writer's thread — waits for the
   subscriber pushes, so by the time ``r`` runs its cache holds ``w``
   or something coherence-newer.

This module holds the relations and axioms only: reachability closures
over the graph, the coherence-order generator, the per-read rf
candidates (axioms 1 and 3 as static floors), the per-location check
(axiom 2) and value resolution.  The search that walks candidates is
:mod:`repro.axiom.scale`'s partial-order-reduced engine; the exhaustive
enumerator that referees it lives with the tests
(``tests/axiom/referees.py``) and calls the same helpers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .events import EventGraph
from .model import AxModel

__all__ = ["Outcome"]

#: An outcome in the litmus engine's canonical form.
Outcome = Tuple[Tuple[str, int], ...]


class _ValueCycle(Exception):
    """rf/dep value resolution hit a cycle (execution is inconsistent)."""


# --------------------------------------------------------------------------
# Small graph utilities (node counts here are a few dozen at most)
# --------------------------------------------------------------------------

def _topo(n: int, edges: Sequence[Tuple[int, int]]) -> Optional[List[int]]:
    """Topological order of 0..n-1 under ``edges``; None if cyclic."""
    adj: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in edges:
        adj[a].append(b)
        indeg[b] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order: List[int] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == n else None


def _closure(
    n: int, edges: Sequence[Tuple[int, int]]
) -> Optional[List[int]]:
    """Reachability bitmasks (reach[v] includes v); None if cyclic."""
    order = _topo(n, edges)
    if order is None:
        return None
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    reach = [0] * n
    for v in reversed(order):
        bits = 1 << v
        for w in adj[v]:
            bits |= reach[w]
        reach[v] = bits
    return reach


def _reaches(reach: List[int], a: int, b: int) -> bool:
    return a != b and bool((reach[a] >> b) & 1)


def _acyclic(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    return _topo(n, edges) is not None


# --------------------------------------------------------------------------
# Choice generators
# --------------------------------------------------------------------------

def _linear_extensions(
    items: Sequence[int], pred: Dict[int, Set[int]]
) -> Iterator[Tuple[int, ...]]:
    """All linear extensions of ``pred`` over ``items`` (lexicographic)."""

    def extend(placed: List[int], done: frozenset) -> Iterator[Tuple[int, ...]]:
        if len(placed) == len(items):
            yield tuple(placed)
            return
        for x in items:
            if x in done or not pred[x] <= done:
                continue
            placed.append(x)
            yield from extend(placed, done | {x})
            placed.pop()

    yield from extend([], frozenset())


def _co_orders(
    writes: Sequence[int], reach: List[int]
) -> Iterator[Tuple[int, ...]]:
    """Linear extensions of the happens-before partial order on writes."""
    return _linear_extensions(
        writes, {w: {v for v in writes if _reaches(reach, v, w)} for w in writes}
    )


# --------------------------------------------------------------------------
# Per-candidate machinery
# --------------------------------------------------------------------------

def _read_candidates(
    g: EventGraph,
    ax: AxModel,
    reach: List[int],
    issue: List[int],
    co_of: Dict[str, Tuple[int, ...]],
) -> Optional[Dict[int, List[int]]]:
    """rf candidates per read under static pruning; None if any read has none.

    ``co_of[var]`` includes the init write at position 0.  A global read
    must read at least the coherence-newest write that happens-before it.
    A cached read's floor is the strict-ack visibility bound: writes
    forced into its cache by a draining fence in the writer's thread —
    or, when writes are not delayed (SC / no buffer), by the write's own
    stall, so plain happens-before forces visibility too.

    Future exclusion uses the **issue-order** closure ``issue`` (full
    program order, even past delayed writes): a write buffered at its po
    point cannot be observed by any read that completes before the write
    issues — being delayed postpones a write's *performance*, never its
    *issue*.
    """

    def writer_fence_covers(w_eid: int, r_eid: int) -> bool:
        w = g.events[w_eid]
        if w.thread < 0:
            return False
        seq = g.threads[w.thread]
        return any(
            _reaches(reach, f, r_eid)
            for f in seq[w.pos + 1 :]
            if g.events[f].kind in ax.drain_kinds
        )

    cands: Dict[int, List[int]] = {}
    for r_eid in g.reads():
        r = g.events[r_eid]
        co = co_of[r.var]
        pos_of = {w: i for i, w in enumerate(co)}
        floor = 0
        for w in co:
            if r.is_cached_read and ax.delay_shared_writes:
                forced = writer_fence_covers(w, r_eid)
            else:
                forced = _reaches(reach, w, r_eid)
            if forced:
                floor = max(floor, pos_of[w])
        options = [w for w in co[floor:] if not _reaches(issue, r_eid, w)]
        if not options:
            return None
        cands[r_eid] = options
    return cands


def _coherent_per_location(
    g: EventGraph,
    rf: Dict[int, int],
    co_of: Dict[str, Tuple[int, ...]],
) -> bool:
    """Axiom 2: acyclic(po-loc ∪ rf ∪ co ∪ fr) at every location."""
    for var in g.locations():
        nodes = [
            e.eid for e in g.events if e.is_access and e.var == var
        ] + [g.init_of[var]]
        index = {eid: i for i, eid in enumerate(nodes)}
        edges: List[Tuple[int, int]] = []
        for seq in g.threads:
            loc = [eid for eid in seq if eid in index]
            edges.extend(zip(loc, loc[1:]))
        co = co_of[var]
        edges.extend(zip(co, co[1:]))
        for r_eid, w_eid in rf.items():
            if g.events[r_eid].var != var:
                continue
            edges.append((w_eid, r_eid))
            i = co.index(w_eid)
            if i + 1 < len(co):
                edges.append((r_eid, co[i + 1]))
        if not _acyclic(
            len(nodes), [(index[a], index[b]) for a, b in edges]
        ):
            return False
    return True


def _resolve_values(g: EventGraph, rf: Dict[int, int]) -> Dict[int, int]:
    """Value of every access: writes store, reads copy, inc adds one."""
    values: Dict[int, int] = {}

    def value_of(eid: int, active: frozenset) -> int:
        if eid in values:
            return values[eid]
        if eid in active:
            raise _ValueCycle
        e = g.events[eid]
        active = active | {eid}
        if e.is_write and e.value is not None:
            v = e.value
        elif e.kind == "inc.write":
            v = value_of(rf[e.dep], active) + 1
        elif e.is_read:
            v = value_of(rf[eid], active)
        else:  # pragma: no cover - only accesses are resolved
            raise ValueError(f"no value for event {e.describe()}")
        values[eid] = v
        return v

    for e in g.events:
        if e.is_access:
            value_of(e.eid, frozenset())
    return values


def _outcome(
    g: EventGraph,
    values: Dict[int, int],
    co_of: Dict[str, Tuple[int, ...]],
    finals: Sequence[str],
) -> Outcome:
    out: Dict[str, int] = {}
    for seq in g.threads:
        for eid in seq:
            e = g.events[eid]
            if e.is_read and e.reg:
                out[e.reg] = values[eid]
    for var in finals:
        out[f"{var}!"] = values[co_of[var][-1]]
    return tuple(sorted(out.items()))
