"""Partial-order-reduced enumeration: the axiomatic checker's one engine.

An exhaustive search is exact but exponential — it enumerates every
per-lock critical-section permutation, every per-location coherence
linear order, and every reads-from product, and only then prunes.  That
is fine for 2–4-thread litmus shapes and hopeless for most full-size
fuzzer programs.  This module applies the axioms of
:mod:`repro.axiom.relations` verbatim (``_read_candidates`` /
``_coherent_per_location`` / ``_resolve_values``) and prunes the
*search* instead, in four layers:

**R0 — DRF short-circuit.**  A program the static analyzer proves
non-``relaxable`` (:class:`repro.static.drf.Classification`) admits only
SC outcomes on this machine — the write buffer's delay is its sole
relaxation, and a non-relaxable program has no delayable racy
write→access pair to expose it.  The enumeration then runs under the
*non-delaying* twin of the requested model: same axioms, but the base
ppo is total per thread, which collapses the rf candidate sets to near
singletons.  The equivalence is exactly the one the three-way gate
validates on every corpus row (axiomatic == closed-form, where the
closed form widens past SC only when ``relaxable``).

**R1 — lock orders as linear extensions.**  Instead of permuting
critical sections and letting the closure check kill contradictory
orders, enumerate only the linear extensions of the *required*
precedence: section ``a`` must precede ``b`` when they share a thread
in that program order or when ``a``'s release already happens-before
``b``'s acquire in the base graph.  Every discarded permutation is one
the exhaustive enumerator provably rejects (the violated precedence
closes a cycle through po ∪ sw), so the surviving set is identical.

**R2 — incremental coherence with refined closure.**  Coherence orders
are assigned location by location; after each location the transitive
closure is refined and the next location's linear extensions are
generated against it.  A coherence choice that contradicts an earlier
one dies at its own level instead of after the full cross-product —
persistent-set-style pruning keyed on the same per-address conflict
structure :func:`repro.static.drf.conflict_graph` exports (two
locations interact only through a thread or lock that touches both;
the refined closure is how that interaction propagates).

**R3 — rf backtracking with prefix acyclicity.**  The reads-from map is
built read by read; each global read's rf/fr edges join the graph as
they are chosen and a cyclic prefix prunes the whole subtree.  The leaf
check is the exhaustive enumerator's, unchanged.

On top of the reduced engine, :func:`fuzz_allowed_outcomes` scales to
whole fuzzer programs by **round decomposition**: the fuzzer's implicit
between-rounds barrier is CP-Synch (it drains every write buffer), so
no relaxation crosses a round boundary and the conflict graph of the
whole program factors into per-round components joined by deterministic
carried state (a slot's carry-in is its program-order-last publish,
counters carry their increment counts).  Each round is enumerated
independently — with ``atomic_inc`` forcing the home-serialized
fetch-add semantics the machine actually implements — and the outcome
sets compose by product.

The exhaustive enumerator is the differential referee and lives with
the tests (``tests/axiom/referees.py``): ``tests/axiom/test_scale.py``
holds reduced == exhaustive on the full litmus corpus and a pinned
full-size program, and hypothesis re-checks it on random small programs.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..static.drf import (
    ROUND_BARRIER,
    Classification,
    classify_ir,
    conflict_graph,
    lower_fuzz_program,
)
from ..sync.base import draining_kinds
from .relations import (
    Outcome,
    _acyclic,
    _closure,
    _co_orders,
    _coherent_per_location,
    _linear_extensions,
    _outcome,
    _reaches,
    _read_candidates,
    _resolve_values,
    _ValueCycle,
)
from .events import CriticalSection, Event, EventGraph
from .model import AxModel

__all__ = [
    "AxiomBudgetExceeded",
    "reduced_outcomes_for_graph",
    "estimate_candidate_space",
    "fuzz_round_event_graph",
    "fuzz_program_event_graph",
    "fuzz_allowed_outcomes",
    "fuzz_round_outcomes",
    "consume_reg",
]


class AxiomBudgetExceeded(RuntimeError):
    """The reduced enumeration overran its pinned wall-clock budget."""


#: The most-relaxed axiomatic model of the primitives machine: writes
#: delayed, only CP-Synch drains (RC/BC's drain set).  Sound for every
#: (model, protocol) combination the fuzzer runs — each of them admits a
#: subset of these behaviors — which is what an oracle's allowed set needs.
_FUZZ_AX = AxModel(
    name="fuzz-scale",
    delay_shared_writes=True,
    drain_kinds=draining_kinds(False),
)


# --------------------------------------------------------------------------
# R1: lock orders as linear extensions of the required precedence
# --------------------------------------------------------------------------

def _reduced_lock_orders(
    g: EventGraph, base_reach: List[int]
) -> Iterator[Dict[str, Tuple[int, ...]]]:
    """Per-lock critical-section orders, pre-pruned to the feasible ones.

    Section ``a`` is *required* before ``b`` when they share a thread in
    that program order, or when ``a.rel`` already reaches ``b.acq`` in
    the base happens-before graph (putting ``b`` first would close a
    cycle through the sw chain back to ``a``'s acquire — exactly the
    shape the exhaustive enumerator's closure check rejects).  An
    unreleased section precedes nothing, so it is constrained last;
    two unreleased sections on one lock leave no feasible order at all.
    """
    per_lock: List[Tuple[str, List[Tuple[int, ...]]]] = []
    for lock in sorted(g.sections):
        secs = g.sections[lock]
        idxs = list(range(len(secs)))
        pred: Dict[int, Set[int]] = {i: set() for i in idxs}
        for i in idxs:
            for j in idxs:
                if i == j:
                    continue
                a, b = secs[i], secs[j]
                if a.thread == b.thread and a.acq < b.acq:
                    pred[j].add(i)
                elif a.rel is not None and _reaches(base_reach, a.rel, b.acq):
                    pred[j].add(i)
        for u in idxs:
            if secs[u].rel is None:
                for i in idxs:
                    if i != u:
                        pred[u].add(i)
        perms = list(_linear_extensions(idxs, pred))
        if not perms:
            return  # no feasible order for this lock: no executions
        per_lock.append((lock, perms))
    for combo in itertools.product(*(perms for _, perms in per_lock)):
        yield {lock: perm for (lock, _), perm in zip(per_lock, combo)}


# --------------------------------------------------------------------------
# The reduced engine (R0 + R1 + R2 + R3)
# --------------------------------------------------------------------------

class _Search:
    """One reduced enumeration: shared state + the nested DFS stages."""

    def __init__(
        self,
        g: EventGraph,
        ax: AxModel,
        finals: Sequence[str],
        atomic_inc: bool,
        deadline: Optional[float],
    ):
        self.g = g
        self.ax = ax
        self.finals = finals
        self.atomic_inc = atomic_inc
        self.deadline = deadline
        self.outcomes: Set[Outcome] = set()

    def check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:  # lint-ok: wall-clock (enumeration time budget)
            raise AxiomBudgetExceeded(
                "reduced enumeration overran its wall-clock budget"
            )

    def run(self) -> frozenset:
        g, ax = self.g, self.ax
        base = g.base_edges(ax)
        base_reach = _closure(g.n, base)
        if base_reach is None:
            return frozenset()
        po_full = [
            (a, b) for seq in g.threads for a, b in zip(seq, seq[1:])
        ]
        for lock_order in _reduced_lock_orders(g, base_reach):
            self.check_budget()
            static = base + g.sw_edges(lock_order)
            reach0 = _closure(g.n, static)
            if reach0 is None:
                continue
            issue = _closure(g.n, static + po_full)
            if issue is None:
                continue
            self.issue = issue
            self.assign_co(g.locations(), 0, static, reach0, {})
        return frozenset(self.outcomes)

    # -- R2: location-by-location coherence with refined closure --------
    def assign_co(
        self,
        locations: Tuple[str, ...],
        k: int,
        edges: List[Tuple[int, int]],
        reach: List[int],
        co_of: Dict[str, Tuple[int, ...]],
    ) -> None:
        self.check_budget()
        g = self.g
        if k == len(locations):
            self.assign_rf(edges, reach, co_of)
            return
        var = locations[k]
        writes = g.writes_of(var)
        init = g.init_of[var]
        for order in _co_orders(writes, reach):
            co = (init,) + order
            co_edges = edges + list(zip(co, co[1:]))
            reach2 = _closure(g.n, co_edges)
            if reach2 is None:
                continue  # contradicts an earlier location's choice
            co_of[var] = co
            self.assign_co(locations, k + 1, co_edges, reach2, co_of)
            del co_of[var]

    # -- R3: rf backtracking with prefix acyclicity ----------------------
    def assign_rf(
        self,
        edges: List[Tuple[int, int]],
        reach: List[int],
        co_of: Dict[str, Tuple[int, ...]],
    ) -> None:
        g, ax = self.g, self.ax
        cands = _read_candidates(g, ax, reach, self.issue, co_of)
        if cands is None:
            return
        if self.atomic_inc:
            # Home-serialized fetch-add: the read half of an atomic inc
            # observes exactly the coherence predecessor of its own write.
            for e in g.events:
                if e.kind != "inc.write":
                    continue
                co = co_of[e.var]
                prev = co[co.index(e.eid) - 1]
                if prev not in cands[e.dep]:
                    return
                cands[e.dep] = [prev]
        reads = sorted(cands)
        rf: Dict[int, int] = {}

        def assign(i: int, cur: List[Tuple[int, int]]) -> None:
            self.check_budget()
            if i == len(reads):
                if not _coherent_per_location(g, rf, co_of):
                    return
                try:
                    values = _resolve_values(g, rf)
                except _ValueCycle:
                    return
                self.outcomes.add(_outcome(g, values, co_of, self.finals))
                return
            r_eid = reads[i]
            cached = g.events[r_eid].is_cached_read
            co = co_of[g.events[r_eid].var]
            for w in cands[r_eid]:
                rf[r_eid] = w
                if cached:
                    # Cached reads contribute no ghb edges; axiom 2 and
                    # the visibility floor judge them at the leaf.
                    assign(i + 1, cur)
                else:
                    nxt = cur + [(w, r_eid)]
                    j = co.index(w)
                    if j + 1 < len(co):
                        nxt.append((r_eid, co[j + 1]))
                    if _acyclic(g.n, nxt):
                        assign(i + 1, nxt)
                del rf[r_eid]

        assign(0, edges)


def reduced_outcomes_for_graph(
    g: EventGraph,
    ax: AxModel,
    finals: Sequence[str] = (),
    *,
    classification: Optional[Classification] = None,
    atomic_inc: bool = False,
    budget_seconds: Optional[float] = None,
) -> frozenset:
    """The allowed-outcome set of ``g`` under ``ax``, reduced search.

    Bit-identical to the exhaustive referee (the tests hold them equal
    over the corpus and random programs), but prunes
    the candidate space instead of materializing it.  ``classification``
    enables the R0 DRF short-circuit; ``atomic_inc`` adds the machine's
    fetch-add atomicity (the exhaustive referee has no such axiom, so
    leave it off when comparing engines); ``budget_seconds`` raises
    :class:`AxiomBudgetExceeded` instead of running away.
    """
    if (
        classification is not None
        and ax.delay_shared_writes
        and not classification.relaxable
    ):
        # R0: non-relaxable => the delay is unobservable; enumerate the
        # non-delaying twin (same axioms, total per-thread ppo).
        ax = replace(ax, name=ax.name + "+drf-sc", delay_shared_writes=False)
    deadline = (
        None if budget_seconds is None else time.monotonic() + budget_seconds  # lint-ok: wall-clock (enumeration time budget)
    )
    return _Search(g, ax, finals, atomic_inc, deadline).run()


def estimate_candidate_space(g: EventGraph) -> float:
    """Naive candidate count: what a search that pruned nothing would walk.

    Lock permutations × per-location coherence orders × rf products.  No
    search here walks that product: the exhaustive referee prunes too,
    and enumerates the pinned seed-4 program, which reads above 1e13
    here, in seconds.  So the count is a size measure only, not a cost:
    the at-scale CI artifact records it per program as ``naive_space``,
    and the tests use it to keep the exhaustive referee on small graphs.
    """
    total = 1.0
    for lock in g.sections:
        total *= math.factorial(len(g.sections[lock]))
    for var in g.locations():
        total *= math.factorial(len(g.writes_of(var)))
    for r_eid in g.reads():
        total *= len(g.writes_of(g.events[r_eid].var)) + 1
    return total


# --------------------------------------------------------------------------
# Fuzzer programs at full size: round decomposition
# --------------------------------------------------------------------------

def consume_reg(round_idx: int, thread: int, atom_idx: int) -> str:
    """The register name of one consume atom in the lowered event graph."""
    return f"r{round_idx}.{thread}.{atom_idx}"


class _RoundView:
    """One round of a fuzzer program, duck-typed as a whole program.

    Feeds :func:`repro.static.drf.lower_fuzz_program` so the round's own
    :class:`Classification` (and with it the R0 short-circuit) comes
    from the same analyzer as everything else.
    """

    __slots__ = ("n_threads", "rounds")

    def __init__(self, program, round_idx: int):
        self.n_threads = program.n_threads
        self.rounds = [program.rounds[round_idx]]


def _carry_in(program, round_idx: int):
    """Deterministic shared state at the start of ``round_idx``.

    The between-rounds barrier is CP-Synch — every buffer drains — so
    carried state does not depend on any rf/co choice: a slot holds its
    writer's program-order-last publish, each lock counter holds one
    increment per completed critical section (mutual exclusion plus the
    release's drain make the increment exact), and the atomic counter
    holds one per fetch-add (home-serialized).
    """
    slots = {t: 0 for t in range(program.n_threads)}
    lockctr: Dict[int, int] = {}
    rmw = 0
    for r in range(round_idx):
        for t in range(program.n_threads):
            for atom in program.rounds[r][t]:
                if atom.kind == "publish":
                    slots[t] = atom.arg
                elif atom.kind == "lock_inc":
                    lockctr[atom.arg] = lockctr.get(atom.arg, 0) + 1
                elif atom.kind == "rmw_inc":
                    rmw += 1
    return slots, lockctr, rmw


class _GraphBuilder:
    """Accumulates events/threads/sections for a fuzz event graph."""

    def __init__(self):
        self.events: List[Event] = []
        self.threads: List[List[int]] = []
        self.sections: Dict[str, List[CriticalSection]] = {}
        self.var_order: List[str] = []
        self.crossings: List[int] = []

    def add(self, thread: int, seq: List[int], kind: str, **kw) -> Event:
        ev = Event(
            eid=len(self.events), thread=thread, pos=len(seq), kind=kind, **kw
        )
        self.events.append(ev)
        seq.append(ev.eid)
        return ev

    def touch(self, var: str) -> None:
        if var not in self.var_order:
            self.var_order.append(var)

    def add_atoms(
        self, round_idx: int, thread: int, seq: List[int], atoms
    ) -> None:
        for k, atom in enumerate(atoms):
            if atom.kind in ("compute", "private"):
                continue  # thread-local: no shared event, no conflict edge
            if atom.kind == "publish":
                var = f"slot:{thread}"
                self.touch(var)
                self.add(thread, seq, "w", var=var, value=atom.arg, op_index=k)
            elif atom.kind == "consume":
                var = f"slot:{atom.arg}"
                self.touch(var)
                self.add(
                    thread, seq, "r", var=var,
                    reg=consume_reg(round_idx, thread, k), op_index=k,
                )
            elif atom.kind == "lock_inc":
                lock = f"lock:{atom.arg}"
                var = f"lockctr:{atom.arg}"
                self.touch(var)
                acq = self.add(thread, seq, "acquire", var=lock, op_index=k)
                secs = self.sections.setdefault(lock, [])
                ci = len(secs)
                secs.append(
                    CriticalSection(lock=lock, thread=thread, acq=acq.eid)
                )
                rd = self.add(thread, seq, "inc.read", var=var, op_index=k)
                self.add(
                    thread, seq, "inc.write", var=var, dep=rd.eid, op_index=k
                )
                rel = self.add(thread, seq, "release", var=lock, op_index=k)
                secs[ci] = replace(secs[ci], rel=rel.eid)
            elif atom.kind == "rmw_inc":
                self.touch("rmw")
                rd = self.add(thread, seq, "inc.read", var="rmw", op_index=k)
                self.add(
                    thread, seq, "inc.write", var="rmw", dep=rd.eid, op_index=k
                )
            else:  # pragma: no cover - gen_program emits no other kinds
                raise ValueError(f"unknown atom kind {atom.kind!r}")

    def barrier(self, thread: int, seq: List[int], crossing: int) -> None:
        if crossing not in self.crossings:
            self.crossings.append(crossing)
        self.add(
            thread, seq, "barrier", var=ROUND_BARRIER, crossing=crossing
        )

    def finish(self, init_values: Dict[str, int]) -> EventGraph:
        init_of: Dict[str, int] = {}
        for var in self.var_order:
            ev = Event(
                eid=len(self.events), thread=-1, pos=-1, kind="init",
                var=var, value=init_values.get(var, 0),
            )
            self.events.append(ev)
            init_of[var] = ev.eid
        rdv_of: Dict[Tuple[str, int], int] = {}
        for k in sorted(self.crossings):
            ev = Event(
                eid=len(self.events), thread=-1, pos=-1, kind="rdv",
                var=ROUND_BARRIER, crossing=k,
            )
            self.events.append(ev)
            rdv_of[(ROUND_BARRIER, k)] = ev.eid
        return EventGraph(
            events=self.events, threads=self.threads, init_of=init_of,
            rdv_of=rdv_of, sections=self.sections,
        )


def fuzz_round_event_graph(program, round_idx: int) -> EventGraph:
    """The event graph of one round, init values = the round's carry-in."""
    slots, lockctr, rmw = _carry_in(program, round_idx)
    b = _GraphBuilder()
    for t in range(program.n_threads):
        seq: List[int] = []
        b.add_atoms(round_idx, t, seq, program.rounds[round_idx][t])
        b.threads.append(seq)
    init_values = {f"slot:{t}": v for t, v in slots.items()}
    init_values.update({f"lockctr:{l}": v for l, v in lockctr.items()})
    init_values["rmw"] = rmw
    return b.finish(init_values)


def fuzz_program_event_graph(program) -> EventGraph:
    """The *whole-program* event graph (rounds chained by barriers).

    The tests hold one reduced enumeration of it equal to the round
    decomposition and, on small programs and one pinned full-size
    program, to the exhaustive referee; the at-scale CLI sizes each
    program by it with :func:`estimate_candidate_space`.
    """
    b = _GraphBuilder()
    n_rounds = len(program.rounds)
    for t in range(program.n_threads):
        seq: List[int] = []
        for r in range(n_rounds):
            b.add_atoms(r, t, seq, program.rounds[r][t])
            if n_rounds > 1 and r < n_rounds - 1:
                b.barrier(t, seq, r)
        b.threads.append(seq)
    return b.finish({})


def fuzz_round_outcomes(
    program, round_idx: int, budget_seconds: Optional[float] = None
) -> frozenset:
    """Joint outcomes (consume register valuations) of one round."""
    cls = classify_ir(lower_fuzz_program(_RoundView(program, round_idx)))
    return reduced_outcomes_for_graph(
        fuzz_round_event_graph(program, round_idx), _FUZZ_AX,
        classification=cls,
        atomic_inc=True,
        budget_seconds=budget_seconds,
    )


def fuzz_allowed_outcomes(
    program, budget_seconds: Optional[float] = None
) -> frozenset:
    """Every consume-register valuation the axioms admit, whole program.

    Rounds are enumerated independently (their event graphs carry the
    deterministic inter-round state) and composed by product — exact
    because the CP-Synch round barrier lets nothing cross it, which the
    per-round components of the program's conflict graph make explicit:
    a consume can only conflict with its target's publishes, and the
    decomposition keeps every such pair inside one round graph.
    """
    cg = conflict_graph(lower_fuzz_program(program))
    for var, writers in cg.writers_of.items():
        if var.startswith("slot:") and len(writers) != 1:
            raise ValueError(f"{var} is not single-writer")  # pragma: no cover
    deadline = (
        None if budget_seconds is None else time.monotonic() + budget_seconds  # lint-ok: wall-clock (enumeration time budget)
    )
    per_round: List[frozenset] = []
    for r in range(len(program.rounds)):
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()  # lint-ok: wall-clock (enumeration time budget)
            if remaining <= 0:
                raise AxiomBudgetExceeded(
                    "round decomposition overran its wall-clock budget"
                )
        per_round.append(fuzz_round_outcomes(program, r, remaining))
    merged: Set[Outcome] = set()
    for combo in itertools.product(*per_round):
        merged.add(tuple(sorted(itertools.chain.from_iterable(combo))))
        if deadline is not None and time.monotonic() > deadline:  # lint-ok: wall-clock (enumeration time budget)
            raise AxiomBudgetExceeded(
                "outcome composition overran its wall-clock budget"
            )
    return frozenset(merged)
