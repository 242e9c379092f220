"""Test-side referees of the axiomatic checker (:mod:`repro.axiom`).

Production answers every axiomatic question with one engine, the
partial-order-reduced search of :mod:`repro.axiom.scale`, and the fuzzer
checks consumes against one oracle, the DRF-derived
:func:`repro.static.drf.consume_oracle`.  The second, independent
derivations those answers are held to live here:

* :func:`enumerate_executions` / :func:`allowed_outcomes_for_graph` —
  the exhaustive enumerator: every per-lock critical-section
  permutation, every coherence linear extension, every reads-from
  product, judged by the axioms of :mod:`repro.axiom.relations`.  It
  prunes incrementally — a cyclic base+sw graph kills every coherence
  choice, a cyclic base+sw+co graph kills every rf choice, and rf
  candidates are filtered per read against the transitive closure (a
  global read must read the coherence-newest write that reaches it, and
  nothing may read a write it reaches) — and runs the full axioms on
  the survivors, so the classic 2–4-thread litmus shapes stay well
  under a few hundred candidate executions.  :func:`count_executions`
  counts its consistent candidates for a litmus test;
* :func:`axiom_consume_allowed` — the fuzzer's consume sets rederived
  from happens-before closures over the whole program's event graph;
* :func:`fuzz_consume_allowed` — the consume sets projected from the
  reduced engine's per-round joint outcomes (never wider than the two
  phase-partition derivations, and sometimes tighter).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.axiom.events import Event, EventGraph, litmus_event_graph
from repro.axiom.model import AxModel, ax_model_for
from repro.axiom.relations import (
    Outcome,
    _acyclic,
    _closure,
    _co_orders,
    _coherent_per_location,
    _outcome,
    _reaches,
    _read_candidates,
    _resolve_values,
    _ValueCycle,
)
from repro.axiom.scale import consume_reg, fuzz_round_outcomes
from repro.static.drf import ROUND_BARRIER, lower_fuzz_program
from repro.sync.base import draining_kinds


# --------------------------------------------------------------------------
# The exhaustive enumerator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Execution:
    """One consistent candidate execution and its outcome."""

    rf: Tuple[Tuple[int, int], ...]  #: (read eid, write eid) pairs
    co: Tuple[Tuple[str, Tuple[int, ...]], ...]  #: var → write eids, init first
    lock_order: Tuple[Tuple[str, Tuple[int, ...]], ...]
    outcome: Outcome


def _lock_orders(g: EventGraph) -> Iterator[Dict[str, Tuple[int, ...]]]:
    """Every per-lock total order of critical sections.

    Same-thread sections keep program order, and a section that never
    releases can only come last (nobody could acquire after it).
    """

    def valid(secs, perm) -> bool:
        for pos, ci in enumerate(perm):
            if secs[ci].rel is None and pos != len(perm) - 1:
                return False
        for x, y in itertools.combinations(perm, 2):
            a, b = secs[x], secs[y]
            if a.thread == b.thread and a.acq > b.acq:
                return False
        return True

    per_lock: List[Tuple[str, List[Tuple[int, ...]]]] = []
    for lock in sorted(g.sections):
        secs = g.sections[lock]
        perms = [
            p
            for p in itertools.permutations(range(len(secs)))
            if valid(secs, p)
        ]
        per_lock.append((lock, perms))
    for combo in itertools.product(*(perms for _, perms in per_lock)):
        yield {lock: perm for (lock, _), perm in zip(per_lock, combo)}


def _rf_fr_edges(
    g: EventGraph,
    rf: Dict[int, int],
    co_of: Dict[str, Tuple[int, ...]],
    cached_too: bool,
) -> List[Tuple[int, int]]:
    """rf plus from-read edges (read → immediate co-successor of its write)."""
    edges: List[Tuple[int, int]] = []
    for r_eid, w_eid in rf.items():
        if not cached_too and g.events[r_eid].is_cached_read:
            continue
        edges.append((w_eid, r_eid))
        co = co_of[g.events[r_eid].var]
        i = co.index(w_eid)
        if i + 1 < len(co):
            edges.append((r_eid, co[i + 1]))
    return edges


def enumerate_executions(
    g: EventGraph, ax: AxModel, finals: Sequence[str] = ()
) -> Iterator[Execution]:
    """Yield every consistent candidate execution of ``g`` under ``ax``."""
    base = g.base_edges(ax)
    po_full = [
        (a, b) for seq in g.threads for a, b in zip(seq, seq[1:])
    ]
    n = g.n
    for lock_order in _lock_orders(g):
        sw = g.sw_edges(lock_order)
        static = base + sw
        reach0 = _closure(n, static)
        if reach0 is None:
            continue  # prune: every co/rf refinement inherits the cycle
        # Issue order: full po even past delayed writes (a buffered write
        # issues at its program point; only its performance is delayed).
        # A cycle here means this lock order needs an event to issue
        # before something that must complete first — impossible.
        issue = _closure(n, static + po_full)
        if issue is None:
            continue
        per_var = [
            (var, list(_co_orders(g.writes_of(var), reach0)))
            for var in g.locations()
        ]
        for combo in itertools.product(*(orders for _, orders in per_var)):
            co_of = {
                var: (g.init_of[var],) + order
                for (var, _), order in zip(per_var, combo)
            }
            co_edges = [
                e for co in co_of.values() for e in zip(co, co[1:])
            ]
            reach = _closure(n, static + co_edges)
            if reach is None:
                continue  # prune: co contradicts happens-before
            cands = _read_candidates(g, ax, reach, issue, co_of)
            if cands is None:
                continue
            reads = sorted(cands)
            for choice in itertools.product(*(cands[r] for r in reads)):
                rf = dict(zip(reads, choice))
                ghb = static + co_edges + _rf_fr_edges(g, rf, co_of, cached_too=False)
                if not _acyclic(n, ghb):
                    continue
                if not _coherent_per_location(g, rf, co_of):
                    continue
                try:
                    values = _resolve_values(g, rf)
                except _ValueCycle:
                    continue
                yield Execution(
                    rf=tuple(sorted(rf.items())),
                    co=tuple(sorted((v, c) for v, c in co_of.items())),
                    lock_order=tuple(sorted(lock_order.items())),
                    outcome=_outcome(g, values, co_of, finals),
                )


def allowed_outcomes_for_graph(
    g: EventGraph, ax: AxModel, finals: Sequence[str] = ()
) -> frozenset:
    """The set of outcomes over all consistent executions."""
    return frozenset(
        ex.outcome for ex in enumerate_executions(g, ax, finals)
    )


def count_executions(test, model: str, protocol: str = "primitives") -> int:
    """Number of consistent candidate executions of a litmus test."""
    ax = ax_model_for(model, protocol)
    return sum(
        1
        for _ in enumerate_executions(
            litmus_event_graph(test), ax, finals=test.finals
        )
    )


# --------------------------------------------------------------------------
# The closure-based consume referee
# --------------------------------------------------------------------------
# Lower the program through the analyzer's IR (one source of truth for the
# accesses), rebuild the per-thread event sequences with explicit
# round-barrier crossings, and add a synthetic **probe** read on an extra
# thread that participates in every barrier crossing and sits in the
# consuming round.  The happens-before closure then partitions the slot's
# writes:
#
# * writes that reach the probe in *performed* order are before it — only
#   the coherence-last (slots are single-writer, so program order is
#   coherence order) is visible;
# * writes the probe reaches in *issue* order are after it — invisible: a
#   write the thread has not yet issued when the probe returns cannot be
#   seen, however long other writes linger in the buffer (performed order
#   deliberately drops a delayed write's po edges, so this direction needs
#   the full-po closure);
# * the rest are concurrent — each value is admissible, as is the initial
#   0 when nothing is ordered before.
#
# The referee is model-independent: the round barrier is CP-Synch, so it
# drains the buffer under every buffered model, and cross-thread reach
# only ever flows through barrier rendezvous nodes — lock release→acquire
# edges cannot bridge to the probe thread (it holds no locks), which is
# why no lock-order enumeration is needed here.

#: The probe's location: read-only, so it never joins any rf/co choice.
_PROBE_VAR = "__probe__"


def _fuzz_event_graph(program, probe_round: int) -> Tuple[EventGraph, int]:
    """The program's event graph plus a probe read in ``probe_round``."""
    ir = lower_fuzz_program(program)
    events: List[Event] = []
    threads: List[List[int]] = []
    crossings = set()

    def add(thread: int, seq: List[int], kind: str, **kw) -> Event:
        ev = Event(eid=len(events), thread=thread, pos=len(seq), kind=kind, **kw)
        events.append(ev)
        seq.append(ev.eid)
        return ev

    n_crossings = max(
        (totals.get(ROUND_BARRIER, 0) for totals in ir.barrier_totals),
        default=0,
    )
    for t in range(program.n_threads):
        seq: List[int] = []
        phase = 0
        for acc in sorted(
            (a for a in ir.accesses if a.thread == t), key=lambda a: a.index
        ):
            while phase < acc.phases.get(ROUND_BARRIER, 0):
                add(t, seq, "barrier", var=ROUND_BARRIER, crossing=phase)
                crossings.add(phase)
                phase += 1
            add(
                t, seq, "w" if acc.is_write else "r",
                var=acc.var, value=acc.value, op_index=acc.index,
            )
        while phase < ir.barrier_totals[t].get(ROUND_BARRIER, 0):
            add(t, seq, "barrier", var=ROUND_BARRIER, crossing=phase)
            crossings.add(phase)
            phase += 1
        threads.append(seq)

    # The probe thread: joins every crossing, reads in probe_round.
    probe_thread = program.n_threads
    seq = []
    probe_eid = None
    for k in range(n_crossings):
        if k == probe_round:
            probe_eid = add(probe_thread, seq, "r", var=_PROBE_VAR).eid
        add(probe_thread, seq, "barrier", var=ROUND_BARRIER, crossing=k)
        crossings.add(k)
    if probe_eid is None:
        probe_eid = add(probe_thread, seq, "r", var=_PROBE_VAR).eid
    threads.append(seq)

    rdv_of = {}
    for k in sorted(crossings):
        ev = Event(
            eid=len(events), thread=-1, pos=-1, kind="rdv",
            var=ROUND_BARRIER, crossing=k,
        )
        events.append(ev)
        rdv_of[(ROUND_BARRIER, k)] = ev.eid

    graph = EventGraph(
        events=events, threads=threads, init_of={}, rdv_of=rdv_of, sections={}
    )
    return graph, probe_eid


@lru_cache(maxsize=512)
def _partition(program, probe_round: int):
    graph, probe = _fuzz_event_graph(program, probe_round)
    ax = AxModel(
        name="fuzz-oracle",
        delay_shared_writes=True,
        drain_kinds=draining_kinds(False),
    )
    base = graph.base_edges(ax)
    reach = _closure(graph.n, base)
    assert reach is not None, "fuzz event graph must be acyclic"
    po_full = [(a, b) for seq in graph.threads for a, b in zip(seq, seq[1:])]
    issue = _closure(graph.n, base + po_full)
    assert issue is not None, "fuzz issue graph must be acyclic"
    return graph, probe, reach, issue


def axiom_consume_allowed(program, round_idx: int, target: int) -> set:
    """Values a consume of ``target``'s slot may observe in ``round_idx``."""
    probe_round = round_idx if len(program.rounds) > 1 else 0
    graph, probe, reach, issue = _partition(program, probe_round)
    writes = [graph.events[eid] for eid in graph.writes_of(f"slot:{target}")]
    assert all(w.thread == target for w in writes), "slots are single-writer"
    before = [w for w in writes if _reaches(reach, w.eid, probe)]
    allowed = {before[-1].value} if before else {0}
    allowed |= {
        w.value
        for w in writes
        if not _reaches(reach, w.eid, probe) and not _reaches(issue, probe, w.eid)
    }
    return allowed


# --------------------------------------------------------------------------
# The reduced engine's consume projection
# --------------------------------------------------------------------------

#: One reduced enumeration per (program, round): a campaign asks every
#: consume site of a round, and programs are frozen dataclasses.
_round_outcomes = lru_cache(maxsize=4096)(fuzz_round_outcomes)


def fuzz_consume_allowed(program, round_idx: int, target: int) -> set:
    """Values a consume of ``target``'s slot may observe in ``round_idx``.

    Projected from the round's *joint* outcome set, so it is never wider
    than the phase-partition derivations and can be strictly tighter (a
    consumer reading its own slot, or one ordered through a lock chain,
    gets only the values some consistent execution actually delivers).
    """
    regs = [
        consume_reg(round_idx, t, k)
        for t in range(program.n_threads)
        for k, atom in enumerate(program.rounds[round_idx][t])
        if atom.kind == "consume" and atom.arg == target
    ]
    values: set = set()
    for outcome in _round_outcomes(program, round_idx):
        d = dict(outcome)
        values.update(d[reg] for reg in regs)
    return values
