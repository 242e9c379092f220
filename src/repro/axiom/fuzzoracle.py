"""Axiomatic referee of the schedule fuzzer's consume oracle.

The fuzzer's cross-thread value oracle asks: which values may a
``consume`` of thread *t*'s slot observe in round *r*?  The DRF analyzer
answers with round arithmetic (:func:`repro.static.drf.derive_consume_allowed`);
this module answers the same question from the axiomatic event graph —
a third, independent derivation the regression tests hold equal to the
second.

Construction: lower the program through the analyzer's IR (one source
of truth for the accesses), rebuild the per-thread event sequences with
explicit round-barrier crossings, and add a synthetic **probe** read on
an extra thread that participates in every barrier crossing and sits in
the consuming round.  Then the happens-before closure partitions the
slot's writes:

* writes that reach the probe in *performed* order are before it — only
  the coherence-last (slots are single-writer, so program order is
  coherence order) is visible;
* writes the probe reaches in *issue* order are after it — invisible: a
  write the thread has not yet issued when the probe returns cannot be
  seen, however long other writes linger in the buffer (performed order
  deliberately drops a delayed write's po edges, so this direction needs
  the full-po closure);
* the rest are concurrent — each value is admissible, as is the initial
  0 when nothing is ordered before.

The oracle is model-independent: the round barrier is CP-Synch, so it
drains the buffer under every buffered model, and cross-thread reach
only ever flows through barrier rendezvous nodes — lock release→acquire
edges cannot bridge to the probe thread (it holds no locks), which is
why no lock-order enumeration is needed here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from ..static.drf import ROUND_BARRIER, lower_fuzz_program
from ..sync.base import draining_kinds
from .enumerate import _closure, _reaches
from .events import Event, EventGraph
from .model import AxModel

__all__ = ["axiom_consume_allowed"]

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
