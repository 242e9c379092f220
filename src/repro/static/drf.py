"""Static DRF/labeling analyzer for litmus and fuzzer programs.

The paper's central correctness claim — buffered consistency is SC for
*properly-labeled* programs (Adve–Hill) — rests on a classification of the
input program, and that classification is statically decidable from the
program text: build the per-address conflict graph, build the
synchronization-order skeleton from NP-Synch acquire / CP-Synch
release-and-barrier operations, and check that every conflicting pair of
plain accesses is ordered by it.

Two layers:

**Proper labeling (data-race freedom).**  Two accesses *conflict* when they
touch the same location from different threads and at least one writes.  A
conflicting pair is *ordered* when

* a common barrier separates them — access ``a`` at barrier phase ``p``
  happens-before access ``b`` at phase ``q > p`` because ``a`` precedes its
  thread's crossing ``p+1`` and ``b`` follows it (all participants
  rendezvous at every crossing), or
* both sides hold a common lock — critical sections on one lock are
  mutually exclusive, so the release→acquire chain orders them in every
  execution.

Accesses made through an atomic read-modify-write are *labeled*
synchronization operations: two labeled accesses may conflict without
racing.  A conflicting pair that is neither ordered nor labeled is a
**data race** and produces a structured :class:`RaceReport` naming the
location, threads, op indices, and the missing edge.

**Fence coverage.**  A racy program may still be unable to exhibit non-SC
outcomes on the buffered machine: the machine's only relaxation is the
write buffer delaying a shared write past later same-thread operations,
and every CP-Synch operation (FLUSH-BUFFER, release, barrier) drains the
buffer under all three buffered models (BC, WO, RC).  We therefore call a
program **synchronized** — relaxed outcomes forbidden, the meaning of the
litmus ``synchronized=`` flag — when it is properly labeled *or* when
every program-order pair of race-involved accesses in a thread has a
CP-Synch fence between them.  (Acquire is NP-Synch: it fences only under
WO, so it does not count.)  The criterion is deliberately conservative in
the safe direction: a pair of racy *reads* with no fence marks the program
unsynchronized even though this machine never reorders its blocking reads,
so the oracle's allowed set only ever widens.

Both program representations lower to one IR: litmus ``Op`` tuples via
:func:`lower_litmus` and the fuzzer's round/atom grid via
:func:`lower_fuzz_program` (duck-typed — no import of the fuzzer, which
imports us).  :func:`consume_oracle` re-derives the fuzzer's
consume oracle from the happens-before skeleton instead of hand-coded
round arithmetic.

CLI
---
``python -m repro.static.drf`` self-checks the built-in litmus corpus
(every ``synchronized=`` flag must equal the derived classification;
exit 1 on mismatch) and can dump the race reports as JSON artifacts;
``--program FILE`` analyzes a custom program written in the litmus DSL.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..sync.base import CP_SYNCH_OPS, NP_SYNCH_OPS

if TYPE_CHECKING:  # pragma: no cover
    from ..verify.litmus import LitmusTest, Op

__all__ = [
    "Access",
    "ProgramIR",
    "RaceReport",
    "Classification",
    "ConflictGraph",
    "LabelMismatch",
    "lower_litmus",
    "lower_fuzz_program",
    "classify_ir",
    "classify_litmus",
    "classification_for",
    "check_labels",
    "analyze_program",
    "conflict_graph",
    "consume_oracle",
    "derive_consume_allowed",
    "main",
]

#: Barrier name used for the fuzzer's implicit between-rounds barrier.
ROUND_BARRIER = "__round__"


class LabelMismatch(AssertionError):
    """A hand-maintained ``synchronized=`` flag disagrees with the analyzer."""


@dataclass
class Access:
    """One plain or labeled shared access in the lowered IR.

    ``phases`` maps barrier name → crossings the thread has completed
    before this access; ``fence_epoch`` counts CP-Synch fences (flush,
    release, barrier) that precede it in program order; ``locks`` is the
    set of lock names held.  ``value`` is the written value for writes
    whose value is statically known (used by the derived consume oracle).
    """

    thread: int
    index: int
    var: str
    is_write: bool
    kind: str
    labeled: bool = False
    locks: frozenset = frozenset()
    phases: Dict[str, int] = field(default_factory=dict)
    fence_epoch: int = 0
    value: Optional[int] = None

    def describe(self) -> str:
        rw = "W" if self.is_write else "R"
        tag = "+rmw" if self.labeled else ""
        return f"t{self.thread}#{self.index}:{rw}({self.var}){tag}"


@dataclass
class ProgramIR:
    """A lowered program: flat access list + per-thread barrier totals."""

    n_threads: int
    accesses: List[Access]
    #: Per-thread: barrier name → total crossings in the whole thread.
    barrier_totals: List[Dict[str, int]]
    #: Total synchronization operations seen during lowering.
    n_sync_ops: int = 0


@dataclass(frozen=True)
class RaceReport:
    """One unordered conflicting pair of plain accesses."""

    var: str
    thread_a: int
    index_a: int
    kind_a: str
    thread_b: int
    index_b: int
    kind_b: str
    reason: str

    def to_dict(self) -> dict:
        return {
            "var": self.var,
            "a": {"thread": self.thread_a, "index": self.index_a, "kind": self.kind_a},
            "b": {"thread": self.thread_b, "index": self.index_b, "kind": self.kind_b},
            "reason": self.reason,
        }

    def describe(self) -> str:
        return (
            f"race on {self.var!r}: t{self.thread_a}#{self.index_a}({self.kind_a}) vs "
            f"t{self.thread_b}#{self.index_b}({self.kind_b}) — {self.reason}"
        )


@dataclass
class Classification:
    """The analyzer's verdict for one program."""

    races: Tuple[RaceReport, ...]
    #: Same-thread program-order pairs of race-involved accesses with no
    #: CP-Synch fence between them, as (thread, index_a, index_b).
    unfenced: Tuple[Tuple[int, int, int], ...]
    #: Same-thread pairs (thread, index_write, index_later) where a racy
    #: *write* can actually be buffered past a later racy access to a
    #: *different* location: no CP-Synch fence between them and no
    #: intervening home-bound access to the write's own location (the
    #: per-word buffer chain would force the write to perform first).
    relaxable_pairs: Tuple[Tuple[int, int, int], ...] = ()
    n_threads: int = 0
    n_accesses: int = 0
    n_sync_ops: int = 0

    @property
    def properly_labeled(self) -> bool:
        """Data-race free: every conflicting pair is ordered or labeled."""
        return not self.races

    @property
    def synchronized(self) -> bool:
        """Relaxed outcomes forbidden (the litmus ``synchronized=`` sense):
        properly labeled, or every racy access pair fence-separated."""
        return not self.races or not self.unfenced

    @property
    def relaxable(self) -> bool:
        """A write-buffer delay can produce a non-SC outcome.

        Stronger than ``not synchronized``: the machine's only relaxation
        is a buffered shared write completing late, so a racy program with
        no delayable write→access pair (e.g. read-first shapes like LB or
        single-location tests like CoRR) still admits only SC outcomes.
        ``relaxable`` implies ``not synchronized``; the converse is false.
        """
        return bool(self.relaxable_pairs)

    def to_dict(self) -> dict:
        return {
            "properly_labeled": self.properly_labeled,
            "synchronized": self.synchronized,
            "relaxable": self.relaxable,
            "n_threads": self.n_threads,
            "n_accesses": self.n_accesses,
            "n_sync_ops": self.n_sync_ops,
            "races": [r.to_dict() for r in self.races],
            "unfenced": [list(p) for p in self.unfenced],
            "relaxable_pairs": [list(p) for p in self.relaxable_pairs],
        }


# --------------------------------------------------------------------------
# Lowering
# --------------------------------------------------------------------------

def lower_litmus(threads: Sequence[Sequence["Op"]]) -> ProgramIR:
    """Lower litmus ``Op`` tuples (see :mod:`repro.verify.litmus`)."""
    accesses: List[Access] = []
    totals: List[Dict[str, int]] = []
    n_sync = 0
    for t, ops in enumerate(threads):
        locks: set = set()
        phases: Dict[str, int] = {}
        epoch = 0
        for i, op in enumerate(ops):
            kind = op.kind
            common = dict(
                thread=t, index=i, locks=frozenset(locks),
                phases=dict(phases), fence_epoch=epoch,
            )
            if kind == "w":
                accesses.append(Access(var=op.var, is_write=True, kind="w",
                                       value=op.value, **common))
            elif kind in ("r", "ru", "cr"):
                accesses.append(Access(var=op.var, is_write=False, kind=kind, **common))
            elif kind == "inc":
                accesses.append(Access(var=op.var, is_write=False, kind="inc.read", **common))
                accesses.append(Access(var=op.var, is_write=True, kind="inc.write", **common))
            elif kind in NP_SYNCH_OPS or kind in CP_SYNCH_OPS:
                n_sync += 1
                if kind == "acquire":
                    locks.add(op.var)  # guards the accesses after it
                elif kind == "release":
                    locks.discard(op.var)
                elif kind == "barrier":
                    phases[op.var] = phases.get(op.var, 0) + 1
                # The fence rule comes straight from the labeling table:
                # CP-Synch ops drain the write buffer, NP-Synch ops do not.
                if kind in CP_SYNCH_OPS:
                    epoch += 1
            elif kind == "compute":
                pass
            else:
                raise ValueError(f"unknown litmus op kind {kind!r}")
        totals.append(dict(phases))
    return ProgramIR(
        n_threads=len(list(threads)), accesses=accesses,
        barrier_totals=totals, n_sync_ops=n_sync,
    )


def lower_fuzz_program(program) -> ProgramIR:
    """Lower a fuzzer program (duck-typed ``.n_threads`` / ``.rounds`` of
    atoms with ``.kind`` / ``.arg`` — see :class:`repro.verify.fuzz.Program`).

    The grid's implicit all-thread barrier between consecutive rounds
    becomes crossings of :data:`ROUND_BARRIER`; a ``lock_inc`` atom lowers
    to a counter read+write inside its lock's critical section followed by
    the release's CP-Synch fence; ``rmw_inc`` is a *labeled* (atomic)
    access; private traffic stays per-thread and can never conflict.
    """
    accesses: List[Access] = []
    totals: List[Dict[str, int]] = []
    n_sync = 0
    n_rounds = len(program.rounds)
    multi = n_rounds > 1
    for t in range(program.n_threads):
        phases: Dict[str, int] = {}
        epoch = 0
        idx = 0
        for ri, rnd in enumerate(program.rounds):
            for atom in rnd[t]:
                common = dict(thread=t, index=idx, phases=dict(phases), fence_epoch=epoch)
                if atom.kind == "compute":
                    pass
                elif atom.kind == "private":
                    var = f"private:{t}"
                    accesses.append(Access(var=var, is_write=True, kind="private.write", **common))
                    accesses.append(Access(var=var, is_write=False, kind="private.read", **common))
                elif atom.kind == "publish":
                    accesses.append(Access(
                        var=f"slot:{t}", is_write=True, kind="publish",
                        value=atom.arg, **common,
                    ))
                elif atom.kind == "consume":
                    accesses.append(Access(
                        var=f"slot:{atom.arg}", is_write=False, kind="consume", **common,
                    ))
                elif atom.kind == "lock_inc":
                    held = frozenset({f"lock:{atom.arg}"})
                    var = f"lockctr:{atom.arg}"
                    accesses.append(Access(var=var, is_write=False, kind="lock_inc.read",
                                           locks=held, **common))
                    accesses.append(Access(var=var, is_write=True, kind="lock_inc.write",
                                           locks=held, **common))
                    epoch += 1  # the release's CP-Synch fence
                    n_sync += 2  # acquire + release
                elif atom.kind == "rmw_inc":
                    accesses.append(Access(var="rmw", is_write=True, kind="rmw_inc",
                                           labeled=True, **common))
                    n_sync += 1
                else:
                    raise ValueError(f"unknown atom kind {atom.kind!r}")
                idx += 1
            if multi and ri < n_rounds - 1:
                phases[ROUND_BARRIER] = phases.get(ROUND_BARRIER, 0) + 1
                epoch += 1
                n_sync += 1
        totals.append(dict(phases))
    return ProgramIR(
        n_threads=program.n_threads, accesses=accesses,
        barrier_totals=totals, n_sync_ops=n_sync,
    )


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def _barrier_ordered(a: Access, b: Access, ir: ProgramIR) -> bool:
    """True when some common barrier orders ``a`` before ``b`` or vice versa.

    ``a`` at phase ``p`` precedes crossing ``p+1`` only if its thread
    crosses the barrier again after it (total > p); ``b`` at phase
    ``q > p`` follows crossing ``q`` ≥ ``p+1``, and every crossing is a
    rendezvous of all participants, so arrival happens-before departure.
    """
    for name in sorted(
        set(a.phases) | set(b.phases)
        | (set(ir.barrier_totals[a.thread]) & set(ir.barrier_totals[b.thread]))
    ):
        ta = ir.barrier_totals[a.thread].get(name, 0)
        tb = ir.barrier_totals[b.thread].get(name, 0)
        if ta == 0 or tb == 0:
            continue  # not a common barrier
        pa = a.phases.get(name, 0)
        pb = b.phases.get(name, 0)
        if pa < pb and ta > pa:
            return True
        if pb < pa and tb > pb:
            return True
    return False


def _race_reason(a: Access, b: Access) -> str:
    parts = []
    if a.locks or b.locks:
        parts.append(
            f"no common lock (t{a.thread} holds {sorted(a.locks) or '{}'}, "
            f"t{b.thread} holds {sorted(b.locks) or '{}'})"
        )
    else:
        parts.append("no lock protects either side")
    if a.phases or b.phases:
        parts.append(
            f"no barrier edge (phases {dict(a.phases)} vs {dict(b.phases)})"
        )
    else:
        parts.append("no barrier separates them")
    parts.append("missing release/acquire ordering")
    return "; ".join(parts)


def classify_ir(ir: ProgramIR) -> Classification:
    """Run the conflict-graph + sync-skeleton analysis over a lowered IR."""
    races: List[RaceReport] = []
    racy_ids: set = set()
    for i, a in enumerate(ir.accesses):
        for j in range(i + 1, len(ir.accesses)):
            b = ir.accesses[j]
            if a.thread == b.thread or a.var != b.var:
                continue
            if not (a.is_write or b.is_write):
                continue
            if a.labeled and b.labeled:
                continue  # both labeled sync accesses: allowed to conflict
            if a.locks & b.locks:
                continue  # mutual exclusion orders them in every execution
            if _barrier_ordered(a, b, ir):
                continue
            lo, hi = (a, b) if (a.thread, a.index) <= (b.thread, b.index) else (b, a)
            races.append(RaceReport(
                var=a.var,
                thread_a=lo.thread, index_a=lo.index, kind_a=lo.kind,
                thread_b=hi.thread, index_b=hi.index, kind_b=hi.kind,
                reason=_race_reason(lo, hi),
            ))
            racy_ids.add(i)
            racy_ids.add(j)

    # Fence coverage over the racy accesses, per thread, in program order.
    unfenced: List[Tuple[int, int, int]] = []
    by_thread: Dict[int, List[Access]] = {}
    for k in sorted(racy_ids):
        acc = ir.accesses[k]
        by_thread.setdefault(acc.thread, []).append(acc)
    for t, accs in sorted(by_thread.items()):
        accs.sort(key=lambda a: a.index)
        for x, y in zip(accs, accs[1:]):
            if x.fence_epoch == y.fence_epoch and x.index != y.index:
                unfenced.append((t, x.index, y.index))

    # Which unfenced shapes can the write buffer actually reorder?  A
    # racy write may be delayed past a later access only while no
    # CP-Synch fence and no home-bound access to the write's own word
    # intervenes (the per-word chain issues same-word entries in order
    # and drains on any blocking same-word read; a plain cached read
    # never touches the home, so it bounds nothing).  Only a *racy*
    # access to a *different* location past the delayed write makes the
    # reordering observable.
    relaxable_pairs: List[Tuple[int, int, int]] = []
    all_by_thread: Dict[int, List[Tuple[int, Access]]] = {}
    for k, acc in enumerate(ir.accesses):
        all_by_thread.setdefault(acc.thread, []).append((k, acc))
    for t, items in sorted(all_by_thread.items()):
        items.sort(key=lambda ka: ka[1].index)
        for pos, (gi, a) in enumerate(items):
            if gi not in racy_ids or not a.is_write:
                continue
            for gj, b in items[pos + 1 :]:
                if b.fence_epoch != a.fence_epoch:
                    break
                if b.var == a.var:
                    if not b.is_write and b.kind != "cr":
                        break  # blocking same-word read forces performance
                    continue
                if gj in racy_ids:
                    relaxable_pairs.append((t, a.index, b.index))

    return Classification(
        races=tuple(races),
        unfenced=tuple(unfenced),
        relaxable_pairs=tuple(relaxable_pairs),
        n_threads=ir.n_threads,
        n_accesses=len(ir.accesses),
        n_sync_ops=ir.n_sync_ops,
    )


def classify_litmus(threads: Sequence[Sequence["Op"]]) -> Classification:
    """Classify raw litmus threads (the ``Op``-tuple representation)."""
    return classify_ir(lower_litmus(threads))


def analyze_program(program) -> Classification:
    """Classify a fuzzer program (:class:`repro.verify.fuzz.Program`)."""
    return classify_ir(lower_fuzz_program(program))


@lru_cache(maxsize=None)
def classification_for(test: "LitmusTest") -> Classification:
    """The (cached) classification of a litmus test."""
    return classify_litmus(test.threads)


def check_labels(test: "LitmusTest") -> Classification:
    """Classify ``test`` and cross-check its hand-maintained flag.

    The oracle uses the *derived* classification; the ``synchronized=``
    flag survives purely as an assertion, so a mislabeled test (or an
    analyzer regression) fails loudly instead of silently widening or
    narrowing the allowed-outcome set.
    """
    cls = classification_for(test)
    if cls.synchronized != test.synchronized:
        detail = "; ".join(r.describe() for r in cls.races) or "no races found"
        raise LabelMismatch(
            f"litmus {test.name!r}: synchronized={test.synchronized} but the "
            f"analyzer derives {cls.synchronized} ({detail})"
        )
    return cls


# --------------------------------------------------------------------------
# Conflict graph export
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConflictGraph:
    """The per-address conflict structure of a lowered program.

    Consumed by the partial-order-reduction layer in
    :mod:`repro.axiom.scale`: two accesses are *independent* (their
    interleavings need not both be explored) unless they conflict —
    same location, different threads, at least one write.  ``edges``
    holds conflicting pairs as indices into the source IR's access
    list; ``vars_of_thread`` and ``writers_of`` give the per-thread /
    per-location projections the pruner keys on.
    """

    #: Conflicting access pairs as (i, j) indices into ``ir.accesses``,
    #: i < j, sorted.
    edges: Tuple[Tuple[int, int], ...]
    #: location -> sorted tuple of threads that write it.
    writers_of: Dict[str, Tuple[int, ...]]
    #: thread -> sorted tuple of shared locations it touches.
    vars_of_thread: Dict[int, Tuple[str, ...]]

    @property
    def conflict_free_vars(self) -> Tuple[str, ...]:
        """Locations touched by exactly one thread (never in ``edges``)."""
        in_edges = {v for v, ts in self.writers_of.items() if len(ts) > 1}
        multi = set()
        for t, vs in self.vars_of_thread.items():
            for v in vs:
                touchers = [u for u, uvs in self.vars_of_thread.items() if v in uvs]
                if len(touchers) > 1:
                    multi.add(v)
        return tuple(sorted(
            v for vs in self.vars_of_thread.values() for v in vs
            if v not in multi and v not in in_edges
        ))


def conflict_graph(ir: ProgramIR) -> ConflictGraph:
    """Build the per-address conflict graph of a lowered program.

    Unlike :func:`classify_ir` this keeps *every* conflicting pair —
    including pairs ordered by locks or barriers and labeled-vs-labeled
    pairs — because the reduction layer prunes on potential interference
    in *some* interleaving, not on raciness.
    """
    edges: List[Tuple[int, int]] = []
    writers: Dict[str, set] = {}
    vars_of: Dict[int, set] = {}
    for i, a in enumerate(ir.accesses):
        vars_of.setdefault(a.thread, set()).add(a.var)
        if a.is_write:
            writers.setdefault(a.var, set()).add(a.thread)
        for j in range(i + 1, len(ir.accesses)):
            b = ir.accesses[j]
            if a.thread == b.thread or a.var != b.var:
                continue
            if not (a.is_write or b.is_write):
                continue
            edges.append((i, j))
    return ConflictGraph(
        edges=tuple(sorted(edges)),
        writers_of={v: tuple(sorted(ts)) for v, ts in sorted(writers.items())},
        vars_of_thread={t: tuple(sorted(vs)) for t, vs in sorted(vars_of.items())},
    )


# --------------------------------------------------------------------------
# Derived fuzz oracle
# --------------------------------------------------------------------------

def consume_oracle(program) -> Callable[[int, int], set]:
    """The consume oracle of ``program``: ``allowed(round_idx, target)``
    is the set of values a consume of ``target``'s slot may observe in
    ``round_idx``, derived from the happens-before skeleton rather than
    round arithmetic.

    Candidate writes are partitioned against a probe read at the consuming
    round's barrier phase: writes ordered *before* it contribute only the
    program-order-last value (single-writer location), concurrent —
    statically racy — writes contribute each of theirs, and writes ordered
    *after* it are invisible.  The location's initial value 0 applies when
    no write is ordered before.

    The program is lowered once, here, and its slot writes grouped by
    slot, so a run that checks many consume sites pays one lowering.
    """
    ir = lower_fuzz_program(program)
    slot_writes: Dict[str, List[Access]] = {}
    for a in ir.accesses:
        if a.is_write and a.var.startswith("slot:"):
            slot_writes.setdefault(a.var, []).append(a)
    multi = len(program.rounds) > 1

    def allowed(round_idx: int, target: int) -> set:
        var = f"slot:{target}"
        writes = slot_writes.get(var, ())
        assert all(w.thread == target for w in writes), f"{var} is not single-writer"
        probe_phase = round_idx if multi else 0
        before = [w for w in writes if w.phases.get(ROUND_BARRIER, 0) < probe_phase]
        concurrent = [w for w in writes if w.phases.get(ROUND_BARRIER, 0) == probe_phase]
        values = {max(before, key=lambda w: w.index).value} if before else {0}
        values |= {w.value for w in concurrent}
        return values

    return allowed


def derive_consume_allowed(program, round_idx: int, target: int) -> set:
    """Values a consume of ``target``'s slot may observe in ``round_idx``:
    one site of :func:`consume_oracle` (which see), lowering ``program``
    for this call alone."""
    return consume_oracle(program)(round_idx, target)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def _analyze_corpus(json_out: Optional[str], quiet: bool) -> int:
    from ..verify.litmus import LITMUS_TESTS

    rows = []
    mismatches = []
    for test in LITMUS_TESTS:
        cls = classification_for(test)
        ok = cls.synchronized == test.synchronized
        if not ok:
            mismatches.append(test.name)
        rows.append({
            "test": test.name,
            "flag_synchronized": test.synchronized,
            "classification": cls.to_dict(),
            "flag_matches": ok,
        })
        if not quiet:
            verdict = (
                "properly-labeled" if cls.properly_labeled
                else ("racy+fenced" if cls.synchronized else "racy")
            )
            mark = "ok" if ok else "MISMATCH"
            print(f"{test.name:12s} {verdict:16s} races={len(cls.races):2d} "
                  f"flag={test.synchronized!s:5s} [{mark}]")
            for race in cls.races:
                print(f"    {race.describe()}")
    if json_out:
        with open(json_out, "w") as fh:
            json.dump({"corpus": rows, "mismatches": mismatches}, fh, indent=2, sort_keys=True)
        if not quiet:
            print(f"race reports written to {json_out}")
    if mismatches:
        print(f"label mismatch on: {', '.join(mismatches)}", file=sys.stderr)
        return 1
    return 0


def _analyze_file(path: str, json_out: Optional[str]) -> int:
    from ..verify import litmus as L

    namespace = {
        name: getattr(L, name)
        for name in ("Op", "W", "R", "RU", "CR", "INC", "FLUSH", "ACQ", "REL", "BAR", "COMPUTE")
    }
    with open(path) as fh:
        source = fh.read()
    exec(compile(source, path, "exec"), namespace)
    threads = namespace.get("THREADS")
    if threads is None:
        print(f"{path}: must define THREADS = (tuple_of_ops, ...)", file=sys.stderr)
        return 2
    cls = classify_litmus(threads)
    verdict = (
        "properly-labeled" if cls.properly_labeled
        else ("racy but fence-covered (SC-only)" if cls.synchronized else "racy")
    )
    print(f"{path}: {verdict} — {cls.n_accesses} shared access(es), "
          f"{cls.n_sync_ops} sync op(s), {len(cls.races)} race(s)")
    for race in cls.races:
        print(f"  {race.describe()}")
    if json_out:
        with open(json_out, "w") as fh:
            json.dump(cls.to_dict(), fh, indent=2, sort_keys=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.static.drf",
        description="Static DRF/labeling analyzer: classify programs as "
        "properly-labeled or racy. With no arguments, self-checks the "
        "built-in litmus corpus against its synchronized= flags.",
    )
    parser.add_argument(
        "--program", metavar="FILE", default=None,
        help="analyze a custom program: a Python file defining THREADS "
        "using the litmus DSL (W/R/ACQ/REL/BAR/FLUSH/...)",
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the race reports / classification as JSON")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.program is not None:
        return _analyze_file(args.program, args.json)
    return _analyze_corpus(args.json, args.quiet)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
