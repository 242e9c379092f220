"""Single-execution conformance: ``observed ⊨ model`` for whole traces.

The reduced engine (:mod:`repro.axiom.scale`) and its exhaustive test
referee answer "which outcomes does the model *allow*" by enumerating
candidate executions — exponential in the worst case and
pointless for a workload trace, which already names **one** candidate
execution.  This module checks that single candidate in polynomial time.

The trick is that the machine's home memory controller is a serialization
point: every global write performs *at the home*, in a definite order, and
the ``mem.*`` trace instants record exactly that order.  So the concrete
relations fall out of the trace with no search:

* **co** (coherence order) — the per-word sequence of ``mem.perform`` /
  ``mem.rmw`` instants, in trace-append order.  Retried/replayed writes
  under the fault layer collapse to a single logical event *before* the
  instant is emitted (the home's dedup-replay absorbs duplicates), so the
  stream is already the logical write order.
* **rf** (reads-from) — each ``mem.read`` / ``mem.rmw`` observes the word
  at the home between two entries of co; its value must equal the latest
  performed value.  A violated check is a concrete rf edge pointing at a
  non-co-maximal-at-that-instant write — exactly a coherence axiom break.
* **fr** (from-read) — implied: a read positioned in the perform stream
  precedes every later perform.

On top of the per-word stream the checker enforces the buffered-
consistency obligations that relate different words:

* **per-writer same-word order** — one node's performs on one word carry
  ascending write-buffer entry ids (the buffer's same-address chain).
* **drain bounds (CP-Synch)** — every global write *issued*
  (``mem.issue``) before a draining operation starts must have performed
  by the time that operation completes.  Draining operations are
  ``release:*`` / ``barrier:*`` sync spans and explicit ``flush_buffer``
  spans; under the fault layer a recovered (timed-out and reissued) write
  still performs before its ack, so recovery preserves the bound.
* **mutual exclusion** — write-mode critical sections on one lock
  (``acquire:*Lock`` grant → ``release:*Lock`` issue, paired by
  ``args["obj"]``) must not overlap.

Words touched by a cache ``WRITEBACK`` (``mem.wb``) leave the global-write
order; the checker forgets their last-known value at that point instead of
guessing, so plain cached writes never produce false alarms.

Use :func:`conformance_report` on a trace file written with ``--trace`` /
:meth:`TraceBus.dump_jsonl`, or :func:`check_trace` on in-memory events::

    report = conformance_report("run.trace")
    assert report.ok, report.describe()

CLI: ``python -m repro.axiom --conform run.trace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ConformanceViolation",
    "ConformanceReport",
    "MemTrace",
    "check_trace",
    "conformance_report",
]

#: Draining operations checked by default: CP-Synch completes releases and
#: barriers only after the write buffer drains, and FLUSH-BUFFER *is* the
#: drain.  Narrow this (e.g. to ``("flush",)``) for ablation models that
#: drop the release-time flush.
DEFAULT_DRAINS: Tuple[str, ...] = ("release", "barrier", "flush")


@dataclass(frozen=True)
class ConformanceViolation:
    """One concrete axiom violation, anchored to a trace position."""

    kind: str  # e.g. "read-value", "rmw-old", "same-word-order", ...
    detail: str
    index: int = -1  # trace-append index of the offending event

    def __str__(self) -> str:
        at = f" @#{self.index}" if self.index >= 0 else ""
        return f"[{self.kind}]{at} {self.detail}"


@dataclass(frozen=True)
class ConformanceReport:
    """Verdict plus the evidence: violations and coverage counts."""

    ok: bool
    violations: Tuple[ConformanceViolation, ...]
    counts: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        head = "conformance: OK" if self.ok else "conformance: FAIL"
        lines = [head]
        lines.append(
            "  checked "
            + ", ".join(f"{self.counts.get(k, 0)} {k}" for k in sorted(self.counts))
        )
        for v in self.violations:
            lines.append(f"  {v}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "detail": v.detail, "index": v.index}
                for v in self.violations
            ],
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# trace lowering
# ---------------------------------------------------------------------------

def _as_dict(ev: Any) -> Dict[str, Any]:
    """Accept raw JSONL dicts or in-memory :class:`TraceEvent` objects."""
    if isinstance(ev, dict):
        return ev
    return ev.to_dict()


@dataclass(frozen=True)
class _MemOp:
    """One entry of a word's home-serialization stream."""

    index: int  # trace-append position: the serialization tiebreak
    ts: float
    kind: str  # "perform" | "read" | "rmw" | "wb"
    src: int
    value: int = 0  # written (perform), observed (read), new (rmw)
    old: int = 0  # rmw only
    entry: int = -1  # perform only: write-buffer entry id


@dataclass(frozen=True)
class _Span:
    index: int
    tid: int
    name: str
    t0: float
    t1: float
    obj: int = -1
    mode: str = "write"


@dataclass
class MemTrace:
    """The conformance-relevant projection of one trace.

    ``ops_by_word`` is each word's home stream in trace order; ``issues``
    maps a writer node to its ``mem.issue`` records; ``performed`` keys
    ``(src, entry)`` to the perform's trace position and time; spans are
    split into draining operations and critical sections.
    """

    ops_by_word: Dict[int, List[_MemOp]] = field(default_factory=dict)
    issues: Dict[int, List[Tuple[int, float, int, int, int]]] = field(
        default_factory=dict
    )  # src -> [(index, ts, word, value, entry)]
    performed: Dict[Tuple[int, int], Tuple[int, float]] = field(default_factory=dict)
    drain_spans: List[_Span] = field(default_factory=list)
    acquire_spans: List[_Span] = field(default_factory=list)
    release_spans: List[_Span] = field(default_factory=list)
    duplicates: int = 0  # performs collapsed defensively (beyond home dedup)
    conflicting_duplicates: List[ConformanceViolation] = field(default_factory=list)
    dropped: int = 0  # from the trace meta header, if known

    @classmethod
    def from_events(
        cls,
        events: Iterable[Any],
        *,
        drains: Sequence[str] = DEFAULT_DRAINS,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "MemTrace":
        tr = cls(dropped=int((meta or {}).get("dropped") or 0))
        want_release = "release" in drains
        want_barrier = "barrier" in drains
        want_flush = "flush" in drains
        for index, raw in enumerate(events):
            ev = _as_dict(raw)
            cat = ev.get("cat")
            name = ev.get("name", "")
            args = ev.get("args") or {}
            ts = ev.get("ts", 0.0)
            tid = ev.get("tid", 0)
            if cat == "mem":
                if name == "mem.issue":
                    tr.issues.setdefault(tid, []).append(
                        (index, ts, args.get("word", -1),
                         args.get("value", 0), args.get("entry", -1))
                    )
                else:
                    tr._add_mem(index, ts, name, args)
            elif cat == "sync" and ev.get("ph") == "X":
                t1 = ts + ev.get("dur", 0.0)
                obj = args.get("obj", -1)
                if name.startswith("acquire:"):
                    tr.acquire_spans.append(
                        _Span(index, tid, name, ts, t1, obj, args.get("mode", "write"))
                    )
                elif name.startswith("release:"):
                    tr.release_spans.append(_Span(index, tid, name, ts, t1, obj))
                    if want_release:
                        tr.drain_spans.append(_Span(index, tid, name, ts, t1, obj))
                elif name.startswith("barrier:") and want_barrier:
                    tr.drain_spans.append(_Span(index, tid, name, ts, t1, obj))
            elif cat == "wb" and name == "flush_buffer" and ev.get("ph") == "X" and want_flush:
                tr.drain_spans.append(
                    _Span(index, tid, name, ts, ts + ev.get("dur", 0.0))
                )
        return tr

    def _add_mem(self, index: int, ts: float, name: str, args: Dict[str, Any]) -> None:
        word = args.get("word")
        if name == "mem.perform":
            key = (args.get("src", -1), args.get("entry", -1))
            if key in self.performed:
                # The home's dedup should have absorbed this; collapse it
                # here too, but a *different value* under one entry id is
                # itself a violation (two logical writes sharing an id).
                self.duplicates += 1
                prev_index, _prev_ts = self.performed[key]
                prev_ops = self.ops_by_word.get(word, [])
                prev = next((o for o in prev_ops if o.index == prev_index), None)
                if prev is not None and prev.value != args.get("value"):
                    self.conflicting_duplicates.append(
                        ConformanceViolation(
                            "duplicate-perform",
                            f"writer {key[0]} entry {key[1]} performed twice "
                            f"with values {prev.value} and {args.get('value')}",
                            index,
                        )
                    )
                return
            self.performed[key] = (index, ts)
            self.ops_by_word.setdefault(word, []).append(
                _MemOp(index, ts, "perform", args.get("src", -1),
                       args.get("value", 0), entry=args.get("entry", -1))
            )
        elif name == "mem.read":
            self.ops_by_word.setdefault(word, []).append(
                _MemOp(index, ts, "read", args.get("src", -1), args.get("value", 0))
            )
        elif name == "mem.rmw":
            self.ops_by_word.setdefault(word, []).append(
                _MemOp(index, ts, "rmw", args.get("src", -1),
                       args.get("new", 0), old=args.get("old", 0))
            )
        elif name == "mem.wb":
            for w in args.get("words", ()):
                self.ops_by_word.setdefault(w, []).append(
                    _MemOp(index, ts, "wb", args.get("src", -1))
                )


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _check_word_streams(tr: MemTrace, out: List[ConformanceViolation]) -> None:
    """Per-location coherence: rf targets the co-latest write; rmw is
    atomic (its old value is the co-latest); a writeback invalidates the
    known value instead of joining co."""
    for word in sorted(tr.ops_by_word):
        known = False
        cur = 0
        for op in tr.ops_by_word[word]:
            if op.kind == "perform":
                known, cur = True, op.value
            elif op.kind == "wb":
                known = False  # cached writes bypass the global-write order
            elif op.kind == "rmw":
                if known and op.old != cur:
                    out.append(ConformanceViolation(
                        "rmw-old",
                        f"word {word}: rmw by node {op.src} read {op.old} but "
                        f"the co-latest value is {cur}",
                        op.index,
                    ))
                known, cur = True, op.value
            elif op.kind == "read":
                if known and op.value != cur:
                    out.append(ConformanceViolation(
                        "read-value",
                        f"word {word}: node {op.src} read {op.value} but the "
                        f"co-latest value is {cur}",
                        op.index,
                    ))
                # An unknown-state read establishes the baseline (initial
                # memory contents are not in the trace).
                known, cur = True, op.value


def _check_writer_order(tr: MemTrace, out: List[ConformanceViolation]) -> None:
    """One writer's performs on one word must follow issue order (the
    write buffer's same-address chain): ascending entry ids."""
    last: Dict[Tuple[int, int], int] = {}
    for word in sorted(tr.ops_by_word):
        for op in tr.ops_by_word[word]:
            if op.kind != "perform":
                continue
            key = (op.src, word)
            prev = last.get(key)
            if prev is not None and op.entry <= prev:
                out.append(ConformanceViolation(
                    "same-word-order",
                    f"word {word}: writer {op.src} performed entry {op.entry} "
                    f"after entry {prev} (program order inverted at the home)",
                    op.index,
                ))
            last[key] = op.entry


def _check_issue_pairing(tr: MemTrace, out: List[ConformanceViolation]) -> None:
    """Every perform pairs with an earlier issue of the same word+value."""
    issued: Dict[Tuple[int, int], Tuple[int, float, int, int]] = {}
    for src, recs in tr.issues.items():
        for index, ts, word, value, entry in recs:
            issued[(src, entry)] = (index, ts, word, value)
    if not issued:
        return  # mem.issue category filtered out of this trace
    for word in sorted(tr.ops_by_word):
        for op in tr.ops_by_word[word]:
            if op.kind != "perform":
                continue
            rec = issued.get((op.src, op.entry))
            if rec is None:
                out.append(ConformanceViolation(
                    "perform-without-issue",
                    f"word {word}: perform by writer {op.src} entry {op.entry} "
                    "has no matching mem.issue",
                    op.index,
                ))
                continue
            _i, its, iword, ivalue = rec
            if iword != word or ivalue != op.value:
                out.append(ConformanceViolation(
                    "issue-mismatch",
                    f"writer {op.src} entry {op.entry}: issued word {iword}="
                    f"{ivalue} but performed word {word}={op.value}",
                    op.index,
                ))
            elif op.ts < its:
                out.append(ConformanceViolation(
                    "perform-before-issue",
                    f"writer {op.src} entry {op.entry} performed at t={op.ts} "
                    f"before its issue at t={its}",
                    op.index,
                ))


def _check_drain_bounds(tr: MemTrace, out: List[ConformanceViolation]) -> None:
    """CP-Synch: a write issued before a draining operation starts must
    have performed by the time the operation completes.  Holds under the
    fault layer too — a timed-out write is reissued with the same entry id
    and still performs before its ack releases the drain."""
    for span in tr.drain_spans:
        for _index, its, word, _value, entry in tr.issues.get(span.tid, ()):
            if its > span.t0:
                continue
            rec = tr.performed.get((span.tid, entry))
            if rec is None:
                out.append(ConformanceViolation(
                    "drain-bound",
                    f"node {span.tid}: write entry {entry} (word {word}, "
                    f"issued t={its}) never performed, yet {span.name} "
                    f"completed at t={span.t1}",
                    span.index,
                ))
            elif rec[1] > span.t1:
                out.append(ConformanceViolation(
                    "drain-bound",
                    f"node {span.tid}: write entry {entry} (word {word}, "
                    f"issued t={its}) performed at t={rec[1]}, after "
                    f"{span.name} completed at t={span.t1}",
                    span.index,
                ))


def _check_mutual_exclusion(tr: MemTrace, out: List[ConformanceViolation]) -> int:
    """Write-mode critical sections on one lock must not overlap.

    A section runs from its acquire *grant* (span end) to its release
    *issue* (span start) — using the release span's end would race the
    handoff, since the next grant and the releaser's ack travel
    independently.  Semaphores (counting, legitimately concurrent) are
    excluded by the ``Lock`` class-name filter; read-mode sections may
    overlap each other but not any write-mode section.
    """
    acquires = [s for s in tr.acquire_spans if "Lock" in s.name]
    releases = [s for s in tr.release_spans if "Lock" in s.name]
    rel_by_key: Dict[Tuple[int, int], List[_Span]] = {}
    for s in releases:
        rel_by_key.setdefault((s.tid, s.obj), []).append(s)
    sections: Dict[int, List[Tuple[float, float, int, str, int]]] = {}
    n = 0
    for acq in sorted(acquires, key=lambda s: s.index):
        rels = rel_by_key.get((acq.tid, acq.obj), [])
        # Releases pair with acquires in per-thread program order; spans
        # are emitted at end, so matching by time keeps reacquires sane.
        rel = next((r for r in rels if r.t0 >= acq.t1), None)
        if rel is not None:
            rels.remove(rel)
            end = rel.t0
        else:
            end = float("inf")  # held at trace end
        sections.setdefault(acq.obj, []).append(
            (acq.t1, end, acq.tid, acq.mode, acq.index)
        )
        n += 1
    for obj in sorted(sections):
        ivs = sorted(sections[obj])
        for (s0, e0, t0_, m0, i0), (s1, e1, t1_, m1, i1) in zip(ivs, ivs[1:]):
            if s1 < e0 and ("write" in (m0, m1)):
                out.append(ConformanceViolation(
                    "mutual-exclusion",
                    f"lock obj {obj}: node {t1_} ({m1}) granted at t={s1} "
                    f"while node {t0_} ({m0}) still held it until t={e0}",
                    i1,
                ))
    return n


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def check_trace(
    events: Iterable[Any],
    *,
    drains: Sequence[str] = DEFAULT_DRAINS,
    meta: Optional[Dict[str, Any]] = None,
) -> ConformanceReport:
    """Check one observed execution against the memory-model axioms.

    ``events`` is a sequence of raw trace dicts (from
    :func:`repro.obs.export.read_trace`) or live :class:`TraceEvent`
    objects (``machine.obs.events``).  ``drains`` selects which operations
    are held to the drain bound (default: release, barrier, flush).
    Runs in ``O(events + sections²-per-lock)`` — polynomial, no search.
    """
    tr = MemTrace.from_events(events, drains=drains, meta=meta)
    violations: List[ConformanceViolation] = list(tr.conflicting_duplicates)
    _check_word_streams(tr, violations)
    _check_writer_order(tr, violations)
    _check_issue_pairing(tr, violations)
    _check_drain_bounds(tr, violations)
    n_sections = _check_mutual_exclusion(tr, violations)
    n_ops = {k: 0 for k in ("perform", "read", "rmw", "wb")}
    for ops in tr.ops_by_word.values():
        for op in ops:
            n_ops[op.kind] += 1
    counts = {
        "words": len(tr.ops_by_word),
        "performs": n_ops["perform"],
        "reads": n_ops["read"],
        "rmws": n_ops["rmw"],
        "writebacks": n_ops["wb"],
        "issues": sum(len(v) for v in tr.issues.values()),
        "drain_spans": len(tr.drain_spans),
        "sections": n_sections,
        "duplicates_collapsed": tr.duplicates,
        "trace_dropped": tr.dropped,
    }
    violations.sort(key=lambda v: (v.index, v.kind))
    return ConformanceReport(
        ok=not violations, violations=tuple(violations), counts=counts
    )


def conformance_report(
    path: str, *, drains: Sequence[str] = DEFAULT_DRAINS
) -> ConformanceReport:
    """Read a JSONL trace file and conformance-check it."""
    from ..obs.export import read_trace

    meta, events = read_trace(path)
    return check_trace(events, drains=drains, meta=meta)
