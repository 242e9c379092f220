"""Trace recording and replay (the paper's stated future work:
"Trace-driven simulation is another alternative to probabilistic simulation
and is also being investigated").

A :class:`TraceRecorder` wraps a :class:`~repro.node.processor.Processor`
and logs every operation it issues; :func:`replay` re-executes a recorded
trace on a fresh machine (possibly with a different protocol, network, or
consistency model), which is exactly how trace-driven architecture studies
compare design points on identical reference streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, List, Optional

from .service import ClosedLoopService

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor
    from ..system.machine import Machine

__all__ = [
    "TraceEntry",
    "TraceRecorder",
    "TraceReplayWorkload",
    "replay",
    "save_trace",
    "load_trace",
]

#: Operations a trace may contain, mapping to Processor methods.
_REPLAYABLE = {
    "read",
    "write",
    "shared_read",
    "shared_write",
    "read_global",
    "write_global",
    "read_update",
    "reset_update",
    "flush",
    "compute",
}


@dataclass(slots=True, frozen=True)
class TraceEntry:
    """One recorded operation."""

    node: int
    op: str
    addr: int = -1
    value: int = 0

    def to_json(self) -> str:
        return json.dumps({"n": self.node, "o": self.op, "a": self.addr, "v": self.value})

    @classmethod
    def from_json(cls, line: str) -> "TraceEntry":
        d = json.loads(line)
        return cls(node=d["n"], op=d["o"], addr=d["a"], value=d["v"])


class TraceRecorder:
    """Proxy over a Processor that records data operations.

    Synchronization operations are not traced (replaying lock outcomes
    verbatim would not be meaningful on a different machine); the intended
    use is recording the data-reference stream of each task.
    """

    def __init__(self, proc: "Processor", trace: Optional[List[TraceEntry]] = None):
        self.proc = proc
        self.trace: List[TraceEntry] = trace if trace is not None else []

    def _log(self, op: str, addr: int = -1, value: int = 0) -> None:
        self.trace.append(TraceEntry(node=self.proc.node_id, op=op, addr=addr, value=value))

    def read(self, addr: int):
        self._log("read", addr)
        v = yield from self.proc.read(addr)
        return v

    def write(self, addr: int, value: int):
        self._log("write", addr, value)
        yield from self.proc.write(addr, value)

    def shared_read(self, addr: int):
        self._log("shared_read", addr)
        v = yield from self.proc.shared_read(addr)
        return v

    def shared_write(self, addr: int, value: int):
        self._log("shared_write", addr, value)
        yield from self.proc.shared_write(addr, value)

    def read_global(self, addr: int):
        self._log("read_global", addr)
        v = yield from self.proc.read_global(addr)
        return v

    def write_global(self, addr: int, value: int):
        self._log("write_global", addr, value)
        yield from self.proc.write_global(addr, value)

    def read_update(self, addr: int):
        self._log("read_update", addr)
        v = yield from self.proc.read_update(addr)
        return v

    def reset_update(self, addr: int):
        self._log("reset_update", addr)
        yield from self.proc.reset_update(addr)

    def flush(self):
        self._log("flush")
        yield from self.proc.flush()

    def compute(self, cycles: float):
        self._log("compute", value=int(cycles))
        yield from self.proc.compute(cycles)


def _node_driver(proc: "Processor", entries: List[TraceEntry], downgrade: bool):
    for e in entries:
        op = e.op
        if downgrade and op in ("read_update", "reset_update"):
            # Replaying a primitives trace on a WBI machine: READ-UPDATE
            # degrades to a coherent read; RESET-UPDATE is a no-op.
            if op == "read_update":
                yield from proc.read(e.addr)
            continue
        if downgrade and op == "write_global":
            yield from proc.write(e.addr, e.value)
            continue
        if downgrade and op == "flush":
            continue
        if op == "compute":
            yield from proc.compute(e.value)
        elif op in ("read", "shared_read", "read_global", "read_update"):
            yield from getattr(proc, op)(e.addr)
        elif op in ("write", "shared_write", "write_global"):
            yield from getattr(proc, op)(e.addr, e.value)
        elif op == "reset_update":
            yield from proc.reset_update(e.addr)
        elif op == "flush":
            yield from proc.flush()
        else:
            raise ValueError(f"trace contains unreplayable op {op!r}")


class TraceReplayWorkload(ClosedLoopService):
    """Trace replay as a closed-loop service configuration.

    The demand is the trace itself (each traced node is one logical
    client draining its recorded request list); placement is fixed by the
    recording; the service body is the per-entry dispatch in
    ``_node_driver``.  Spawn order follows the trace's node-first-
    appearance order, exactly as the standalone ``replay()`` always did.
    """

    name = "replay"
    default_max_cycles = 100_000_000

    def __init__(self, machine: "Machine", trace: Iterable[TraceEntry], consistency: str = "sc"):
        super().__init__(machine, consistency=consistency)
        self._per_node: dict[int, List[TraceEntry]] = {}
        n_entries = 0
        for e in trace:
            if e.op not in _REPLAYABLE:
                raise ValueError(f"unreplayable op {e.op!r} in trace")
            self._per_node.setdefault(e.node, []).append(e)
            n_entries += 1
        self.builder.count(n_entries)

    def _spawn_all(self) -> None:
        m = self.machine
        downgrade = m.protocol != "primitives"
        for node_id, entries in self._per_node.items():
            proc = m.processor(node_id, consistency=self.consistency)
            m.spawn(_node_driver(proc, entries, downgrade), name=f"replay-{node_id}")


def replay(
    machine: "Machine",
    trace: Iterable[TraceEntry],
    consistency: str = "sc",
    max_cycles: Optional[float] = 100_000_000,
) -> float:
    """Re-execute ``trace`` on ``machine``; returns completion time."""
    TraceReplayWorkload(machine, trace, consistency=consistency).run(max_cycles)
    return machine.sim.now


def save_trace(trace: Iterable[TraceEntry], fp: IO[str]) -> None:
    """Write a trace as JSON lines."""
    for e in trace:
        fp.write(e.to_json() + "\n")


def load_trace(fp: IO[str]) -> List[TraceEntry]:
    """Read a JSON-lines trace."""
    return [TraceEntry.from_json(line) for line in fp if line.strip()]
