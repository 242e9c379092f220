"""One program harness for the litmus and fuzz corpora (DESIGN.md §12).

A corpus lowers its program to a :class:`Lowered`
(:func:`repro.verify.litmus.lower_test`,
:func:`repro.verify.fuzz.lower_program`); :func:`run` sets up one machine,
interprets the ops and walks the finished machine with
:func:`~repro.verify.checkers.check_all`.  The value oracles stay with
each corpus and read the returned :class:`Run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..consistency.faults import get_fault_model
from ..consistency.models import ConsistencyModel, get_model
from ..faults.plan import FaultSpec
from ..obs import ObsParams
from ..sim.rng import block_reader
from ..sim.watchdog import HangError
from ..sync.base import CBLLock, HWBarrier
from ..system.config import MachineConfig
from ..system.machine import Machine
from .checkers import InvariantViolation, check_all
from .history import RmwEvent, RmwHistory

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from ..faults.diagnosis import HangDiagnosis
    from .litmus import Op

__all__ = ["Lowered", "Run", "run", "final_value", "make_jitter", "resolve_model"]


@dataclass(frozen=True)
class Lowered:
    """A corpus program in harness form, with its corpus's run constants.

    ``decls`` are allocated in order — ``("shared", var, init)`` (``init``
    poked unless ``None``), ``("private", var, None)``, ``("lock", name,
    None)``, ``("barrier", name, participants)`` — and the threads spawned
    in order; together they fix every event stream.  ``finals`` are the
    shared words whose coherent final value the oracles read.
    """

    threads: Tuple[Tuple["Op", ...], ...]
    decls: Tuple[Tuple[str, str, Optional[int]], ...]
    n_nodes: int
    spawn_names: Tuple[str, ...]
    jitter_stream: str
    jitter_prob: float
    max_cycles: float
    finals: Tuple[str, ...] = ()


@dataclass
class Run:
    """What one run leaves for the corpus oracles."""

    #: ``(thread, barriers crossed, op, value)`` per read, in execution order.
    reads: List[Tuple[int, int, "Op", int]] = field(default_factory=list)
    #: Private self-check failures, then the structural walk's.
    failures: List[str] = field(default_factory=list)
    #: Why the run did not finish; nothing is checked then.
    hang: Optional[str] = None
    finals: Dict[str, int] = field(default_factory=dict)
    rmw: List[RmwEvent] = field(default_factory=list)


def make_jitter(rng: "np.random.Generator", max_factor: float, prob: float = 0.25):
    """A deterministic latency-jitter hook for schedule fuzzing.

    With probability ``prob``, a positive delay is scaled by an
    independent uniform draw from ``[1, max_factor]``; otherwise it is
    left alone.  Perturbing a random *subset* of delays (rather than
    stretching every one) shifts the relative order of in-flight events —
    a uniformly slowed system keeps its racy windows aligned, which hides
    reorderings.  Zero-delay (same-instant) sequencing is never touched.
    The doubles come from a :func:`~repro.sim.rng.block_reader` over
    ``rng`` (a fuzz machine uses about half of one 256-double block), so
    nothing else may draw from ``rng``: the hook reads it ahead.
    """
    if max_factor < 1.0:
        raise ValueError("max_factor must be >= 1.0")
    if not 0.0 < prob <= 1.0:
        raise ValueError("prob must be in (0, 1]")
    span = max_factor - 1.0
    # Read in stream order, one double for the coin and one for the
    # factor, the block reader's doubles are the ones ``rng.random()``
    # then ``rng.uniform(1, max_factor)`` would consume; ``uniform``
    # returns ``low + (high - low) * u`` of its double.  So every delay is
    # bit-identical to the two scalar calls, at a fraction of their cost.
    draw = block_reader(rng)

    def jitter(delay: float) -> float:
        if draw() < prob:
            return delay * (1.0 + span * draw())
        return delay

    return jitter


def resolve_model(model: Union[str, ConsistencyModel]) -> ConsistencyModel:
    """A model object from a model, a model name or a fault-model name."""
    if isinstance(model, ConsistencyModel):
        return model
    try:
        return get_model(model)
    except ValueError:
        return get_fault_model(model)


def final_value(machine: Machine, addr: int) -> int:
    """The coherent value of ``addr`` after a run.

    On a write-back machine (WBI) the latest value may live only in a
    dirty cache line; otherwise main memory is current.
    """
    block = machine.amap.block_of(addr)
    offset = machine.amap.offset_of(addr)
    for node in machine.nodes:
        line = node.cache.peek(block)
        if line is not None and line.valid and (line.dirty_mask >> offset) & 1:
            return line.read_word(offset)
    return machine.peek_memory(addr)


def _shared_word(machine: Machine, avoid: frozenset) -> int:
    """A fresh word on a block homed away from the thread nodes ``avoid``
    when possible: their local traffic never crosses the network, which
    would shield it from jitter and hide reorderings."""
    for _ in range(4 * machine.cfg.n_nodes):
        block = machine.alloc_block()
        if machine.amap.home_of(block) not in avoid:
            return machine.amap.word_addr(block, 0)
    return machine.alloc_word()


def _thread_body(proc, t: int, ops, words, locks, barriers, hist, out: Run):
    """Interpret thread ``t``'s ops (:class:`repro.verify.litmus.Op` lists
    the kinds).  A shared read is READ-GLOBAL on the primitives machine
    (plain READ maintains no coherence there), the coherent read elsewhere."""
    primitives = proc.machine.protocol == "primitives"
    shared_read = proc.read_global if primitives else proc.shared_read
    reads = {"r": shared_read, "inc": shared_read, "ru": proc.read_update, "cr": proc.read}
    phase = private_value = 0
    for op in ops:
        kind = op.kind
        if kind == "w":
            yield from proc.shared_write(words[op.var], op.value)
        elif kind in reads:
            addr = words[op.var]
            value = yield from reads[kind](addr)
            out.reads.append((t, phase, op, value))
            if kind == "inc":
                yield from proc.shared_write(addr, value + 1)
        elif kind == "compute":
            yield from proc.compute(op.value)
        elif kind == "acquire":
            yield from proc.acquire(locks[op.var])
        elif kind == "release":
            yield from proc.release(locks[op.var])
        elif kind == "barrier":
            yield from proc.barrier(barriers[op.var])
            phase += 1
        elif kind == "private":
            private_value += 1
            addr = words[op.var]
            yield from proc.write(addr, private_value)
            got = yield from proc.read(addr)
            if got != private_value:
                out.failures.append(
                    f"private self-check: thread {t} round {phase} wrote "
                    f"{private_value}, read back {got}"
                )
        elif kind == "rmw":
            yield from hist.rmw(words[op.var], "fetch_add", op.value)
        elif kind == "flush":
            if primitives:
                yield from proc.flush()
        else:  # pragma: no cover - literal typo guard
            raise ValueError(f"unknown op kind {op.kind!r}")


def run(
    low: Lowered,
    protocol: str,
    model: Union[str, ConsistencyModel],
    seed: int = 0,
    jitter: float = 0.0,
    faults: Optional[FaultSpec] = None,
    on_hang: Optional[Callable[["HangDiagnosis"], None]] = None,
    trace_path: Optional[str] = None,
    on_machine: Optional[Callable[[Machine], None]] = None,
) -> Run:
    """Set up, run and walk one machine for ``low``; deterministic for a
    fixed argument tuple.  ``jitter`` > 0 installs a latency-jitter hook
    with max factor ``1 + jitter``; ``faults`` installs a fault plan.  A
    watchdog hang (its diagnosis goes to ``on_hang``) or the deadlock
    guard sets :attr:`Run.hang`.  ``trace_path`` dumps the trace (JSONL)
    whatever the outcome; tracing does not perturb simulated time.
    ``on_machine`` receives the finished machine before the walk."""
    cfg = MachineConfig(
        n_nodes=low.n_nodes, cache_blocks=64, cache_assoc=2, seed=seed,
        obs=ObsParams() if trace_path is not None else None,
    )
    machine = Machine(cfg, protocol=protocol, faults=faults)
    try:
        if jitter > 0:
            machine.sim.set_jitter(make_jitter(
                machine.rng.stream(low.jitter_stream), 1.0 + jitter, prob=low.jitter_prob
            ))
        thread_nodes = frozenset(t % low.n_nodes for t in range(len(low.threads)))
        words: Dict[str, int] = {}
        locks: Dict[str, CBLLock] = {}
        barriers: Dict[str, HWBarrier] = {}
        for kind, name, arg in low.decls:
            if kind == "shared":
                words[name] = _shared_word(machine, thread_nodes)
                if arg is not None:
                    machine.poke(words[name], arg)
            elif kind == "private":
                words[name] = machine.alloc_word()
            elif kind == "lock":
                locks[name] = CBLLock(machine)
            else:
                barriers[name] = HWBarrier(machine, n=arg)
        mdl = resolve_model(model)
        out = Run()
        histories = []
        for t, ops in enumerate(low.threads):
            proc = machine.processor(t % low.n_nodes, consistency=mdl)
            histories.append(RmwHistory(proc))
            machine.spawn(
                _thread_body(proc, t, ops, words, locks, barriers, histories[t], out),
                name=low.spawn_names[t],
            )
        try:
            machine.run_all(max_cycles=low.max_cycles)
        except HangError as exc:
            diag = exc.diagnosis
            if diag is not None and on_hang is not None:
                on_hang(diag)
            blame = "; ".join(sorted(diag.blame)) if diag is not None else "no diagnosis"
            out.hang = f"hang diagnosed: {exc} [{blame}]"
            return out
        except RuntimeError as exc:
            out.hang = f"deadlock guard: {exc}"
            return out
        finally:
            if trace_path is not None:
                machine.dump_trace(trace_path)
            if on_machine is not None:
                on_machine(machine)
        try:
            check_all(machine)
        except InvariantViolation as exc:
            out.failures.append(f"structural invariant: {exc}")
        out.finals = {var: final_value(machine, words[var]) for var in low.finals}
        out.rmw = [e for h in histories for e in h.events]
        return out
    finally:
        # After on_machine and every final read: nothing reads the
        # machine again, so let refcounting free it.
        machine.close()
