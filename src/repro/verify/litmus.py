"""Litmus-test engine: protocol × consistency-model conformance.

Small concurrent programs (message passing, store buffering, IRIW,
lock-protected increment, READ-UPDATE staleness) are declared as *data* —
tuples of :class:`Op` per thread — and executed on a real
:class:`~repro.system.machine.Machine` for every protocol × model
combination.  The observed outcome (final register and memory values) is
checked against a per-model **allowed-outcome oracle**:

* Sequential consistency forbids all relaxed reorderings, on every
  machine.
* The buffered models (BC, WO, RC) additionally permit each test's
  ``relaxed_outcomes`` — but only on a machine with a write buffer (the
  primitives machine) and only for tests that are **not** properly
  synchronized.  A test marked ``synchronized=True`` separates its racy
  accesses with CP-Synch release/acquire (or barrier) pairs, so the
  paper's correctness claim — buffered consistency is SC for properly
  synchronized programs — requires the SC outcome set even under BC.

Because one simulation run is deterministic, conformance is established
by *sweeping*: each test runs across many seeds and latency-jitter
configurations (see :meth:`~repro.sim.core.Simulator.set_jitter`), the
set of observed outcomes is collected, and the engine asserts
``observed ⊆ allowed``.

A test runs through :mod:`repro.verify.harness`, the machinery the
schedule fuzzer in :mod:`repro.verify.fuzz` drives with randomized
programs: :func:`lower_test` declares its words, locks and barriers in
first use, and the harness walks every finished machine with
:func:`~repro.verify.checkers.check_all`.  A run that fails the walk
raises instead of yielding an outcome, so no gate row can read ``ok``
over an incoherent machine.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from ..consistency.models import ConsistencyModel
from ..faults.plan import FaultSpec
from ..system.machine import Machine
from . import harness
from .checkers import InvariantViolation
from .harness import Lowered

__all__ = [
    "Op",
    "W",
    "R",
    "RU",
    "CR",
    "INC",
    "FLUSH",
    "ACQ",
    "REL",
    "BAR",
    "COMPUTE",
    "LitmusTest",
    "LitmusViolation",
    "outcome",
    "outcome_map",
    "PROTOCOLS",
    "MODELS",
    "LITMUS_TESTS",
    "tests_for",
    "allowed_outcomes",
    "lower_test",
    "run_litmus",
    "observe_outcomes",
    "check_litmus_conformance",
    "DEFAULT_SWEEP_JITTERS",
]

PROTOCOLS: Tuple[str, ...] = ("wbi", "primitives", "writeupdate")
MODELS: Tuple[str, ...] = ("sc", "bc", "wo", "rc")

#: An outcome is a canonical sorted tuple of (register, value) pairs.
Outcome = Tuple[Tuple[str, int], ...]


class LitmusViolation(AssertionError):
    """An observed outcome is outside the model's allowed set."""


@dataclass(frozen=True)
class Op:
    """One operation of a litmus thread.

    ``kind`` is one of:

    * ``"w"`` — shared write of ``value`` to ``var``;
    * ``"r"`` — shared read of ``var`` into register ``reg``;
    * ``"ru"`` — READ-UPDATE subscribe-read (primitives machine only);
    * ``"cr"`` — plain cached READ (observes pushed updates, no coherence
      request);
    * ``"inc"`` — read ``var`` into ``reg`` then shared-write ``reg``+1
      back (the lock-protected increment body);
    * ``"flush"`` — FLUSH-BUFFER (vacuous on machines without a buffer);
    * ``"acquire"`` / ``"release"`` — CBL lock named ``var``;
    * ``"barrier"`` — barrier named ``var`` (all threads that name it);
    * ``"compute"`` — ``value`` cycles of local work;
    * ``"rmw"`` — atomic fetch-add of ``value`` to ``var``, recorded by an
      :class:`~repro.verify.history.RmwHistory` (fuzz ``rmw_inc``);
    * ``"private"`` — bump the thread's private counter, plain-write it to
      the private word ``var``, read it back and check it (fuzz
      ``private``).

    :mod:`repro.verify.harness` interprets them.
    """

    kind: str
    var: str = ""
    value: int = 0
    reg: str = ""


def W(var: str, value: int) -> Op:
    return Op("w", var=var, value=value)


def R(var: str, reg: str) -> Op:
    return Op("r", var=var, reg=reg)


def RU(var: str, reg: str) -> Op:
    return Op("ru", var=var, reg=reg)


def CR(var: str, reg: str) -> Op:
    return Op("cr", var=var, reg=reg)


def INC(var: str, reg: str) -> Op:
    return Op("inc", var=var, reg=reg)


def FLUSH() -> Op:
    return Op("flush")


def ACQ(lock: str) -> Op:
    return Op("acquire", var=lock)


def REL(lock: str) -> Op:
    return Op("release", var=lock)


def BAR(name: str) -> Op:
    return Op("barrier", var=name)


def COMPUTE(cycles: int) -> Op:
    return Op("compute", value=cycles)


def outcome(**regs: int) -> Outcome:
    """Canonical outcome literal: ``outcome(r0=1, r1=0)``."""
    return tuple(sorted(regs.items()))


def outcome_map(mapping: Dict[str, int]) -> Outcome:
    """Canonical outcome from a mapping — for final-value keys like
    ``"x!"`` that are not valid keyword names: ``outcome_map({"r0": 1,
    "x!": 2})``."""
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class LitmusTest:
    """A litmus program plus its allowed-outcome oracle."""

    name: str
    threads: Tuple[Tuple[Op, ...], ...]
    #: Outcomes a sequentially consistent execution may produce.
    sc_outcomes: frozenset
    #: Extra outcomes permitted under buffered models on a buffered machine
    #: — but only when the test is not properly synchronized.
    relaxed_outcomes: frozenset = frozenset()
    #: True when racy accesses are ordered by CP-Synch (release/barrier) /
    #: NP-Synch (acquire) pairs: relaxed outcomes stay forbidden.
    synchronized: bool = False
    #: Protocols the test can run on (RU/CR need the primitives machine).
    protocols: Tuple[str, ...] = PROTOCOLS
    #: Initial var values as (var, value) pairs (default 0).
    init: Tuple[Tuple[str, int], ...] = ()
    #: Vars whose final main-memory value joins the outcome as ``var!``.
    finals: Tuple[str, ...] = ()
    description: str = ""


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def lower_test(test: LitmusTest) -> Lowered:
    """``test`` in harness form.  Words, locks and barriers are declared
    in first-use order across the threads, each shared word with its
    ``init`` value; the machine has 4 nodes, doubled until every thread
    has its own."""
    n_nodes = 4
    while n_nodes < len(test.threads):
        n_nodes *= 2
    init = dict(test.init)
    decls: Dict[Tuple[str, str], tuple] = {}
    for op in itertools.chain(*test.threads):
        if op.kind in ("w", "r", "ru", "cr", "inc"):
            decl = ("shared", op.var, init.get(op.var, 0))
        elif op.kind in ("acquire", "release"):
            decl = ("lock", op.var, None)
        elif op.kind == "barrier":
            decl = ("barrier", op.var, sum(op in ops for ops in test.threads))
        else:
            continue
        decls.setdefault(decl[:2], decl)
    return Lowered(
        test.threads, tuple(decls.values()), n_nodes,
        spawn_names=tuple(f"litmus.{test.name}.t{i}" for i in range(len(test.threads))),
        jitter_stream="litmus.jitter", jitter_prob=0.25, max_cycles=1_000_000,
        finals=test.finals,
    )


def run_litmus(
    test: LitmusTest,
    protocol: str,
    model: Union[str, ConsistencyModel],
    seed: int = 0,
    jitter: float = 0.0,
    faults: Optional[FaultSpec] = None,
    trace_path: Optional[str] = None,
    on_machine: Optional[Callable[[Machine], None]] = None,
) -> Outcome:
    """Execute ``test`` once; returns the canonical observed outcome.

    ``jitter`` > 0 installs a seeded latency-jitter hook with max factor
    ``1 + jitter``; the run stays fully deterministic for a fixed
    ``(seed, jitter)`` pair.  ``faults``, ``trace_path`` and
    ``on_machine`` are :func:`repro.verify.harness.run`'s.  A run that
    hangs, or fails the structural walk, raises — naming the test,
    protocol, model, seed and jitter — instead of yielding an outcome.
    """
    if protocol not in test.protocols:
        raise ValueError(f"litmus test {test.name!r} does not run on {protocol!r}")
    out = harness.run(
        lower_test(test), protocol, model, seed=seed, jitter=jitter,
        faults=faults, trace_path=trace_path, on_machine=on_machine,
    )
    if out.hang is not None or out.failures:
        where = (
            f"litmus {test.name!r} on {protocol}×{harness.resolve_model(model).name}, "
            f"seed {seed}, jitter {jitter}"
        )
        if out.hang is not None:
            raise RuntimeError(f"{where}: {out.hang}")
        raise InvariantViolation(f"{where}: {'; '.join(out.failures)}")
    regs = {op.reg: value for _, _, op, value in out.reads}
    for var in test.finals:
        regs[f"{var}!"] = out.finals[var]
    return tuple(sorted(regs.items()))


def allowed_outcomes(
    test: LitmusTest, protocol: str, model: Union[str, ConsistencyModel]
) -> frozenset:
    """The oracle: outcomes this protocol × model combination may produce.

    Relaxed outcomes require all three of: a machine with a write buffer
    (``primitives``), a model that does not stall shared writes, and a
    test with a *relaxable* shape — a racy write the buffer can actually
    delay past a later racy access to another location.  Relaxable is
    strictly stronger than unsynchronized: racy read-first shapes (LB),
    causality chains behind a blocking read (WRC, IRIW — writes here are
    multi-copy atomic), and single-location tests (CoRR, CoWW) stay
    SC-only even though they race.  The distinction is derived by the
    static analyzer and cross-validated against the axiomatic checker's
    enumeration by the :mod:`repro.axiom` differential gate.

    Whether the test is synchronized is *derived* by the static analyzer
    (:mod:`repro.static.drf`); the hand-maintained ``synchronized=`` flag
    is kept only as a cross-checked assertion — a disagreement raises
    :class:`repro.static.drf.LabelMismatch` rather than silently trusting
    either side.
    """
    from ..static.drf import check_labels  # lazy: drf imports this module

    if (
        protocol == "primitives"
        and not harness.resolve_model(model).stall_on_shared_write
        and check_labels(test).relaxable
    ):
        return test.sc_outcomes | test.relaxed_outcomes
    return frozenset(test.sc_outcomes)


#: (seed-count, jitter) pairs giving a useful default ordering sweep.
DEFAULT_SWEEP_JITTERS: Tuple[float, ...] = (0.0, 1.0, 5.0)


def observe_outcomes(
    test: LitmusTest,
    protocol: str,
    model: Union[str, ConsistencyModel],
    seeds: Iterable[int] = range(5),
    jitters: Iterable[float] = DEFAULT_SWEEP_JITTERS,
) -> frozenset:
    """Sweep seeds × jitters; returns the set of observed outcomes."""
    return frozenset(
        run_litmus(test, protocol, model, seed=s, jitter=j)
        for s, j in itertools.product(seeds, jitters)
    )


def check_litmus_conformance(
    test: LitmusTest,
    protocol: str,
    model: Union[str, ConsistencyModel],
    seeds: Iterable[int] = range(5),
    jitters: Iterable[float] = DEFAULT_SWEEP_JITTERS,
) -> frozenset:
    """Assert every observed outcome is allowed; returns the observed set."""
    observed = observe_outcomes(test, protocol, model, seeds=seeds, jitters=jitters)
    allowed = allowed_outcomes(test, protocol, model)
    illegal = observed - allowed
    if illegal:
        name = harness.resolve_model(model).name
        raise LitmusViolation(
            f"litmus {test.name!r} on {protocol}×{name}: illegal outcome(s) "
            f"{sorted(illegal)}; allowed {sorted(allowed)}"
        )
    return observed


# --------------------------------------------------------------------------
# The suite
# --------------------------------------------------------------------------

def _all_binary_outcomes(*regs: str) -> set:
    """Every outcome assigning 0 or 1 to each named register."""
    return {
        outcome(**dict(zip(regs, bits)))
        for bits in itertools.product((0, 1), repeat=len(regs))
    }


_IRIW_FORBIDDEN = outcome(r0=1, r1=0, r2=1, r3=0)

MP = LitmusTest(
    name="mp",
    description="Message passing, unsynchronized: may the flag overtake the data?",
    threads=(
        (W("x", 1), W("flag", 1)),
        # The compute stagger opens the window in which the flag's write has
        # landed while the data write is still in flight.
        (COMPUTE(8), R("flag", "r0"), R("x", "r1")),
    ),
    sc_outcomes=frozenset({outcome(r0=0, r1=0), outcome(r0=0, r1=1), outcome(r0=1, r1=1)}),
    relaxed_outcomes=frozenset({outcome(r0=1, r1=0)}),
)

MP_BARRIER = LitmusTest(
    name="mp+barrier",
    description="Message passing across a barrier (CP-Synch): no staleness allowed.",
    threads=(
        (W("x", 1), BAR("b")),
        (BAR("b"), R("x", "r0")),
    ),
    sc_outcomes=frozenset({outcome(r0=1)}),
    relaxed_outcomes=frozenset({outcome(r0=0)}),
    synchronized=True,
)

MP_LOCK = LitmusTest(
    name="mp+lock",
    description="Critical-section writes must be visible to the next lock holder.",
    threads=(
        (ACQ("L"), W("x", 1), W("t", 1), REL("L")),
        (COMPUTE(5), ACQ("L"), R("t", "r0"), R("x", "r1"), REL("L")),
    ),
    sc_outcomes=frozenset({outcome(r0=0, r1=0), outcome(r0=1, r1=1)}),
    relaxed_outcomes=frozenset({outcome(r0=1, r1=0)}),
    synchronized=True,
)

SB = LitmusTest(
    name="sb",
    description="Store buffering: both reads 0 requires write→read reordering.",
    threads=(
        (W("x", 1), R("y", "r0")),
        (W("y", 1), R("x", "r1")),
    ),
    sc_outcomes=frozenset({outcome(r0=0, r1=1), outcome(r0=1, r1=0), outcome(r0=1, r1=1)}),
    relaxed_outcomes=frozenset({outcome(r0=0, r1=0)}),
)

SB_FLUSH = LitmusTest(
    name="sb+flush",
    description="Store buffering with FLUSH-BUFFER fences: SC outcomes restored.",
    threads=(
        (W("x", 1), FLUSH(), R("y", "r0")),
        (W("y", 1), FLUSH(), R("x", "r1")),
    ),
    sc_outcomes=frozenset({outcome(r0=0, r1=1), outcome(r0=1, r1=0), outcome(r0=1, r1=1)}),
    relaxed_outcomes=frozenset({outcome(r0=0, r1=0)}),
    synchronized=True,
)

IRIW = LitmusTest(
    name="iriw",
    description="Independent reads of independent writes: write atomicity.",
    threads=(
        (W("x", 1),),
        (W("y", 1),),
        (R("x", "r0"), R("y", "r1")),
        (R("y", "r2"), R("x", "r3")),
    ),
    sc_outcomes=frozenset(
        _all_binary_outcomes("r0", "r1", "r2", "r3") - {_IRIW_FORBIDDEN}
    ),
    relaxed_outcomes=frozenset({_IRIW_FORBIDDEN}),
)

LB = LitmusTest(
    name="lb",
    description=(
        "Load buffering: both reads 1 needs read→write reordering — global "
        "reads block the processor, so the machine never produces it."
    ),
    threads=(
        (R("y", "r0"), W("x", 1)),
        (R("x", "r1"), W("y", 1)),
    ),
    sc_outcomes=frozenset({
        outcome(r0=0, r1=0), outcome(r0=0, r1=1), outcome(r0=1, r1=0),
    }),
    relaxed_outcomes=frozenset({outcome(r0=1, r1=1)}),
)

S_TEST = LitmusTest(
    name="s",
    description=(
        "S: the first write, buffered past the message write, may land "
        "after the other thread's write to the same word."
    ),
    threads=(
        (W("x", 2), W("y", 1)),
        # Stagger so the reader meets y=1 while x=2 is still in flight.
        (COMPUTE(8), R("y", "r0"), W("x", 1)),
    ),
    sc_outcomes=frozenset({
        outcome_map({"r0": 1, "x!": 1}),
        outcome_map({"r0": 0, "x!": 1}),
        outcome_map({"r0": 0, "x!": 2}),
    }),
    relaxed_outcomes=frozenset({outcome_map({"r0": 1, "x!": 2})}),
    finals=("x",),
)

R_TEST = LitmusTest(
    name="r",
    description=(
        "R: write-buffer delay lets the read miss the other thread's "
        "write even though that thread's second write lost the coherence "
        "race."
    ),
    threads=(
        (W("x", 1), W("y", 1)),
        (COMPUTE(8), W("y", 2), R("x", "r0")),
    ),
    sc_outcomes=frozenset({
        outcome_map({"r0": 1, "y!": 1}),
        outcome_map({"r0": 1, "y!": 2}),
        outcome_map({"r0": 0, "y!": 1}),
    }),
    relaxed_outcomes=frozenset({outcome_map({"r0": 0, "y!": 2})}),
    finals=("y",),
)

WRC = LitmusTest(
    name="wrc",
    description=(
        "Write-to-read causality: a read that observed a write passes it "
        "on — writes are multi-copy atomic (the global read blocked until "
        "the home had it), so the relaxed outcome is machine-impossible."
    ),
    threads=(
        (W("x", 1),),
        (COMPUTE(6), R("x", "r0"), W("y", 1)),
        (COMPUTE(12), R("y", "r1"), R("x", "r2")),
    ),
    sc_outcomes=frozenset(
        _all_binary_outcomes("r0", "r1", "r2") - {outcome(r0=1, r1=1, r2=0)}
    ),
    relaxed_outcomes=frozenset({outcome(r0=1, r1=1, r2=0)}),
)

ISA2 = LitmusTest(
    name="isa2",
    description=(
        "ISA2: the causality chain starts at a *delayed* write — unlike "
        "WRC the first thread's data write can still be buffered when the "
        "chain completes, so the relaxed outcome is admitted."
    ),
    threads=(
        (W("x", 1), W("y", 1)),
        (COMPUTE(6), R("y", "r0"), W("z", 1)),
        (COMPUTE(12), R("z", "r1"), R("x", "r2")),
    ),
    sc_outcomes=frozenset(
        _all_binary_outcomes("r0", "r1", "r2") - {outcome(r0=1, r1=1, r2=0)}
    ),
    relaxed_outcomes=frozenset({outcome(r0=1, r1=1, r2=0)}),
)

CORR = LitmusTest(
    name="corr",
    description=(
        "Coherent read-read: two reads of one location never observe its "
        "values out of coherence order."
    ),
    threads=(
        (W("x", 1),),
        (R("x", "r0"), R("x", "r1")),
    ),
    sc_outcomes=frozenset({
        outcome(r0=0, r1=0), outcome(r0=0, r1=1), outcome(r0=1, r1=1),
    }),
    relaxed_outcomes=frozenset({outcome(r0=1, r1=0)}),
)

COWW = LitmusTest(
    name="coww",
    description=(
        "Coherent write-write: same-word writes of one thread perform in "
        "program order (the per-word buffer chain), so the first value "
        "can never be the final one."
    ),
    threads=(
        (W("x", 1), W("x", 2)),
        (COMPUTE(6), W("x", 3)),
    ),
    sc_outcomes=frozenset({outcome_map({"x!": 2}), outcome_map({"x!": 3})}),
    relaxed_outcomes=frozenset({outcome_map({"x!": 1})}),
    finals=("x",),
)

TWO_PLUS_2W = LitmusTest(
    name="2+2w",
    description=(
        "2+2W: two threads write both locations in opposite orders; with "
        "both first writes buffered past the second ones, each location's "
        "coherence order can end on the *first* writes — a combination no "
        "SC interleaving produces."
    ),
    threads=(
        (W("x", 1), W("y", 1)),
        # Stagger so both buffers hold their first write concurrently.
        (COMPUTE(8), W("y", 2), W("x", 2)),
    ),
    sc_outcomes=frozenset({
        outcome_map({"x!": 2, "y!": 2}),
        outcome_map({"x!": 2, "y!": 1}),
        outcome_map({"x!": 1, "y!": 1}),
    }),
    relaxed_outcomes=frozenset({outcome_map({"x!": 1, "y!": 2})}),
    finals=("x", "y"),
)

CORW2 = LitmusTest(
    name="corw2",
    description=(
        "CoRW2: a read followed by a same-word write cannot observe the "
        "other thread's write once its own write wins the coherence race "
        "— per-location coherence holds even with every write buffered."
    ),
    threads=(
        (R("x", "r0"), W("x", 1)),
        (COMPUTE(6), W("x", 2)),
    ),
    sc_outcomes=frozenset({
        outcome_map({"r0": 0, "x!": 1}),
        outcome_map({"r0": 0, "x!": 2}),
        outcome_map({"r0": 2, "x!": 1}),
    }),
    relaxed_outcomes=frozenset({outcome_map({"r0": 2, "x!": 2})}),
    finals=("x",),
)

LOCK_INC = LitmusTest(
    name="lock-inc",
    description="Lock-protected increment: no lost updates, final count exact.",
    threads=(
        (ACQ("L"), INC("c", "r0"), REL("L")),
        (ACQ("L"), INC("c", "r1"), REL("L")),
    ),
    sc_outcomes=frozenset({
        outcome_map({"r0": 0, "r1": 1, "c!": 2}), outcome_map({"r0": 1, "r1": 0, "c!": 2}),
    }),
    relaxed_outcomes=frozenset({outcome_map({"r0": 0, "r1": 0, "c!": 1})}),
    synchronized=True,
    finals=("c",),
)

RU_STALE = LitmusTest(
    name="ru-stale",
    description=(
        "READ-UPDATE subscriber staleness: after the writer's flush (strict "
        "global ack) and a barrier, the subscriber's cached copy is fresh."
    ),
    threads=(
        (BAR("b"), W("x", 1), FLUSH(), BAR("b2")),
        (RU("x", "r0"), BAR("b"), BAR("b2"), CR("x", "r1")),
    ),
    sc_outcomes=frozenset({outcome(r0=0, r1=1)}),
    relaxed_outcomes=frozenset({outcome(r0=0, r1=0)}),
    synchronized=True,
    protocols=("primitives",),
)

LITMUS_TESTS: Tuple[LitmusTest, ...] = (
    MP,
    MP_BARRIER,
    MP_LOCK,
    SB,
    SB_FLUSH,
    LB,
    S_TEST,
    R_TEST,
    WRC,
    ISA2,
    IRIW,
    CORR,
    COWW,
    TWO_PLUS_2W,
    CORW2,
    LOCK_INC,
    RU_STALE,
)


def tests_for(protocol: str) -> Tuple[LitmusTest, ...]:
    """The subset of the suite that runs on ``protocol``."""
    return tuple(t for t in LITMUS_TESTS if protocol in t.protocols)
