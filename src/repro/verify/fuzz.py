"""Schedule-fuzzing differential harness.

Random *well-synchronized* concurrent programs are generated from seeded
:class:`~repro.sim.rng.RngStreams`, executed on a
:class:`~repro.system.machine.Machine` under a randomly drawn protocol ×
consistency-model combination with latency jitter perturbing event order
(:meth:`~repro.sim.core.Simulator.set_jitter`), and every run is checked
against oracles that must hold for correct combinations:

* the run terminates (deadlock guard);
* the structural invariants of :mod:`repro.verify.checkers` hold;
* the RMW history linearizes (:func:`check_rmw_linearizable`) and the
  fetch-add counter's final value is exact;
* lock-protected counters lose no updates;
* values read after a barrier, or of a thread's own private data, are
  never stale.

A failing program is **shrunk** — rounds, threads, and atoms are removed
greedily while the failure persists — and printed as a ready-to-paste
regression test.

Program shape
-------------
A :class:`Program` is a grid of *rounds* × *threads*; every thread runs
its atoms for round *r*, then all threads meet at a barrier before round
*r+1*.  Atoms are the well-synchronized building blocks (compute, private
read/write, publish/consume of per-thread slots, lock-protected
increment, atomic fetch-add), so any stale value or lost update signals
an ordering bug in the protocol or model — not a data race in the test
program.

Programs run through :mod:`repro.verify.harness`, which walks every
finished machine with :func:`~repro.verify.checkers.check_all` — on every
run of both corpora, litmus and fuzz.  On the ``writeupdate`` comparator
the cross-thread *value* checks (consume, lock counter) are still
skipped: its home ack covers only the memory update, so sharer pushes
can be in flight when synchronization completes, and runs with the
checks on lose lock-protected increments.  The exemption stays until
write-update acks its pushes before the write completes, or is removed;
the structural, private and RMW oracles apply on every protocol.

CLI
---
``python -m repro.verify.fuzz --seed N --iters K`` runs a bounded fuzz
budget cycling through all protocol × model combinations; ``--inject``
swaps in a deliberately broken model from
:mod:`repro.consistency.faults` to demonstrate detection + shrinking.

``--faults`` (off by default) additionally draws a seeded
:class:`~repro.faults.plan.FaultSpec` per iteration — drops, duplicates,
delay spikes, link outages — so every oracle must hold *after protocol
recovery*.  A hang caught by the watchdog is a first-class failing
outcome: the structured :class:`~repro.faults.diagnosis.HangDiagnosis` is
reported (``--dump-diagnosis`` writes it as JSON) and the fault schedule
is shrunk to a minimal reproducer alongside the program.
``--max-wall-seconds`` bounds the wall-clock budget.

Exit codes (pinned by tests): **0** = budget exhausted with no failure,
**1** = a failure was found (reproducer printed), **2** = bad usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..consistency.faults import FAULT_MODELS
from ..consistency.models import ConsistencyModel
from ..faults.diagnosis import HangDiagnosis
from ..faults.plan import FaultSpec
from ..sim.rng import RngStreams, ScalarReader, py_random
from ..static.drf import ROUND_BARRIER, consume_oracle
from ..system.machine import Machine
from . import harness
from .harness import Lowered
from .history import check_rmw_linearizable
from .litmus import ACQ, BAR, COMPUTE, INC, MODELS, PROTOCOLS, REL, Op, R, W

__all__ = [
    "Atom",
    "Program",
    "gen_program",
    "lower_program",
    "run_program",
    "shrink",
    "shrink_faults",
    "make_failure_oracle",
    "to_regression_source",
    "fuzz",
    "FuzzReport",
    "main",
]


# --------------------------------------------------------------------------
# Program representation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """One building block of a fuzzed thread.

    ``kind`` ∈ {``compute``, ``private``, ``publish``, ``consume``,
    ``lock_inc``, ``rmw_inc``}; ``arg`` is cycles / repetition count /
    publish sequence number / target thread / lock id respectively.
    """

    kind: str
    arg: int = 0


@dataclass(frozen=True)
class Program:
    """``rounds[r][t]`` = atoms thread ``t`` runs in round ``r``.

    All threads cross an implicit all-thread barrier between consecutive
    rounds, which is what makes generated programs well-synchronized.
    """

    n_threads: int
    rounds: Tuple[Tuple[Tuple[Atom, ...], ...], ...]

    def n_nodes(self) -> int:
        """The machine the program runs on: the smallest power of two
        ≥ 4 with a node to spare beyond the threads."""
        return max(4, 1 << self.n_threads.bit_length())

    def size(self) -> int:
        """Total atom count (the 'operations' unit reported by the shrinker)."""
        return sum(len(atoms) for rnd in self.rounds for atoms in rnd)

    def locks_used(self) -> Tuple[int, ...]:
        return tuple(
            sorted(
                {
                    a.arg
                    for rnd in self.rounds
                    for atoms in rnd
                    for a in atoms
                    if a.kind == "lock_inc"
                }
            )
        )

    def count(self, kind: str, arg: Optional[int] = None) -> int:
        return sum(
            1
            for rnd in self.rounds
            for atoms in rnd
            for a in atoms
            if a.kind == kind and (arg is None or a.arg == arg)
        )


_ATOM_WEIGHTS = (
    ("compute", 0.15),
    ("private", 0.15),
    ("publish", 0.2),
    ("consume", 0.2),
    ("lock_inc", 0.2),
    ("rmw_inc", 0.1),
)


def _kind_cdf(weights: Sequence[float]) -> List[float]:
    """The cdf that ``Generator.choice(len(weights), p=probs)`` searches.

    ``choice`` returns ``cdf.searchsorted(rng.random(), side="right")``
    with ``cdf = cumsum(p) / cumsum(p)[-1]`` over float64 ``p``.  Built
    once here, ``bisect_right(cdf, rng.random())`` (``side="right"``)
    picks the same index from the same double at a fraction of the cost.
    ``choice``'s checks on ``p`` stay, as the same ``ValueError``.
    """
    if any(w < 0 for w in weights):
        raise ValueError("atom weights must be non-negative")
    total = sum(weights)
    if not (math.isfinite(total) and total > 0):
        raise ValueError("atom weights must sum to a positive total")
    cdf = np.cumsum(np.array([w / total for w in weights], dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


@functools.lru_cache(maxsize=16)
def _cached_kind_cdf(weights: Tuple[float, ...]) -> Tuple[float, ...]:
    """:func:`_kind_cdf`, built once per weight tuple (a campaign uses one
    mix, or one per scenario bias)."""
    return tuple(_kind_cdf(weights))


@functools.cache
def _atom(kind: str, arg: int) -> Atom:
    """The one shared :class:`Atom` per ``(kind, arg)``: atoms are
    immutable, and a campaign draws the same few dozen over and over."""
    return Atom(kind, arg)


def gen_program(
    rng,
    n_threads: Optional[int] = None,
    n_rounds: Optional[int] = None,
    max_atoms_per_round: int = 3,
    n_locks: int = 2,
    atom_weights: Optional[Sequence[Tuple[str, float]]] = None,
) -> Program:
    """Draw a random well-synchronized program from ``rng``, a numpy
    ``Generator`` or a :class:`~repro.sim.rng.ScalarReader` over one (the
    same program either way; the reader is cheaper per draw).

    ``atom_weights`` overrides the default atom mix (same kinds, different
    weights) — scenario bias (``--scenario``) uses it to tilt generation
    toward one contention surface.
    """
    if n_threads is None:
        n_threads = int(rng.integers(2, 5))
    if n_rounds is None:
        n_rounds = int(rng.integers(1, 4))
    pairs = _ATOM_WEIGHTS if atom_weights is None else tuple(atom_weights)
    kinds = [k for k, _ in pairs]
    cdf = _cached_kind_cdf(tuple(w for _, w in pairs))
    random = rng.random
    pub_seq = [0] * n_threads
    rounds: List[Tuple[Tuple[Atom, ...], ...]] = []
    for _r in range(n_rounds):
        row: List[Tuple[Atom, ...]] = []
        for t in range(n_threads):
            atoms: List[Atom] = []
            for _ in range(int(rng.integers(1, max_atoms_per_round + 1))):
                kind = kinds[bisect_right(cdf, random())]
                if kind == "compute":
                    atoms.append(_atom("compute", int(rng.integers(1, 30))))
                elif kind == "private":
                    atoms.append(_atom("private", int(rng.integers(1, 4))))
                elif kind == "publish":
                    pub_seq[t] += 1
                    atoms.append(_atom("publish", pub_seq[t]))
                elif kind == "consume":
                    if n_threads < 2:
                        continue
                    target = int(rng.integers(0, n_threads - 1))
                    if target >= t:
                        target += 1
                    atoms.append(_atom("consume", target))
                elif kind == "lock_inc":
                    atoms.append(_atom("lock_inc", int(rng.integers(0, n_locks))))
                else:
                    atoms.append(_atom("rmw_inc", 0))
            row.append(tuple(atoms))
        rounds.append(tuple(row))
    return Program(n_threads=n_threads, rounds=tuple(rounds))


# --------------------------------------------------------------------------
# Execution + oracles
# --------------------------------------------------------------------------

_ROUND_BAR = BAR(ROUND_BARRIER)


@functools.cache
def _atom_ops(kind: str, arg: int, t: int) -> Tuple[Op, ...]:
    """Thread ``t``'s ops for one atom, built once per atom."""
    if kind == "compute":
        return (COMPUTE(arg),)
    if kind == "private":
        return (Op("private", f"private:{t}"),) * arg
    if kind == "publish":
        return (W(f"slot:{t}", arg),)
    if kind == "consume":
        return (R(f"slot:{arg}", ""),)
    if kind == "lock_inc":
        return (ACQ(f"lock:{arg}"), INC(f"lockctr:{arg}", ""), REL(f"lock:{arg}"))
    if kind == "rmw_inc":
        return (Op("rmw", "rmw", 1),)
    raise ValueError(f"unknown atom kind {kind!r}")


def lower_program(program: Program, jitter_prob: float = 0.25) -> Lowered:
    """``program`` in harness form: a thread's atoms round by round, a
    round-barrier crossing between rounds.  Words are allocated slots
    first, then privates, the RMW counter, locks, lock counters and the
    barrier; the machine is ``program.n_nodes()``."""
    n, last = program.n_threads, len(program.rounds) - 1
    threads = []
    for t in range(n):
        ops: List[Op] = []
        for ri, rnd in enumerate(program.rounds):
            for atom in rnd[t]:
                ops += _atom_ops(atom.kind, atom.arg, t)
            if ri < last:
                ops.append(_ROUND_BAR)
        threads.append(tuple(ops))
    locks = program.locks_used()
    decls = (
        [("shared", f"slot:{t}", None) for t in range(n)]
        + [("private", f"private:{t}", None) for t in range(n)]
        + [("shared", "rmw", None)]
        + [("lock", f"lock:{lid}", None) for lid in locks]
        + [("shared", f"lockctr:{lid}", None) for lid in locks]
        + [("barrier", ROUND_BARRIER, n)] * (last > 0)
    )
    return Lowered(
        tuple(threads), tuple(decls), program.n_nodes(),
        spawn_names=tuple(f"fuzz.t{t}" for t in range(n)),
        jitter_stream="fuzz.jitter", jitter_prob=jitter_prob, max_cycles=5_000_000,
        finals=tuple(f"lockctr:{lid}" for lid in locks) + ("rmw",),
    )


def run_program(
    program: Program,
    protocol: str = "primitives",
    model: Union[str, ConsistencyModel] = "bc",
    seed: int = 0,
    jitter: float = 0.0,
    jitter_prob: float = 0.25,
    faults: Optional[FaultSpec] = None,
    on_hang: Optional[Callable[[HangDiagnosis], None]] = None,
    trace_path: Optional[str] = None,
    on_machine: Optional[Callable[["Machine"], None]] = None,
) -> Optional[str]:
    """Execute ``program`` once through :func:`repro.verify.harness.run`
    (which see for the keywords) and run every oracle; returns ``None`` on
    success or a human-readable failure description.

    Consume values are checked against the sets of one
    :func:`~repro.static.drf.consume_oracle` lowering, derived once per
    ``(round, target)`` site; its axiomatic twins in
    ``tests/axiom/referees.py`` are test-time referees.
    """
    out = harness.run(
        lower_program(program, jitter_prob), protocol, model,
        seed=seed, jitter=jitter, faults=faults, on_hang=on_hang,
        trace_path=trace_path, on_machine=on_machine,
    )
    if out.hang is not None:
        return out.hang
    failures = out.failures
    # Cross-thread value oracles; see module docstring for the writeupdate
    # exemption.
    if protocol != "writeupdate":
        consumes = [read for read in out.reads if read[2].kind == "r"]
        oracle = consume_oracle(program) if consumes else None
        allowed_at: Dict[Tuple[int, int], set] = {}
        for reader, ri, op, value in consumes:
            target = int(op.var[5:])  # "slot:<thread>"
            allowed = allowed_at.get((ri, target))
            if allowed is None:
                allowed = allowed_at[ri, target] = oracle(ri, target)
            if value not in allowed:
                failures.append(
                    f"stale consume: thread {reader} round {ri} read slot of "
                    f"thread {target} = {value}, allowed {sorted(allowed)}"
                )
        for lid in program.locks_used():
            want, got = program.count("lock_inc", lid), out.finals[f"lockctr:{lid}"]
            if got != want:
                failures.append(
                    f"lost update: lock {lid} counter is {got}, expected {want} increments"
                )
    if out.rmw:
        try:
            check_rmw_linearizable(out.rmw)
        except AssertionError as exc:
            failures.append(f"rmw linearizability: {exc}")
        want, got = program.count("rmw_inc"), out.finals["rmw"]
        if got != want:
            failures.append(f"rmw counter is {got}, expected {want}")
    return "; ".join(failures) if failures else None


# --------------------------------------------------------------------------
# Shrinking
# --------------------------------------------------------------------------

def _normalize(program: Program) -> Optional[Program]:
    """Drop empty rounds/threads; None if nothing is left."""
    rounds = tuple(rnd for rnd in program.rounds if any(rnd))
    if not rounds or program.n_threads == 0:
        return None
    return replace(program, rounds=rounds)


def _without_thread(program: Program, t: int) -> Optional[Program]:
    if program.n_threads <= 1:
        return None

    def fix(atoms: Tuple[Atom, ...]) -> Tuple[Atom, ...]:
        out = []
        for a in atoms:
            if a.kind == "consume":
                if a.arg == t:
                    continue
                if a.arg > t:
                    a = replace(a, arg=a.arg - 1)
            out.append(a)
        return tuple(out)

    rounds = tuple(
        tuple(fix(atoms) for i, atoms in enumerate(rnd) if i != t)
        for rnd in program.rounds
    )
    return _normalize(Program(n_threads=program.n_threads - 1, rounds=rounds))


def _without_round(program: Program, r: int) -> Optional[Program]:
    if len(program.rounds) <= 1:
        return None
    rounds = tuple(rnd for i, rnd in enumerate(program.rounds) if i != r)
    return _normalize(replace(program, rounds=rounds))


def _without_atom(program: Program, r: int, t: int, i: int) -> Optional[Program]:
    rnd = program.rounds[r]
    atoms = rnd[t][:i] + rnd[t][i + 1 :]
    rounds = (
        program.rounds[:r]
        + (rnd[:t] + (atoms,) + rnd[t + 1 :],)
        + program.rounds[r + 1 :]
    )
    return _normalize(replace(program, rounds=rounds))


def _reductions(program: Program):
    """Candidate one-step reductions, most aggressive first."""
    for t in range(program.n_threads):
        cand = _without_thread(program, t)
        if cand is not None:
            yield cand
    for r in range(len(program.rounds)):
        cand = _without_round(program, r)
        if cand is not None:
            yield cand
    for r, rnd in enumerate(program.rounds):
        for t, atoms in enumerate(rnd):
            for i in range(len(atoms)):
                cand = _without_atom(program, r, t, i)
                if cand is not None:
                    yield cand


def shrink(
    program: Program,
    fails: Callable[[Program], Optional[str]],
    max_attempts: int = 2000,
) -> Program:
    """Greedily minimize ``program`` while ``fails`` still reports a failure.

    ``fails`` must be deterministic; the result is a local minimum (no
    single thread/round/atom can be removed without losing the failure).
    """
    if fails(program) is None:
        raise ValueError("shrink() requires a failing program")
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cand in _reductions(program):
            attempts += 1
            if attempts >= max_attempts:
                break
            if fails(cand) is not None:
                program = cand
                improved = True
                break
    return program


def _fault_reductions(spec: FaultSpec):
    """Candidate one-step fault-schedule reductions."""
    for name in ("drop_prob", "dup_prob", "spike_prob", "reorder_prob"):
        if getattr(spec, name):
            yield replace(spec, **{name: 0.0})
    for i in range(len(spec.link_down)):
        yield replace(spec, link_down=spec.link_down[:i] + spec.link_down[i + 1 :])
    for i in range(len(spec.node_down)):
        yield replace(spec, node_down=spec.node_down[:i] + spec.node_down[i + 1 :])
    for i in range(len(spec.targeted)):
        yield replace(spec, targeted=spec.targeted[:i] + spec.targeted[i + 1 :])


def shrink_faults(
    spec: FaultSpec,
    fails: Callable[[FaultSpec], Optional[str]],
) -> FaultSpec:
    """Greedily minimize a fault schedule while ``fails`` still fails.

    Zeroes whole fault classes (drop, duplicate, spike, reorder) and strips
    outage windows and targeted drop entries one at a time; the result is a
    local minimum — no single fault class, window, or targeted entry can be
    removed without losing the failure.
    """
    if fails(spec) is None:
        raise ValueError("shrink_faults() requires a failing fault spec")
    improved = True
    while improved:
        improved = False
        for cand in _fault_reductions(spec):
            if fails(cand) is not None:
                spec = cand
                improved = True
                break
    return spec


def make_failure_oracle(
    protocol: str,
    model: Union[str, ConsistencyModel],
    seeds: Sequence[int],
    jitter: float,
    jitter_prob: float = 0.25,
    faults: Optional[FaultSpec] = None,
) -> Callable[[Program], Optional[str]]:
    """A deterministic ``fails(program)`` probing several machine seeds."""

    def fails(program: Program) -> Optional[str]:
        for seed in seeds:
            failure = run_program(
                program,
                protocol=protocol,
                model=model,
                seed=seed,
                jitter=jitter,
                jitter_prob=jitter_prob,
                faults=faults,
            )
            if failure is not None:
                return f"seed {seed}: {failure}"
        return None

    return fails


def _program_literal(program: Program, indent: str = "        ") -> str:
    lines = ["Program(", f"{indent}n_threads={program.n_threads},", f"{indent}rounds=("]
    for rnd in program.rounds:
        lines.append(f"{indent}    (")
        for atoms in rnd:
            atom_src = ", ".join(f"Atom({a.kind!r}, {a.arg})" for a in atoms)
            lines.append(f"{indent}        ({atom_src}{',' if len(atoms) == 1 else ''}),")
        lines.append(f"{indent}    ),")
    lines.append(f"{indent}),")
    lines.append(f"{indent[:-4]})")
    return "\n".join(lines)


def to_regression_source(
    program: Program,
    protocol: str,
    model: Union[str, ConsistencyModel],
    seeds: Sequence[int],
    jitter: float,
    jitter_prob: float = 0.25,
    faults: Optional[FaultSpec] = None,
) -> str:
    """Ready-to-paste pytest source reproducing the failure."""
    model_name = model if isinstance(model, str) else model.name
    seed_list = ", ".join(str(s) for s in seeds)
    fault_import = ""
    fault_kwarg = ""
    if faults is not None:
        fault_import = "    from repro.faults.plan import FaultSpec\n"
        fault_kwarg = f"            faults={faults!r},\n"
    return f'''\
def test_fuzz_regression():
    """Shrunk by repro.verify.fuzz: {program.size()} operation(s), {program.n_threads} thread(s)."""
    from repro.verify.fuzz import Atom, Program, run_program
{fault_import}
    program = {_program_literal(program)}
    for seed in ({seed_list},):
        failure = run_program(
            program,
            protocol={protocol!r},
            model={model_name!r},
            seed=seed,
            jitter={jitter!r},
            jitter_prob={jitter_prob!r},
{fault_kwarg}        )
        assert failure is None, failure
'''


# --------------------------------------------------------------------------
# The fuzz loop
# --------------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome of a bounded fuzz budget."""

    iterations: int = 0
    runs_by_combo: Optional[Dict[Tuple[str, str], int]] = None
    failure: Optional[str] = None
    failing_program: Optional[Program] = None
    shrunk_program: Optional[Program] = None
    protocol: str = ""
    model: str = ""
    seed: int = 0
    jitter: float = 0.0
    reproducer: str = ""
    #: Fault-campaign extras (``--faults``): the drawn spec, its shrunk
    #: minimal form, the structured hang diagnosis (if the failure was a
    #: watchdog trip), and whether the wall-clock guard cut the budget.
    fault_spec: Optional[FaultSpec] = None
    shrunk_faults: Optional[FaultSpec] = None
    diagnosis: Optional[HangDiagnosis] = None
    stopped_by_wall_clock: bool = False
    #: Scenario bias in force (``--scenario``), or ``""``.
    scenario: str = ""

    @property
    def ok(self) -> bool:
        return self.failure is None


def fuzz(
    master_seed: int = 0,
    iters: int = 100,
    protocols: Sequence[str] = PROTOCOLS,
    models: Sequence[str] = MODELS,
    max_jitter: float = 8.0,
    inject: Optional[str] = None,
    do_shrink: bool = True,
    max_threads: int = 4,
    max_rounds: int = 3,
    faults: bool = False,
    max_wall_seconds: Optional[float] = None,
    verbose: bool = False,
    log: Callable[[str], None] = lambda s: None,
    scenario: Optional[str] = None,
) -> FuzzReport:
    """Run a bounded fuzz budget; stops at the first (shrunk) failure.

    Iterations cycle deterministically through every protocol × model
    combination so even small budgets cover the whole matrix.  ``inject``
    names a fault model from :data:`repro.consistency.faults.FAULT_MODELS`
    to substitute for the drawn model (used to validate the harness).

    ``faults=True`` draws a seeded fault schedule per iteration; on
    failure, the schedule is shrunk before the program is (each is
    minimized with the other held fixed).  ``max_wall_seconds`` stops the
    loop — reported via ``stopped_by_wall_clock`` — once the wall-clock
    budget is spent; runs already started are finished, never aborted.

    ``scenario`` names a registered adversarial scenario
    (:mod:`repro.scenarios`); the campaign is then biased at its attack
    surface — protocol pinned, atom mix tilted, and the scenario's
    targeted drop entries grafted onto every iteration's fault schedule
    (a schedule is installed even without ``faults=True`` when the
    scenario declares targeted drops).
    """
    t0 = time.monotonic()  # lint-ok: wall-clock (the --max-wall-seconds budget)
    bias = None
    if scenario is not None:
        from ..scenarios.fuzzbias import bias_for

        bias = bias_for(scenario)
        protocols = bias.protocols
    streams = RngStreams(master_seed)
    combos = [(p, m) for p in protocols for m in models]
    report = FuzzReport(runs_by_combo={c: 0 for c in combos}, scenario=scenario or "")
    for i in range(iters):
        # lint-ok: wall-clock (budget check; never feeds simulated state)
        if max_wall_seconds is not None and time.monotonic() - t0 > max_wall_seconds:
            report.stopped_by_wall_clock = True
            log(f"wall-clock budget ({max_wall_seconds}s) spent after {i} iteration(s)")
            break
        protocol, model = combos[i % len(combos)]
        model_used: Union[str, ConsistencyModel] = inject if inject else model
        # Derived, not cached: the campaign would otherwise keep one
        # generator per iteration alive until it returns.  Every draw
        # below goes through the reader, which owns the generator.
        rng = ScalarReader(streams.derive(f"iter{i}"))
        program = gen_program(
            rng,
            n_threads=int(rng.integers(2, max_threads + 1)),
            n_rounds=int(rng.integers(1, max_rounds + 1)),
            atom_weights=bias.atom_weights if bias is not None else None,
        )
        seed = int(rng.integers(0, 2**31 - 1))
        jitter = float(rng.uniform(0.0, max_jitter))
        fspec: Optional[FaultSpec] = None
        if faults:
            frng = py_random(int(rng.integers(0, 2**31 - 1)))
            fspec = FaultSpec.draw(
                frng, seed=int(rng.integers(0, 2**31 - 1)), n_nodes=program.n_nodes()
            )
        if bias is not None and bias.targeted:
            # Graft the scenario's targeted drops onto the schedule; with
            # --faults off this alone is the schedule (recovery machinery
            # and watchdog then run exactly as in the scenario).
            if fspec is None:
                fspec = FaultSpec(seed=seed, targeted=bias.targeted)
            else:
                fspec = replace(fspec, targeted=bias.targeted)
        report.iterations = i + 1
        report.runs_by_combo[(protocol, model)] += 1
        if verbose:
            log(
                f"[{i:4d}] {protocol}×{model_used if isinstance(model_used, str) else model_used.name}"
                f" threads={program.n_threads} atoms={program.size()}"
                f" seed={seed} jitter={jitter:.2f}"
                + (f" {fspec.describe()}" if fspec is not None else "")
            )

        def note_hang(diag: HangDiagnosis) -> None:
            report.diagnosis = diag

        failure = run_program(
            program, protocol=protocol, model=model_used, seed=seed, jitter=jitter,
            faults=fspec, on_hang=note_hang,
        )
        if failure is None:
            continue
        report.failure = failure
        report.failing_program = program
        report.protocol = protocol
        report.model = model_used if isinstance(model_used, str) else model_used.name
        report.seed = seed
        report.jitter = jitter
        report.fault_spec = fspec
        log(f"iteration {i}: FAILURE under {protocol}×{report.model}: {failure}")
        if do_shrink:
            shrunk_spec = fspec
            if fspec is not None:
                log(f"shrinking fault schedule from {fspec.describe()} ...")
                shrunk_spec = shrink_faults(
                    fspec,
                    lambda s: run_program(
                        program, protocol=protocol, model=model_used,
                        seed=seed, jitter=jitter, faults=s,
                    ),
                )
                report.shrunk_faults = shrunk_spec
                log(f"fault schedule shrunk to {shrunk_spec.describe()}")
            # Under faults a single (deterministic) seed pins the schedule;
            # extra seeds would shrink against a different fault pattern.
            oracle_seeds = (
                [seed] if fspec is not None
                else [seed] + [seed + k + 1 for k in range(4)]
            )
            failure_oracle = make_failure_oracle(
                protocol, model_used, oracle_seeds, jitter, faults=shrunk_spec
            )
            log(f"shrinking from {program.size()} operation(s) ...")
            shrunk = shrink(program, failure_oracle)
            report.shrunk_program = shrunk
            report.reproducer = to_regression_source(
                shrunk, protocol, model_used, oracle_seeds, jitter, faults=shrunk_spec
            )
            log(
                f"shrunk to {shrunk.size()} operation(s) / "
                f"{shrunk.n_threads} thread(s); reproducer:\n\n{report.reproducer}"
            )
        return report
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="Schedule-fuzz the simulator across protocol × model combinations.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master fuzz seed")
    parser.add_argument("--iters", type=int, default=100, help="iteration budget")
    parser.add_argument(
        "--protocol",
        choices=("all",) + PROTOCOLS,
        default="all",
        help="restrict to one protocol",
    )
    parser.add_argument(
        "--model",
        choices=("all",) + MODELS,
        default="all",
        help="restrict to one consistency model",
    )
    parser.add_argument(
        "--max-jitter",
        type=float,
        default=8.0,
        help="max latency-jitter factor drawn per iteration",
    )
    parser.add_argument(
        "--inject",
        choices=sorted(FAULT_MODELS),
        default=None,
        help="substitute a deliberately broken model (harness self-test)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking on failure"
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        default=None,
        help="bias the campaign at a registered adversarial scenario "
        "(repro.scenarios): pin its protocol, tilt the atom mix toward its "
        "contention surface, and graft its targeted drops onto every "
        "iteration's fault schedule",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="draw a seeded fault schedule (drops/dups/spikes/outages) per "
        "iteration; oracles then check the recovered run (off by default)",
    )
    parser.add_argument(
        "--max-wall-seconds",
        type=float,
        default=None,
        help="stop drawing new iterations once this much wall time is spent",
    )
    parser.add_argument(
        "--dump-diagnosis",
        metavar="PATH",
        default=None,
        help="write the structured hang diagnosis (JSON) here on a watchdog trip",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="on failure, replay the failing run with the trace bus on and "
        "dump its trace (JSONL) here; convert with "
        "`python -m repro.obs.export --chrome PATH`",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error("--iters must be at least 1")
    if args.max_jitter < 0:
        parser.error("--max-jitter must be non-negative")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.max_wall_seconds is not None and args.max_wall_seconds <= 0:
        parser.error("--max-wall-seconds must be positive")
    if args.scenario is not None:
        # Imported here so plain fuzz runs never pay for the catalog.
        from ..scenarios import scenario_names

        if args.scenario not in scenario_names():
            parser.error(
                f"unknown scenario {args.scenario!r}; known: "
                f"{', '.join(scenario_names())}"
            )
        if args.protocol != "all":
            parser.error("--scenario pins the protocol; drop --protocol")

    protocols = PROTOCOLS if args.protocol == "all" else (args.protocol,)
    models = MODELS if args.model == "all" else (args.model,)
    t0 = time.time()  # lint-ok: wall-clock (CLI progress reporting)
    report = fuzz(
        master_seed=args.seed,
        iters=args.iters,
        protocols=protocols,
        models=models,
        max_jitter=args.max_jitter,
        inject=args.inject,
        do_shrink=not args.no_shrink,
        faults=args.faults,
        max_wall_seconds=args.max_wall_seconds,
        verbose=args.verbose,
        log=lambda s: print(s, file=sys.stderr),
        scenario=args.scenario,
    )
    dt = time.time() - t0  # lint-ok: wall-clock (CLI progress reporting)
    if report.ok:
        combos = sum(1 for c, n in report.runs_by_combo.items() if n > 0)
        cut = " (wall-clock budget spent)" if report.stopped_by_wall_clock else ""
        scn = f" [scenario {report.scenario}]" if report.scenario else ""
        print(
            f"fuzz OK: {report.iterations} iteration(s) across {combos} "
            f"protocol×model combination(s) in {dt:.1f}s (seed {args.seed}){cut}{scn}"
        )
        return 0
    print(
        f"fuzz FAILED at iteration {report.iterations - 1} "
        f"({report.protocol}×{report.model}, seed {report.seed}, "
        f"jitter {report.jitter:.2f}): {report.failure}"
    )
    if report.fault_spec is not None:
        print(f"fault schedule: {report.fault_spec.describe()}")
    if report.shrunk_faults is not None:
        print(f"shrunk fault schedule: {report.shrunk_faults.describe()}")
    if report.diagnosis is not None:
        print(report.diagnosis.format())
        if args.dump_diagnosis:
            with open(args.dump_diagnosis, "w") as fh:
                json.dump(report.diagnosis.to_dict(), fh, indent=2, sort_keys=True)
            print(f"diagnosis written to {args.dump_diagnosis}")
    if report.shrunk_program is not None:
        print(
            f"minimal reproducer: {report.shrunk_program.size()} operation(s), "
            f"{report.shrunk_program.n_threads} thread(s)\n"
        )
        print(report.reproducer)
    if args.trace and report.failing_program is not None:
        # Replay the original failing run (guaranteed to fail at this exact
        # seed, unlike the shrunk program's oracle seeds) with tracing on.
        model_used = args.inject if args.inject else report.model
        run_program(
            report.failing_program,
            protocol=report.protocol,
            model=model_used,
            seed=report.seed,
            jitter=report.jitter,
            faults=report.fault_spec,
            trace_path=args.trace,
        )
        print(f"trace of failing run written to {args.trace}")
        if report.protocol == "primitives":
            # The failing run is one concrete execution: conformance-check
            # its home-serialization order against the model axioms, so a
            # schedule-level failure comes with a memory-model verdict.
            from ..axiom import conformance_report

            print(conformance_report(args.trace).describe())
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
