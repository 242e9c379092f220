"""Axiomatic memory-model checker (herd-style) for the simulator.

Litmus programs are lowered to event graphs (reusing the DRF analyzer's
IR), candidate executions — reads-from, coherence order, lock order —
are enumerated with incremental acyclicity pruning, and the paper's
consistency models are applied as relational axioms over po, rf, co, fr
and the fence/sync edges derived from the NP/CP-Synch labeling table.

Public surface:

* :func:`allowed_outcomes` — the axiomatic allowed-outcome set of a
  litmus test under one model × protocol;
* :func:`run_gate` — the three-way differential (axiomatic vs the
  litmus oracle's closed form vs operationally observed outcomes);
* :func:`axiom_consume_allowed` / :func:`fuzz_consume_allowed` — the
  fuzzer's consume sets rederived from the event graph's closures and
  enumerated exactly by the reduced engine: test-time referees of the
  fuzzer's one oracle, :func:`repro.verify.fuzz.consume_allowed`;
* :func:`reduced_outcomes_for_graph` / :func:`fuzz_allowed_outcomes` —
  the partial-order-reduced engine and its whole-program round
  decomposition (the exhaustive enumerator stays as the differential
  referee);
* :func:`check_trace` / :func:`conformance_report` — single-execution
  conformance: an observed TraceBus run checked against the axioms in
  polynomial time (``python -m repro.axiom --conform TRACE``);
* ``python -m repro.axiom`` — the CLI gate with JSON verdicts.
"""

from .check import allowed_outcomes, count_executions
from .conformance import (
    ConformanceReport,
    ConformanceViolation,
    MemTrace,
    check_trace,
    conformance_report,
)
from .differential import GateReport, GateRow, run_gate
from .enumerate import Execution, allowed_outcomes_for_graph, enumerate_executions
from .events import Event, EventGraph, litmus_event_graph
from .fuzzoracle import axiom_consume_allowed
from .model import AxModel, ax_model_for
from .scale import (
    AxiomBudgetExceeded,
    estimate_candidate_space,
    fuzz_allowed_outcomes,
    fuzz_consume_allowed,
    fuzz_program_event_graph,
    fuzz_round_event_graph,
    reduced_outcomes_for_graph,
)

__all__ = [
    "AxModel",
    "ax_model_for",
    "Event",
    "EventGraph",
    "litmus_event_graph",
    "Execution",
    "enumerate_executions",
    "allowed_outcomes_for_graph",
    "allowed_outcomes",
    "count_executions",
    "GateRow",
    "GateReport",
    "run_gate",
    "axiom_consume_allowed",
    "AxiomBudgetExceeded",
    "reduced_outcomes_for_graph",
    "estimate_candidate_space",
    "fuzz_allowed_outcomes",
    "fuzz_consume_allowed",
    "fuzz_program_event_graph",
    "fuzz_round_event_graph",
    "ConformanceReport",
    "ConformanceViolation",
    "MemTrace",
    "check_trace",
    "conformance_report",
]
