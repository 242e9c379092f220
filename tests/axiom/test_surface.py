"""The axiomatic checker's production surface.

Production runs one search engine; the exhaustive enumerator and both
consume referees are test-side (``tests/axiom/referees.py``).  These
pins keep it that way: the public names, the one query signature, and
an import of :mod:`repro.axiom` that never reaches into ``tests``.
"""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import repro.axiom
from repro.axiom import check

ROOT = Path(__file__).resolve().parents[2]


def test_public_names():
    assert repro.axiom.__all__ == [
        "AxModel",
        "ax_model_for",
        "Event",
        "EventGraph",
        "litmus_event_graph",
        "allowed_outcomes",
        "GateRow",
        "GateReport",
        "run_gate",
        "AxiomBudgetExceeded",
        "reduced_outcomes_for_graph",
        "estimate_candidate_space",
        "fuzz_allowed_outcomes",
        "fuzz_program_event_graph",
        "fuzz_round_event_graph",
        "ConformanceReport",
        "ConformanceViolation",
        "MemTrace",
        "check_trace",
        "conformance_report",
    ]


def test_one_engine_no_referees_in_src():
    assert list(inspect.signature(check.allowed_outcomes).parameters) == [
        "test", "model", "protocol",
    ]
    for module in ("repro.axiom.enumerate", "repro.axiom.fuzzoracle"):
        assert importlib.util.find_spec(module) is None, module
    for module in ("relations", "scale", "check"):
        mod = importlib.import_module(f"repro.axiom.{module}")
        for name in (
            "enumerate_executions", "allowed_outcomes_for_graph",
            "count_executions", "axiom_consume_allowed", "fuzz_consume_allowed",
        ):
            assert not hasattr(mod, name), (module, name)


def test_import_loads_no_test_module():
    code = (
        "import sys, repro.axiom; "
        "print(sorted(m for m in sys.modules "
        "if m == 'tests' or m.startswith('tests.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
