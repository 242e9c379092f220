"""CLI for the axiomatic checker: ``python -m repro.axiom``.

With no arguments, runs the full three-way differential gate (axiomatic
vs closed-form vs observed) over the litmus corpus and prints one line
per combination; ``--test``/``--model``/``--protocol`` restrict the
sweep, ``--no-observe`` skips the operational runs (exact comparison
only), ``--json`` writes the verdicts as a machine-readable artifact.

Two further modes:

* ``--conform TRACE`` — single-execution conformance: check one recorded
  run (a JSONL trace written with ``--trace`` / ``dump_trace``) against
  the memory-model axioms (:mod:`repro.axiom.conformance`).
* ``--at-scale`` — enumerate full-size fuzzer programs with the
  partial-order-reduced engine under a time budget
  (:mod:`repro.axiom.scale`); ``--programs``/``--budget-seconds``
  size the sweep, ``--json`` records per-program verdicts.

Exit codes (pinned by tests): **0** = gate passed, **1** = a mismatch or
soundness violation was found, **2** = bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .differential import run_gate

__all__ = ["main"]


def _conform(path: str, json_path: Optional[str], quiet: bool) -> int:
    from .conformance import conformance_report

    try:
        report = conformance_report(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not quiet:
        print(report.describe())
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        if not quiet:
            print(f"verdict written to {json_path}")
    return 0 if report.ok else 1


def _at_scale(
    programs: int, budget_seconds: float, seed: int,
    json_path: Optional[str], quiet: bool,
) -> int:
    import numpy as np

    from ..verify.fuzz import gen_program
    from .scale import (
        AxiomBudgetExceeded,
        estimate_candidate_space,
        fuzz_allowed_outcomes,
        fuzz_program_event_graph,
    )

    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for i in range(programs):
        program = gen_program(rng, n_threads=4, n_rounds=3, max_atoms_per_round=3)
        space = estimate_candidate_space(fuzz_program_event_graph(program))
        t0 = time.monotonic()  # lint-ok: wall-clock (CLI budget/reporting)
        try:
            outcomes = fuzz_allowed_outcomes(program, budget_seconds=budget_seconds)
            dt = time.monotonic() - t0  # lint-ok: wall-clock (CLI budget/reporting)
            row = {
                "program": i, "ok": True, "seconds": round(dt, 3),
                "outcomes": len(outcomes), "events": program.size(),
                "naive_space": space,
            }
            verdict = f"{len(outcomes)} outcome(s) in {dt:.3f}s"
        except AxiomBudgetExceeded as exc:
            ok = False
            row = {
                "program": i, "ok": False,
                "seconds": round(time.monotonic() - t0, 3),  # lint-ok: wall-clock (CLI budget/reporting)
                "error": str(exc), "events": program.size(),
                "naive_space": space,
            }
            verdict = f"BUDGET EXCEEDED ({exc})"
        rows.append(row)
        if not quiet:
            print(
                f"program {i}: {program.n_threads} threads x "
                f"{len(program.rounds)} rounds ({program.size()} ops, "
                f"~{space:.2e} naive candidates): {verdict}"
            )
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(
                {"budget_seconds": budget_seconds, "seed": seed, "rows": rows},
                fh, indent=2, sort_keys=True,
            )
        if not quiet:
            print(f"verdicts written to {json_path}")
    if not ok:
        print("at-scale sweep FAILED: budget exceeded", file=sys.stderr)
        return 1
    if not quiet:
        print(f"at-scale sweep OK: {programs} program(s) within budget")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..verify.litmus import LITMUS_TESTS, MODELS, PROTOCOLS

    by_name = {t.name: t for t in LITMUS_TESTS}
    parser = argparse.ArgumentParser(
        prog="python -m repro.axiom",
        description="Axiomatic memory-model checker: enumerate candidate "
        "executions of the litmus corpus and run the three-way differential "
        "gate (axiomatic vs closed-form vs observed outcomes).",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--conform", metavar="TRACE", default=None,
        help="conformance-check one recorded run (JSONL trace) against the "
        "memory-model axioms instead of running the gate",
    )
    mode.add_argument(
        "--at-scale", action="store_true",
        help="enumerate full-size fuzzer programs with the reduced engine "
        "under a time budget instead of running the gate",
    )
    parser.add_argument(
        "--programs", type=int, default=5,
        help="programs to enumerate with --at-scale (default 5)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, default=10.0,
        help="per-program time budget for --at-scale (default 10)",
    )
    parser.add_argument(
        "--test", action="append", choices=sorted(by_name), default=None,
        help="restrict to one litmus test (repeatable)",
    )
    parser.add_argument(
        "--model", action="append", choices=MODELS, default=None,
        help="restrict to one consistency model (repeatable)",
    )
    parser.add_argument(
        "--protocol", action="append", choices=PROTOCOLS, default=None,
        help="restrict to one protocol (repeatable)",
    )
    parser.add_argument(
        "--no-observe", action="store_true",
        help="skip the operational sweeps (axiomatic vs closed-form only)",
    )
    parser.add_argument(
        "--seeds", type=int, default=3,
        help="machine seeds per observed sweep (default 3)",
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the verdict rows as JSON")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.programs < 1:
        parser.error("--programs must be at least 1")
    if args.budget_seconds <= 0:
        parser.error("--budget-seconds must be positive")
    if args.conform is not None:
        return _conform(args.conform, args.json, args.quiet)
    if args.at_scale:
        return _at_scale(
            args.programs, args.budget_seconds, 0, args.json, args.quiet
        )

    tests = (
        [by_name[name] for name in args.test] if args.test else None
    )
    report = run_gate(
        tests=tests,
        protocols=tuple(args.protocol) if args.protocol else None,
        models=tuple(args.model) if args.model else MODELS,
        observe=not args.no_observe,
        seeds=range(args.seeds),
    )
    if not args.quiet:
        for row in report.rows:
            print(row.describe())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        if not args.quiet:
            print(f"verdicts written to {args.json}")
    bad = report.mismatches()
    if bad:
        print(
            f"axiom gate FAILED: {len(bad)} of {len(report.rows)} "
            "combination(s) mismatched",
            file=sys.stderr,
        )
        return 1
    if not args.quiet:
        print(f"axiom gate OK: {len(report.rows)} combination(s) agree")
    return 0
