"""Regenerate every table and figure of the paper in one run.

Usage::

    python -m repro.experiments [--quick] [-o EXPERIMENTS-report.md]
        [--jobs N] [--cache-dir DIR] [--no-cache]

Produces a markdown report with, for each experiment, the paper's claim
and this reproduction's measurement.  The benchmark suite
(``pytest benchmarks/ --benchmark-only``) asserts the same shapes; this
module is the human-readable one-shot version.

Every simulated data point is a pure function of its parameters, so the
whole campaign is dispatched through :mod:`repro.sweep`: points run in
parallel across ``--jobs`` workers and land in an on-disk result cache, so
a re-run after editing one workload recomputes only the affected points.
The report itself is byte-identical whatever the job count or cache state
(modulo the wall-clock footer).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import IO, Any, Dict, List, Optional, Tuple

from .analysis import TimeParams, TransactionCosts, table2, table3
from .sweep import SweepStats, SweepTask, run_sweep
from .system.config import MachineConfig
from .system.machine import Machine
from .workloads import (
    GRAIN_SIZES,
    SyncModelParams,
    SyncModelWorkload,
    WorkQueueParams,
    WorkQueueWorkload,
    run_fft,
    run_linsolver,
)

__all__ = [
    "run_report",
    "fig_point",
    "table2_point",
    "table3_point",
    "fft_point",
    "report_under_attack",
]


# --------------------------------------------------------------------------
# Sweep point functions — top-level and JSON-in/JSON-out, so the parallel
# runner's workers can resolve them by dotted path and cache their results.
# --------------------------------------------------------------------------

def fig_point(
    n: int,
    model: str,
    scheme: str,
    grain: str,
    consistency: str = "sc",
    tasks_per_node: int = 4,
    seed: int = 1,
) -> float:
    """One Figure 4-7 sample; returns completion time in cycles."""
    protocol = "primitives" if scheme == "cbl" else "wbi"
    with Machine(MachineConfig(n_nodes=n, seed=seed), protocol=protocol) as machine:
        g = GRAIN_SIZES[grain]
        if model == "sync":
            wl = SyncModelWorkload(
                machine,
                SyncModelParams(grain_size=g, tasks_per_node=tasks_per_node),
                scheme,
                consistency,
            )
        elif model == "queue":
            wl = WorkQueueWorkload(
                machine,
                WorkQueueParams(n_tasks=tasks_per_node * n, grain_size=g),
                scheme,
                consistency,
            )
        else:
            raise ValueError(f"unknown model {model!r}")
        return wl.run().completion_time


def table2_point(n: int, scheme: str) -> Dict[str, float]:
    """One simulated Table 2 cell: linear solver completion + flits/iter."""
    r = run_linsolver(n, scheme, iterations=4, cache_blocks=256, cache_assoc=2)
    return {
        "completion": r.completion_time,
        "flits_per_iter": r.extra["per_iteration"]["flits"],
    }


def table3_point(n: int, scheme: str) -> Dict[str, float]:
    """One simulated Table 3 cell: n contenders on one lock, t_cs=50."""
    from .sync.base import CBLLock
    from .sync.swlock import TTSLock

    with Machine(
        MachineConfig(n_nodes=n, cache_blocks=256, cache_assoc=2, seed=3),
        protocol="primitives" if scheme == "cbl" else "wbi",
    ) as m:
        lock = CBLLock(m) if scheme == "cbl" else TTSLock(m)

        def w(p, lock=lock):
            yield from p.acquire(lock)
            yield from p.compute(50)
            yield from p.release(lock)

        for i in range(n):
            m.spawn(w(m.processor(i)))
        m.run()
        return {"time": m.sim.now, "messages": m.net.message_count}


def conformance_point(
    test: str, protocol: str, model: str, seeds: int, jitters: List[float]
) -> list:
    """Observed litmus outcomes for one three-way-gate row (JSON-safe).

    The axiomatic and closed-form columns of the gate are exact and
    instant; only the operational sweep simulates, so only it goes
    through the sweep runner (and its cache).
    """
    from .verify.litmus import LITMUS_TESTS, observe_outcomes

    t = next(lt for lt in LITMUS_TESTS if lt.name == test)
    observed = observe_outcomes(
        t, protocol, model, seeds=range(seeds), jitters=tuple(jitters)
    )
    return sorted([list(pair) for pair in out] for out in observed)


def fft_point(selective: bool) -> int:
    """FFT RESET-UPDATE ablation: total update messages."""
    r = run_fft(8, selective=selective, cache_blocks=256, cache_assoc=2)
    return r.extra["ru_updates"]


# --------------------------------------------------------------------------
# Report rendering
# --------------------------------------------------------------------------

def _md_table(out: IO[str], headers: List[str], rows: List[List]) -> None:
    out.write("| " + " | ".join(str(h) for h in headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for r in rows:
        out.write("| " + " | ".join(str(c) for c in r) + " |\n")
    out.write("\n")


_MODULE = "repro.experiments"

#: Series of Figures 4 and 5: (label, workload model, lock scheme).
FIG45_SERIES = (
    ("WBI", "sync", "tts"),
    ("CBL", "sync", "cbl"),
    ("Q-WBI", "queue", "tts"),
    ("Q-backoff", "queue", "tts_backoff"),
    ("Q-CBL", "queue", "cbl"),
)


def _plan(quick: bool) -> Tuple[Dict[Tuple, SweepTask], dict]:
    """Every simulated point of the report, keyed for later lookup."""
    ns = (2, 4, 8, 16) if quick else (2, 4, 8, 16, 32)
    shape = {
        "ns": ns,
        "t2_ns": ns[: 3 if quick else 4],
        "t3_ns": (4, 8, 16),
    }
    tasks: Dict[Tuple, SweepTask] = {}
    for nn in shape["t2_ns"]:
        for s in ("read-update", "inv-I", "inv-II"):
            tasks[("t2", nn, s)] = SweepTask(
                f"{_MODULE}:table2_point", {"n": nn, "scheme": s}
            )
    for nn in shape["t3_ns"]:
        for s in ("cbl", "wbi"):
            tasks[("t3", nn, s)] = SweepTask(
                f"{_MODULE}:table3_point", {"n": nn, "scheme": s}
            )
    for grain in ("medium", "coarse"):
        for _label, model, scheme in FIG45_SERIES:
            for n in ns:
                tasks[("fig", n, model, scheme, grain, "sc")] = SweepTask(
                    f"{_MODULE}:fig_point",
                    {"n": n, "model": model, "scheme": scheme, "grain": grain},
                )
    for grain in ("fine", "medium"):
        for c in ("sc", "bc"):
            for n in ns:
                tasks[("fig", n, "queue", "cbl", grain, c)] = SweepTask(
                    f"{_MODULE}:fig_point",
                    {
                        "n": n,
                        "model": "queue",
                        "scheme": "cbl",
                        "grain": grain,
                        "consistency": c,
                    },
                )
    for selective in (True, False):
        tasks[("fft", selective)] = SweepTask(
            f"{_MODULE}:fft_point", {"selective": selective}
        )
    # Service tail latency: open-loop traffic through the demand/policy/
    # service layers.  The queue service is lock-guarded, so the lock
    # scheme matters; cbl is the primitives protocol's hardware lock, tts
    # (cached spinning) needs an invalidation protocol to wake — wbi — and
    # primitives/writeupdate take the uncached ts software lock for the
    # hardware-vs-software comparison on the same protocol.
    from .sweep import derive_seed as _derive_seed

    traffic_rates = (0.5, 2.0, 6.0)
    traffic_combos = (
        ("primitives", "cbl"),
        ("primitives", "ts"),
        ("wbi", "tts"),
        ("writeupdate", "ts"),
    )
    shape["traffic_rates"] = traffic_rates
    shape["traffic_combos"] = traffic_combos
    shape["traffic_horizon"] = 2_000.0 if quick else 6_000.0
    for rate in traffic_rates:
        for protocol, scheme in traffic_combos:
            tasks[("traffic", rate, protocol, scheme)] = SweepTask(
                "repro.workloads.traffic:traffic_point",
                {
                    "rate": rate,
                    "horizon": shape["traffic_horizon"],
                    "service": "queue",
                    "n_clients": 250_000,
                    "protocol": protocol,
                    "lock_scheme": scheme,
                    "seed": _derive_seed(1, "traffic", rate),
                },
            )
    # Adversarial scenarios: every registry entry, paired baseline+attack
    # per seed, dispatched as ordinary sweep points (same cache, same pool).
    from .scenarios import scenario_names
    from .scenarios.runner import DEFAULT_BASE_SEED
    from .sweep import derive_seed

    scn_n_seeds = 2 if quick else 3
    shape["scn_n_seeds"] = scn_n_seeds
    shape["scn_seeds"] = {
        name: [
            derive_seed(DEFAULT_BASE_SEED, "scenarios", name, i)
            for i in range(scn_n_seeds)
        ]
        for name in scenario_names()
    }
    for name, seeds in shape["scn_seeds"].items():
        for seed in seeds:
            for attack in (False, True):
                tasks[("scn", name, seed, attack)] = SweepTask(
                    "repro.scenarios.runner:scenario_point",
                    {"name": name, "seed": seed, "attack": attack},
                )
    from .verify.litmus import LITMUS_TESTS, PROTOCOLS

    for test in LITMUS_TESTS:
        for protocol in PROTOCOLS:
            if protocol not in test.protocols:
                continue
            for model in ("sc", "bc", "wo", "rc"):
                tasks[("axiom", test.name, protocol, model)] = SweepTask(
                    f"{_MODULE}:conformance_point",
                    {
                        "test": test.name,
                        "protocol": protocol,
                        "model": model,
                        "seeds": 3,
                        "jitters": [0.0, 2.0],
                    },
                )
    return tasks, shape


def report_table2(out: IO[str], ns, res) -> None:
    out.write("## Table 2 — linear solver coherence cost\n\n")
    out.write(
        "Paper: read-update pays nothing on reads (updates are pushed) and its\n"
        "write fan-out is parallel; invalidation schemes re-load the x vector\n"
        "every iteration.\n\n"
    )
    n, b = 16, 4
    t = table2(n, b, TransactionCosts())
    out.write(f"**Analytic (n={n}, B={b}; traffic / critical-path):**\n\n")
    _md_table(
        out,
        ["operation", "read-update", "inv-I", "inv-II"],
        [
            [op]
            + [f"{t[s][op].traffic:.1f} / {t[s][op].latency:.1f}" for s in t]
            for op in ("initial_load", "write", "read")
        ],
    )
    out.write("**Simulated (4 iterations):**\n\n")
    rows = []
    for nn in ns:
        for s in ("read-update", "inv-I", "inv-II"):
            r = res[("t2", nn, s)]
            rows.append(
                [nn, s, f"{r['completion']:.0f}", f"{r['flits_per_iter']:.0f}"]
            )
    _md_table(out, ["n", "scheme", "completion (cycles)", "flits/iter"], rows)


def report_table3(out: IO[str], ns, res) -> None:
    out.write("## Table 3 — synchronization scenario costs\n\n")
    out.write(
        "Paper: under full contention CBL is O(n) in messages and time; WBI is\n"
        "O(n^2).  Serial CBL lock = 3 messages; hardware barrier request = 2.\n\n"
    )
    n = max(ns)
    t = table3(n, TimeParams())
    out.write(f"**Analytic (n={n}):**\n\n")
    _md_table(
        out,
        ["scenario", "WBI msgs", "WBI time", "CBL msgs", "CBL time"],
        [
            [sc, f"{d['wbi'].messages:.0f}", f"{d['wbi'].time:.0f}",
             f"{d['cbl'].messages:.0f}", f"{d['cbl'].time:.0f}"]
            for sc, d in t.items()
        ],
    )
    out.write("**Simulated parallel lock (n contenders, t_cs=50):**\n\n")
    rows = []
    for nn in ns:
        for scheme in ("cbl", "wbi"):
            r = res[("t3", nn, scheme)]
            rows.append([nn, scheme, f"{r['time']:.0f}", r["messages"]])
    _md_table(out, ["n", "scheme", "time (cycles)", "messages"], rows)


def report_figures_45(out: IO[str], ns, res) -> None:
    for fig, grain in (("Figure 4", "medium"), ("Figure 5", "coarse")):
        out.write(f"## {fig} — completion time vs processors ({grain} grain)\n\n")
        out.write(
            "Paper: sync-model WBI and CBL are comparable; work-queue WBI\n"
            "collapses at scale, backoff helps but does not scale, CBL scales.\n\n"
        )
        rows = []
        for label, model, scheme in FIG45_SERIES:
            rows.append(
                [label]
                + [f"{res[('fig', n, model, scheme, grain, 'sc')]:.0f}" for n in ns]
            )
        _md_table(out, ["series (cycles)"] + [f"n={n}" for n in ns], rows)


def report_figures_67(out: IO[str], ns, res) -> None:
    for fig, grain in (("Figure 6", "fine"), ("Figure 7", "medium")):
        out.write(f"## {fig} — buffered vs sequential consistency ({grain} grain)\n\n")
        out.write(
            "Paper: BC improves most cases but the improvement is modest\n"
            "(global writes are only sh x write_ratio of references).\n\n"
        )
        rows = []
        series = {}
        for label, c in (("SC-CBL", "sc"), ("BC-CBL", "bc")):
            series[label] = {n: res[("fig", n, "queue", "cbl", grain, c)] for n in ns}
            rows.append([label] + [f"{series[label][n]:.0f}" for n in ns])
        rows.append(
            ["improvement %"]
            + [f"{100 * (1 - series['BC-CBL'][n] / series['SC-CBL'][n]):.1f}" for n in ns]
        )
        _md_table(out, ["series (cycles)"] + [f"n={n}" for n in ns], rows)


def report_extensions(out: IO[str], res) -> None:
    out.write("## Extensions / ablations\n\n")
    _md_table(
        out,
        ["experiment", "value"],
        [
            ["FFT selective RESET-UPDATE: update msgs", res[("fft", True)]],
            ["FFT accumulate (never reset): update msgs", res[("fft", False)]],
        ],
    )


def report_service_tail(out: IO[str], shape, res) -> None:
    """Open-loop service tail latency (arrival rate x protocol x lock)."""
    out.write("## Service tail latency (open-loop traffic)\n\n")
    out.write(
        "The machine as a storage tier: Poisson open-loop demand from a\n"
        "250k-logical-client population is multiplexed onto the nodes\n"
        "(demand layer), placed by static sharding (policy layer), and\n"
        "served by the lock-guarded queue service (service layer).\n"
        "Latency is request issue to batch completion, in cycles; the\n"
        "histogram buckets are deterministic, so every cell is exactly\n"
        "reproducible.  `sat` counts service batches that hit the batch\n"
        "cap — nonzero means that configuration fell behind the arrival\n"
        "process.\n\n"
    )
    rows = []
    for rate in shape["traffic_rates"]:
        for protocol, scheme in shape["traffic_combos"]:
            p = res[("traffic", rate, protocol, scheme)]
            rows.append(
                [
                    f"{rate:g}",
                    protocol,
                    scheme,
                    p["requests"],
                    f"{p['p50']:g}",
                    f"{p['p95']:g}",
                    f"{p['p99']:g}",
                    f"{p['p999']:g}",
                    f"{p['mean']:.1f}",
                    p["saturated_batches"],
                ]
            )
    _md_table(
        out,
        ["rate", "protocol", "lock", "requests", "p50", "p95", "p99", "p999", "mean", "sat"],
        rows,
    )
    out.write(
        "\nExpected shape: tails grow with arrival rate everywhere; the\n"
        "hardware CBL lock holds the queue-service tail below the\n"
        "software locks as contention rises (the Figure 4/5 argument,\n"
        "restated in tail-latency terms), and write-update pays its\n"
        "broadcast tax on the hot queue words.\n\n"
    )


def report_conformance(out: IO[str], res) -> None:
    """Three-way memory-model conformance (DESIGN.md §9).

    The observed column's sweeps were dispatched as
    :func:`conformance_point` tasks with everything else; here they are
    deserialized and handed to :func:`repro.axiom.run_gate` as a
    precomputed observer, so the exact columns stay in-process and the
    simulation cost shares the report's parallelism and cache.
    """
    from .axiom import run_gate

    def observer(test, protocol, model, seeds, jitters):
        doc = res[("axiom", test.name, protocol, model)]
        return frozenset(
            tuple((reg, val) for reg, val in out) for out in doc
        )

    report = run_gate(seeds=range(3), jitters=(0.0, 2.0), observer=observer)
    out.write("## Memory-model conformance (three-way gate)\n\n")
    out.write(
        "Allowed-outcome set sizes per litmus test and model on the\n"
        "buffered machine (`primitives`): axiomatic enumeration vs. the\n"
        "DRF-derived closed form vs. observed seeded runs.  The gate\n"
        "requires `axiomatic == closed-form` and `observed ⊆ axiomatic`\n"
        "on every row (`python -m repro.axiom`).\n\n"
    )
    out.write(report.markdown_table())
    out.write(
        "\nGate verdict: **{}** — {} row(s), {} mismatch(es).\n\n".format(
            "ok" if report.ok else "FAILED",
            len(report.rows),
            len(report.mismatches()),
        )
    )


def report_under_attack(out: IO[str], shape, res) -> None:
    """Adversarial scenario suite (DESIGN.md §10), from precomputed points.

    The per-run documents were dispatched as ``scenario_point`` tasks with
    everything else; here they are folded into envelope verdicts by the
    same :func:`repro.scenarios.runner.evaluate_scenario` the standalone
    CLI uses, so report and CI verdicts can never disagree on semantics.
    """
    from .scenarios import get_scenario, scenario_names
    from .scenarios.runner import (
        DEFAULT_BASE_SEED,
        SCHEMA,
        evaluate_scenario,
        markdown_section,
    )

    verdicts = []
    for name in scenario_names():
        pairs = [
            (res[("scn", name, seed, False)], res[("scn", name, seed, True)])
            for seed in shape["scn_seeds"][name]
        ]
        verdicts.append(evaluate_scenario(get_scenario(name), pairs))
    doc = {
        "schema": SCHEMA,
        "base_seed": DEFAULT_BASE_SEED,
        "n_seeds": shape["scn_n_seeds"],
        "ok": all(v["ok"] for v in verdicts),
        "scenarios": verdicts,
    }
    out.write(markdown_section(doc))
    out.write("\n")


def run_report(
    out: IO[str],
    quick: bool = False,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = False,
    stats: Optional[SweepStats] = None,
) -> None:
    """Generate the full report; simulated points go through the sweep runner.

    Caching is opt-in here (``use_cache=True`` or the CLI's ``--cache-dir``):
    a report regeneration is usually *meant* to re-measure.
    """
    t0 = time.time()  # lint-ok: wall-clock (report generation time, not sim state)
    tasks, shape = _plan(quick)
    keys = list(tasks)
    values = run_sweep(
        [tasks[k] for k in keys],
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache or cache_dir is not None,
        stats=stats,
    )
    res: Dict[Tuple, Any] = dict(zip(keys, values))
    ns = shape["ns"]
    out.write("# Reproduction report — Lee & Ramachandran, SPAA 1991\n\n")
    out.write(
        "Generated by `python -m repro.experiments`"
        + (" (--quick)" if quick else "")
        + ".  Absolute numbers are this simulator's cycles, not the paper's\n"
        "testbed; the claims being checked are the *shapes*.\n\n"
    )
    report_table2(out, shape["t2_ns"], res)
    report_table3(out, shape["t3_ns"], res)
    report_figures_45(out, ns, res)
    report_figures_67(out, ns, res)
    report_extensions(out, res)
    report_service_tail(out, shape, res)
    report_conformance(out, res)
    report_under_attack(out, shape, res)
    # Generation time goes to stderr, not the report body: regeneration is
    # byte-identical across worker counts and cache state (CI's REPORT.md
    # golden gate and the benchmark's ``report`` workload compare a
    # regeneration with the committed file), and a timing line in the body
    # would break that.
    print(
        # lint-ok: wall-clock (report generation time, not sim state)
        f"report generated in {time.time() - t0:.1f}s wall-clock",
        file=sys.stderr,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="smaller sweeps")
    ap.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    ap.add_argument(
        "--jobs", type=int, default=None,
        help="parallel workers (default: REPRO_SWEEP_JOBS or cpu count)",
    )
    ap.add_argument(
        "--cache-dir", default=None,
        help="cache sweep results in DIR (reused on re-runs)",
    )
    ap.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point even if --cache-dir has results",
    )
    args = ap.parse_args(argv)
    stats = SweepStats()
    kw = dict(
        quick=args.quick,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=(args.cache_dir is not None or "REPRO_SWEEP_CACHE" in os.environ)
        and not args.no_cache,
        stats=stats,
    )
    if args.output == "-":
        run_report(sys.stdout, **kw)
    else:
        with open(args.output, "w") as f:
            run_report(f, **kw)
        print(f"wrote {args.output}")
        print(
            f"sweep: {stats.total} points, {stats.hits} cached, "
            f"{stats.computed} computed on {stats.jobs} worker(s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
