"""The benchmark's workloads: what each one runs, at which size, and how its
output is checked.

Every workload is a function of the seed alone.  ``repro`` is imported
inside the run functions, never at module level, so the worker can time
importing a workload's entry module (the set-up cost) apart from the
workload itself.

A run returns an :class:`Outcome`: the work items completed (requests,
fuzz iterations or sweep points), one record per independently checked
*point*, and the layer counts the workload knows better than the tracer
does.  A point record is ``{"key", "attempted", "failed", "digest"}``,
plus ``"error"`` when the point raised.  The runner compares digests
across repetitions and the traced pass, so a point whose simulated output
changes between two runs of the same inputs counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

#: Traffic points: (aggregate arrival rate in requests/cycle, arrival
#: horizon in cycles).  Rate 1.0 is well below saturation everywhere; 4.0
#: saturates wbi at read ratio 0.1, so the write-heavy mix carries a
#: growing backlog there.
TRAFFIC_POINTS = ((1.0, 40_000.0), (4.0, 50_000.0))
SMOKE_TRAFFIC_POINTS = ((1.0, 1_500.0), (4.0, 1_500.0))
#: (protocol, lock scheme): the paper's machine against the baseline.
TRAFFIC_COMBOS = (("primitives", "cbl"), ("wbi", "tts"))
#: The point whose simulated p50/p99 the traced pass reports.
LATENCY_POINT = "primitives+cbl@4"

FUZZ_ITERS = 8_000
SMOKE_FUZZ_ITERS = 36


def digest(obj) -> str:
    """Stable short digest of a JSON-able value."""
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _error_point(key: str) -> dict:
    return {
        "key": key,
        "attempted": 1,
        "failed": 1,
        "digest": None,
        "error": traceback.format_exc(),
    }


@dataclass
class Outcome:
    """What one run of a workload did."""

    items: int
    points: List[dict]
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run(seed, smoke)`` runs it once; ``entry`` is the module a user's
    process imports before the work starts.  ``rerun_cached``, where set,
    re-runs the workload against a result cache that ``run(...,
    cache_dir=DIR)`` filled, and returns the re-run's points.
    """

    name: str
    entry: str
    run: Callable[..., Outcome]
    rerun_cached: Optional[Callable[[str, bool], List[dict]]] = None


# --------------------------------------------------------------------------
# report: regenerate REPORT.md
# --------------------------------------------------------------------------

def _report_text(smoke: bool, cache_dir: Optional[str], stats=None) -> str:
    from repro.experiments import run_report

    buf = io.StringIO()
    run_report(
        buf,
        quick=smoke,
        jobs=1,
        cache_dir=cache_dir,
        use_cache=cache_dir is not None,
        stats=stats,
    )
    return buf.getvalue()


def check_report(key: str, text: str, expected: Optional[str]) -> dict:
    """The point record of one report: failed unless ``text`` is expected.

    ``expected=None`` (the smoke size, which has no committed reference)
    checks only that the text is a report; the runner still requires it to
    be identical across repetitions.
    """
    if expected is None:
        ok = text.startswith("# Reproduction report")
    else:
        ok = text == expected
    return {"key": key, "attempted": 1, "failed": 0 if ok else 1, "digest": digest(text)}


def expected_report(smoke: bool) -> Optional[str]:
    if smoke:
        return None
    with open("REPORT.md", encoding="utf-8") as f:
        return f.read()


def run_report_workload(seed: int, smoke: bool, cache_dir: Optional[str] = None) -> Outcome:
    """``run_report`` on one process with no cache; the seed is unused
    because REPORT.md pins every point's seed."""
    from repro.sweep import SweepStats

    stats = SweepStats()
    try:
        text = _report_text(smoke, cache_dir, stats)
    except Exception:
        return Outcome(items=0, points=[_error_point("report")])
    gate = re.search(r"(\d+) row\(s\), \d+ mismatch", text)
    return Outcome(
        items=stats.total,
        points=[check_report("report", text, expected_report(smoke))],
        counts={
            "sweep.points": stats.total,
            "axiom.rows": int(gate.group(1)) if gate else 0,
        },
    )


def rerun_report_cached(cache_dir: str, smoke: bool) -> List[dict]:
    try:
        text = _report_text(smoke, cache_dir)
    except Exception:
        return [_error_point("report-cached")]
    return [check_report("report-cached", text, expected_report(smoke))]


# --------------------------------------------------------------------------
# traffic-read / traffic-write: open-loop kv service
# --------------------------------------------------------------------------

def run_traffic(read_ratio: float, seed: int, smoke: bool) -> Outcome:
    """Poisson arrivals from 4M logical clients, round-robin placement.

    Round-robin rather than static sharding: a static shard keeps each key
    on one node, so on wbi the read/write mix never reaches the coherence
    layer and the two mixes would measure the same thing.
    """
    from repro.sweep import derive_seed
    from repro.workloads.traffic import traffic_point

    points: List[dict] = []
    served = 0
    counts: Dict[str, float] = {}
    for rate, horizon in SMOKE_TRAFFIC_POINTS if smoke else TRAFFIC_POINTS:
        for protocol, lock in TRAFFIC_COMBOS:
            key = f"{protocol}+{lock}@{rate:g}"
            try:
                p = traffic_point(
                    rate=rate,
                    horizon=horizon,
                    n_clients=4_000_000,
                    policy="round-robin",
                    service="kv",
                    lock_scheme=lock,
                    protocol=protocol,
                    n_nodes=8,
                    read_ratio=read_ratio,
                    seed=derive_seed(seed, "bench-traffic", rate, protocol),
                )
            except Exception:
                points.append(_error_point(key))
                continue
            served += p["served"]
            points.append(
                {
                    "key": key,
                    "attempted": p["requests"],
                    "failed": p["requests"] - p["served"],
                    "digest": digest(p),
                }
            )
            if key == LATENCY_POINT:
                counts["workloads.sim_p50_cycles"] = p["p50"]
                counts["workloads.sim_p99_cycles"] = p["p99"]
    return Outcome(items=served, points=points, counts=counts)


# --------------------------------------------------------------------------
# fuzz: fault-free schedule fuzzing over every protocol x model
# --------------------------------------------------------------------------

def run_fuzz(seed: int, smoke: bool, inject: Optional[str] = None) -> Outcome:
    """``fuzz`` with the default drf oracle and no shrinking.

    Every iteration from a failing one onward counts as failed: the
    campaign stops at its first failure.  ``inject`` substitutes a broken
    consistency model, to show that failures are counted.
    """
    from repro.verify.fuzz import fuzz

    iters = SMOKE_FUZZ_ITERS if smoke else FUZZ_ITERS
    try:
        r = fuzz(master_seed=seed, iters=iters, do_shrink=False, inject=inject)
    except Exception:
        return Outcome(items=0, points=[_error_point("fuzz")])
    done = r.iterations if r.ok else r.iterations - 1
    combos = sorted(f"{p}x{m}={n}" for (p, m), n in r.runs_by_combo.items())
    state = [r.iterations, combos, r.failure]
    return Outcome(
        items=done,
        points=[
            {"key": "fuzz", "attempted": iters, "failed": iters - done, "digest": digest(state)}
        ],
        counts={"verify.iterations": r.iterations},
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("report", "repro.experiments", run_report_workload, rerun_report_cached),
        Workload("traffic-read", "repro.workloads.traffic", partial(run_traffic, 0.9)),
        Workload("traffic-write", "repro.workloads.traffic", partial(run_traffic, 0.1)),
        Workload("fuzz", "repro.verify.fuzz", run_fuzz),
    )
}


def merge_points(runs: List[List[dict]]) -> Dict[str, int]:
    """Fold the point records of several runs of the same inputs.

    A point is attempted as often as its largest run says.  It fails
    whole when any run raised or when two runs disagree on its digest;
    otherwise its failures are the ones the runs report.
    """
    by_key: Dict[str, List[dict]] = {}
    for points in runs:
        for p in points:
            by_key.setdefault(p["key"], []).append(p)
    attempted = failed = 0
    for recs in by_key.values():
        n = max(r["attempted"] for r in recs)
        broken = any("error" in r for r in recs) or len({r["digest"] for r in recs}) > 1
        attempted += n
        failed += n if broken else max(r["failed"] for r in recs)
    return {"attempted": attempted, "failed": failed}

