"""Differential pin: the production run loop is cycle-identical to the
all-heap referee.

The kernel's zero-delay lane (:class:`repro.sim.core.Simulator`) reorders
*nothing* relative to the all-heap referee
(:class:`tests.sim.heap_referee.HeapSimulator`): it only changes which
container holds a due event.  These tests enforce that claim the
strongest way available — replay fuzzer-generated programs on both loops
and require bit-identical ``RunMetrics.to_json()`` and identical trace
event streams, including runs with latency jitter and fault injection
(the cancel-heavy regime that exercises lazy cancellation and calendar
compaction).

Any divergence here means the lane broke global (time, seq) FIFO order
and every kernel row of the perf floors table
(``benchmarks/perf_smoke.py``) is measuring a *different simulation*, not
a faster one.
"""

import contextlib
import hashlib
import itertools
import json

import numpy as np
import pytest

import repro.network.message as msgmod
from repro.faults import FaultSpec
from repro.sim.core import Simulator
from repro.verify.fuzz import gen_program, run_program
from tests.sim.heap_referee import HeapSimulator

SEEDS = [0, 1, 2, 3]
PROTOCOLS = ["wbi", "primitives", "writeupdate"]
#: The loop under test, diffed against the referee below.
FAST = pytest.mark.parametrize("cls", [Simulator], ids=["fast"])


def _replay(seed, protocol, jitter=0.0, faults=None, trace_path=None):
    """One deterministic fuzzer replay; returns (oracle_result, metrics,
    the class of the machine's simulator)."""
    # Message ids come from a module-level counter; reset it so the
    # two loops label messages identically and traces can be diffed.
    msgmod._msg_ids = itertools.count()
    program = gen_program(np.random.default_rng(seed))
    captured = {}
    result = run_program(
        program,
        protocol=protocol,
        model="bc",
        seed=seed,
        jitter=jitter,
        faults=faults,
        trace_path=str(trace_path) if trace_path is not None else None,
        on_machine=lambda m: captured.update(
            metrics=m.metrics().to_json(), kernel=type(m.sim)
        ),
    )
    return result, captured["metrics"], captured["kernel"]


def _on(cls, heap_kernel):
    """Build the block's machines on ``cls``."""
    return heap_kernel() if cls is HeapSimulator else contextlib.nullcontext()


def _diff(heap_kernel, cls, seed, protocol, trace_dir=None, **kw):
    """Replay on the referee and on ``cls``; returns ((result, metrics)
    on the referee, the same on ``cls``).  With ``trace_dir`` each side
    dumps its trace there as ``heap.jsonl`` / ``fast.jsonl``."""
    runs = []
    for kernel, name in ((HeapSimulator, "heap"), (cls, "fast")):
        trace = trace_dir / f"{name}.jsonl" if trace_dir is not None else None
        with _on(kernel, heap_kernel):
            result, metrics, built = _replay(seed, protocol, trace_path=trace, **kw)
        # Each run really used the loop it names, so a pin cannot
        # compare a loop with itself.
        assert built is kernel
        runs.append((result, json.dumps(metrics, sort_keys=True)))
    return runs


@FAST
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_bit_identical(seed, protocol, cls, heap_kernel):
    (res_heap, m_heap), (res_alt, m_alt) = _diff(heap_kernel, cls, seed, protocol)
    assert res_heap is None and res_alt is None
    assert m_heap == m_alt


@FAST
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_metrics_identical_under_jitter(protocol, cls, heap_kernel):
    """Jitter perturbs positive delays only; both loops see the same
    perturbed delays in the same order."""
    heap, alt = _diff(heap_kernel, cls, 7, protocol, jitter=0.3)
    assert heap == alt


@FAST
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_metrics_identical_under_faults(seed, cls, heap_kernel):
    """Fault injection is the cancel-heavy regime: retry timers are armed and
    canceled in bulk, driving lazy cancellation and compaction in the
    production loop.  Outcome and metrics must still match the referee
    exactly."""
    spec = FaultSpec(drop_prob=0.02, seed=seed)
    heap, alt = _diff(heap_kernel, cls, seed, "primitives", faults=spec)
    assert heap == alt


@FAST
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_streams_identical(protocol, cls, heap_kernel, tmp_path):
    """Stronger than metrics: the full trace event stream (every message,
    state transition and kernel instant, with timestamps and sequence) must
    be byte-identical between the loops."""
    heap, alt = _diff(heap_kernel, cls, 11, protocol, trace_dir=tmp_path)
    assert heap == alt
    heap_lines = (tmp_path / "heap.jsonl").read_text().splitlines()
    alt_lines = (tmp_path / "fast.jsonl").read_text().splitlines()
    assert len(heap_lines) == len(alt_lines)
    for i, (a, b) in enumerate(zip(heap_lines, alt_lines)):
        assert a == b, f"trace diverges at event {i}:\n  heap: {a}\n  fast: {b}"


@FAST
def test_trace_streams_identical_with_faults(cls, heap_kernel, tmp_path):
    spec = FaultSpec(drop_prob=0.02, seed=5)
    heap, alt = _diff(heap_kernel, cls, 5, "primitives", faults=spec, trace_dir=tmp_path)
    assert heap == alt
    assert (tmp_path / "heap.jsonl").read_text() == (tmp_path / "fast.jsonl").read_text()


#: sha256 of the JSONL trace stream of ``_replay(11, protocol)``: send and
#: route instants, delivery spans, ``resume:wbi-home-...`` process names
#: and kernel instants.  Recorded before the lean event path (DESIGN.md
#: §7.7), which changed both loops at once, so the heap-vs-fast
#: diff above could not have caught a shared drift.
TRACE_SHA256 = {
    "wbi": "887f47f7ef07c9ddc5831d50431bce786a8cfc63fcbae3b82cdfffa46c105d59",
    "primitives": "7fa0fe0d725e299cbd0ba76bd44af762c1b5f8acfa84eab6f385055369984793",
    "writeupdate": "e4150618f363f4aa21611c3833a6d40f639acb720378e32a59b6cacfb8c8a2b1",
}


@pytest.mark.parametrize("cls", [HeapSimulator, Simulator], ids=["heap", "fast"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_stream_matches_golden(protocol, cls, heap_kernel, tmp_path):
    trace = tmp_path / "trace.jsonl"
    with _on(cls, heap_kernel):
        _, _, built = _replay(11, protocol, trace_path=trace)
    assert built is cls
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_SHA256[protocol]
