"""Differential pin: both calendar disciplines are cycle-identical.

The kernel's zero-delay-lane fast path (``Simulator(fast_path=True)``)
reorders *nothing* relative to the all-heap referee
(``Simulator(fast_path=False)``): it only changes which container holds
a due event.  These tests enforce that claim the strongest way available
— replay fuzzer-generated programs under both disciplines and require
bit-identical ``RunMetrics.to_json()`` and identical trace event streams,
including runs with latency jitter and fault injection (the cancel-heavy
regime that exercises lazy cancellation and calendar compaction).

Any divergence here means the fast path broke global (time, seq) FIFO
order and every performance number in BENCH_PR4.json / BENCH_PR9.json is
measuring a *different simulation*, not a faster one.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

import repro.network.message as msgmod
from repro.faults import FaultSpec
from repro.verify.fuzz import gen_program, run_program

SEEDS = [0, 1, 2, 3]
PROTOCOLS = ["wbi", "primitives", "writeupdate"]
# The heap discipline (``fast_path=False``) is the referee; the fast
# discipline is diffed against it below.  The ``fast`` id names the
# discipline under test.
FAST = pytest.mark.parametrize("fast", [True], ids=["fast"])


def _replay(seed, protocol, fast, jitter=0.0, faults=None, trace_path=None):
    """One deterministic fuzzer replay; returns (oracle_result, metrics)."""
    # Message ids come from a module-level counter; reset it so the
    # disciplines label messages identically and traces can be diffed.
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
        fast_path=fast,
        trace_path=str(trace_path) if trace_path is not None else None,
        on_machine=lambda m: captured.update(metrics=m.metrics().to_json()),
    )
    return result, captured["metrics"]


@FAST
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_bit_identical(seed, protocol, fast):
    res_heap, m_heap = _replay(seed, protocol, fast=False)
    res_alt, m_alt = _replay(seed, protocol, fast=fast)
    assert res_heap is None and res_alt is None
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)


@FAST
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_metrics_identical_under_jitter(protocol, fast):
    """Jitter perturbs positive delays only; both disciplines see the same
    perturbed delays in the same order."""
    res_heap, m_heap = _replay(7, protocol, fast=False, jitter=0.3)
    res_alt, m_alt = _replay(7, protocol, fast=fast, jitter=0.3)
    assert res_heap == res_alt
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)


@FAST
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_metrics_identical_under_faults(seed, fast):
    """Fault injection is the cancel-heavy regime: retry timers are armed and
    canceled in bulk, driving lazy cancellation and compaction on the fast
    path.  Outcome and metrics must still match the heap discipline
    exactly."""
    spec = FaultSpec(drop_prob=0.02, seed=seed)
    res_heap, m_heap = _replay(seed, "primitives", fast=False, faults=spec)
    res_alt, m_alt = _replay(seed, "primitives", fast=fast, faults=spec)
    assert res_heap == res_alt
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)


@FAST
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_streams_identical(protocol, fast, tmp_path):
    """Stronger than metrics: the full trace event stream (every message,
    state transition and kernel instant, with timestamps and sequence) must
    be byte-identical between disciplines."""
    heap_trace = tmp_path / "heap.jsonl"
    alt_trace = tmp_path / "fast.jsonl"
    res_heap, m_heap = _replay(11, protocol, fast=False, trace_path=heap_trace)
    res_alt, m_alt = _replay(11, protocol, fast=fast, trace_path=alt_trace)
    assert res_heap == res_alt
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)
    heap_lines = heap_trace.read_text().splitlines()
    alt_lines = alt_trace.read_text().splitlines()
    assert len(heap_lines) == len(alt_lines)
    for i, (a, b) in enumerate(zip(heap_lines, alt_lines)):
        assert a == b, f"trace diverges at event {i}:\n  heap: {a}\n  fast: {b}"


@FAST
def test_trace_streams_identical_with_faults(fast, tmp_path):
    heap_trace = tmp_path / "heap.jsonl"
    alt_trace = tmp_path / "fast.jsonl"
    spec = FaultSpec(drop_prob=0.02, seed=5)
    res_heap, _ = _replay(5, "primitives", fast=False, faults=spec,
                          trace_path=heap_trace)
    res_alt, _ = _replay(5, "primitives", fast=fast, faults=spec,
                         trace_path=alt_trace)
    assert res_heap == res_alt
    assert heap_trace.read_text() == alt_trace.read_text()


#: sha256 of the JSONL trace stream of ``_replay(11, protocol)``: send and
#: route instants, delivery spans, ``resume:wbi-home-...`` process names
#: and kernel instants.  Recorded before the lean event path (DESIGN.md
#: §7.7), which changed both disciplines at once, so the heap-vs-fast
#: diff above could not have caught a shared drift.
TRACE_SHA256 = {
    "wbi": "887f47f7ef07c9ddc5831d50431bce786a8cfc63fcbae3b82cdfffa46c105d59",
    "primitives": "7fa0fe0d725e299cbd0ba76bd44af762c1b5f8acfa84eab6f385055369984793",
    "writeupdate": "e4150618f363f4aa21611c3833a6d40f639acb720378e32a59b6cacfb8c8a2b1",
}


@pytest.mark.parametrize("fast", [False, True], ids=["heap", "fast"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_stream_matches_golden(protocol, fast, tmp_path):
    trace = tmp_path / "trace.jsonl"
    _replay(11, protocol, fast=fast, trace_path=trace)
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_SHA256[protocol]
