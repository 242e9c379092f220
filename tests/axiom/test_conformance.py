"""Single-execution conformance over real workload traces.

The acceptance pins for :mod:`repro.axiom.conformance`:

* clean traces of the tier-1 workloads (syncmodel, workqueue) pass with
  real coverage — global writes performed, critical sections paired;
* a seeded mutation of a passing trace is flagged (the checker is not
  vacuous): inverting one writer's same-word perform order, or deleting
  a perform that a release drained;
* a machine running an intentionally broken model
  (:class:`~repro.consistency.faults.NoReleaseFenceBC`) fails the drain
  bound on its very first trace;
* the fault/recovery layer preserves the model: a run with targeted
  message drops — retries and all — still conformance-checks clean, its
  replayed writes collapsed to single logical events;
* the CLI (``--conform``) keeps its exit-code contract.
"""

import json

import numpy as np
import pytest

from repro.axiom import check_trace, conformance_report
from repro.axiom.cli import main as axiom_main
from repro.consistency.faults import NoReleaseFenceBC
from repro.faults.plan import FaultSpec
from repro.obs import ObsParams
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.verify.fuzz import gen_program, run_program
from repro.workloads.syncmodel import SyncModelParams, SyncModelWorkload
from repro.workloads.workqueue import WorkQueueParams, WorkQueueWorkload

FULL_SIZE = dict(n_threads=4, n_rounds=3, max_atoms_per_round=3)


def _sync_machine(seed=1):
    """A syncmodel run hot enough to exercise every check: elevated
    shared/lock ratios so tasks issue real global writes, not just
    cache-resident traffic."""
    cfg = MachineConfig(
        n_nodes=4, cache_blocks=128, cache_assoc=2, seed=seed, obs=ObsParams()
    )
    machine = Machine(cfg, protocol="primitives")
    params = SyncModelParams(
        tasks_per_node=3, grain_size=40, shared_ratio=0.3,
        read_ratio=0.6, lock_ratio=0.7,
    )
    SyncModelWorkload(machine, params, lock_scheme="cbl", consistency="bc").run()
    return machine


def _events(machine):
    return [e.to_dict() for e in machine.obs.events]


# -- clean workload traces pass with coverage --------------------------------

def test_syncmodel_trace_conforms():
    machine = _sync_machine()
    report = check_trace(machine.obs.events)
    assert report.ok, report.describe()
    assert report.counts["performs"] >= 20
    assert report.counts["issues"] == report.counts["performs"]
    assert report.counts["drain_spans"] > 0
    assert report.counts["sections"] > 0
    assert report.counts["duplicates_collapsed"] == 0


def test_workqueue_trace_conforms():
    cfg = MachineConfig(
        n_nodes=4, cache_blocks=128, cache_assoc=2, seed=2, obs=ObsParams()
    )
    machine = Machine(cfg, protocol="primitives")
    params = WorkQueueParams(n_tasks=12, grain_size=30, shared_ratio_task=0.2)
    WorkQueueWorkload(machine, params, lock_scheme="cbl", consistency="bc").run()
    report = check_trace(machine.obs.events)
    assert report.ok, report.describe()
    assert report.counts["performs"] > 0
    assert report.counts["sections"] > 0


def test_report_shapes():
    machine = _sync_machine()
    report = check_trace(machine.obs.events)
    assert "conformance: OK" in report.describe()
    d = report.to_dict()
    assert d["ok"] is True and d["violations"] == []
    assert d["counts"]["performs"] == report.counts["performs"]


# -- seeded mutations are flagged (the checker is not vacuous) ----------------

def _mutate_swap_same_writer_performs(events):
    """Invert one writer's same-word perform order at the home."""
    by_key = {}
    for i, ev in enumerate(events):
        if ev.get("cat") == "mem" and ev.get("name") == "mem.perform":
            args = ev["args"]
            by_key.setdefault((args["src"], args["word"]), []).append(i)
    for key in sorted(by_key):
        idx = by_key[key]
        if len(idx) >= 2:
            i, j = idx[0], idx[1]
            events[i], events[j] = events[j], events[i]
            return events
    pytest.skip("no writer performed the same word twice in this trace")


def _mutate_drop_drained_perform(events):
    """Delete a perform whose issue a later release claims to have
    drained — the signature of a lost global write."""
    for i, ev in enumerate(events):
        if ev.get("cat") == "mem" and ev.get("name") == "mem.perform":
            del events[i]
            return events
    pytest.skip("no performs in this trace")


def test_swapped_perform_order_is_flagged():
    events = _mutate_swap_same_writer_performs(_events(_sync_machine()))
    report = check_trace(events)
    assert not report.ok
    assert "same-word-order" in {v.kind for v in report.violations}


def test_dropped_perform_is_flagged():
    events = _mutate_drop_drained_perform(_events(_sync_machine()))
    report = check_trace(events)
    assert not report.ok
    assert "drain-bound" in {v.kind for v in report.violations}


# -- broken model fails the drain bound ---------------------------------------

def test_no_release_fence_model_fails_conformance(tmp_path):
    """The fault model that skips FLUSH-BUFFER before CP-Synch leaks
    buffered writes past the release — exactly the drain-bound axiom."""
    program = gen_program(np.random.default_rng(11), **FULL_SIZE)
    path = str(tmp_path / "broken.trace")
    run_program(
        program, "primitives", NoReleaseFenceBC(), seed=0, jitter=4.0,
        trace_path=path,
    )
    report = conformance_report(path)
    assert not report.ok
    assert {v.kind for v in report.violations} == {"drain-bound"}
    # The honest model on the identical program/schedule passes.
    clean = str(tmp_path / "clean.trace")
    run_program(program, "primitives", "bc", seed=0, jitter=4.0, trace_path=clean)
    assert conformance_report(clean).ok


# -- fault/recovery layer preserves the model ---------------------------------

def test_targeted_drop_recovery_conforms():
    """Retried/replayed global writes collapse to single logical events:
    a run that provably lost and re-sent writes still satisfies every
    axiom, with no duplicate performs surviving to the trace."""
    cfg = MachineConfig(
        n_nodes=8, cache_blocks=64, cache_assoc=2, seed=7, obs=ObsParams()
    )
    spec = FaultSpec(
        targeted=(("GLOBAL_WRITE", 2, 3), ("GLOBAL_WRITE_ACK", 1, 2)), seed=3
    )
    machine = Machine(cfg, "primitives", faults=spec)
    lock_block = machine.alloc_block()
    bar_block = machine.alloc_block()
    ctr = machine.alloc_word()
    machine.poke(ctr, 0)

    def worker(t):
        proc = machine.processor(t % 8, consistency="bc")
        machine._processors.append(proc)

        def body():
            for _ in range(3):
                yield from proc.compute(5 + t)
                yield from proc.model.pre_acquire(proc)
                yield from proc.node.cbl.acquire(lock_block, "write")
                value = yield from proc.read_global(ctr)
                yield from proc.shared_write(ctr, value + 1)
                yield from proc.model.pre_release(proc)
                yield from proc.node.cbl.release(
                    lock_block, want_ack=proc.model.release_wants_ack
                )
                yield from proc.rmw(ctr, "fetch_add", 0)
            yield from proc.node.barrier_engine.wait(bar_block, 4)

        return body()

    for t in range(4):
        machine.spawn(worker(t), name=f"w{t}")
    machine.run_all(max_cycles=2_000_000)
    metrics = machine.metrics()
    assert metrics.retries > 0  # recovery actually happened
    assert metrics.faults["fault.targeted_drops"] > 0
    report = check_trace(machine.obs.events)
    assert report.ok, report.describe()
    assert report.counts["rmws"] >= 12
    assert report.counts["duplicates_collapsed"] == 0


# -- duplicate collapse (defense beyond the home's dedup) ---------------------

def _perform(index_ts, word, value, src, entry):
    return {
        "ts": index_ts, "ph": "i", "name": "mem.perform", "cat": "mem",
        "tid": 0, "args": {"word": word, "value": value, "src": src, "entry": entry},
    }


def test_duplicate_perform_same_value_collapses():
    events = [_perform(1.0, 5, 42, 0, 0), _perform(2.0, 5, 42, 0, 0)]
    report = check_trace(events)
    assert report.ok
    assert report.counts["duplicates_collapsed"] == 1
    assert report.counts["performs"] == 1


def test_duplicate_perform_conflicting_value_is_flagged():
    events = [_perform(1.0, 5, 42, 0, 0), _perform(2.0, 5, 43, 0, 0)]
    report = check_trace(events)
    assert not report.ok
    assert [v.kind for v in report.violations] == ["duplicate-perform"]


# -- CLI exit codes -----------------------------------------------------------

def test_cli_conform_exit_codes(tmp_path, capsys):
    program = gen_program(np.random.default_rng(11), **FULL_SIZE)
    clean = str(tmp_path / "clean.trace")
    run_program(program, "primitives", "bc", seed=0, jitter=4.0, trace_path=clean)
    verdict = str(tmp_path / "verdict.json")
    assert axiom_main(["--conform", clean, "--json", verdict]) == 0
    assert json.load(open(verdict))["ok"] is True
    assert "conformance: OK" in capsys.readouterr().out

    broken = str(tmp_path / "broken.trace")
    run_program(
        program, "primitives", NoReleaseFenceBC(), seed=0, jitter=4.0,
        trace_path=broken,
    )
    assert axiom_main(["--conform", broken, "-q"]) == 1

    assert axiom_main(["--conform", str(tmp_path / "missing.trace")]) == 2


def test_cli_at_scale_writes_artifact(tmp_path, capsys):
    out = str(tmp_path / "scale.json")
    assert axiom_main(
        ["--at-scale", "--programs", "2", "--budget-seconds", "30", "--json", out]
    ) == 0
    data = json.load(open(out))
    assert data["budget_seconds"] == 30.0
    assert [r["ok"] for r in data["rows"]] == [True, True]
    assert all(r["naive_space"] > 1 for r in data["rows"])
    assert "at-scale sweep OK" in capsys.readouterr().out
