"""Tests for the one program harness (:mod:`repro.verify.harness`)."""

import json

import pytest

import repro.verify.harness as harness_mod
from repro.axiom import run_gate
from repro.faults.plan import FaultSpec
from repro.verify.checkers import InvariantViolation
from repro.verify.fuzz import Atom, Program, lower_program
from repro.verify.harness import run
from repro.verify.litmus import (
    ACQ, BAR, INC, LITMUS_TESTS, MODELS, REL, LitmusTest, Op, R, W, lower_test, run_litmus,
)

TESTS = {t.name: t for t in LITMUS_TESTS}

PROGRAM = Program(
    n_threads=2,
    rounds=(
        ((Atom("publish", 1), Atom("lock_inc", 0)), (Atom("private", 2), Atom("rmw_inc", 0))),
        ((Atom("consume", 1),), (Atom("consume", 0), Atom("lock_inc", 0))),
    ),
)


# -- lowering --------------------------------------------------------------
def test_fuzz_atoms_lower_to_harness_ops():
    low = lower_program(PROGRAM)
    assert low.threads[0] == (
        W("slot:0", 1), ACQ("lock:0"), INC("lockctr:0", ""), REL("lock:0"),
        BAR("__round__"), R("slot:1", ""),
    )
    assert low.threads[1] == (
        Op("private", "private:1"), Op("private", "private:1"), Op("rmw", "rmw", 1),
        BAR("__round__"), R("slot:0", ""), ACQ("lock:0"), INC("lockctr:0", ""), REL("lock:0"),
    )


def test_fuzz_declarations_keep_the_historical_allocation_order():
    low = lower_program(PROGRAM)
    assert [d[:2] for d in low.decls] == [
        ("shared", "slot:0"), ("shared", "slot:1"),
        ("private", "private:0"), ("private", "private:1"),
        ("shared", "rmw"), ("lock", "lock:0"), ("shared", "lockctr:0"),
        ("barrier", "__round__"),
    ]
    assert low.decls[-1][2] == 2
    assert (low.n_nodes, low.jitter_stream, low.spawn_names) == (4, "fuzz.jitter", ("fuzz.t0", "fuzz.t1"))


def test_litmus_declarations_follow_first_use_with_init_values():
    low = lower_test(TESTS["mp+lock"])
    assert low.decls == (("lock", "L", None), ("shared", "x", 0), ("shared", "t", 0))
    assert lower_test(TESTS["mp+barrier"]).decls[1] == ("barrier", "b", 2)
    assert lower_test(TESTS["iriw"]).n_nodes == 4
    five = LitmusTest("five", tuple((W(f"x{i}", 1),) for i in range(5)), frozenset())
    assert lower_test(five).n_nodes == 8
    assert low.spawn_names == ("litmus.mp+lock.t0", "litmus.mp+lock.t1")


# -- one call drives either corpus, with faults and a trace -----------------
def _assert_traced_faulty_run(low, tmp_path):
    path = tmp_path / "run.trace"
    plans = []
    out = run(
        low, "primitives", "bc", seed=1, jitter=2.0,
        faults=FaultSpec(drop_prob=0.05, seed=11), trace_path=str(path),
        on_machine=lambda m: plans.append(m.fault_plan),
    )
    assert out.hang is None and out.failures == []
    assert plans and plans[0] is not None
    lines = path.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)
    return out


def test_one_harness_call_drives_a_litmus_test(tmp_path):
    out = _assert_traced_faulty_run(lower_test(TESTS["lock-inc"]), tmp_path)
    assert sorted(op.reg for _, _, op, _ in out.reads) == ["r0", "r1"]
    assert out.finals == {"c": 2}


def test_one_harness_call_drives_a_fuzz_program(tmp_path):
    out = _assert_traced_faulty_run(lower_program(PROGRAM), tmp_path)
    assert out.finals == {"lockctr:0": 2, "rmw": 1}
    assert [e.old for e in out.rmw] == [0]
    # Consumes record (thread, phase, op, value); both sit in round 1.
    assert sorted((t, ph, v) for t, ph, op, v in out.reads if op.kind == "r") == [
        (0, 1, 0), (1, 1, 1),
    ]


def test_run_litmus_takes_faults_and_trace(tmp_path):
    path = tmp_path / "litmus.trace"
    got = run_litmus(
        TESTS["mp+lock"], "primitives", "bc", seed=0, jitter=2.0,
        faults=FaultSpec(drop_prob=0.05, seed=3), trace_path=str(path),
    )
    assert got in TESTS["mp+lock"].sc_outcomes
    assert path.stat().st_size > 0


# -- the structural walk on every run ----------------------------------------
def test_every_gate_run_gets_the_structural_walk(monkeypatch):
    """One gate row sweeps 3 seeds x 2 jitters: six runs, six walks."""
    walks = []
    real_check_all = harness_mod.check_all

    def counting_check_all(machine):
        walks.append(machine.protocol)
        return real_check_all(machine)

    monkeypatch.setattr(harness_mod, "check_all", counting_check_all)
    report = run_gate(tests=[TESTS["mp"]], protocols=["primitives"], models=("bc",))
    assert len(report.rows) == 1 and report.ok
    assert walks == ["primitives"] * 6


def test_litmus_walk_failure_raises_naming_the_run(monkeypatch):
    def failing_check_all(machine):
        raise InvariantViolation("block 9: planted")

    monkeypatch.setattr(harness_mod, "check_all", failing_check_all)
    with pytest.raises(InvariantViolation) as info:
        run_litmus(TESTS["sb"], "wbi", "rc", seed=2, jitter=2.0)
    msg = str(info.value)
    for part in ("'sb'", "wbi", "rc", "seed 2", "jitter 2.0", "block 9: planted"):
        assert part in msg


@pytest.mark.parametrize("model", MODELS)
def test_corw2_on_writeupdate_passes_the_structural_walk(model):
    """Regression: a write-update home push ordered before this node's own
    write to the word must not overwrite the newer local value (the
    writer's copy used to disagree with memory at quiescence).
    ``run_litmus`` raises when the walk fails."""
    for seed in range(3):
        for jitter in (0.0, 2.0):
            run_litmus(TESTS["corw2"], "writeupdate", model, seed=seed, jitter=jitter)
