"""The DRF analyzer over fuzzer programs: lowering, classification, and the
derived consume oracle (:func:`repro.static.drf.derive_consume_allowed`)."""

import numpy as np
import pytest

from repro.static.drf import (
    ROUND_BARRIER,
    analyze_program,
    consume_oracle,
    derive_consume_allowed,
    lower_fuzz_program,
)
from repro.verify.fuzz import Atom, Program, consume_allowed, gen_program


def prog(*rounds, n_threads=2):
    return Program(n_threads=n_threads, rounds=tuple(rounds))


# -- lowering ----------------------------------------------------------------
def test_private_traffic_never_conflicts():
    p = prog(((Atom("private", 2),), (Atom("private", 2),)))
    ir = lower_fuzz_program(p)
    assert {a.var for a in ir.accesses} == {"private:0", "private:1"}
    assert analyze_program(p).properly_labeled


def test_lock_inc_lowers_inside_the_critical_section():
    p = prog(((Atom("lock_inc", 3),), ()))
    ir = lower_fuzz_program(p)
    read, write = ir.accesses
    assert read.var == write.var == "lockctr:3"
    assert read.locks == write.locks == frozenset({"lock:3"})
    assert not read.is_write and write.is_write


def test_rmw_inc_is_a_labeled_access():
    p = prog(((Atom("rmw_inc"),), (Atom("rmw_inc"),)))
    ir = lower_fuzz_program(p)
    assert all(a.labeled and a.var == "rmw" for a in ir.accesses)
    # Two labeled accesses may conflict without racing.
    assert analyze_program(p).properly_labeled


def test_round_boundary_becomes_a_barrier_crossing():
    p = prog(
        ((Atom("publish", 1),), ()),
        ((), (Atom("consume", 0),)),
    )
    ir = lower_fuzz_program(p)
    assert all(t[ROUND_BARRIER] == 1 for t in ir.barrier_totals)
    consume = next(a for a in ir.accesses if a.kind == "consume")
    assert consume.phases[ROUND_BARRIER] == 1


def test_single_round_program_has_no_implicit_barrier():
    # run_program only builds a HWBarrier when len(rounds) > 1; the
    # lowering must match or it would invent ordering that never executes.
    p = prog(((Atom("publish", 1),), (Atom("consume", 0),)))
    ir = lower_fuzz_program(p)
    assert all(not t for t in ir.barrier_totals)


# -- classification ----------------------------------------------------------
def test_same_round_publish_consume_races():
    p = prog(((Atom("publish", 1),), (Atom("consume", 0),)))
    cls = analyze_program(p)
    assert not cls.properly_labeled
    assert cls.races[0].var == "slot:0"


def test_cross_round_publish_consume_is_ordered():
    p = prog(
        ((Atom("publish", 1),), ()),
        ((), (Atom("consume", 0),)),
    )
    assert analyze_program(p).properly_labeled


def test_shared_lock_orders_counter_traffic():
    same = prog(((Atom("lock_inc", 0),), (Atom("lock_inc", 0),)))
    assert analyze_program(same).properly_labeled
    different = prog(((Atom("lock_inc", 0),), (Atom("lock_inc", 1),)))
    # Different locks guard different counters — no conflict either.
    assert analyze_program(different).properly_labeled


def test_generated_multi_round_programs_classify_without_error():
    for seed in range(25):
        p = gen_program(np.random.default_rng(seed))
        cls = analyze_program(p)
        # Races, when present, only ever involve publish/consume slots:
        # everything else is private, lock-protected, or labeled.
        assert all(r.var.startswith("slot:") for r in cls.races)


# -- derived consume oracle --------------------------------------------------
def _closed_form(program, round_idx, target):
    """The hand-coded oracle the derived one replaced (kept as the spec)."""
    last = 0
    for r in range(round_idx):
        for atom in program.rounds[r][target]:
            if atom.kind == "publish":
                last = atom.arg
    allowed = {last}
    for atom in program.rounds[round_idx][target]:
        if atom.kind == "publish":
            allowed.add(atom.arg)
    return allowed


def test_derived_oracle_matches_closed_form_on_generated_corpus():
    for seed in range(120):
        p = gen_program(np.random.default_rng(seed))
        for r in range(len(p.rounds)):
            for target in range(p.n_threads):
                assert derive_consume_allowed(p, r, target) == _closed_form(
                    p, r, target
                ), f"seed={seed} round={r} target={target}"


def test_one_lowering_answers_every_site():
    """``consume_oracle`` lowers a program once and answers each site with
    the set a fresh per-site derivation gives, in any order and however
    often asked; a caller editing one answer does not change the next."""
    for seed in range(60):
        p = gen_program(np.random.default_rng(seed))
        oracle = consume_oracle(p)
        sites = [(r, t) for r in range(len(p.rounds)) for t in range(p.n_threads)]
        for r, target in sites[::-1] + sites:
            got = oracle(r, target)
            assert got == derive_consume_allowed(p, r, target) == _closed_form(p, r, target)
            got.add(-1)


def test_fuzz_consume_allowed_is_the_derived_oracle():
    p = gen_program(np.random.default_rng(7))
    for r in range(len(p.rounds)):
        for target in range(p.n_threads):
            assert consume_allowed(p, r, target) == derive_consume_allowed(
                p, r, target
            )


def test_derived_oracle_hand_cases():
    p = prog(
        ((Atom("publish", 1), Atom("publish", 2)), ()),
        ((), (Atom("consume", 0),)),
        ((Atom("publish", 3),), (Atom("consume", 0),)),
    )
    # Round 0: concurrent with both publishes; initial value still visible.
    assert derive_consume_allowed(p, 0, 0) == {0, 1, 2}
    # Round 1: only the program-order-last prior publish.
    assert derive_consume_allowed(p, 1, 0) == {2}
    # Round 2: last prior value or the concurrent publish.
    assert derive_consume_allowed(p, 2, 0) == {2, 3}
    # A never-published slot reads its initial value.
    assert derive_consume_allowed(p, 1, 1) == {0}


def test_slots_stay_single_writer_under_lowering():
    # publish always writes the executing thread's own slot, so each slot
    # has exactly one writing thread — the invariant the oracle asserts.
    p = prog(((Atom("publish", 1),), (Atom("publish", 9),)))
    ir = lower_fuzz_program(p)
    writers = {a.var: a.thread for a in ir.accesses if a.is_write}
    assert writers == {"slot:0": 0, "slot:1": 1}
    assert derive_consume_allowed(p, 0, 1) == {0, 9}
