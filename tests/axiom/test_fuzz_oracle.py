"""The axiomatic consume oracle vs the DRF analyzer's derived one.

Two independent derivations of the same allowed-value sets: the DRF
analyzer partitions by barrier-phase arithmetic over its IR, the
axiomatic oracle rebuilds the event graph and takes reachability
closures.  They must agree on every consume site of a large generated
corpus — and did not, once: the performed-order closure (where delayed
writes drop their po edges) wrongly classified a next-round publish as
concurrent with an earlier-round probe.  The pinned program keeps that
issue-order bug dead.
"""

from functools import partial

import numpy as np

from repro.static.drf import derive_consume_allowed
from repro.verify.fuzz import Atom, Program, gen_program, run_program
from tests.axiom.referees import axiom_consume_allowed


def _consume_sites(program):
    for ri, rnd in enumerate(program.rounds):
        for t in range(program.n_threads):
            for atom in rnd[t]:
                if atom.kind == "consume":
                    yield ri, atom.arg


def test_oracles_agree_on_a_500_seed_corpus():
    checked = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        p = gen_program(
            rng,
            n_threads=int(rng.integers(2, 4)),
            n_rounds=int(rng.integers(1, 4)),
        )
        for ri, target in _consume_sites(p):
            drf = derive_consume_allowed(p, ri, target)
            ax = axiom_consume_allowed(p, ri, target)
            assert drf == ax, (seed, ri, target, sorted(drf), sorted(ax))
            checked += 1
    assert checked > 800  # the corpus actually exercises the oracle


def test_issue_order_regression_next_round_publish_is_invisible():
    """gen_program seed 14: thread 0 consumes slot 1 in round 1; slot 1's
    only publish is issued by thread 1 in round 2 — after the barrier
    the consuming round precedes — so only the initial 0 is visible.
    The performed-order bug admitted {0, 1} here."""
    rng = np.random.default_rng(14)
    p = gen_program(
        rng,
        n_threads=int(rng.integers(2, 4)),
        n_rounds=int(rng.integers(1, 4)),
    )
    assert [a.kind for a in p.rounds[2][1]].count("publish") == 1
    assert derive_consume_allowed(p, 1, 1) == {0}
    assert axiom_consume_allowed(p, 1, 1) == {0}


def test_axiom_oracle_sees_concurrent_and_prior_round_values():
    p = Program(
        n_threads=2,
        rounds=(
            ((Atom("publish", 5),), (Atom("consume", 0),)),
            ((Atom("publish", 7),), (Atom("consume", 0),)),
        ),
    )
    # Round 0: publish 5 races the consume — {0, 5}.
    assert axiom_consume_allowed(p, 0, 0) == {0, 5}
    # Round 1: 5 is settled by the barrier, 7 races — {5, 7}.
    assert axiom_consume_allowed(p, 1, 0) == {5, 7}


def test_single_round_program_has_no_barrier_to_settle():
    p = Program(
        n_threads=2,
        rounds=(((Atom("publish", 9),), (Atom("consume", 0),)),),
    )
    assert axiom_consume_allowed(p, 0, 0) == {0, 9} == derive_consume_allowed(p, 0, 0)


def test_run_program_accepts_the_axiom_oracle(monkeypatch):
    monkeypatch.setattr(
        "repro.verify.fuzz.consume_oracle", lambda p: partial(axiom_consume_allowed, p)
    )
    p = gen_program(np.random.default_rng(11), n_threads=2, n_rounds=2)
    assert run_program(p, "primitives", "bc", seed=11, jitter=2.0) is None
