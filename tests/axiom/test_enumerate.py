"""Candidate-execution enumeration (the exhaustive referee in
``tests/axiom/referees.py``).

Unit-level pins on the enumerator itself: executions carry coherent
rf/co witnesses, the per-word chain constrains coherence order, lock
orders generate both critical-section interleavings, and the issue-order
closure keeps future writes out of reads-from — the soundness property
whose absence once admitted a machine-impossible mp+lock outcome.
"""

from repro.axiom import allowed_outcomes, ax_model_for, litmus_event_graph
from repro.verify.litmus import LITMUS_TESTS, outcome
from tests.axiom.referees import (
    allowed_outcomes_for_graph,
    count_executions,
    enumerate_executions,
)

TESTS = {t.name: t for t in LITMUS_TESTS}


def test_sb_sc_enumeration_matches_hand_derived_set():
    assert allowed_outcomes(TESTS["sb"], "sc") == TESTS["sb"].sc_outcomes


def test_executions_carry_checkable_witnesses():
    g = litmus_event_graph(TESTS["sb"])
    ax = ax_model_for("bc")
    execs = list(enumerate_executions(g, ax))
    assert execs
    relaxed = [e for e in execs if e.outcome == outcome(r0=0, r1=0)]
    assert relaxed, "bc must admit sb's store-buffering outcome"
    for ex in execs:
        rf = dict(ex.rf)
        co = dict(ex.co)
        # every read has a writer; every co starts at the init write
        assert set(rf) == set(g.reads())
        for var, order in co.items():
            assert order[0] == g.init_of[var]


def test_coww_coherence_respects_the_per_word_chain():
    """t0 writes x=1 then x=2: no execution may order 2 before 1, so the
    final value 1 (co ending at the first write) never appears."""
    t = TESTS["coww"]
    g = litmus_event_graph(t)
    w1, w2 = g.threads[0]
    for model in ("sc", "bc", "wo", "rc"):
        for ex in enumerate_executions(g, ax_model_for(model), finals=t.finals):
            order = dict(ex.co)["x"]
            assert order.index(w1) < order.index(w2), (model, ex)


def test_lock_order_enumeration_reaches_both_interleavings():
    t = TESTS["lock-inc"]
    g = litmus_event_graph(t)
    orders = {ex.lock_order for ex in enumerate_executions(g, ax_model_for("sc"), finals=t.finals)}
    assert orders == {(("L", (0, 1)),), (("L", (1, 0)),)}


def test_issue_order_excludes_future_writes():
    """The mp+lock soundness pin: under the reader-first lock order the
    writer's delayed W(x) has no *performed* po edge to W(t), but the
    reader's R(t) must still never read the writer's W(t) — the writer
    has not issued it yet when the reader holds the lock.  Dropping the
    issue-order closure admitted (r0=1, r1=0) here; the machine can
    never produce it."""
    t = TESTS["mp+lock"]
    for model in ("bc", "wo", "rc"):
        assert allowed_outcomes(t, model) == t.sc_outcomes, model


def test_delayed_writes_are_transparent_to_the_ordering_chain():
    """Found by the hypothesis monotonicity property: a read whose only
    po predecessor is a delayed write still issues after the thread's
    earlier barrier completed — only the write's *performance* floats.
    Without chain transparency the enumerator let t0's read miss the
    x-write that t2's barrier arrival had already drained, admitting a
    machine-impossible outcome."""
    from repro.verify.litmus import ACQ, BAR, LitmusTest, R, REL, W, outcome

    t = LitmusTest(
        name="chain-transparency", description="",
        threads=(
            (BAR("b"), W("y", 1), R("x", "r0")),
            (BAR("b"), R("x", "r1")),
            (ACQ("L"), W("x", 1), BAR("b"), REL("L")),
        ),
        sc_outcomes=frozenset(), relaxed_outcomes=frozenset(),
    )
    g = litmus_event_graph(t)
    for model in ("sc", "bc", "wo", "rc"):
        got = allowed_outcomes_for_graph(g, ax_model_for(model))
        assert got == frozenset({outcome(r0=1, r1=1)}), (model, sorted(got))


def test_count_executions_orders_models_by_strength():
    """The delaying models admit at least as many consistent executions
    as sc, and counting is deterministic."""
    t = TESTS["sb"]
    n_sc = count_executions(t, "sc")
    n_bc = count_executions(t, "bc")
    assert 0 < n_sc <= n_bc
    assert count_executions(t, "bc") == n_bc


def test_value_resolution_chains_increments():
    """lock-inc's increments read-through rf: the final counter is exact
    and each register matches its read's source value."""
    t = TESTS["lock-inc"]
    finals = {dict(ex.outcome)["c!"] for ex in enumerate_executions(
        litmus_event_graph(t), ax_model_for("rc"), finals=t.finals
    )}
    assert finals == {2}


def test_non_delaying_protocols_collapse_to_sc():
    for model in ("bc", "wo", "rc"):
        for proto in ("wbi", "writeupdate"):
            assert (
                allowed_outcomes(TESTS["sb"], model, proto)
                == TESTS["sb"].sc_outcomes
            )
