"""Property-based exactness of the partial-order-reduced engine.

The corpus referee (:mod:`tests.axiom.test_scale`) pins reduced ≡
exhaustive on the hand-written litmus tests; this file holds the same
equality over *randomly generated* programs — every protocol × model
pair, with and without the DRF short-circuit — so the reduction's
pruning has no blind spot the corpus happened to miss.

Pinned regressions at the bottom re-run deterministic shapes that
exercise the reduction's trickiest paths (deadlockable lock+barrier
interplay, same-location write stacks, read-only programs).
"""

import pytest
from hypothesis import given, settings

from repro.axiom import ax_model_for, litmus_event_graph, reduced_outcomes_for_graph
from repro.static.drf import classify_litmus
from repro.verify.litmus import ACQ, BAR, MODELS, PROTOCOLS, LitmusTest, R, REL, W
from tests.axiom.referees import allowed_outcomes_for_graph

from .test_properties import small_litmus

_AX = {
    (model, proto): ax_model_for(model, proto)
    for model in MODELS
    for proto in PROTOCOLS
}


@given(small_litmus())
@settings(max_examples=60, deadline=None)
def test_reduced_equals_exhaustive_on_random_programs(test):
    g = litmus_event_graph(test)
    for key, ax in _AX.items():
        assert reduced_outcomes_for_graph(g, ax) == \
            allowed_outcomes_for_graph(g, ax), key


@given(small_litmus())
@settings(max_examples=40, deadline=None)
def test_drf_shortcircuit_does_not_change_the_answer(test):
    """R0 (non-relaxable ⇒ drop write delay) is an *optimization*: wiring
    the classifier's verdict in must leave every outcome set untouched."""
    g = litmus_event_graph(test)
    cls = classify_litmus(test.threads)
    for key, ax in _AX.items():
        with_cls = reduced_outcomes_for_graph(g, ax, classification=cls)
        without = reduced_outcomes_for_graph(g, ax)
        assert with_cls == without, key


# -- pinned regressions -------------------------------------------------------
#: Deterministic shapes covering the reduction's hard paths.  None of
#: these ever disagreed — they pin the strategy's most fragile draws so a
#: future engine change fails loudly without waiting on hypothesis luck.
_PINNED = (
    # Lock+barrier deadlock: whichever thread wins the lock waits at the
    # barrier still holding it, and the loser never arrives — *every*
    # candidate execution is cyclic, so the correct answer is the empty
    # set; the reduced engine must not "helpfully" invent an outcome.
    LitmusTest(
        name="pin-deadlock", description="", threads=(
            (ACQ("L"), W("x", 1), BAR("b"), REL("L")),
            (ACQ("L"), R("x", "r0"), BAR("b"), REL("L")),
        ),
        sc_outcomes=frozenset(), relaxed_outcomes=frozenset(),
    ),
    # Same-location write stack: co enumeration dominates; R2's
    # incremental per-location ordering must match the referee exactly.
    LitmusTest(
        name="pin-co-stack", description="", threads=(
            (W("x", 1), W("x", 2)),
            (W("x", 3), R("x", "r0")),
            (R("x", "r1"),),
        ),
        sc_outcomes=frozenset(), relaxed_outcomes=frozenset(),
    ),
    # Read-only program: no co/rf choices at all; the degenerate case.
    LitmusTest(
        name="pin-read-only", description="", threads=(
            (R("x", "r0"), R("y", "r1")),
            (R("y", "r2"),),
        ),
        sc_outcomes=frozenset(), relaxed_outcomes=frozenset(),
    ),
    # Unsynchronized write-first racer across locations: the shape where
    # write-delay relaxation actually widens the set.
    LitmusTest(
        name="pin-racer", description="", threads=(
            (W("x", 1), W("y", 1)),
            (W("y", 2), W("x", 2), R("x", "r0")),
        ),
        sc_outcomes=frozenset(), relaxed_outcomes=frozenset(),
    ),
)


@pytest.mark.parametrize("test", _PINNED, ids=lambda t: t.name)
def test_pinned_regressions(test):
    g = litmus_event_graph(test)
    cls = classify_litmus(test.threads)
    for key, ax in _AX.items():
        exhaustive = allowed_outcomes_for_graph(g, ax)
        assert reduced_outcomes_for_graph(g, ax) == exhaustive, key
        assert reduced_outcomes_for_graph(g, ax, classification=cls) == \
            exhaustive, key


def test_pinned_deadlock_shape_is_really_empty():
    """The deadlock pin must stay a deadlock (guards the pin itself)."""
    g = litmus_event_graph(_PINNED[0])
    assert allowed_outcomes_for_graph(g, ax_model_for("sc")) == frozenset()
