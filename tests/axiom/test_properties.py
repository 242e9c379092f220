"""Property-based tests over randomly generated litmus programs.

Two structural theorems of the axiomatic model, checked on programs the
corpus never hand-picked:

* **monotonicity** — A(sc) ⊆ A(wo) ⊆ A(rc) = A(bc): every outcome a
  stronger model admits survives under a weaker one, and bc/rc coincide
  (same drain kinds; the release ack is latency, not visibility);
* **DRF guarantee** — a program the analyzer calls non-relaxable (in
  particular every properly-labeled / data-race-free program) admits
  exactly its SC outcomes under all four models.
"""

from hypothesis import given, settings, strategies as st

from repro.axiom import ax_model_for, litmus_event_graph
from repro.static.drf import classify_litmus
from repro.verify.litmus import ACQ, BAR, LitmusTest, R, REL, W
from tests.axiom.referees import allowed_outcomes_for_graph

_AX = {name: ax_model_for(name) for name in ("sc", "bc", "wo", "rc")}


@st.composite
def small_litmus(draw):
    """2–3 threads of 1–2 accesses over {x, y}, optionally wrapped in a
    shared lock and synchronized by a barrier — small enough that full
    enumeration is instant, rich enough to race or not."""
    n_threads = draw(st.integers(2, 3))
    use_lock = draw(st.booleans())
    use_bar = draw(st.booleans())
    reg = 0
    threads = []
    for _ in range(n_threads):
        ops = []
        for _ in range(draw(st.integers(1, 2))):
            var = draw(st.sampled_from(("x", "y")))
            if draw(st.booleans()):
                ops.append(W(var, draw(st.integers(1, 2))))
            else:
                ops.append(R(var, f"r{reg}"))
                reg += 1
        if use_lock and draw(st.booleans()):
            ops = [ACQ("L"), *ops, REL("L")]
        if use_bar:
            ops.insert(draw(st.integers(0, len(ops))), BAR("b"))
        threads.append(tuple(ops))
    return LitmusTest(
        name="prop", description="", threads=tuple(threads),
        sc_outcomes=frozenset(), relaxed_outcomes=frozenset(),
    )


def _allowed(test):
    g = litmus_event_graph(test)
    return {name: allowed_outcomes_for_graph(g, ax) for name, ax in _AX.items()}


@given(small_litmus())
@settings(max_examples=60, deadline=None)
def test_model_chain_is_monotone(test):
    a = _allowed(test)
    kinds = {op.kind for ops in test.threads for op in ops}
    if not ("acquire" in kinds and "barrier" in kinds):
        # Lock+barrier programs can deadlock (a thread holding the lock
        # waits at the barrier for a thread stuck in acquire) — then
        # every candidate execution is cyclic and the empty set is
        # correct.  Anything else always has a consistent execution.
        assert a["sc"], "program without lock/barrier interplay must execute"
    assert a["sc"] <= a["wo"] <= a["rc"]
    assert a["rc"] == a["bc"]


@given(small_litmus())
@settings(max_examples=60, deadline=None)
def test_non_relaxable_programs_are_sc_only(test):
    cls = classify_litmus(test.threads)
    a = _allowed(test)
    if not cls.relaxable:
        assert a["bc"] == a["wo"] == a["rc"] == a["sc"], cls
    if cls.properly_labeled:  # the DRF guarantee, by name
        assert a["bc"] == a["sc"]


@given(small_litmus())
@settings(max_examples=40, deadline=None)
def test_relaxation_never_loses_sc_outcomes(test):
    """Weak models widen, never shift: the SC set is always included,
    so a weak machine can still legitimately look sequentially
    consistent on any single run."""
    a = _allowed(test)
    for name in ("bc", "wo", "rc"):
        assert a["sc"] <= a[name]
