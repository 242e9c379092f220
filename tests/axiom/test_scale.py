"""The partial-order-reduced engine: exactness, scale, and projection.

Four pins:

* **corpus referee** — the reduced engine is bit-identical to the
  exhaustive enumerator on every litmus test × model × protocol row (the
  exhaustive engine is kept verbatim as the referee);
* **scale** — a full-size fuzzer program (4 threads × 3 rounds × 3 atoms)
  enumerates in well under the 10-second budget, on inputs whose naive
  candidate space is astronomically large, and matches the exhaustive
  referee on a pinned full-size program;
* **decomposition** — the round-by-round composition equals one reduced
  enumeration of the whole program graph;
* **projection** — the scale engine's consume sets are contained in both
  independent oracles (DRF-derived and event-graph closure), so using it
  as a fuzz oracle can only tighten, never miss, a true failure; and a
  fault-free campaign checked against it passes on every protocol ×
  model pair.
"""

import time
from functools import partial

import numpy as np
import pytest

from repro.axiom import (
    AxiomBudgetExceeded,
    allowed_outcomes,
    allowed_outcomes_for_graph,
    ax_model_for,
    axiom_consume_allowed,
    estimate_candidate_space,
    fuzz_allowed_outcomes,
    fuzz_consume_allowed,
    fuzz_program_event_graph,
    litmus_event_graph,
    reduced_outcomes_for_graph,
)
from repro.axiom.scale import _FUZZ_AX
from repro.static.drf import derive_consume_allowed
from repro.verify.fuzz import fuzz, gen_program
from repro.verify.litmus import LITMUS_TESTS, MODELS

FULL_SIZE = dict(n_threads=4, n_rounds=3, max_atoms_per_round=3)


# -- corpus referee ----------------------------------------------------------

@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
def test_reduced_is_bit_identical_to_exhaustive_on_the_corpus(test, model):
    for proto in test.protocols:
        reduced = allowed_outcomes(test, model, proto, engine="reduced")
        exhaustive = allowed_outcomes(test, model, proto, engine="exhaustive")
        assert reduced == exhaustive, (test.name, model, proto)


@pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
def test_reduced_engine_without_drf_shortcircuit_still_agrees(test):
    """Exactness does not lean on the DRF short-circuit: with no
    classification supplied, the search layers alone must match."""
    g = litmus_event_graph(test)
    for model in MODELS:
        ax = ax_model_for(model)
        assert reduced_outcomes_for_graph(g, ax, test.finals) == \
            allowed_outcomes_for_graph(g, ax, test.finals), (test.name, model)


# -- scale -------------------------------------------------------------------

def test_full_size_fuzzer_programs_enumerate_within_budget():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        program = gen_program(rng, **FULL_SIZE)
        t0 = time.monotonic()
        outcomes = fuzz_allowed_outcomes(program, budget_seconds=10.0)
        worst = max(worst, time.monotonic() - t0)
        assert outcomes  # a well-synchronized program always executes
    assert worst < 10.0


def test_reduced_matches_exhaustive_at_full_size():
    """On a pinned full-size program (seed 4) whose naive candidate space
    is beyond 1e13, the reduced engine answers inside its own ten-second
    budget and returns exactly the exhaustive referee's outcome set.  (The
    naive estimate overstates the referee's *pruned* search, so this
    program is also within the referee's reach; which engine is faster is
    a host-speed question the test leaves alone.)"""
    rng = np.random.default_rng(4)
    program = gen_program(rng, **FULL_SIZE)
    g = fuzz_program_event_graph(program)
    assert estimate_candidate_space(g) > 1e13

    reduced = reduced_outcomes_for_graph(g, _FUZZ_AX, budget_seconds=10.0)
    assert reduced
    assert reduced == allowed_outcomes_for_graph(g, _FUZZ_AX)


def test_budget_exceeded_raises():
    rng = np.random.default_rng(3)
    program = gen_program(rng, **FULL_SIZE)
    with pytest.raises(AxiomBudgetExceeded):
        fuzz_allowed_outcomes(program, budget_seconds=1e-9)


# -- round decomposition -----------------------------------------------------

def test_round_decomposition_matches_whole_graph_enumeration():
    """ROUND_BARRIER drains every buffer, so rounds are independent given
    the deterministic carry state; the composed outcome set must equal one
    reduced enumeration over the whole program graph."""
    rng = np.random.default_rng(7)
    for _ in range(12):
        program = gen_program(rng, n_threads=3, n_rounds=2, max_atoms_per_round=2)
        whole = reduced_outcomes_for_graph(
            fuzz_program_event_graph(program), _FUZZ_AX, atomic_inc=True
        )
        assert fuzz_allowed_outcomes(program) == whole, program


def test_small_fuzz_graphs_reduced_equals_exhaustive():
    """On graphs small enough for the referee, the engines agree with no
    atomicity hint (the exhaustive engine has no rmw-atomicity axiom)."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        program = gen_program(rng, n_threads=2, n_rounds=1, max_atoms_per_round=2)
        g = fuzz_program_event_graph(program)
        if estimate_candidate_space(g) > 50_000:
            continue  # keep the referee instant
        assert reduced_outcomes_for_graph(g, _FUZZ_AX) == \
            allowed_outcomes_for_graph(g, _FUZZ_AX), program
        checked += 1
    assert checked >= 10


# -- consume projection ------------------------------------------------------

def test_consume_projection_is_contained_in_both_oracles():
    """allowed ⊇ observable must survive the oracle swap: the scale
    engine's per-consume sets may only be tighter than the DRF-derived
    and closure-based sets (both sound over-approximations)."""
    rng = np.random.default_rng(19)
    consumes = 0
    for _ in range(30):
        program = gen_program(rng, n_threads=3, n_rounds=2, max_atoms_per_round=2)
        for ri, rnd in enumerate(program.rounds):
            for t, atoms in enumerate(rnd):
                for atom in atoms:
                    if atom.kind != "consume":
                        continue
                    scale_set = fuzz_consume_allowed(program, ri, atom.arg)
                    assert scale_set <= derive_consume_allowed(program, ri, atom.arg)
                    assert scale_set <= axiom_consume_allowed(program, ri, atom.arg)
                    consumes += 1
    assert consumes >= 20


def test_fuzz_campaign_passes_under_the_scale_oracle(monkeypatch):
    """The tighter oracle, swapped in for the fuzzer's DRF-derived one:
    48 iterations cover all 12 protocol × model pairs four times."""
    monkeypatch.setattr(
        "repro.verify.fuzz.consume_oracle", lambda p: partial(fuzz_consume_allowed, p)
    )
    rep = fuzz(master_seed=0, iters=48, do_shrink=False)
    assert set(rep.runs_by_combo.values()) == {4}
    assert rep.ok, rep.failure
