"""Tests for the schedule-fuzzing harness (:mod:`repro.verify.fuzz`)."""

import numpy as np
import pytest

from repro.verify.fuzz import (
    Atom,
    Program,
    fuzz,
    gen_program,
    make_failure_oracle,
    run_program,
    shrink,
    to_regression_source,
)


# -- generation ------------------------------------------------------------
def test_gen_program_is_deterministic():
    a = gen_program(np.random.default_rng(11))
    b = gen_program(np.random.default_rng(11))
    assert a == b


def test_gen_program_varies_with_seed():
    programs = {gen_program(np.random.default_rng(s)) for s in range(10)}
    assert len(programs) > 1


def test_generated_programs_are_well_formed():
    for s in range(30):
        p = gen_program(np.random.default_rng(s))
        assert 2 <= p.n_threads
        assert all(len(r) == p.n_threads for r in p.rounds)
        for r in p.rounds:
            for t, atoms in enumerate(r):
                for atom in atoms:
                    if atom.kind == "consume":
                        assert atom.arg != t  # never consume your own slot


# -- execution -------------------------------------------------------------
SMOKE = Program(
    n_threads=2,
    rounds=(
        ((Atom("publish", 1), Atom("lock_inc", 0)), (Atom("lock_inc", 0),)),
        ((), (Atom("consume", 0), Atom("rmw_inc"))),
    ),
)


@pytest.mark.parametrize("protocol", ("wbi", "primitives", "writeupdate"))
@pytest.mark.parametrize("model", ("sc", "bc", "wo", "rc"))
def test_smoke_program_passes_everywhere(protocol, model):
    assert run_program(SMOKE, protocol, model, seed=5, jitter=2.0) is None


@pytest.mark.parametrize(
    "oracle, module, name",
    [
        ("drf", "repro.verify.fuzz", "consume_allowed"),
        ("axiom", "repro.axiom", "axiom_consume_allowed"),
        ("axiom-scale", "repro.axiom", "fuzz_consume_allowed"),
    ],
)
def test_consume_oracle_derived_once_per_site(monkeypatch, oracle, module, name):
    """Five consumes over three (round, target) sites: one oracle for the
    run, three derivations.

    The fuzzer's one oracle and its two axiomatic referees, each swapped
    in behind ``consume_oracle``, are asked once per site."""
    import importlib

    import repro.verify.fuzz as fuzzmod

    real = getattr(importlib.import_module(module), name)
    made = []
    sites = []

    def counting(program):
        made.append(program)

        def allowed(round_idx, target):
            sites.append((round_idx, target))
            return real(program, round_idx, target)

        return allowed

    monkeypatch.setattr(fuzzmod, "consume_oracle", counting)
    program = Program(
        n_threads=3,
        rounds=(
            (
                (Atom("publish", 1),),
                (Atom("consume", 0), Atom("consume", 0)),
                (Atom("consume", 0),),
            ),
            ((Atom("consume", 1),), (Atom("publish", 3),), (Atom("consume", 0),)),
        ),
    )
    assert run_program(program, "primitives", "bc", seed=4, jitter=2.0) is None
    assert made == [program]
    assert sorted(sites) == [(0, 0), (1, 0), (1, 1)]


def test_run_program_is_deterministic():
    p = gen_program(np.random.default_rng(3))
    a = run_program(p, "primitives", "bc", seed=9, jitter=4.0)
    b = run_program(p, "primitives", "bc", seed=9, jitter=4.0)
    assert a == b


# -- the harness end to end -------------------------------------------------
def test_green_fuzz_run():
    rep = fuzz(master_seed=0, iters=36)
    assert rep.ok
    assert rep.iterations == 36
    assert sum(rep.runs_by_combo.values()) == 36
    assert len(rep.runs_by_combo) == 12  # 3 protocols x 4 models


def test_campaign_retains_no_per_iteration_generator(monkeypatch):
    """Each iteration's generator is derived, not cached in the campaign's
    stream factory, so memory does not grow with ``iters``."""
    import repro.verify.fuzz as fuzz_mod

    factories = []

    class Recording(fuzz_mod.RngStreams):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            factories.append(self)

    monkeypatch.setattr(fuzz_mod, "RngStreams", Recording)
    assert fuzz(master_seed=0, iters=5, do_shrink=False).ok
    assert len(factories) == 1
    assert factories[0]._cache == {}


def test_injected_bug_is_caught_and_shrunk():
    """The differential harness catches a dropped release fence and shrinks
    the failing schedule to a minimal reproducer that passes when healthy."""
    rep = fuzz(master_seed=2, iters=40, protocols=("primitives",), inject="bc-no-release-fence")
    assert not rep.ok
    assert rep.model == "bc-no-release-fence"
    assert rep.shrunk_program is not None
    assert rep.shrunk_program.size() <= 4
    assert rep.shrunk_program.size() <= rep.failing_program.size()
    # The shrunk schedule still fails under the fault (the oracle probes a
    # window of seeds around the original; any hit keeps the failure)...
    assert any(
        run_program(
            rep.shrunk_program, rep.protocol, rep.model, seed=rep.seed + k, jitter=rep.jitter
        )
        is not None
        for k in range(5)
    )
    # ...and passes under the healthy model: the bug is in the model, not
    # the machine.
    for k in range(5):
        assert (
            run_program(
                rep.shrunk_program, rep.protocol, "bc", seed=rep.seed + k, jitter=rep.jitter
            )
            is None
        )


def test_reproducer_source_is_executable():
    rep = fuzz(master_seed=2, iters=40, protocols=("primitives",), inject="bc-no-release-fence")
    assert "def test_fuzz_regression" in rep.reproducer
    ns = {}
    exec(rep.reproducer, ns)  # the emitted test must at least be valid code
    with pytest.raises(AssertionError):
        ns["test_fuzz_regression"]()  # and fail while the fault is injected


# -- shrinking -------------------------------------------------------------
def test_shrink_reaches_fixed_point_and_preserves_failure():
    rep = fuzz(master_seed=2, iters=40, protocols=("primitives",), inject="bc-no-release-fence")
    fails = make_failure_oracle(
        rep.protocol, rep.model, seeds=[rep.seed + k for k in range(5)], jitter=rep.jitter
    )
    again = shrink(rep.shrunk_program, fails)
    assert again.size() == rep.shrunk_program.size()  # already minimal
    assert fails(again)


def test_to_regression_source_round_trips_program():
    src = to_regression_source(SMOKE, "wbi", "sc", seeds=(1, 2), jitter=0.5)
    ns = {}
    exec(src, ns)
    ns["test_fuzz_regression"]()  # healthy combo: embedded program passes


# -- regressions for machine bugs the fuzzer found --------------------------
def test_regression_same_address_write_order():
    """Two buffered writes to the same word must be performed in program
    order.  Before the write-buffer gained per-address chains, jitter could
    deliver the second GLOBAL_WRITE first, leaving the *older* value in
    memory after both acks (found by the fuzzer under healthy bc)."""
    program = Program(
        n_threads=2,
        rounds=(
            ((Atom("publish", 2), Atom("publish", 3)), ()),
            ((), (Atom("consume", 0),)),
        ),
    )
    for seed in range(842750544, 842750549):
        failure = run_program(
            program, "primitives", "bc", seed=seed, jitter=5.277158458624655
        )
        assert failure is None, failure


def test_regression_wbi_inv_fill_race():
    """An INV must not slip between a DATA_BLOCK's resolve and its install.
    Before fills were installed in the message handler, the requester could
    ack the invalidation vacuously and then install the stale copy, leaving
    EXCLUSIVE and SHARED coexisting (found by the fuzzer on wbi)."""
    program = Program(
        n_threads=2,
        rounds=(((Atom("consume", 1),), (Atom("publish", 1),)),),
    )
    for seed in range(1017452288, 1017452298):
        for model in ("sc", "bc", "wo", "rc"):
            failure = run_program(
                program, "wbi", model, seed=seed, jitter=3.4814547719172113
            )
            assert failure is None, failure
