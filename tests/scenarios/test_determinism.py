"""Scenario determinism: same seed, same metrics — on either run loop.

Every scenario builder is required to draw randomness only from the
machine's named RNG streams and to allocate identically regardless of the
``attack`` flag, so a scenario run is a pure function of
``(name, seed, attack)``.  These tests pin that: repeat runs are
bit-identical, and the all-heap referee kernel
(``tests/sim/heap_referee.py``) reproduces the production loop's
documents exactly.
"""

import json

import pytest

from repro.scenarios import scenario_names, scenario_point
from tests.sim.heap_referee import HeapSimulator

#: One lock attack, one coherence attack, one fabric attack — the cheap
#: cross-section; the nightly CLI run covers the full registry.
SUBSET = ["lock-convoy", "hot-block-ping-pong", "denial-of-progress"]


def _doc(name, seed, attack):
    return json.dumps(scenario_point(name, seed, attack), sort_keys=True)


@pytest.mark.parametrize("name", SUBSET)
@pytest.mark.parametrize("attack", [False, True])
def test_repeat_runs_bit_identical(name, attack):
    assert _doc(name, 13, attack) == _doc(name, 13, attack)


@pytest.mark.parametrize("name", SUBSET)
def test_kernel_disciplines_agree(name, heap_kernel):
    """The production loop and the heap referee produce identical
    scenario documents."""
    fast = _doc(name, 13, True)
    with heap_kernel() as sims:
        heap = _doc(name, 13, True)
    assert sims and all(type(sim) is HeapSimulator for sim in sims)
    assert heap == fast


def test_seeds_actually_vary_the_run():
    """Different seeds give different runs (the RNG streams are live)."""
    assert _doc("lock-convoy", 1, True) != _doc("lock-convoy", 2, True)


def test_subset_is_registered():
    for name in SUBSET:
        assert name in scenario_names()
