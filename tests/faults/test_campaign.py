"""The fault campaign acceptance gate.

Fifty seeds per protocol, each with an independently drawn fault schedule
mixing drops, duplicates, delay spikes, and (half the time) a link-outage
window.  Every run must terminate — no silent hangs — and either pass all
PR-1 oracles after recovery or produce a structured hang diagnosis.  With
the timeout/retry layer enabled (the default under faults) the protocols
are expected to recover everywhere, so a failure here is a real protocol
bug; ``run_program`` turns a watchdog trip into a diagnosed failure string
rather than a hung test session.
"""

import random

import numpy as np
import pytest

from repro.faults.plan import FaultSpec
from repro.verify.fuzz import gen_program, run_program

SEEDS_PER_PROTOCOL = 50


def _campaign_case(seed):
    """Deterministic (program, fault spec) pair for one campaign seed."""
    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    program = gen_program(rng)
    spec = FaultSpec.draw(
        random.Random(seed * 1000003 + 17),
        seed=seed + 1,
        n_nodes=program.n_nodes(),
    )
    return program, spec


@pytest.mark.parametrize("protocol", ["wbi", "primitives", "writeupdate"])
def test_fault_campaign_recovers_everywhere(protocol):
    hangs = []
    failures = []
    classes = {"drop": 0, "dup": 0, "spike": 0, "link": 0}
    for seed in range(SEEDS_PER_PROTOCOL):
        program, spec = _campaign_case(seed)
        classes["drop"] += spec.drop_prob > 0
        classes["dup"] += spec.dup_prob > 0
        classes["spike"] += spec.spike_prob > 0
        classes["link"] += bool(spec.link_down)
        failure = run_program(
            program,
            protocol=protocol,
            model="bc",
            seed=seed,
            faults=spec,
            on_hang=lambda diag: hangs.append(diag),
        )
        if failure is not None:
            failures.append(f"seed {seed} [{spec.describe()}]: {failure}")
    # Zero silent hangs is implied by termination; zero *diagnosed* hangs
    # and zero oracle failures is the recovery guarantee.
    assert not hangs, f"{len(hangs)} diagnosed hang(s): {hangs[0].format()}"
    assert not failures, "\n".join(failures[:5])
    # The campaign must actually exercise every fault class.
    assert all(classes.values()), f"campaign draw left a class unexercised: {classes}"
