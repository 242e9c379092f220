"""Campaign golden pin for :func:`repro.verify.fuzz.fuzz`.

The bench fuzz digest covers only iteration and combo counts, so a changed
draw (program, machine seed, jitter factor, fault schedule) or a changed
schedule inside a passing run would slip past it.  This pin records, for
every iteration of a fixed campaign, everything ``fuzz()`` hands the
machine and everything the machine did with it:

* the program, machine seed, jitter and fault schedule;
* the failure string (``None`` on a green run);
* ``sim.now`` and ``sim.events_processed`` at the end of the run;
* the network's counter dict and its mean message latency.

The digests were recorded before the fuzz path's RNG draws were reworked
to block draws and a cdf bisection; they hold on the production run loop
and on the all-heap referee (``tests/conftest.py`` runs each test here
again on ``tests/sim/heap_referee.py``).
"""

import hashlib

import pytest

import repro.verify.fuzz as fuzz_mod
from repro.verify.fuzz import fuzz

#: (master_seed, iters, faults) -> sha256 over the per-iteration records.
#: The faults slice was re-recorded when write-update homes stopped
#: replaying read-miss replies from the dedup log (a retried read now
#: re-executes, which changes the faulty runs' message counts); the two
#: fault-free digests are the originals.
GOLDEN = {
    (0, 300, False): "9160e726afded4c15572a7a0bc3056f64e51879ff62352759f1d9eb40077e193",
    (3, 300, False): "804285025516d08489376f397a455af6724064d38b25acfc84d0272727b3e8f7",
    (0, 40, True): "714004374225c7d46e177d7ebbe085b4a66c651ebeb5ae5ec97ccad3a1bc8487",
}


def campaign_digest(monkeypatch, master_seed: int, iters: int, faults: bool) -> str:
    records = []
    real_run_program = fuzz_mod.run_program

    def recording_run_program(program, **kw):
        seen = {}

        def on_machine(machine):
            net = machine.net
            seen["sim"] = (machine.sim.now, machine.sim.events_processed)
            seen["net"] = (
                sorted(net.stats.counters.as_dict().items()),
                net.mean_latency,
            )

        failure = real_run_program(program, on_machine=on_machine, **kw)
        records.append(
            repr((
                program, kw["seed"], kw["jitter"], kw.get("faults"),
                failure, seen["sim"], seen["net"],
            ))
        )
        return failure

    monkeypatch.setattr(fuzz_mod, "run_program", recording_run_program)
    report = fuzz(master_seed=master_seed, iters=iters, faults=faults, do_shrink=False)
    assert report.ok, report.failure
    assert len(records) == iters
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("master_seed, iters, faults", sorted(GOLDEN))
def test_fuzz_campaign_matches_golden(monkeypatch, master_seed, iters, faults):
    got = campaign_digest(monkeypatch, master_seed, iters, faults)
    assert got == GOLDEN[(master_seed, iters, faults)]
