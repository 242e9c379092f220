"""Traffic frontend: open-loop driving of the demand/policy/service stack.

The acceptance property here is *bit-identity*: a traffic point is a pure
function of its arguments, across repeats and across the production run
loop and the all-heap referee (``tests/sim/heap_referee.py``).
"""

import json
import os

import pytest

import repro.workloads.traffic as traffic_mod
from repro.sim.core import Simulator
from repro.system.machine import Machine, MachineConfig
from repro.workloads.demand import DemandParams
from repro.workloads.policy import POLICY_FACTORIES
from repro.workloads.service import SERVICE_FACTORIES, make_service
from repro.workloads.traffic import TrafficParams, TrafficWorkload, main, traffic_point
from tests.sim.heap_referee import HeapSimulator

#: Small but non-trivial: a few hundred requests over 4 nodes.
POINT = dict(rate=0.4, horizon=1_200.0, n_clients=50_000, n_keys=64, n_nodes=4, seed=9)


def test_traffic_point_bit_identical_across_repeats():
    a = traffic_point(**POINT)
    b = traffic_point(**POINT)
    assert a == b


def test_traffic_point_histogram_is_populated():
    r = traffic_point(**POINT)
    assert r["served"] == r["requests"] > 0
    assert r["distinct_clients"] > 0
    assert r["p50"] > 0
    assert r["p50"] <= r["p95"] <= r["p99"] <= r["p999"]
    assert r["mean"] > 0
    assert r["completion_time"] > 0 and r["messages"] > 0


def test_traffic_point_matches_heap_kernel(monkeypatch, heap_kernel):
    built = []

    class RecordingMachine(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(type(self.sim))

    monkeypatch.setattr(traffic_mod, "Machine", RecordingMachine)
    fast = traffic_point(**POINT)
    with heap_kernel():
        heap = traffic_point(**POINT)
    # Each run really used the loop it names, so the pin cannot
    # silently compare a loop with itself.
    assert built == [Simulator, HeapSimulator]
    assert heap == fast


HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "traffic_golden_points.json")) as _f:
    GOLDEN = json.load(_f)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_traffic_point_matches_golden(name):
    """Full ``traffic_point`` output pinned to a recorded run.

    Repeat- and kernel-identity would both pass a drift that every run
    shares; these pins catch it.  Covered: kv at read ratios 0.9 and 0.1 on
    primitives+cbl and wbi+tts, a saturated ``batch_cap=8`` point, the
    queue service on writeupdate+ts, and the session service.
    """
    point = GOLDEN[name]
    assert traffic_point(**point["params"]) == point["result"]


def test_quick_rate_sweep_matches_golden(capsys):
    """The CLI's quick sweep, byte for byte (CI diffs the same file)."""
    assert main(["--rate-sweep", "--quick", "--seed", "1"]) == 0
    with open(os.path.join(HERE, "traffic_rate_sweep_quick_seed1.md")) as f:
        assert capsys.readouterr().out == f.read()


def test_quick_rate_sweep_matches_golden_on_heap_kernel(capsys, heap_kernel):
    """The same sweep on the all-heap referee, byte for byte."""
    with heap_kernel() as sims:
        assert main(["--rate-sweep", "--quick", "--seed", "1"]) == 0
    assert sims and all(type(sim) is HeapSimulator for sim in sims)
    with open(os.path.join(HERE, "traffic_rate_sweep_quick_seed1.md")) as f:
        assert capsys.readouterr().out == f.read()


def test_overdriven_point_saturates_and_backlogs():
    r = traffic_point(rate=4.0, horizon=400.0, n_clients=10_000, n_keys=32,
                      n_nodes=2, seed=3, batch_cap=8, service_cycles=4.0)
    assert r["saturated_batches"] > 0
    assert r["backlog_peak"] > 8
    # Open loop: the servers still drain everything they were sent.
    assert r["served"] == r["requests"]


@pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
@pytest.mark.parametrize("service", sorted(SERVICE_FACTORIES))
def test_every_policy_service_pair_runs(policy, service):
    r = traffic_point(rate=0.2, horizon=500.0, n_clients=1_000, n_keys=16,
                      n_nodes=2, seed=1, policy=policy, service=service)
    assert r["served"] == r["requests"] > 0


def test_unknown_service_rejected():
    from repro import Machine, MachineConfig

    m = Machine(MachineConfig(n_nodes=2, cache_blocks=64, cache_assoc=2, seed=1), protocol="wbi")
    with pytest.raises(ValueError, match="unknown service"):
        make_service("blockchain", m)


def test_writeupdate_protocol_point_runs():
    """The traffic frontend drives all three protocols; writeupdate has no
    lock hardware and no invalidations to spin on, so it takes the
    uncached ts lock — exercised through the lock-guarded queue service."""
    r = traffic_point(rate=0.2, horizon=500.0, n_clients=1_000, n_keys=16,
                      n_nodes=2, seed=2, protocol="writeupdate", lock_scheme="ts",
                      service="queue")
    assert r["served"] == r["requests"] > 0


def _metrics_doc(params):
    """One kv traffic run's full ``RunMetrics`` JSON plus every processor's
    counters (compute, data and sync cycles among them)."""
    cfg = MachineConfig(n_nodes=params["n_nodes"], cache_blocks=128, cache_assoc=2,
                        seed=params["seed"])
    machine = Machine(cfg, protocol=params["protocol"])
    wl = TrafficWorkload(machine, TrafficParams(
        demand=DemandParams(rate=params["rate"], horizon=params["horizon"],
                            n_clients=params["n_clients"], n_keys=params["n_keys"]),
        policy=params["policy"],
        service="kv",
        lock_scheme=params["lock_scheme"],
        read_ratio=params["read_ratio"],
    ))
    wl.run()
    doc = {
        "metrics": machine.metrics().to_json(),
        "processors": {str(p.node_id): p.stats.counters.as_dict() for p in machine._processors},
    }
    # Through JSON, so the comparison sees exactly what the file holds.
    return json.loads(json.dumps(doc))


with open(os.path.join(HERE, "traffic_golden_metrics.json")) as _f:
    GOLDEN_METRICS = json.load(_f)


@pytest.mark.parametrize("name", sorted(GOLDEN_METRICS))
def test_traffic_run_metrics_match_golden(name):
    """The whole ``RunMetrics`` of a kv run and each processor's cycle
    split, pinned to a recorded run: the server's compute accounting and
    the service's batch arguments cannot drift without failing here."""
    point = GOLDEN_METRICS[name]
    assert _metrics_doc(point["params"]) == point["result"]


@pytest.mark.parametrize("service", sorted(SERVICE_FACTORIES))
def test_key_addr_is_the_address_maps_word(service):
    """``_key_addr``'s arithmetic names the word ``amap.word_addr`` names."""
    m = Machine(MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2, seed=1), protocol="wbi")
    svc = make_service(service, m, lock_scheme="tts")
    wpb = m.amap.words_per_block
    for key in list(range(200)) + [4_000_000 - 1, 2**62 + 3]:
        expected = m.amap.word_addr(svc.shard_blocks[key % svc.n_shards], key % wpb)
        assert svc._key_addr(key) == expected
