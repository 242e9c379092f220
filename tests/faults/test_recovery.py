"""Protocol recovery under fault injection + fault-free bit-identity.

Two acceptance gates from the robustness work live here:

* with a lossy fabric (drops, duplicates, delay spikes) every protocol's
  timeout/retry + dedup machinery must still produce the *correct* final
  state — the same counter value a reliable run yields — while the retry
  counters show that recovery actually happened;
* without a fault plan, the resilience plumbing must be completely inert:
  the same seeds produce bit-identical ``RunMetrics`` as the seed tree
  (goldens pinned below were verified against the pre-resilience code).
"""

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import ObsParams
from repro.system.config import MachineConfig
from repro.system.machine import Machine

PROTOCOLS = ("wbi", "primitives", "writeupdate")

#: protocol -> (completion_time, messages, flits, round(mean_net_latency, 6),
#: final counter).  Verified bit-identical to the pre-resilience seed code.
GOLDEN = {
    "wbi": (797, 177, 393, 6.497175, 12),
    "primitives": (666, 153, 297, 5.03268, 12),
    "writeupdate": (658, 209, 429, 6.54067, 12),
}


class _Lock:
    """Thin CBL wrapper matching the golden workload's cost profile."""

    def __init__(self, machine):
        self.machine = machine
        self.block = machine.alloc_block()

    def acquire(self, proc, mode="write"):
        yield from proc.model.pre_acquire(proc)
        yield from proc.node.cbl.acquire(self.block, mode)

    def release(self, proc):
        yield from proc.model.pre_release(proc)
        yield from proc.node.cbl.release(self.block, want_ack=proc.model.release_wants_ack)


def _run_golden_workload(protocol, faults=None, plan=None, obs=None):
    """4 workers x 3 rounds of lock/read/write/release/rmw, then a barrier.

    ``plan`` is installed straight on the interconnect (bypassing the
    machine's resilience wiring); ``obs`` is the machine's trace policy.
    """
    cfg = MachineConfig(n_nodes=8, cache_blocks=64, cache_assoc=2, seed=7, obs=obs)
    machine = Machine(cfg, protocol, faults=faults)
    if plan is not None:
        machine.net.set_fault_plan(plan)
    lock = _Lock(machine)
    bar_block = machine.alloc_block()
    ctr = machine.alloc_word()
    machine.poke(ctr, 0)

    def worker(t):
        proc = machine.processor(t % 8, consistency="bc")
        machine._processors.append(proc)

        def body():
            for _ in range(3):
                yield from proc.compute(5 + t)
                yield from lock.acquire(proc)
                if protocol == "primitives":
                    value = yield from proc.read_global(ctr)
                else:
                    value = yield from proc.shared_read(ctr)
                yield from proc.shared_write(ctr, value + 1)
                yield from lock.release(proc)
                yield from proc.rmw(ctr, "fetch_add", 0)
            yield from proc.node.barrier_engine.wait(bar_block, 4)

        return body()

    for t in range(4):
        machine.spawn(worker(t), name=f"w{t}")
    machine.run_all(max_cycles=2_000_000)
    metrics = machine.metrics()
    fingerprint = (
        metrics.completion_time,
        metrics.messages,
        metrics.flits,
        round(metrics.mean_net_latency, 6),
        machine.peek_memory(ctr),
    )
    return machine, metrics, fingerprint


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_free_runs_are_bit_identical_to_seed(protocol):
    _, metrics, fingerprint = _run_golden_workload(protocol)
    assert fingerprint == GOLDEN[protocol]
    # The resilience machinery must be fully dormant on a reliable fabric.
    assert metrics.retries == 0
    assert metrics.timeouts == 0
    assert metrics.faults == {}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_null_fault_spec_changes_nothing(protocol):
    """An all-zero spec must not even arm the resilience layer."""
    machine, _, fingerprint = _run_golden_workload(protocol, faults=FaultSpec())
    assert machine.fault_plan is None
    assert fingerprint == GOLDEN[protocol]


def _count_general_deliveries(monkeypatch):
    """Count messages handed out by the interconnect's general delivery
    path (``_dispatch`` -> ``_handle`` -> the node table's controller)."""
    from repro.network.topology import Interconnect

    seen = []
    handle = Interconnect._handle

    def counting(self, msg):
        seen.append(msg.msg_id)
        handle(self, msg)

    monkeypatch.setattr(Interconnect, "_handle", counting)
    return seen


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_noop_plan_on_the_network_changes_nothing(protocol, monkeypatch):
    """A no-op plan installed on the interconnect routes fault-free traffic
    through the general arrival path: the same run as the lean path."""
    seen = _count_general_deliveries(monkeypatch)
    machine, metrics, fingerprint = _run_golden_workload(
        protocol, plan=FaultPlan(FaultSpec())
    )
    assert machine.net.fault_plan is not None
    assert len(seen) == metrics.messages
    assert fingerprint == GOLDEN[protocol]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_full_trace_bus_changes_nothing(protocol, monkeypatch):
    """Every trace category on: deliveries take the traced path, and the
    run is the same as an untraced one."""
    seen = _count_general_deliveries(monkeypatch)
    machine, metrics, fingerprint = _run_golden_workload(protocol, obs=ObsParams())
    assert machine.obs is not None and machine.obs.enabled_for("kernel")
    assert len(seen) == metrics.messages
    assert fingerprint == GOLDEN[protocol]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_recovery_under_drops_dups_and_spikes(protocol):
    spec = FaultSpec(drop_prob=0.05, dup_prob=0.02, spike_prob=0.02, seed=3)
    machine, metrics, fingerprint = _run_golden_workload(protocol, faults=spec)
    # Recovered run converges to the correct final counter value...
    assert fingerprint[-1] == 12
    # ...having actually lost and retried messages.
    assert metrics.faults["fault.drops"] > 0
    assert metrics.retries > 0
    assert metrics.timeouts > 0
    assert metrics.timeout_cycles > 0
    # Recovery costs time: completion is strictly later than fault-free.
    assert metrics.completion_time > GOLDEN[protocol][0]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_recovery_through_link_outage(protocol):
    """A mid-run directed link outage heals once the window closes."""
    spec = FaultSpec(link_down=((1, 0, 100.0, 900.0),), seed=5)
    machine, metrics, fingerprint = _run_golden_workload(protocol, faults=spec)
    assert fingerprint[-1] == 12
    assert metrics.faults["fault.outage_drops"] > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_faulty_runs_are_deterministic(protocol):
    """Same spec + same machine seed => identical recovered run."""
    spec = FaultSpec(drop_prob=0.05, dup_prob=0.02, spike_prob=0.02, seed=3)
    _, m1, f1 = _run_golden_workload(protocol, faults=spec)
    _, m2, f2 = _run_golden_workload(protocol, faults=spec)
    assert f1 == f2
    assert m1.retries == m2.retries
    assert m1.faults == m2.faults
