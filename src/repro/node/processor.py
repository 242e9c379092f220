"""The processor: the workload-facing API over one node.

A workload is a generator that drives a :class:`Processor`; every method
here is a generator to be used with ``yield from``.  The processor issues
the Table 1 hardware primitives through the node's data-protocol
controller, synchronizes through lock/barrier objects, and applies the
configured memory consistency model to shared writes and synchronization
operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..consistency.models import ConsistencyModel, get_model
from ..sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from ..system.machine import Machine

__all__ = ["Processor"]


class Processor:
    """One workload execution context bound to a node."""

    def __init__(
        self,
        machine: "Machine",
        node_id: int,
        consistency: Union[str, ConsistencyModel] = "sc",
    ):
        self.machine = machine
        self.node_id = node_id
        self.node = machine.nodes[node_id]
        self.sim = machine.sim
        self.model = get_model(consistency) if isinstance(consistency, str) else consistency
        self.stats = StatSet()
        #: Trace bus or ``None`` (installed machine-wide).
        self.obs = machine.obs
        machine._processors.append(self)
        #: The data-protocol controller (WBI or primitives).
        self.data = self.node.data_ctl
        #: The cache-based lock engine.
        self.cbl = self.node.cbl
        self.barrier_engine = self.node.barrier_engine

    # -- local computation ----------------------------------------------------
    def compute(self, cycles: float):
        """Local work for ``cycles`` (no memory traffic)."""
        counts = self.stats.counters.counts
        counts["compute_cycles"] = counts.get("compute_cycles", 0) + int(cycles)
        yield cycles
    def time_breakdown(self) -> dict:
        """Cycles spent computing vs waiting on data vs synchronizing.

        The buckets support the paper's point that processor *utilization*
        is misleading — synchronization "may keep the processor busy
        without performing any useful computation" — so we account where
        the cycles actually went.
        """
        c = self.stats.counters
        return {
            "compute": c["compute_cycles"],
            "data": c["data_cycles"],
            "sync": c["sync_cycles"],
        }

    # -- private data ----------------------------------------------------------
    # Each memory op charges its duration to ``data_cycles`` inline: a
    # shared timing wrapper would add a generator frame per op on the
    # hottest path of every workload.  The counters are bumped in their
    # dict directly (Counter.add's writes, in the same order).
    def read(self, addr: int):
        """Private-data read (paper's READ / WBI coherent read)."""
        counts = self.stats.counters.counts
        counts["reads"] = counts.get("reads", 0) + 1
        sim = self.sim
        t0 = sim.now
        value = yield from self.data.read(addr)
        counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)
        return value

    def write(self, addr: int, value: int):
        """Private-data write (paper's WRITE / WBI coherent write)."""
        counts = self.stats.counters.counts
        counts["writes"] = counts.get("writes", 0) + 1
        sim = self.sim
        t0 = sim.now
        yield from self.data.write(addr, value)
        counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)

    # -- shared data under the consistency model -------------------------------
    def shared_read(self, addr: int):
        """Read of shared data (cached; consistency via explicit primitives)."""
        counts = self.stats.counters.counts
        counts["shared_reads"] = counts.get("shared_reads", 0) + 1
        sim = self.sim
        t0 = sim.now
        value = yield from self.data.read(addr)
        counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)
        return value

    def shared_write(self, addr: int, value: int):
        """Write of shared data: global write issued per the memory model."""
        counts = self.stats.counters.counts
        counts["shared_writes"] = counts.get("shared_writes", 0) + 1
        sim = self.sim
        t0 = sim.now
        yield from self.model.shared_write(self, addr, value)
        counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)

    # -- explicit Table 1 primitives (primitives machine only) -----------------
    def _primitive(self, name: str):
        op = getattr(self.data, name, None)
        if op is None:
            raise RuntimeError(
                f"{name.upper().replace('_', '-')} is a Table 1 primitive; build "
                f"the machine with protocol='primitives' (this one is "
                f"'{self.machine.protocol}')"
            )
        return op

    def read_global(self, addr: int):
        value = yield from self._primitive("read_global")(addr)
        return value

    def write_global(self, addr: int, value: int):
        yield from self._primitive("write_global")(addr, value)

    def read_update(self, addr: int):
        value = yield from self._primitive("read_update")(addr)
        return value

    def reset_update(self, addr: int):
        yield from self._primitive("reset_update")(addr)

    def flush(self):
        """FLUSH-BUFFER: wait until all pending global writes complete."""
        yield from self._primitive("flush_buffer")()

    def rmw(self, addr: int, op: str, operand=None):
        old = yield from self.data.rmw(addr, op, operand)
        return old

    # -- synchronization --------------------------------------------------------
    def acquire(self, lock, mode: str = "write"):
        """Acquire a lock under the consistency model (NP-Synch)."""
        counts = self.stats.counters.counts
        counts["acquires"] = counts.get("acquires", 0) + 1
        t0 = self.sim.now
        yield from self.model.pre_acquire(self)
        yield from lock.acquire(self, mode)
        dt = self.sim.now - t0
        self.stats.observe("acquire_latency", dt)
        counts["sync_cycles"] = counts.get("sync_cycles", 0) + int(dt)
        if self.obs is not None:
            # Lock-queue residency: request issued -> grant received.
            # ``obj`` names the lock's block so a trace consumer (the
            # conformance checker) can pair acquires with releases.
            self.obs.span(
                f"acquire:{type(lock).__name__}", "sync", self.node_id, t0,
                args={"obj": lock.block, "mode": mode},
            )

    def release(self, lock):
        """Release a lock under the consistency model (CP-Synch)."""
        counts = self.stats.counters.counts
        counts["releases"] = counts.get("releases", 0) + 1
        t0 = self.sim.now
        yield from self.model.pre_release(self)
        yield from lock.release(self, want_ack=self.model.release_wants_ack)
        counts["sync_cycles"] = counts.get("sync_cycles", 0) + int(self.sim.now - t0)
        if self.obs is not None:
            self.obs.span(
                f"release:{type(lock).__name__}", "sync", self.node_id, t0,
                args={"obj": lock.block},
            )

    def barrier(self, bar):
        """Barrier synchronization (CP-Synch)."""
        counts = self.stats.counters.counts
        counts["barriers"] = counts.get("barriers", 0) + 1
        t0 = self.sim.now
        yield from self.model.pre_barrier(self)
        yield from bar.wait(self)
        dt = self.sim.now - t0
        self.stats.observe("barrier_latency", dt)
        counts["sync_cycles"] = counts.get("sync_cycles", 0) + int(dt)
        if self.obs is not None:
            self.obs.span(
                f"barrier:{type(bar).__name__}", "sync", self.node_id, t0,
                args={"obj": bar.block},
            )
