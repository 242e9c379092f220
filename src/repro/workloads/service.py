"""Service layer: what the machine *does* for a request.

The top of the three-tier split (demand -> policy -> service).  A service
owns the machine-side realization of requests: shared-memory layout
(shards), the synchronization objects guarding them, and the per-batch
reference stream each serving node executes.  Everything here is built on
the paper's primitives — coherent shared reads/writes, CBL or software
locks — so protocol and lock-scheme choices show up directly in service
tail latency.

Two families live here:

* **Open-loop services** (:data:`SERVICE_FACTORIES`): the machine as a
  storage tier.  ``kv`` (sharded key-value store), ``queue`` (lock-guarded
  work queue), ``session`` (per-client session cache).  Driven by
  :class:`~repro.workloads.traffic.TrafficWorkload` against a demand
  :class:`~repro.workloads.demand.Schedule`.

* **Closed-loop skeleton** (:class:`ClosedLoopService`): the shared
  spawn-drivers/run/verify scaffold the ported Table-4 workloads
  (workqueue, syncmodel, trace replay) configure.  They used to each carry
  a private copy of this loop; now they subclass it, so the layering holds
  for the paper's original models too and every run finishes through
  :meth:`~repro.workloads.base.RunBuilder.finish`.

Determinism: a service draws only from streams named off the machine's
seeded root (``node_stream(i, ...)``, read through a
:func:`~repro.sim.rng.block_reader`), iterates the batch's keys and
clients positionally, and gates every trace emission on ``machine.obs``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from .base import RunBuilder, WorkloadResult, make_lock

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor
    from ..system.machine import Machine

__all__ = [
    "SERVICE_FACTORIES",
    "make_service",
    "KVService",
    "QueueService",
    "SessionService",
    "ClosedLoopService",
]


# --------------------------------------------------------------------------
# Open-loop services (the machine as a storage tier)
# --------------------------------------------------------------------------

class _OpenLoopService:
    """Shared layout for the storage-tier services.

    Allocates ``n_shards`` shared data blocks plus one lock per shard.
    ``serve_batch`` is a simulation generator: it issues a *bounded*
    number of protocol operations per batch (touching up to ``ops_cap``
    of the batch's keys) so the per-request protocol cost amortizes and a
    million-request run stays tractable — the per-request compute cost is
    charged separately by the traffic driver.

    ``serve_batch(proc, coin, keys, clients)`` takes the batch's keys and
    clients as integer sequences (the server passes memoryview slices of
    the schedule's columns) and ``coin``, a zero-argument callable
    returning the next double of the serving node's ``"traffic"`` stream.

    ``serve_batch`` issues ``Processor.shared_read``/``shared_write``
    inline, one generator frame fewer per op: the controller's ``read``
    and the model's ``shared_write`` are driven directly, and the
    processor's counter bumps (the op count, then its ``data_cycles``
    term) are made in the same order, as
    :func:`~repro.workloads.rounds.execute_plan` does.  Each op's word is
    :meth:`_key_addr`'s arithmetic, inline too.
    """

    kind = "abstract"

    def __init__(
        self,
        machine: "Machine",
        lock_scheme: str = "cbl",
        n_shards: Optional[int] = None,
        read_ratio: float = 0.9,
        ops_cap: int = 4,
    ):
        if not 0 <= read_ratio <= 1:
            raise ValueError("read_ratio must be in [0,1]")
        if ops_cap <= 0:
            raise ValueError("ops_cap must be positive")
        self.machine = machine
        self.lock_scheme = lock_scheme
        self.n_shards = n_shards if n_shards is not None else machine.cfg.n_nodes
        self.read_ratio = read_ratio
        self.ops_cap = ops_cap
        # Write-update has no write serialization point visible to racing
        # writers: concurrent same-word writes can leave a sharer's copy
        # update-reordered, which check_writeupdate_coherence rejects at
        # quiescence.  Any policy that serves one key from two nodes
        # (hot-key, round-robin) creates exactly that race, so on this
        # protocol services route every write through its shard lock.
        self.locked_writes = machine.protocol == "writeupdate"
        first = machine.alloc_block(self.n_shards)
        self.shard_blocks = list(range(first, first + self.n_shards))
        self._words_per_block = machine.amap.words_per_block
        self.locks = [make_lock(machine, lock_scheme) for _ in range(self.n_shards)]

    def sync_objects(self) -> List:
        return list(self.locks)

    def _key_addr(self, key: int) -> int:
        """The word of ``key``'s shard block at offset ``key`` mod the block
        size: ``amap.word_addr``'s arithmetic without its range check,
        which a non-negative key cannot fail."""
        wpb = self._words_per_block
        return self.shard_blocks[key % self.n_shards] * wpb + key % wpb

    def _locked_write(self, proc: "Processor", key: int, value: int):
        lock = self.locks[key % self.n_shards]
        yield from proc.acquire(lock)
        yield from proc.shared_write(self._key_addr(key), value)
        yield from proc.release(lock)

    def serve_batch(
        self, proc: "Processor", coin: Callable[[], float],
        keys: Sequence[int], clients: Sequence[int],
    ):
        raise NotImplementedError  # pragma: no cover


class KVService(_OpenLoopService):
    """Sharded key-value store: GET = coherent shared read of the key's
    word, PUT = coherent shared write.  No locks on the data path (single-
    word values are atomic at machine word grain), so the coherence
    protocol alone carries the contention — except on write-update, where
    PUTs take the shard lock (see ``locked_writes``)."""

    kind = "kv"

    def serve_batch(self, proc, coin, keys, clients):
        # One coin per served key, in key order.
        read_ratio = self.read_ratio
        blocks, n_shards, wpb = self.shard_blocks, self.n_shards, self._words_per_block
        sim = proc.sim
        counts = proc.stats.counters.counts
        data_read = proc.data.read
        shared_write = proc.model.shared_write
        node_id = proc.node_id
        for key in keys[: self.ops_cap]:
            if coin() < read_ratio:
                counts["shared_reads"] = counts.get("shared_reads", 0) + 1
                t0 = sim.now
                yield from data_read(blocks[key % n_shards] * wpb + key % wpb)
                counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)
            elif self.locked_writes:
                yield from self._locked_write(proc, key, node_id)
            else:
                counts["shared_writes"] = counts.get("shared_writes", 0) + 1
                t0 = sim.now
                yield from shared_write(proc, blocks[key % n_shards] * wpb + key % wpb, node_id)
                counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)


class QueueService(_OpenLoopService):
    """Lock-guarded work queue: each request appends to its key's shard
    queue under that shard's lock (head/count update = one shared write +
    one shared read), holding the lock across consecutive same-shard keys
    in the batch.  This concentrates contention on locks exactly like the
    paper's work-queue model, but driven by open-loop demand — and the
    lock covers *every* write, so the service stays race-free under any
    placement policy on any protocol (batches may span shards; a first-
    key-only lock would leave the other shards' words racing)."""

    kind = "queue"

    def serve_batch(self, proc, coin, keys, clients):
        blocks, n_shards, wpb = self.shard_blocks, self.n_shards, self._words_per_block
        sim = proc.sim
        counts = proc.stats.counters.counts
        data_read = proc.data.read
        shared_write = proc.model.shared_write
        node_id = proc.node_id
        held = None
        for key in keys[: self.ops_cap]:
            shard = key % n_shards
            if held is not None and held is not self.locks[shard]:
                yield from proc.release(held)
                held = None
            if held is None:
                held = self.locks[shard]
                yield from proc.acquire(held)
            addr = blocks[shard] * wpb + key % wpb
            counts["shared_writes"] = counts.get("shared_writes", 0) + 1
            t0 = sim.now
            yield from shared_write(proc, addr, node_id)
            counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)
            counts["shared_reads"] = counts.get("shared_reads", 0) + 1
            t0 = sim.now
            yield from data_read(addr)
            counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)
        if held is not None:
            yield from proc.release(held)


class SessionService(_OpenLoopService):
    """Per-client session cache: a request reads its client's session
    record (keyed by client id, not request key) and writes a last-seen
    word.  Sessions of a million clients fold onto the shard blocks by
    client-id hashing, so the *working set* stays machine-sized while the
    *population* does not — the session table is the one structure whose
    footprint must not scale with client count."""

    kind = "session"

    def serve_batch(self, proc, coin, keys, clients):
        blocks, n_shards, wpb = self.shard_blocks, self.n_shards, self._words_per_block
        sim = proc.sim
        counts = proc.stats.counters.counts
        data_read = proc.data.read
        shared_write = proc.model.shared_write
        node_id = proc.node_id
        for client in clients[: self.ops_cap]:
            addr = blocks[client % n_shards] * wpb + client % wpb
            counts["shared_reads"] = counts.get("shared_reads", 0) + 1
            t0 = sim.now
            yield from data_read(addr)
            counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)
            if self.locked_writes:
                yield from self._locked_write(proc, client, node_id)
            else:
                counts["shared_writes"] = counts.get("shared_writes", 0) + 1
                t0 = sim.now
                yield from shared_write(proc, addr, node_id)
                counts["data_cycles"] = counts.get("data_cycles", 0) + int(sim.now - t0)


#: Open-loop service registry (mirrors ``LOCK_FACTORIES``).
SERVICE_FACTORIES: Dict[str, Callable] = {
    KVService.kind: KVService,
    QueueService.kind: QueueService,
    SessionService.kind: SessionService,
}


def make_service(name: str, machine: "Machine", **kwargs):
    """Instantiate the named open-loop service on ``machine``."""
    try:
        factory = SERVICE_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown service {name!r}; choose from {sorted(SERVICE_FACTORIES)}"
        )
    return factory(machine, **kwargs)


# --------------------------------------------------------------------------
# Closed-loop skeleton (the ported Table-4 workloads configure this)
# --------------------------------------------------------------------------

class ClosedLoopService:
    """Run scaffold for closed-loop workloads: one driver per processor.

    Subclasses set :attr:`name` (spawn names stay ``f"{name}-{i}"``, so
    traces from ported workloads are unchanged), implement
    :meth:`_driver`, and register their sync objects on :attr:`builder`.
    ``run()`` is the single shared copy of the old per-workload loop:
    spawn every driver, run the machine, finish through the builder's
    verified path.
    """

    name = "closed-loop"
    default_max_cycles: Optional[float] = 100_000_000

    def __init__(self, machine: "Machine", lock_scheme: str = "cbl", consistency: str = "sc"):
        self.machine = machine
        self.lock_scheme = lock_scheme
        self.consistency = consistency
        self.builder = RunBuilder(machine)

    def _driver(self, proc: "Processor"):
        raise NotImplementedError  # pragma: no cover
        yield  # pragma: no cover - marks the contract: drivers are generators

    @property
    def tasks_done(self) -> int:
        return self.builder.tasks_done

    @tasks_done.setter
    def tasks_done(self, n: int) -> None:
        self.builder.tasks_done = n

    def _spawn_all(self) -> None:
        """Create one driver process per node (override to change the
        population, e.g. trace replay spawns only the traced nodes)."""
        m = self.machine
        for i in range(m.cfg.n_nodes):
            proc = m.processor(i, consistency=self.consistency)
            m.spawn(self._driver(proc), name=f"{self.name}-{i}")

    def run(self, max_cycles: Optional[float] = None) -> WorkloadResult:
        if max_cycles is None:
            max_cycles = self.default_max_cycles
        self._spawn_all()
        self.machine.run_all(max_cycles)
        return self.builder.finish()
