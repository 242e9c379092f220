"""The machine builder: wires nodes, controllers, and the interconnect."""

from __future__ import annotations

import dataclasses
from typing import Generator, List, Optional

from ..cache.writebuffer import WriteBuffer
from ..coherence.readupdate import PrimitivesCacheController, PrimitivesHomeController
from ..coherence.wbi import WBICacheController, WBIHomeController
from ..coherence.writeupdate import WUCacheController, WUHomeController
from ..faults.diagnosis import diagnose_machine
from ..faults.plan import DEFAULT_RESILIENCE, FaultPlan, FaultSpec
from ..memory.address import AddressMap
from ..network.message import GLOBAL_WRITE, Message
from ..network.omega import (
    BufferedOmegaNetwork, BusNetwork, CrossbarNetwork, MeshNetwork, OmegaNetwork,
)
from ..network.topology import NetworkParams
from ..node.node import Node
from ..node.processor import Processor
from ..obs import TraceBus
from ..obs.metrics import PhaseMetrics, PhaseStat
from ..sim.core import AllOf, Process, Simulator
from ..sim.rng import RngStreams
from ..sim.watchdog import Watchdog
from ..sync.barrier import HardwareBarrierEngine
from ..sync.cbl import CBLEngine
from ..sync.semaphore import SemaphoreEngine
from .config import MachineConfig
from .metrics import LatencyHistogram, RunMetrics

__all__ = ["Machine"]

#: Drop-log lines surfaced in :attr:`RunMetrics.drop_log_tail`.
DROP_LOG_TAIL = 16

_NETWORKS = {
    "omega": OmegaNetwork,
    "omega-buffered": BufferedOmegaNetwork,
    "bus": BusNetwork,
    "crossbar": CrossbarNetwork,
    "mesh": MeshNetwork,
}


class Machine:
    """A simulated shared-memory multiprocessor.

    ``protocol`` selects the data-coherence scheme:

    * ``"wbi"`` — the write-back-invalidate baseline (coherent read/write +
      atomic RMW for software synchronization);
    * ``"primitives"`` — the paper's machine (Table 1 primitives: local
      read/write, global read/write through the write buffer, reader-
      initiated coherence via READ-UPDATE);
    * ``"writeupdate"`` — the Dragon/Firefly-style sender-initiated update
      comparator (readers stay registered forever; every write is pushed).

    Every variant carries the CBL lock engine, the hardware barrier, and
    hardware semaphores.

    ``faults`` installs a :class:`~repro.faults.plan.FaultSpec` on the
    interconnect (drops, duplicates, delay spikes, link/node outages).  A
    non-null spec implies the protocols must recover, so the config's
    ``resilience`` policy is defaulted to
    :data:`~repro.faults.plan.DEFAULT_RESILIENCE` unless the caller set one
    explicitly (set ``cfg.resilience`` with ``max_retries=0`` to study the
    watchdog on an unprotected machine).  Without ``faults`` nothing
    changes: the fabric is reliable and runs are bit-identical to a machine
    built without the parameter.
    """

    PROTOCOLS = ("wbi", "primitives", "writeupdate")

    #: Cumulative retries across the machine before the watchdog calls the
    #: run a retry storm (livelock).  Generous: a healthy recovering run
    #: needs a handful per lost message.
    retry_budget: int = 5000

    def __init__(
        self,
        cfg: MachineConfig,
        protocol: str = "wbi",
        faults: Optional[FaultSpec] = None,
    ):
        if protocol not in self.PROTOCOLS:
            raise ValueError(f"protocol must be one of {self.PROTOCOLS}, got {protocol!r}")
        if faults is not None and not faults.is_null and cfg.resilience is None:
            cfg = dataclasses.replace(cfg, resilience=DEFAULT_RESILIENCE)
        self.cfg = cfg
        self.protocol = protocol
        #: Name of the adversarial scenario driving this machine, when one
        #: is (set by :mod:`repro.scenarios`); carried into
        #: :class:`~repro.faults.diagnosis.HangDiagnosis` and the watchdog
        #: trip message so shrunk repros are attributable.
        self.scenario: Optional[str] = None
        self.fault_plan: Optional[FaultPlan] = (
            FaultPlan(faults) if faults is not None and not faults.is_null else None
        )
        self.sim = Simulator()
        #: Trace bus, or ``None`` when ``cfg.obs`` is unset (the default):
        #: every instrumented component caches this reference, and the
        #: disabled machine pays one ``is not None`` branch per site.
        self.obs: Optional[TraceBus] = TraceBus(self.sim, cfg.obs) if cfg.obs is not None else None
        self.sim.set_obs(self.obs)
        self.rng = RngStreams(cfg.seed)
        self.amap = AddressMap(cfg.n_nodes, cfg.words_per_block)
        net_params = NetworkParams(
            switch_cycle=cfg.switch_cycle,
            words_per_block=cfg.words_per_block,
            local_delivery=cfg.cache_cycle,
            buffer_capacity=cfg.buffer_capacity,
        )
        self.net = _NETWORKS[cfg.network](self.sim, cfg.n_nodes, net_params)
        self.net.obs = self.obs
        if self.fault_plan is not None:
            self.net.set_fault_plan(self.fault_plan)
        self.nodes: List[Node] = []
        for i in range(cfg.n_nodes):
            node = Node(i, self.sim, cfg, self.net, self.amap)
            # Controllers cache node.obs at construction, so install first.
            node.obs = self.obs
            if protocol == "wbi":
                node.data_ctl = WBICacheController(node)
                node.home_ctl = WBIHomeController(node)
            elif protocol == "writeupdate":
                node.data_ctl = WUCacheController(node)
                node.home_ctl = WUHomeController(node)
            else:
                node.data_ctl = PrimitivesCacheController(node)
                node.home_ctl = PrimitivesHomeController(node)
                node.write_buffer = WriteBuffer(
                    self.sim,
                    self._make_issue(node),
                    capacity=cfg.write_buffer_capacity,
                    resilience=cfg.resilience,
                    retry_counters=node.stats.counters,
                    obs=self.obs,
                    owner=node.node_id,
                )
            node.cbl = CBLEngine(node)
            node.barrier_engine = HardwareBarrierEngine(node)
            node.sem_engine = SemaphoreEngine(node)
            node.register_all((
                node.data_ctl, node.home_ctl, node.cbl, node.barrier_engine, node.sem_engine,
            ))
            self.nodes.append(node)
        self._next_block = 0
        self._procs: List[Process] = []
        self._processors: list = []
        #: Request-latency histogram (created lazily by the first
        #: :meth:`record_latencies`); ``None`` on machines that never serve
        #: open-loop traffic, so existing runs pay and change nothing.
        self.latency: Optional[LatencyHistogram] = None
        # Phase accounting (always on; cost is per phase *boundary* only):
        # closed phases plus the open one as (name, t0, counter snapshot).
        self._phases_closed: List[PhaseStat] = []
        self._phase_open: Optional[tuple] = None

    # -- write buffer wiring ---------------------------------------------------
    def _make_issue(self, node: Node):
        # The closure holds what it sends through, not the machine or the
        # node: the node holds the write buffer that holds the closure.
        resilient = self.cfg.resilience is not None
        amap = self.amap
        net = self.net
        src = node.node_id

        def issue(word_addr: int, value: int, entry_id: int) -> None:
            block = amap.block_of(word_addr)
            home = amap.home_of(block)
            info = {"word": word_addr, "value": value, "entry_id": entry_id}
            if resilient:
                # Reissues reuse the entry id, so a ("wb", entry_id) rseq
                # (disjoint from the int controller rseqs) makes the home's
                # dedup absorb duplicated writes and replay the lost ack.
                info["rseq"] = ("wb", entry_id)
            net.send(
                Message(
                    src=src,
                    dst=home,
                    mtype=GLOBAL_WRITE,
                    addr=block,
                    info=info,
                )
            )

        return issue

    # -- address allocation ------------------------------------------------------
    def alloc_block(self, n: int = 1) -> int:
        """Reserve ``n`` fresh memory blocks; returns the first block id."""
        if n <= 0:
            raise ValueError("n must be positive")
        first = self._next_block
        self._next_block += n
        return first

    def alloc_word(self) -> int:
        """Reserve one word on its own fresh block (avoids false sharing)."""
        return self.amap.word_addr(self.alloc_block(), 0)

    def poke(self, word_addr: int, value: int) -> None:
        """Initialize main memory directly (simulation setup, zero cost)."""
        block = self.amap.block_of(word_addr)
        self.nodes[self.amap.home_of(block)].memory.write_word(word_addr, value)

    def peek_memory(self, word_addr: int) -> int:
        """Read main memory directly (verification, zero cost)."""
        block = self.amap.block_of(word_addr)
        return self.nodes[self.amap.home_of(block)].memory.read_word(word_addr)

    # -- execution ----------------------------------------------------------
    def processor(self, node_id: int, consistency: str = "sc") -> Processor:
        """A workload execution context on ``node_id``."""
        return Processor(self, node_id, consistency)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run a workload generator as a simulation process."""
        proc = self.sim.process(generator, name=name)
        self._procs.append(proc)
        return proc

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_all(
        self,
        max_cycles: Optional[float] = None,
        watchdog: Optional[bool] = None,
    ) -> float:
        """Run until every spawned workload finishes; returns completion time.

        Raises if ``max_cycles`` elapses first (deadlock guard).

        ``watchdog`` arms a :class:`~repro.sim.watchdog.Watchdog` that turns
        a silent hang (lost message, retry storm) into a
        :class:`~repro.sim.watchdog.HangError` carrying a structured
        :class:`~repro.faults.diagnosis.HangDiagnosis`.  ``None`` (default)
        arms it exactly when the machine has a fault plan or a resilience
        policy — a reliable machine's calendar is untouched.
        """
        if watchdog is None:
            watchdog = self.fault_plan is not None or self.cfg.resilience is not None
        wd = None
        if watchdog and self._procs:
            res = self.cfg.resilience
            interval = 4 * res.max_timeout if res is not None else 50_000
            wd = Watchdog(
                self.sim,
                outstanding=lambda: any(p.is_alive for p in self._procs),
                diagnose=lambda reason: diagnose_machine(self, reason),
                interval=interval,
                retries=lambda: self._resilience_counter("resilience.retries"),
                retry_budget=self.retry_budget,
                label=self.scenario,
            ).start()
            # Cancel the pending wake the instant the last workload finishes
            # so the watchdog never inflates the run's completion time.
            done = AllOf(self.sim, list(self._procs))
            done.callbacks.append(lambda _e: wd.stop())
        try:
            self.sim.run(until=max_cycles)
        finally:
            if wd is not None:
                wd.stop()
        alive = [p for p in self._procs if p.is_alive]
        if alive:
            raise RuntimeError(
                f"{len(alive)} workload process(es) still running at "
                f"t={self.sim.now}: possible deadlock or max_cycles too low"
            )
        return self.sim.now

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Cut the machine's reference cycles, so it is freed by refcount
        once its owner drops it instead of waiting for the cyclic GC.

        Drops the simulator's leftover calendar and hooks, the
        interconnect's handlers, each node's controllers and the spawned
        processes and processors.  A process still alive (a hung or
        deadlocked run) is retired first (:meth:`Process.close`): its
        callbacks hold ``run_all``'s completion condition.  Only references
        go: ``sim``, ``net``, ``nodes`` and every stats object, histogram
        and counter dict stay readable, but :meth:`metrics` and
        :meth:`time_breakdown` no longer see the processors, so read them
        first.  Idempotent.
        """
        for proc in self._procs:
            proc.close()
        self.sim.close()
        self.net.close()
        for node in self.nodes:
            node.close()
        self._procs = []
        self._processors = []

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request latency (traffic frontend) ---------------------------------
    def latency_hist(self) -> LatencyHistogram:
        """The machine's latency histogram, created on first use."""
        if self.latency is None:
            self.latency = LatencyHistogram()
        return self.latency

    def record_latency(self, value: float) -> None:
        """Record one request latency (cycles) into the run histogram."""
        self.latency_hist().record(value)

    def record_latencies(self, values) -> None:
        """:meth:`record_latency` for a batch of samples: a list of floats
        (the traffic server's per-batch form) or a numpy array (see
        :meth:`LatencyHistogram.record_many`)."""
        self.latency_hist().record_many(values)

    def _resilience_counter(self, key: str) -> int:
        total = 0
        for node in self.nodes:
            total += node.stats.counters.as_dict().get(key, 0)
        return total

    # -- phases -------------------------------------------------------------
    def _counters_snapshot(self) -> tuple:
        """Cheap snapshot of the run counters used for phase deltas."""
        net = self.net.stats.counters
        msg_by_type = {
            k[len("msg.") :]: v for k, v in net.as_dict().items() if k.startswith("msg.")
        }
        node_counters: dict = {}
        for node in self.nodes:
            for k, v in node.stats.counters.as_dict().items():
                node_counters[k] = node_counters.get(k, 0) + v
        for proc in self._processors:
            for k in ("compute_cycles", "data_cycles", "sync_cycles"):
                node_counters[k] = node_counters.get(k, 0) + proc.stats.counters[k]
        latency = self.latency.copy() if self.latency is not None else None
        return net["messages"], net["flits"], msg_by_type, node_counters, latency

    @staticmethod
    def _close_phase(name: str, t0: float, snap0: tuple, t1: float, snap1: tuple) -> PhaseStat:
        msgs0, flits0, by_type0, node0, lat0 = snap0
        msgs1, flits1, by_type1, node1, lat1 = snap1
        if lat1 is not None:
            # A phase opened before the first recorded latency deltas
            # against the empty histogram.
            latency = lat1.minus(lat0 if lat0 is not None else LatencyHistogram())
        else:
            latency = None
        return PhaseStat(
            name=name,
            t0=t0,
            t1=t1,
            messages=msgs1 - msgs0,
            flits=flits1 - flits0,
            msg_by_type={
                k: v - by_type0.get(k, 0)
                for k, v in by_type1.items()
                if v - by_type0.get(k, 0)
            },
            node_counters={
                k: v - node0.get(k, 0) for k, v in node1.items() if v - node0.get(k, 0)
            },
            latency=latency,
        )

    def mark_phase(self, name: str) -> None:
        """Enter workload phase ``name`` (idempotent per phase).

        Closes the currently open phase and snapshots the run counters, so
        :meth:`phase_metrics` can attribute cycles/messages per phase.  A
        repeated mark with the open phase's name is a no-op — concurrent
        workers may all announce the same phase; the first one switches.
        Also emits a ``phase`` instant on the trace bus when tracing is on.
        """
        if self._phase_open is not None and self._phase_open[0] == name:
            return
        now = self.sim.now
        snap = self._counters_snapshot()
        if self._phase_open is not None:
            prev_name, t0, snap0 = self._phase_open
            self._phases_closed.append(self._close_phase(prev_name, t0, snap0, now, snap))
        self._phase_open = (name, now, snap)
        if self.obs is not None:
            self.obs.instant(f"phase:{name}", "phase", 0)

    def phase_metrics(self) -> PhaseMetrics:
        """Per-phase rollup plus run totals (``RunMetrics`` is its view).

        Phases tile the run: the open phase is closed virtually at the
        current time (non-destructively — the machine can keep running),
        and a run that never marked a phase reports one implicit ``"run"``
        phase covering everything.  The invariant
        ``sum(p.cycles) + unattributed_cycles == totals.completion_time``
        is checked by :meth:`PhaseMetrics.check_consistency`.
        """
        now = self.sim.now
        snap = self._counters_snapshot()
        phases = list(self._phases_closed)
        if self._phase_open is not None:
            name, t0, snap0 = self._phase_open
            phases.append(self._close_phase(name, t0, snap0, now, snap))
        messages, flits, msg_by_type, node_counters, latency = snap
        m = RunMetrics()
        m.completion_time = now
        m.messages = messages
        m.flits = flits
        m.mean_net_latency = self.net.mean_latency
        m.msg_by_type = msg_by_type
        m.node_counters = node_counters
        m.retries = node_counters.get("resilience.retries", 0)
        m.timeouts = node_counters.get("resilience.timeouts", 0)
        m.timeout_cycles = node_counters.get("resilience.timeout_cycles", 0)
        m.latency = latency
        if self.fault_plan is not None:
            m.faults = self.fault_plan.counters()
            m.drop_log_tail = list(self.fault_plan.drop_log[-DROP_LOG_TAIL:])
        if not phases:
            phases = [
                PhaseStat(
                    name="run",
                    t0=0.0,
                    t1=now,
                    messages=messages,
                    flits=flits,
                    msg_by_type=dict(msg_by_type),
                    node_counters=dict(node_counters),
                    latency=latency.copy() if latency is not None else None,
                )
            ]
            unattributed = 0.0
        else:
            unattributed = phases[0].t0
        return PhaseMetrics(totals=m, phases=phases, unattributed_cycles=unattributed)

    # -- reporting ----------------------------------------------------------
    def metrics(self) -> RunMetrics:
        """Run-level metrics — a view over :meth:`phase_metrics` totals."""
        return self.phase_metrics().totals

    def dump_trace(self, path) -> int:
        """Write the raw trace (JSONL) to ``path``; returns the event count.

        Requires the machine to have been built with ``cfg.obs`` set.
        """
        if self.obs is None:
            raise RuntimeError(
                "tracing is disabled: build the machine with MachineConfig(obs=ObsParams())"
            )
        return self.obs.dump_jsonl(path)

    def time_breakdown(self) -> dict:
        """Aggregate compute/data/sync cycle split over all processors."""
        out = {"compute": 0, "data": 0, "sync": 0}
        for proc in self._processors:
            b = proc.time_breakdown()
            for k in out:
                out[k] += b[k]
        return out
