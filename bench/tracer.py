"""Outside-in layer tracer: per-layer host self time and work counts.

The tracer wraps each layer's entry points from benchmark code, so the
simulator's sources are not edited.  A wrapped call is a span; a layer's
self time is the time inside its spans minus the time inside the wrapped
spans they call.  Calls that no wrapped function covers stay with the
nearest wrapped caller, and time outside every span is unattributed, so
``trace.attributed_ratio`` says how much of the traced wall the layer
table explains.

Spans are folded as they close into per-entry totals and per
``(caller, callee)`` edge counts: a report pass closes about 3.5 million
spans, too many to keep one record each.

Work counts come from every :class:`~repro.system.machine.Machine` the
workload builds: each time a machine's simulator returns from ``run``,
the tracer snapshots that machine's counters (the last snapshot per
machine wins).  Snapshot time is excluded from every span and from the
attributed wall.

Usage (the worker does this around one traced repetition)::

    tracer = Tracer().install()
    try:
        ...run the workload...
    finally:
        tracer.restore()
    raw = tracer.raw()
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Layer:
    """One layer: a repo module group, its entry points, and the
    end-to-end metrics it should move, as ``(metric, workload)`` pairs."""

    name: str
    entries: Tuple[str, ...]
    moves: Tuple[Tuple[str, str], ...] = ()


def _methods(cls_path: str, *names: str) -> Tuple[str, ...]:
    return tuple(f"{cls_path}.{n}" for n in names)


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "sim",
        ("repro.sim.core:Simulator.run",),
        (("cpu_s", "report"), ("items_per_s", "fuzz")),
    ),
    Layer(
        "node",
        ("repro.sim.core:Process._resume",),
        (("items_per_s", "traffic-read"), ("items_per_s", "traffic-write"), ("cpu_s", "report")),
    ),
    Layer(
        "network",
        _methods("repro.network.topology:Interconnect", "send", "_on_arrival"),
        (("cpu_s", "report"), ("items_per_s", "fuzz")),
    ),
    Layer(
        "coherence",
        _methods("repro.coherence.readupdate:PrimitivesCacheController", "handle")
        + _methods("repro.coherence.readupdate:PrimitivesHomeController", "handle")
        + _methods("repro.coherence.wbi:WBICacheController", "handle")
        + _methods("repro.coherence.wbi:WBIHomeController", "handle")
        + _methods("repro.coherence.writeupdate:WUCacheController", "handle")
        + _methods("repro.coherence.writeupdate:WUHomeController", "handle"),
        (("cpu_s", "report"), ("items_per_s", "traffic-write")),
    ),
    Layer(
        "cache",
        _methods("repro.cache.cache:SetAssocCache", "lookup", "install", "invalidate")
        + _methods("repro.cache.writebuffer:WriteBuffer", "put", "retire", "flush"),
        (("items_per_s", "traffic-write"),),
    ),
    Layer(
        "memory",
        _methods(
            "repro.memory.module:MemoryModule",
            "read_word", "write_word", "read_block", "write_block", "write_dirty_words",
        )
        + _methods("repro.memory.directory:Directory", "entry"),
        (("cpu_s", "report"),),
    ),
    Layer(
        "sync",
        _methods("repro.sync.cbl:CBLEngine", "handle")
        + _methods("repro.sync.barrier:HardwareBarrierEngine", "handle")
        + _methods("repro.sync.semaphore:SemaphoreEngine", "handle"),
        (("cpu_s", "report"),),
    ),
    Layer(
        "workloads",
        (
            "repro.workloads.traffic:traffic_point",
            "repro.workloads.demand:OpenLoopDemand.build",
            "repro.workloads.policy:StaticShardPolicy.place",
            "repro.workloads.policy:RoundRobinPolicy.place",
            "repro.workloads.policy:HotKeyPolicy.place",
            "repro.workloads.rounds:build_sync_task_plan",
            "repro.workloads.rounds:build_queue_task_plan",
        ),
        (("items_per_s", "traffic-read"), ("items_per_s", "traffic-write")),
    ),
    Layer(
        "system",
        _methods("repro.system.machine:Machine", "__init__", "record_latencies", "phase_metrics"),
        (("items_per_s", "fuzz"), ("items_per_s", "traffic-read")),
    ),
    Layer(
        "sweep",
        ("repro.sweep:run_sweep", "repro.sweep:task_digest"),
        (("cpu_s", "report"),),
    ),
    Layer(
        "verify",
        (
            "repro.verify.fuzz:gen_program",
            "repro.verify.fuzz:run_program",
            "repro.verify.checkers:check_all",
            "repro.verify.checkers:check_wbi_coherence",
            "repro.verify.checkers:check_writeupdate_coherence",
            "repro.verify.checkers:check_ru_lists",
            "repro.verify.checkers:check_lock_queues",
        ),
        (("items_per_s", "fuzz"),),
    ),
    Layer("static", ("repro.static.drf:derive_consume_allowed",), (("items_per_s", "fuzz"),)),
    Layer(
        "axiom",
        ("repro.axiom.differential:run_gate", "repro.axiom.check:allowed_outcomes"),
        (("cpu_s", "report"),),
    ),
    Layer("scenarios", ("repro.scenarios.runner:scenario_point",), (("cpu_s", "report"),)),
    Layer(
        "experiments",
        (
            "repro.experiments:run_report",
            "repro.experiments:fig_point",
            "repro.experiments:table2_point",
            "repro.experiments:table3_point",
            "repro.experiments:conformance_point",
            "repro.experiments:fft_point",
        ),
        (("cpu_s", "report"),),
    ),
)

#: Every per-layer metric as (name, unit, better), in output order.
#: Self time is declared as a share of the traced wall, ``trace.wall_s``,
#: because a layer that a workload never enters reads exactly 0 s on every
#: run, which is no measurement; the absolute ``<layer>.self_s`` are
#: written to ``--out`` beside them.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = tuple(
    m
    for layer in LAYERS
    for m in (
        (f"{layer.name}.self_share", "ratio", "lower"),
        (f"{layer.name}.calls", "count", "lower"),
    )
) + (
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("node.compute_cycles", "cycles", "lower"),
    ("node.data_cycles", "cycles", "lower"),
    ("node.sync_cycles", "cycles", "lower"),
    ("network.messages", "count", "lower"),
    ("network.flits", "count", "lower"),
    ("network.fifo_holds", "count", "lower"),
    ("network.mean_latency_cycles", "cycles", "lower"),
    ("network.ns_per_message", "ns", "lower"),
    ("coherence.read_hits", "count", "higher"),
    ("coherence.read_misses", "count", "lower"),
    ("coherence.hit_ratio", "ratio", "higher"),
    ("coherence.invalidations", "count", "lower"),
    ("coherence.updates", "count", "lower"),
    ("cache.wb_writes", "count", "lower"),
    ("cache.wb_same_addr_deferred", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("sync.acquires", "count", "lower"),
    ("sync.failed_probes", "count", "lower"),
    ("sync.acquire_success_ratio", "ratio", "higher"),
    ("sync.barrier_arrivals", "count", "lower"),
    ("workloads.requests", "count", "higher"),
    ("workloads.saturated_batches", "count", "lower"),
    ("workloads.backlog_peak", "count", "lower"),
    ("workloads.sim_p50_cycles", "cycles", "lower"),
    ("workloads.sim_p99_cycles", "cycles", "lower"),
    ("system.machine_build_s", "s", "lower"),
    ("system.latency_record_share", "ratio", "lower"),
    ("system.machines", "count", "lower"),
    ("sweep.points", "count", "higher"),
    ("sweep.cached_rerun_ratio", "ratio", "lower"),
    ("verify.iterations", "count", "higher"),
    ("axiom.rows", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _resolve(spec: str):
    """``(owner, attribute, function)`` for ``"module:func"`` or
    ``"module:Class.method"``; the class must define the method itself."""
    mod_name, _, qual = spec.partition(":")
    owner = importlib.import_module(mod_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(owner, cls_name)
        fn = owner.__dict__[attr]
    else:
        attr = qual
        fn = getattr(owner, attr)
    if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
        raise TypeError(f"{spec} is not a plain function; a span around it would time nothing")
    return owner, attr, fn


def _repro_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "repro" and m]


def machine_counts(m) -> Dict[str, float]:
    """The work counts of one machine, as the per-layer metric names."""
    c: Dict[str, float] = dict.fromkeys(
        (
            "node.compute_cycles", "node.data_cycles", "node.sync_cycles",
            "sync.acquires", "sync.failed_probes", "sync.barrier_arrivals",
            "coherence.read_hits", "coherence.read_misses",
            "coherence.invalidations", "coherence.updates",
            "cache.evictions", "cache.wb_writes", "cache.wb_same_addr_deferred",
        ),
        0,
    )
    c["sim.events"] = m.sim.events_processed
    for proc in m._processors:
        pc = proc.stats.counters
        c["node.compute_cycles"] += pc["compute_cycles"]
        c["node.data_cycles"] += pc["data_cycles"]
        c["node.sync_cycles"] += pc["sync_cycles"]
        c["sync.acquires"] += pc["acquires"]
        c["sync.failed_probes"] += pc["lock.failed_probes"]
        c["sync.barrier_arrivals"] += pc["barriers"]
    for node in m.nodes:
        nc = node.stats.counters
        for proto in ("prim", "wbi", "wu"):
            c["coherence.read_hits"] += nc[f"{proto}.read_hits"]
            c["coherence.read_misses"] += nc[f"{proto}.read_misses"]
        c["coherence.invalidations"] += nc["wbi.invalidations_sent"]
        c["coherence.updates"] += nc["prim.ru_updates_received"] + nc["wu.updates_received"]
        c["cache.evictions"] += node.cache.stats.counters["evictions"]
        if node.write_buffer is not None:
            wc = node.write_buffer.stats.counters
            c["cache.wb_writes"] += wc["writes"]
            c["cache.wb_same_addr_deferred"] += wc["same_addr_deferred"]
    net = m.net.stats
    c["network.messages"] = net.counters["messages"]
    c["network.flits"] = net.counters["flits"]
    c["network.fifo_holds"] = net.counters["fifo_holds"]
    lat = net.tally("latency")
    c["network.latency_n"] = lat.n
    c["network.latency_sum"] = lat.mean * lat.n
    hist = m.latency
    c["workloads.requests"] = hist.total if hist is not None else 0
    c["workloads.saturated_batches"] = hist.saturated if hist is not None else 0
    c["workloads.backlog_peak"] = hist.backlog_peak if hist is not None else 0
    return c


class Tracer:
    """Wraps every entry point of :data:`LAYERS` until :meth:`restore`."""

    def __init__(self) -> None:
        self.specs: List[str] = [s for layer in LAYERS for s in layer.entries]
        n = len(self.specs)
        self._self_ns = [0] * n
        self._incl_ns = [0] * n
        #: Calls per (caller, callee): index ``(caller + 1) * n + callee``,
        #: caller ``-1`` for spans opened outside every other span.
        self._edges = [0] * ((n + 1) * n)
        #: [covered ns, innermost open span, hook ns]; see _wrap.
        self._state = [0, -1, 0]
        self._machines = 0
        #: id(simulator) -> (machine serial, weak reference to its machine).
        self._owners: Dict[int, tuple] = {}
        self._snapshots: Dict[int, Dict[str, float]] = {}
        self._patched: List[tuple] = []
        #: id(wrapper) -> (wrapper, original function).
        self._wrappers: Dict[int, tuple] = {}

    # -- patching -----------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point; safe to call once per tracer."""
        hooks = {
            "repro.system.machine:Machine.__init__": self._on_machine,
            "repro.sim.core:Simulator.run": self._on_run,
        }
        resolved = [_resolve(spec) for spec in self.specs]
        for idx, (spec, (owner, attr, fn)) in enumerate(zip(self.specs, resolved)):
            wrapper = self._wrap(spec, fn, idx, hooks.get(spec))
            self._wrappers[id(wrapper)] = (wrapper, fn)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, fn))
                continue
            # Module functions are also bound by name at their call sites
            # (``from .sweep import run_sweep``): patch every alias.
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, fn))
        return self

    def restore(self) -> None:
        """Put back every original, including aliases bound after install."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                wrapper, fn = self._wrappers.get(id(value), (None, None))
                if value is wrapper:
                    setattr(mod, name, fn)
        self._patched.clear()
        self._owners.clear()

    def _wrap(self, spec: str, fn, idx: int, hook=None):
        """A span around ``fn``.  ``state[0]`` sums the durations of closed
        spans, each span replacing its children's share by its own on
        close, so at a span's close ``state[0] - covered`` is its direct
        children's time; ``state[1]`` is the innermost open span (-1:
        none).  ``hook`` runs after the call on its first argument, and its
        time is marked covered so that no span owns it."""
        state, self_ns, incl_ns, edges = self._state, self._self_ns, self._incl_ns, self._edges
        n = len(self.specs)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = state[1]
            state[1] = idx
            covered = state[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[idx] += dt - (state[0] - covered)
                incl_ns[idx] += dt
                state[0] = covered + dt
                state[1] = caller
                edges[(caller + 1) * n + idx] += 1
            if hook is not None:
                t1 = clock()
                hook(args[0])
                spent = clock() - t1
                state[0] += spent
                state[2] += spent
            return result

        wrapper._bench_span = spec
        return wrapper

    # -- work counts ---------------------------------------------------------
    def _on_machine(self, machine) -> None:
        self._owners[id(machine.sim)] = (self._machines, weakref.ref(machine))
        self._machines += 1

    def _on_run(self, sim) -> None:
        owner = self._owners.get(id(sim))
        if owner is None:
            return
        serial, ref = owner
        machine = ref()
        if machine is not None and machine.sim is sim:
            self._snapshots[serial] = machine_counts(machine)

    # -- results -------------------------------------------------------------
    def raw(self) -> dict:
        """JSON-able totals: per entry point, per edge, and summed counts."""
        n = len(self.specs)
        calls = [0] * n
        edges = []
        for k, count in enumerate(self._edges):
            if count:
                caller, callee = divmod(k, n)
                calls[callee] += count
                parent = self.specs[caller - 1] if caller else None
                edges.append([parent, self.specs[callee], count])
        counts: Dict[str, float] = {}
        for snap in self._snapshots.values():
            for key, value in snap.items():
                if key == "workloads.backlog_peak":
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        return {
            "entries": {
                spec: {"calls": calls[i], "self_ns": self._self_ns[i], "incl_ns": self._incl_ns[i]}
                for i, spec in enumerate(self.specs)
            },
            "edges": edges,
            "counts": counts,
            "hook_s": self._state[2] / 1e9,
        }


def layer_metrics(
    raw: dict,
    counts: Dict[str, float],
    traced_wall_s: float,
    traced_cpu_s: float,
    untraced_cpu_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of :data:`LAYER_METRICS`, plus each layer's
    absolute ``<layer>.self_s`` and the counts they derive from.

    ``raw`` is :meth:`Tracer.raw` of the traced pass and ``counts`` the
    layer counts the workload reported itself.  Spans measure wall time,
    so shares are taken of the traced pass's wall less the time spent
    snapshotting counts (``trace.wall_s``); the overhead compares the
    traced pass's CPU time with the untraced repetitions' median.
    """
    entries = raw["entries"]
    out: Dict[str, float] = dict(raw["counts"])
    out.update(counts)
    wall = traced_wall_s - raw["hook_s"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    for layer in LAYERS:
        self_s = sum(entries[s]["self_ns"] for s in layer.entries) / 1e9
        out[f"{layer.name}.self_s"] = self_s
        out[f"{layer.name}.self_share"] = ratio(self_s, wall)
        out[f"{layer.name}.calls"] = sum(entries[s]["calls"] for s in layer.entries)
    build = entries["repro.system.machine:Machine.__init__"]
    record = entries["repro.system.machine:Machine.record_latencies"]
    hits, misses = out.get("coherence.read_hits", 0), out.get("coherence.read_misses", 0)
    acquires, probes = out.get("sync.acquires", 0), out.get("sync.failed_probes", 0)
    out.update({
        "sim.ns_per_event": ratio(untraced_cpu_s * 1e9, out.get("sim.events", 0)),
        "network.mean_latency_cycles": ratio(
            out.get("network.latency_sum", 0), out.get("network.latency_n", 0)
        ),
        "network.ns_per_message": ratio(
            out["network.self_s"] * 1e9, out.get("network.messages", 0)
        ),
        "coherence.hit_ratio": ratio(hits, hits + misses),
        "sync.acquire_success_ratio": ratio(acquires, acquires + probes),
        "system.machine_build_s": build["incl_ns"] / 1e9,
        "system.latency_record_s": record["incl_ns"] / 1e9,
        "system.latency_record_share": ratio(record["incl_ns"] / 1e9, wall),
        "system.machines": build["calls"],
        "sweep.cached_rerun_ratio": ratio(out.get("sweep.cached_rerun_s", 0), untraced_cpu_s),
        "trace.wall_s": wall,
        "trace.attributed_ratio": sum(out[f"{layer.name}.self_share"] for layer in LAYERS),
        "trace.overhead": ratio(traced_cpu_s, untraced_cpu_s) - 1.0,
    })
    for name, _unit, _better in LAYER_METRICS:
        out.setdefault(name, 0)
    return out


def largest_layer(metrics: Dict[str, float]) -> str:
    """The layer with the most self time."""
    return max(LAYERS, key=lambda layer: metrics[f"{layer.name}.self_s"]).name
