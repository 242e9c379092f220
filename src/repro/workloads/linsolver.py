"""The iterative linear-equation solver of Section 4.1 (Table 2's scenario).

Jacobi iteration on ``Ax = b``: every processor owns one element of ``x``;
each iteration it reads all other elements, computes its new value, writes
it, and joins a barrier.  Three data-placement/coherence schemes are
compared, exactly as in Table 2:

``read-update``
    The paper machine: every processor READ-UPDATEs the x-vector blocks
    once; afterwards each write is a WRITE-GLOBAL whose update is pushed to
    the n-1 subscribers.  Reads of the next iteration hit in the cache.

``inv-I``
    WBI with the x vector colocated B elements per block: writers fight for
    exclusive ownership of shared lines (false sharing) and readers re-miss
    every iteration.

``inv-II``
    WBI with one x element per block: writes are cheaper but the next
    iteration's reads must re-fetch n-1 separate blocks.

``write-update``
    Extension beyond Table 2: the Dragon-style sender-initiated update
    comparator.  On this workload (every reader wants every update,
    forever) write-update is at its best — word-sized pushes, no
    subscription management — which makes it the interesting upper
    baseline for read-update's overheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..sync.base import HWBarrier
from ..sync.swlock import SWBarrier
from ..system.config import MachineConfig
from ..system.machine import Machine
from .base import RunBuilder, WorkloadResult

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor

__all__ = ["LinSolverParams", "LinSolverWorkload", "run_linsolver"]

SCHEMES = ("read-update", "inv-I", "inv-II", "write-update")


@dataclass(slots=True)
class LinSolverParams:
    """Solver shape: n equations on n processors (dance-hall analysis)."""

    iterations: int = 4
    compute_per_element: int = 2  # cycles of local work per a_ij * x_j

    def __post_init__(self) -> None:
        if self.iterations <= 0 or self.compute_per_element < 0:
            raise ValueError("bad solver parameters")


class LinSolverWorkload:
    """Runs the solver under one of the three schemes."""

    def __init__(self, machine: Machine, scheme: str, params: Optional[LinSolverParams] = None):
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        if scheme == "read-update" and machine.protocol != "primitives":
            raise ValueError("read-update scheme needs a primitives machine")
        if scheme.startswith("inv") and machine.protocol != "wbi":
            raise ValueError("invalidation schemes need a WBI machine")
        if scheme == "write-update" and machine.protocol != "writeupdate":
            raise ValueError("write-update scheme needs a writeupdate machine")
        self.machine = machine
        self.scheme = scheme
        self.params = params or LinSolverParams()
        n = machine.cfg.n_nodes
        wpb = machine.cfg.words_per_block
        if scheme in ("inv-II", "write-update"):
            # One x element per block.
            first = machine.alloc_block(n)
            self.x_addr = [machine.amap.word_addr(first + i, 0) for i in range(n)]
        else:
            # Colocated: B consecutive elements per block.
            nblocks = (n + wpb - 1) // wpb
            first = machine.alloc_block(nblocks)
            self.x_addr = [
                machine.amap.word_addr(first + i // wpb, i % wpb) for i in range(n)
            ]
        self.x_blocks = sorted({machine.amap.block_of(a) for a in self.x_addr})
        # The hardware barrier exists on every machine variant; the WBI runs
        # use the software barrier so their synchronization cost is also
        # software-native, as in the paper's WBI column.
        self.barrier = (
            SWBarrier(machine, n=n) if machine.protocol == "wbi" else HWBarrier(machine, n=n)
        )
        #: Per-iteration network traffic snapshots, filled during run().
        self.per_iteration: List[Dict[str, int]] = []
        self._iter_marks: List[Dict[int, tuple]] = []

    def _driver(self, proc: "Processor"):
        p = self.params
        n = self.machine.cfg.n_nodes
        me = proc.node_id
        my_addr = self.x_addr[me]
        if self.scheme == "read-update":
            # Initial load: subscribe to every x block.
            for blk in self.x_blocks:
                yield from proc.read_update(self.machine.amap.word_addr(blk, 0))
        for it in range(1, p.iterations + 1):
            # Read all other elements (plain reads: updates were pushed, or
            # coherent reads under WBI).
            acc = 0
            for j in range(n):
                if j == me:
                    continue
                v = yield from proc.shared_read(self.x_addr[j])
                acc += v
                yield from proc.compute(p.compute_per_element)
            # Write our new element.
            value = it  # iteration stamp: lets tests check propagation
            if self.scheme == "read-update":
                yield from proc.write_global(my_addr, value)
                yield from proc.flush()
            else:
                yield from proc.shared_write(my_addr, value)
            yield from proc.barrier(self.barrier)

    def _snapshot(self) -> Dict[str, int]:
        c = self.machine.net.stats.counters
        return {"messages": c["messages"], "flits": c["flits"]}

    def run(self, max_cycles: Optional[float] = 50_000_000) -> WorkloadResult:
        m = self.machine
        before = self._snapshot()
        for i in range(m.cfg.n_nodes):
            proc = m.processor(i, consistency="sc")
            m.spawn(self._driver(proc), name=f"linsolver-{i}")
        m.run_all(max_cycles)
        after = self._snapshot()
        iters = self.params.iterations
        self.per_iteration = [
            {
                "messages": (after["messages"] - before["messages"]) / iters,
                "flits": (after["flits"] - before["flits"]) / iters,
            }
        ]
        builder = RunBuilder(m)
        builder.note(per_iteration=self.per_iteration[0])
        return builder.finish(tasks_done=iters)


def run_linsolver(
    n_nodes: int,
    scheme: str,
    iterations: int = 4,
    seed: int = 0,
    **cfg_kw,
) -> WorkloadResult:
    """Convenience: build the right machine and run one solver experiment."""
    protocol = {
        "read-update": "primitives",
        "write-update": "writeupdate",
    }.get(scheme, "wbi")
    cfg = MachineConfig(n_nodes=n_nodes, seed=seed, **cfg_kw)
    with Machine(cfg, protocol=protocol) as machine:
        wl = LinSolverWorkload(machine, scheme, LinSolverParams(iterations=iterations))
        return wl.run()
