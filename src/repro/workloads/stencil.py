"""A red-black stencil (SOR-style) workload: barrier-heavy, neighbor-local.

Each processor owns a strip of a 1-D grid and sweeps it in two half-phases
(red points, then black points), exchanging only *boundary* values with its
two neighbours between phases and joining a barrier after each half-sweep.
Unlike the solver (all-to-all) or the work queue (single hot lock), the
communication here is neighbour-local — the workload where a mesh
interconnect matches an Omega network and barrier cost dominates.

On the primitives machine, boundary cells are published with WRITE-GLOBAL
and neighbours subscribe with READ-UPDATE; on coherent machines plain
reads/writes carry the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sync.base import HWBarrier
from ..sync.swlock import SWBarrier
from ..system.config import MachineConfig
from ..system.machine import Machine
from .base import RunBuilder, WorkloadResult

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor

__all__ = ["StencilParams", "StencilWorkload", "run_stencil"]


@dataclass(slots=True)
class StencilParams:
    points_per_node: int = 16  # interior points per strip
    sweeps: int = 3
    compute_per_point: int = 2

    def __post_init__(self) -> None:
        if self.points_per_node <= 0 or self.sweeps <= 0 or self.compute_per_point < 0:
            raise ValueError("bad stencil parameters")


class StencilWorkload:
    """1-D red-black relaxation across all nodes."""

    def __init__(self, machine: Machine, params: Optional[StencilParams] = None):
        self.machine = machine
        self.params = params or StencilParams()
        n = machine.cfg.n_nodes
        # Each node's strip: interior block(s) + one boundary block per side.
        self.left_boundary = [machine.alloc_word() for _ in range(n)]
        self.right_boundary = [machine.alloc_word() for _ in range(n)]
        blocks_per_strip = max(
            1, self.params.points_per_node // machine.cfg.words_per_block
        )
        self.interior = [machine.alloc_block(blocks_per_strip) for _ in range(n)]
        self.blocks_per_strip = blocks_per_strip
        self.barrier = (
            SWBarrier(machine, n=n) if machine.protocol == "wbi" else HWBarrier(machine, n=n)
        )

    def _driver(self, proc: "Processor"):
        p = self.params
        m = self.machine
        n = m.cfg.n_nodes
        me = proc.node_id
        left = (me - 1) % n
        right = (me + 1) % n
        primitives = m.protocol == "primitives"
        if primitives:
            # Subscribe to both neighbours' boundary cells once.
            yield from proc.read_update(self.right_boundary[left])
            yield from proc.read_update(self.left_boundary[right])
        for _sweep in range(p.sweeps):
            for color in (0, 1):  # red then black half-sweep
                # Read neighbour boundaries (local hits under read-update).
                yield from proc.shared_read(self.right_boundary[left])
                yield from proc.shared_read(self.left_boundary[right])
                # Relax our interior points of this color.
                for k in range(color, p.points_per_node, 2):
                    block = self.interior[me] + (k // m.cfg.words_per_block) % self.blocks_per_strip
                    addr = m.amap.word_addr(block, k % m.cfg.words_per_block)
                    v = yield from proc.read(addr)
                    yield from proc.compute(p.compute_per_point)
                    yield from proc.write(addr, v + 1)
                # Publish our new boundary values.
                if primitives:
                    yield from proc.write_global(self.left_boundary[me], _sweep)
                    yield from proc.write_global(self.right_boundary[me], _sweep)
                else:
                    yield from proc.shared_write(self.left_boundary[me], _sweep)
                    yield from proc.shared_write(self.right_boundary[me], _sweep)
                yield from proc.barrier(self.barrier)

    def run(self, max_cycles: Optional[float] = 50_000_000) -> WorkloadResult:
        m = self.machine
        for i in range(m.cfg.n_nodes):
            proc = m.processor(i, consistency="bc" if m.protocol == "primitives" else "sc")
            m.spawn(self._driver(proc), name=f"stencil-{i}")
        m.run_all(max_cycles)
        met = m.metrics()
        builder = RunBuilder(m)
        builder.note(barriers=met.msg_by_type.get("BARRIER_ARRIVE", 0))
        return builder.finish(tasks_done=self.params.sweeps)


def run_stencil(n_nodes: int, protocol: str = "primitives", network: str = "omega", seed: int = 0, **pkw) -> WorkloadResult:
    """Build a machine and run the stencil."""
    cfg = MachineConfig(n_nodes=n_nodes, network=network, seed=seed)
    with Machine(cfg, protocol=protocol) as machine:
        return StencilWorkload(machine, StencilParams(**pkw)).run()
