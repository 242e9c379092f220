"""A phased, FFT-like workload exercising selective READ-UPDATE (Section 4.2).

"In parallel Fast Fourier Transform programs, readers may need access to
different regions of a shared data structure during different phases of the
computation.  ...the program may selectively reset the update bit for
certain regions ... and request the regions to be used in the current
computation phase using the read-update primitive."

Each of ``n`` processors owns one region of a shared array.  In phase ``p``
processor ``i`` consumes the region owned by partner ``i XOR 2^p`` (the FFT
butterfly pattern) and produces new values into its own region with
WRITE-GLOBAL.  With ``selective=True`` a processor subscribes
(READ-UPDATE) only to its current partner's region and unsubscribes
(RESET-UPDATE) from the previous one; with ``selective=False`` it
subscribes to every region it ever touches and never resets — update
propagation then fans out to stale subscribers, which is the waste the
primitive avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sync.base import HWBarrier
from ..system.config import MachineConfig
from ..system.machine import Machine
from .base import RunBuilder, WorkloadResult

if TYPE_CHECKING:  # pragma: no cover
    from ..node.processor import Processor

__all__ = ["FFTParams", "FFTWorkload", "run_fft"]


@dataclass(slots=True)
class FFTParams:
    blocks_per_region: int = 2
    writes_per_phase: int = 4  # global writes into the owned region per phase
    selective: bool = True  # use RESET-UPDATE between phases

    def __post_init__(self) -> None:
        if self.blocks_per_region <= 0 or self.writes_per_phase <= 0:
            raise ValueError("bad FFT parameters")


class FFTWorkload:
    """Butterfly-phased producer/consumer over the primitives machine."""

    def __init__(self, machine: Machine, params: Optional[FFTParams] = None):
        if machine.protocol != "primitives":
            raise ValueError("the FFT workload needs a primitives machine")
        n = machine.cfg.n_nodes
        if n & (n - 1):
            raise ValueError("FFT needs a power-of-two processor count")
        self.machine = machine
        self.params = params or FFTParams()
        self.n_phases = n.bit_length() - 1
        r = self.params.blocks_per_region
        first = machine.alloc_block(n * r)
        self.region_blocks = [list(range(first + i * r, first + (i + 1) * r)) for i in range(n)]
        self.barrier = HWBarrier(machine, n=n)

    def _region_words(self, region: int):
        amap = self.machine.amap
        for blk in self.region_blocks[region]:
            yield from amap.words_of(blk)

    def _driver(self, proc: "Processor"):
        p = self.params
        me = proc.node_id
        amap = self.machine.amap
        prev_partner = None
        for phase in range(self.n_phases):
            # Idempotent per phase name: every worker announces the phase,
            # the first one to arrive opens it.
            self.machine.mark_phase(f"butterfly-{phase}")
            partner = me ^ (1 << phase)
            # Subscribe to this phase's input region; optionally drop the
            # previous subscription first.
            if p.selective and prev_partner is not None and prev_partner != partner:
                for blk in self.region_blocks[prev_partner]:
                    yield from proc.reset_update(amap.word_addr(blk, 0))
            for blk in self.region_blocks[partner]:
                yield from proc.read_update(amap.word_addr(blk, 0))
            # Produce into our own region.
            words = list(self._region_words(me))
            for k in range(p.writes_per_phase):
                addr = words[k % len(words)]
                yield from proc.write_global(addr, phase * 1000 + me)
            yield from proc.flush()
            # Consume the partner's region (reads are local: updates pushed).
            for addr in self._region_words(partner):
                yield from proc.shared_read(addr)
                yield from proc.compute(2)
            yield from proc.barrier(self.barrier)
            prev_partner = partner

    def run(self, max_cycles: Optional[float] = 50_000_000) -> WorkloadResult:
        m = self.machine
        for i in range(m.cfg.n_nodes):
            proc = m.processor(i, consistency="bc")
            m.spawn(self._driver(proc), name=f"fft-{i}")
        m.run_all(max_cycles)
        met = m.metrics()
        builder = RunBuilder(m)
        builder.note(
            ru_updates=met.msg_by_type.get("RU_UPDATE", 0)
            + met.msg_by_type.get("RU_UPDATE_FWD", 0)
        )
        return builder.finish(tasks_done=self.n_phases)


def run_fft(n_nodes: int, selective: bool, seed: int = 0, **cfg_kw) -> WorkloadResult:
    """Build a primitives machine and run the FFT workload."""
    cfg = MachineConfig(n_nodes=n_nodes, seed=seed, **cfg_kw)
    with Machine(cfg, protocol="primitives") as machine:
        wl = FFTWorkload(machine, FFTParams(selective=selective))
        return wl.run()
