"""Machine configuration.

All timing is in processor/cache cycles.  Defaults follow Table 4 of the
paper: 4-word blocks, 1024-block caches, main memory cycle of 4 cache
cycles, and an Omega interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import ResilienceParams
    from ..obs import ObsParams

__all__ = ["MachineConfig"]


@dataclass(slots=True)
class MachineConfig:
    """Shape and timing of the simulated multiprocessor."""

    n_nodes: int = 16
    words_per_block: int = 4  # Table 4: block size 4 words
    cache_blocks: int = 1024  # Table 4: cache size 1024 blocks
    cache_assoc: int = 4
    lock_cache_size: int = 16
    memory_cycle: int = 4  # Table 4: main memory cycle time (t_m)
    switch_cycle: int = 1  # per-stage flit time
    dir_cycle: int = 1  # directory check time (t_D)
    cache_cycle: int = 1  # local cache access time
    network: str = "omega"  # omega | omega-buffered | bus | crossbar | mesh
    buffer_capacity: Optional[int] = None  # switch buffers (None = infinite)
    #: Max sharers a WBI directory entry may track (limited directory,
    #: Dir_i-NB style: adding a sharer beyond the limit first invalidates
    #: one).  ``None`` = full map.  The paper picks pointer-based structures
    #: for scalability over full-map/limited directories; this knob lets the
    #: trade-off be measured.
    directory_limit: Optional[int] = None
    write_buffer_capacity: Optional[int] = None  # None = infinite (paper)
    #: If True, a GLOBAL-WRITE is acked only after update propagation to all
    #: READ-UPDATE subscribers completes ("globally performed"); if False,
    #: the ack returns once home memory is updated.
    strict_global_ack: bool = True
    #: How READ-UPDATE updates reach subscribers: "multicast" fans out from
    #: the home in parallel (Table 2's ``(n-1)||C_B`` timing); "chain"
    #: forwards hop-by-hop down the distributed linked list (the literal
    #: hardware structure; serial latency — kept as an ablation).
    ru_propagation: str = "multicast"
    #: Timeout/retry/dedup policy (:class:`~repro.faults.plan.ResilienceParams`).
    #: ``None`` = the paper's reliable fabric: no sequence numbers, no
    #: timers, bit-identical to the pre-resilience machine.  Building a
    #: :class:`~repro.system.machine.Machine` with a fault plan defaults
    #: this to :data:`~repro.faults.plan.DEFAULT_RESILIENCE`.
    resilience: Optional["ResilienceParams"] = None
    #: Tracing policy (:class:`~repro.obs.ObsParams`).  ``None`` (default)
    #: disables the instrumentation bus entirely: every emission site is
    #: guarded by one ``is not None`` test, so the disabled machine's hot
    #: paths are untouched.  Phase accounting (cheap, per-boundary) is
    #: always on regardless.
    obs: Optional["ObsParams"] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 0 or (self.n_nodes & (self.n_nodes - 1)) != 0:
            raise ValueError(f"n_nodes must be a positive power of two, got {self.n_nodes}")
        if self.cache_blocks % self.cache_assoc != 0:
            raise ValueError("cache_blocks must be divisible by cache_assoc")
        n_sets = self.cache_blocks // self.cache_assoc
        if n_sets & (n_sets - 1) != 0:
            raise ValueError("cache_blocks/cache_assoc must be a power of two")
        for name in ("memory_cycle", "switch_cycle", "dir_cycle", "cache_cycle"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.network not in ("omega", "omega-buffered", "bus", "crossbar", "mesh"):
            raise ValueError(f"unknown network {self.network!r}")
        if self.buffer_capacity is not None:
            # Every other network is an infinite-buffer model.
            if self.network != "omega-buffered":
                raise ValueError(
                    f"buffer_capacity needs network='omega-buffered', got {self.network!r}"
                )
            if self.buffer_capacity <= 0:
                raise ValueError("buffer_capacity must be positive or None")
        if self.ru_propagation not in ("multicast", "chain"):
            raise ValueError(f"ru_propagation must be 'multicast' or 'chain'")
        if self.directory_limit is not None and self.directory_limit <= 0:
            raise ValueError("directory_limit must be positive or None")

    @property
    def cache_sets(self) -> int:
        return self.cache_blocks // self.cache_assoc
