"""Workload models, layered as demand -> policy -> service.

The demand layer (:mod:`.demand`) generates *who asks when*: seeded
open-loop arrival processes multiplexing millions of logical clients.
The paper's closed-loop Table-4 regime needs no demand object; there each
processor issues its next request when the previous one completes.  The policy layer
(:mod:`.policy`) decides *where* each request runs.  The service layer
(:mod:`.service`) is *what the machine does*: open-loop storage services
(KV, queue, session) plus the closed-loop scaffold the paper's original
models (sync, work-queue, linear solver, FFT, stencil, trace replay)
configure.  :mod:`.traffic` assembles all three into the open-loop
tail-latency frontend (``python -m repro.workloads.traffic``).
"""

from .base import GRAIN_SIZES, LOCK_FACTORIES, RunBuilder, WorkloadResult, make_lock
from .demand import (
    ARRIVAL_FACTORIES,
    DemandParams,
    OpenLoopDemand,
    Schedule,
)
from .fft import FFTParams, FFTWorkload, run_fft
from .linsolver import LinSolverParams, LinSolverWorkload, run_linsolver
from .policy import POLICY_FACTORIES, Placement, make_policy
from .service import SERVICE_FACTORIES, ClosedLoopService, make_service
from .stencil import StencilParams, StencilWorkload, run_stencil
from .syncmodel import SyncModelParams, SyncModelWorkload
from .traces import TraceEntry, TraceRecorder, load_trace, replay, save_trace
from .workqueue import WorkQueueParams, WorkQueueWorkload

_TRAFFIC_NAMES = ("TrafficParams", "TrafficWorkload", "traffic_point")


def __getattr__(name):
    # Lazy so `python -m repro.workloads.traffic` does not re-import the
    # module it is executing (runpy's sys.modules warning).
    if name in _TRAFFIC_NAMES:
        from . import traffic

        return getattr(traffic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "WorkloadResult",
    "RunBuilder",
    "make_lock",
    "LOCK_FACTORIES",
    "GRAIN_SIZES",
    "ARRIVAL_FACTORIES",
    "POLICY_FACTORIES",
    "SERVICE_FACTORIES",
    "DemandParams",
    "OpenLoopDemand",
    "Schedule",
    "Placement",
    "make_policy",
    "make_service",
    "ClosedLoopService",
    "TrafficParams",
    "TrafficWorkload",
    "traffic_point",
    "SyncModelParams",
    "SyncModelWorkload",
    "WorkQueueParams",
    "WorkQueueWorkload",
    "LinSolverParams",
    "LinSolverWorkload",
    "run_linsolver",
    "StencilParams",
    "StencilWorkload",
    "run_stencil",
    "FFTParams",
    "FFTWorkload",
    "run_fft",
    "TraceEntry",
    "TraceRecorder",
    "replay",
    "save_trace",
    "load_trace",
]
