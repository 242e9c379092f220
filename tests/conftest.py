"""Both kernel loops for the machine-level suites.

:meth:`repro.sim.core.Simulator.run` is the only production run loop; the
all-heap referee lives in ``tests/sim/heap_referee.py``.  The suites in
:data:`HEAP_TWINS` run on both: every test collected from them gets a
twin, ``<name>[heap]`` or ``<name>[<params>-heap]``, that builds its
machines, and the ``Simulator()`` calls of its module, on
:class:`HeapSimulator` and must pass against the same pins.
"""

import pytest

from tests.sim.heap_referee import heap_machines

#: Path prefixes of the suites that also run on the referee.
HEAP_TWINS = (
    "tests/sim/test_core.py",
    "tests/sim/test_interrupt.py",
    "tests/sim/test_process_lifetime.py",
    "tests/sim/test_reprs.py",
    "tests/sim/test_resources.py",
    "tests/integration/",
    "tests/verify/test_fuzz_golden.py",
    "tests/faults/test_recovery.py",
    "tests/system/test_no_cyclic_garbage.py",
)

_ON_HEAP = pytest.StashKey[bool]()


@pytest.fixture
def heap_kernel():
    """``with heap_kernel() as sims:`` builds the block's machines on the
    all-heap referee; ``sims`` lists the referee simulators built."""
    return heap_machines


def pytest_collection_modifyitems(items):
    twinned = []
    for item in items:
        twinned.append(item)
        if isinstance(item, pytest.Function) and item.nodeid.startswith(HEAP_TWINS):
            callspec = getattr(item, "callspec", None)
            suffix = f"{callspec.id}-heap" if callspec is not None else "heap"
            twin = pytest.Function.from_parent(
                item.parent,
                name=f"{item.originalname}[{suffix}]",
                callspec=callspec,
                # Holds the parametrized arguments' pseudo-fixtures.
                fixtureinfo=item._fixtureinfo,
                originalname=item.originalname,
            )
            twin.stash[_ON_HEAP] = True
            twinned.append(twin)
    items[:] = twinned


@pytest.fixture(autouse=True)
def _heap_twin(request):
    if not request.node.stash.get(_ON_HEAP, False):
        yield
        return
    modules = [request.module] if hasattr(request.module, "Simulator") else []
    with heap_machines(*modules):
        yield
