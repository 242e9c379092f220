"""The ``[heap]`` twins that ``tests/conftest.py`` adds really run on the
all-heap referee, and the originals on the production loop."""

from repro.sim import core
from repro.sim.core import Simulator
from repro.system.machine import Machine, MachineConfig
from tests.sim.heap_referee import HeapSimulator


def test_twin_builds_on_the_loop_its_name_says(request):
    expected = HeapSimulator if request.node.name.endswith("[heap]") else core.Simulator
    machine = Machine(MachineConfig(n_nodes=2, cache_blocks=64, cache_assoc=2, seed=1))
    assert type(machine.sim) is expected
    # The module's own ``Simulator`` name follows the twin too.
    assert type(Simulator()) is expected
