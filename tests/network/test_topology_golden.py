"""Whole-run pins for every analytic topology.

One fixed sync-model run (n=16) per network and protocol, plus the stencil
per network.  Each pins the sha256 of ``RunMetrics.to_json()``, the
completion time, the mean network latency and the queueing tally's
n/mean/M2, so any change to a topology's contention rule or routes
shows up here, bit for bit.
"""

import hashlib
import json

import pytest

from repro import Machine, MachineConfig
from repro.workloads import SyncModelParams, SyncModelWorkload, run_stencil

#: (network, protocol) -> (metrics sha256, completion, mean latency,
#: queueing (n, mean, M2)).
GOLDEN = {
    ("omega", "wbi"): ("4da995ee09a766e98e48a77933c107324713e9d2b0e205c43df3cf44282d7804", 1706, 12.241935483870957, (724, 3.1602209944751354, 19967.41436464088)),
    ("omega", "primitives"): ("bfb84c7d74c988a4bd3143a9ed55f67028a7f16cb28c76196bc51a7fc839c307", 921, 12.328840970350408, (360, 2.352777777777778, 8270.197222222216)),
    ("omega", "writeupdate"): ("4eb678bbddefb8572beec5786e363619daac37c80adb9b13f36c49bab40d82a8", 1093, 10.745945945945952, (534, 2.14044943820225, 10026.466292134846)),
    ("bus", "wbi"): ("4c9dba5f154999a6b116a6d2aab1967f8970c1c861021002b3bce40402631f6b", 1807, 20.77989130434783, (716, 18.980446927374278, 127255.72625698282)),
    ("bus", "primitives"): ("bfa8ca7fbdc05d8c9a260742ff5d86268e472659c99c7c7af4710df754b5480e", 997, 21.58490566037735, (360, 19.633333333333333, 86417.59999999999)),
    ("bus", "writeupdate"): ("fa9da51d5fa581b26dab5a8c8a1df93cd6f9af3ea1ee0363b8ea6b67be29a481", 1300, 22.434704830053647, (538, 21.031598513011147, 83944.46282527887)),
    ("crossbar", "wbi"): ("df93b2e9cff383f1b4a545659f25903bae5698c12c8acd63001ad1f8d29c35fb", 743, 3.478552278820377, (726, 1.2024793388429753, 8261.235537190083)),
    ("crossbar", "primitives"): ("b910da94631337205b795b1666344951b979451151ea546221e337bafe0b700a", 387, 3.0215633423180575, (360, 0.5027777777777774, 1015.9972222222221)),
    ("crossbar", "writeupdate"): ("123717124eae84eb2dcb0c508f97df3f32815798c925e54d80dfc566b97e6ebc", 473, 2.865248226950355, (541, 0.7060998151571161, 2452.2698706099795)),
    ("mesh", "wbi"): ("30da8eaf7171dae77b76c20ae1f6543996225695ecaf966b46bc423cb1701aa7", 1234, 7.68342391304347, (714, 1.981792717086834, 11744.763305322134)),
    ("mesh", "primitives"): ("40927fc4138154d3fa7d1092db06c12c639b55ac1005ab7e89bae34e9e9c1b2e", 670, 7.5956873315363875, (360, 1.6166666666666691, 5215.100000000001)),
    ("mesh", "writeupdate"): ("3c37fb07f304d52087873068e3c2aebb87606d8794dde57beb0b4c3d9b1d96f5", 741, 6.684684684684683, (534, 1.5955056179775267, 6116.629213483148)),
}

#: network -> stencil completion time (n=16, 8 points per node, 2 sweeps).
STENCIL_GOLDEN = {"omega": 720, "bus": 1537, "crossbar": 544, "mesh": 664}


@pytest.mark.parametrize("network, protocol", list(GOLDEN), ids=lambda v: v)
def test_syncmodel_run_pinned(network, protocol):
    cfg = MachineConfig(n_nodes=16, network=network, cache_blocks=128, cache_assoc=2, seed=3)
    lock = "tts" if protocol == "wbi" else "cbl"
    with Machine(cfg, protocol=protocol) as m:
        params = SyncModelParams(tasks_per_node=2, grain_size=20)
        res = SyncModelWorkload(m, params, lock_scheme=lock).run()
        doc = json.dumps(m.metrics().to_json(), sort_keys=True)
        q = m.net.stats.tally("queueing")
        got = (
            hashlib.sha256(doc.encode()).hexdigest(),
            res.completion_time,
            m.net.mean_latency,
            (q.n, q.mean, q._m2),
        )
    assert got == GOLDEN[network, protocol]


@pytest.mark.parametrize("network", list(STENCIL_GOLDEN))
def test_stencil_completion_pinned(network):
    res = run_stencil(16, network=network, points_per_node=8, sweeps=2)
    assert res.completion_time == STENCIL_GOLDEN[network]
