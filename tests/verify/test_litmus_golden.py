"""Event-order pin for :func:`repro.verify.litmus.run_litmus`.

The gate's outcome sets cannot see a change in event order: a reordered
run usually lands on the same outcome.  This pin records, for every
:data:`~repro.verify.litmus.LITMUS_TESTS` entry on each protocol it runs
on, under ``bc`` at seed 0 and jitter 2, the record format of
``tests/verify/test_fuzz_golden.py``:

* the outcome ``run_litmus`` returns;
* ``sim.now`` and ``sim.events_processed`` at the end of the run;
* the network's counter dict and its mean message latency.

The machine is caught by wrapping :meth:`Machine.run_all`, which works
whatever entry point builds the run.
"""

import hashlib

import pytest

from repro.system.machine import Machine
from repro.verify.litmus import LITMUS_TESTS, run_litmus

#: "<test>/<protocol>" -> sha256 of the run's record.
GOLDEN = {
    "mp/wbi": "6782c6c2036c4491628f97dc4ff15db221e183b042ab6ec67d61ccd4ea45625a",
    "mp/primitives": "e749f8ac975b9002cc13a776fd0a6245db22fa50974b96ce0c5a0f1d573857b7",
    "mp/writeupdate": "fe2b57eab2771f2734aa80d4ed83537076807f4464fc97eb5a42b40d4031628c",
    "mp+barrier/wbi": "0432e02026581707d5d8d1987412b8c87cf33f2a50605eb683a06ff44affec17",
    "mp+barrier/primitives": "4042631f94d92b45c00926962c33676900d11027be2cc0d767d50f3b9a4516cc",
    "mp+barrier/writeupdate": "e51348a520b99ade7af207352d4fb7cc10c4bd728943025aaa1d9893965bc09c",
    "mp+lock/wbi": "77ba658474cd59bc85286670c9707c9c4f13bc0e14dee79033424e98cdb8a847",
    "mp+lock/primitives": "9dd5e9bdc98d09538203dba798f68fb93cb385b9445fd4199b1b22dd5e547265",
    "mp+lock/writeupdate": "6a6e42c3e52111236409fc3bd216dbdc4966ab3ce898a29539accc70707d0ace",
    "sb/wbi": "f37fda1649f27f8def68d82e79ff9043f00c3b94af900821ff8c238bc9d02f11",
    "sb/primitives": "a12b98b6140b83e495dcd835a03e292dbe1ab564a8926f51f1f66bcb9d7dc835",
    "sb/writeupdate": "a0df6f1865a7552b6bd70ae0ebe10b8f32201c36aa7ea18724dfbd5c579eba12",
    "sb+flush/wbi": "f37fda1649f27f8def68d82e79ff9043f00c3b94af900821ff8c238bc9d02f11",
    "sb+flush/primitives": "44e0b87aee509905256269272aa5e443a9d3a85da7959feedb5d0fb0c7a619db",
    "sb+flush/writeupdate": "a0df6f1865a7552b6bd70ae0ebe10b8f32201c36aa7ea18724dfbd5c579eba12",
    "lb/wbi": "19bf304bcf2d473d6a5f443426a6345b188b5d2bb1e19590512a367497900961",
    "lb/primitives": "48f0a5e9378304e65459d219c737ffae96f597ccaadc5893f6914a0234bfab16",
    "lb/writeupdate": "ce1032fe4189aa02b9efa7a1e3138743421398296dc757aad1b685787c86eaed",
    "s/wbi": "7633cb16ffa5234e1b015e22249d4c934100d755f02bdf36591524afa2cab53e",
    "s/primitives": "0d058d1cf8a484f538a8c4ab1983b269f39afc33ae109e1792bd68745632592e",
    "s/writeupdate": "e368077b0a04ec8a5da4d95bf587317056e4651deda3ef7f2f1be914c1f0e8c1",
    "r/wbi": "ae9ccb0adcda516d0879b5b1d6fb2338063b720b7d664808028f33803a71a606",
    "r/primitives": "a143448d345e1f40701dec0763a4c66e597beb6be671c1604ca6a77597d61cd9",
    "r/writeupdate": "0131c69ccaeaa36aafac29c722738297d000d1911455fabce6ef3a0919236ae9",
    "wrc/wbi": "b7ce05c6574064378d80d5fcf7be19e9c646b0e9bad1604c81184cacd6bbd7d3",
    "wrc/primitives": "35b926046f4e0a731987607865e93a6553b868418193cbcf5a44a1c014a4ad0a",
    "wrc/writeupdate": "dd9ea6fcdf982f0947cebcc5b4e51bcdff5f50f227c92dd86d46dab35bcd21cf",
    "isa2/wbi": "654b941e749c6184ae57dea75147dbc58978c92e56833c1883875b87471a26d0",
    "isa2/primitives": "714c7a1fc04251aa282e59036a334705eb916fade9396d794d62ba00e1eb4b51",
    "isa2/writeupdate": "6456c14d6e42a03b6a8b1b54e4e9236260ad8d88242a513e3cbfabef2a86a181",
    "iriw/wbi": "686a73b5c9321b7bfc772b221965fd51f6617b623e3b08defe6082b83dac56cc",
    "iriw/primitives": "145bea86fca01945db87567bc74b74ae3f3d9878bc359f502d35c675b5a2feb9",
    "iriw/writeupdate": "a85ae7086ddb327239ba9124eead8d7c81fefdffa9a0bc46cf9163fe2fe6f008",
    "corr/wbi": "c1cccea8a6ce815c686cb7d5c48edb34b8524114dbf0e63cf00cbea262b66f2c",
    "corr/primitives": "3e14bf8fa329b5cec6df08a58ee0c5a64ada611125e625e6a6f39eed79d5cd15",
    "corr/writeupdate": "87a28965aa48db9f6db565629515a602bfa34aeb845fe40b7ea05d9c1688ac8b",
    "coww/wbi": "57621202f4cd4b1549027462c242d797a835a6b776e371e11c930ca835f64a74",
    "coww/primitives": "87bacef59c3e89045d09611e9e7f3f8f802500f802e06e638f0e7331f8f0b80d",
    "coww/writeupdate": "8a6affaecdb09a0f557a5c099eab778b00e2907ed81f39eeec58ebcbd8425aa0",
    "2+2w/wbi": "eb22a682a2cc723294866e2b4e7961460290ed295200baf89ae87129a7382d88",
    "2+2w/primitives": "51010db7fad9f16fd4038d5e65e9b00573b0d91f206ecc0dacfaf922580b5a58",
    "2+2w/writeupdate": "f5da4d84d3697eb3987c8edcfd01de46aa2155c7472931f2b8983c01a2009494",
    "corw2/wbi": "e826c418a4b519b9a874e330d06d78890ff812e940926f7409cc674c680a0bb1",
    "corw2/primitives": "d5b90d83c19c121d654624c3f6ae14a73f7971e5fde366cd7df4c042979667b8",
    "corw2/writeupdate": "5c5555bb0136881a93e60efa85ba21443e62c71fb0bdefa0c70478f54c6eeb92",
    "lock-inc/wbi": "2e86df0ac9762ca607fa69924c8e84148a56f15c041a7013952cdf4f9026f2d4",
    "lock-inc/primitives": "234352ccc44cf58fbb4f45816c5d3b6f7d02adbd4cb727362eb625ceb92ecbd7",
    "lock-inc/writeupdate": "57de716db4d90f3b0fed468f88f0aff2025773f3ab3d65e3134adf62832e2164",
    "ru-stale/primitives": "4cedd9e62ee3f0874a289f9d368dc49ac9ff85d1fe6282e31c38853bd1bf8ed8",
}

CASES = [(t, p) for t in LITMUS_TESTS for p in t.protocols]


def litmus_record(monkeypatch, test, protocol) -> str:
    seen = []
    real_run_all = Machine.run_all

    def recording_run_all(machine, *args, **kwargs):
        done = real_run_all(machine, *args, **kwargs)
        net = machine.net
        seen.append((
            (machine.sim.now, machine.sim.events_processed),
            (sorted(net.stats.counters.as_dict().items()), net.mean_latency),
        ))
        return done

    monkeypatch.setattr(Machine, "run_all", recording_run_all)
    out = run_litmus(test, protocol, "bc", seed=0, jitter=2.0)
    assert len(seen) == 1
    return hashlib.sha256(repr((out,) + seen[0]).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "test, protocol", CASES, ids=[f"{t.name}-{p}" for t, p in CASES]
)
def test_litmus_run_matches_golden(monkeypatch, test, protocol):
    got = litmus_record(monkeypatch, test, protocol)
    assert got == GOLDEN[f"{test.name}/{protocol}"]
