"""The layer tracer: it must not change what it measures, must explain
the traced wall, and must leave nothing behind."""

import sys
import types

import pytest

from bench import worker
from bench.tracer import LAYERS, Tracer, _resolve, layer_metrics, largest_layer
from bench.workloads import WORKLOADS, Workload

SPECS = [s for layer in LAYERS for s in layer.entries]


def _wrappers_installed():
    """Every entry point or module attribute that is a span wrapper."""
    found = [s for s in SPECS if hasattr(_resolve_current(s), "_bench_span")]
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and mod is not None:
            found += [f"{name}.{k}" for k, v in vars(mod).items() if hasattr(v, "_bench_span")]
    return found


def _resolve_current(spec):
    mod_name, _, qual = spec.partition(":")
    owner = sys.modules[mod_name]
    for part in qual.split("."):
        owner = getattr(owner, part)
    return owner


def _traced(name, seed):
    tracer = Tracer().install()
    try:
        assert _wrappers_installed()
        out, wall, cpu = worker.timed(WORKLOADS[name].run, seed, True)
    finally:
        tracer.restore()
    return out, tracer.raw(), wall, cpu


@pytest.mark.parametrize("name", ["traffic-write", "fuzz"])
def test_traced_outputs_match_untraced_and_are_attributed(name):
    plain = WORKLOADS[name].run(5, True)
    traced, raw, wall, cpu = _traced(name, 5)
    assert [p["digest"] for p in traced.points] == [p["digest"] for p in plain.points]
    assert all(p["failed"] == 0 for p in traced.points)
    metrics = layer_metrics(raw, traced.counts, wall, cpu, cpu)
    assert metrics["trace.attributed_ratio"] >= 0.9
    assert metrics["sim.events"] > 0 and metrics["network.messages"] > 0
    assert largest_layer(metrics) in {layer.name for layer in LAYERS}


def test_restore_puts_back_every_original_including_late_aliases():
    originals = {s: _resolve(s)[2] for s in SPECS}
    tracer = Tracer().install()
    # A module imported while tracing binds the wrapper by name.
    late = types.ModuleType("repro._late_alias_probe")
    late.run_sweep = sys.modules["repro.sweep"].run_sweep
    sys.modules[late.__name__] = late
    try:
        assert hasattr(late.run_sweep, "_bench_span")
    finally:
        tracer.restore()
        del sys.modules[late.__name__]
    assert late.run_sweep is originals["repro.sweep:run_sweep"]
    assert not _wrappers_installed()
    for spec, fn in originals.items():
        assert _resolve_current(spec) is fn, spec


def test_untraced_repetition_installs_no_wrapper(monkeypatch):
    fuzz = WORKLOADS["fuzz"]
    seen = []

    def probe(seed, smoke):
        seen.append(_wrappers_installed())
        return fuzz.run(seed, smoke)

    monkeypatch.setitem(WORKLOADS, "probe", Workload("probe", fuzz.entry, probe))
    doc = worker.measure("probe", 0, True, False)
    assert doc["trace"] is None and doc["points"][0]["failed"] == 0
    assert seen == [[]]
