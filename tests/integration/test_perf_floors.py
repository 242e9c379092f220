"""Pins for the perf floors table (``benchmarks/perf_smoke.py``).

Times nothing: it checks that every gate is still in the table at its
floor, so lowering or dropping one fails here, and that the verdict
function passes a result sitting exactly on every floor and fails one
row just past it.
"""

import importlib.util
import os
import sys

import pytest

PATH = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "perf_smoke.py")


def _load():
    spec = importlib.util.spec_from_file_location("perf_smoke", PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


perf = _load()

GATES = {
    "fast kernel": ("ratio", 1.5),
    "batched drain": ("ratio", 3.0),
    "process sleep": ("ratio", 1.5),
    "latency record": ("ratio", 2.0),
    "cached sweep": ("ratio", 3.0),
    "rounds compile": ("ratio", 4.0),
    "demand generator": ("absolute", 200_000),
    "quick report": ("ceiling", 600),
}


def _on_the_floor():
    return {"rows": [{"name": row.name, "value": row.floor} for row in perf.FLOORS]}


def test_gating_rows_and_floors_are_pinned():
    gates = {row.name: (row.kind, row.floor) for row in perf.FLOORS if row.kind != "info"}
    assert gates == GATES


def test_informational_rows_never_gate():
    info = [row for row in perf.FLOORS if row.kind == "info"]
    assert {row.name for row in info} == {"protocol smoke", "trace overhead"}
    assert all(row.passes(v) for row in info for v in (0.0, 1e12))


def test_a_result_exactly_on_every_floor_passes():
    assert perf.verdict(_on_the_floor()) == 0


@pytest.mark.parametrize("name", sorted(GATES))
def test_one_row_just_past_its_floor_fails(name):
    kind, floor = GATES[name]
    doc = _on_the_floor()
    row = next(r for r in doc["rows"] if r["name"] == name)
    row["value"] = floor * (1.001 if kind == "ceiling" else 0.999)
    assert perf.verdict(doc) == 1


def test_a_missing_gating_row_fails():
    doc = _on_the_floor()
    doc["rows"] = [r for r in doc["rows"] if r["name"] != "cached sweep"]
    assert perf.verdict(doc) == 1


def test_json_is_the_only_option():
    with pytest.raises(SystemExit):
        perf.main(["--check-floors", "BENCH.json"])
