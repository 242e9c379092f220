"""BENCHMARK.json: the declared workloads and metrics, and the runner's
output against them."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench.tracer import LAYER_METRICS, LAYERS
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    for path in SPEC["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path)), path
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for key, keys in (
        ("workloads", {"name", "why"}),
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for entry in SPEC[key]:
            assert set(entry) == keys, entry
            assert NAME.fullmatch(entry["name"]), entry["name"]
            names.append(entry["name"])
            if key != "workloads":
                assert UNIT.fullmatch(entry["unit"]), entry
                assert entry["better"] in ("lower", "higher"), entry
    assert len(names) == len(set(names)), "a name is used twice"
    for w in SPEC["workloads"]:
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_declarations_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)


def test_every_layer_names_metrics_and_workloads_it_should_move():
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for layer in LAYERS:
        assert layer.moves, layer.name
        for metric, workload in layer.moves:
            assert metric in metrics, (layer.name, metric)
            assert workload in workloads, (layer.name, workload)


def _smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--smoke", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_exactly_the_declared_metrics(trace, key):
    line = _smoke(trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[key]]
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for name, v in line["metrics"].items():
        assert v["unit"] == units[name]
        assert isinstance(v["value"], (int, float))
        # A time that reads 0 on every run measures nothing.
        if key == "end_to_end" or v["unit"] in ("s", "ns"):
            assert v["value"] > 0, name


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
