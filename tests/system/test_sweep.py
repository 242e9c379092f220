"""The parallel sweep runner: digests, cache, dedup, and determinism.

The runner's contract is that parallelism and caching are *invisible*: the
same task list yields the same result list whether points come from one
process, a pool, or the on-disk cache.  These tests pin each piece of that
contract without simulating anything expensive.
"""

import json
import os
import shutil
import textwrap

import pytest

import repro.sweep as sweep
from repro.sweep import (
    SweepStats,
    SweepTask,
    code_digest,
    config_fingerprint,
    default_jobs,
    derive_seed,
    run_sweep,
    source_digest,
    task_digest,
)
from repro.system.config import MachineConfig


# ------------------------------------------------------------------ digests


def test_task_digest_stable_under_param_order():
    a = SweepTask("m:f", {"x": 1, "y": [1, 2], "z": "s"})
    b = SweepTask("m:f", {"z": "s", "y": [1, 2], "x": 1})
    assert task_digest(a) == task_digest(b)


def test_task_digest_distinguishes_fn_params_and_version():
    base = SweepTask("m:f", {"x": 1})
    assert task_digest(base) != task_digest(SweepTask("m:g", {"x": 1}))
    assert task_digest(base) != task_digest(SweepTask("m:f", {"x": 2}))
    assert task_digest(base) == task_digest(base, version=code_digest())
    assert task_digest(base) != task_digest(base, version=code_digest() + "x")


def test_code_digest_tracks_every_source_byte(tmp_path):
    """The cache key covers the simulator's source: a copy of the package
    digests equal, and flipping one byte of one module changes it."""
    pkg = tmp_path / "repro"
    shutil.copytree(
        os.path.dirname(sweep.__file__), pkg, ignore=shutil.ignore_patterns("__pycache__")
    )
    assert source_digest(str(pkg)) == code_digest()
    proc = pkg / "node" / "processor.py"
    src = proc.read_bytes()
    proc.write_bytes(src.replace(b"data_cycles", b"data_cycleS", 1))
    assert source_digest(str(pkg)) != code_digest()
    proc.write_bytes(src)
    assert source_digest(str(pkg)) == code_digest()


def test_task_digest_normalizes_tuples_to_lists():
    assert task_digest(SweepTask("m:f", {"v": (1, 2)})) == task_digest(
        SweepTask("m:f", {"v": [1, 2]})
    )


def test_sweep_task_validates_early():
    with pytest.raises(ValueError):
        SweepTask("no_colon_here", {})
    with pytest.raises(TypeError):
        SweepTask("m:f", {"bad": object()})


def test_config_fingerprint_tracks_every_field():
    a = MachineConfig(n_nodes=8, seed=1)
    b = MachineConfig(n_nodes=8, seed=1)
    c = MachineConfig(n_nodes=8, seed=2)
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)


def test_derive_seed_deterministic_and_independent():
    s1 = derive_seed(42, "fig", 16, "queue")
    assert s1 == derive_seed(42, "fig", 16, "queue")
    assert 0 <= s1 < 2**31
    others = {derive_seed(42, "fig", n, "queue") for n in (2, 4, 8, 32)}
    assert s1 not in others and len(others) == 4
    assert derive_seed(43, "fig", 16, "queue") != s1


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "0")
    with pytest.raises(ValueError):
        default_jobs()


# ------------------------------------------------------------------ running


@pytest.fixture
def probe_module(tmp_path, monkeypatch):
    """A tiny importable point function that logs every invocation, so the
    tests can count how often a point was actually *computed*."""
    mod = tmp_path / "sweep_probe.py"
    mod.write_text(textwrap.dedent("""
        def point(tag, log):
            with open(log, "a") as f:
                f.write(tag + "\\n")
            return {"tag": tag, "value": len(tag)}
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    log = tmp_path / "calls.log"
    log.write_text("")
    return log


def _calls(log):
    return log.read_text().splitlines()


def test_results_in_task_order_and_dedup(probe_module, tmp_path):
    log = probe_module
    tasks = [
        SweepTask("sweep_probe:point", {"tag": "a", "log": str(log)}),
        SweepTask("sweep_probe:point", {"tag": "bb", "log": str(log)}),
        SweepTask("sweep_probe:point", {"tag": "a", "log": str(log)}),  # dup
    ]
    stats = SweepStats()
    out = run_sweep(tasks, jobs=1, use_cache=False, stats=stats)
    assert [r["tag"] for r in out] == ["a", "bb", "a"]
    assert stats.total == 3 and stats.computed == 2
    assert sorted(_calls(log)) == ["a", "bb"]  # the duplicate ran once


def test_cache_round_trip(probe_module, tmp_path):
    log = probe_module
    cache = tmp_path / "cache"
    tasks = [
        SweepTask("sweep_probe:point", {"tag": t, "log": str(log)})
        for t in ("x", "y")
    ]
    s1 = SweepStats()
    first = run_sweep(tasks, jobs=1, cache_dir=str(cache), stats=s1)
    assert s1.hits == 0 and s1.computed == 2
    s2 = SweepStats()
    second = run_sweep(tasks, jobs=1, cache_dir=str(cache), stats=s2)
    assert s2.hits == 2 and s2.computed == 0
    assert first == second
    assert _calls(log) == ["x", "y"]  # second pass computed nothing
    # Atomic writes: only final .json files, no torn temporaries.
    names = os.listdir(cache)
    assert names and all(n.endswith(".json") for n in names)


def test_stale_cache_version_is_ignored(probe_module, tmp_path):
    log = probe_module
    cache = tmp_path / "cache"
    task = SweepTask("sweep_probe:point", {"tag": "v", "log": str(log)})
    run_sweep([task], jobs=1, cache_dir=str(cache))
    # Corrupt the version in place: the entry must read as a miss.
    (path,) = [cache / n for n in os.listdir(cache)]
    doc = json.loads(path.read_text())
    doc["version"] = "pr0.0"
    path.write_text(json.dumps(doc))
    stats = SweepStats()
    run_sweep([task], jobs=1, cache_dir=str(cache), stats=stats)
    assert stats.hits == 0 and stats.computed == 1
    assert _calls(log) == ["v", "v"]


def test_entry_from_other_code_is_never_read(probe_module, tmp_path, monkeypatch):
    """An entry written under another source digest stays on disk but is
    never served: a code change recomputes every point."""
    log = probe_module
    cache = tmp_path / "cache"
    task = SweepTask("sweep_probe:point", {"tag": "old", "log": str(log)})
    monkeypatch.setattr(sweep, "_code_digest", "0" * 64)  # the code before an edit
    run_sweep([task], jobs=1, cache_dir=str(cache))
    (old_entry,) = os.listdir(cache)
    assert json.loads((cache / old_entry).read_text())["version"] == "0" * 64
    monkeypatch.setattr(sweep, "_code_digest", None)  # the code now
    stats = SweepStats()
    run_sweep([task], jobs=1, cache_dir=str(cache), stats=stats)
    assert stats.hits == 0 and stats.computed == 1
    assert _calls(log) == ["old", "old"]
    assert old_entry in os.listdir(cache) and len(os.listdir(cache)) == 2


def test_corrupt_cache_file_is_a_miss(probe_module, tmp_path):
    log = probe_module
    cache = tmp_path / "cache"
    task = SweepTask("sweep_probe:point", {"tag": "c", "log": str(log)})
    run_sweep([task], jobs=1, cache_dir=str(cache))
    (path,) = [cache / n for n in os.listdir(cache)]
    path.write_text("{ not json")
    out = run_sweep([task], jobs=1, cache_dir=str(cache))
    assert out == [{"tag": "c", "value": 1}]


def test_pool_and_inline_agree(probe_module, tmp_path):
    """jobs=N must yield exactly what jobs=1 yields, in the same order —
    worker scheduling is invisible in the result list."""
    log = probe_module
    tasks = [
        SweepTask("sweep_probe:point", {"tag": f"t{i}", "log": str(log)})
        for i in range(6)
    ]
    inline = run_sweep(tasks, jobs=1, use_cache=False)
    pooled = run_sweep(tasks, jobs=2, use_cache=False)
    assert inline == pooled


def test_unresolvable_point_function_raises():
    with pytest.raises(ImportError):
        run_sweep([SweepTask("repro.sweep:no_such_point", {})], jobs=1, use_cache=False)
