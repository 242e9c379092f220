"""Run the repository benchmark.

From the repository root::

    python3 bench/run.py --workload report --seed 0 --seconds 20 --trace 0
    python3 bench/run.py [--seed N] [--out results.json]

With ``--workload``, the runner measures that workload: it times set-up
in fresh interpreters, then runs untraced repetitions, each in its own
fresh subprocess, for as long as another one fits in ``--seconds`` (at
least one), and with ``--trace 1`` (the default) one traced repetition
after them.  Timed regions are paced (:mod:`bench.pace`).  It prints
every metric with its unit and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` it measures every workload the same
way, and its last line carries every metric measured, keyed
``<workload>/<metric>``.

``--out`` writes the full results (environment, every metric, the layer
with the most self time, and the traced call edges) for
``bench/compare.py``.  ``--smoke`` shrinks every workload to a size for
tests.  Exit codes: 0 the result line was printed (its ``correct`` says
whether every output was right), 2 the benchmark could not run (not a
repository checkout, a worker crashed or hung).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Run as a script, sys.path[0] is bench/ itself; import the package
    # from the root instead so no module here shadows the standard library.
    sys.path[0] = ROOT

from bench.tracer import largest_layer, layer_metrics  # noqa: E402
from bench.workloads import WORKLOADS, merge_points  # noqa: E402

#: Fresh interpreters that only import, per measurement, for ``setup_s``.
SETUP_PROBES = 9
#: One workload's measurement gives up after this long: something hung.
DEADLINE_S = 170
#: Variables that select a kernel, a worker pool or a result cache.
UNSET_ENV = ("REPRO_KERNEL", "REPRO_SWEEP_JOBS", "REPRO_SWEEP_CACHE")
#: One thread per worker: numpy's BLAS pool would otherwise start threads
#: whose spinning lands in the worker's CPU time.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(deadline: float, *args: str) -> dict:
    """Run ``bench.worker`` in a fresh interpreter; its JSON document.

    The worker gets a session of its own, so that a hung worker is killed
    together with its pace process.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.worker", *args], cwd=ROOT, env=worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} still running at the deadline") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1])


def environment() -> dict:
    """What the numbers were measured on."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            rev = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_rev": rev,
        "started": time.time(),
        "pinned_env": {**PINNED_ENV, "unset": list(UNSET_ENV)},
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; its results document."""
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup = [
        run_worker(deadline, "--workload", name, "--setup-only")["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    reps = []
    end = time.perf_counter() + seconds
    while True:
        r0 = time.perf_counter()
        reps.append(run_worker(deadline, *base))
        now = time.perf_counter()
        if 2 * now - r0 > end:  # another repetition as long would overrun
            break
    traced = run_worker(deadline, *base, "--trace") if trace else None
    runs = reps + ([traced] if traced else [])
    fold = merge_points([r["points"] for r in runs])
    errors = [p["error"] for r in runs for p in r["points"] if "error" in p]
    raw_cpu = statistics.median(r["cpu_s"] for r in reps)
    cpu = statistics.median(r["ref_s"] for r in reps)
    result = {
        "correct": fold["failed"] == 0,
        "attempted": fold["attempted"],
        "failed": fold["failed"],
        "repetitions": len(reps),
        "items": reps[0]["items"],
        "walls_s": [r["wall_s"] for r in reps],
        "cpus_s": [r["cpu_s"] for r in reps],
        "refs_s": [r["ref_s"] for r in reps],
        "end_to_end": {
            "cpu_s": cpu,
            "setup_s": statistics.median(setup + [r["setup_s"] for r in reps]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
            "items_per_s": reps[0]["items"] / cpu,
        },
        "errors": errors,
    }
    if traced:
        counts = {**reps[0]["counts"], **traced["counts"]}
        layers = layer_metrics(traced["trace"], counts, traced["wall_s"], traced["cpu_s"], raw_cpu)
        result.update(
            per_layer=layers,
            largest_layer=largest_layer(layers),
            traced_wall_s=traced["wall_s"],
            edges=traced["trace"]["edges"],
        )
    return result


def declared(spec: dict, key: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}


def print_result(name: str, seed: int, res: dict, spec: dict) -> None:
    state = "correct" if res["correct"] else f"WRONG ({res['failed']}/{res['attempted']} failed)"
    print(f"{name} (seed {seed}): {res['repetitions']} repetition(s), "
          f"{res['items']} items, {state}")
    rows = declared(spec, "end_to_end", res["end_to_end"])
    if "per_layer" in res:
        rows.update(declared(spec, "per_layer", res["per_layer"]))
    for metric, v in rows.items():
        print(f"  {metric:32s} {v['value']:>18.6g} {v['unit']}")
    if "per_layer" in res:
        top = res["largest_layer"]
        print(
            f"  largest layer: {top} ({res['per_layer'][top + '.self_s']:.3f} s self "
            f"of {res['traced_wall_s']:.3f} s traced)"
        )
    for err in res["errors"]:
        print(err, file=sys.stderr)


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(prog="python3 bench/run.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="measure one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="untraced repetitions run while another fits in this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1 (default): add a traced repetition and report the per-layer "
                         "metrics; 0: untraced repetitions only")
    ap.add_argument("--smoke", action="store_true", help="test-only workload sizes")
    ap.add_argument("--out", default=None, help="write the full results JSON here")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench: {ROOT} is not a repository checkout (no src/repro)", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    trace = bool(args.trace)
    doc = {"env": environment(), "seed": args.seed, "seconds": args.seconds,
           "smoke": args.smoke, "workloads": {}}
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, trace, args.smoke)
            doc["workloads"][name] = res
            print_result(name, args.seed, res, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
    results = doc["workloads"].values()
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if args.workload:
        res = doc["workloads"][args.workload]
        line["metrics"] = (
            declared(spec, "per_layer", res["per_layer"]) if trace
            else declared(spec, "end_to_end", res["end_to_end"])
        )
    else:
        line["metrics"] = {
            f"{name}/{metric}": v
            for name, res in doc["workloads"].items()
            for key in ("end_to_end", "per_layer")
            if key in res
            for metric, v in declared(spec, key, res[key]).items()
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
