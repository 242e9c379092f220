"""Compare benchmark results of a parent commit and a change.

From the repository root::

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is one ``bench/run.py --out`` document.  The i-th parent file
and the i-th change file form a pair; run the pairs alternately (parent
first, then change first) with the same benchmark code, seeds and
``--seconds``.  For every end-to-end metric of BENCHMARK.json on every
workload the comparison prints one verdict:

``improved``    at least ten pairs, the change wins at least nine tenths
                of them (ties count for neither side), and its median beats
                the parent's by more than the parent's quartile distance;
``regressed``   the change's median is worse than the parent's by more
                than the metric's bound;
``unresolved``  the parent's own spread (quartile distance over median)
                is wider than the bound, and not every change run beats
                every parent run;
``unchanged``   otherwise.

The exit code is 1 on any regression, or when a workload's failed share
of attempted operations is higher on the change than on the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see the module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, pm, q3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cm - pm)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(pm):
        return "regressed"
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > bound * abs(pm) and not dominates:
        return "unresolved"
    return "unchanged"


def fail_share(doc: dict, workload: str) -> float:
    res = doc["workloads"][workload]
    return res["failed"] / res["attempted"] if res["attempted"] else 0.0


def load(paths: List[str]) -> List[dict]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    return docs


def alternates(parents: List[dict], changes: List[dict]) -> bool:
    """Whether the side that ran first flips from one pair to the next."""
    firsts = [p["env"]["started"] < c["env"]["started"] for p, c in zip(parents, changes)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 bench/compare.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True, help="parent results, one per run")
    ap.add_argument("--change", nargs="+", required=True, help="change results, same order")
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change):
        ap.error("--parent and --change need the same number of files (one per pair)")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parents, changes = load(args.parent), load(args.change)
    if not alternates(parents, changes):
        print("warning: the pairs did not alternate which side ran first", file=sys.stderr)

    workloads = [w for w in parents[0]["workloads"]
                 if all(w in d["workloads"] for d in parents + changes)]
    bad = False
    print(f"{len(parents)} pair(s); medians with [q1, q3]")
    for w in workloads:
        for m in spec["end_to_end"]:
            pv = [d["workloads"][w]["end_to_end"][m["name"]] for d in parents]
            cv = [d["workloads"][w]["end_to_end"][m["name"]] for d in changes]
            v = verdict(pv, cv, m["better"], m["bound"])
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for p, c in zip(pv, cv) if sign * (c - p) > 0)
            (p1, pm, p3), (c1, cm, c3) = quartiles(pv), quartiles(cv)
            print(f"{w:14s} {m['name']:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  wins {wins}/{len(pv)}  {v}")
            bad |= v == "regressed"
        pf = statistics.median(fail_share(d, w) for d in parents)
        cf = statistics.median(fail_share(d, w) for d in changes)
        if cf > pf:
            print(f"{w}: failed share rose from {pf:.3g} to {cf:.3g}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
