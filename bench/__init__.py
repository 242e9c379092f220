"""The repository benchmark: workloads, runner, layer tracer and comparator.

Run it from the repository root with ``python3 bench/run.py``; see
``bench/README.md``.
"""
