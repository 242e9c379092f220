"""The pace process: a speed reference that runs beside measured code.

A shared host's speed drifts: other tenants of the same physical core slow
this process by tens of percent for a second or two at a time, and CPU
time stretches with them.  A reference timed before and after a
measurement misses bursts that fall in between, so the pace process runs
*during* it instead, pinned to the measured process's CPU.  It repeats a
short fixed kernel shaped like the simulator's hot loop (calendar pushes
and pops, generator resumes, dict updates) and naps between repeats, so
that it samples the CPU's speed a few hundred times a second while
adding about 30% to the measured wall time.  The measured CPU time,
scaled by ``PACE_REF_S`` over the kernel's mean CPU time during the
measurement, reads in seconds of the reference host and cancels the
drift both share.

On a shared 2-core host, forty 0.8 s fuzz runs spread 6-8% (quartile
distance over median) in raw CPU time and about 1% scaled.

The process is ``python3 -m bench.pace``: it prints ``ready`` once warm,
and on SIGUSR1 finishes its current kernel run, prints ``<kernel runs>
<their CPU seconds>`` and exits.
"""

from __future__ import annotations

import heapq
import os
import signal
import subprocess
import sys
import time

#: Steps of one kernel run: under a millisecond, so that stopping waits
#: for little.
KERNEL_STEPS = 1_000
#: Sleep between kernel runs.  On forty 0.8 s fuzz runs, no nap left a
#: scaled spread of 1.6% at twice the wall time, 2 ms 0.8% at +30%, and
#: 5 ms 1.2% at +14%.  On seventeen 5 s traffic runs during heavy
#: contention (raw spread 37%), 2 ms left 2.6% and 5 ms 5.5%.
NAP_S = 0.002
#: CPU seconds of one kernel run beside a workload on the reference host
#: (a 2-core shared Xeon VM, Python 3.11), chosen so that a paced time
#: there matches the same code's unpaced CPU time.
PACE_REF_S = 0.00064
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The pace process answers within this many seconds or has hung.
ANSWER_TIMEOUT_S = 30


def kernel() -> int:
    """A fixed slice of interpreter work."""

    def proc():
        acc = 0
        while True:
            acc += yield acc

    heap: list = []
    counts: dict = {}
    gen = proc()
    next(gen)
    total = 0
    for i in range(KERNEL_STEPS):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            counts[j & 255] = counts.get(j & 255, 0) + t
            total = gen.send(t)
    return total


def paced(fn, *args):
    """``(fn(*args), wall s, CPU s, CPU s scaled to the reference host)``.

    The pace process inherits this process's CPU affinity, so pin this
    process first.  It is stopped and waited for on every path.
    """
    pacer = subprocess.Popen(
        [sys.executable, "-m", "bench.pace"], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        if pacer.stdout.readline().strip() != "ready":
            raise RuntimeError("the pace process did not start")
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        pacer.send_signal(signal.SIGUSR1)
        runs, busy = pacer.communicate(timeout=ANSWER_TIMEOUT_S)[0].split()
    finally:
        if pacer.poll() is None:
            pacer.kill()
        pacer.wait()
    return result, wall, cpu, cpu * PACE_REF_S * int(runs) / float(busy)


def main() -> int:
    stop = []
    signal.signal(signal.SIGUSR1, lambda *_: stop.append(True))
    kernel()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    runs, busy = 0, 0.0
    while True:  # at least one run, however short the measurement
        c0 = time.process_time()
        kernel()
        busy += time.process_time() - c0
        runs += 1
        if stop:
            break
        time.sleep(NAP_S)
    sys.stdout.write(f"{runs} {busy!r}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
