"""The host-speed probe: a fixed kernel, timed over and over beside a run.

Usage: ``python3 perfbench/probe.py`` with its standard input a pipe.
Every ``PERIOD_S`` the probe runs its kernel once and records the
moment (``perf_counter_ns``, the monotonic clock every process on the
host shares) and the CPU time the kernel took.  When its standard input
reaches end of file it prints the samples as one JSON list of
``[t_ns, cpu_ns]`` pairs and exits.

The kernel never changes, so its CPU time measures the host's speed at
that moment; CPU time leaves out the time the probe waits for a core
that the run's own processes hold.  ``run.py`` scales each wall-clock
metric by the probe's mean over the metric's own time windows (see
``speed_factors``), because the reference host's cores run up to twice
as slow at times, for minutes, and the program slows with them.

The kernel does what the program spends its time on: Python-level
lookups of objects scattered over about a hundred megabytes (a list of
tuples and a dict, far larger than the core's caches), about 5 ms of it
beside a run; at one kernel per 100 ms the probe holds about 5% of one
core.  Its memory is its own: ``peak_rss_mb`` is the program's.  A
kernel of small arrays and dicts that stay in cache slowed only about
half as much as the program did (in log terms); this one slows as the
program does: over the windows of ten runs per workload, the slope of log
window rate on log kernel time was 0.93 to 0.96, the correlation 0.92 to
0.95.
"""

from __future__ import annotations

import json
import random
import select
import sys
import time

PERIOD_S = 0.1
#: The kernel's median CPU nanoseconds beside benchmark runs on the
#: reference host; a factor of 1 means the host ran at that speed.
NOMINAL_NS = 4_900_000
#: Lookups of each kind per kernel.
LOOKUPS = 4_000



def make_kernel():
    """The kernel, with its data built here: only the probe process holds
    it, so ``run.py`` and the children it forks stay small."""
    rng = random.Random(2)
    objects = [(i, float(i), str(i)) for i in range(300_000)]
    table = {i: (i, i + 1) for i in range(200_000)}
    object_picks = rng.sample(range(len(objects)), LOOKUPS)
    table_picks = rng.sample(range(len(table)), LOOKUPS)

    def kernel() -> int:
        total = 0
        for i in object_picks:
            total += objects[i][0]
        for key in table_picks:
            total += table[key][1]
        return total

    return kernel


def speed_factors(samples, windows) -> list[float]:
    """Per window, the probe's mean CPU time inside it over ``NOMINAL_NS``.

    ``samples`` are the probe's ``[t_ns, cpu_ns]`` pairs, ``windows``
    ``(start_ns, end_ns)`` pairs.  A window too short to hold a sample
    borrows the mean of the whole run.  Multiplying a rate by its
    window's factor (or dividing a time by it) gives its value at the
    reference host's speed.
    """
    everything = [cpu for _, cpu in samples]
    factors = []
    for start, end in windows:
        inside = [cpu for t, cpu in samples if start <= t <= end] or everything
        factors.append(sum(inside) / len(inside) / NOMINAL_NS if inside else 1.0)
    return factors


def main() -> int:
    samples = []
    kernel = make_kernel()
    kernel()  # the first call pays for page faults
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
        c0 = time.thread_time_ns()
        kernel()
        cpu = time.thread_time_ns() - c0
        samples.append([time.perf_counter_ns(), cpu])
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
