"""Helpers shared by the benchmark's processes (no program imports here)."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import resource
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave store files, span dumps and daemon reports.
OUT = ROOT / ".perfbench_out"
#: The seed whose exact outputs are recorded in ``expected.json``.
DEFAULT_SEED = 11
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values) -> float:
    return percentile(values, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in 0..100; 0 if empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@contextlib.contextmanager
def timed(windows: list):
    """Append the block's ``(start_ns, end_ns)`` to ``windows``, on the
    monotonic clock (``perf_counter_ns``) that every process shares."""
    start = time.perf_counter_ns()
    try:
        yield
    finally:
        windows.append((start, time.perf_counter_ns()))


def pinned(cpus: set[int] | None):
    """A ``preexec_fn`` that pins a child process, before it starts any
    thread, to ``cpus`` (None: no pinning)."""
    return None if cpus is None else functools.partial(os.sched_setaffinity, 0, cpus)


def seconds(windows) -> list[float]:
    return [(end - start) / 1e9 for start, end in windows]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it has waited for."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def digest(value) -> str:
    """SHA-256 of a JSON-serialisable value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bounds_digest(sequences) -> str:
    """Digest of every query's bounds in a list of query sequences."""
    return digest(
        [[q.bounds.lo.tolist() + q.bounds.hi.tolist() for q in s.queries] for s in sequences]
    )


def expected(workload: str) -> dict:
    """The recorded default-seed values of one workload."""
    return json.loads(EXPECTED_PATH.read_text()).get(workload, {})


def last_json_line(text: str) -> dict:
    """The JSON object on the last non-blank line of a process's output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("process printed nothing")
    return json.loads(lines[-1])
