"""Span tracing for the traced benchmark run.

The traced run installs wrappers, defined here, around the public calls
of each program layer (``install``).  Every wrapped call records one span
``[name, start_ns, end_ns, parent, rid]``: the span's name is
``<layer>.<op>``, times come from ``time.perf_counter_ns`` (the same
monotonic clock in every process on the host), ``parent`` is the index
of the enclosing span in the same process (-1 for a root) and ``rid``
is the request id -- the sweep cell key, or ``<client>:<query>`` for a
session step -- inherited by every span under it.  Spans stay in memory
and are written out when the run ends.

Every wrapped call is synchronous, so one plain stack per process gives
each span its parent, even inside the daemon's event loop: a sync call
never yields to another task before it returns.

``layer_stats`` is the span-tree arithmetic: a span's self time is its
duration minus its children's durations, and a layer's busy time and
call count are taken over its outermost spans only, so a layer calling
itself is not counted twice.  Integer nanoseconds make
``check_tree`` exact: the self times of a span and all its descendants
add up to the span's duration with no rounding.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import common

#: The layers whose self time the traced run attributes, in report order.
LAYERS = (
    "datagen",
    "index_build",
    "workload",
    "index",
    "prefetcher",
    "graph",
    "cache",
    "disk",
    "session",
    "scheduler",
    "runner",
    "results",
    "wire",
    "bench",
)

#: Public cache operations (properties and dunders are not wrapped).
CACHE_OPS = (
    "touch",
    "insert",
    "insert_many",
    "discard",
    "clear",
    "touch_many",
    "contains_many",
    "missing_many",
    "owners_many",
    "evicted_many",
    "owner_of",
    "was_evicted",
    "cached_pages",
)

INDEX_PROBES = ("query", "query_many", "pages_for_region", "pages_for_regions")

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: name -> list of (perf_counter_ns, value) samples.
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.rid: str | None = None
        self.last_step_ns = 0
        #: id(cache) -> pages inserted and not hit since (``track_useful``).
        self.unused: dict[int, set] = defaultdict(set)
        self._caches: list = []
        self._disks: list = []

    def take(self) -> dict:
        """Harvest the counters of registered caches/disks, return and clear all."""
        for cache in self._caches:
            self.counters["cache.evictions"] += cache.evictions
            self.counters["cache.insertions"] += cache.insertions
        for disk in self._disks:
            self.counters["disk.pages_read"] += disk.stats.pages_read
        out = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }
        self.reset()
        return out

    def merge(self, part: dict) -> None:
        """Fold a worker's harvest into this tracer (spans re-indexed)."""
        offset = len(self.spans)
        for name, start, end, parent, rid in part["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, rid])
        self.counters.update(part["counters"])
        for key, values in part["samples"].items():
            self.samples[key].extend(values)

    def wrap(self, fn, name: str, *, on_result=None, rid_of=None, skip_inside=None):
        """``fn`` recording one span per call.

        ``on_result(tracer, record, args, result)`` runs after the
        outermost call of the layer; ``rid_of(args)`` sets the request id of the span and
        everything under it; calls made while ``skip_inside`` (a layer) is
        active pass straight through.
        """
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = tracer._depth
            if skip_inside is not None and depth[skip_inside]:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            saved_rid = tracer.rid
            if rid_of is not None:
                tracer.rid = rid_of(args)
            outermost = depth[layer] == 0
            record = [name, 0, 0, stack[-1] if stack else -1, tracer.rid]
            stack.append(len(spans))
            spans.append(record)
            depth[layer] += 1
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                depth[layer] -= 1
                stack.pop()
                tracer.rid = saved_rid
            if on_result is not None and outermost:
                on_result(tracer, record, args, result)
            return result

        return traced

    def patch(self, cls, method: str, name: str, **options) -> None:
        """Replace a method of ``cls`` by its wrapper."""
        setattr(cls, method, self.wrap(getattr(cls, method), name, **options))

    def count_calls(self, fn, counter: str):
        """Coroutine function ``fn`` bumping ``counter`` per call (no span: it awaits)."""
        tracer = self

        @functools.wraps(fn)
        async def counted(*args, **kwargs):
            tracer.counters[counter] += 1
            return await fn(*args, **kwargs)

        return counted


# -- installation ------------------------------------------------------------------


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [cls, *found]


def _count_probe(tracer: Tracer, record, args, result) -> None:
    regions = args[1]
    if isinstance(result, list):  # query_many / pages_for_regions
        tracer.counters["index.regions"] += len(regions)
        tracer.counters["index.pages"] += sum(_n_pages(item) for item in result)
    else:
        tracer.counters["index.regions"] += 1
        tracer.counters["index.pages"] += _n_pages(result)


def _n_pages(result) -> int:
    """Pages of a ``QueryResult`` or of a page-id array."""
    return int(result.n_pages) if hasattr(result, "n_pages") else len(result)


def _session_rid(args) -> str:
    session = args[0]
    return f"{session.client_id}:{session.query_index}"


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark workloads reach."""
    import repro.baselines  # noqa: F401 - registers every prefetcher subclass
    import repro.core  # noqa: F401
    import repro.core.candidates as candidates
    import repro.core.scout as scout
    import repro.datagen as datagen
    import repro.datagen.neuron as neuron
    import repro.graph.traversal as traversal
    import repro.index  # noqa: F401
    import repro.serve.daemon as daemon
    import repro.serve.latency as latency
    import repro.serve.protocol as protocol
    import repro.sim.runner as runner
    import repro.sim.serve as serve
    import repro.workload.multiclient as multiclient
    import repro.workload.sequence as sequence
    from repro.baselines.base import Prefetcher
    from repro.index.base import SpatialIndex
    from repro.sim.engine import QuerySession, SimulationConfig
    from repro.sim.results import CellResult, ResultStore
    from repro.storage.cache import ArrayCache, PrefetchCache
    from repro.storage.disk import DiskModel

    # datagen and index build (set-up).
    tissue = tracer.wrap(neuron.make_neuron_tissue, "datagen.neuron")
    for owner in (neuron, datagen):
        owner.make_neuron_tissue = tissue
    runner._DATASET_BUILDERS["neuron"] = tissue
    for cls in _subclasses(SpatialIndex):
        if "__init__" in cls.__dict__:
            tracer.patch(cls, "__init__", "index_build.init")

    # workload generation: every module binding of the two generators.
    generate = tracer.wrap(sequence.generate_sequences, "workload.generate_sequences")
    for owner in (sequence, runner, multiclient):
        owner.generate_sequences = generate
    sessions = tracer.wrap(multiclient.multiclient_sessions, "workload.multiclient_sessions")
    for owner in (multiclient, runner, daemon):
        owner.multiclient_sessions = sessions

    # index probes (probes inside an index build belong to the build).
    for cls in _subclasses(SpatialIndex):
        for op in INDEX_PROBES:
            if op in cls.__dict__:
                tracer.patch(
                    cls, op, f"index.{op}", on_result=_count_probe, skip_inside="index_build"
                )

    # prefetchers.
    for cls in _subclasses(Prefetcher):
        if "observe" in cls.__dict__:
            tracer.patch(cls, "observe", "prefetcher.observe")
        if "plan" in cls.__dict__:
            tracer.patch(cls, "plan", "prefetcher.plan")

    # graph build and region crossings.
    scout.build_graph = tracer.wrap(scout.build_graph, "graph.build_graph")
    grouped = tracer.wrap(traversal.region_crossings_grouped, "graph.region_crossings")
    candidates.region_crossings_grouped = grouped
    traversal.region_crossings_grouped = grouped
    traversal.region_crossings = tracer.wrap(traversal.region_crossings, "graph.region_crossings")

    # cache ops, and the caches/disks every config builds (for their counters).
    for cls in (PrefetchCache, ArrayCache):
        contains_many = cls.contains_many
        for op in CACHE_OPS:
            tracer.patch(cls, op, f"cache.{op}")
        track_useful(tracer, cls, contains_many)
    build_cache = SimulationConfig.build_cache
    build_disk = SimulationConfig.build_disk

    def registering_build_cache(self, *args, **kwargs):
        cache = build_cache(self, *args, **kwargs)
        tracer._caches.append(cache)
        return cache

    def registering_build_disk(self, *args, **kwargs):
        disk = build_disk(self, *args, **kwargs)
        tracer._disks.append(disk)
        return disk

    SimulationConfig.build_cache = registering_build_cache
    SimulationConfig.build_disk = registering_build_disk

    tracer.patch(DiskModel, "read_pages", "disk.read_pages")
    tracer.patch(DiskModel, "cost_if_cold", "disk.cost_if_cold")

    # session steps; the step's duration feeds the daemon's queue-wait split.
    def note_step(tracer, record, args, result):
        tracer.last_step_ns = record[2] - record[1]
        records = args[0].metrics.records
        if result is not None and records:
            tracer.counters["prefetch.pages"] += records[-1].prefetch_pages

    for op in ("step_query", "step_query_capture", "step_query_replay"):
        tracer.patch(QuerySession, op, f"session.{op}", rid_of=_session_rid, on_result=note_step)

    # scheduler.
    tracer.patch(serve.ServingSimulator, "run", "scheduler.run")

    # sweep runner: cells, the worker hand-back, and store writes.
    runner.run_cell = tracer.wrap(
        runner.run_cell, "runner.run_cell", rid_of=lambda args: args[0].key()[:16]
    )
    run_cell_record = runner._run_cell_record

    @functools.wraps(run_cell_record)
    def run_cell_record_with_spans(*args, **kwargs):
        # Runs in a pool worker: the forked copy of the parent's spans is
        # dropped, and this cell's spans ride back inside its record.
        tracer.reset()
        record = run_cell_record(*args, **kwargs)
        record[SPANS_KEY] = tracer.take()
        return record

    runner._run_cell_record = run_cell_record_with_spans
    from_record = CellResult.from_record.__func__

    def from_record_with_spans(cls, record):
        if SPANS_KEY in record:
            tracer.merge(record.pop(SPANS_KEY))
        return from_record(cls, record)

    CellResult.from_record = classmethod(from_record_with_spans)
    tracer.patch(ResultStore, "append", "results.append")
    tracer.patch(ResultStore, "flush", "results.flush")

    # wire: frame decode/encode spans, frame counts.
    protocol.decode_frame = tracer.wrap(protocol.decode_frame, "wire.decode_frame")
    protocol.encode_frame = tracer.wrap(protocol.encode_frame, "wire.encode_frame")
    daemon.read_frame = tracer.count_calls(protocol.read_frame, "wire.frames_read")
    daemon.write_frame = tracer.count_calls(protocol.write_frame, "wire.frames_written")

    # daemon admission: the reply latency minus the step that served it.
    observe = latency.LatencyRecorder.observe

    def observe_with_wait(self, seconds):
        tracer.samples["daemon.queue_wait_ms"].append(
            (_clock(), 1e3 * seconds - tracer.last_step_ns / 1e6)
        )
        return observe(self, seconds)

    latency.LatencyRecorder.observe = observe_with_wait


def track_useful(tracer: Tracer, cls, contains_many) -> None:
    """Count the cache insertions that a touch hits before the page leaves.

    Only prefetched pages enter the cache (demand reads do not), so
    ``prefetch.useful_pages`` over the cache's insertions is the share of
    prefetched pages that were used at least once.  The wrappers go
    around the span wrappers, inside a ``bench.useful`` span of their own,
    so the bookkeeping is charged to the ``bench`` layer, not to the cache
    or its caller; ``contains_many`` is the unwrapped membership test.
    Calls nested in a tracked call (``PrefetchCache``'s batch ops loop over
    its scalar ops) pass straight through.
    """
    busy = [False]

    def tracked(fn, note):
        spanned = tracer.wrap(note, "bench.useful")

        @functools.wraps(fn)
        def wrapper(cache, pages, *args, **kwargs):
            if busy[0]:
                return fn(cache, pages, *args, **kwargs)
            busy[0] = True
            try:
                return spanned(fn, cache, pages, *args, **kwargs)
            finally:
                busy[0] = False

        setattr(cls, fn.__name__, wrapper)

    def note_insert(fn, cache, pages, *args, **kwargs):
        if not isinstance(pages, (int, np.integer, np.ndarray, list, tuple)):
            pages = list(pages)  # a one-shot iterable: read it once, pass it on
        batch = np.asarray(pages, dtype=np.int64).ravel()
        new = batch[~contains_many(cache, batch)] if batch.size else batch
        result = fn(cache, pages, *args, **kwargs)
        tracer.unused[id(cache)].update(new.tolist())
        return result

    def note_touch(fn, cache, pages, *args, **kwargs):
        hit = fn(cache, pages, *args, **kwargs)
        unused = tracer.unused.get(id(cache))
        if unused:
            hit_pages = np.asarray(pages, dtype=np.int64).ravel()[np.asarray(hit).ravel()]
            for page in hit_pages.tolist():
                if page in unused:
                    unused.discard(page)
                    tracer.counters["prefetch.useful_pages"] += 1
        return hit

    tracked(cls.insert, note_insert)
    tracked(cls.insert_many, note_insert)
    tracked(cls.touch, note_touch)
    tracked(cls.touch_many, note_touch)


#: Record key under which a pool worker returns its spans.
SPANS_KEY = "__perfbench_spans__"


# -- span-tree arithmetic ----------------------------------------------------------


def self_times(spans: list) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_tree(spans: list) -> list[str]:
    """Problems with the span tree; an empty list means it is consistent.

    Checks that every child lies inside its parent's interval, and that
    for every root the self times of the root and all its descendants
    add up exactly to the root's wall time.
    """
    problems: list[str] = []
    own = self_times(spans)
    subtree = list(own)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) leaves its parent {parent}")
            subtree[parent] += subtree[i]
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 and subtree[i] != end - start:
            problems.append(
                f"root span {i} ({name}): self times add to {subtree[i]} ns, "
                f"wall time is {end - start} ns"
            )
    return problems[:20]


def check_arithmetic() -> list[str]:
    """The self-time arithmetic on a hand-made tree with known answers."""
    tree = [
        ["a.root", 0, 100, -1, None],
        ["b.child", 10, 40, 0, None],
        ["c.grandchild", 20, 30, 1, None],
        ["b.child", 50, 90, 0, None],
        ["b.nested", 60, 70, 3, None],
    ]
    problems = check_tree(tree)
    if self_times(tree) != [30, 20, 10, 30, 10]:
        problems.append(f"self times {self_times(tree)} != [30, 20, 10, 30, 10]")
    b = layer_stats(tree)["b"]
    if (b["calls"], b["busy_ns"], b["self_ns"]) != (2, 70, 60):
        problems.append(f"layer b: {b} != 2 outermost calls, 70 ns busy, 60 ns self")
    return problems


def layer_stats(spans: list) -> dict[str, dict]:
    """Per layer: outermost calls, busy ns (outermost spans), self ns (all spans)."""
    own = self_times(spans)
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
    layer_of = [name.split(".", 1)[0] for name, *_ in spans]
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = layer_of[i]
        entry = stats[layer]
        entry["self_ns"] += own[i]
        ancestor = parent
        while ancestor >= 0 and layer_of[ancestor] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["calls"] += 1
            entry["busy_ns"] += end - start
    return dict(stats)


def dump(path: Path, harvest: dict) -> None:
    """Write a process's whole harvest (spans, counters, samples) as one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(harvest, separators=(",", ":")))


# -- per-layer metrics -------------------------------------------------------------

#: Every per-layer metric of the traced run, with its unit.  Layers that
#: do not run on a workload report 0.
PER_LAYER = (
    ("datagen.build_s", "s"),
    ("index.build_s", "s"),
    ("workload.generate_calls", "count"),
    ("workload.generate_s", "s"),
    ("index.probe_calls", "count"),
    ("index.probe_s", "s"),
    ("index.pages_per_region", "pages"),
    ("prefetcher.calls", "count"),
    ("prefetcher.observe_s", "s"),
    ("prefetcher.plan_s", "s"),
    ("prefetch.pages", "count"),
    ("prefetch.useful_ratio", "ratio"),
    ("graph.build_s", "s"),
    ("graph.crossings_s", "s"),
    ("cache.calls", "count"),
    ("cache.op_s", "s"),
    ("cache.evictions", "count"),
    ("cache.insertions", "count"),
    ("disk.read_calls", "count"),
    ("disk.pages_read", "count"),
    ("disk.read_s", "s"),
    ("session.steps", "count"),
    ("session.step_ms.p50", "ms"),
    ("session.step_ms.p99", "ms"),
    ("scheduler.replay_ratio", "ratio"),
    ("runner.cells", "count"),
    ("runner.cell_s.p50", "s"),
    ("runner.cell_s.max", "s"),
    ("results.write_s", "s"),
    ("wire.frames", "count"),
    ("wire.read_s", "s"),
    ("wire.write_s", "s"),
    ("daemon.queue_wait_ms.p50", "ms"),
    ("daemon.queue_wait_ms.p99", "ms"),
    ("daemon.queue_depth_max", "count"),
    ("loadgen.late_ms.p99", "ms"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"share.{layer}", "ratio") for layer in LAYERS),
    ("share.other", "ratio"),
    ("trace.spans", "count"),
    ("trace.queries_per_s", "1/s"),
    ("trace.untraced_queries_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def _outermost_op(spans: list, name: str) -> tuple[int, int]:
    """Calls and total ns of ``name`` spans not nested in a span of the same name."""
    calls = ns = 0
    for span_name, start, end, parent, _ in spans:
        if span_name == name and (parent < 0 or spans[parent][0] != name):
            calls += 1
            ns += end - start
    return calls, ns


def _op_s(spans: list, name: str) -> float:
    return _outermost_op(spans, name)[1] / 1e9


def window_roots(spans: list, *, root_name: str | None = None, window=None) -> list[int]:
    """Roots of the measured work: spans named ``root_name`` (outermost),
    or every root span inside the ``(start_ns, end_ns)`` window."""
    if root_name is not None:
        return [
            i
            for i, (name, _, _, parent, _) in enumerate(spans)
            if name == root_name and (parent < 0 or spans[parent][0] != root_name)
        ]
    lo, hi = window
    return [i for i, (_, s, e, parent, _) in enumerate(spans) if parent < 0 and s >= lo and e <= hi]


def per_layer(harvest: dict, *, root_name: str | None = None, window=None) -> dict[str, float]:
    """The traced run's per-layer metrics from one harvest.

    Counts and busy times cover the whole run (set-up included: that is
    where ``datagen`` and ``index_build`` run).  Self-time shares cover
    only the measured work: the subtrees under ``root_name`` spans, as a
    share of those spans' summed wall time, or the root spans inside
    ``window``, as a share of the window's wall time.
    """
    spans = harvest["spans"]
    counters = harvest["counters"]
    layers = layer_stats(spans)

    def busy(layer):
        return layers.get(layer, {}).get("busy_ns", 0) / 1e9

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    session_ms = []
    cell_s = []
    replays = 0
    for name, start, end, parent, _ in spans:
        layer = name.split(".", 1)[0]
        if layer == "session" and (parent < 0 or not spans[parent][0].startswith("session.")):
            session_ms.append((end - start) / 1e6)
        elif name == "runner.run_cell":
            cell_s.append((end - start) / 1e9)
        if name == "session.step_query_replay":
            replays += 1

    metrics = {
        "datagen.build_s": busy("datagen"),
        "index.build_s": busy("index_build"),
        "workload.generate_calls": calls("workload"),
        "workload.generate_s": busy("workload"),
        "index.probe_calls": calls("index"),
        "index.probe_s": busy("index"),
        "index.pages_per_region": ratio(
            counters.get("index.pages", 0), counters.get("index.regions", 0)
        ),
        "prefetcher.calls": calls("prefetcher"),
        "prefetcher.observe_s": _op_s(spans, "prefetcher.observe"),
        "prefetcher.plan_s": _op_s(spans, "prefetcher.plan"),
        "prefetch.pages": counters.get("prefetch.pages", 0),
        "prefetch.useful_ratio": ratio(
            counters.get("prefetch.useful_pages", 0), counters.get("cache.insertions", 0)
        ),
        "graph.build_s": _op_s(spans, "graph.build_graph"),
        "graph.crossings_s": _op_s(spans, "graph.region_crossings"),
        "cache.calls": calls("cache"),
        "cache.op_s": busy("cache"),
        "cache.evictions": counters.get("cache.evictions", 0),
        "cache.insertions": counters.get("cache.insertions", 0),
        "disk.read_calls": _outermost_op(spans, "disk.read_pages")[0],
        "disk.pages_read": counters.get("disk.pages_read", 0),
        "disk.read_s": _op_s(spans, "disk.read_pages"),
        "session.steps": len(session_ms),
        "session.step_ms.p50": common.percentile(session_ms, 50),
        "session.step_ms.p99": common.percentile(session_ms, 99),
        "scheduler.replay_ratio": ratio(replays, len(session_ms)),
        "runner.cells": len(cell_s),
        "runner.cell_s.p50": common.percentile(cell_s, 50),
        "runner.cell_s.max": max(cell_s, default=0.0),
        "results.write_s": busy("results"),
        "wire.frames": counters.get("wire.frames_read", 0) + counters.get("wire.frames_written", 0),
        "wire.read_s": _op_s(spans, "wire.decode_frame"),
        "wire.write_s": _op_s(spans, "wire.encode_frame"),
    }

    roots = window_roots(spans, root_name=root_name, window=window)
    inside = [False] * len(spans)
    for i in roots:
        inside[i] = True
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0 and inside[parent]:
            inside[i] = True
    root_set = set(roots)
    windowed = layer_stats(
        [
            [name, start, end, -1 if i in root_set else parent, rid]
            if inside[i]
            else [name, 0, 0, -1, None]
            for i, (name, start, end, parent, rid) in enumerate(spans)
        ]
    )
    if window is not None:
        wall = window[1] - window[0]
    else:
        wall = sum(spans[i][2] - spans[i][1] for i in roots)
    other_ns = wall
    for layer in LAYERS:
        self_ns = windowed.get(layer, {}).get("self_ns", 0)
        metrics[f"{layer}.self_s"] = self_ns / 1e9
        metrics[f"share.{layer}"] = ratio(self_ns, wall)
        other_ns -= self_ns
    metrics["share.other"] = ratio(max(other_ns, 0), wall)
    metrics["trace.spans"] = len(spans)
    return metrics
