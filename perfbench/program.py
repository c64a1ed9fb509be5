"""The program process of the ``paper-sweep`` and ``fleet-hotspot`` workloads.

``run.py`` starts this file in a fresh interpreter for every measured or
traced run, so the run's peak memory is this process (and its pool
workers) alone.  It prints one JSON object as its last line:

* ``setup_windows`` -- every set-up repetition's ``(start_ns, end_ns)``
  on the monotonic clock the host probe shares (``common.timed``);
* ``windows`` / ``work`` -- each timed pass's window and its simulated
  queries; ``run.py`` turns them into the run's ``queries_per_s``;
* ``observed`` -- the outputs the checks compare against the recorded
  default-seed values (``expected.json``);
* ``errors`` -- failed correctness checks (empty when all pass);
* ``layers`` -- with ``--trace``, the per-layer metrics of the traced pass;
* ``peak_rss_mb`` -- the peak memory of this process and its pool workers.

Usage: ``python3 perfbench/program.py --workload paper-sweep --seed 11
--seconds 30 [--max-passes N] [--trace]`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import defaultdict

import common
import spans

FIG11_JOBS = 2
FLEET = {
    "n_neurons": 40,
    "dataset_seed": 7,
    "n_clients": 1024,
    "n_queries": 25,
    "volume": 30_000.0,
    "hot_pool": 8,
}
SETUP_REPEATS = 3
#: Figure-11 grids per ``paper-sweep`` run, one timed pass each, at workload
#: seeds derived from ``--seed``.  One grid's speed moves by a fifth with its
#: seed (some seeds draw sequences that prefetch far more easily), so a run
#: pools two grids.  The pair takes 20 to 30 s on the reference host, about
#: one run; the pass count does not follow ``--seconds``, so the pooled hit
#: rate and speedup cover the same grids on every host.
SWEEP_SEEDS = 2
#: Hot-walk sets per ``fleet-hotspot`` run, at seeds derived from ``--seed``;
#: the timed passes cycle through them, in whole cycles.  One set's speedup
#: moves by a fifth with its seed (it is near 1 / (1 - hit rate), and the hit
#: rate is near 1), so a run pools four sets.
FLEET_SEEDS = 4


def derived_seeds(seed: int, n: int) -> list[int]:
    """The ``n`` workload seeds of one run; the first is ``seed`` itself."""
    return [seed + i * 1_000_003 for i in range(n)]


def _timed_passes(run_pass, check_pass, seconds: float, max_passes: int | None, cycle: int):
    """Run whole cycles of ``cycle`` passes until the next cycle would
    overrun ``seconds`` (at least one cycle), or ``max_passes`` passes.  Each pass's output goes
    to ``check_pass`` after its timing and is then dropped, so peak memory
    does not grow with the number of passes.  Returns each pass's
    ``(start_ns, end_ns)`` window.
    """
    windows: list[tuple[int, int]] = []
    started = time.perf_counter()
    while True:
        with common.timed(windows):
            output = run_pass(len(windows))
        check_pass(output)
        del output
        elapsed = time.perf_counter() - started
        if max_passes is not None and len(windows) >= max_passes:
            break
        mean = common.mean(common.seconds(windows))
        if len(windows) % cycle == 0 and elapsed + cycle * mean > seconds:
            break
    return windows


# -- paper-sweep -------------------------------------------------------------------


def paper_sweep(seed: int, seconds: float, max_passes: int | None, traced: bool) -> dict:
    from repro.sim.results import ResultStore
    from repro.sim.runner import ParallelRunner, warm_cell_resources
    from repro.workload.sweeps import fig11_matrix

    grids = [fig11_matrix(workload_seed=s).cells() for s in derived_seeds(seed, SWEEP_SEEDS)]
    grids = grids[:max_passes] if max_passes is not None else grids
    cells = grids[0]
    setup_windows = []
    repeats = 1 if traced else SETUP_REPEATS
    # warm_cell_resources memoizes its one dataset and index (every grid
    # shares them), so the earlier repetitions build the same pair directly.
    for _ in range(repeats - 1):
        with common.timed(setup_windows):
            dataset = cells[0].dataset.build()
            cells[0].index.build(dataset)
        del dataset
    with common.timed(setup_windows):
        warm_cell_resources(cells)

    common.OUT.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    observed_cells: dict[str, list] = {}
    windows: list[tuple[int, int]] = []
    failed = 0
    for i, grid in enumerate(grids):
        path = common.OUT / f"paper-sweep-pass{i}.jsonl"
        path.unlink(missing_ok=True)
        with common.timed(windows):
            with ResultStore(path, async_writes=True) as store:
                report = ParallelRunner(jobs=FIG11_JOBS, store=store).run(grid)
        failed += report.n_failed
        errors += _check_sweep_pass(grid, report, path, observed_cells)

    n_queries = [sum(c.workload.n_sequences * c.workload.n_queries for c in g) for g in grids]
    rates = list(observed_cells.values())
    out = {
        "setup_windows": setup_windows,
        "windows": windows,
        "work": n_queries,
        "attempted": sum(len(g) for g in grids),
        "failed": failed,
        "hit_rate": sum(hit for hit, _ in rates) / max(len(rates), 1),
        "sim_speedup": sum(speedup for _, speedup in rates) / max(len(rates), 1),
        "errors": errors,
    }
    if seed == common.DEFAULT_SEED and not traced:
        out["observed"] = {
            "cells": observed_cells,
            "inputs": _sweep_inputs_digest([c for g in grids for c in g]),
        }
    return out


def _check_sweep_pass(grid, report, path, observed_cells: dict) -> list[str]:
    """Problems with one grid's pass; records each cell's hit rate and speedup."""
    from repro.sim.results import ResultStore

    errors = []
    if report.n_computed != len(grid) or report.n_failed or report.pool_crashes:
        errors.append(
            f"pass computed {report.n_computed}/{len(grid)} cells, "
            f"{report.n_failed} failed, {report.pool_crashes} pool crashes"
        )
    for result in report.results:
        if not result.ok:
            errors.append(f"cell {result.key[:12]} status {result.status}: {result.error}")
            continue
        m = result.metrics
        values = [m.cache_hit_rate, m.speedup]
        cell = result.key[:12]
        speedup_ok = math.isfinite(m.speedup) and m.speedup > 0
        if not 0.0 <= m.cache_hit_rate <= 1.0 or not speedup_ok:
            errors.append(f"cell {cell} has hit rate {values[0]}, speedup {values[1]}")
        if m.n_sequences != result.spec["workload"]["n_sequences"]:
            errors.append(f"cell {cell} pooled {m.n_sequences} sequences")
        observed_cells[result.key] = values
    stored = ResultStore(path).load()
    if sorted(stored) != sorted(c.key() for c in grid) or not all(r.ok for r in stored.values()):
        errors.append(f"store {path.name} does not hold every cell as ok")
    return errors


def _sweep_inputs_digest(cells) -> str:
    """Digest of the cell-spec keys and every distinct workload's query bounds."""
    from repro.sim.runner import cached_dataset
    from repro.workload.sequence import generate_sequences

    dataset = cached_dataset(cells[0].dataset)
    seen: dict[str, str] = {}
    for cell in cells:
        w = cell.workload
        key = json.dumps(w.to_dict(), sort_keys=True) + f"|{cell.seed}"
        if key not in seen:
            seen[key] = common.bounds_digest(
                generate_sequences(
                    dataset,
                    n_sequences=w.n_sequences,
                    seed=cell.seed,
                    n_queries=w.n_queries,
                    volume=w.volume,
                    gap=w.gap,
                    aspect=w.aspect,
                    window_ratio=w.window_ratio,
                )
            )
    return common.digest({"keys": [c.key() for c in cells], "bounds": seen})


# -- fleet-hotspot -----------------------------------------------------------------


def fleet_hotspot(seed: int, seconds: float, max_passes: int | None, traced: bool) -> dict:
    import repro.datagen as datagen
    from repro.baselines import EWMAPrefetcher
    from repro.index import FlatIndex
    from repro.sim.serve import ServingSimulator
    from repro.workload.multiclient import multiclient_sessions

    setup_windows: list[tuple[int, int]] = []
    repeats = 1 if traced else SETUP_REPEATS
    for _ in range(repeats):
        dataset = index = sets = None  # free the previous repetition's build first
        with common.timed(setup_windows):
            dataset = datagen.make_neuron_tissue(
                n_neurons=FLEET["n_neurons"], seed=FLEET["dataset_seed"]
            )
            index = FlatIndex(dataset, fanout=16)
            sets = [
                multiclient_sessions(
                    dataset,
                    n_clients=FLEET["n_clients"],
                    seed=s,
                    n_queries=FLEET["n_queries"],
                    volume=FLEET["volume"],
                    mode="hotspot",
                    stagger=0,
                    hot_pool=FLEET["hot_pool"],
                )
                for s in derived_seeds(seed, FLEET_SEEDS)
            ]
    sim = ServingSimulator(index)
    n_queries = [sum(len(c.sequence) for c in clients) for clients in sets]

    def run_pass(i: int):
        k = i % len(sets)
        prefetchers = [EWMAPrefetcher(lam=0.3) for _ in sets[k]]
        return k, sim.run(sets[k], prefetchers, lockstep=True)

    errors: list[str] = []
    digests: dict[int, set] = defaultdict(set)
    aggregates: dict[int, object] = {}
    ran: list[int] = []

    def check_pass(output) -> None:
        k, report = output
        ran.append(k)
        hits = sum(c.shared_hits for c in report.clients)
        misses = sum(c.shared_misses for c in report.clients)
        if (hits, misses) != (report.cache_hits, report.cache_misses):
            errors.append(
                f"set {k}: client hits+misses {hits}+{misses} != cache totals "
                f"{report.cache_hits}+{report.cache_misses}"
            )
        short = [c for c in report.clients if len(c.metrics.records) != FLEET["n_queries"]]
        if short:
            errors.append(f"{len(short)} clients did not finish their {FLEET['n_queries']} queries")
        digests[k].add(_report_digest(report))
        aggregates[k] = report.to_aggregate()

    windows = _timed_passes(run_pass, check_pass, seconds, max_passes, len(sets))
    if any(len(d) != 1 for d in digests.values()):
        errors.append("serve reports differ between passes of the same inputs")
    out = {
        "setup_windows": setup_windows,
        "windows": windows,
        "work": [n_queries[k] for k in ran],
        "attempted": sum(n_queries[k] for k in ran),
        "failed": 0,
        "hit_rate": common.mean([a.cache_hit_rate for a in aggregates.values()]),
        "sim_speedup": common.mean([a.speedup for a in aggregates.values()]),
        "errors": errors,
    }
    if seed == common.DEFAULT_SEED and not traced:
        out["observed"] = {
            "reports": [digests[k].pop() for k in sorted(digests)],
            "inputs": common.digest([_fleet_inputs_digest(clients) for clients in sets]),
        }
    return out


def _fleet_inputs_digest(clients) -> str:
    """Digest of the hot walks' query bounds and each client's walk and arrival."""
    first: dict[int, int] = {}
    walks = []
    for c in clients:
        if id(c.sequence) not in first:
            first[id(c.sequence)] = len(walks)
            walks.append(c.sequence)
    return common.digest(
        {
            "bounds": common.bounds_digest(walks),
            "assignment": [[c.client_id, c.start_tick, first[id(c.sequence)]] for c in clients],
        }
    )


def _report_digest(report) -> str:
    aggregate = report.to_aggregate()
    return common.digest(
        {
            "cache": [
                report.capacity_pages,
                report.cache_hits,
                report.cache_misses,
                report.cache_evictions,
                report.cache_insertions,
                report.n_ticks,
            ],
            "clients": [
                [c.shared_hits, c.shared_misses, c.cross_client_hits, c.evicted_misses]
                for c in report.clients
            ],
            "aggregate": [aggregate.cache_hit_rate, aggregate.speedup],
        }
    )


WORKLOADS = {"paper-sweep": paper_sweep, "fleet-hotspot": fleet_hotspot}
#: The span whose subtree is the measured work of each workload.
WINDOW_ROOTS = {"paper-sweep": "runner.run_cell", "fleet-hotspot": "scheduler.run"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-passes", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    out = WORKLOADS[args.workload](args.seed, args.seconds, args.max_passes, args.trace)
    out["peak_rss_mb"] = common.peak_rss_mb()
    if tracer is not None:
        harvest = tracer.take()
        spans.dump(common.OUT / f"{args.workload}.spans.json", harvest)
        out["layers"] = spans.per_layer(harvest, root_name=WINDOW_ROOTS[args.workload])
        out["errors"] += spans.check_tree(harvest["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
