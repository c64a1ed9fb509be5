"""Parameter sweeps for the paper's evaluation grids (Figs 10-13, 17).

Four families of declarative grids live here:

* the **microbenchmark grids** -- :func:`fig10_matrix` (the Figure-10
  workload registry under one prefetcher), :func:`fig11_matrix` (the
  no-gap microbenchmarks crossed with the standard prefetcher
  comparison set) and :func:`fig12_matrix` (the with-gap rows, adding
  SCOUT-OPT) -- built straight from
  :data:`repro.workload.benchmarks.MICROBENCHMARKS`;
* the **sensitivity sweeps** (paper §7.4, Fig 13): each panel fixes the
  §7.4 defaults -- 25-query sequences, 80,000 µm³ cubes,
  prefetch-window ratio 1 -- and varies one parameter.  The paper
  sweeps absolute values tied to its 450M-object tissue; we keep the
  paper's values where units transfer (volume, window ratio, sequence
  length, grid resolution, gap distance) and scale the density axis to
  synthetic-tissue sizes (Fig 13b varies objects at fixed volume);
* the **applicability grid** (paper §8.4, Fig 17):
  :func:`fig17_matrix` crosses the cross-domain datasets (lung airway
  mesh, arterial tree, road network) with the standard prefetcher set,
  one panel per query-size regime (small / large, sized as fractions of
  each dataset's volume);
* the **serving grids** (extensions beyond the paper, DESIGN.md §6-§10):
  :func:`clients_matrix`, :func:`chaos_matrix`, :func:`tiers_matrix`
  and :func:`shards_matrix` run multi-client
  :class:`~repro.sim.serve.ServingSimulator` cells over one shared
  cache and disk, each sweeping one layer (cache size, fault rate, tier
  miss path, shard count) on the shared cell builder.

All builders return pure data -- :class:`~repro.sim.ExperimentMatrix`
values, or cell lists where cells vary per-dataset query volumes or
per-cell serving parameters; run them with
:class:`~repro.sim.ParallelRunner` (cells are keyed by content hash, so
repeated runs resume from the store).  :data:`FIGURES` registers every
grid behind ``scout-repro sweep --figure``: one :class:`Figure` entry
per grid declares its seed, flags, groups, axis labels and tables.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.workload.benchmarks import MICROBENCHMARKS, microbenchmark_names

__all__ = [
    "CHAOS_RATES",
    "FIG11_PREFETCHERS",
    "FIG12_PREFETCHERS",
    "FIG13_PANELS",
    "FIG17_DATASET_PARAMS",
    "FIG17_PANELS",
    "FIGURES",
    "SENSITIVITY_DEFAULTS",
    "SERVE_CACHE_PAGES",
    "SERVE_CLIENTS",
    "SERVE_PREFETCHERS",
    "SHARD_CLIENTS",
    "SHARD_COUNTS",
    "SHARD_PARTITIONS",
    "TIER_MISS_PATHS",
    "TIER_SIZES",
    "Figure",
    "SweepDefaults",
    "Table",
    "chaos_matrix",
    "clients_matrix",
    "fig10_matrix",
    "fig11_matrix",
    "fig12_matrix",
    "fig13_axes",
    "fig13_axis_value",
    "fig13_matrix",
    "fig17_matrix",
    "fig17_query_volume",
    "microbenchmark_of",
    "scale_factor",
    "serve_cache_label",
    "shards_matrix",
    "tiers_matrix",
]


def scale_factor() -> float:
    """Global experiment scale from the ``REPRO_SCALE`` environment knob.

    1.0 (default) keeps the bench suite laptop-sized; larger values grow
    datasets and sequence counts proportionally.
    """
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_SCALE must be a number, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SweepDefaults:
    """The §7.4 defaults shared by all sensitivity experiments."""

    n_queries: int = 25
    volume: float = 80_000.0
    window_ratio: float = 1.0
    aspect: str = "cube"
    gap: float = 0.0
    n_sequences: int = 8
    n_neurons: int = 80


SENSITIVITY_DEFAULTS = SweepDefaults()


def fig13_axes() -> dict[str, list]:
    """The x-axes of the six Fig-13 panels.

    Keys match the panel letters; values follow the paper's tick values
    except for density, which is expressed in neuron counts scaled to
    the synthetic tissue (the paper adds 50M objects per step).
    """
    return {
        "a_query_volume": [10_000.0, 45_000.0, 80_000.0, 115_000.0, 150_000.0, 185_000.0],
        "b_density_neurons": [40, 60, 80, 100, 120],
        "c_sequence_length": [5, 15, 25, 35, 45, 55],
        "d_window_ratio": [0.1, 0.7, 1.3, 1.9, 2.5],
        "e_grid_resolution": [32_768, 4_096, 512, 64, 8],
        "f_gap_distance": [10.0, 15.0, 20.0, 25.0],
    }


# -- the Fig-13 grid as experiment matrices -----------------------------------------

#: Panel letter -> (axis key in :func:`fig13_axes`, human title).
FIG13_PANELS: dict[str, tuple[str, str]] = {
    "a": ("a_query_volume", "accuracy vs query volume"),
    "b": ("b_density_neurons", "accuracy vs dataset density"),
    "c": ("c_sequence_length", "accuracy vs sequence length"),
    "d": ("d_window_ratio", "accuracy vs prefetch window ratio"),
    "e": ("e_grid_resolution", "accuracy vs grid resolution"),
    "f": ("f_gap_distance", "accuracy vs gap distance"),
}


def _fig13_panel_axis(panel: str) -> list:
    """The paper's tick values of one Fig-13 panel (ValueError if unknown)."""
    if panel not in FIG13_PANELS:
        raise ValueError(
            f"unknown panel {panel!r} for Fig 13 (expected {', '.join(FIG13_PANELS)})"
        )
    return fig13_axes()[FIG13_PANELS[panel][0]]


def fig13_matrix(
    panel: str,
    *,
    n_neurons: int | None = None,
    n_sequences: int | None = None,
    dataset_seed: int = 7,
    workload_seed: int = 13,
    fanout: int = 16,
    axis: Sequence[Any] | None = None,
    density_extent: float = 700.0,
    density_seed: int = 13,
    defaults: SweepDefaults = SENSITIVITY_DEFAULTS,
):
    """One Fig-13 panel as a declarative :class:`ExperimentMatrix`.

    Every panel fixes the §7.4 defaults and varies one axis: (a) the
    query volume, (b) the dataset density (neuron count at fixed tissue
    extent), (c) the sequence length, (d) the prefetch-window ratio,
    (e) SCOUT's grid resolution, (f) the gap distance (where SCOUT-OPT
    joins SCOUT as a second prefetcher row).  ``axis`` overrides the
    paper's tick values, e.g. to truncate a panel for a smoke run.

    The returned matrix is pure data; run it with
    :class:`repro.sim.ParallelRunner` (cells are keyed by content hash,
    so repeated runs resume from the store).
    """
    # Imported here: repro.sim.runner imports repro.workload.sequence,
    # so a module-level import would be circular through repro.sim.
    from repro.sim.runner import (
        DatasetSpec,
        ExperimentMatrix,
        IndexSpec,
        PrefetcherSpec,
        WorkloadSpec,
    )

    paper_axis = _fig13_panel_axis(panel)
    values = list(paper_axis if axis is None else axis)
    if not values:
        raise ValueError(f"panel {panel!r} axis must not be empty")
    n_neurons = defaults.n_neurons if n_neurons is None else int(n_neurons)
    n_sequences = defaults.n_sequences if n_sequences is None else int(n_sequences)

    def workload(**overrides: Any) -> "WorkloadSpec":
        merged: dict[str, Any] = dict(
            n_sequences=n_sequences,
            n_queries=defaults.n_queries,
            volume=defaults.volume,
            gap=defaults.gap,
            aspect=defaults.aspect,
            window_ratio=defaults.window_ratio,
        )
        merged.update(overrides)
        return WorkloadSpec(**merged)

    datasets = (DatasetSpec("neuron", {"n_neurons": n_neurons, "seed": dataset_seed}),)
    indexes = (IndexSpec("flat", {"fanout": fanout}),)
    workloads = (workload(),)
    prefetchers = (PrefetcherSpec("scout"),)

    if panel == "a":
        workloads = tuple(workload(volume=float(v)) for v in values)
    elif panel == "b":
        # Fixed tissue volume, growing object count = growing density
        # (the paper adds 50M objects to the same 285 mm^3).
        datasets = tuple(
            DatasetSpec(
                "neuron",
                {"n_neurons": int(n), "seed": density_seed, "extent": float(density_extent)},
            )
            for n in values
        )
    elif panel == "c":
        workloads = tuple(workload(n_queries=int(n)) for n in values)
    elif panel == "d":
        workloads = tuple(workload(window_ratio=float(r)) for r in values)
    elif panel == "e":
        prefetchers = tuple(
            PrefetcherSpec("scout", {"grid_resolution": int(r)}) for r in values
        )
    elif panel == "f":
        workloads = tuple(workload(gap=float(g)) for g in values)
        prefetchers = (PrefetcherSpec("scout"), PrefetcherSpec("scout-opt"))

    return ExperimentMatrix(
        datasets=datasets,
        indexes=indexes,
        workloads=workloads,
        prefetchers=prefetchers,
        seeds=(workload_seed,),
    )


# -- the Fig-10/11/12 microbenchmark grids ------------------------------------------

#: The standard prefetcher comparison set of Figure 11 (kind, params).
FIG11_PREFETCHERS: tuple[tuple[str, dict], ...] = (
    ("ewma", {"lam": 0.3}),
    ("straight-line", {}),
    ("hilbert", {}),
    ("scout", {}),
)

#: Figure 12 adds SCOUT-OPT, whose index-assisted gap traversal is the
#: point of the with-gap comparison.
FIG12_PREFETCHERS: tuple[tuple[str, dict], ...] = FIG11_PREFETCHERS + (("scout-opt", {}),)


def _microbenchmark_matrix(
    benches: Sequence[str],
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]],
    *,
    n_neurons: int | None = None,
    n_sequences: int | None = None,
    dataset_seed: int = 7,
    workload_seed: int = 11,
    fanout: int = 16,
    defaults: SweepDefaults = SENSITIVITY_DEFAULTS,
):
    """``benches`` x ``prefetchers`` on one neuron tissue.

    The keyword arguments are the knobs every ``figN_matrix`` builder
    of this family forwards.
    """
    # Imported here: repro.sim.runner imports repro.workload.sequence,
    # so a module-level import would be circular through repro.sim.
    from repro.sim.runner import (
        DatasetSpec,
        ExperimentMatrix,
        IndexSpec,
        PrefetcherSpec,
        WorkloadSpec,
    )

    if not benches:
        raise ValueError("benches must name at least one microbenchmark")
    unknown = [name for name in benches if name not in MICROBENCHMARKS]
    if unknown:
        known = ", ".join(MICROBENCHMARKS)
        raise ValueError(f"unknown microbenchmark(s) {', '.join(unknown)}; known: {known}")
    n_neurons = defaults.n_neurons if n_neurons is None else int(n_neurons)
    n_sequences = defaults.n_sequences if n_sequences is None else int(n_sequences)
    workloads = tuple(
        WorkloadSpec(
            n_sequences=n_sequences,
            n_queries=MICROBENCHMARKS[name].n_queries,
            volume=MICROBENCHMARKS[name].volume,
            gap=MICROBENCHMARKS[name].gap,
            aspect=MICROBENCHMARKS[name].aspect,
            window_ratio=MICROBENCHMARKS[name].window_ratio,
        )
        for name in benches
    )
    return ExperimentMatrix(
        datasets=(DatasetSpec("neuron", {"n_neurons": n_neurons, "seed": dataset_seed}),),
        indexes=(IndexSpec("flat", {"fanout": fanout}),),
        workloads=workloads,
        prefetchers=tuple(PrefetcherSpec(kind, dict(params)) for kind, params in prefetchers),
        seeds=(workload_seed,),
    )


def fig10_matrix(
    *,
    benches: Sequence[str] | None = None,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = (("scout", {}),),
    workload_seed: int = 11,
    **knobs: Any,
):
    """The full Figure-10 microbenchmark registry as one matrix.

    All seven workload rows (ad-hoc, model building, visualization with
    and without gaps) under a single prefetcher -- the grid behind the
    paper's headline SCOUT numbers, and the cheapest whole-registry
    smoke sweep.  ``benches`` restricts the rows (e.g. for CI slices);
    ``knobs`` (``n_neurons``, ``n_sequences``, ``dataset_seed``,
    ``fanout``, ``defaults``) size the tissue and the sequences.
    """
    benches = microbenchmark_names() if benches is None else list(benches)
    return _microbenchmark_matrix(benches, prefetchers, workload_seed=workload_seed, **knobs)


def fig11_matrix(
    *,
    benches: Sequence[str] | None = None,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = FIG11_PREFETCHERS,
    workload_seed: int = 11,
    **knobs: Any,
):
    """Figure 11: the no-gap microbenchmarks x the standard prefetchers.

    Matches the direct harness in ``benchmarks/test_fig11_microbenchmarks.py``
    (workload seed 11) cell for cell; the declarative form adds resume,
    sharding and fault tolerance on top.  ``knobs`` as in
    :func:`fig10_matrix`.
    """
    benches = microbenchmark_names(with_gaps=False) if benches is None else list(benches)
    return _microbenchmark_matrix(benches, prefetchers, workload_seed=workload_seed, **knobs)


def fig12_matrix(
    *,
    benches: Sequence[str] | None = None,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = FIG12_PREFETCHERS,
    workload_seed: int = 12,
    **knobs: Any,
):
    """Figure 12: the with-gap microbenchmarks, with SCOUT-OPT added.

    Matches ``benchmarks/test_fig12_gaps.py`` (workload seed 12).
    ``knobs`` as in :func:`fig10_matrix`.
    """
    benches = microbenchmark_names(with_gaps=True) if benches is None else list(benches)
    return _microbenchmark_matrix(benches, prefetchers, workload_seed=workload_seed, **knobs)


# -- the Fig-17 applicability grid --------------------------------------------------

#: Panel letter -> (query-size regime, human title) of Figure 17.
FIG17_PANELS: dict[str, tuple[str, str]] = {
    "a": ("small", "applicability, small queries"),
    "b": ("large", "applicability, large queries"),
}

#: The §8.4 cross-domain datasets (kind -> generator params), ordered as
#: in the figure.  Laptop-scale stand-ins for the paper's lung airway
#: mesh (7.1M triangles), pig-heart arterial tree (2.1M cylinders) and
#: North-America road network (7.2M 2D segments).
FIG17_DATASET_PARAMS: dict[str, dict[str, Any]] = {
    "lung": {"seed": 17, "max_depth": 4},
    "arterial": {"seed": 17},
    "roads": {"seed": 17, "grid_size": 12},
}

#: §8.4 sizes queries as a fraction of the dataset volume; small queries
#: are 5e-7 of it.  Synthetic stand-ins are orders of magnitude smaller
#: than the paper's datasets, so the small volume is floored at one that
#: returns a handful of objects, and the large regime is a fixed factor
#: above the small one so the two regimes stay distinct even when the
#: floor binds (mirrors ``benchmarks/test_fig17_applicability.py``).
FIG17_SMALL_FRACTION = 5e-7
FIG17_LARGE_OVER_SMALL = 4.0


def fig17_query_volume(dataset: Any, regime: str) -> float:
    """The Fig-17 query volume (area for 2D data) of one built dataset."""
    if regime not in ("small", "large"):
        raise ValueError(f"regime must be 'small' or 'large', got {regime!r}")
    extent = dataset.bounds.extent
    if dataset.dims == 2:
        measure = float(extent[0] * extent[1])
    else:
        measure = float(extent[0] * extent[1] * extent[2])
    floor = 60.0 / max(dataset.density(), 1e-12)
    small = max(measure * FIG17_SMALL_FRACTION, floor)
    return small if regime == "small" else small * FIG17_LARGE_OVER_SMALL


def fig17_matrix(
    panel: str,
    *,
    datasets: Mapping[str, Mapping[str, Any]] | None = None,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = FIG11_PREFETCHERS,
    n_sequences: int | None = None,
    n_queries: int | None = None,
    workload_seed: int = 17,
    fanout: int = 16,
    defaults: SweepDefaults = SENSITIVITY_DEFAULTS,
) -> list:
    """One Fig-17 panel: cross-domain datasets x standard prefetchers.

    Panel ``a`` uses the small query regime, ``b`` the large one.  Each
    dataset's query volume is derived from its own built extent and
    density (:func:`fig17_query_volume`), so the result is a *list of
    cells* -- the union of one single-workload matrix per dataset --
    rather than one cross-product matrix.  ``datasets`` overrides the
    generator parameters (e.g. to shrink the grid for smoke runs);
    building the datasets to size the queries goes through the runner's
    per-process memo, so a panel pair reuses one build per dataset.
    """
    # Imported here: repro.sim.runner imports repro.workload.sequence,
    # so a module-level import would be circular through repro.sim.
    from repro.sim.runner import (
        DatasetSpec,
        ExperimentMatrix,
        IndexSpec,
        PrefetcherSpec,
        WorkloadSpec,
        cached_dataset,
    )

    if panel not in FIG17_PANELS:
        raise ValueError(
            f"unknown panel {panel!r} for Fig 17 (expected {', '.join(FIG17_PANELS)})"
        )
    regime, _ = FIG17_PANELS[panel]
    dataset_params = FIG17_DATASET_PARAMS if datasets is None else datasets
    if not dataset_params:
        raise ValueError("fig17_matrix needs at least one dataset")
    n_sequences = defaults.n_sequences if n_sequences is None else int(n_sequences)
    n_queries = defaults.n_queries if n_queries is None else int(n_queries)

    cells: list = []
    for kind, params in dataset_params.items():
        dataset_spec = DatasetSpec(kind, dict(params))
        volume = fig17_query_volume(cached_dataset(dataset_spec), regime)
        matrix = ExperimentMatrix(
            datasets=(dataset_spec,),
            indexes=(IndexSpec("flat", {"fanout": fanout}),),
            workloads=(
                WorkloadSpec(
                    n_sequences=n_sequences,
                    n_queries=n_queries,
                    volume=volume,
                    window_ratio=defaults.window_ratio,
                ),
            ),
            prefetchers=tuple(
                PrefetcherSpec(kind_, dict(params_)) for kind_, params_ in prefetchers
            ),
            seeds=(workload_seed,),
        )
        cells.extend(matrix.cells())
    return cells


# -- the serving grids --------------------------------------------------------------

#: Concurrent-client counts of the serving sweep's x-axis.
SERVE_CLIENTS: tuple[int, ...] = (1, 2, 4, 8, 16)

#: The serving comparison set: the best trajectory baseline vs SCOUT.
SERVE_PREFETCHERS: tuple[tuple[str, dict], ...] = (
    ("ewma", {"lam": 0.3}),
    ("scout", {}),
)

#: Shared-cache capacities swept (``None`` = the engine's auto sizing,
#: ~12% of the dataset's pages; the small value models a cache under
#: heavy contention -- every client fights for the same few pages).
SERVE_CACHE_PAGES: tuple[int | None, ...] = (None, 128)

#: Fault intensities of the chaos sweep's x-axis: the headline
#: ``transient_rate``; corrupt and latency-spike rates ride at half of
#: it.  0.0 keeps the fault layer active but silent -- the degradation
#: baseline every other column is read against.  The ladder spans the
#: retry envelope: a read only *fails* after ``retry_limit + 1``
#: consecutive bad draws (probability ``rate**4`` at the defaults), so
#: 0.2 exercises pure retry/backoff pressure, 0.5 the first retry
#: exhaustions, and 0.7 sustained failure where the breaker earns its
#: keep.
CHAOS_RATES: tuple[float, ...] = (0.0, 0.2, 0.5, 0.7)

#: Miss-path mechanisms of the tiers sweep's x-axis (the SimpleScalar
#: taxonomy: victim cache, miss cache, stream buffer, all combined);
#: ``none`` is the tier-cache-only baseline each mechanism is read
#: against.
TIER_MISS_PATHS: tuple[str, ...] = ("none", "victim", "miss", "stream", "combined")

#: Storage-side tier-cache capacities swept, in pages.  The small tier
#: thrashes, so the miss-path mechanisms decide what survives below it;
#: the large tier shows how much of their win capacity alone buys.
TIER_SIZES: tuple[int, ...] = (8, 64)

#: Shard counts of the shards sweep: the unsharded baseline (a K=1
#: pass-through wrapper, bit-identical to no sharding) against a small
#: multi-node layout.
SHARD_COUNTS: tuple[int, ...] = (1, 4)

#: Partitioning schemes swept: Hilbert range splits (spatially
#: clustered clients land on few shards) vs hash scatter (uniform but
#: locality-blind, every batch fans out).
SHARD_PARTITIONS: tuple[str, ...] = ("hilbert", "hash")

#: Client counts of the shards sweep (hotspot mode, so load skews).
SHARD_CLIENTS: tuple[int, ...] = (4, 8)

#: One point of a serving grid: (client count, (prefetcher kind,
#: params), CellSpec layer fields such as ``sim``/``faults``/``storage``/
#: ``shards``).
_ServingPoint = tuple[int, tuple[str, Mapping[str, Any]], Mapping[str, Any]]


def _serving_cells(
    points: Iterable[_ServingPoint],
    *,
    mode: str,
    stagger: int = 1,
    n_neurons: int = 40,
    n_queries: int | None = None,
    volume: float | None = None,
    dataset_seed: int = 7,
    workload_seed: int = 21,
    fanout: int = 16,
    defaults: SweepDefaults = SENSITIVITY_DEFAULTS,
) -> list:
    """The shared cell builder of every serving grid, one cell per point.

    Each cell is a multi-client serving run (``serve`` mapping on the
    spec): ``n_clients`` concurrent sessions, one sequence each, over
    one shared prefetch cache and disk of an ``n_neurons`` tissue,
    client ``i`` joining ``stagger`` ticks after client ``i-1``;
    ``mode`` picks the contention regime of
    :func:`repro.workload.multiclient.multiclient_sessions`
    (``independent`` walks vs Zipf-skewed ``hotspot`` sharing).  The
    point's layer fields are the one layer a grid sweeps.  The keyword
    arguments after ``mode`` are the ``serving`` knobs every serving
    matrix builder forwards.
    """
    # Imported here: repro.sim.runner imports repro.workload.sequence,
    # so a module-level import would be circular through repro.sim.
    from repro.sim.runner import (
        CellSpec,
        DatasetSpec,
        IndexSpec,
        PrefetcherSpec,
        WorkloadSpec,
    )

    n_queries = defaults.n_queries if n_queries is None else int(n_queries)
    volume = defaults.volume if volume is None else float(volume)
    dataset = DatasetSpec("neuron", {"n_neurons": int(n_neurons), "seed": dataset_seed})
    index = IndexSpec("flat", {"fanout": fanout})
    return [
        CellSpec(
            dataset=dataset,
            index=index,
            workload=WorkloadSpec(
                n_sequences=n_clients,  # one session per client
                n_queries=n_queries,
                volume=volume,
                gap=defaults.gap,
                aspect=defaults.aspect,
                window_ratio=defaults.window_ratio,
            ),
            prefetcher=PrefetcherSpec(kind, dict(params)),
            seed=workload_seed,
            serve={"n_clients": n_clients, "mode": mode, "stagger": int(stagger)},
            **layers,
        )
        for n_clients, (kind, params), layers in points
    ]


def _positive_ints(name: str, values: Sequence[Any]) -> list[int]:
    ints = [int(v) for v in values]
    if not ints or any(v < 1 for v in ints):
        raise ValueError(f"{name} must be positive ints, got {list(values)!r}")
    return ints


def _drawn_from(name: str, values: Sequence[Any], allowed: Sequence[str]) -> list[str]:
    chosen = [str(v) for v in values]
    if not chosen or set(chosen) - set(allowed):
        raise ValueError(f"{name} must be drawn from {list(allowed)}, got {list(values)!r}")
    return chosen


def clients_matrix(
    *,
    clients: Sequence[int] = SERVE_CLIENTS,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = SERVE_PREFETCHERS,
    cache_pages: Sequence[int | None] = SERVE_CACHE_PAGES,
    mode: str = "independent",
    **serving: Any,
) -> list:
    """The client-scaling serving grid: clients x prefetchers x cache sizes.

    Cells order cache-size-major (then prefetcher, then client count)
    so each cache size renders as one table.  ``serving`` takes the
    shared knobs of :func:`_serving_cells` (``stagger``, ``n_neurons``,
    ``n_queries``, ``volume``, seeds, ``fanout``, ``defaults``).
    """
    client_counts = _positive_ints("clients", clients)
    sizes = list(cache_pages)
    if not sizes or any(size is not None and int(size) < 1 for size in sizes):
        raise ValueError(f"cache_pages must be positive ints or None, got {sizes!r}")
    return _serving_cells(
        (
            (n, prefetcher, {"sim": {} if size is None else {"cache_capacity_pages": int(size)}})
            for size in sizes
            for prefetcher in prefetchers
            for n in client_counts
        ),
        mode=mode,
        **serving,
    )


def serve_cache_label(spec: Mapping[str, Any]) -> str:
    """Human label of a serving cell's shared-cache size ("auto" or pages)."""
    capacity = spec.get("sim", {}).get("cache_capacity_pages")
    return "auto" if capacity is None else f"{int(capacity)} pages"


def chaos_matrix(
    *,
    rates: Sequence[float] = CHAOS_RATES,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = SERVE_PREFETCHERS,
    breakers: Sequence[bool] = (True, False),
    n_clients: int = 4,
    fault_seed: int = 11,
    mode: str = "hotspot",
    **serving: Any,
) -> list:
    """The graceful-degradation grid: fault rate x prefetcher x breaker.

    Every cell is a multi-client serving run whose shared disk is
    wrapped in a :class:`~repro.storage.faults.FaultyDiskModel`: the
    swept rate drives transient read errors, with torn-page corruption
    and latency spikes at half that rate, all drawn from seeded RNG
    streams so the grid is bit-identical across ``jobs=1``/``jobs=N``.
    The breaker axis toggles per-client circuit breaking (trip to
    demand paging after repeated prefetch-path failures), answering
    the sweep's question: how much hit rate does the prefetcher keep
    as the disk degrades, and does breaking early beat retrying?
    Cells order breaker-major (then prefetcher, then rate) so each
    breaker setting renders as one table.  Rate 0.0 cells carry the
    (inactive) fault plan too, pinning the wrapper's no-op overhead
    into the same store.  ``serving`` as in :func:`clients_matrix`.
    """
    fault_rates = [float(r) for r in rates]
    if not fault_rates or any(not 0.0 <= r <= 1.0 for r in fault_rates):
        raise ValueError(f"rates must be fractions in [0, 1], got {list(rates)!r}")
    (n_clients,) = _positive_ints("n_clients", [n_clients])
    return _serving_cells(
        (
            (
                n_clients,
                prefetcher,
                {
                    "faults": {
                        "transient_rate": rate,
                        "corrupt_rate": rate / 2.0,
                        "latency_rate": rate / 2.0,
                        "seed": int(fault_seed),
                        "breaker": bool(breaker),
                    }
                },
            )
            for breaker in breakers
            for prefetcher in prefetchers
            for rate in fault_rates
        ),
        mode=mode,
        **serving,
    )


def tiers_matrix(
    *,
    miss_paths: Sequence[str] = TIER_MISS_PATHS,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = SERVE_PREFETCHERS,
    tier_sizes: Sequence[int] = TIER_SIZES,
    backend: str = "ram",
    n_clients: int = 4,
    mode: str = "hotspot",
    **serving: Any,
) -> list:
    """The tiered-storage grid: tier size x prefetcher x miss-path mechanism.

    Every cell is a multi-client serving run whose shared disk is
    wrapped in a :class:`~repro.storage.tiered.TieredStore` (DESIGN.md
    §9): a storage-side tier cache of the swept capacity, with the
    swept miss-path mechanism probing below it.  The grid answers the
    comparative question of the SimpleScalar taxonomy -- which
    mechanism absorbs the misses each prefetcher leaves behind, and at
    what tier size does raw capacity wash the mechanisms out?  Cells
    order tier-size-major (then prefetcher, then miss path) so each
    tier size renders as one table.  The tier structures are
    deterministic (LRU over the request order, no randomness), so the
    grid keeps the ``jobs=1``/``jobs=N`` bit-identity contract.
    ``serving`` as in :func:`clients_matrix`.
    """
    from repro.storage.tiered import MISS_PATHS

    paths = _drawn_from("miss_paths", miss_paths, MISS_PATHS)
    sizes = [int(s) for s in tier_sizes]
    if not sizes or any(s < 0 for s in sizes):
        raise ValueError(f"tier_sizes must be non-negative ints, got {list(tier_sizes)!r}")
    (n_clients,) = _positive_ints("n_clients", [n_clients])
    return _serving_cells(
        (
            (
                n_clients,
                prefetcher,
                {"storage": {"backend": str(backend), "miss_path": path, "tier_pages": size}},
            )
            for size in sizes
            for prefetcher in prefetchers
            for path in paths
        ),
        mode=mode,
        **serving,
    )


def shards_matrix(
    *,
    clients: Sequence[int] = SHARD_CLIENTS,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    partitions: Sequence[str] = SHARD_PARTITIONS,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = SERVE_PREFETCHERS,
    rebalance: bool = False,
    mode: str = "hotspot",
    **serving: Any,
) -> list:
    """The sharded-cache grid: clients x shard count x partition x policy.

    Every cell is a multi-client serving run whose shared prefetch
    cache is compiled into a :class:`~repro.storage.sharded.ShardedCache`
    (DESIGN.md §10): the total capacity range-partitioned along the
    page table's Hilbert keys or hash-scattered over page ids.  The
    grid answers the scale-out questions -- how skewed does per-shard
    load get under each partitioning, and what does sharding cost or
    buy each prefetch policy as the fleet grows?  ``rebalance=True``
    additionally arms the hot-shard rebalancer on the ``hilbert``
    cells (it is range-partitioning-only, so hash cells never take
    it).  Cells order partition-major (then clients, then prefetcher,
    then shard count) so each partition renders as one table group.
    Routing, eviction and rebalancing are deterministic, so the grid
    keeps the ``jobs=1``/``jobs=N`` bit-identity contract.
    ``serving`` as in :func:`clients_matrix`.
    """
    from repro.storage.sharded import PARTITIONS

    parts = _drawn_from("partitions", partitions, PARTITIONS)
    counts = _positive_ints("shard_counts", shard_counts)
    client_counts = _positive_ints("clients", clients)

    def layout(k: int, partition: str) -> dict[str, Any]:
        shards: dict[str, Any] = {"n_shards": k, "partition": partition}
        if rebalance and partition == "hilbert":
            shards["rebalance"] = True
        return {"shards": shards}

    return _serving_cells(
        (
            (n, prefetcher, layout(k, partition))
            for partition in parts
            for n in client_counts
            for prefetcher in prefetchers
            for k in counts
        ),
        mode=mode,
        **serving,
    )


# -- cell labels --------------------------------------------------------------------


def microbenchmark_of(spec: Mapping[str, Any]) -> str | None:
    """The Figure-10 row a cell-spec dict's workload instantiates.

    Matches on the registry parameters (queries, volume, gap, aspect,
    window ratio; the sequence count is a harness knob, not part of the
    benchmark's identity).  Returns ``None`` for workloads that are not
    microbenchmark rows (e.g. Fig-13 sensitivity cells), so callers can
    label arbitrary stores.
    """
    workload = spec["workload"]
    for name, bench in MICROBENCHMARKS.items():
        if (
            int(workload["n_queries"]) == bench.n_queries
            and float(workload["volume"]) == bench.volume
            and float(workload["gap"]) == bench.gap
            and workload["aspect"] == bench.aspect
            and float(workload["window_ratio"]) == bench.window_ratio
        ):
            return name
    return None


def fig13_axis_value(panel: str, spec: Mapping[str, Any]):
    """The varying-axis value of one cell-spec dict of a Fig-13 panel.

    Used to label table columns when rendering stored sweep results.
    """
    if panel == "a":
        return spec["workload"]["volume"]
    if panel == "b":
        return spec["dataset"]["params"]["n_neurons"]
    if panel == "c":
        return spec["workload"]["n_queries"]
    if panel == "d":
        return spec["workload"]["window_ratio"]
    if panel == "e":
        return spec["prefetcher"]["params"].get("grid_resolution", 4096)
    if panel == "f":
        return spec["workload"]["gap"]
    known = ", ".join(sorted(FIG13_PANELS))
    raise ValueError(f"unknown Fig-13 panel {panel!r}; known: {known}")


# -- the sweep registry: one entry per ``scout-repro sweep --figure`` grid -----------


class Table(NamedTuple):
    """One table a :class:`Figure` renders for each group of its grid.

    ``title`` maps the group label to the table title and ``value_of``
    a stored result to the tabulated number.  ``figure_id`` is a
    ``str.format`` template over the group label naming the paper-shape
    note printed above the table (``""``: none).
    """

    title: Callable[[str], str]
    value_of: Callable[[Any], Any]
    precision: int = 1
    figure_id: str = ""


def _prefetcher_label(result) -> str:
    """Table row label for a cell: kind, plus lambda for EWMA variants."""
    prefetcher = result.spec["prefetcher"]
    lam = prefetcher["params"].get("lam")
    if prefetcher["kind"] == "ewma" and lam is not None:
        return f"ewma-{lam:g}"
    return prefetcher["kind"]


@dataclass(frozen=True)
class Figure:
    """One evaluation grid behind ``scout-repro sweep --figure``.

    * ``seed`` -- the workload seed used when ``--seed`` is not given;
    * ``flags`` -- the grid-specific sweep options (argparse ``dest``
      names) the grid reads; the CLI rejects every other one;
    * ``grids(opts)`` -- builds the grid from the parsed sweep options
      (``opts.seed`` already resolved) as ``(label, cells)`` groups, one
      table group each; raises ``ValueError`` on values it cannot build;
    * ``column(label, spec)`` -- the axis value of a cell-spec dict in
      group ``label``: each table's column, and, through the ``axis``
      template (``{0}`` the value, ``{1}`` the spec), the cell's
      ``--list-cells`` label;
    * ``tables`` -- what to render per group; ``row`` labels the rows.
    """

    seed: int
    flags: frozenset[str]
    grids: Callable[[Any], list[tuple[str, list]]]
    column: Callable[[str, Mapping[str, Any]], Any]
    axis: str
    tables: tuple[Table, ...]
    row: Callable[[Any], str] = _prefetcher_label


def _hit_rate(result) -> float:
    return 100.0 * result.metrics.cache_hit_rate


def _shard_imbalance(result) -> float:
    # max/mean per-shard request load: 1.0 is perfectly even, K is
    # "one shard absorbs everything".  K=1 cells report 1.0.
    requests = result.metrics.shard_requests
    if not requests or sum(requests) == 0:
        return 1.0
    return max(requests) / (sum(requests) / len(requests))


def _microbenchmark_figure(number: int, builder, seed: int, hit_id: str, speed_id: str):
    """A Fig-10/11/12 grid: one group, hit-rate and speedup tables per bench column."""

    def grids(opts):
        matrix = builder(
            benches=opts.benches,
            n_neurons=opts.neurons,
            n_sequences=opts.sequences,
            workload_seed=opts.seed,
        )
        return [(f"fig{number}", matrix.cells())]

    return Figure(
        seed=seed,
        flags=frozenset({"benches", "neurons", "sequences"}),
        grids=grids,
        column=lambda _, spec: microbenchmark_of(spec) or "?",
        axis="bench={0}",
        tables=(
            Table(f"Fig {number} sweep -- cache hit rate [%]".format, _hit_rate, 1, hit_id),
            Table(
                f"Fig {number} sweep -- speedup vs no prefetching".format,
                lambda r: r.metrics.speedup,
                2,
                speed_id,
            ),
        ),
    )


def _fig13_grids(opts) -> list[tuple[str, list]]:
    groups = []
    for panel in opts.panels or FIG13_PANELS:
        axis = _fig13_panel_axis(panel)[: opts.points]
        if panel == "b" and opts.neurons is not None:
            # Panel b's axis IS the neuron count; rescale it around the
            # requested size so --neurons shrinks this panel too instead
            # of being silently ignored.
            ratio = opts.neurons / SENSITIVITY_DEFAULTS.n_neurons
            axis = [max(2, int(round(n * ratio))) for n in axis]
        matrix = fig13_matrix(
            panel,
            n_neurons=opts.neurons,
            n_sequences=opts.sequences,
            workload_seed=opts.seed,
            axis=axis,
        )
        groups.append((panel, matrix.cells()))
    return groups


def _fig17_grids(opts) -> list[tuple[str, list]]:
    datasets = None
    if opts.datasets is not None:
        unknown = [kind for kind in opts.datasets if kind not in FIG17_DATASET_PARAMS]
        if unknown:
            raise ValueError(
                f"unknown dataset(s): {', '.join(unknown)} "
                f"(expected {', '.join(FIG17_DATASET_PARAMS)})"
            )
        datasets = {kind: FIG17_DATASET_PARAMS[kind] for kind in opts.datasets}
    return [
        (
            panel,
            fig17_matrix(
                panel, datasets=datasets, n_sequences=opts.sequences, workload_seed=opts.seed
            ),
        )
        for panel in opts.panels or FIG17_PANELS
    ]


def _panel_figure(number: int, titles, *, grids, flags, column, axis: str) -> Figure:
    """A paper figure with one hit-rate table per panel; seeded by its number."""

    def title(panel: str) -> str:
        return f"Fig {number}{panel} -- {titles[panel][1]} [hit %]"

    return Figure(
        seed=number,
        flags=frozenset(flags),
        grids=grids,
        column=column,
        axis=axis,
        tables=(Table(title, _hit_rate, 1, f"fig{number}{{}}"),),
    )


def _grouped(cells: list, label_of: Callable[[Mapping[str, Any]], str]):
    """Split a major-axis-ordered cell list into ``(label, cells)`` runs."""
    return [
        (label, list(run))
        for label, run in itertools.groupby(cells, key=lambda cell: label_of(cell.to_dict()))
    ]


def _serving_knobs(opts) -> dict[str, Any]:
    knobs: dict[str, Any] = {"workload_seed": opts.seed}
    if opts.neurons is not None:
        knobs["n_neurons"] = opts.neurons
    return knobs


_SERVING_FLAGS = frozenset({"lockstep", "neurons"})


def _hit_table(title: str, figure_id: str) -> Table:
    """A serving grid's aggregate hit-rate table; ``title`` has a ``{}`` for the group."""
    return Table(f"{title} -- aggregate hit rate [%]".format, _hit_rate, 1, figure_id)


FIGURES: dict[str, Figure] = {
    "10": _microbenchmark_figure(10, fig10_matrix, 11, "fig10sweep", ""),
    "11": _microbenchmark_figure(11, fig11_matrix, 11, "fig11a", "fig11b"),
    "12": _microbenchmark_figure(12, fig12_matrix, 12, "fig12", ""),
    "13": _panel_figure(
        13,
        FIG13_PANELS,
        grids=_fig13_grids,
        flags={"panels", "points", "neurons", "sequences"},
        column=fig13_axis_value,
        axis="axis={0:g}",
    ),
    "17": _panel_figure(
        17,
        FIG17_PANELS,
        grids=_fig17_grids,
        flags={"panels", "datasets", "sequences"},
        column=lambda _, spec: spec["dataset"]["kind"],
        axis="dataset={0}",
    ),
    "clients": Figure(
        seed=21,
        flags=_SERVING_FLAGS | {"clients", "cache_pages", "contention"},
        grids=lambda opts: _grouped(
            clients_matrix(
                clients=opts.clients or SERVE_CLIENTS,
                cache_pages=opts.cache_pages or SERVE_CACHE_PAGES,
                mode=opts.contention,
                **_serving_knobs(opts),
            ),
            serve_cache_label,
        ),
        column=lambda _, spec: int(spec["serve"]["n_clients"]),
        axis="clients={0}",
        tables=(
            _hit_table("Serving sweep -- shared cache {}", "clients"),
            Table(
                "Serving sweep -- shared cache {} -- per-client hit-rate std [%]".format,
                lambda r: 100.0 * r.metrics.hit_rate_std,
            ),
        ),
    ),
    "chaos": Figure(
        seed=21,
        flags=_SERVING_FLAGS,
        grids=lambda opts: _grouped(
            chaos_matrix(**_serving_knobs(opts)),
            lambda spec: f"breaker {'on' if spec['faults']['breaker'] else 'off'}",
        ),
        column=lambda _, spec: float(spec["faults"]["transient_rate"]),
        axis="rate={0:g}",
        tables=(
            _hit_table("Chaos sweep -- {}", "chaos"),
            Table(
                "Chaos sweep -- {} -- degraded queries (demand paging)".format,
                lambda r: r.metrics.degraded_ticks or 0,
                0,
            ),
        ),
    ),
    "tiers": Figure(
        seed=21,
        flags=_SERVING_FLAGS,
        grids=lambda opts: _grouped(
            tiers_matrix(**_serving_knobs(opts)),
            lambda spec: f"tier {spec['storage']['tier_pages']} pages",
        ),
        column=lambda _, spec: str(spec["storage"]["miss_path"]),
        axis="miss-path={0}",
        tables=(
            _hit_table("Tiers sweep -- {}", "tiers"),
            Table(
                "Tiers sweep -- {} -- tier + miss-path hits (absorbed reads)".format,
                lambda r: (r.metrics.tier_hits or 0) + (r.metrics.miss_path_hits or 0),
                0,
            ),
        ),
    ),
    "shards": Figure(
        seed=21,
        flags=_SERVING_FLAGS,
        grids=lambda opts: _grouped(
            shards_matrix(**_serving_knobs(opts)),
            lambda spec: f"partition {spec['shards']['partition']}",
        ),
        column=lambda _, spec: int(spec["shards"]["n_shards"]),
        axis="K={0} {1[shards][partition]}",
        tables=(
            _hit_table("Shards sweep -- {}", "shards"),
            Table(
                "Shards sweep -- {} -- request imbalance (max/mean shard load)".format,
                _shard_imbalance,
                2,
            ),
        ),
        row=lambda r: f"{_prefetcher_label(r)} x{r.spec['serve']['n_clients']}",
    ),
}
