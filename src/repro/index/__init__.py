"""Spatial indexes.

SCOUT is index-agnostic (§4: "Any spatial index can be used as long as
it can execute spatial range queries").  The baseline configuration in
the paper couples SCOUT with an STR bulk-loaded R-tree; SCOUT-OPT
requires an index with neighborhood information and ordered retrieval,
for which the authors use their FLAT index.  Both are implemented here
over the same simulated page layer, plus a uniform grid index used by
the Layered and Hilbert prefetching baselines.
"""

from repro.index.base import QueryResult, SpatialIndex
from repro.index.rtree import STRTree
from repro.index.flat import FlatIndex
from repro.index.gridindex import GridIndex

__all__ = [
    "FlatIndex",
    "GridIndex",
    "QueryResult",
    "STRTree",
    "SpatialIndex",
]
