"""Scalar (pre-vectorization) reference paths of the query hot path.

The packed R-tree answers region probes with level-synchronous array
passes; this module preserves the original one-node-at-a-time traversal
-- a Python stack with a pair of tiny ``np.any``/``np.all`` reductions
per node -- over the *same* packed levels, and the per-object crossing
extraction that :func:`repro.graph.traversal.region_crossings`
vectorizes.  It exists for two reasons:

* **equivalence guarantees** -- the test suite proves the vectorized
  traversal returns bit-identical page sets, and that full simulations
  over a scalar-path index produce bit-identical metrics; and
* **perf trajectory** -- ``scout-repro bench`` times both paths, so
  every ``BENCH_<rev>.json`` records the measured speedup of the
  vectorized hot path over the pre-change baseline.

Nothing in the production system calls this module; it lives with the
bench that times it and the tests that use it as an oracle.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.geometry.primitives import clip_segment_to_aabb
from repro.graph.traversal import _EPS, Crossing
from repro.index.flat import FlatIndex
from repro.index.rtree import STRTree

__all__ = [
    "ScalarFlatIndex",
    "ScalarSTRTree",
    "pages_for_region_scalar",
    "region_crossings_reference",
]


def pages_for_region_scalar(tree: STRTree, region: AABB) -> np.ndarray:
    """Reference depth-first traversal, one node (and box test) at a time."""
    if not tree._levels:
        if len(tree._leaf_lo) and not (
            np.any(tree._leaf_lo[0] > region.hi) or np.any(tree._leaf_hi[0] < region.lo)
        ):
            return np.array([0], dtype=np.int64)
        return np.empty(0, dtype=np.int64)

    last_level = len(tree._levels) - 1
    result: list[int] = []
    stack: list[tuple[int, int]] = [(0, 0)]  # (level index, node id)
    while stack:
        level_index, node = stack.pop()
        level = tree._levels[level_index]
        if np.any(level.lo[node] > region.hi) or np.any(level.hi[node] < region.lo):
            continue
        children = level.children[level.child_start[node] : level.child_start[node + 1]]
        if level_index == last_level:
            for leaf in children:
                if np.all(tree._leaf_lo[leaf] <= region.hi) and np.all(
                    tree._leaf_hi[leaf] >= region.lo
                ):
                    result.append(int(leaf))
        else:
            stack.extend((level_index + 1, int(child)) for child in children)
    return np.array(sorted(result), dtype=np.int64)


class ScalarSTRTree(STRTree):
    """STR R-tree forced onto the scalar traversal and per-region probes."""

    def pages_for_region(self, region: AABB) -> np.ndarray:
        return pages_for_region_scalar(self, region)

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        return [self.pages_for_region(region) for region in regions]


class ScalarFlatIndex(FlatIndex):
    """FLAT index forced onto the scalar traversal and per-region probes.

    Adjacency preprocessing runs through the (overridden) per-region
    loop as well, so index *build* timings also reflect the pre-change
    baseline.
    """

    def pages_for_region(self, region: AABB) -> np.ndarray:
        return pages_for_region_scalar(self, region)

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        return [self.pages_for_region(region) for region in regions]


def _object_crossings(dataset: Dataset, object_id: int, region: AABB) -> list[Crossing]:
    """Crossings contributed by one object's representative segment."""
    a = dataset.p0[object_id]
    b = dataset.p1[object_id]
    clipped = clip_segment_to_aabb(a, b, region)
    if clipped is None:
        # The object's box intersects the region but its segment does
        # not (thick object near a corner): treat as no crossing.
        return []
    inside_a, inside_b = clipped
    direction = b - a
    norm = np.linalg.norm(direction)
    if norm < _EPS:
        return []
    direction = direction / norm

    crossings = []
    a_clipped = bool(np.linalg.norm(inside_a - a) > _EPS)
    b_clipped = bool(np.linalg.norm(inside_b - b) > _EPS)
    if a_clipped:
        # The segment enters the region at inside_a; travelling from the
        # region outward through that point means going against the
        # segment direction.
        crossings.append(Crossing(int(object_id), inside_a.copy(), -direction))
    if b_clipped:
        crossings.append(Crossing(int(object_id), inside_b.copy(), direction.copy()))
    return crossings


def region_crossings_reference(
    dataset: Dataset,
    object_ids,
    region: AABB,
) -> list[Crossing]:
    """Scalar per-object reference of :func:`repro.graph.traversal.region_crossings`.

    Kept as the equivalence oracle (the vectorized path must match it
    bit for bit) and as the pre-change baseline for ``scout-repro
    bench``'s prediction-cost timings.
    """
    crossings: list[Crossing] = []
    for object_id in np.asarray(object_ids, dtype=np.int64):
        crossings.extend(_object_crossings(dataset, int(object_id), region))
    return crossings
