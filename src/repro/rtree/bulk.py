"""Sort-Tile-Recursive (STR) bulk loading.

STR (Leutenegger et al., ICDE 1997) packs rectangles into leaves by
sorting on the x center, slicing into vertical slabs, sorting each slab on
the y center and tiling; the directory levels are packed recursively the
same way.  A configurable *fill factor* (default 0.7) mimics the average
node utilization of a dynamically built R*-tree, so bulk-loaded experiment
trees have realistic height and node counts.

Chunking is *even*: a slab of ``L`` entries is cut into the number of
nodes closest to ``L / (fill * M)`` that still keeps every node within the
``[min_entries, max_entries]`` fanout bounds, and the entries are spread
evenly over them.  This guarantees bulk-loaded trees satisfy the same
structural invariants as dynamically built ones (``RTree.validate``).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

from repro.geometry.rect import Rect
from repro.rtree.entries import OBJECT_LEVEL, Item
from repro.rtree.node import Node

#: Average utilization of dynamically maintained R*-tree nodes.
DEFAULT_FILL_FACTOR = 0.7


class _TreeLike(Protocol):
    max_entries: int
    min_entries: int

    def _alloc_node(self, level: int) -> Node: ...


def str_pack(
    tree: _TreeLike,
    items: Sequence[tuple[Rect, int]],
    fill_factor: float = DEFAULT_FILL_FACTOR,
) -> Node:
    """Pack ``(rect, object_id)`` items into a tree; returns the root node.

    The caller (``RTree.bulk_load``) wires the returned root into the tree
    facade.  ``items`` must be non-empty.
    """
    if not items:
        raise ValueError("cannot bulk load an empty item sequence")
    if not 0.0 < fill_factor <= 1.0:
        raise ValueError("fill_factor must be in (0, 1]")
    capacity = max(int(tree.max_entries * fill_factor), 2)
    capacity = max(capacity, tree.min_entries)

    entries = [Item(rect, oid, OBJECT_LEVEL) for rect, oid in items]
    level = 0
    nodes = _pack_level(tree, entries, level, capacity)
    while len(nodes) > 1:
        level += 1
        parent_entries = [node.item() for node in nodes]
        nodes = _pack_level(tree, parent_entries, level, capacity)
    return nodes[0]


def even_chunk_sizes(total: int, lo: int, hi: int, target: int) -> list[int]:
    """Split ``total`` into chunks of ~``target``, each within ``[lo, hi]``.

    Picks the chunk count nearest ``total / target`` that keeps every
    chunk size legal, then spreads the remainder one-per-chunk.  When
    ``total < lo`` the only option is a single (underfull) chunk — legal
    only for a root node, which is the caller's concern.
    """
    if total <= 0:
        return []
    q_min = -(-total // hi)  # enough chunks that none exceeds hi
    q_max = max(total // lo, 1)  # few enough that none drops below lo
    q = -(-total // target)
    q = min(max(q, q_min), max(q_max, q_min))
    base, extra = divmod(total, q)
    return [base + 1] * extra + [base] * (q - extra)


def _pack_level(
    tree: _TreeLike, entries: list[Item], level: int, capacity: int
) -> list[Node]:
    """Tile one level's entries into nodes of roughly ``capacity`` entries."""
    lo, hi = tree.min_entries, tree.max_entries
    node_count = len(even_chunk_sizes(len(entries), lo, hi, capacity))
    slab_count = max(int(math.ceil(math.sqrt(node_count))), 1)

    entries = sorted(entries, key=_center_x)
    # Evenly sized vertical slabs (sizes differ by at most one entry).
    slab_sizes = _even_parts(len(entries), slab_count)
    nodes: list[Node] = []
    start = 0
    for slab_size in slab_sizes:
        slab = sorted(entries[start : start + slab_size], key=_center_y)
        start += slab_size
        offset = 0
        for chunk in even_chunk_sizes(len(slab), lo, hi, capacity):
            node = tree._alloc_node(level)
            node.entries = slab[offset : offset + chunk]
            offset += chunk
            nodes.append(node)
    return nodes


def _even_parts(total: int, parts: int) -> list[int]:
    """Sizes of ``parts`` nearly equal slabs covering ``total`` entries."""
    parts = min(parts, total) or 1
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _center_x(entry: Item) -> float:
    return entry.rect.xmin + entry.rect.xmax


def _center_y(entry: Item) -> float:
    return entry.rect.ymin + entry.rect.ymax
