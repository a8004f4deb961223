"""Per-node blocks of both trees for the parallel engine.

The parallel engine expands node pairs with the block kernels, one
node's entries at a time, as HS expands a node against its child list.
A tree version's parallel view is one immutable :class:`NodeBlock` per
live page, built from ``Node.entries``: the node's level and MBR, its
entries' coordinates packed as four coordinate columns, their refs and
the subtree's object count.  It lives here in :mod:`repro.kernels`,
next to the kernels that read it; nothing here imports anything
process-related.  The sequential engines read ``Node.entries`` itself.

Versions: each tree's blocks are memoized per ``RTree.version``, and
every version's blocks are a full build.  A published block is never
written, so an arena opened before a write keeps reading the tree as it
was.  Blocks cover the live pages only: a freed page id is no key, and
looking it up raises ``KeyError``.

:class:`TreeArena` opens both trees' blocks for one join.  The engine's
forked workers inherit the arena and read the same memory pages;
nothing is copied or pickled.
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING, NamedTuple

from repro.geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtree.tree import RTree

try:
    from repro.kernels.numpy_backend import PackedRects
except ImportError:  # the pure-Python kernels read plain columns
    PackedRects = None


class Columns(NamedTuple):
    """A block's entry coordinates without NumPy: four float tuples."""

    xmin: tuple[float, ...]
    ymin: tuple[float, ...]
    xmax: tuple[float, ...]
    ymax: tuple[float, ...]


class NodeBlock(NamedTuple):
    """One live page of a tree version, as the block kernels read it.

    ``rects`` holds the entries' coordinates (a read-only
    :class:`~repro.kernels.numpy_backend.PackedRects` where NumPy
    imports, else :class:`Columns`) and ``refs`` their child page ids or
    object ids, in entry order, as a read-only int64 ``memoryview``.
    ``mbr`` holds ``Node.mbr()``'s floats (``None`` for an empty root),
    and ``count`` the objects under the node, the work estimator's
    currency.

    A forked worker writes the reference count of every object it reads,
    which copies the memory page the object sits on.  So a block holds
    copies made with it, not the entries' own floats and ints, which lie
    scattered over the tree's pages: reading a ref makes a new int, and
    the MBR's and columns' floats sit with the blocks.  On TIGER
    60,000x20,000 at two workers that cuts a stage's minor page faults
    in the workers from about 6,200 (the entries' own objects) to 2,500.
    """

    level: int
    mbr: Rect | None
    rects: "PackedRects | Columns"
    refs: memoryview
    count: int


def _floats(values) -> tuple[float, ...]:
    """Copies of ``values``, made together (see :class:`NodeBlock`)."""
    return tuple(array("d", values))


def _pack(columns: tuple[list[float], ...]):
    """The entries' coordinate columns, as the kernels backend reads them."""
    if PackedRects is None:
        return Columns(*map(_floats, columns))
    return PackedRects(*columns)


def _build_blocks(tree: "RTree") -> tuple[int, dict[int, NodeBlock]]:
    """The root's page id and every live page's block, at the tree's
    current version."""
    store = tree.store
    nodes = sorted(
        ((page, store.read(page)) for page in store.page_ids()),
        key=lambda item: item[1].level,
    )
    blocks: dict[int, NodeBlock] = {}
    # Ascending level: every child's count is known before its parent's.
    for page, node in nodes:
        entries = node.entries
        refs = memoryview(array("q", [entry.ref for entry in entries])).toreadonly()
        rects = [entry.rect for entry in entries]
        columns = (
            [r.xmin for r in rects],
            [r.ymin for r in rects],
            [r.xmax for r in rects],
            [r.ymax for r in rects],
        )
        mbr = None
        if entries:
            # min and max keep the first extreme, as Node.mbr() does.
            xmin, ymin, xmax, ymax = columns
            mbr = Rect(*_floats((min(xmin), min(ymin), max(xmax), max(ymax))))
        blocks[page] = NodeBlock(
            node.level,
            mbr,
            _pack(columns),
            refs,
            sum(blocks[ref].count for ref in refs) if node.level else len(refs),
        )
    return tree.root_id, blocks


#: tree -> (version, (root, blocks)); weak keys free the blocks with
#: their tree.
_BLOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _tree_blocks(tree: "RTree") -> tuple[int, dict[int, NodeBlock]]:
    """The tree's root and blocks, memoized per ``RTree.version``.

    Every write bumps the version, so the first call after a write
    builds the written tree's blocks in full; an unwritten tree's are
    reused.  No lock: racing threads at worst build one version twice.
    """
    hit = _BLOCKS.get(tree)
    if hit is not None and hit[0] == tree.version:
        return hit[1]
    built = _build_blocks(tree)
    _BLOCKS[tree] = (tree.version, built)
    return built


class TreeArena:
    """Both trees' node blocks for one parallel join.

    ``blocks_r``/``blocks_s`` map the live page ids of the versions the
    arena was opened on to their blocks, and ``root_r``/``root_s`` are
    the roots' page ids.  A tree written since its last arena has its
    blocks built here.  The blocks are read-only: other arenas, and the
    engine's forked workers, read the same ones.
    """

    def __init__(self, tree_r: "RTree", tree_s: "RTree") -> None:
        self.root_r, self.blocks_r = _tree_blocks(tree_r)
        self.root_s, self.blocks_s = _tree_blocks(tree_s)
