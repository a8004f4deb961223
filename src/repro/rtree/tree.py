"""The R*-tree facade.

``RTree`` owns a :class:`~repro.storage.pages.PageStore`, derives its
fanout from the binary page layout, and exposes:

- ``insert`` — dynamic R* insertion;
- ``bulk_load`` — STR packing (classmethod);
- ``search`` — window queries (used by examples and tests, not by joins);
- ``validate`` — full structural invariant check;
- ``save`` / ``load`` — binary persistence via :mod:`repro.storage.serial`.

Query-time node access during joins goes through :class:`TreeAccessor`,
which routes reads through a metered :class:`~repro.storage.buffer.BufferPool`
so node fetches are counted and charged to the simulated disk.
Construction-time access is direct and free: the paper measures query
processing, not index building.
"""

from __future__ import annotations

import io
import numbers
import struct
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.geometry.rect import Rect
from repro.rtree.bulk import DEFAULT_FILL_FACTOR, str_pack
from repro.rtree.entries import Item
from repro.rtree.node import Node
from repro.rtree.rstar import RStarInserter
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.pages import PageStore
from repro.storage import serial

_FILE_MAGIC = b"RPRT"
# magic, page_size, max_entries, root_id, page count, object count
_FILE_HEADER = struct.Struct("<4siiiii")

#: R*-tree minimum fill, as a fraction of the maximum fanout.
MIN_FILL_RATIO = 0.4


def check_k(k: object) -> None:
    """Raise ``ValueError`` unless ``k`` is a positive integer.

    The public k-queries (``RTree.nearest``, ``JoinRunner.kdj``,
    ``parallel_kdj``, ``k_self_distance_join``) call this first: a
    fractional or NaN ``k`` would otherwise be read differently by each
    engine.
    ``numbers.Integral`` admits NumPy integers; ``bool`` is rejected.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k <= 0:
        raise ValueError(f"k must be a positive integer, got {k!r}")


class RTree:
    """A two-dimensional R*-tree over page-sized nodes.

    Parameters
    ----------
    page_size:
        Node/page size in bytes; the paper uses 4 KB.  Determines fanout.
    max_entries:
        Override the fanout directly (mainly for tests that want small
        nodes); by default it is derived from ``page_size``.
    """

    def __init__(self, page_size: int = 4096, max_entries: int | None = None) -> None:
        self.page_size = page_size
        self.max_entries = max_entries or serial.max_entries_per_page(page_size)
        if self.max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.min_entries = max(int(self.max_entries * MIN_FILL_RATIO), 1)
        self.store = PageStore()
        root = self._alloc_node(level=0)
        self.root_id = root.page_id
        self.size = 0
        #: Mutation counter, bumped by every insert/delete: the memoized
        #: flat image is patched and open incremental streams go stale.
        self.version = 0
        #: page id -> version of the write that last changed, allocated or
        #: freed that page (see :meth:`_touch`); the flat image rewrites
        #: only the rows stamped after its previous version.
        self._stamps: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, oid: int) -> None:
        """Insert one data rectangle with object id ``oid``."""
        RStarInserter(self).insert(rect, oid)
        self.size += 1
        self.version += 1

    def insert_all(self, items: Iterable[tuple[Rect, int]]) -> None:
        """Insert many ``(rect, oid)`` items one by one."""
        inserter = RStarInserter(self)
        for rect, oid in items:
            inserter.insert(rect, oid)
            self.size += 1
            self.version += 1

    def delete(self, rect: Rect, oid: int) -> bool:
        """Remove the data entry ``(rect, oid)``; True when it existed.

        Guttman deletion with CondenseTree: underfull nodes dissolve and
        their entries are reinserted (see :mod:`repro.rtree.deletion`).
        """
        from repro.rtree.deletion import delete as _delete

        if _delete(self, rect, oid):
            self.size -= 1
            self.version += 1
            return True
        return False

    @classmethod
    def bulk_load(
        cls,
        items: Sequence[tuple[Rect, int]],
        page_size: int = 4096,
        max_entries: int | None = None,
        fill_factor: float = DEFAULT_FILL_FACTOR,
    ) -> "RTree":
        """Build a tree by STR packing (fast, realistic fill factor)."""
        tree = cls(page_size=page_size, max_entries=max_entries)
        if items:
            tree.store.free(tree.root_id)  # discard the empty bootstrap root
            root = str_pack(tree, items, fill_factor)
            tree.root_id = root.page_id
            tree.size = len(items)
        return tree

    # ------------------------------------------------------------------
    # Node management (used by the insertion/bulk-load machinery)
    # ------------------------------------------------------------------

    def _alloc_node(self, level: int) -> Node:
        node = Node(page_id=-1, level=level)
        page_id = self.store.allocate(node)
        node.page_id = page_id
        return node

    def _get_node(self, page_id: int) -> Node:
        return self.store.read(page_id)

    def _touch(self, page_id: int) -> None:
        """Stamp a page the running write changes, allocates or frees.

        The stamp is the version the write will publish.  Every write
        path stamps through here (R* insert paths and splits, deletion
        paths, root growth and shrinking); bulk loads and file loads
        stamp nothing, because a new tree's first image is a full build.
        """
        self._stamps[page_id] = self.version + 1

    def changed_since(self, version: int) -> list[int]:
        """Page ids some write after ``version`` changed, allocated or freed."""
        return [page for page, stamp in self._stamps.items() if stamp > version]

    def _grow_root(self, first: Item, second: Item) -> None:
        new_root = self._alloc_node(first.level + 1)
        self._touch(new_root.page_id)
        new_root.add(first)
        new_root.add(second)
        self.root_id = new_root.page_id

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------

    @property
    def root(self) -> Node:
        return self._get_node(self.root_id)

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        return self.root.level + 1

    def node_count(self) -> int:
        """Total number of nodes (internal and leaf)."""
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[Node]:
        """Depth-first iteration over every node."""
        stack = [self.root_id]
        while stack:
            node = self._get_node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(entry.ref for entry in node.entries)

    def iter_leaf_entries(self) -> Iterator[Item]:
        """Every data entry, in no particular order."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.entries

    def bounds(self) -> Rect:
        """MBR of the whole dataset."""
        return self.root.mbr()

    # ------------------------------------------------------------------
    # Queries (non-join; joins use TreeAccessor)
    # ------------------------------------------------------------------

    def search(self, window: Rect) -> list[int]:
        """Object ids whose MBRs intersect ``window``."""
        result: list[int] = []
        if self.size == 0:
            return result
        stack = [self.root_id]
        while stack:
            node = self._get_node(stack.pop())
            for entry in node.entries:
                if entry.rect.intersects(window):
                    if node.is_leaf:
                        result.append(entry.ref)
                    else:
                        stack.append(entry.ref)
        return result

    def count_in(self, window: Rect) -> int:
        """Number of objects intersecting ``window``."""
        return len(self.search(window))

    def nearest(self, x: float, y: float, k: int = 1) -> list[tuple[float, int]]:
        """The k nearest objects to point ``(x, y)``.

        Classic best-first traversal (Hjaltason & Samet's ranking,
        the single-tree special case of the distance join): a min-heap
        of nodes and objects keyed by minimum distance to the query
        point.  Returns ``(distance, object_id)`` pairs in increasing
        distance order; fewer than k only when the tree is smaller.
        """
        check_k(k)
        if self.size == 0:
            return []
        from repro.queues.binary_heap import MinHeap

        point = Rect.from_point(x, y)
        heap: MinHeap[float] = MinHeap()
        heap.push(0.0, ("node", self.root_id))
        results: list[tuple[float, int]] = []
        while heap and len(results) < k:
            distance, (kind, ref) = heap.pop()
            if kind == "object":
                results.append((distance, ref))
                continue
            node = self._get_node(ref)
            child_kind = "object" if node.is_leaf else "node"
            for entry in node.entries:
                heap.push(entry.rect.min_dist(point), (child_kind, entry.ref))
        return results

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raises ``AssertionError``.

        Checks: tight directory entries (each equals its child's MBR,
        which gives Lemma 1's containment and catches a stale, too-large
        entry), level consistency (every entry one level below its node,
        every child at its entry's level), fanout bounds (except the
        root), and that the number of reachable data entries equals
        ``size``.  The checks are explicit raises, not ``assert``
        statements, so they run under ``python -O`` too.
        """
        if self.size == 0:
            if len(self.root.entries) != 0:
                raise AssertionError("empty tree with a non-empty root")
            return
        data_entries = 0
        stack: list[tuple[int, Rect | None, int]] = [(self.root_id, None, -1)]
        while stack:
            page_id, parent_rect, expected_level = stack.pop()
            node = self._get_node(page_id)
            if expected_level >= 0 and node.level != expected_level:
                raise AssertionError(
                    f"node {page_id}: level {node.level} != expected {expected_level}"
                )
            for entry in node.entries:
                if entry.level != node.level - 1:
                    raise AssertionError(
                        f"node {page_id}: entry {entry.ref} at level "
                        f"{entry.level}, expected {node.level - 1}"
                    )
            if not node.entries:
                raise AssertionError(f"node {page_id} is empty")
            if page_id != self.root_id and len(node.entries) < self.min_entries:
                raise AssertionError(
                    f"node {page_id}: underfull ({len(node.entries)} entries)"
                )
            if len(node.entries) > self.max_entries:
                raise AssertionError(
                    f"node {page_id}: overfull ({len(node.entries)} entries)"
                )
            if parent_rect is not None and parent_rect != node.mbr():
                raise AssertionError(
                    f"node {page_id}: MBR {node.mbr()} != parent entry {parent_rect}"
                )
            if node.is_leaf:
                data_entries += len(node.entries)
            else:
                for entry in node.entries:
                    stack.append((entry.ref, entry.rect, entry.level))
        if data_entries != self.size:
            raise AssertionError(
                f"reachable data entries {data_entries} != size {self.size}"
            )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the tree to a binary file of page images."""
        page_ids = sorted(self.store.page_ids())
        id_map = {pid: i for i, pid in enumerate(page_ids)}
        with open(path, "wb") as f:
            f.write(
                _FILE_HEADER.pack(
                    _FILE_MAGIC,
                    self.page_size,
                    self.max_entries,
                    id_map[self.root_id],
                    len(page_ids),
                    self.size,
                )
            )
            for pid in page_ids:
                node = self._get_node(pid)
                records = []
                for entry in node.entries:
                    ref = entry.ref if node.is_leaf else id_map[entry.ref]
                    r = entry.rect
                    records.append((r.xmin, r.ymin, r.xmax, r.ymax, ref))
                f.write(serial.pack_node(node.level, records, self.page_size))

    @classmethod
    def load(cls, path: str | Path) -> "RTree":
        """Read a tree previously written by :meth:`save`."""
        with open(path, "rb") as f:
            header = f.read(_FILE_HEADER.size)
            (magic, page_size, max_entries, root_id, page_count, size
             ) = _FILE_HEADER.unpack(header)
            if magic != _FILE_MAGIC:
                raise ValueError(f"{path} is not an R-tree file")
            tree = cls(page_size=page_size, max_entries=max_entries)
            tree.store = PageStore()
            for expected_id in range(page_count):
                page = f.read(page_size)
                if len(page) != page_size:
                    raise ValueError(f"{path} is truncated at page {expected_id}")
                allocated = tree.store.allocate(Node.decode(expected_id, page))
                assert allocated == expected_id
            tree.root_id = root_id
            tree.size = size
            return tree


class TreeAccessor:
    """Metered, buffered node access for query processing.

    Join engines fetch nodes exclusively through this wrapper so that
    every access is counted (Table 2) and misses are charged to the
    simulated disk.
    """

    def __init__(self, tree: RTree, disk: SimulatedDisk, buffer_bytes: int) -> None:
        self.tree = tree
        self.buffer = BufferPool(tree.store, disk, buffer_bytes)

    def get(self, page_id: int) -> Node:
        """Fetch a node, counting the access."""
        return self.buffer.get(page_id)

    @property
    def root(self) -> Node:
        return self.get(self.tree.root_id)

    @property
    def logical_accesses(self) -> int:
        return self.buffer.stats.logical_accesses

    @property
    def physical_reads(self) -> int:
        return self.buffer.stats.physical_reads
