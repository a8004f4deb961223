"""Flat struct-of-arrays tree arenas shared by every hot path.

PR 7 built this layout for the shared-memory work-stealing engine; the
sequential engines now run over the very same flat buffers (the "flat
hot path"), so the layout, serializer and views live here in
:mod:`repro.kernels` where both sides can import them without touching
any ``multiprocessing`` machinery.  Constructing a plain-buffer
:class:`TreeArena` (``use_shm=False``) imports nothing process-related:
no shared-memory segment, no resource tracker.

Layout (all fields 8 bytes, so one contiguous buffer needs no padding):

- per node: ``lvl`` (0 = leaf), ``lo``/``hi`` (the node's entry range,
  half-open), ``cnt`` (leaf entries under the subtree — the work
  estimator's currency), and the node MBR ``nxmin/nymin/nxmax/nymax``;
- per entry: the entry MBR ``exmin/eymin/exmax/eymax`` and ``eref`` —
  for a directory entry the *flat index* of the child node (page ids
  are remapped at serialization time), for a leaf entry the object id.

Nodes are stored in BFS order, so the root is node 0 and every child
index is greater than its parent's — subtree counts are computed by one
reverse pass.

Backings: each tree's image is memoized per ``RTree.version``
(:func:`tree_image`), so a write re-serializes only the tree it changed,
and an image is never written after serialization.  In shm mode
:class:`TreeArena` copies both images into one
``multiprocessing.shared_memory`` segment whose name travels to workers
inside a picklable ``ArenaDescriptor`` (:mod:`repro.parallel.shm`);
otherwise its read-only views sit straight on the images.
Either way :class:`SharedTreeView` exposes the same API, with NumPy
views (``np.frombuffer``) when NumPy is importable and
``memoryview.cast`` fallbacks otherwise, so the PR 5 ``PackedRects``
kernels evaluate directly over shared-buffer slices.
"""

from __future__ import annotations

import os
import secrets
import weakref
from typing import TYPE_CHECKING
from dataclasses import dataclass

from repro.geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtree.tree import RTree

try:  # pragma: no cover - the image ships numpy; the fallback is for parity
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Prefix of every shared-memory segment this module creates; the CI
#: leak check greps ``/dev/shm`` for it.
SHM_PREFIX = "repro-shm"

#: Buffer field order: (name, kind) with kind "qn"/"dn" per node and
#: "qe"/"de" per entry ("q" = int64, "d" = float64).
_FIELDS = (
    ("lvl", "qn"),
    ("lo", "qn"),
    ("hi", "qn"),
    ("cnt", "qn"),
    ("nxmin", "dn"),
    ("nymin", "dn"),
    ("nxmax", "dn"),
    ("nymax", "dn"),
    ("exmin", "de"),
    ("eymin", "de"),
    ("exmax", "de"),
    ("eymax", "de"),
    ("eref", "qe"),
)


@dataclass(frozen=True, slots=True)
class TreeLayout:
    """Shape of one serialized tree: enough to rebuild every view."""

    n_nodes: int
    n_entries: int
    height: int
    size: int

    @property
    def nbytes(self) -> int:
        per_node = sum(8 for _, kind in _FIELDS if kind[1] == "n")
        per_entry = sum(8 for _, kind in _FIELDS if kind[1] == "e")
        return self.n_nodes * per_node + self.n_entries * per_entry


def serialize_tree_indexed(
    tree: "RTree",
) -> tuple[TreeLayout, bytearray, dict[int, int]]:
    """Flatten a tree into the struct-of-arrays buffer described above.

    Also returns the page-id → flat-index map: the flat hot path's key
    from ``Item.ref`` (a page id) to the arena node whose entry window
    holds that node's children.
    """
    import array

    nodes = []
    index_of: dict[int, int] = {}
    pending = [tree.root_id]
    while pending:
        nxt: list[int] = []
        for page_id in pending:
            node = tree._get_node(page_id)
            index_of[page_id] = len(nodes)
            nodes.append(node)
            if not node.is_leaf:
                nxt.extend(entry.ref for entry in node.entries)
        pending = nxt

    n = len(nodes)
    lvl = array.array("q", bytes(8 * n))
    lo = array.array("q", bytes(8 * n))
    hi = array.array("q", bytes(8 * n))
    cnt = array.array("q", bytes(8 * n))
    nxmin = array.array("d", bytes(8 * n))
    nymin = array.array("d", bytes(8 * n))
    nxmax = array.array("d", bytes(8 * n))
    nymax = array.array("d", bytes(8 * n))
    exmin = array.array("d")
    eymin = array.array("d")
    exmax = array.array("d")
    eymax = array.array("d")
    eref = array.array("q")

    offset = 0
    for i, node in enumerate(nodes):
        lvl[i] = node.level
        lo[i] = offset
        hi[i] = offset + len(node.entries)
        offset = hi[i]
        if node.entries:
            mbr = node.mbr()
            nxmin[i], nymin[i] = mbr.xmin, mbr.ymin
            nxmax[i], nymax[i] = mbr.xmax, mbr.ymax
        for entry in node.entries:
            rect = entry.rect
            exmin.append(rect.xmin)
            eymin.append(rect.ymin)
            exmax.append(rect.xmax)
            eymax.append(rect.ymax)
            eref.append(
                entry.ref if node.is_leaf else index_of[entry.ref]
            )

    # BFS order puts children after parents: one reverse pass fills the
    # subtree leaf-entry counts the work estimator splits tasks by.
    for i in range(n - 1, -1, -1):
        if lvl[i] == 0:
            cnt[i] = hi[i] - lo[i]
        else:
            cnt[i] = sum(cnt[eref[j]] for j in range(lo[i], hi[i]))

    layout = TreeLayout(
        n_nodes=n, n_entries=offset, height=tree.height, size=tree.size
    )
    buf = bytearray(layout.nbytes)
    pos = 0
    for name, _ in _FIELDS:
        arr = locals()[name]
        raw = arr.tobytes()
        buf[pos : pos + len(raw)] = raw
        pos += len(raw)
    assert pos == layout.nbytes
    return layout, buf, index_of


def per_version(memo: "weakref.WeakKeyDictionary", tree: "RTree", build):
    """``build(tree)``, memoized in ``memo`` per tree and ``RTree.version``.

    ``memo`` maps tree -> (version, value).  Every write bumps the
    version, so a write rebuilds only the written tree's value, and weak
    keys free a value with its tree.  No lock: racing threads at worst
    build one version twice.
    """
    hit = memo.get(tree)
    if hit is not None and hit[0] == tree.version:
        return hit[1]
    value = build(tree)
    memo[tree] = (tree.version, value)
    return value


#: tree -> (version, image), see :func:`per_version`.
_IMAGES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def tree_image(tree: "RTree") -> tuple[TreeLayout, bytearray, dict[int, int]]:
    """The tree's :func:`serialize_tree_indexed` image, memoized per version."""
    return per_version(_IMAGES, tree, serialize_tree_indexed)


class SharedTreeView:
    """Read-only struct-of-arrays view of one serialized tree.

    Attribute arrays are NumPy views over the backing buffer when NumPy
    is importable (zero-copy, sliceable into ``PackedRects``), else
    ``memoryview.cast`` windows — same indexing, no dependency.
    """

    __slots__ = (
        "layout", "lvl", "lo", "hi", "cnt",
        "nxmin", "nymin", "nxmax", "nymax",
        "exmin", "eymin", "exmax", "eymax", "eref",
        "_mv", "entries", "node_rects",
    )

    def __init__(self, layout: TreeLayout, buf) -> None:
        self.layout = layout
        self._mv = memoryview(buf)
        pos = 0
        for name, kind in _FIELDS:
            count = layout.n_nodes if kind[1] == "n" else layout.n_entries
            nbytes = 8 * count
            window = self._mv[pos : pos + nbytes]
            pos += nbytes
            if _np is not None:
                dtype = _np.int64 if kind[0] == "q" else _np.float64
                setattr(self, name, _np.frombuffer(window, dtype=dtype))
            else:
                setattr(self, name, window.cast(kind[0]))
        # Coordinate blocks the kernels slice per expansion — built once
        # per view, never per expansion (the tentpole's zero-copy claim).
        self.entries = _CoordBlock(self.exmin, self.eymin, self.exmax, self.eymax)
        self.node_rects = _CoordBlock(self.nxmin, self.nymin, self.nxmax, self.nymax)

    # -- node accessors -------------------------------------------------

    def is_leaf(self, node: int) -> bool:
        return self.lvl[node] == 0

    def span(self, node: int) -> tuple[int, int]:
        """The node's half-open entry range ``[lo, hi)``."""
        return int(self.lo[node]), int(self.hi[node])

    def node_rect(self, node: int) -> Rect:
        return Rect(
            float(self.nxmin[node]),
            float(self.nymin[node]),
            float(self.nxmax[node]),
            float(self.nymax[node]),
        )

    def entry_rect(self, index: int) -> Rect:
        return Rect(
            float(self.exmin[index]),
            float(self.eymin[index]),
            float(self.exmax[index]),
            float(self.eymax[index]),
        )

    def release(self) -> None:
        """Drop every exported buffer so the backing can be closed."""
        for name, _ in _FIELDS:
            setattr(self, name, None)
        self.entries = None
        self.node_rects = None
        self._mv.release()


class _CoordBlock:
    """Struct-of-arrays coordinate block with zero-copy slicing.

    Duck-compatible with :class:`repro.kernels.numpy_backend.PackedRects`
    (the NumPy kernels only touch the four arrays), and indexable for
    the pure-Python kernels.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin, ymin, xmax, ymax) -> None:
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    def slice(self, lo: int, hi: int) -> "_CoordBlock":
        return _CoordBlock(
            self.xmin[lo:hi], self.ymin[lo:hi], self.xmax[lo:hi], self.ymax[lo:hi]
        )

    def __len__(self) -> int:
        return len(self.xmin)


def _segment_name() -> str:
    return f"{SHM_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


class TreeArena:
    """Both trees' flat views for one join run, over their memoized images.

    Only a tree written since its last arena is serialized here.
    ``use_shm=True`` copies the images into one shared-memory segment
    (process workers attach by name); ``use_shm=False`` puts a read-only
    view straight on each image — in-process users (thread/serial
    parallel workers and the sequential flat hot path) share the views
    directly, and nothing process-related is imported.
    """

    def __init__(self, tree_r: "RTree", tree_s: "RTree", use_shm: bool) -> None:
        #: ``index_r``/``index_s``: page id -> flat node index, one map per
        #: side (the sequential flat hot path translates ``Item.ref``).
        layout_r, buf_r, self.index_r = tree_image(tree_r)
        layout_s, buf_s, self.index_s = tree_image(tree_s)
        self.layout_r = layout_r
        self.layout_s = layout_s
        self._shm = None
        self._closed = False
        if use_shm:
            from multiprocessing import shared_memory

            total = layout_r.nbytes + layout_s.nbytes
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(total, 1), name=_segment_name()
            )
            backing = self._shm.buf
            backing[: layout_r.nbytes] = buf_r
            backing[layout_r.nbytes : total] = buf_s
            buf_r = backing[: layout_r.nbytes]
            buf_s = backing[layout_r.nbytes : total]
        else:
            # Other arenas share these images: guard them against writes.
            buf_r = memoryview(buf_r).toreadonly()
            buf_s = memoryview(buf_s).toreadonly()
        self.view_r = SharedTreeView(layout_r, buf_r)
        self.view_s = SharedTreeView(layout_s, buf_s)

    @property
    def segment(self) -> str | None:
        return self._shm.name if self._shm is not None else None

    def descriptor(self):
        """Attach ticket for process workers (``None`` for local backing)."""
        if self._shm is None:
            return None
        # Imported lazily: plain-buffer arenas must never drag in the
        # multiprocessing resource-tracker machinery.
        from repro.parallel.shm import ArenaDescriptor, _tracker_pid

        return ArenaDescriptor(
            self._shm.name, self.layout_r, self.layout_s, _tracker_pid()
        )

    def close(self) -> None:
        """Release views and (for shm) close + unlink.  Idempotent.

        Called from the engine's ``finally``, so it runs on success, on
        typed errors, on deadline expiry and after injected worker
        kills; unlink is what keeps ``/dev/shm`` clean.  The images stay.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.view_r.release()
            self.view_s.release()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "TreeArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
