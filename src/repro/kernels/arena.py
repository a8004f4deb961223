"""Flat struct-of-arrays tree images for the parallel engine.

The layout is the parallel engine's.  It lives here in
:mod:`repro.kernels`, next to the block kernels that read it; nothing
here imports anything process-related.  The sequential engines never
read an image; they read nodes through ``Node.entries``.

Layout (all fields 8 bytes, so one contiguous buffer needs no padding).
Rows are page ids: row ``p`` describes page ``p``, and its entries sit
in the fixed slots ``[p*M, p*M + count)``, where ``M`` is the tree's
``max_entries`` (the layout's slot width).

- per row: ``lvl`` (0 = leaf), ``lo``/``hi`` (the node's slot range,
  half-open), ``cnt`` (leaf entries under the subtree — the work
  estimator's currency), and the node MBR ``nxmin/nymin/nxmax/nymax``;
- per slot: the entry MBR ``exmin/eymin/exmax/eymax`` and ``eref`` — for
  a directory entry the child's page id, which is its row, for a leaf
  entry the object id.

There is one row per page id the store ever handed out (``id_bound``),
and :class:`TreeLayout` records the root's row and the slot width.  A
free row (a freed page, such as the bootstrap root a bulk load discards)
and every unused slot are zero, so a free row's range is empty.

Versions: each tree's image is memoized per ``RTree.version``
(:func:`tree_image`), and every version's image is a full build into a
new buffer.  A published image is never written, so an arena opened
before a write keeps reading the tree as it was.

Backing: :class:`TreeArena` puts a read-only view straight on each
image.  The engine's forked workers inherit the arena and read the
same memory pages; nothing is copied.  :class:`SharedTreeView` reads
through NumPy views (``np.frombuffer``) when NumPy is importable and
``memoryview.cast`` fallbacks otherwise, so the block kernels evaluate
directly over buffer slices.
"""

from __future__ import annotations

import functools
import struct
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

#: Buffer field order: (name, kind) with kind "qn"/"dn" per row and
#: "qe"/"de" per entry slot ("q" = int64, "d" = float64).
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

_ROW_FIELDS = sum(1 for _, kind in _FIELDS if kind[1] == "n")
_SLOT_FIELDS = len(_FIELDS) - _ROW_FIELDS


@dataclass(frozen=True, slots=True)
class TreeLayout:
    """Shape of one tree image: enough to rebuild every view.

    ``rows`` is the store's page-id bound and ``slots`` the entry slots
    per row (``max_entries``); ``root`` is the root's row.
    """

    rows: int
    slots: int
    root: int
    height: int
    size: int

    @property
    def nbytes(self) -> int:
        return 8 * self.rows * (_ROW_FIELDS + _SLOT_FIELDS * self.slots)

    def sections(self):
        """``(name, typecode, start, stop)``: each field's byte range."""
        pos = 0
        for name, kind in _FIELDS:
            stop = pos + 8 * self.rows * (1 if kind[1] == "n" else self.slots)
            yield name, kind[0], pos, stop
            pos = stop


def _build_image(tree: "RTree") -> tuple[TreeLayout, bytearray]:
    """The tree's image at its current version: every live page's row,
    written into a zeroed buffer, then each directory row's ``cnt``."""
    layout = TreeLayout(
        rows=tree.store.id_bound,
        slots=tree.max_entries,
        root=tree.root_id,
        height=tree.height,
        size=tree.size,
    )
    buf = bytearray(layout.nbytes)
    m = layout.slots
    sections = list(layout.sections())
    mv = memoryview(buf)
    lvl, lo, hi, cnt, nxmin, nymin, nxmax, nymax = (
        mv[start:stop].cast(code) for _, code, start, stop in sections[:_ROW_FIELDS]
    )
    # exmin, eymin, exmax, eymax, eref: (typecode, byte offset) of each.
    slot_fields = [(code, start) for _, code, start, _ in sections[_ROW_FIELDS:]]
    store = tree.store
    directory: list[tuple[int, int, list[int]]] = []
    for page in store.page_ids():
        node = store.read(page)
        entries = node.entries
        n = len(entries)
        first = page * m
        rects = [entry.rect for entry in entries]
        refs = [entry.ref for entry in entries]
        xmins = [r.xmin for r in rects]
        ymins = [r.ymin for r in rects]
        xmaxs = [r.xmax for r in rects]
        ymaxs = [r.ymax for r in rects]
        if n:
            for (code, start), column in zip(
                slot_fields, (xmins, ymins, xmaxs, ymaxs, refs)
            ):
                _packer(code, n).pack_into(buf, start + 8 * first, *column)
            # min/max keep the first extreme, as Node.mbr() does.
            nxmin[page], nymin[page] = min(xmins), min(ymins)
            nxmax[page], nymax[page] = max(xmaxs), max(ymaxs)
        lvl[page] = node.level
        lo[page] = first
        hi[page] = first + n
        if node.level:
            directory.append((node.level, page, refs))
        else:
            cnt[page] = n
    # Ascending level: every child's count is written before its parent's.
    directory.sort(key=lambda row: row[0])
    for _, page, refs in directory:
        cnt[page] = sum(cnt[child] for child in refs)
    return layout, buf


@functools.lru_cache(maxsize=1024)
def _packer(code: str, n: int) -> struct.Struct:
    """Native-order packer of ``n`` values of one field's typecode."""
    return struct.Struct(f"{n}{code}")


#: tree -> (version, image); weak keys free an image with its tree.
_IMAGES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def tree_image(tree: "RTree") -> tuple[TreeLayout, bytearray]:
    """The tree's flat ``(layout, buffer)`` image, memoized per version.

    Every write bumps ``RTree.version``, so the first call after a write
    builds the written tree's image in full; an unwritten tree's image
    is reused.  Callers must not write to the buffer.  No lock: racing
    threads at worst build one version twice.
    """
    hit = _IMAGES.get(tree)
    if hit is not None and hit[0] == tree.version:
        return hit[1]
    image = _build_image(tree)
    _IMAGES[tree] = (tree.version, image)
    return image


class SharedTreeView:
    """Read-only struct-of-arrays view of one tree image.

    Attribute arrays are NumPy views over the backing buffer when NumPy
    is importable (zero-copy, sliced into coordinate blocks), else
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
        for name, code, start, stop in layout.sections():
            window = self._mv[start:stop]
            if _np is not None:
                dtype = _np.int64 if code == "q" else _np.float64
                setattr(self, name, _np.frombuffer(window, dtype=dtype))
            else:
                setattr(self, name, window.cast(code))
        # Coordinate blocks the kernels slice per expansion — built once
        # per view, never per expansion.
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
        """Drop every array over the image, then the view itself."""
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


class TreeArena:
    """Both trees' flat views for one parallel join, over their memoized images.

    A tree written since its last arena has its image rebuilt here (see
    :func:`tree_image`); rows are page ids, so callers index a node's
    row by its page id and find the root at ``layout_r.root``.  The
    views are read-only: other arenas, and the engine's forked workers,
    read the same images.
    """

    def __init__(self, tree_r: "RTree", tree_s: "RTree") -> None:
        layout_r, buf_r = tree_image(tree_r)
        layout_s, buf_s = tree_image(tree_s)
        self.layout_r = layout_r
        self.layout_s = layout_s
        self.view_r = SharedTreeView(layout_r, memoryview(buf_r).toreadonly())
        self.view_s = SharedTreeView(layout_s, memoryview(buf_s).toreadonly())

    def close(self) -> None:
        """Release the views.  Idempotent; the images stay."""
        try:
            self.view_r.release()
            self.view_s.release()
        except BufferError:  # pragma: no cover - exported views still alive
            pass

    def __enter__(self) -> "TreeArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
