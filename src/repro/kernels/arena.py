"""Flat struct-of-arrays tree arenas shared by every hot path.

PR 7 built this layout for the shared-memory work-stealing engine; the
sequential engines now run over the very same flat buffers (the "flat
hot path"), so the layout, image builder and views live here in
:mod:`repro.kernels` where both sides can import them without touching
any ``multiprocessing`` machinery.  Constructing a plain-buffer
:class:`TreeArena` (``use_shm=False``) imports nothing process-related:
no shared-memory segment, no resource tracker.

Layout (all fields 8 bytes, so one contiguous buffer needs no padding).
Rows are page ids: row ``p`` describes page ``p``, and its entries sit
in the fixed slots ``[p*M, p*M + count)``, where ``M`` is the tree's
``max_entries`` (the layout's slot width).  A node's bytes therefore
never move when another node changes.

- per row: ``lvl`` (0 = leaf), ``lo``/``hi`` (the node's slot range,
  half-open), ``cnt`` (leaf entries under the subtree — the work
  estimator's currency), and the node MBR ``nxmin/nymin/nxmax/nymax``;
- per slot: the entry MBR ``exmin/eymin/exmax/eymax`` and ``eref`` — for
  a directory entry the child's page id, which is its row, for a leaf
  entry the object id.

There is one row per page id the store ever handed out (``id_bound``),
and :class:`TreeLayout` records the root's row and the slot width.  A
free row (a freed page, such as the bootstrap root a bulk load discards)
and every vacated slot are zero, so a free row's range is empty.

Versions: each tree's image is memoized per ``RTree.version``
(:func:`tree_image`).  A tree's first image is a full build.  Every
later version is copy-on-write: the previous image is copied section by
section into a new buffer, and only the rows that writes stamped since
(``RTree.changed_since``) are rewritten, by the same row writer a full
build uses.  A published image is never written, so an arena opened
before a write keeps reading the tree as it was.

Backings: in shm mode :class:`TreeArena` copies both images into one
``multiprocessing.shared_memory`` segment whose name travels to workers
inside a picklable ``ArenaDescriptor`` (:mod:`repro.parallel.shm`);
otherwise its read-only views sit straight on the images.
Either way :class:`SharedTreeView` exposes the same API, with NumPy
views (``np.frombuffer``) when NumPy is importable and
``memoryview.cast`` fallbacks otherwise, so the block kernels evaluate
directly over shared-buffer slices.
"""

from __future__ import annotations

import functools
import os
import secrets
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

#: Prefix of every shared-memory segment this module creates; the CI
#: leak check greps ``/dev/shm`` for it.
SHM_PREFIX = "repro-shm"

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


def _build_image(
    tree: "RTree", previous: "tuple[int, tuple[TreeLayout, bytearray]] | None"
) -> tuple[TreeLayout, bytearray]:
    """The tree's image at its current version.

    With no ``previous`` ``(version, image)`` this is a full build: every
    live page's row, written into a zeroed buffer.  Otherwise the
    previous image is copied into a new buffer (it may sit under open
    arenas, so it is never written) and only the rows stamped after its
    version are rewritten.  Rows only grow: page ids are never reused.
    """
    layout = TreeLayout(
        rows=tree.store.id_bound,
        slots=tree.max_entries,
        root=tree.root_id,
        height=tree.height,
        size=tree.size,
    )
    buf = bytearray(layout.nbytes)
    if previous is None:
        pages = tree.store.page_ids()
    else:
        version, (old, old_buf) = previous
        src = memoryview(old_buf)
        dst = memoryview(buf)
        for (_, _, start, stop), (_, _, at, _) in zip(
            old.sections(), layout.sections()
        ):
            dst[at : at + stop - start] = src[start:stop]
        pages = tree.changed_since(version)
    _write_rows(tree, layout, buf, pages)
    return layout, buf


def _write_rows(tree: "RTree", layout: TreeLayout, buf: bytearray, pages) -> None:
    """Rewrite the rows of ``pages`` from the tree's nodes, then their ``cnt``.

    The one row writer, for full builds and patches alike.  A live
    page's row gets its level, slot range, MBR and entries; a freed
    page's row becomes all zero; either way the slots the row held
    beyond its new count are zeroed.  Directory ``cnt`` follows in
    ascending level, summing children that are either rewritten already
    or unchanged.  That is exact because every ancestor of a changed
    subtree count is stamped too: each write stamps every node on its
    path, whether or not the node's entry in its parent changed.
    """
    m = layout.slots
    sections = list(layout.sections())
    mv = memoryview(buf)
    lvl, lo, hi, cnt, nxmin, nymin, nxmax, nymax = (
        mv[start:stop].cast(code) for _, code, start, stop in sections[:_ROW_FIELDS]
    )
    # exmin, eymin, exmax, eymax, eref: (typecode, byte offset) of each.
    slot_fields = [(code, start) for _, code, start, _ in sections[_ROW_FIELDS:]]
    zeros = bytes(8 * m)
    store = tree.store
    directory: list[tuple[int, int, list[int]]] = []
    for page in pages:
        first = page * m
        held = hi[page] - lo[page]
        if page in store:
            node = store.read(page)
            entries = node.entries
            n = len(entries)
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
            else:
                nxmin[page] = nymin[page] = nxmax[page] = nymax[page] = 0.0
            lvl[page] = node.level
            lo[page] = first
            hi[page] = first + n
            if node.level:
                directory.append((node.level, page, refs))
            else:
                cnt[page] = n
        else:
            n = 0
            lvl[page] = lo[page] = hi[page] = cnt[page] = 0
            nxmin[page] = nymin[page] = nxmax[page] = nymax[page] = 0.0
        if held > n:
            for _, start in slot_fields:
                at = start + 8 * (first + n)
                mv[at : at + 8 * (held - n)] = zeros[: 8 * (held - n)]
    directory.sort(key=lambda row: row[0])
    for _, page, refs in directory:
        cnt[page] = sum(cnt[child] for child in refs)


@functools.lru_cache(maxsize=1024)
def _packer(code: str, n: int) -> struct.Struct:
    """Native-order packer of ``n`` values of one field's typecode."""
    return struct.Struct(f"{n}{code}")


#: tree -> (version, image); weak keys free an image with its tree.
_IMAGES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def tree_image(tree: "RTree") -> tuple[TreeLayout, bytearray]:
    """The tree's flat ``(layout, buffer)`` image, memoized per version.

    The first call builds the image in full; after a write (every write
    bumps ``RTree.version``) the next call patches a copy of the
    previous image (see the module docstring), so a write rebuilds only
    the written tree's image.  Callers must not write to the buffer.
    No lock: racing threads at worst build one version twice.
    """
    hit = _IMAGES.get(tree)
    if hit is not None and hit[0] == tree.version:
        return hit[1]
    image = _build_image(tree, hit)
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

    A tree written since its last arena has its image patched here (see
    :func:`tree_image`); rows are page ids, so callers index a node's
    row by its page id and find the root at ``layout_r.root``.
    ``use_shm=True`` copies the images into one shared-memory segment
    (process workers attach by name); ``use_shm=False`` puts a read-only
    view straight on each image — in-process users (the ``shm-serial``
    drain and the sequential flat hot path) share the views directly,
    and nothing process-related is imported.
    """

    def __init__(self, tree_r: "RTree", tree_s: "RTree", use_shm: bool) -> None:
        layout_r, buf_r = tree_image(tree_r)
        layout_s, buf_s = tree_image(tree_s)
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
