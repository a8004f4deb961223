"""File-backed, read-only R-tree.

``RTree.save`` writes the index as a flat file of page images
(:mod:`repro.storage.serial`).  ``FileRTree.open`` serves queries and
joins directly from that file: every node read seeks to its page and
decodes it on demand.  During joins the decode cost is naturally
amortized by the metered LRU buffer pool that all engines already read
through — exactly how a disk-resident index behaves.

The file tree is immutable: structural mutation raises.  To modify,
load into memory (``RTree.load``), mutate, and save again.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator

from repro.rtree.node import Node
from repro.rtree.tree import RTree, _FILE_HEADER, _FILE_MAGIC


class NodeFileStore:
    """Page-addressed node reads from an index file.

    Satisfies the read side of the :class:`~repro.storage.pages.PageStore`
    surface (``read``, ``__len__``, ``page_ids``) so the rest of the
    library — buffer pool included — cannot tell it apart from the
    in-memory store.
    """

    def __init__(self, path: str | Path, page_size: int, page_count: int,
                 header_size: int) -> None:
        self._file = open(path, "rb")
        self._page_size = page_size
        self._page_count = page_count
        self._header_size = header_size

    def read(self, page_id: int) -> Node:
        if not 0 <= page_id < self._page_count:
            raise KeyError(f"page {page_id} out of range")
        self._file.seek(self._header_size + page_id * self._page_size)
        return Node.decode(page_id, self._file.read(self._page_size))

    def __len__(self) -> int:
        return self._page_count

    def __contains__(self, page_id: int) -> bool:
        return 0 <= page_id < self._page_count

    def page_ids(self) -> Iterator[int]:
        return iter(range(self._page_count))

    def close(self) -> None:
        self._file.close()


class FileRTree(RTree):
    """Read-only R-tree view over a saved index file.

    Supports the whole query surface (``search``, ``nearest``,
    ``validate``, joins via :class:`~repro.rtree.tree.TreeAccessor`);
    ``insert``/``delete``/``bulk_load`` raise ``TypeError``.
    """

    def __init__(self, path: str | Path) -> None:
        with open(path, "rb") as f:
            header = f.read(_FILE_HEADER.size)
            if len(header) < _FILE_HEADER.size:
                raise ValueError(f"{path} is not an R-tree file")
            (magic, page_size, max_entries, root_id, page_count, size
             ) = _FILE_HEADER.unpack(header)
        if magic != _FILE_MAGIC:
            raise ValueError(f"{path} is not an R-tree file")
        # Deliberately not calling RTree.__init__ (it would allocate a
        # fresh in-memory root); set the same attributes read-only.
        self.path = Path(path)
        self.page_size = page_size
        self.max_entries = max_entries
        self.min_entries = max(int(max_entries * 0.4), 1)
        self.store = NodeFileStore(path, page_size, page_count,
                                   _FILE_HEADER.size)
        self.root_id = root_id
        self.size = size
        # Read-only view: the mutation counter never moves, so its node
        # blocks are built once and its streams never go stale.
        self.version = 0

    @classmethod
    def open(cls, path: str | Path) -> "FileRTree":
        """Open a saved index for querying."""
        return cls(path)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "FileRTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mutation is forbidden ------------------------------------------

    def insert(self, rect, oid) -> None:  # noqa: D102 - intentional override
        raise TypeError("FileRTree is read-only; RTree.load it to modify")

    def insert_all(self, items) -> None:
        raise TypeError("FileRTree is read-only; RTree.load it to modify")

    def delete(self, rect, oid) -> bool:
        raise TypeError("FileRTree is read-only; RTree.load it to modify")

    def save(self, path) -> None:
        raise TypeError("FileRTree is already a file; copy it instead")
