"""R-tree nodes.

A node is a page-resident list of entries plus its level: level 0 is a
leaf (entries reference objects), higher levels are directory nodes
(entries reference child pages).  Every entry is an
:class:`~repro.rtree.entries.Item` one level below its node, so leaf
entries sit at ``OBJECT_LEVEL``.  Nodes know their own MBR but not their
parent; parentage is recovered by the insertion path walk in
:mod:`repro.rtree.rstar`, which keeps nodes independent of tree bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.rect import Rect
from repro.rtree.entries import Item
from repro.storage import serial


@dataclass(slots=True)
class Node:
    """A single R-tree node.

    Attributes
    ----------
    page_id:
        The page this node occupies in the store.
    level:
        0 for leaves; the root has the highest level in the tree.
    entries:
        The node's slots, each at level ``level - 1``; between ``m`` and
        ``M`` of them except for the root, which may hold as few as one.
        The join engines read this list as a node's children, so it is
        edited only by tree writes.
    """

    page_id: int
    level: int
    entries: list[Item] = field(default_factory=list)

    @classmethod
    def decode(cls, page_id: int, page: bytes) -> "Node":
        """The node stored in one page image (:mod:`repro.storage.serial`)."""
        level, records = serial.unpack_node(page)
        below = level - 1
        return cls(
            page_id,
            level,
            [Item(Rect(x0, y0, x1, y1), ref, below) for x0, y0, x1, y1, ref in records],
        )

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        if not self.entries:
            raise ValueError(f"node {self.page_id} has no entries")
        return Rect.union_of(entry.rect for entry in self.entries)

    def item(self) -> Item:
        """The entry that points at this node: its MBR, page id and level."""
        return Item(self.mbr(), self.page_id, self.level)

    def add(self, entry: Item) -> None:
        self.entries.append(entry)

    def remove_ref(self, ref: int) -> Item:
        """Remove and return the entry referencing ``ref``."""
        for i, entry in enumerate(self.entries):
            if entry.ref == ref:
                return self.entries.pop(i)
        raise KeyError(f"node {self.page_id} has no entry for ref {ref}")

    def entry_for(self, ref: int) -> Item:
        """Return the entry referencing ``ref``."""
        for entry in self.entries:
            if entry.ref == ref:
                return entry
        raise KeyError(f"node {self.page_id} has no entry for ref {ref}")

    def replace_entry(self, ref: int, new_entry: Item) -> None:
        """Swap the entry referencing ``ref`` for ``new_entry``."""
        for i, entry in enumerate(self.entries):
            if entry.ref == ref:
                self.entries[i] = new_entry
                return
        raise KeyError(f"node {self.page_id} has no entry for ref {ref}")

    def __len__(self) -> int:
        return len(self.entries)
