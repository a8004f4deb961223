"""R-tree node entries: the one entry type the tree and the join share.

An :class:`Item` couples a rectangle with a reference and a level.  In
a directory node the reference is a child page id and the level is that
child's level; in a leaf the reference is the data object's id and the
level is :data:`OBJECT_LEVEL`.  The rectangle in a leaf entry *is* the
data object's MBR, so leaf entries double as the "objects" the distance
join returns — exactly the paper's model, where objects are their MBR
approximations at the index level.  The join engines queue the entries
of ``Node.entries`` themselves as the sides of candidate pairs
(:mod:`repro.core.pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.rect import Rect

#: Level tag for data objects (anything >= 0 is an R-tree node level).
#: It is one below the leaf level, so every entry's level is its node's
#: level minus one.
OBJECT_LEVEL = -1


@dataclass(frozen=True, slots=True)
class Item:
    """One node entry, and one side of a candidate pair: an R-tree node
    (page id and the level it sits at) or a data object (object id)."""

    rect: Rect
    ref: int
    level: int

    @property
    def is_object(self) -> bool:
        return self.level == OBJECT_LEVEL

    @classmethod
    def object(cls, rect: Rect, oid: int) -> "Item":
        return cls(rect, oid, OBJECT_LEVEL)

    @classmethod
    def node(cls, rect: Rect, page_id: int, level: int) -> "Item":
        if level < 0:
            raise ValueError("node level must be non-negative")
        return cls(rect, page_id, level)
