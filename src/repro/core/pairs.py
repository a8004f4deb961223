"""Pairs — what flows through the join queues.

One side of a candidate pair is an :class:`Item`: the R-tree's own node
entry (:mod:`repro.rtree.entries`), so the engines queue the entries of
``Node.entries`` themselves.  An item is either an R-tree node (its page
id and the level it sits at) or a data object (a leaf entry: object id
plus MBR).  Items carry their rectangle so that distance computations
never refetch nodes — exactly how a C implementation would keep the MBR
inside the queue entry.  ``Item`` and ``OBJECT_LEVEL`` stay importable
from here, the name checkpoints written before the move pickled.

A queued pair is ``(distance, PairPayload)``; the payload also carries an
optional compensation record while the adaptive algorithms are at work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.rtree.entries import OBJECT_LEVEL, Item

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.planesweep import ExpansionRecord

__all__ = ["OBJECT_LEVEL", "Item", "PairPayload", "ResultPair"]


@dataclass(slots=True)
class PairPayload:
    """Queue payload: the two items plus optional compensation state."""

    a: Item
    b: Item
    record: "ExpansionRecord | None" = None
    #: Precomputed at construction: the engines test this on every queue
    #: pop and insert, so it is a plain attribute rather than a property.
    is_object_pair: bool = False

    def __post_init__(self) -> None:
        self.is_object_pair = (
            self.a.level == OBJECT_LEVEL and self.b.level == OBJECT_LEVEL
        )


class ResultPair(NamedTuple):
    """One join result: object ids from R and S and their distance."""

    distance: float
    ref_r: int
    ref_s: int
