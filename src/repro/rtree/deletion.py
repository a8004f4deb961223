"""R-tree deletion: FindLeaf, CondenseTree, reinsertion of orphans.

Classic Guttman deletion adapted to the R*-tree facade: locate the leaf
holding the entry, remove it, and walk back up condensing — any node
that drops below the minimum fill is dissolved and its entries are
reinserted at the level each entry carries (using the R* inserter, so
reinserted subtrees keep their structure).  If the root ends up with a
single child the tree shrinks by one level.

The walk stops at the first node that keeps its MBR bit for bit (see
:func:`_keeps_mbr` and the R* module docstring): nothing above it can
move or underflow.

Deletion enables dynamic workloads (moving objects, expiring records) on
top of the join algorithms; joins themselves never mutate trees.
"""

from __future__ import annotations

from typing import Protocol

from repro.geometry.rect import Rect
from repro.rtree.entries import Item
from repro.rtree.node import Node
from repro.rtree.rstar import RStarInserter, strictly_inside


class _TreeLike(Protocol):
    root_id: int
    min_entries: int

    def _get_node(self, page_id: int) -> Node: ...

    def _touch(self, page_id: int) -> None: ...


def delete(tree, rect: Rect, oid: int) -> bool:
    """Remove the data entry ``(rect, oid)``; True when it was found.

    Matching requires both the object id and an exactly equal rectangle
    (the same contract as B-trees keyed on full records).
    """
    path = _find_leaf(tree, tree.root_id, rect, oid, [])
    if path is None:
        return False
    # The leaf loses an entry, and _condense may rewrite or remove each
    # ancestor's entry for the path node below it: stamp the whole path.
    for node in path:
        tree._touch(node.page_id)
    removed = path[-1].remove_ref(oid)
    orphans: list[Item] = []
    if not _keeps_mbr(tree, path, len(path) - 1, removed.rect):
        _condense(tree, path, orphans)
    _shrink_root(tree)
    if orphans:
        inserter = RStarInserter(tree)
        for entry in orphans:
            inserter.insert_entry(entry)
        _shrink_root(tree)
    return True


def _find_leaf(
    tree, page_id: int, rect: Rect, oid: int, path: list[Node]
) -> list[Node] | None:
    """Depth-first search for the leaf containing the exact entry."""
    node = tree._get_node(page_id)
    path = path + [node]
    if node.is_leaf:
        for entry in node.entries:
            if entry.ref == oid and entry.rect == rect:
                return path
        return None
    for entry in node.entries:
        if entry.rect.contains(rect):
            found = _find_leaf(tree, entry.ref, rect, oid, path)
            if found is not None:
                return found
    return None


def _keeps_mbr(tree, path: list[Node], depth: int, lost: Rect) -> bool:
    """True when ``path[depth]``, having lost ``lost``, keeps its entry bit for bit.

    ``lost`` is a removed entry's rectangle, or the old entry of a child
    that shrank or was dissolved.  When the node is not underfull and
    ``lost`` lies strictly inside the node's entry in its parent, ``lost``
    supplied none of that entry's bounds (R* module docstring), so the
    node's MBR and its fill stand and no ancestor changes.  The root
    (depth 0) has no entry to keep.
    """
    node = path[depth]
    return (
        depth > 0
        and len(node.entries) >= tree.min_entries
        and strictly_inside(lost, path[depth - 1].entry_for(node.page_id).rect)
    )


def _condense(tree, path: list[Node], orphans: list[Item]) -> None:
    """Walk the path bottom-up, dissolving underfull nodes.

    ``path`` runs from the root to the leaf that lost an entry.  Each
    node on the way up is either dissolved (its entries appended to
    ``orphans``) or has its entry in the parent recomputed.  The walk
    stops at the first parent that keeps its entry (:func:`_keeps_mbr`),
    since nothing above it can change.
    """
    for depth in range(len(path) - 1, 0, -1):
        node = path[depth]
        parent = path[depth - 1]
        if len(node.entries) < tree.min_entries:
            lost = parent.remove_ref(node.page_id)
            orphans.extend(node.entries)
            tree.store.free(node.page_id)
        else:
            lost = parent.replace_entry(node.page_id, node.item())
        if _keeps_mbr(tree, path, depth - 1, lost.rect):
            return


def _shrink_root(tree) -> None:
    """Collapse a single-child directory root (possibly repeatedly)."""
    while True:
        root = tree._get_node(tree.root_id)
        if root.is_leaf or len(root.entries) != 1:
            return
        child_id = root.entries[0].ref
        tree._touch(tree.root_id)
        tree.store.free(tree.root_id)
        tree.root_id = child_id
