"""Disk-oriented R*-tree index.

A from-scratch R*-tree (Beckmann et al., SIGMOD 1990) with:

- dynamic insertion with R* ChooseSubtree, margin-driven split axis
  selection and forced reinsertion;
- Sort-Tile-Recursive (STR) bulk loading for building large experiment
  datasets quickly at a realistic fill factor;
- page-sized nodes whose fanout is derived from the binary page layout in
  :mod:`repro.storage.serial` (85 entries per 4 KB page), holding one
  entry type, :class:`~repro.rtree.entries.Item`, that the join engines
  queue as is;
- buffered access for query-time metering
  (:class:`~repro.rtree.tree.TreeAccessor`).

Distance join algorithms only require the spatial-containment property of
Lemma 1 (a child's MBR lies inside its parent's), which ``RTree.validate``
checks explicitly.
"""

from repro.rtree.entries import Item
from repro.rtree.filetree import FileRTree
from repro.rtree.node import Node
from repro.rtree.tree import RTree, TreeAccessor

__all__ = ["FileRTree", "Item", "Node", "RTree", "TreeAccessor"]
