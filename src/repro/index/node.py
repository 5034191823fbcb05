"""Node structures of the cracking R-tree.

Three kinds of tree entries exist during the index's lifetime:

- :class:`LeafNode` — a terminal page of at most ``N`` point ids;
- :class:`InternalNode` — an expanded node with up to ``M`` child
  entries, the chunk ``part_size`` its children were carved with, a
  bound on the frontier partitions beneath it, and a cache of the ids
  beneath it;
- :class:`FrontierEntry` — an *unexpanded* partition, i.e. an element of
  the contour (Definition 2). ``chunk_root=True`` marks a partition that
  will become a whole child subtree of height ``height`` when expanded;
  ``chunk_root=False`` marks a piece of an internal node's partitioning
  that stopped early at the stopping condition and may be resumed by a
  later query.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.index.geometry import Rect
from repro.index.partition import Partition


@dataclass(slots=True)
class LeafNode:
    """A terminal R-tree page holding point ids."""

    ids: np.ndarray
    mbr: Rect

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(slots=True)
class FrontierEntry:
    """An unexpanded partition on the contour."""

    partition: Partition
    height: int
    chunk_root: bool

    @property
    def mbr(self) -> Rect:
        return self.partition.mbr

    @property
    def size(self) -> int:
        return self.partition.size


@dataclass(slots=True)
class InternalNode:
    """An expanded R-tree node with mixed child entries.

    ``largest_frontier`` bounds the size of every frontier partition in
    this subtree; it starts at "unknown" (``sys.maxsize``) and each
    refinement of the node recomputes it exactly. Refinement skips the
    subtree when nothing beneath can crack: at ``0`` (no frontier left,
    so even the offline ``refine(None)`` has nothing to expand) or, for
    a query refinement, at most ``leaf_capacity`` (the stopping
    condition holds for every frontier beneath, whatever the query).
    Inserts raise the bound along their path; deletes only shrink
    partitions, so the bound stays valid.

    ``ids_cache`` holds ``(version, ids)``: the concatenated ids beneath
    the node in traversal order, valid while the tree's id version is
    still ``version``. It is left out of comparison and ``repr``.
    """

    height: int
    part_size: int
    mbr: Rect
    entries: list = field(default_factory=list)
    largest_frontier: int = sys.maxsize
    ids_cache: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return sum(e.size for e in self.entries)


#: Anything that can appear in a tree position.
TreeEntry = LeafNode | InternalNode | FrontierEntry
