"""Shortest-path backends for the routing index.

Both backends answer the same query — the shortest path of free ancilla
tiles between two ancillas — byte-identically, with different machinery:

* ``python`` — the reference: the original object-graph FIFO BFS
  (:func:`~repro.lattice.routing.bfs_ancilla_path`).  Always available,
  always correct; the test oracle for ``vector``.
* ``vector`` (the default) — the same FIFO BFS over the
  :class:`~repro.fabric.flat.FlatGrid` flat indices: per-tile adjacency
  lists (``route_adjacency``) and a flat parent list instead of position
  tuples, dicts and per-neighbour tile lookups.  Full parent trees are
  memoised per source (and per layout revision) as compact int32 arrays
  so repeated goals cost one parent walk.  The name predates this kernel
  (it once expanded BFS levels with numpy) and is kept because
  ``routing_backend`` values enter job fingerprints.

Exactness argument (why the vector BFS is byte-identical): it pops nodes
in discovery order and scans each node's neighbours in ``Edge``
declaration order, exactly as the reference does, so every node gets the
same parent.  Parents are never reassigned, so the full parent tree
computed without early termination reconstructs the same path an
early-terminating search would have returned.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from ..fabric import GridLayout, Position
from ..fabric.flat import FlatGrid

__all__ = ["RoutingBackend", "PythonBackend", "VectorBackend",
           "ROUTING_BACKEND_NAMES", "DEFAULT_ROUTING_BACKEND", "get_backend"]

ROUTING_BACKEND_NAMES = ("python", "vector")
DEFAULT_ROUTING_BACKEND = "vector"


class RoutingBackend:
    """Strategy object answering shortest-ancilla-path queries for one layout.

    A backend instance is owned by one :class:`~repro.lattice.routing.RoutingIndex`
    and may memoise per-layout-revision state; :meth:`invalidate` is called
    whenever the layout version moves.
    """

    name = "abstract"

    def shortest_path(self, layout: GridLayout, start: Position,
                      goal: Position,
                      blocked: Optional[Set[Position]] = None
                      ) -> Optional[List[Position]]:
        raise NotImplementedError

    def invalidate(self) -> None:
        """Drop memoised state (the layout mutated)."""


class PythonBackend(RoutingBackend):
    """The pure-python reference BFS."""

    name = "python"

    def shortest_path(self, layout: GridLayout, start: Position,
                      goal: Position,
                      blocked: Optional[Set[Position]] = None
                      ) -> Optional[List[Position]]:
        from .routing import bfs_ancilla_path
        return bfs_ancilla_path(layout, start, goal, blocked)


class VectorBackend(RoutingBackend):
    """FIFO BFS over the flat adjacency lists, with memoised parent trees."""

    name = "vector"

    def __init__(self) -> None:
        #: source flat index -> full parent tree for the current revision.
        self._parent_trees: Dict[int, np.ndarray] = {}
        self._tree_version: Optional[int] = None

    def invalidate(self) -> None:
        self._parent_trees.clear()
        self._tree_version = None

    # -- the BFS kernel --------------------------------------------------------

    @staticmethod
    def _compute_parents(flat: FlatGrid, source: int, blocked: Iterable[int],
                         goal: int) -> List[int]:
        """Parent list of the BFS from ``source`` (-1 = unreached).

        ``blocked`` flat indices (negative ones are off-grid and ignored) are
        pre-marked as visited so the search never enters them.
        ``goal >= 0`` stops the search once the goal is reached (one-shot
        blocked queries; memoised trees pass ``-1`` so the tree serves every
        future goal).
        """
        adjacency = flat.route_adjacency
        parents = [-1] * flat.size
        for tile in blocked:
            if tile >= 0:
                parents[tile] = tile
        parents[source] = source
        queue = [source]
        # Appending while iterating is a FIFO queue: nodes pop in discovery
        # order, neighbours scan in Edge order — the reference BFS order.
        for current in queue:
            for neighbor in adjacency[current]:
                if parents[neighbor] < 0:
                    parents[neighbor] = current
                    if neighbor == goal:
                        return parents
                    queue.append(neighbor)
        return parents

    def _parents_for(self, flat: FlatGrid, source: int) -> np.ndarray:
        if self._tree_version != flat.version:
            self.invalidate()
            self._tree_version = flat.version
        parents = self._parent_trees.get(source)
        if parents is None:
            # int32: 4 bytes per tile and not GC-tracked, so hundreds of
            # memoised trees on a large fabric stay cheap to hold.
            parents = np.fromiter(self._compute_parents(flat, source, (), -1),
                                  dtype=np.int32, count=flat.size)
            self._parent_trees[source] = parents
        return parents

    # -- the query -------------------------------------------------------------

    def shortest_path(self, layout: GridLayout, start: Position,
                      goal: Position,
                      blocked: Optional[Set[Position]] = None
                      ) -> Optional[List[Position]]:
        flat = FlatGrid.for_layout(layout)
        start_flat = flat.flat_index(start)
        goal_flat = flat.flat_index(goal)
        if (start_flat < 0 or goal_flat < 0
                or not flat.ancilla_mask[start_flat]
                or not flat.ancilla_mask[goal_flat]):
            return None
        if blocked and (start in blocked or goal in blocked):
            return None
        if start_flat == goal_flat:
            return [start]
        if blocked:
            parents = self._compute_parents(
                flat, start_flat, map(flat.flat_index, blocked), goal_flat)
        else:
            parents = self._parents_for(flat, start_flat)
        if parents[goal_flat] < 0:
            return None
        positions = flat._positions
        path = [positions[goal_flat]]
        current = goal_flat
        while current != start_flat:
            current = int(parents[current])
            path.append(positions[current])
        path.reverse()
        return path


_BACKEND_CLASSES = {
    "python": PythonBackend,
    "vector": VectorBackend,
}


def get_backend(name: str) -> RoutingBackend:
    """Instantiate the named routing backend (raises on unknown names)."""
    try:
        backend_cls = _BACKEND_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing backend {name!r}; "
            f"expected one of {ROUTING_BACKEND_NAMES}") from None
    return backend_cls()


#: Type alias documented for policy path_finder parameters.
PathFinder = Callable[[Position, Position], Optional[List[Position]]]
