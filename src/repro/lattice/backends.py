"""Shortest-path backends for the routing index.

Both backends answer the same query — the shortest path of free ancilla
tiles between two ancillas — byte-identically, with different machinery:

* ``python`` — the reference: the original object-graph FIFO BFS
  (:func:`~repro.lattice.routing.bfs_ancilla_path`).  Always available,
  always correct; the test oracle for ``vector``.
* ``vector`` (the default) — batched level-synchronous BFS over the
  :class:`~repro.fabric.flat.FlatGrid` int32 neighbour table.  One numpy
  pass expands a whole frontier; full parent trees are memoised per source
  (and per layout revision) so repeated goals cost one array walk.

Exactness argument (why the vector BFS is byte-identical): the reference
BFS pops nodes FIFO — i.e. in discovery order — and scans neighbours in
``Edge`` declaration order, so a node's parent is the first (discovery
order x Edge order) neighbour that reaches it.  The vector expansion
flattens ``neighbor_table[frontier]`` row-major, which is exactly that
order, and keeps the *first* occurrence of each newly discovered node
(``np.unique`` + first-index sort), so every parent assignment matches.
Parents are never reassigned, so the full parent tree computed without
early termination reconstructs the same path an early-terminating search
would have returned.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

import numpy as np

from ..fabric import GridLayout, Position
from ..fabric.flat import FlatGrid

__all__ = ["RoutingBackend", "PythonBackend", "VectorBackend",
           "ROUTING_BACKEND_NAMES", "get_backend"]

ROUTING_BACKEND_NAMES = ("python", "vector")


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
    """Batched numpy BFS over the flat neighbour table."""

    name = "vector"

    def __init__(self) -> None:
        #: source flat index -> full parent array for the current revision.
        self._parent_trees: Dict[int, np.ndarray] = {}
        self._tree_version: Optional[int] = None

    def invalidate(self) -> None:
        self._parent_trees.clear()
        self._tree_version = None

    # -- the BFS kernel --------------------------------------------------------

    def _compute_parents(self, flat: FlatGrid, source: int,
                         blocked_mask: Optional[np.ndarray],
                         goal: int) -> np.ndarray:
        """Parent array of the BFS from ``source`` (-1 = unreached).

        ``goal >= 0`` allows early termination once the goal is claimed
        (used for one-shot blocked queries; memoised trees pass ``-1`` so
        the tree serves every future goal).
        """
        parents = np.full(flat.size, -1, dtype=np.int32)
        parents[source] = source
        frontier = np.array([source], dtype=np.int32)
        neighbor_table = flat.route_neighbors
        # Scratch for the first-claim scatter below; every candidate cell is
        # rewritten each round, so stale entries are never read.
        winner = np.empty(flat.size, dtype=np.int32)
        while frontier.size:
            candidates = neighbor_table[frontier].ravel()
            claimants = np.repeat(frontier, 4)
            keep = candidates >= 0
            candidates = candidates[keep]
            claimants = claimants[keep]
            if blocked_mask is not None:
                keep = ~blocked_mask[candidates]
                candidates = candidates[keep]
                claimants = claimants[keep]
            keep = parents[candidates] < 0
            candidates = candidates[keep]
            claimants = claimants[keep]
            if candidates.size == 0:
                break
            # First occurrence wins, in discovery (claimant x Edge) order.
            # Double-scatter instead of np.unique (which sorts): writing the
            # claims reversed makes the earliest claim the last write, then
            # comparing each claim's slot against its own index keeps exactly
            # the first occurrence of every cell, in original order.
            order = np.arange(candidates.size, dtype=np.int32)
            winner[candidates[::-1]] = order[::-1]
            first = winner[candidates] == order
            candidates = candidates[first]
            parents[candidates] = claimants[first]
            if goal >= 0 and parents[goal] >= 0:
                break
            frontier = candidates
        return parents

    def _parents_for(self, flat: FlatGrid, source: int) -> np.ndarray:
        if self._tree_version != flat.version:
            self.invalidate()
            self._tree_version = flat.version
        parents = self._parent_trees.get(source)
        if parents is None:
            parents = self._compute_parents(flat, source, None, -1)
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
            parents = self._compute_parents(flat, start_flat,
                                            flat.blocked_mask(blocked),
                                            goal_flat)
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
