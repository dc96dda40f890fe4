"""The routing oracle: a FIFO BFS and plan enumeration over positions.

These are the reference implementations the routing-index tests (and the
nightly large-layout parity check) compare :class:`RoutingIndex` against.
They walk the object-graph layout in positions, one search per query, with
none of the index's slots, bit grids or memos:

* :func:`bfs_ancilla_path` is a FIFO BFS from ``start`` that scans each
  node's neighbours in ``Edge`` order (NORTH, SOUTH, EAST, WEST) and returns
  the parent chain of ``goal``;
* :func:`enumerate_cnot_plans` builds the plan of every attachment pair
  with that BFS as its path finder, through the same plan-construction loop
  the index uses.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro.fabric import GridLayout, Position
from repro.lattice import OrientationTracker, RoutePlan
from repro.lattice.routing import (_attachment_candidates,
                                   _plans_from_candidates)

__all__ = ["bfs_ancilla_path", "enumerate_cnot_plans"]


def bfs_ancilla_path(layout: GridLayout, start: Position, goal: Position,
                     blocked: Optional[Set[Position]] = None
                     ) -> Optional[List[Position]]:
    """Shortest path of free ancilla tiles from ``start`` to ``goal`` inclusive.

    ``blocked`` tiles cannot be used (busy ancillas).  Returns ``None`` when no
    path exists, or when an endpoint is blocked or not an ancilla tile.
    """
    blocked = blocked or set()
    if not layout.is_ancilla(start) or not layout.is_ancilla(goal):
        return None
    if start in blocked or goal in blocked:
        return None
    if start == goal:
        return [start]
    parents: Dict[Position, Position] = {start: start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in layout.neighbors(current):
            if neighbor in parents or neighbor in blocked:
                continue
            if not layout.is_ancilla(neighbor):
                continue
            parents[neighbor] = current
            if neighbor == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(neighbor)
    return None


def enumerate_cnot_plans(layout: GridLayout, orientation: OrientationTracker,
                         control: int, target: int,
                         blocked: Optional[Set[Position]] = None
                         ) -> List[RoutePlan]:
    """Candidate CNOT plans for every unblocked attachment pair, in positions.

    Up to 4 ancilla neighbours of the control times up to 4 of the target
    (Algorithm 1's "16 paths"), each routed by the blocked-aware
    :func:`bfs_ancilla_path`.
    """
    blocked = blocked or set()

    def unblocked(qubit: int, pauli: str):
        return [(tile, rotation) for tile, rotation
                in _attachment_candidates(layout, orientation, qubit, pauli)
                if tile not in blocked]

    return _plans_from_candidates(
        control, target, unblocked(control, "Z"), unblocked(target, "X"),
        lambda a, b: bfs_ancilla_path(layout, a, b, blocked))
