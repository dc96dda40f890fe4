"""Routing primitives over the ancilla fabric.

Both the static baselines and RESCQ need to turn "CNOT between qubits C and T"
into a concrete plan: which ancilla tile attaches to the control's Z edge,
which attaches to the target's X edge, which contiguous ancilla path connects
the two, and whether edge rotations are needed first (Section 3.1, Figure 4).
The *policies* differ in how they pick among candidate plans; the mechanics of
enumerating and validating plans are shared and live here.

:func:`bfs_ancilla_path` and :func:`enumerate_cnot_plans` are the reference
implementations over the object-graph layout, in positions.  Schedulers
query :class:`RoutingIndex`, which answers the same questions in
:class:`~repro.fabric.flat.FlatGrid` slots, the one tile identity inside a
run: its plans' tiles and paths are slots, from memoised paths and a FIFO
BFS over the per-slot neighbour lists.  One BFS serves a source and all its
goals and stops once the last goal is discovered.  It pops nodes in
discovery order and scans neighbours in ``Edge`` order, as the reference
does, so every node gets the same parent.  Parents are fixed at discovery
and ancestors are discovered first, so every goal's path is final when the
search stops: the reference's path, tile for tile.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..fabric import Edge, GridLayout, Position
from ..fabric.flat import FlatGrid
from .operations import DEFAULT_COSTS, LatticeSurgeryCosts
from .orientation import OrientationTracker

__all__ = ["RoutePlan", "RoutingIndex", "bfs_ancilla_path",
           "enumerate_cnot_plans"]

#: A tile in a plan: a FlatGrid slot, or a position in the reference plans.
Tile = Union[int, Position]


@dataclass(frozen=True)
class RoutePlan:
    """A concrete way to execute one CNOT.

    Tiles are :class:`~repro.fabric.flat.FlatGrid` slots in the plans of
    :class:`RoutingIndex` (and of the policies), and positions in the
    plans of the reference :func:`enumerate_cnot_plans`.

    Attributes
    ----------
    control / target:
        Program qubit indices.
    path:
        Contiguous ancilla tiles used for the merge, ordered from the tile
        attached to the control to the tile attached to the target (a single
        tile may serve both roles).
    control_rotation / target_rotation:
        Whether an edge-rotation gate is required on the respective qubit
        before the merge can happen.
    rotation_ancilla_control / rotation_ancilla_target:
        The ancilla tile used by the corresponding edge rotation (``None``
        when no rotation is needed).
    """

    control: int
    target: int
    path: Tuple[Tile, ...]
    control_rotation: bool = False
    target_rotation: bool = False
    rotation_ancilla_control: Optional[Tile] = None
    rotation_ancilla_target: Optional[Tile] = None

    @cached_property
    def ancillas_used(self) -> Tuple[Tile, ...]:
        """Every ancilla tile the plan touches (path plus rotation helpers).

        Cached: a pure function of the frozen fields, read by every plan
        score and task visit of a plan the routing index shares across runs.
        """
        extra = [pos for pos in (self.rotation_ancilla_control,
                                 self.rotation_ancilla_target)
                 if pos is not None and pos not in self.path]
        return self.path + tuple(extra)

    @property
    def num_rotations(self) -> int:
        return int(self.control_rotation) + int(self.target_rotation)

    def duration(self, costs: LatticeSurgeryCosts = DEFAULT_COSTS) -> int:
        """Total cycles the plan occupies the data qubits.

        Edge rotations on control and target can proceed in parallel when they
        use *different* ancilla tiles; when they share the single available
        ancilla they serialise, which is how the 3+3+2 = 8-cycle CNOTs of
        Figure 5 arise.
        """
        rotation_cycles = 0
        if self.control_rotation and self.target_rotation:
            if self.rotation_ancilla_control == self.rotation_ancilla_target:
                rotation_cycles = 2 * costs.edge_rotation_cycles
            else:
                rotation_cycles = costs.edge_rotation_cycles
        elif self.control_rotation or self.target_rotation:
            rotation_cycles = costs.edge_rotation_cycles
        return rotation_cycles + costs.cnot_cycles


def bfs_ancilla_path(layout: GridLayout, start: Position, goal: Position,
                     blocked: Optional[Set[Position]] = None) -> Optional[List[Position]]:
    """Shortest path of free ancilla tiles from ``start`` to ``goal`` inclusive.

    ``blocked`` tiles cannot be used (busy ancillas).  Returns ``None`` when no
    path exists.  ``start`` and ``goal`` must themselves be ancilla tiles not
    in ``blocked``.
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


def _attachment_candidates(layout: GridLayout, orientation: OrientationTracker,
                           qubit: int, pauli: str) -> List[Tuple[Position, bool]]:
    """Ancilla neighbours that could attach to ``qubit``'s ``pauli`` edge.

    Returns ``(ancilla_position, needs_rotation)`` pairs: a neighbour on a
    boundary already exposing ``pauli`` needs no rotation; a neighbour on the
    other boundary can still be used after one edge-rotation gate.
    """
    position = layout.data_position(qubit)
    candidates: List[Tuple[Position, bool]] = []
    for edge in Edge:
        neighbor = edge.neighbor(position)
        if not layout.is_ancilla(neighbor):
            continue
        needs_rotation = not orientation.exposes(qubit, edge, pauli)
        candidates.append((neighbor, needs_rotation))
    # Prefer rotation-free attachments.
    candidates.sort(key=lambda item: item[1])
    return candidates


def _plans_from_candidates(control: int, target: int,
                           control_candidates: Sequence[Tuple[Tile, bool]],
                           target_candidates: Sequence[Tuple[Tile, bool]],
                           blocked: Set[Tile],
                           path_finder: Callable[[Tile, Tile],
                                                 Optional[List[Tile]]]
                           ) -> List[RoutePlan]:
    """Build the plan list for every routable attachment pair.

    The one plan-construction loop shared by the cached slot
    (:class:`RoutingIndex`) and uncached position
    (:func:`enumerate_cnot_plans`) enumerations — keep them from drifting
    apart.
    """
    plans: List[RoutePlan] = []
    for control_attach, control_rotation in control_candidates:
        if control_attach in blocked:
            continue
        for target_attach, target_rotation in target_candidates:
            if target_attach in blocked:
                continue
            path = path_finder(control_attach, target_attach)
            if path is None:
                continue
            plans.append(RoutePlan(
                control=control,
                target=target,
                path=tuple(path),
                control_rotation=control_rotation,
                target_rotation=target_rotation,
                rotation_ancilla_control=(control_attach
                                          if control_rotation else None),
                rotation_ancilla_target=(target_attach
                                         if target_rotation else None),
            ))
    return plans


def enumerate_cnot_plans(layout: GridLayout, orientation: OrientationTracker,
                         control: int, target: int,
                         blocked: Optional[Set[Position]] = None,
                         path_finder: Optional[Callable[[Position, Position],
                                                        Optional[List[Position]]]] = None
                         ) -> List[RoutePlan]:
    """Enumerate candidate CNOT plans for every attachment pair.

    This realises the "16 paths" of Algorithm 1: up to 4 ancilla neighbours of
    the control times up to 4 of the target.  ``path_finder`` defaults to a
    blocked-aware BFS; schedulers can substitute an MST path query.
    """
    blocked = blocked or set()
    if path_finder is None:
        def path_finder(a: Position, b: Position) -> Optional[List[Position]]:
            return bfs_ancilla_path(layout, a, b, blocked)

    return _plans_from_candidates(
        control, target,
        _attachment_candidates(layout, orientation, control, "Z"),
        _attachment_candidates(layout, orientation, target, "X"),
        blocked, path_finder)


class RoutingIndex:
    """Incremental routing over one layout: slot BFS and memoised plan
    enumeration.

    The index answers the same queries as :func:`bfs_ancilla_path` (without
    ``blocked``) and :func:`enumerate_cnot_plans`, in
    :class:`~repro.fabric.flat.FlatGrid` slots, and caches everything that
    is a pure function of the layout and the qubits' edge orientations:

    * **shortest ancilla paths** keyed on ``(start, goal)``, filled by
      goal-bounded BFS runs whose parent lists are dropped afterwards;
    * **attachment candidates** keyed on ``(qubit, pauli, flipped)``;
    * **full plan enumerations** keyed on
      ``(control, target, flipped_c, flipped_t)``.

    Layouts do not change during a run: grid compression works on a copy
    before any kernel builds an index.  :meth:`_sync` still checks
    :attr:`GridLayout.version` before every query and drops every cache
    (and takes the new revision's slot numbering) when it has moved, so a
    mutated layout can never serve a stale route.

    One index per layout is typically shared via :meth:`for_layout`, so
    repeated runs (seed sweeps) reuse each other's routing work.
    """

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self._version = layout.version
        self.flat = FlatGrid.for_layout(layout)
        #: (start, goal) -> shortest ancilla path (or None when unreachable).
        self._paths: Dict[Tuple[int, int], Optional[List[int]]] = {}
        #: (qubit, pauli, flipped) -> [(ancilla, needs_rotation), ...]
        self._attachments: Dict[Tuple[int, str, bool],
                                List[Tuple[int, bool]]] = {}
        #: (control, target, flipped_c, flipped_t) -> cached plan list.
        self._plans: Dict[Tuple[int, int, bool, bool], List[RoutePlan]] = {}
        self.queries = 0
        self.plan_cache_hits = 0
        #: Goal-bounded BFS runs and the tiles they discovered.
        self.bfs_runs = 0
        self.bfs_tiles = 0

    @classmethod
    def for_layout(cls, layout: GridLayout) -> "RoutingIndex":
        """The shared index attached to ``layout``."""
        index = getattr(layout, "_routing_index", None)
        if index is None or index.layout is not layout:
            index = cls(layout)
            layout._routing_index = index
        return index

    # -- invalidation ----------------------------------------------------------

    def _sync(self) -> None:
        if self.layout.version == self._version:
            return
        self._version = self.layout.version
        self.flat = FlatGrid.for_layout(self.layout)
        self._paths.clear()
        self._attachments.clear()
        self._plans.clear()

    # -- cached primitives ------------------------------------------------------

    def path(self, start: int, goal: int) -> Optional[List[int]]:
        """Shortest ancilla path between two slots, equal to
        :func:`bfs_ancilla_path`'s (memoised; treat as read-only).

        A ``-1`` endpoint (no ancilla, see :meth:`FlatGrid.slot_of`) has no
        path.
        """
        self._sync()
        key = (start, goal)
        try:
            return self._paths[key]
        except KeyError:
            self._route(start, (goal,))
            return self._paths[key]

    def _route(self, start: int, goals: Sequence[int]) -> None:
        """Memoise the shortest path from ``start`` to every unmemoised goal
        with one BFS that stops after the scan discovering the last goal."""
        paths = self._paths
        pending: Set[int] = set()
        for goal in goals:
            key = (start, goal)
            if key in paths:
                continue
            paths[key] = None  # until the BFS reaches it
            if start < 0 or goal < 0:
                continue
            if goal == start:
                paths[key] = [start]
            else:
                pending.add(goal)
        if not pending:
            return
        adjacency = self.flat.neighbors
        parents = [-1] * len(adjacency)
        parents[start] = start
        queue = [start]
        remaining = len(pending)
        # Appending while iterating is a FIFO queue: nodes pop in discovery
        # order, neighbours scan in Edge order — the reference BFS order.
        for current in queue:
            for neighbor in adjacency[current]:
                if parents[neighbor] < 0:
                    parents[neighbor] = current
                    queue.append(neighbor)
                    if neighbor in pending:
                        remaining -= 1
            if not remaining:
                break
        self.bfs_runs += 1
        self.bfs_tiles += len(queue)
        for goal in pending:
            if parents[goal] < 0:
                continue
            path, current = [goal], goal
            while current != start:
                current = parents[current]
                path.append(current)
            path.reverse()
            paths[(start, goal)] = path

    def attachments(self, orientation: OrientationTracker, qubit: int,
                    pauli: str) -> List[Tuple[int, bool]]:
        """Cached :func:`_attachment_candidates`, in slots (treat as
        read-only)."""
        self._sync()
        key = (qubit, pauli, orientation.is_flipped(qubit))
        try:
            return self._attachments[key]
        except KeyError:
            slot_of = self.flat.slot_of
            candidates = [(slot_of(position), needs_rotation)
                          for position, needs_rotation
                          in _attachment_candidates(self.layout, orientation,
                                                    qubit, pauli)]
            self._attachments[key] = candidates
            return candidates

    # -- plan enumeration -------------------------------------------------------

    def enumerate_plans(self, orientation: OrientationTracker, control: int,
                        target: int) -> List[RoutePlan]:
        """Candidate CNOT plans: :func:`enumerate_cnot_plans`'s, in slots.

        Where the reference finds no plan this raises, so every scheduler
        fails a CNOT it cannot route with one message.  The returned list is
        cached: treat it (and the plans inside) as read-only.
        """
        self._sync()
        self.queries += 1
        key = (control, target, orientation.is_flipped(control),
               orientation.is_flipped(target))
        try:
            plans = self._plans[key]
            self.plan_cache_hits += 1
            return plans
        except KeyError:
            control_candidates = self.attachments(orientation, control, "Z")
            target_candidates = self.attachments(orientation, target, "X")
            # One bounded BFS per control attachment fills the path memo.
            for control_attach, _ in control_candidates:
                self._route(control_attach,
                            [attach for attach, _ in target_candidates])
            plans = _plans_from_candidates(
                control, target, control_candidates, target_candidates,
                set(), self.path)
            if not plans:
                raise RuntimeError(
                    f"no ancilla path between qubits {control} and {target}; "
                    "the layout's ancilla fabric is disconnected")
            self._plans[key] = plans
            return plans
