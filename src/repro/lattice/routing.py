"""Routing primitives over the ancilla fabric.

Both the static baselines and RESCQ need to turn "CNOT between qubits C and T"
into a concrete plan: which ancilla tile attaches to the control's Z edge,
which attaches to the target's X edge, which contiguous ancilla path connects
the two, and whether edge rotations are needed first (Section 3.1, Figure 4).
The *policies* differ in how they pick among candidate plans; the mechanics of
enumerating and validating plans are shared and live here.

Schedulers query :class:`RoutingIndex`, in
:class:`~repro.fabric.flat.FlatGrid` slots, the one tile identity inside a
run.  Its paths come from one layered search per goal over the FlatGrid's
bit grid, a Python int with one bit per tile.  Level ``k`` holds the
ancilla tiles ``k`` steps from the goal: the four one-tile shifts of level
``k - 1``, masked to the ancilla tiles no earlier level holds.  The search
stops at the level that reaches its last pending start.  A path is then a
walk from its start that steps, each time, to the first neighbour in
``Edge`` order (NORTH, SOUTH, EAST, WEST) that lies one level closer to
the goal.

That walk is exactly the path of a FIFO BFS from the start that scans
every node's neighbours in ``Edge`` order: the lexicographically smallest
direction sequence among the shortest paths.  The BFS half is an
induction on its levels.  Assume level ``k - 1`` is dequeued in the lex
order of its nodes' sequences, and each node's parent chain spells its
lex-min sequence.  A level-``k`` node is discovered by the first dequeued
of its level-``k - 1`` neighbours.  Their sequences all have length
``k - 1`` and are distinct (a sequence fixes its end tile), so that
neighbour has the smallest, and appending its direction gives the node's
lex-min sequence.  Level ``k`` is discovered in (parent rank, direction)
order, which is the lex order of those sequences, so the assumption
holds for level ``k``.  The walk half is greedy: the lex-min sequence
starts with the smallest direction that still lies on a shortest path,
i.e. one level closer to the goal, and so on at every step.

Which level a tile is in, and so the rest of its walk, depends only on
the tile.  A walk that reaches a tile of an earlier walk to the same goal
therefore reuses the rest of that walk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..fabric import Edge, GridLayout, Position
from ..fabric.flat import FlatGrid
from .operations import DEFAULT_COSTS, LatticeSurgeryCosts
from .orientation import OrientationTracker

__all__ = ["RoutePlan", "RoutingIndex"]

#: A tile in a plan: a FlatGrid slot, or a position in the tests' oracle.
Tile = Union[int, Position]


@dataclass(frozen=True)
class RoutePlan:
    """A concrete way to execute one CNOT.

    Tiles are :class:`~repro.fabric.flat.FlatGrid` slots in the plans of
    :class:`RoutingIndex` (and of the policies), and positions in the
    plans of the tests' routing oracle (``tests/routing_oracle.py``).

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
                           path_finder: Callable[[Tile, Tile],
                                                 Optional[List[Tile]]]
                           ) -> List[RoutePlan]:
    """Build the plan list for every routable attachment pair.

    The one plan-construction loop, shared by :class:`RoutingIndex` (in
    slots) and the tests' routing oracle (in positions).
    """
    plans: List[RoutePlan] = []
    for control_attach, control_rotation in control_candidates:
        for target_attach, target_rotation in target_candidates:
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


class RoutingIndex:
    """Incremental routing over one layout: layered route search and
    memoised plan enumeration.

    The index answers shortest-ancilla-path and CNOT-plan queries in
    :class:`~repro.fabric.flat.FlatGrid` slots, and caches everything that
    is a pure function of the layout and the qubits' edge orientations:

    * **shortest ancilla paths** keyed on ``(start, goal)``, filled by
      goal-side layered searches whose levels are dropped afterwards;
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
        #: Layered searches, the tiles they reached and their nanoseconds.
        self.bfs_runs = 0
        self.bfs_tiles = 0
        self.search_ns = 0

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
        """Shortest ancilla path between two slots (memoised; treat as
        read-only).

        A ``-1`` endpoint (no ancilla, see :meth:`FlatGrid.slot_of`) has no
        path.
        """
        self._sync()
        key = (start, goal)
        try:
            return self._paths[key]
        except KeyError:
            self._route((start,), goal)
            return self._paths[key]

    def _route(self, starts: Sequence[int], goal: int) -> None:
        """Memoise the shortest path to ``goal`` from every unmemoised start
        with one layered search from ``goal`` that stops at the level
        reaching the last pending start."""
        paths = self._paths
        pending: List[int] = []
        for start in starts:
            key = (start, goal)
            if key in paths:
                continue
            paths[key] = None  # until the search reaches it
            if start < 0 or goal < 0:
                continue
            if start == goal:
                paths[key] = [start]
            else:
                pending.append(start)
        if not pending:
            return
        began = time.perf_counter_ns()
        flat = self.flat
        bits, stride = flat.bits, flat.stride
        wanted = 0
        for start in pending:
            wanted |= 1 << bits[start]
        frontier = 1 << bits[goal]
        unreached = flat.ancilla_mask ^ frontier
        levels = [frontier]
        while frontier and wanted & unreached:
            frontier = (((frontier >> stride) | (frontier << stride)
                         | (frontier << 1) | (frontier >> 1)) & unreached)
            unreached ^= frontier
            levels.append(frontier)
        self.bfs_runs += 1
        self.bfs_tiles += bin(flat.ancilla_mask ^ unreached).count("1")
        neighbors = flat.neighbors
        # Tile of an earlier walk -> (that walk, the tile's index in it).
        walked: Dict[int, Tuple[List[int], int]] = {}
        for start in pending:
            bit = 1 << bits[start]
            if bit & unreached:
                continue
            # Starts sit near the last level, so look for theirs from there.
            level = len(levels) - 1
            while not levels[level] & bit:
                level -= 1
            path, tile = [start], start
            while level:
                if tile in walked:
                    earlier, at = walked[tile]
                    path.extend(earlier[at + 1:])
                    break
                walked[tile] = (path, len(path) - 1)
                level -= 1
                closer = levels[level]
                # Rebinds ``tile`` to its first neighbour one level closer.
                for tile in neighbors[tile]:
                    if closer >> bits[tile] & 1:
                        break
                path.append(tile)
            paths[(start, goal)] = path
        self.search_ns += time.perf_counter_ns() - began

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
        """Candidate CNOT plans for every routable attachment pair, in slots.

        This realises the "16 paths" of Algorithm 1: up to 4 ancilla
        neighbours of the control times up to 4 of the target.  Where no
        pair is routable this raises, so every scheduler
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
            # One layered search per target attachment fills the path memo.
            starts = [attach for attach, _ in control_candidates]
            for target_attach, _ in target_candidates:
                self._route(starts, target_attach)
            plans = _plans_from_candidates(
                control, target, control_candidates, target_candidates,
                self.path)
            if not plans:
                raise RuntimeError(
                    f"no ancilla path between qubits {control} and {target}; "
                    "the layout's ancilla fabric is disconnected")
            self._plans[key] = plans
            return plans
