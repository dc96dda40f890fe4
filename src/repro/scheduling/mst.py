"""Activity-weighted minimum spanning tree maintenance (Sections 4.2, 5.4.1).

RESCQ routes CNOTs along the minimax-activity path between the control and
target attachment ancillas.  The classical controller:

* builds an undirected graph over ancilla tiles whose edge weights are the
  maximum activity of the two endpoints,
* computes its minimum spanning tree — the MST contains, for every pair of
  vertices, the path whose maximum edge weight is minimal (the minimax path),
* starts a new computation every ``k`` cycles; each computation takes
  ``tau_mst`` cycles, so the tree the scheduler queries is always somewhat
  stale (Figure 8) but quantum execution never stalls.

The scheduler's path stays in slot-indexed arrays end to end: an activity
snapshot is a float64 array in the layout's ancilla slot order
(:class:`~repro.fabric.flat.FlatGrid`, equal to
``GridLayout.ancilla_positions()``), :class:`AncillaMst` runs Kruskal on it
directly and walks its tree as Python lists.  :func:`activity_array`
converts a ``{Position: activity}`` map for callers that hold one.
:class:`AsyncMstPipeline` builds a published snapshot's tree only when the
scheduler first reads it, and :meth:`AncillaMst.pair_scores` scores every
candidate CNOT attachment pair over shared tree walks without building any
pair's path.

:class:`IncrementalMst` is the incremental-update structure analysed in
Section 5.4.1 (O(1) insertions on grid cycles, O(max(rows, cols)) deletions)
used by the classical-overhead benchmark.  It starts from the same Kruskal
sweep (:func:`_kruskal`) over the same slot edge arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Collection, Dict, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

import numpy as np

from ..fabric import GridLayout, Position
from ..fabric.flat import FlatGrid
from ..kernel.profiler import KernelProfile, profile_timer

__all__ = ["activity_array", "AncillaMst", "AsyncMstPipeline",
           "IncrementalMst"]


def activity_array(layout: GridLayout,
                   activity: Mapping[Position, float]) -> np.ndarray:
    """A ``{Position: activity}`` map as a slot-ordered array (missing = 0)."""
    get = activity.get
    return np.array([get(position, 0.0)
                     for position in FlatGrid.for_layout(layout).anc_positions],
                    dtype=np.float64)


def _edge_weights(flat: FlatGrid, activity: np.ndarray) -> np.ndarray:
    """w(u, v) = max(activity_u, activity_v) for every flat edge."""
    if len(activity) != flat.num_ancilla:
        raise ValueError(f"activity has {len(activity)} values, the "
                         f"layout has {flat.num_ancilla} ancilla slots")
    return np.maximum(activity[flat.edge_u], activity[flat.edge_v])


def _kruskal(flat: FlatGrid, weights: Sequence[float]) -> List[List[int]]:
    """Minimum spanning forest over ``flat``'s edges as per-slot neighbour
    lists: a stable argsort of ``weights`` plus a union-find sweep (path
    halving).  Ties keep edge-array order, the insertion order of the
    networkx graph the tests use as the MST oracle, so the forest is
    ``nx.minimum_spanning_tree(..., algorithm="kruskal")``'s edge for edge.
    """
    num = flat.num_ancilla
    adjacency: List[List[int]] = [[] for _ in range(num)]
    order = np.argsort(weights, kind="stable")
    uf_parent = list(range(num))
    missing = num - 1
    for u, v in zip(flat.edge_u[order].tolist(), flat.edge_v[order].tolist()):
        # Find both roots, pointing each node passed at its grandparent on
        # the way up (path halving).
        root_u = u
        while uf_parent[root_u] != root_u:
            uf_parent[root_u] = root_u = uf_parent[uf_parent[root_u]]
        root_v = v
        while uf_parent[root_v] != root_v:
            uf_parent[root_v] = root_v = uf_parent[uf_parent[root_v]]
        if root_u != root_v:
            uf_parent[root_u] = root_v
            adjacency[u].append(v)
            adjacency[v].append(u)
            missing -= 1
            if not missing:
                break  # spanning tree complete
    return adjacency


class AncillaMst:
    """An immutable activity-weighted MST snapshot with path queries.

    ``activity`` is one float per ancilla slot of the layout's
    :class:`~repro.fabric.flat.FlatGrid` (see :func:`activity_array`).
    The tree is :func:`_kruskal` over edge weights computed in one numpy
    pass, rooted once so that path queries are LCA walks over parent/depth
    lists instead of per-pair BFS.  Path queries are not memoised: plan
    choice builds only the winning pair's path, so a pair is rarely asked
    for twice.  Tree paths are unique, so path queries agree with the
    networkx oracle's whatever the traversal order.
    """

    def __init__(self, layout: GridLayout, activity: np.ndarray,
                 snapshot_cycle: int = 0) -> None:
        self.snapshot_cycle = snapshot_cycle
        flat = FlatGrid.for_layout(layout)
        self._flat = flat
        num = flat.num_ancilla
        adjacency = _kruskal(flat, _edge_weights(flat, activity))

        # Root every component at its smallest slot: parent/depth/component
        # lists answer any path query with an LCA walk.
        parent = [-1] * num
        depth = [0] * num
        component = [-1] * num
        for root in range(num):
            if component[root] >= 0:
                continue
            component[root] = root
            parent[root] = root
            stack = [root]
            while stack:
                node = stack.pop()
                child_depth = depth[node] + 1
                for neighbor in adjacency[node]:
                    if component[neighbor] < 0:
                        component[neighbor] = root
                        parent[neighbor] = node
                        depth[neighbor] = child_depth
                        stack.append(neighbor)
        self._parent = parent
        self._depth = depth
        self._component = component

    def path(self, start: Position, goal: Position) -> Optional[List[Position]]:
        """The unique tree path between two ancilla tiles (inclusive).

        Returns ``None`` when either endpoint is not in the tree or the tree
        is disconnected between them (possible only for degenerate layouts).
        """
        flat = self._flat
        a = flat.slot_of(start)
        b = flat.slot_of(goal)
        if a < 0 or b < 0:
            return None
        if a == b:
            return [start]
        component = self._component
        if component[a] != component[b]:
            return None
        parent = self._parent
        depth = self._depth
        up_from_start = [a]
        up_from_goal = [b]
        depth_a = depth[a]
        depth_b = depth[b]
        while depth_a > depth_b:
            a = parent[a]
            up_from_start.append(a)
            depth_a -= 1
        while depth_b > depth_a:
            b = parent[b]
            up_from_goal.append(b)
            depth_b -= 1
        while a != b:
            a = parent[a]
            up_from_start.append(a)
            b = parent[b]
            up_from_goal.append(b)
        positions = flat.anc_positions
        path = [positions[slot] for slot in up_from_start]
        path.extend(positions[slot] for slot in reversed(up_from_goal[:-1]))
        return path

    def pair_scores(self, starts: Sequence[Position], goals: Sequence[Position],
                    cost: Callable[[Position], float]
                    ) -> List[Tuple[int, int, float, int]]:
        """Bottleneck cost and length of the tree path of every routable pair.

        Returns ``(i, j, worst, length)`` for each ``(starts[i], goals[j])``
        that :meth:`path` connects, in nested start-then-goal order, where
        ``worst`` is the largest ``cost`` of a tile on that path and
        ``length`` its tile count.  Each endpoint is walked up the tree once,
        to the common ancestor of the endpoints in its component, keeping a
        prefix max of ``cost``; a pair's LCA is found by binary search on its
        two walks, so no pair's path is built.
        """
        slot_of = self._flat.slot_of
        start_slots = [slot_of(position) for position in starts]
        goal_slots = [slot_of(position) for position in goals]
        walks = self._walks(start_slots + goal_slots, cost)
        scores = []
        for i, slot_a in enumerate(start_slots):
            walk_a = walks.get(slot_a)
            if walk_a is None:
                continue
            chain_a, prefix_a = walk_a
            top = chain_a[-1]
            for j, slot_b in enumerate(goal_slots):
                walk_b = walks.get(slot_b)
                if walk_b is None:
                    continue
                chain_b, prefix_b = walk_b
                if chain_b[-1] != top:
                    continue  # different components
                # Both walks end at the same ancestor, so tile k of walk a
                # and tile k - shift of walk b sit at the same depth; the
                # LCA is the first such tile the two walks share.
                shift = len(chain_a) - len(chain_b)
                low = shift if shift > 0 else 0
                high = len(chain_a) - 1
                while low < high:
                    middle = (low + high) // 2
                    if chain_a[middle] == chain_b[middle - shift]:
                        high = middle
                    else:
                        low = middle + 1
                worst_a = prefix_a[low]
                worst_b = prefix_b[low - shift]
                scores.append((i, j, worst_a if worst_a >= worst_b else worst_b,
                               2 * low - shift + 1))
        return scores

    def _walks(self, slots: List[int], cost: Callable[[Position], float]
               ) -> Dict[int, Tuple[List[int], List[float]]]:
        """Per tree slot in ``slots``: its walk up to the common ancestor of
        the given slots in its component, and the prefix max of ``cost``
        along that walk.  Slots outside the tree (``-1``) get no walk, and
        each tile is priced once however many walks pass it."""
        parent = self._parent
        depth = self._depth
        component = self._component
        positions = self._flat.anc_positions
        # Common ancestor per component: fold the slots in by LCA walks.
        tops: Dict[int, int] = {}
        for slot in slots:
            if slot < 0:
                continue
            root = component[slot]
            a = tops.get(root, slot)
            b = slot
            while depth[a] > depth[b]:
                a = parent[a]
            while depth[b] > depth[a]:
                b = parent[b]
            while a != b:
                a = parent[a]
                b = parent[b]
            tops[root] = a
        values: Dict[int, float] = {}
        walks: Dict[int, Tuple[List[int], List[float]]] = {}
        for slot in slots:
            if slot < 0 or slot in walks:
                continue
            stop = tops[component[slot]]
            node = slot
            chain = [node]
            value = values.get(node)
            if value is None:
                value = values[node] = cost(positions[node])
            worst = value
            prefix = [worst]
            while node != stop:
                node = parent[node]
                chain.append(node)
                value = values.get(node)
                if value is None:
                    value = values[node] = cost(positions[node])
                if value > worst:
                    worst = value
                prefix.append(worst)
            walks[slot] = (chain, prefix)
        return walks


@dataclass
class _PendingComputation:
    started_cycle: int
    available_cycle: int
    activity_snapshot: np.ndarray


class AsyncMstPipeline:
    """The asynchronous MST recomputation pipeline of Figure 8.

    A new computation is *started* every ``period`` (= ``k``) cycles using the
    activity observed at the start cycle; it becomes *available* ``latency``
    (= ``tau_mst``) cycles later.  The scheduler always queries the most
    recently *available* tree — never stalling the quantum machine, at the
    cost of acting on information up to ``latency + period`` cycles old.

    A published snapshot is built into an :class:`AncillaMst` on the first
    read of :attr:`current`; one replaced by a newer publication before any
    read is never built.  The tree is a pure function of the layout and the
    snapshot, so every path is the one an eager build gives.
    ``computations_started`` counts snapshots taken,
    ``computations_completed`` snapshots published (a run ends with up to
    ``latency / period`` still pending) and ``trees_built`` the published
    snapshots built.  With a ``profile``, each build is booked under the
    nested ``mst_build`` phase of whatever timer encloses the read.
    """

    def __init__(self, layout: GridLayout, period: int, latency: int,
                 profile: Optional[KernelProfile] = None) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.layout = layout
        self.period = period
        self.latency = latency
        self.profile = profile
        self._pending: List[_PendingComputation] = []
        self._current: Optional[AncillaMst] = None
        #: The latest publication while it is not built yet.
        self._unbuilt: Optional[_PendingComputation] = None
        self._last_started: Optional[int] = None
        self.computations_started = 0
        self.computations_completed = 0
        self.trees_built = 0

    @property
    def current(self) -> Optional[AncillaMst]:
        """The latest available MST (``None`` until the first one finishes)."""
        unbuilt = self._unbuilt
        if unbuilt is not None:
            self._unbuilt = None
            with profile_timer(self.profile, "mst_build"):
                self._current = AncillaMst(
                    self.layout, unbuilt.activity_snapshot,
                    snapshot_cycle=unbuilt.started_cycle)
            self.trees_built += 1
        return self._current

    def tick(self, cycle: int,
             activity: Union[np.ndarray, Callable[[], np.ndarray]]) -> None:
        """Advance the pipeline to ``cycle``.

        Starts a new computation if a period boundary has been crossed and
        publishes any computation whose latency has elapsed.  ``activity`` is
        the live slot-ordered activity array used for a newly started
        computation — or a zero-argument callable producing it, which is only
        invoked when a computation actually starts (snapshots are expensive
        and most ticks start nothing).  The pipeline keeps the array itself,
        so it must not be mutated afterwards.
        """
        # Publish finished computations (oldest first).
        still_pending: List[_PendingComputation] = []
        for pending in self._pending:
            if pending.available_cycle <= cycle:
                self._unbuilt = pending
                self.computations_completed += 1
            else:
                still_pending.append(pending)
        self._pending = still_pending

        # Start a new computation at period boundaries.
        if self._last_started is None or cycle - self._last_started >= self.period:
            self._pending.append(_PendingComputation(
                started_cycle=cycle,
                available_cycle=cycle + self.latency,
                activity_snapshot=activity() if callable(activity) else activity,
            ))
            self._last_started = cycle
            self.computations_started += 1


class IncrementalMst:
    """Incrementally maintained MST used for the Section 5.4.1 overhead study.

    :func:`_kruskal` over the slot edge arrays builds the first tree from a
    slot-ordered ``activity`` array (zero when omitted); each edge then
    carries its own weight.  :meth:`update_edge` repairs the tree in the two
    cases that matter on a grid graph:

    * an edge *not* on the MST whose weight decreased — insert it and evict the
      heaviest edge of the (grid-bounded, O(1)-size) cycle it creates;
    * an edge *on* the MST whose weight increased — remove it and reconnect the
      two components with the lightest crossing edge (O(max(rows, cols)) work
      in the paper's analysis; here a search of the smaller component and of
      the graph edges leaving it).
    """

    def __init__(self, layout: GridLayout,
                 activity: Optional[np.ndarray] = None) -> None:
        flat = FlatGrid.for_layout(layout)
        num = flat.num_ancilla
        self._flat = flat
        self._pairs = list(zip(flat.edge_u.tolist(), flat.edge_v.tolist()))
        weights = _edge_weights(
            flat, np.zeros(num) if activity is None else activity)
        self._weights: List[float] = weights.tolist()
        #: Per slot: neighbour slot -> index of the graph edge between them.
        self._graph: List[Dict[int, int]] = [{} for _ in range(num)]
        for edge, (u, v) in enumerate(self._pairs):
            self._graph[u][v] = self._graph[v][u] = edge
        #: Per slot: its tree neighbours.
        self._tree: List[Set[int]] = [
            set(neighbors) for neighbors in _kruskal(flat, weights)]

    def edges(self) -> List[Tuple[Position, Position]]:
        """Every edge of the ancilla graph, in edge-array order."""
        positions = self._flat.anc_positions
        return [(positions[u], positions[v]) for u, v in self._pairs]

    def total_weight(self) -> float:
        return self._weight_of(self._tree)

    def _weight_of(self, adjacency: Sequence[Collection[int]]) -> float:
        return sum(weight for (u, v), weight in zip(self._pairs, self._weights)
                   if v in adjacency[u])

    def update_edge(self, u: Position, v: Position, weight: float) -> None:
        """Update the weight of edge ``(u, v)`` and repair the MST."""
        a = self._flat.slot_of(u)
        b = self._flat.slot_of(v)
        graph = self._graph
        edge = graph[a].get(b) if a >= 0 and b >= 0 else None
        if edge is None:
            raise KeyError(f"({u}, {v}) is not an edge of the ancilla graph")
        weights = self._weights
        old_weight = weights[edge]
        weights[edge] = weight
        tree = self._tree
        if b in tree[a]:
            if weight > old_weight:
                # Case 2: removal + cheapest reconnecting edge (the cut edge
                # itself still crosses, so there always is one).
                tree[a].remove(b)
                tree[b].remove(a)
                side = self._smaller_side(a, b)
                crossing = [(weights[index], x, y) for x in side
                            for y, index in graph[x].items() if y not in side]
                _, x, y = min(crossing)
                tree[x].add(y)
                tree[y].add(x)
        elif weight < old_weight:
            # Case 1: insertion + evict the heaviest edge of the new cycle.
            # a and b are graph neighbours, so one tree component holds both.
            parent = {a: a}
            stack = [a]
            while b not in parent:
                node = stack.pop()
                for neighbor in tree[node]:
                    if neighbor not in parent:
                        parent[neighbor] = node
                        stack.append(neighbor)
            cycle = [b]
            while cycle[-1] != a:
                cycle.append(parent[cycle[-1]])
            x, y = max(zip(cycle, cycle[1:]),
                       key=lambda pair: weights[graph[pair[0]][pair[1]]])
            if weights[graph[x][y]] > weight:
                tree[x].remove(y)
                tree[y].remove(x)
                tree[a].add(b)
                tree[b].add(a)

    def _smaller_side(self, u: int, v: int) -> Set[int]:
        """The tree component of ``u`` or of ``v``, whichever is smaller.

        Grows both searches one node at a time, so the work is proportional
        to the smaller component rather than to the whole tree.
        """
        tree = self._tree
        searches = (({u}, [u]), ({v}, [v]))
        while True:
            for seen, frontier in searches:
                if not frontier:
                    return seen
                for neighbor in tree[frontier.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)

    def matches_full_recompute(self) -> bool:
        """Sanity check: incremental tree weight equals a fresh Kruskal run."""
        fresh = _kruskal(self._flat, self._weights)
        return abs(self.total_weight() - self._weight_of(fresh)) < 1e-9
