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

The module also provides the incremental-update structure analysed in
Section 5.4.1 (O(1) insertions on grid cycles, O(max(rows, cols)) deletions)
used by the classical-overhead benchmark.  It and :func:`build_activity_graph`
are the only networkx users in the product, so they import it on first use
and a simulation never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..fabric import GridLayout, Position
from ..fabric.flat import FlatGrid
from ..kernel.profiler import KernelProfile, profile_timer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = ["activity_array", "build_activity_graph", "AncillaMst",
           "AsyncMstPipeline", "IncrementalMst"]


def activity_array(layout: GridLayout,
                   activity: Mapping[Position, float]) -> np.ndarray:
    """A ``{Position: activity}`` map as a slot-ordered array (missing = 0)."""
    get = activity.get
    return np.array([get(position, 0.0)
                     for position in FlatGrid.for_layout(layout).anc_positions],
                    dtype=np.float64)


def build_activity_graph(layout: GridLayout,
                         activity: Mapping[Position, float]) -> "nx.Graph":
    """Weighted graph over ancilla tiles: w(u, v) = max(activity_u, activity_v)."""
    import networkx as nx

    graph = nx.Graph()
    ancillas = layout.ancilla_positions()
    graph.add_nodes_from(ancillas)
    ancilla_set = set(ancillas)
    for position in ancillas:
        for neighbor in layout.neighbors(position):
            if neighbor in ancilla_set and position < neighbor:
                weight = max(activity.get(position, 0.0),
                             activity.get(neighbor, 0.0))
                graph.add_edge(position, neighbor, weight=weight)
    return graph


class AncillaMst:
    """An immutable activity-weighted MST snapshot with path queries.

    ``activity`` is one float per ancilla slot of the layout's
    :class:`~repro.fabric.flat.FlatGrid` (see :func:`activity_array`).
    Edge weights are computed in one numpy pass, Kruskal runs as a stable
    argsort plus an inlined union-find sweep (path halving) that writes
    accepted edges straight into the tree adjacency, and the resulting
    forest is rooted once so that path queries are LCA walks over
    parent/depth lists instead of per-pair BFS.  Path queries are not
    memoised: plan choice builds only the winning pair's path, so a pair is
    rarely asked for twice.

    Tree identity with the networkx reference: the flat edge arrays
    enumerate edges in the exact insertion order of
    :func:`build_activity_graph` (slot-ascending, then Edge order), and
    ``nx.minimum_spanning_tree(..., algorithm="kruskal")`` processes edges
    with a *stable* sort over that same order — so a stable argsort admits
    the identical edge set (acceptance depends only on connectivity, not on
    how the union-find compresses).  Tree paths are unique, so path queries
    agree regardless of traversal order.
    """

    def __init__(self, layout: GridLayout, activity: np.ndarray,
                 snapshot_cycle: int = 0) -> None:
        self.snapshot_cycle = snapshot_cycle
        flat = FlatGrid.for_layout(layout)
        self._flat = flat
        num = flat.num_ancilla
        if len(activity) != num:
            raise ValueError(f"activity has {len(activity)} values, the "
                             f"layout has {num} ancilla slots")

        # Kruskal over the flat edge arrays (see class docstring).
        adjacency: List[List[int]] = [[] for _ in range(num)]
        if flat.edge_u.size:
            weights = np.maximum(activity[flat.edge_u], activity[flat.edge_v])
            order = np.argsort(weights, kind="stable")
            uf_parent = list(range(num))
            missing = num - 1
            for u, v in zip(flat.edge_u[order].tolist(),
                            flat.edge_v[order].tolist()):
                # Find both roots, pointing each node passed at its
                # grandparent on the way up (path halving).
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

    Two update cases matter on a grid graph:

    * an edge *not* on the MST whose weight decreased — insert it and evict the
      heaviest edge of the (grid-bounded, O(1)-size) cycle it creates;
    * an edge *on* the MST whose weight increased — remove it and reconnect the
      two components with the lightest crossing edge (O(max(rows, cols)) work
      in the paper's analysis; here a search of the smaller component and of
      the graph edges leaving it).

    The implementation favours clarity over raw speed; the benchmark compares
    it against full recomputation to demonstrate the asymptotic win.
    """

    def __init__(self, layout: GridLayout,
                 activity: Optional[Mapping[Position, float]] = None) -> None:
        import networkx as nx

        self.layout = layout
        self.graph = build_activity_graph(layout, activity or {})
        self._tree = nx.minimum_spanning_tree(self.graph, weight="weight")

    def total_weight(self) -> float:
        return sum(data["weight"] for _, _, data in self._tree.edges(data=True))

    def update_edge(self, u: Position, v: Position, weight: float) -> None:
        """Update the weight of edge ``(u, v)`` and repair the MST."""
        import networkx as nx

        if not self.graph.has_edge(u, v):
            raise KeyError(f"({u}, {v}) is not an edge of the ancilla graph")
        old_weight = self.graph.edges[u, v]["weight"]
        self.graph.edges[u, v]["weight"] = weight
        on_tree = self._tree.has_edge(u, v)

        if on_tree:
            self._tree.edges[u, v]["weight"] = weight
            if weight > old_weight:
                # Case 2: removal + cheapest reconnecting edge.
                self._tree.remove_edge(u, v)
                side = self._smaller_side(u, v)
                best = None
                for a in side:
                    for b, data in self.graph.adj[a].items():
                        if b not in side and (best is None
                                              or data["weight"] < best[2]):
                            best = (a, b, data["weight"])
                if best is None:  # pragma: no cover - disconnected ancilla graph
                    self._tree.add_edge(u, v, weight=weight)
                else:
                    self._tree.add_edge(best[0], best[1], weight=best[2])
        else:
            if weight < old_weight:
                # Case 1: insertion + evict the heaviest edge of the new cycle.
                try:
                    cycle_path = nx.shortest_path(self._tree, u, v)
                except nx.NetworkXNoPath:  # pragma: no cover - degenerate
                    self._tree.add_edge(u, v, weight=weight)
                    return
                heaviest = max(zip(cycle_path, cycle_path[1:]),
                               key=lambda edge: self._tree.edges[edge]["weight"])
                if self._tree.edges[heaviest]["weight"] > weight:
                    self._tree.remove_edge(*heaviest)
                    self._tree.add_edge(u, v, weight=weight)

    def _smaller_side(self, u: Position, v: Position) -> set:
        """The tree component of ``u`` or of ``v``, whichever is smaller.

        Grows both searches one node at a time, so the work is proportional
        to the smaller component rather than to the whole tree.
        """
        adjacency = self._tree.adj
        searches = (({u}, [u]), ({v}, [v]))
        while True:
            for seen, frontier in searches:
                if not frontier:
                    return seen
                for neighbor in adjacency[frontier.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)

    def matches_full_recompute(self) -> bool:
        """Sanity check: incremental tree weight equals a fresh Kruskal run."""
        import networkx as nx

        fresh = nx.minimum_spanning_tree(self.graph, weight="weight")
        fresh_weight = sum(d["weight"] for _, _, d in fresh.edges(data=True))
        return abs(self.total_weight() - fresh_weight) < 1e-9
