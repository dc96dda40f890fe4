"""Slot-numbered view of one :class:`GridLayout` revision.

The object-graph layout (``Tile`` dataclasses in dicts, neighbour lists of
tuples) is convenient for construction and mutation but slow to traverse in
the routing/MST hot loops.  :class:`FlatGrid` numbers the ancilla tiles of
one layout *revision* and is the one tile identity inside a run:

* every ancilla tile gets a dense **slot** in row-major order (matching
  :meth:`GridLayout.ancilla_positions`), so comparing slots is exactly the
  tuple order of ``Position``; the fabric state, the activity tracker, the
  ancilla queues, the routing index and the MST all index tiles by slot;
* ``neighbors`` lists, per slot, the slots of its ancilla neighbours in
  :class:`~repro.fabric.tile.Edge` declaration order (NORTH, SOUTH, EAST,
  WEST) — the exact transition relation of
  :func:`~repro.lattice.routing.bfs_ancilla_path`, walked by the routing
  BFS;
* the activity-graph edge list (``edge_u``/``edge_v``) is in the insertion
  order of the networkx activity graph the tests use as the MST oracle, so
  stable sorts over these arrays reproduce its tie-breaks.

Positions cross into and out of slot numbering only through
:meth:`FlatGrid.slot_of` and :attr:`FlatGrid.anc_positions`, where a layout
is built or read.

A ``FlatGrid`` is immutable and keyed to ``layout.version``:
:meth:`for_layout` caches one per layout and rebuilds it after any
disable/enable.  Consumers must treat every list and array as read-only.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .tile import Position
from .layout import GridLayout

__all__ = ["FlatGrid"]


class FlatGrid:
    """Immutable slot-numbered snapshot of one layout revision."""

    __slots__ = ("layout", "version", "num_ancilla", "anc_positions",
                 "_slots", "neighbors", "edge_u", "edge_v")

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self.version = layout.version
        #: slot -> ancilla Position (row-major).
        self.anc_positions: List[Position] = layout.ancilla_positions()
        self.num_ancilla = len(self.anc_positions)
        self._slots: Dict[Position, int] = {
            position: slot for slot, position in enumerate(self.anc_positions)}
        slots = self._slots
        #: Per slot: Edge-order neighbour slots (what the routing BFS walks).
        self.neighbors: List[List[int]] = [
            [slots[neighbor] for neighbor in layout.ancilla_neighbors(position)]
            for position in self.anc_positions]
        # Activity-graph edges (u, v) with u < v, enumerated u-ascending then
        # Edge order — the insertion (and hence iteration) order of the
        # networkx graph the tests build as the MST oracle.
        edges = np.array([(u, v) for u, row in enumerate(self.neighbors)
                          for v in row if v > u],
                         dtype=np.int32).reshape(-1, 2)
        self.edge_u = edges[:, 0]
        self.edge_v = edges[:, 1]

    def slot_of(self, position: Position) -> int:
        """Slot of ``position`` (-1 when it is not an ancilla tile)."""
        return self._slots.get(position, -1)

    def qubit_neighbors(self, qubit: int) -> List[int]:
        """Slots of data qubit ``qubit``'s ancilla neighbours, Edge order."""
        slots = [self._slots[position] for position
                 in self.layout.ancilla_neighbors_of_qubit(qubit)]
        if not slots:
            raise RuntimeError(
                f"data qubit {qubit} has no ancilla neighbour; the layout "
                "must leave every data qubit an adjacent ancilla tile")
        return slots

    # -- cache ------------------------------------------------------------------

    @classmethod
    def for_layout(cls, layout: GridLayout) -> "FlatGrid":
        """The cached flat view of ``layout``'s current revision.

        Rebuilt from scratch whenever the layout's version moved (rebuilds
        are rare — grid compression mutates the layout before a run, not
        during it).
        """
        flat = getattr(layout, "_flat_grid", None)
        if flat is None or flat.version != layout.version:
            flat = cls(layout)
            layout._flat_grid = flat
        return flat
