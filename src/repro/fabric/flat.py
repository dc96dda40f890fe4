"""Struct-of-arrays view of one :class:`GridLayout` revision.

The object-graph layout (``Tile`` dataclasses in dicts, neighbour lists of
tuples) is convenient for construction and mutation but slow to traverse in
the routing/MST hot loops.  :class:`FlatGrid` flattens one layout *revision*
into numpy arrays:

* ``row * cols + col`` is the **flat index** of a tile — note that comparing
  flat indices is exactly the row-major tuple order of ``Position``;
* ``route_adjacency`` lists, per tile, the flat indices of its ancilla
  neighbours in :class:`~repro.fabric.tile.Edge` declaration order (NORTH,
  SOUTH, EAST, WEST), skipping out-of-bounds, disabled and data neighbours
  — the exact transition relation of
  :func:`~repro.lattice.routing.bfs_ancilla_path`, walked by the routing
  BFS;
* ancilla tiles additionally get a dense **slot** numbering in row-major
  order (matching :meth:`GridLayout.ancilla_positions`) and the
  activity-graph edge list (``edge_u``/``edge_v``) in the insertion order
  of the networkx activity graph the tests use as the MST oracle, so stable
  sorts over these arrays reproduce its tie-breaks.

A ``FlatGrid`` is immutable and keyed to ``layout.version``:
:meth:`for_layout` caches one per layout and rebuilds it after any
disable/enable.  Consumers must treat every array as read-only.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .tile import Position
from .layout import GridLayout

__all__ = ["FlatGrid"]

#: Edge declaration order (NORTH, SOUTH, EAST, WEST) as (d_row, d_col).
_EDGE_OFFSETS = ((-1, 0), (1, 0), (0, 1), (0, -1))


class FlatGrid:
    """Immutable flat-array snapshot of one layout revision."""

    __slots__ = (
        "layout", "version", "rows", "cols", "size",
        "ancilla_mask", "route_adjacency", "num_ancilla", "anc_slot",
        "edge_u", "edge_v", "_positions", "anc_positions",
    )

    def __init__(self, layout: GridLayout) -> None:
        self.layout = layout
        self.version = layout.version
        rows, cols = layout.rows, layout.cols
        self.rows = rows
        self.cols = cols
        size = rows * cols
        self.size = size

        ancilla_mask = np.zeros(size, dtype=bool)
        for flat_index, position in enumerate(self._iter_positions()):
            if layout.tile(position).is_ancilla:
                ancilla_mask[flat_index] = True
        self.ancilla_mask = ancilla_mask

        # (size, 4) flat index of each Edge-order neighbour that is an
        # ancilla tile; -1 for out-of-bounds / disabled / data neighbours.
        grid = np.arange(size, dtype=np.int32).reshape(rows, cols)
        route_neighbors = np.full((size, 4), -1, dtype=np.int32)
        for axis, (d_row, d_col) in enumerate(_EDGE_OFFSETS):
            shifted = np.full((rows, cols), -1, dtype=np.int32)
            src_r = slice(max(d_row, 0), rows + min(d_row, 0))
            dst_r = slice(max(-d_row, 0), rows + min(-d_row, 0))
            src_c = slice(max(d_col, 0), cols + min(d_col, 0))
            dst_c = slice(max(-d_col, 0), cols + min(-d_col, 0))
            shifted[dst_r, dst_c] = grid[src_r, src_c]
            column = shifted.ravel()
            valid = column >= 0
            keep = valid.copy()
            keep[valid] &= ancilla_mask[column[valid]]
            route_neighbors[keep, axis] = column[keep]
        #: The same relation as per-tile Python lists (non-negative entries,
        #: Edge order): what the routing BFS walks node by node.
        self.route_adjacency: List[List[int]] = [
            [n for n in row if n >= 0] for row in route_neighbors.tolist()]

        # Dense ancilla slots in row-major (== flat index) order; matches
        # GridLayout.ancilla_positions() exactly.
        anc_flat = np.flatnonzero(ancilla_mask).astype(np.int32)
        self.num_ancilla = int(anc_flat.size)
        anc_slot = np.full(size, -1, dtype=np.int32)
        anc_slot[anc_flat] = np.arange(self.num_ancilla, dtype=np.int32)
        self.anc_slot = anc_slot

        # Per-slot Edge-order neighbour slots (-1 where none).
        neighbor_flats = route_neighbors[anc_flat]
        anc_neighbor_slots = np.full_like(neighbor_flats, -1)
        valid = neighbor_flats >= 0
        anc_neighbor_slots[valid] = anc_slot[neighbor_flats[valid]]

        # Activity-graph edges (u, v) with u < v, enumerated u-ascending then
        # Edge order — the insertion (and hence iteration) order of the
        # networkx graph the tests build as the MST oracle.
        u_col = np.repeat(np.arange(self.num_ancilla, dtype=np.int32), 4)
        v_col = anc_neighbor_slots.ravel()
        keep = (v_col >= 0) & (v_col > u_col)
        self.edge_u = u_col[keep]
        self.edge_v = v_col[keep]

        #: flat index -> Position as plain python int tuples (path output
        #: must be byte-compatible with the object-graph BFS).
        self._positions: List[Position] = list(self._iter_positions())
        #: slot -> ancilla Position.
        self.anc_positions: List[Position] = [self._positions[flat]
                                              for flat in anc_flat.tolist()]

    def _iter_positions(self):
        cols = self.layout.cols
        for flat_index in range(self.layout.rows * cols):
            yield (flat_index // cols, flat_index % cols)

    # -- conversions -----------------------------------------------------------

    def flat_index(self, position: Position) -> int:
        """Flat index of ``position`` (may be out of bounds: returns -1)."""
        row, col = position
        if 0 <= row < self.rows and 0 <= col < self.cols:
            return row * self.cols + col
        return -1

    def position(self, flat_index: int) -> Position:
        return self._positions[flat_index]

    def slot_of(self, position: Position) -> int:
        """Dense ancilla slot of ``position`` (-1 when not an ancilla)."""
        flat = self.flat_index(position)
        return int(self.anc_slot[flat]) if flat >= 0 else -1

    # -- cache ------------------------------------------------------------------

    @classmethod
    def for_layout(cls, layout: GridLayout) -> "FlatGrid":
        """The cached flat view of ``layout``'s current revision.

        Rebuilt from scratch whenever the layout's version moved (rebuilds
        are rare — grid compression mutates the layout before a run, not
        during it — and vectorised, so a full rebuild beats delta patching).
        """
        flat = getattr(layout, "_flat_grid", None)
        if flat is None or flat.version != layout.version:
            flat = cls(layout)
            layout._flat_grid = flat
        return flat
