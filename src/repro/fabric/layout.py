"""The logical tile grid (``GridLayout``) onto which programs are mapped.

The layout is *static*: it records which tiles are data, ancilla, or disabled
and which program qubit each data tile holds.  Runtime state (edge
orientation, tile busy times, activity) lives in the simulator.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from .tile import Edge, Position, Tile, TileType

__all__ = ["GridLayout"]


class GridLayout:
    """A ``rows x cols`` grid of tiles.

    Parameters
    ----------
    rows, cols:
        Grid dimensions.
    data_positions:
        Mapping from program qubit index to grid position.  Every listed
        position becomes a DATA tile; all other in-grid positions start as
        ANCILLA tiles.
    name:
        Human-readable layout name (used in reports).
    """

    def __init__(self, rows: int, cols: int,
                 data_positions: Dict[int, Position],
                 name: str = "grid") -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.name = name
        self._tiles: Dict[Position, Tile] = {}
        self._data_positions: Dict[int, Position] = dict(data_positions)

        seen_positions: Set[Position] = set()
        for qubit, position in self._data_positions.items():
            if not self.in_bounds(position):
                raise ValueError(f"data qubit {qubit} at {position} is out of bounds")
            if position in seen_positions:
                raise ValueError(f"two data qubits mapped to {position}")
            seen_positions.add(position)

        for row in range(rows):
            for col in range(cols):
                position = (row, col)
                self._tiles[position] = Tile(position, TileType.ANCILLA)
        for qubit, position in self._data_positions.items():
            self._tiles[position] = Tile(position, TileType.DATA, data_index=qubit)

        #: Monotonic counter bumped on every disable/enable; routing caches
        #: key their validity on it.
        self._version = 0
        self._neighbors: Dict[Position, List[Position]] = {}
        self._ancilla_neighbors: Dict[Position, List[Position]] = {}
        self._ancilla_positions: List[Position] = []
        self._rebuild_adjacency()

    # -- basic queries -----------------------------------------------------------

    @property
    def num_data_qubits(self) -> int:
        return len(self._data_positions)

    @property
    def data_positions(self) -> Dict[int, Position]:
        return dict(self._data_positions)

    def in_bounds(self, position: Position) -> bool:
        row, col = position
        return 0 <= row < self.rows and 0 <= col < self.cols

    def tile(self, position: Position) -> Tile:
        return self._tiles[position]

    def tile_type(self, position: Position) -> TileType:
        return self._tiles[position].tile_type

    def is_ancilla(self, position: Position) -> bool:
        return (self.in_bounds(position)
                and self._tiles[position].tile_type is TileType.ANCILLA)

    def is_data(self, position: Position) -> bool:
        return (self.in_bounds(position)
                and self._tiles[position].tile_type is TileType.DATA)

    def is_disabled(self, position: Position) -> bool:
        return (not self.in_bounds(position)
                or self._tiles[position].tile_type is TileType.DISABLED)

    def data_position(self, qubit: int) -> Position:
        return self._data_positions[qubit]

    def ancilla_positions(self) -> List[Position]:
        return list(self._ancilla_positions)

    def positions(self) -> Iterator[Position]:
        return iter(sorted(self._tiles))

    @property
    def num_ancilla(self) -> int:
        return sum(1 for tile in self._tiles.values() if tile.is_ancilla)

    @property
    def ancilla_per_data(self) -> float:
        if not self._data_positions:
            return 0.0
        return self.num_ancilla / len(self._data_positions)

    # -- adjacency ---------------------------------------------------------------
    #
    # Neighbour lists are precomputed once at construction and maintained by
    # delta on disable/enable, so the routing inner loops never rebuild them.
    # The cached lists are shared (not copied) on return: callers must treat
    # them as read-only.

    @property
    def version(self) -> int:
        """Bumped on every disable/enable; caches key their validity on it."""
        return self._version

    def _raw_neighbors(self, position: Position) -> List[Position]:
        result = []
        for edge in Edge:
            neighbor = edge.neighbor(position)
            if self.in_bounds(neighbor) and not self.is_disabled(neighbor):
                result.append(neighbor)
        return result

    def _rebuild_adjacency(self) -> None:
        self._neighbors = {}
        self._ancilla_neighbors = {}
        for position, tile in self._tiles.items():
            self._refresh_adjacency_entry(position)
        self._ancilla_positions = [pos for pos, tile in sorted(self._tiles.items())
                                   if tile.is_ancilla]

    def _refresh_adjacency_entry(self, position: Position) -> None:
        neighbors = self._raw_neighbors(position)
        self._neighbors[position] = neighbors
        self._ancilla_neighbors[position] = [pos for pos in neighbors
                                             if self._tiles[pos].is_ancilla]

    def _on_tile_changed(self, position: Position) -> None:
        """Delta-refresh adjacency after ``position`` changed type."""
        self._version += 1
        self._refresh_adjacency_entry(position)
        for edge in Edge:
            neighbor = edge.neighbor(position)
            if neighbor in self._tiles:
                self._refresh_adjacency_entry(neighbor)
        self._ancilla_positions = [pos for pos, tile in sorted(self._tiles.items())
                                   if tile.is_ancilla]

    def neighbors(self, position: Position) -> List[Position]:
        """In-bounds, non-disabled neighbours of ``position`` (read-only)."""
        cached = self._neighbors.get(position)
        if cached is not None:
            return cached
        return self._raw_neighbors(position)

    def ancilla_neighbors(self, position: Position) -> List[Position]:
        """Neighbouring ANCILLA tiles of ``position`` (read-only)."""
        cached = self._ancilla_neighbors.get(position)
        if cached is not None:
            return cached
        return [pos for pos in self.neighbors(position) if self.is_ancilla(pos)]

    def ancilla_neighbors_of_qubit(self, qubit: int) -> List[Position]:
        return self.ancilla_neighbors(self._data_positions[qubit])

    # -- mutation (used by compression) --------------------------------------------

    def disable(self, position: Position) -> None:
        """Remove an ancilla tile from the fabric (grid compression)."""
        tile = self._tiles[position]
        if tile.is_data:
            raise ValueError(f"cannot disable data tile at {position}")
        self._tiles[position] = Tile(position, TileType.DISABLED)
        self._on_tile_changed(position)

    def enable_ancilla(self, position: Position) -> None:
        """Re-enable a previously disabled position as an ancilla tile."""
        tile = self._tiles[position]
        if tile.is_data:
            raise ValueError(f"{position} holds a data qubit")
        self._tiles[position] = Tile(position, TileType.ANCILLA)
        self._on_tile_changed(position)

    # -- connectivity ------------------------------------------------------------

    def every_data_qubit_has_ancilla_neighbor(self) -> bool:
        """True when every data qubit retains at least one adjacent ancilla."""
        return all(self.ancilla_neighbors(pos)
                   for pos in self._data_positions.values())

    # -- misc --------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        # The shared routing index and flat-array view (attached by
        # RoutingIndex.for_layout / FlatGrid.for_layout) are per-process
        # caches; keep them out of pickles shipped to workers.
        state = self.__dict__.copy()
        state.pop("_routing_index", None)
        state.pop("_flat_grid", None)
        return state

    def copy(self) -> "GridLayout":
        clone = GridLayout(self.rows, self.cols, self._data_positions,
                           name=self.name)
        for position, tile in self._tiles.items():
            if tile.is_disabled:
                clone.disable(position)
        return clone

    def ascii_art(self) -> str:
        """Render the grid for debugging: D=data, .=ancilla, space=disabled."""
        lines = []
        for row in range(self.rows):
            chars = []
            for col in range(self.cols):
                tile = self._tiles[(row, col)]
                if tile.is_data:
                    chars.append("D")
                elif tile.is_ancilla:
                    chars.append(".")
                else:
                    chars.append(" ")
            lines.append("".join(chars))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GridLayout(name={self.name!r}, {self.rows}x{self.cols}, "
                f"data={self.num_data_qubits}, ancilla={self.num_ancilla})")
