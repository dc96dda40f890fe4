"""Tiles of the surface-code fabric.

A *tile* is a ``d x d`` rotated-surface-code patch position in the logical
grid.  Tiles are either **data** tiles (hold a program qubit), **ancilla**
tiles (used for routing, |m_theta> preparation and injection), or
**disabled** positions (removed by grid compression, Section 5.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

__all__ = ["TileType", "Position", "Edge", "Tile"]


#: Grid coordinate, ``(row, column)``.
Position = Tuple[int, int]


class TileType(enum.Enum):
    """Role of a tile in the logical fabric."""

    DATA = "data"
    ANCILLA = "ancilla"
    DISABLED = "disabled"


class Edge(enum.Enum):
    """The four boundaries of a tile.

    Following Figure 2, the **horizontal** boundaries (NORTH/SOUTH) of a data
    patch expose the **Z** edge in the default orientation and the vertical
    boundaries (EAST/WEST) expose the **X** edge.  An edge-rotation gate swaps
    the two (Section 3.1).
    """

    NORTH = (-1, 0)
    SOUTH = (1, 0)
    EAST = (0, 1)
    WEST = (0, -1)

    @property
    def is_horizontal_boundary(self) -> bool:
        """True for NORTH/SOUTH (the boundaries that are horizontal lines)."""
        return self in (Edge.NORTH, Edge.SOUTH)

    def neighbor(self, position: Position) -> Position:
        row, col = position
        d_row, d_col = self.value
        return (row + d_row, col + d_col)


@dataclass(frozen=True)
class Tile:
    """A single tile of the fabric."""

    position: Position
    tile_type: TileType
    #: Program qubit index for DATA tiles, ``None`` otherwise.
    data_index: int = None  # type: ignore[assignment]

    @property
    def is_data(self) -> bool:
        return self.tile_type is TileType.DATA

    @property
    def is_ancilla(self) -> bool:
        return self.tile_type is TileType.ANCILLA

    @property
    def is_disabled(self) -> bool:
        return self.tile_type is TileType.DISABLED
