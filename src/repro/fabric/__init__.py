"""Surface-code fabric: tiles, STAR layouts, and grid compression."""

from .compression import (
    CompressionReport,
    ancilla_subgraph_connected,
    compress_layout,
)
from .layout import GridLayout
from .star import StarVariant, block_grid_shape, star_layout
from .tile import Edge, Position, Tile, TileType

__all__ = [
    "Edge",
    "Position",
    "Tile",
    "TileType",
    "GridLayout",
    "StarVariant",
    "star_layout",
    "block_grid_shape",
    "CompressionReport",
    "compress_layout",
    "ancilla_subgraph_connected",
]
