"""Tests for tiles, layouts, STAR builders and grid compression."""

import pytest

from repro.fabric import (
    Edge,
    GridLayout,
    StarVariant,
    Tile,
    TileType,
    ancilla_subgraph_connected,
    block_grid_shape,
    compress_layout,
    star_layout,
)


class TestTileAndEdge:
    def test_edge_neighbor(self):
        assert Edge.SOUTH.neighbor((3, 4)) == (4, 4)

    def test_horizontal_boundary_classification(self):
        assert Edge.NORTH.is_horizontal_boundary
        assert Edge.SOUTH.is_horizontal_boundary
        assert not Edge.EAST.is_horizontal_boundary

    def test_tile_predicates(self):
        tile = Tile((0, 0), TileType.DATA, data_index=4)
        assert tile.is_data and not tile.is_ancilla


class TestGridLayout:
    def test_rejects_out_of_bounds_data(self):
        with pytest.raises(ValueError):
            GridLayout(2, 2, {0: (5, 5)})

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValueError):
            GridLayout(2, 2, {0: (0, 0), 1: (0, 0)})

    def test_tile_classification(self):
        layout = GridLayout(2, 2, {0: (0, 0)})
        assert layout.is_data((0, 0))
        assert layout.is_ancilla((0, 1))
        assert layout.num_ancilla == 3

    def test_neighbors_respect_bounds(self):
        layout = GridLayout(2, 2, {0: (0, 0)})
        assert set(layout.neighbors((0, 0))) == {(0, 1), (1, 0)}

    def test_disable_and_enable(self):
        layout = GridLayout(2, 2, {0: (0, 0)})
        layout.disable((1, 1))
        assert layout.is_disabled((1, 1))
        assert layout.num_ancilla == 2
        layout.enable_ancilla((1, 1))
        assert layout.is_ancilla((1, 1))

    def test_cannot_disable_data(self):
        layout = GridLayout(2, 2, {0: (0, 0)})
        with pytest.raises(ValueError):
            layout.disable((0, 0))

    def test_connectivity_detection(self):
        layout = GridLayout(1, 4, {0: (0, 0)})
        assert ancilla_subgraph_connected(layout)
        layout.disable((0, 2))
        assert not ancilla_subgraph_connected(layout)

    def test_copy_preserves_disabled(self):
        layout = GridLayout(2, 2, {0: (0, 0)})
        layout.disable((1, 1))
        clone = layout.copy()
        assert clone.is_disabled((1, 1))
        clone.enable_ancilla((1, 1))
        assert layout.is_disabled((1, 1))

    def test_ascii_art_shape(self):
        art = GridLayout(2, 3, {0: (0, 0)}).ascii_art()
        assert art.splitlines()[0].startswith("D")
        assert len(art.splitlines()) == 2


class TestStarLayouts:
    def test_block_grid_shape(self):
        rows, cols = block_grid_shape(9)
        assert rows * cols >= 9
        assert cols == 3

    def test_star_layout_ancilla_ratio(self):
        layout = star_layout(9, StarVariant.STAR)
        assert layout.num_data_qubits == 9
        assert layout.ancilla_per_data == pytest.approx(3.0)

    def test_star_layout_data_positions_are_block_corners(self):
        layout = star_layout(4, StarVariant.STAR)
        assert layout.data_position(0) == (0, 0)
        assert layout.data_position(3) == (2, 2)

    def test_every_data_qubit_has_ancilla_neighbor(self):
        for count in (1, 4, 9, 16):
            layout = star_layout(count, StarVariant.STAR)
            assert layout.every_data_qubit_has_ancilla_neighbor()

    def test_compact_and_compressed_reduce_ancilla(self):
        star = star_layout(16, StarVariant.STAR)
        compact = star_layout(16, StarVariant.COMPACT)
        compressed = star_layout(16, StarVariant.COMPRESSED)
        assert compact.num_ancilla < star.num_ancilla
        assert compressed.num_ancilla <= compact.num_ancilla

    def test_variant_layouts_keep_ancilla_connected(self):
        for variant in StarVariant:
            layout = star_layout(12, variant)
            assert ancilla_subgraph_connected(layout)
            assert layout.every_data_qubit_has_ancilla_neighbor()

    def test_variant_block_shapes(self):
        assert StarVariant.STAR.ancilla_per_data == 3
        assert StarVariant.COMPACT.ancilla_per_data == 2
        assert StarVariant.COMPRESSED.ancilla_per_data == 1


class TestCompression:
    def test_zero_fraction_is_identity(self):
        layout = star_layout(9, StarVariant.STAR)
        compressed, report = compress_layout(layout, 0.0)
        assert compressed.num_ancilla == layout.num_ancilla
        assert report.removed_positions == ()

    def test_full_compression_reduces_ancilla_but_stays_connected(self):
        layout = star_layout(16, StarVariant.STAR)
        compressed, report = compress_layout(layout, 1.0, seed=3)
        assert compressed.num_ancilla < layout.num_ancilla
        assert ancilla_subgraph_connected(compressed)
        assert compressed.every_data_qubit_has_ancilla_neighbor()
        assert 0.0 < report.achieved_fraction <= 1.0

    def test_compression_monotone_in_fraction(self):
        layout = star_layout(16, StarVariant.STAR)
        counts = []
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            compressed, _ = compress_layout(layout, fraction, seed=1)
            counts.append(compressed.num_ancilla)
        assert counts == sorted(counts, reverse=True)

    def test_original_layout_untouched(self):
        layout = star_layout(9, StarVariant.STAR)
        before = layout.num_ancilla
        compress_layout(layout, 1.0)
        assert layout.num_ancilla == before

    def test_invalid_fraction_rejected(self):
        layout = star_layout(4, StarVariant.STAR)
        with pytest.raises(ValueError):
            compress_layout(layout, 1.5)
        with pytest.raises(ValueError):
            compress_layout(layout, 0.5, ancillas_to_remove_per_block=3)

    def test_report_selected_count_matches_fraction(self):
        layout = star_layout(16, StarVariant.STAR)
        _, report = compress_layout(layout, 0.5, seed=0)
        assert len(report.selected_qubits) == 8

    def test_compression_is_seed_deterministic(self):
        layout = star_layout(16, StarVariant.STAR)
        a, _ = compress_layout(layout, 0.5, seed=7)
        b, _ = compress_layout(layout, 0.5, seed=7)
        assert a.ancilla_positions() == b.ancilla_positions()
