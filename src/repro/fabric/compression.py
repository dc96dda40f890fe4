"""Grid compression: trading ancilla availability for space (Section 5.3).

The paper's hardware/software co-design study incrementally compresses the
STAR grid: data qubits are chosen at random and their 2x2 block is reduced
towards a 2x1 block "while still ensuring the grid remains connected"
(Figure 15).  Compression between 0% (3 ancilla per data) and 100% (ideally 1
ancilla per data) is then swept in Figure 14.

Reproduction note (documented in DESIGN.md): our simulator routes CNOTs over
*ancilla-only* paths, so we additionally require that the ancilla subgraph
remains connected and that every data qubit keeps at least one ancilla
neighbour — otherwise some CNOTs could never execute and the simulation would
deadlock.  A requested removal that would violate either invariant is skipped,
so very high requested compressions may achieve a slightly higher
ancilla-per-data ratio than the ideal 1.0; the achieved ratio is reported in
:class:`CompressionReport` and printed by the Figure 14 harness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from .layout import GridLayout
from .tile import Position

__all__ = ["CompressionReport", "ancilla_subgraph_connected",
           "compress_layout"]


@dataclass
class CompressionReport:
    """Outcome of a :func:`compress_layout` call."""

    requested_fraction: float
    #: Data qubits selected for compression.
    selected_qubits: Tuple[int, ...]
    #: Ancilla tiles actually removed.
    removed_positions: Tuple[Position, ...]
    #: Removals that were skipped to preserve connectivity.
    skipped_positions: Tuple[Position, ...]
    ancilla_per_data_before: float
    ancilla_per_data_after: float

    @property
    def achieved_fraction(self) -> float:
        """Fraction of the ideal ancilla reduction that was actually realised.

        0% compression keeps 3 ancilla per data, ideal 100% keeps 1; the
        achieved fraction interpolates on the ancilla-per-data axis.
        """
        span = self.ancilla_per_data_before - 1.0
        if span <= 0:
            return 0.0
        achieved = self.ancilla_per_data_before - self.ancilla_per_data_after
        return max(0.0, min(1.0, achieved / span))


def ancilla_subgraph_connected(layout: GridLayout) -> bool:
    """True when the ancilla tiles form a single connected component.

    Ancilla connectivity is what routing actually needs: every lattice-surgery
    path is a contiguous chain of ancilla tiles (Section 3.1).
    """
    ancillas = layout.ancilla_positions()
    if len(ancillas) <= 1:
        return True
    ancilla_set = set(ancillas)
    seen: Set[Position] = {ancillas[0]}
    queue = deque([ancillas[0]])
    while queue:
        current = queue.popleft()
        for neighbor in layout.neighbors(current):
            if neighbor in ancilla_set and neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return len(seen) == len(ancilla_set)


def _removal_allowed(layout: GridLayout, position: Position) -> bool:
    """Check the two invariants for removing ``position`` from ``layout``."""
    layout.disable(position)
    try:
        if not layout.every_data_qubit_has_ancilla_neighbor():
            return False
        if not ancilla_subgraph_connected(layout):
            return False
        return True
    finally:
        layout.enable_ancilla(position)


def compress_layout(layout: GridLayout, fraction: float,
                    seed: int = 0,
                    ancillas_to_remove_per_block: int = 2) -> Tuple[GridLayout,
                                                                    CompressionReport]:
    """Compress ``fraction`` of the data-qubit blocks of a STAR layout.

    Parameters
    ----------
    layout:
        The uncompressed layout (typically ``star_layout(n, StarVariant.STAR)``).
        The input is not modified; a compressed copy is returned.
    fraction:
        Fraction of data qubits whose block is compressed, in ``[0, 1]``.
    seed:
        Seed for the random choice of which data qubits to compress (the paper
        chooses "a data qubit at random", Section 5.3).
    ancillas_to_remove_per_block:
        2 turns a 2x2 block into a 2x1 block (the paper's sweep); 1 produces
        the intermediate compact-STAR-like 3-tile block.

    Returns
    -------
    (compressed_layout, report)
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if ancillas_to_remove_per_block not in (1, 2):
        raise ValueError("ancillas_to_remove_per_block must be 1 or 2")

    compressed = layout.copy()
    before_ratio = compressed.ancilla_per_data

    rng = np.random.default_rng(seed)
    qubits = list(range(layout.num_data_qubits))
    rng.shuffle(qubits)
    num_selected = int(round(fraction * len(qubits)))
    selected = tuple(sorted(qubits[:num_selected]))

    removed: List[Position] = []
    skipped: List[Position] = []
    for qubit in selected:
        # Prefer removing the south-east (diagonal) ancilla first: it is the
        # least useful for injection (not edge-adjacent to the data qubit),
        # then the south ancilla, keeping the east ancilla as the surviving
        # 2x1 partner.
        row, col = compressed.data_position(qubit)
        preference = [(row + 1, col + 1), (row + 1, col), (row, col + 1)]
        candidates = [pos for pos in preference if compressed.is_ancilla(pos)]
        removals_done = 0
        for position in candidates:
            if removals_done >= ancillas_to_remove_per_block:
                break
            if _removal_allowed(compressed, position):
                compressed.disable(position)
                removed.append(position)
                removals_done += 1
            else:
                skipped.append(position)

    report = CompressionReport(
        requested_fraction=fraction,
        selected_qubits=selected,
        removed_positions=tuple(removed),
        skipped_positions=tuple(skipped),
        ancilla_per_data_before=before_ratio,
        ancilla_per_data_after=compressed.ancilla_per_data,
    )
    compressed.name = f"{layout.name}_c{int(round(fraction * 100))}"
    return compressed, report
