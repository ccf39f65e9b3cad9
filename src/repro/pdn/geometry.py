"""Die / grid geometry helpers shared by the PDN builders.

The electrical model discretises each power net into ``g x g`` nodes over
the (square) die.  Physical objects — C4 pads, TSVs, SC converters — are
placed at physical coordinates and then binned to their nearest grid
cell; several objects landing in one cell become a *bundle*: one
equivalent resistor of ``R / multiplicity`` whose per-conductor current
is recovered by dividing the bundle current by the multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.config.stackups import StackConfig
from repro.utils.validation import check_positive, check_positive_int

Cell = Tuple[int, int]
CellMultiplicity = Dict[Cell, int]


@dataclass(frozen=True)
class GridGeometry:
    """Grid discretisation of one die."""

    #: Nodes per die side.
    grid_nodes: int
    #: Die side length (m).
    die_side: float
    #: Core array dimensions (rows == cols for the example processor).
    core_rows: int
    core_cols: int

    def __post_init__(self) -> None:
        check_positive_int("grid_nodes", self.grid_nodes)
        check_positive("die_side", self.die_side)
        check_positive_int("core_rows", self.core_rows)
        check_positive_int("core_cols", self.core_cols)

    @classmethod
    def from_stack(cls, stack: StackConfig) -> "GridGeometry":
        rows = cols = int(round(math.sqrt(stack.processor.core_count)))
        if rows * cols != stack.processor.core_count:
            raise ValueError("core_count must be a perfect square")
        return cls(
            grid_nodes=stack.grid_nodes,
            die_side=stack.processor.die_side,
            core_rows=rows,
            core_cols=cols,
        )

    @property
    def cell_size(self) -> float:
        return self.die_side / self.grid_nodes

    @property
    def core_count(self) -> int:
        return self.core_rows * self.core_cols

    def cell_of_point(self, x: float, y: float) -> Cell:
        """Grid cell (row j, col i) containing physical point (x, y)."""
        g = self.grid_nodes
        i = min(g - 1, max(0, int(x / self.cell_size)))
        j = min(g - 1, max(0, int(y / self.cell_size)))
        return (j, i)

    def core_tile_origin(self, core_row: int, core_col: int) -> Tuple[float, float]:
        """Physical lower-left corner of a core tile."""
        tile_w = self.die_side / self.core_cols
        tile_h = self.die_side / self.core_rows
        return core_col * tile_w, core_row * tile_h

    def core_of_cell(self, cell: Cell) -> Tuple[int, int]:
        """(core_row, core_col) that a grid cell belongs to."""
        j, i = cell
        x = (i + 0.5) * self.cell_size
        y = (j + 0.5) * self.cell_size
        col = min(self.core_cols - 1, int(x / (self.die_side / self.core_cols)))
        row = min(self.core_rows - 1, int(y / (self.die_side / self.core_rows)))
        return row, col


def _lattice_points(count: int, width: float, height: float) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` points spread evenly over a width x height rectangle.

    Uses the smallest near-square lattice with at least ``count`` sites
    and keeps the first ``count`` in row-major order; points sit at cell
    centres of that lattice, so they never touch the rectangle boundary.
    Returns the aligned ``(x, y)`` coordinate arrays.
    """
    check_positive_int("count", count)
    cols = int(math.ceil(math.sqrt(count * width / height)))
    cols = max(cols, 1)
    rows = int(math.ceil(count / cols))
    site = np.arange(count)
    x = (np.arange(cols) + 0.5) * width / cols
    y = (np.arange(rows) + 0.5) * height / rows
    return x[site % cols], y[site // cols]


def _cell_index(geometry: GridGeometry, coord: np.ndarray) -> np.ndarray:
    """Grid index along one axis, exactly as :meth:`GridGeometry.cell_of_point`."""
    index = (coord / geometry.cell_size).astype(np.int64)
    return np.clip(index, 0, geometry.grid_nodes - 1)


def _bin_points(geometry: GridGeometry, j: np.ndarray, i: np.ndarray) -> CellMultiplicity:
    """Count points per cell from their (row j, col i) grid indices."""
    g = geometry.grid_nodes
    counts = np.bincount((j * g + i).ravel(), minlength=g * g)
    flat = np.flatnonzero(counts)
    rows, cols = np.divmod(flat, g)
    return dict(zip(zip(rows.tolist(), cols.tolist()), counts[flat].tolist()))


def distribute_uniform(geometry: GridGeometry, count: int) -> CellMultiplicity:
    """Spread ``count`` objects uniformly over the whole die.

    Returns per-cell multiplicities summing exactly to ``count``.
    """
    x, y = _lattice_points(count, geometry.die_side, geometry.die_side)
    return _bin_points(geometry, _cell_index(geometry, y), _cell_index(geometry, x))


def distribute_per_core(geometry: GridGeometry, count_per_core: int) -> CellMultiplicity:
    """Spread ``count_per_core`` objects uniformly within every core tile.

    Matches the paper's assumption that TSVs (Sec. 4.2) and SC converters
    (Sec. 3.2) are uniformly distributed within each core.  One core's
    lattice is tiled over every core origin (:meth:`GridGeometry.core_tile_origin`).
    """
    check_positive_int("count_per_core", count_per_core)
    tile_w = geometry.die_side / geometry.core_cols
    tile_h = geometry.die_side / geometry.core_rows
    x, y = _lattice_points(count_per_core, tile_w, tile_h)
    # (core_col, point) and (core_row, point) indices; x depends only on
    # the core column and y only on the core row.
    i = _cell_index(geometry, np.arange(geometry.core_cols)[:, None] * tile_w + x)
    j = _cell_index(geometry, np.arange(geometry.core_rows)[:, None] * tile_h + y)
    return _bin_points(geometry, j[:, None, :], i[None, :, :])


def cells_to_arrays(cells: CellMultiplicity):
    """Split a cell->multiplicity map into aligned (j, i, m) arrays."""
    if not cells:
        raise ValueError("cells must be non-empty")
    items = sorted(cells.items())
    j = np.array([c[0] for c, _ in items], dtype=int)
    i = np.array([c[1] for c, _ in items], dtype=int)
    m = np.array([mult for _, mult in items], dtype=int)
    return j, i, m
