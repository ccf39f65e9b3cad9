"""Power maps: per-grid-cell power for one silicon layer.

The PDN and thermal models consume a ``PowerMap``: a ``g x g`` array of
watts aligned with the model grid over the die.  Each core's power is
spread over its square tile of the die with exact area weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config.stackups import StackConfig
from repro.errors import ReproError
from repro.power.mcpat_lite import CorePowerModel
from repro.utils.validation import check_fraction, check_positive, check_positive_int


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle (metres); ``(x, y)`` is the lower-left."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        check_positive("width", self.width)
        check_positive("height", self.height)

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    def overlap_area(self, other: "Rect") -> float:
        """Area of intersection with ``other`` (0 if disjoint)."""
        dx = min(self.x2, other.x2) - max(self.x, other.x)
        dy = min(self.y2, other.y2) - max(self.y, other.y)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy


class PowerMap:
    """A ``g x g`` grid of per-cell power (W) covering a square die."""

    def __init__(self, cell_power: np.ndarray, die_side: float):
        cell_power = np.asarray(cell_power, dtype=float)
        if cell_power.ndim != 2 or cell_power.shape[0] != cell_power.shape[1]:
            raise ValueError(f"cell_power must be square 2-D, got {cell_power.shape}")
        if not np.all(np.isfinite(cell_power)):
            raise ValueError("cell powers must be finite (NaN/Inf in power map)")
        if np.any(cell_power < 0):
            raise ValueError("cell powers must be non-negative")
        check_positive("die_side", die_side)
        self.cell_power = cell_power
        self.die_side = die_side

    # ------------------------------------------------------------------
    @property
    def grid_nodes(self) -> int:
        return self.cell_power.shape[0]

    @property
    def cell_size(self) -> float:
        return self.die_side / self.grid_nodes

    @property
    def total_power(self) -> float:
        """Total layer power (W)."""
        return float(self.cell_power.sum())

    def currents(self, vdd: float) -> np.ndarray:
        """Per-cell load current (A) under the constant-current model."""
        check_positive("vdd", vdd)
        return self.cell_power / vdd

    def scaled(self, factor: float) -> "PowerMap":
        """A new map with every cell multiplied by ``factor`` >= 0."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return PowerMap(self.cell_power * factor, self.die_side)

    def power_density(self) -> np.ndarray:
        """Per-cell power density (W/m^2)."""
        return self.cell_power / (self.cell_size**2)

    def __add__(self, other: "PowerMap") -> "PowerMap":
        if (
            other.grid_nodes != self.grid_nodes
            or abs(other.die_side - self.die_side) > 1e-12
        ):
            raise ValueError("power maps must share grid and die size to add")
        return PowerMap(self.cell_power + other.cell_power, self.die_side)


def uniform_power_map(
    total_power: float, die_side: float, grid_nodes: int
) -> PowerMap:
    """Spread ``total_power`` uniformly over the die."""
    check_positive("total_power", total_power) if total_power > 0 else None
    if total_power < 0:
        raise ValueError("total_power must be >= 0")
    check_positive("die_side", die_side)
    check_positive_int("grid_nodes", grid_nodes)
    cells = np.full((grid_nodes, grid_nodes), total_power / grid_nodes**2)
    return PowerMap(cells, die_side)


def _add_rect_power(grid: np.ndarray, rect: Rect, density: float, cell: float) -> None:
    """Add ``density`` times each cell's overlap area with ``rect`` to ``grid``.

    A rect/cell overlap is separable into an x and a y extent, so the
    window of cells the rect can touch gets ``density * outer(dy, dx)``.
    The arithmetic is :meth:`Rect.overlap_area`'s, so the sums match a
    per-cell loop bit for bit.
    """
    g = grid.shape[0]
    # Cell index ranges the rectangle can overlap.
    i_lo = max(0, int(np.floor(rect.x / cell)))
    i_hi = min(g - 1, int(np.ceil(rect.x2 / cell)) - 1)
    j_lo = max(0, int(np.floor(rect.y / cell)))
    j_hi = min(g - 1, int(np.ceil(rect.y2 / cell)) - 1)
    if i_hi < i_lo or j_hi < j_lo:
        return  # entirely off the die
    dx = _overlap_extent(rect.x, rect.x2, i_lo, i_hi, cell)
    dy = _overlap_extent(rect.y, rect.y2, j_lo, j_hi, cell)
    grid[j_lo:j_hi + 1, i_lo:i_hi + 1] += density * np.outer(dy, dx)


def _overlap_extent(
    lo: float, hi: float, k_lo: int, k_hi: int, cell: float
) -> np.ndarray:
    """Overlap of ``[lo, hi]`` with cells ``k_lo..k_hi`` (0 when disjoint)."""
    start = np.arange(k_lo, k_hi + 1) * cell
    extent = np.minimum(hi, start + cell) - np.maximum(lo, start)
    return np.where(extent > 0, extent, 0.0)


def layer_power_map(
    stack: StackConfig,
    activity: float = 1.0,
    core_activities: Optional[np.ndarray] = None,
) -> PowerMap:
    """Power map of one silicon layer of the example processor.

    Each core's power is spread uniformly over its square tile.

    Parameters
    ----------
    stack:
        The stack configuration (grid resolution, processor spec).
    activity:
        Dynamic activity factor applied to every core (ignored for cores
        covered by ``core_activities``).
    core_activities:
        Optional per-core activity factors, length ``core_count``, laid
        out row-major over the core grid.
    """
    processor = stack.processor
    model = CorePowerModel(processor)
    rows = cols = int(round(np.sqrt(processor.core_count)))
    if rows * cols != processor.core_count:
        raise ValueError("core_count must be a perfect square for the tile layout")
    if core_activities is None:
        check_fraction("activity", activity)
        core_activities = np.full(processor.core_count, activity)
    core_activities = np.asarray(core_activities, dtype=float)
    if core_activities.shape != (processor.core_count,):
        raise ValueError(
            f"core_activities must have shape ({processor.core_count},), "
            f"got {core_activities.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(core_activities))
    if bad.size:
        raise ReproError(f"core_activities[{int(bad[0])}] is NaN/Inf (core {int(bad[0])})")
    if np.any((core_activities < 0) | (core_activities > 1)):
        raise ValueError("core activities must lie in [0, 1]")

    die_side = processor.die_side
    g = stack.grid_nodes
    grid = np.zeros((g, g))
    tile = die_side / rows
    # Accumulate each core tile's power over the cells it covers
    # (grid_nodes need not divide evenly by rows).
    cell = die_side / g
    for r in range(rows):
        for c in range(cols):
            power = model.core_power(core_activities[r * cols + c])
            outline = Rect(c * tile, r * tile, tile, tile)
            _add_rect_power(grid, outline, power / outline.area, cell)
    return PowerMap(grid, die_side)
