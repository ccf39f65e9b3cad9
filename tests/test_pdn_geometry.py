"""Grid geometry and physical-object distribution."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config.stackups import StackConfig
from repro.pdn.geometry import (
    GridGeometry,
    cells_to_arrays,
    distribute_per_core,
    distribute_uniform,
)


@pytest.fixture(scope="module")
def geometry():
    return GridGeometry.from_stack(StackConfig(n_layers=2, grid_nodes=8))


class TestGridGeometry:
    def test_from_stack(self, geometry):
        assert geometry.grid_nodes == 8
        assert geometry.core_rows == 4 and geometry.core_cols == 4

    def test_cell_of_point_corners(self, geometry):
        assert geometry.cell_of_point(0.0, 0.0) == (0, 0)
        side = geometry.die_side
        assert geometry.cell_of_point(side * 0.999, side * 0.999) == (7, 7)

    def test_cell_of_point_clamps_outside(self, geometry):
        assert geometry.cell_of_point(-1.0, -1.0) == (0, 0)
        assert geometry.cell_of_point(1.0, 1.0) == (7, 7)

    def test_core_of_cell(self, geometry):
        assert geometry.core_of_cell((0, 0)) == (0, 0)
        assert geometry.core_of_cell((7, 7)) == (3, 3)

    def test_core_tile_origin(self, geometry):
        x, y = geometry.core_tile_origin(1, 2)
        tile = geometry.die_side / 4
        assert x == pytest.approx(2 * tile)
        assert y == pytest.approx(1 * tile)

    def test_non_square_core_count_rejected(self):
        from repro.config.stackups import ProcessorSpec

        stack = StackConfig(
            n_layers=2, grid_nodes=8, processor=ProcessorSpec(core_count=6)
        )
        with pytest.raises(ValueError, match="perfect square"):
            GridGeometry.from_stack(stack)


class TestDistribution:
    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_uniform_conserves_count(self, count):
        geometry = GridGeometry(grid_nodes=8, die_side=1e-3, core_rows=2, core_cols=2)
        cells = distribute_uniform(geometry, count)
        assert sum(cells.values()) == count

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_per_core_conserves_count(self, per_core):
        geometry = GridGeometry(grid_nodes=8, die_side=1e-3, core_rows=2, core_cols=2)
        cells = distribute_per_core(geometry, per_core)
        assert sum(cells.values()) == per_core * geometry.core_count

    def test_per_core_covers_every_core(self):
        geometry = GridGeometry(grid_nodes=8, die_side=1e-3, core_rows=4, core_cols=4)
        cells = distribute_per_core(geometry, 10)
        cores_hit = {geometry.core_of_cell(c) for c in cells}
        assert len(cores_hit) == 16

    def test_uniform_spreads_over_die(self):
        geometry = GridGeometry(grid_nodes=8, die_side=1e-3, core_rows=2, core_cols=2)
        cells = distribute_uniform(geometry, 64)
        # 64 objects over 64 cells of an 8x8 grid: every cell hit once.
        assert len(cells) == 64
        assert all(m == 1 for m in cells.values())

    @staticmethod
    def _cell_of_point_oracle(geometry, points):
        """Row-major binning through ``GridGeometry.cell_of_point``, one
        point at a time: the reference layout."""
        cells = {}
        for x, y in points:
            cell = geometry.cell_of_point(x, y)
            cells[cell] = cells.get(cell, 0) + 1
        return cells

    @staticmethod
    def _lattice_oracle(count, width, height):
        cols = max(int(math.ceil(math.sqrt(count * width / height))), 1)
        rows = int(math.ceil(count / cols))
        points = []
        for r in range(rows):
            for c in range(cols):
                if len(points) >= count:
                    return points
                points.append(((c + 0.5) * width / cols, (r + 0.5) * height / rows))
        return points

    # Square core arrays of 1, 4, 9 or 16 cores, as GridGeometry.from_stack builds.
    geometries = st.builds(
        lambda grid, side, cores: GridGeometry(grid, side, cores, cores),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=1e-4, max_value=5e-2),
        st.integers(min_value=1, max_value=4),
    )

    @given(geometries, st.integers(min_value=1, max_value=10_000))
    @example(GridGeometry(40, 1.17e-2, 4, 4), 10_000)
    @settings(max_examples=40, deadline=None)
    def test_uniform_matches_pointwise_oracle(self, geometry, count):
        side = geometry.die_side
        points = self._lattice_oracle(count, side, side)
        expected = self._cell_of_point_oracle(geometry, points)
        assert distribute_uniform(geometry, count) == expected

    @given(geometries, st.integers(min_value=1, max_value=10_000))
    @example(GridGeometry(40, 1.17e-2, 4, 4), 10_000)
    @example(GridGeometry(20, 1.17e-2, 4, 4), 3_333)
    @settings(max_examples=40, deadline=None)
    def test_per_core_matches_pointwise_oracle(self, geometry, count):
        tile_w = geometry.die_side / geometry.core_cols
        tile_h = geometry.die_side / geometry.core_rows
        points = []
        for core_row in range(geometry.core_rows):
            for core_col in range(geometry.core_cols):
                ox, oy = geometry.core_tile_origin(core_row, core_col)
                points.extend(
                    (ox + x, oy + y)
                    for x, y in self._lattice_oracle(count, tile_w, tile_h)
                )
        expected = self._cell_of_point_oracle(geometry, points)
        assert distribute_per_core(geometry, count) == expected

    def test_per_core_matches_oracle_on_rectangular_cores(self):
        geometry = GridGeometry(grid_nodes=13, die_side=7.3e-3, core_rows=2, core_cols=3)
        tile_w = geometry.die_side / 3
        tile_h = geometry.die_side / 2
        points = [
            (ox + x, oy + y)
            for ox, oy in (
                geometry.core_tile_origin(r, c) for r in range(2) for c in range(3)
            )
            for x, y in self._lattice_oracle(37, tile_w, tile_h)
        ]
        expected = self._cell_of_point_oracle(geometry, points)
        assert distribute_per_core(geometry, 37) == expected

    def test_cells_to_arrays_alignment(self):
        cells = {(1, 2): 3, (0, 0): 1}
        j, i, m = cells_to_arrays(cells)
        assert list(j) == [0, 1]
        assert list(i) == [0, 2]
        assert list(m) == [1, 3]

    def test_cells_to_arrays_rejects_empty(self):
        with pytest.raises(ValueError):
            cells_to_arrays({})
