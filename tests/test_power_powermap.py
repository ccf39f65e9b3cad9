"""Power maps and their area-weighted rasterisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.stackups import ProcessorSpec, StackConfig
from repro.power.mcpat_lite import CorePowerModel
from repro.power.powermap import (
    PowerMap,
    Rect,
    _add_rect_power,
    layer_power_map,
    uniform_power_map,
)

GRID = 8


@pytest.fixture(scope="module")
def stack():
    return StackConfig(n_layers=2, grid_nodes=GRID)


class TestPowerMap:
    def test_total_power(self):
        pm = uniform_power_map(10.0, 1e-3, 4)
        assert pm.total_power == pytest.approx(10.0)

    def test_currents(self):
        pm = uniform_power_map(8.0, 1e-3, 4)
        assert pm.currents(2.0).sum() == pytest.approx(4.0)

    def test_scaled(self):
        pm = uniform_power_map(10.0, 1e-3, 4).scaled(0.5)
        assert pm.total_power == pytest.approx(5.0)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            uniform_power_map(1.0, 1e-3, 4).scaled(-1.0)

    def test_add(self):
        a = uniform_power_map(1.0, 1e-3, 4)
        b = uniform_power_map(2.0, 1e-3, 4)
        assert (a + b).total_power == pytest.approx(3.0)

    def test_add_mismatched_rejected(self):
        a = uniform_power_map(1.0, 1e-3, 4)
        b = uniform_power_map(1.0, 1e-3, 5)
        with pytest.raises(ValueError):
            a + b

    def test_power_density(self):
        pm = uniform_power_map(16.0, 2e-3, 4)
        expected = 16.0 / (2e-3) ** 2
        assert pm.power_density().sum() == pytest.approx(expected * 16 / 16 * 16)

    def test_rejects_negative_cells(self):
        with pytest.raises(ValueError):
            PowerMap(np.array([[-1.0]]), 1e-3)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            PowerMap(np.zeros((2, 3)), 1e-3)


class TestLayerPowerMap:
    def test_peak_total(self, stack):
        pm = layer_power_map(stack, activity=1.0)
        assert pm.total_power == pytest.approx(stack.processor.peak_power, rel=1e-6)

    def test_idle_total(self, stack):
        pm = layer_power_map(stack, activity=0.0)
        assert pm.total_power == pytest.approx(stack.processor.leakage_power, rel=1e-6)

    def test_per_core_activities(self, stack):
        acts = np.zeros(stack.processor.core_count)
        acts[0] = 1.0
        pm = layer_power_map(stack, core_activities=acts)
        proc = stack.processor
        expected = proc.leakage_power + proc.dynamic_power / proc.core_count
        assert pm.total_power == pytest.approx(expected, rel=1e-6)

    def test_wrong_activity_shape_rejected(self, stack):
        with pytest.raises(ValueError):
            layer_power_map(stack, core_activities=np.ones(3))

    def test_activities_out_of_range_rejected(self, stack):
        bad = np.full(stack.processor.core_count, 1.5)
        with pytest.raises(ValueError):
            layer_power_map(stack, core_activities=bad)


def _per_cell_add(grid, rect, density, cell):
    """Accumulate ``rect``'s power cell by cell with ``Rect.overlap_area``."""
    g = grid.shape[0]
    i_lo = max(0, int(np.floor(rect.x / cell)))
    i_hi = min(g - 1, int(np.ceil(rect.x2 / cell)) - 1)
    j_lo = max(0, int(np.floor(rect.y / cell)))
    j_hi = min(g - 1, int(np.ceil(rect.y2 / cell)) - 1)
    for i in range(i_lo, i_hi + 1):
        for j in range(j_lo, j_hi + 1):
            overlap = rect.overlap_area(Rect(i * cell, j * cell, cell, cell))
            if overlap > 0:
                grid[j, i] += density * overlap


def _per_cell_loop_power_map(stack, core_activities):
    """The uniform-per-core map, accumulated one cell at a time."""
    processor = stack.processor
    model = CorePowerModel(processor)
    rows = cols = int(round(np.sqrt(processor.core_count)))
    g = stack.grid_nodes
    tile = processor.die_side / rows
    cell = processor.die_side / g
    grid = np.zeros((g, g))
    for r in range(rows):
        for c in range(cols):
            power = model.core_power(core_activities[r * cols + c])
            outline = Rect(c * tile, r * tile, tile, tile)
            _per_cell_add(grid, outline, power / outline.area, cell)
    return grid


class TestRect:
    def test_area(self):
        assert Rect(0, 0, 2, 3).area == 6

    def test_corners(self):
        r = Rect(1, 2, 3, 4)
        assert r.x2 == 4 and r.y2 == 6

    def test_overlap_area(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 2, 2)
        assert a.overlap_area(b) == pytest.approx(1.0)

    def test_disjoint_overlap_is_zero(self):
        assert Rect(0, 0, 1, 1).overlap_area(Rect(5, 5, 1, 1)) == 0.0

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 1)


class TestRasterizationOracle:
    """The vectorised accumulation equals a per-cell loop bit for bit."""

    @given(
        grid=st.integers(min_value=4, max_value=40),
        cores=st.sampled_from([1, 4, 16, 64]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_layer_power_map_matches_per_cell_loop(self, grid, cores, data):
        stack = StackConfig(
            n_layers=2, grid_nodes=grid, processor=ProcessorSpec(core_count=cores)
        )
        activities = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0),
                    min_size=cores,
                    max_size=cores,
                )
            )
        )
        pm = layer_power_map(stack, core_activities=activities)
        assert np.array_equal(
            pm.cell_power, _per_cell_loop_power_map(stack, activities)
        )

    @given(
        grid=st.integers(min_value=2, max_value=24),
        boxes=st.lists(
            st.tuples(
                st.floats(min_value=-0.5, max_value=1.2),
                st.floats(min_value=-0.5, max_value=1.2),
                st.floats(min_value=1e-3, max_value=0.8),
                st.floats(min_value=1e-3, max_value=0.8),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rect_accumulation_matches_per_cell_loop(self, grid, boxes):
        """Rects may hang over, or lie wholly off, the die's edge."""
        die = 1e-3
        cell = die / grid
        expected = np.zeros((grid, grid))
        accumulated = np.zeros((grid, grid))
        for x, y, w, h, power in boxes:
            rect = Rect(x * die, y * die, w * die, h * die)
            _per_cell_add(expected, rect, power / rect.area, cell)
            _add_rect_power(accumulated, rect, power / rect.area, cell)
        assert np.array_equal(accumulated, expected)
