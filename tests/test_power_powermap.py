"""Power maps and floorplan rasterisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.stackups import ProcessorSpec, StackConfig
from repro.floorplan.blocks import Rect
from repro.power.mcpat_lite import CorePowerModel
from repro.power.powermap import (
    PowerMap,
    layer_power_map,
    rasterize_blocks,
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


class TestRasterize:
    def test_conserves_block_power(self):
        die = 1e-3
        rects = {"a": Rect(0, 0, die / 2, die), "b": Rect(die / 2, 0, die / 2, die)}
        powers = {"a": 3.0, "b": 1.0}
        pm = rasterize_blocks(rects, powers, die, 8)
        assert pm.total_power == pytest.approx(4.0)

    def test_spatial_assignment(self):
        die = 1e-3
        rects = {"left": Rect(0, 0, die / 2, die)}
        pm = rasterize_blocks(rects, {"left": 2.0}, die, 4)
        # All power in the left half of the grid.
        assert pm.cell_power[:, :2].sum() == pytest.approx(2.0)
        assert pm.cell_power[:, 2:].sum() == pytest.approx(0.0)

    def test_missing_rect_rejected(self):
        with pytest.raises(KeyError):
            rasterize_blocks({}, {"ghost": 1.0}, 1e-3, 4)

    def test_negative_power_rejected(self):
        rects = {"a": Rect(0, 0, 1e-3, 1e-3)}
        with pytest.raises(ValueError):
            rasterize_blocks(rects, {"a": -1.0}, 1e-3, 4)

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_power_conserved_at_any_resolution(self, grid):
        die = 1e-3
        rects = {
            "a": Rect(0.1e-3, 0.2e-3, 0.3e-3, 0.5e-3),
            "b": Rect(0.5e-3, 0.1e-3, 0.4e-3, 0.7e-3),
        }
        powers = {"a": 1.7, "b": 0.4}
        pm = rasterize_blocks(rects, powers, die, grid)
        assert pm.total_power == pytest.approx(2.1, rel=1e-9)


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

    def test_floorplanned_matches_uniform_total(self, stack):
        uniform = layer_power_map(stack, activity=0.7)
        detailed = layer_power_map(stack, activity=0.7, floorplanned=True)
        assert detailed.total_power == pytest.approx(uniform.total_power, rel=1e-6)

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
    def test_rasterize_blocks_matches_per_cell_loop(self, grid, boxes):
        """Blocks may hang over, or lie wholly off, the die's edge."""
        die = 1e-3
        rects = {
            f"b{k}": Rect(x * die, y * die, w * die, h * die)
            for k, (x, y, w, h, _) in enumerate(boxes)
        }
        powers = {f"b{k}": p for k, (*_, p) in enumerate(boxes)}
        cell = die / grid
        expected = np.zeros((grid, grid))
        for name, power in powers.items():
            _per_cell_add(expected, rects[name], power / rects[name].area, cell)
        pm = rasterize_blocks(rects, powers, die, grid)
        assert np.array_equal(pm.cell_power, expected)
