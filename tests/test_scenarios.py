"""Scenario builders and remaining configuration edges."""

import pytest

from repro.config.stackups import TSV_TOPOLOGIES
from repro.core.scenarios import (
    VS_VDD_PADS_PER_CORE,
    build_regular_pdn,
    build_stacked_pdn,
    regular_stack,
    stacked_stack,
)

GRID = 8


class TestRegularStack:
    def test_defaults(self):
        stack = regular_stack(4, grid_nodes=GRID)
        assert stack.n_layers == 4
        assert stack.tsv_topology.name == "Few"
        assert stack.pads.power_fraction == 0.25

    def test_topology_selection(self):
        stack = regular_stack(2, topology="Dense", grid_nodes=GRID)
        assert stack.tsv_topology is TSV_TOPOLOGIES["Dense"]

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            regular_stack(2, topology="Mega", grid_nodes=GRID)

    def test_pad_fraction_passthrough(self):
        stack = regular_stack(2, power_pad_fraction=0.75, grid_nodes=GRID)
        assert stack.pads.power_fraction == 0.75


class TestStackedStack:
    def test_vdd_pad_override(self):
        stack = stacked_stack(
            2, vdd_pads_per_core=VS_VDD_PADS_PER_CORE, grid_nodes=GRID
        )
        assert stack.pads.vdd_pads_per_core_override == 32

    def test_no_override_by_default(self):
        stack = stacked_stack(2, grid_nodes=GRID)
        assert stack.pads.vdd_pads_per_core_override == 0

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            stacked_stack(2, topology="Nano", grid_nodes=GRID)


class TestBuilders:
    def test_regular_builder_forwards_kwargs(self):
        from repro.config.technology import PackageModel

        pdn = build_regular_pdn(
            2, grid_nodes=GRID, package=PackageModel(resistance=1e-3)
        )
        assert pdn.package.resistance == pytest.approx(1e-3)

    def test_stacked_builder_converter_count(self):
        pdn = build_stacked_pdn(2, converters_per_core=6, grid_nodes=GRID)
        assert pdn.converters_per_core == 6


class TestFig5Accessors:
    @pytest.fixture(scope="class")
    def fig5a(self):
        from repro.core.experiments.fig5 import compute_fig5a

        return compute_fig5a(layers=(2, 4), grid_nodes=GRID)

    def test_improvement_against_custom_baseline(self, fig5a):
        value = fig5a.improvement_at(4, baseline="Reg. PDN, Sparse TSV")
        assert value > 0

    def test_degradation_custom_series(self, fig5a):
        loss = fig5a.regular_degradation("Reg. PDN, Dense TSV")
        assert 0 < loss < 1

    def test_unknown_layer_count_raises(self, fig5a):
        with pytest.raises(ValueError):
            fig5a.improvement_at(16)
