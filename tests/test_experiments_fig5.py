"""Fig. 5 experiment drivers: EM lifetime shapes (small grid)."""

import numpy as np
import pytest

from repro.config.technology import default_em
from repro.core.experiments.fig5 import (
    c4_array_lifetime,
    compute_fig5a,
    compute_fig5b,
    tsv_array_lifetime,
)
from repro.em import expected_em_lifetime, median_lifetimes_from_currents
from repro.em.black import C4_CROSS_SECTION, TSV_CROSS_SECTION
from repro.runtime import PDNSpec

GRID = 8
LAYERS = (2, 4, 8)


@pytest.fixture(scope="module")
def fig5a():
    return compute_fig5a(layers=LAYERS, grid_nodes=GRID)


@pytest.fixture(scope="module")
def fig5b():
    return compute_fig5b(layers=LAYERS, grid_nodes=GRID)


class TestFig5a:
    def test_normalisation_reference(self, fig5a):
        assert fig5a.series["V-S PDN, Few TSV"][0] == pytest.approx(1.0)

    def test_regular_degrades_steeply(self, fig5a):
        """Paper: up to 84% lifetime loss from 2 to 8 layers."""
        loss = fig5a.regular_degradation("Reg. PDN, Few TSV")
        assert loss > 0.7

    def test_vs_nearly_flat(self, fig5a):
        series = fig5a.series["V-S PDN, Few TSV"]
        loss = 1.0 - series[-1] / series[0]
        assert loss < 0.35

    def test_vs_worse_at_two_layers(self, fig5a):
        """Paper: the V-S TSV array is below the regular one at 2 layers
        (through-vias outnumbered by regular Vdd TSVs)."""
        assert fig5a.series["Reg. PDN, Few TSV"][0] > fig5a.series["V-S PDN, Few TSV"][0]

    def test_vs_wins_at_eight_layers(self, fig5a):
        """Paper: >3x improvement for the matched Few-TSV comparison."""
        assert fig5a.improvement_at(8) > 3.0

    def test_denser_topologies_live_longer(self, fig5a):
        for idx in range(len(LAYERS)):
            assert (
                fig5a.series["Reg. PDN, Dense TSV"][idx]
                > fig5a.series["Reg. PDN, Sparse TSV"][idx]
                > fig5a.series["Reg. PDN, Few TSV"][idx]
            )

    def test_all_series_monotone_decreasing(self, fig5a):
        for values in fig5a.series.values():
            assert values == sorted(values, reverse=True)

    def test_format(self, fig5a):
        assert "Fig. 5a" in fig5a.format()


class TestFig5b:
    def test_vs_lifetime_flat(self, fig5b):
        series = fig5b.series["V-S PDN (25% Power C4)"]
        assert 1.0 - series[-1] / series[0] < 0.15

    def test_regular_scales_inverse_with_layers(self, fig5b):
        series = fig5b.series["Reg. PDN (25% Power C4)"]
        # Per-pad current doubles 2->4 layers; with n=1, lifetime halves.
        assert series[1] == pytest.approx(series[0] / 2, rel=0.15)

    def test_more_pads_help_linearly(self, fig5b):
        at_8 = {name: vals[-1] for name, vals in fig5b.series.items()}
        assert (
            at_8["Reg. PDN (100% Power C4)"]
            > at_8["Reg. PDN (75% Power C4)"]
            > at_8["Reg. PDN (50% Power C4)"]
            > at_8["Reg. PDN (25% Power C4)"]
        )

    def test_regular_full_pads_start_above_vs(self, fig5b):
        """Paper Fig. 5b: the 100%-pads regular PDN starts ~1.8x the
        2-layer V-S reference."""
        assert fig5b.series["Reg. PDN (100% Power C4)"][0] == pytest.approx(1.9, abs=0.4)

    def test_vs_gap_at_eight_layers(self, fig5b):
        """Paper: up to ~5x C4 lifetime gap at 8 layers."""
        assert fig5b.improvement_at(8) > 4.0

    def test_even_full_allocation_insufficient(self, fig5b):
        """Paper: even 100% power pads cannot match V-S at 8 layers."""
        at_8 = fig5b.series
        assert at_8["Reg. PDN (100% Power C4)"][-1] < at_8["V-S PDN (25% Power C4)"][-1]

    def test_format(self, fig5b):
        assert "Fig. 5b" in fig5b.format()


class TestBundleLifetimes:
    """The array lifetimes read one median per conductor bundle, with its
    conductor count, instead of expanding every physical conductor; the
    answer is the per-conductor one, bit for bit."""

    @pytest.mark.parametrize(
        "spec",
        [
            PDNSpec.regular(8, topology="Dense", grid_nodes=GRID),
            PDNSpec.stacked(
                8, converters_per_core=8, topology="Dense", grid_nodes=GRID
            ),
        ],
        ids=["regular", "stacked"],
    )
    def test_equal_the_per_conductor_lifetimes(self, spec):
        em = default_em()
        result = spec.build().solve()
        prefixes = [p for p in ("tsv", "tvia") if result.has_group_prefix(p)]
        for lifetime, cross_section, parts in (
            (tsv_array_lifetime, TSV_CROSS_SECTION, prefixes),
            (c4_array_lifetime, C4_CROSS_SECTION, ["c4"]),
        ):
            currents = np.concatenate(
                [result.conductor_currents(p) for p in parts]
            )
            per_conductor = expected_em_lifetime(
                median_lifetimes_from_currents(currents, cross_section, em), em
            )
            assert lifetime(result, em) == per_conductor

    def test_a_zero_count_drops_its_median(self):
        medians = np.array([3.0e9, 1.0e9, 2.0e9, 1.0e9])
        counts = np.array([2, 0, 1, 0])
        assert expected_em_lifetime(medians, counts=counts) == (
            expected_em_lifetime(np.array([3.0e9, 3.0e9, 2.0e9]))
        )
