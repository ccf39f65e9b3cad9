"""Integration: the paper's headline claims at reduced resolution.

These run the full pipeline (power model -> PDN solves -> EM statistics
-> workload sampling) on a small grid.  Every claim is checked against a
two-sided band: the measured values move by less than 1e-3 relative
between grids 6 and 20, so a value outside its band means the physics
changed, in either direction.
"""

import dataclasses

import pytest

from repro.core.experiments import compute_fig5a, compute_fig5b, compute_fig6, compute_fig7, run_headline
from repro.runtime import SweepEngine

GRID = 8


@pytest.fixture(scope="module")
def report():
    fig5a = compute_fig5a(layers=(2, 4, 8), grid_nodes=GRID)
    fig5b = compute_fig5b(layers=(2, 4, 8), grid_nodes=GRID)
    fig6 = compute_fig6(
        n_layers=8,
        imbalances=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        converters_per_core=(8,),
        grid_nodes=GRID,
    )
    fig7 = compute_fig7(rng=20150607)
    return run_headline(grid_nodes=GRID, fig5a=fig5a, fig5b=fig5b, fig6=fig6, fig7=fig7)


class TestHeadlineClaims:
    def test_c4_lifetime_gain(self, report):
        """Abstract: EM lifetime of the C4 array improves up to ~5x."""
        # Measured 7.02x, above the paper's ~5x; a gain below 6x or past
        # 8x means the C4 current split changed.
        assert 6.0 < report.c4_improvement_8l < 8.0

    def test_tsv_lifetime_gain(self, report):
        """Sec. 5.1: more than 3x for many-layer stacks."""
        # Measured 3.41x; the paper's >3x is the floor, 4x caps upward drift.
        assert 3.0 < report.tsv_improvement_8l < 4.0

    def test_regular_tsv_degradation(self, report):
        """Sec. 5.1: regular PDN loses up to ~84% lifetime by 8 layers."""
        # Measured 0.859, within a few points of the paper's ~84%.
        assert 0.80 < report.regular_tsv_degradation < 0.92

    def test_vs_tsv_nearly_flat(self, report):
        # Measured 0.197: a slight loss, far below the regular PDN's.
        assert 0.10 < report.vs_tsv_degradation < 0.30

    def test_average_imbalance_is_65(self, report):
        # Measured 0.633 for the seeded suite; the paper reports 65%.
        assert report.average_imbalance == pytest.approx(0.65, abs=0.05)

    def test_vs_noise_penalty_small_at_average(self, report):
        """Abstract: only ~0.75% Vdd extra IR drop at the average
        workload imbalance (equal-area comparison)."""
        # Measured 0.61% Vdd: positive because V-S crosses Dense below
        # the average imbalance, and under 1% Vdd like the paper's ~0.75%.
        assert 0.003 < report.vs_extra_ir_drop_at_average < 0.010

    def test_noise_crossover_near_half(self, report):
        """Abstract: V-S wins outright below ~50% imbalance."""
        # Measured 0.6 on the 0.2-step axis; the paper reports ~50%.
        assert report.crossover_imbalance is not None
        assert 0.4 <= report.crossover_imbalance <= 0.7

    def test_report_renders(self, report):
        text = report.format()
        assert "C4 EM lifetime" in text
        assert "x" in text


class TestDemandDrivenHeadline:
    def test_matches_full_figures_from_ten_topologies(self):
        """Without figures passed in, only the points the claims read are
        evaluated, and the report equals the one built from full figures."""
        engine = SweepEngine(workers=1)
        report = run_headline(grid_nodes=GRID, engine=engine)
        info = engine.cache_info()
        assert (info["misses"], info["hits"]) == (10, 6)

        full_engine = SweepEngine(workers=1)
        full = run_headline(
            grid_nodes=GRID,
            fig5a=compute_fig5a(grid_nodes=GRID, engine=full_engine),
            fig5b=compute_fig5b(grid_nodes=GRID, engine=full_engine),
            fig6=compute_fig6(grid_nodes=GRID, engine=full_engine),
        )
        for field in dataclasses.fields(report):
            assert getattr(report, field.name) == getattr(full, field.name), field.name
