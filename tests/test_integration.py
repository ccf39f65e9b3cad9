"""Cross-feature integration scenarios.

Each test chains several subsystems the way a study would: workload
generation feeding PDN solves feeding noise/guardband analyses, and an
experiment's result feeding its export.
"""

import pytest

from repro.config.stackups import ProcessorSpec

GRID = 8


class TestGem5DrivenNoise:
    def test_emergent_workloads_drive_the_profiler(self):
        """gem5-lite sample sets drop into the noise profiler."""
        from repro.core.noise_profile import NoiseProfiler
        from repro.core.scenarios import build_stacked_pdn
        from repro.workload.gem5_lite import gem5_sample_suite

        pdn = build_stacked_pdn(2, converters_per_core=8, grid_nodes=GRID)
        suite = gem5_sample_suite(ProcessorSpec(), n_windows=200, rng=4)
        profiles = NoiseProfiler(pdn, suite).compare_policies(trials=15, rng=2)
        assert profiles["same-app"].mean <= profiles["mixed"].mean * 1.1
        assert 0 < profiles["mixed"].worst < 0.2


class TestGuardbandOverNoiseProfile:
    def test_statistical_guardband(self):
        """P95-based guardbanding: combine the noise distribution with
        the alpha-power model (margin to cover 95% of operating points)."""
        from repro.core.guardband import AlphaPowerModel
        from repro.core.noise_profile import NoiseProfiler
        from repro.core.scenarios import build_stacked_pdn
        from repro.workload.sampling import sample_suite

        pdn = build_stacked_pdn(2, converters_per_core=8, grid_nodes=GRID)
        suite = sample_suite(ProcessorSpec(), n_samples=200, rng=6)
        profile = NoiseProfiler(pdn, suite).profile("mixed", trials=20, rng=3)
        model = AlphaPowerModel()
        p95_band = model.guardband_for_droop(profile.percentile(95))
        worst_band = model.guardband_for_droop(profile.worst)
        assert 0 < p95_band <= worst_band < 0.5


class TestExportPipeline:
    def test_fig6_csv_roundtrip_matches_result(self, tmp_path):
        import csv

        from repro.analysis.export import fig6_to_csv
        from repro.core.experiments import compute_fig6

        result = compute_fig6(
            n_layers=2, imbalances=(0.0, 1.0), converters_per_core=(8,),
            grid_nodes=GRID,
        )
        path = fig6_to_csv(result, tmp_path / "f6.csv")
        rows = list(csv.reader(path.open()))
        value = float(rows[1][1])
        assert value == pytest.approx(result.vs_at(8, 0.0))
