"""Cross-feature integration scenarios.

An experiment's result feeding its export, the way a study would chain
them.
"""

import pytest

GRID = 8


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
