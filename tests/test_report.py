"""Consolidated report generation."""

import pytest

from repro.core.report import generate_report


@pytest.fixture(scope="module")
def report_text():
    return generate_report(grid_nodes=8)


class TestReport:
    def test_all_sections_present(self, report_text):
        for heading in (
            "Table 1", "Table 2", "Fig. 3", "Fig. 5a", "Fig. 5b",
            "Fig. 6", "Fig. 7", "Fig. 8", "Headline claims",
        ):
            assert heading in report_text

    def test_markdown_structure(self, report_text):
        assert report_text.startswith("# Reproduction report")
        assert report_text.count("```") % 2 == 0  # balanced code fences

    def test_grid_recorded(self, report_text):
        assert "8x8 nodes" in report_text

    def test_timing_footer(self, report_text):
        assert "Generated in" in report_text

    def test_cli_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        assert main(["report", "--grid", "8", "--output", str(out)]) == 0
        assert out.exists()
        assert "Headline" in out.read_text()

    def test_cli_sensitivity_and_noise(self, capsys):
        from repro.cli import main

        assert main(["sensitivity", "--grid", "8", "--layers", "2"]) == 0
        assert "package_resistance" in capsys.readouterr().out
        assert main(["noise", "--grid", "8", "--layers", "2", "--trials", "5"]) == 0
        assert "mixed" in capsys.readouterr().out

    @pytest.mark.parametrize("figure", ["fig6", "fig8"])
    def test_cli_csv_export(self, figure, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / f"{figure}.csv"
        assert main([figure, "--grid", "8", "--layers", "2", "--csv", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header.startswith("imbalance,vs_2_conv_per_core")
        assert rows
