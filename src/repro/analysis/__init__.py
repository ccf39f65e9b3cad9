"""Terminal-friendly rendering of experiment results."""

from repro.analysis.tables import format_table
from repro.analysis.boxplot import ascii_boxplot, BoxStats
from repro.analysis.export import (
    export_json,
    export_series_csv,
    export_table_csv,
    fig6_to_csv,
    fig8_to_csv,
)

__all__ = [
    "format_table",
    "ascii_boxplot",
    "BoxStats",
    "export_json",
    "export_series_csv",
    "export_table_csv",
    "fig6_to_csv",
    "fig8_to_csv",
]
