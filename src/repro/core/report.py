"""Consolidated reproduction report.

:func:`generate_report` runs every experiment at a chosen grid
resolution and renders one self-contained text/markdown document —
tables, figures, headline claims — suitable for committing next to the
paper (``python -m repro report > REPORT.md``).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.experiments import (
    compute_fig3,
    compute_fig7,
    run_headline,
    table1_report,
    table2_report,
)
from repro.core.experiments.base import compute_plans
from repro.core.experiments.fig5 import fig5a_plan, fig5b_plan
from repro.core.experiments.fig6 import fig6_plan
from repro.core.experiments.fig8 import fig8_plan
from repro.runtime import SweepEngine


def generate_report(grid_nodes: int = 16, rng: Optional[int] = None) -> str:
    """Run the full evaluation and return the consolidated report text."""
    start = time.time()
    sections = []

    def section(title: str, body: str) -> None:
        sections.append(f"## {title}\n\n```\n{body}\n```")

    sections.append(
        "# Reproduction report\n\n"
        "Paper: *A Cross-Layer Design Exploration of Charge-Recycled "
        "Power-Delivery in Many-Layer 3D-IC* (Zhang et al., DAC 2015).\n\n"
        f"Model grid: {grid_nodes}x{grid_nodes} nodes per net per layer."
    )

    section("Table 1 — PDN modeling parameters", table1_report())
    section("Table 2 — TSV configurations", table2_report())

    fig3 = compute_fig3()
    section("Fig. 3 — SC converter model validation", fig3.format())

    # One engine, topology-major: Figs. 6 and 8 share their V-S
    # topologies, and Figs. 5a/5b/6 their regular ones.
    engine = SweepEngine()
    plans = (fig5a_plan, fig5b_plan, fig6_plan, fig8_plan)
    fig5a, fig5b, fig6, fig8 = compute_plans(
        [plan(grid_nodes=grid_nodes) for plan in plans], engine
    )
    section("Fig. 5a — TSV array EM lifetime", fig5a.format())
    section("Fig. 5b — C4 array EM lifetime", fig5b.format())
    section("Fig. 6 — IR drop vs workload imbalance", fig6.format())

    fig7 = compute_fig7(rng=rng)
    section("Fig. 7 — PARSEC power distributions", fig7.format())
    section("Fig. 8 — system power efficiency", fig8.format())

    headline = run_headline(
        grid_nodes=grid_nodes, fig5a=fig5a, fig5b=fig5b, fig6=fig6, fig7=fig7,
        engine=engine,
    )
    section("Headline claims", headline.format())

    elapsed = time.time() - start
    sections.append(f"*Generated in {elapsed:.1f} s.*")
    return "\n\n".join(sections) + "\n"
