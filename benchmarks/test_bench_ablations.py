"""Ablations of the design choices DESIGN.md calls out, plus the
Monte-Carlo validation of the closed-form array lifetime.

These are not paper figures; they quantify how sensitive the reproduced
results are to the free modeling choices.
"""

from conftest import BENCH_GRID

from repro.analysis.tables import format_table
from repro.core.scenarios import build_regular_pdn, build_stacked_pdn
from repro.workload.imbalance import interleaved_layer_activities


def test_grid_resolution_sensitivity(benchmark, record_output):
    """Ablation: does the headline IR-drop comparison move with the
    model-grid resolution?  (It should converge; VoltSpot's accuracy
    argument rests on this.)"""

    def sweep():
        rows = []
        for grid in (8, 12, 16, 20, 24):
            reg = build_regular_pdn(8, topology="Dense", grid_nodes=grid).solve()
            vs = build_stacked_pdn(8, converters_per_core=8, grid_nodes=grid).solve(
                layer_activities=interleaved_layer_activities(8, 0.65)
            )
            rows.append(
                (
                    grid,
                    reg.max_ir_drop_fraction() * 100,
                    vs.max_ir_drop_fraction() * 100,
                    (vs.max_ir_drop_fraction() - reg.max_ir_drop_fraction()) * 100,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_table(
        ["grid nodes/side", "Reg Dense (%Vdd)", "V-S 8conv @65% (%Vdd)", "delta (%Vdd)"],
        rows,
        title="Ablation: grid-resolution sensitivity of the Fig. 6 comparison",
    )
    record_output(text, "ablation_grid_resolution")
    deltas = [r[3] for r in rows]
    # The comparison's sign and rough magnitude are resolution-stable
    # from 12 nodes up.
    assert max(deltas[1:]) - min(deltas[1:]) < 1.0


def test_montecarlo_vs_analytic_em(benchmark, record_output):
    """Validation: the closed-form array lifetime against simulation."""
    from repro.em import (
        TSV_CROSS_SECTION,
        expected_em_lifetime,
        median_lifetimes_from_currents,
        simulate_array_lifetime,
    )

    pdn = build_regular_pdn(4, grid_nodes=12)
    currents = pdn.solve().conductor_currents("tsv")
    medians = median_lifetimes_from_currents(currents, TSV_CROSS_SECTION)

    mc = benchmark.pedantic(
        lambda: simulate_array_lifetime(medians, trials=800, rng=1),
        rounds=1,
        iterations=1,
    )
    analytic = expected_em_lifetime(medians)
    error = abs(mc.median / analytic - 1.0)
    text = "\n".join(
        [
            "Validation: Monte-Carlo vs closed-form array lifetime",
            f"conductors: {len(medians)}   trials: 800",
            f"analytic P(t)=0.5 point : {analytic:.4e}",
            f"Monte-Carlo median      : {mc.median:.4e}   (error {error:.2%})",
            f"MC inter-quartile range : {mc.spread / mc.median:.1%} of median",
        ]
    )
    record_output(text, "validation_montecarlo_em")
    assert error < 0.05
