"""Ablations of the design choices DESIGN.md calls out, plus the
extension studies (inductive converters, thermally-coupled EM,
trace-driven workloads).

These are not paper figures; they quantify how sensitive the reproduced
results are to the free modeling choices, and they exercise the
extensions end to end at benchmark scale.
"""

import numpy as np

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


def test_sc_vs_inductive_converters(benchmark, record_output):
    """Extension: the inductive-converter comparison the paper defers."""
    from repro.regulator.inductive import compare_sc_vs_buck

    def sweep():
        rows = []
        for load_ma in (10, 30, 50, 70, 90):
            c = compare_sc_vs_buck(load_current=load_ma * 1e-3)
            rows.append(
                (
                    load_ma,
                    c["sc"]["efficiency"] * 100,
                    c["buck"]["efficiency"] * 100,
                    c["sc"]["area"] * 1e6,
                    c["buck"]["area"] * 1e6,
                )
            )
        return rows

    rows = benchmark(sweep)
    text = format_table(
        ["load (mA)", "SC eff (%)", "buck eff (%)", "SC area (mm^2)", "buck area (mm^2)"],
        rows,
        title="Extension: switched-capacitor vs integrated buck (future work)",
    )
    record_output(text, "extension_sc_vs_buck")
    assert all(r[1] > r[2] for r in rows)  # SC wins on-die


def test_thermally_coupled_em(benchmark, record_output):
    """Extension: per-tier temperatures in Black's equation."""
    from repro.em.thermal_coupling import (
        thermally_coupled_lifetime,
        uniform_temperature_lifetime,
    )
    from repro.thermal import HotSpotLite

    def evaluate():
        rows = []
        for n in (2, 4, 8):
            pdn = build_regular_pdn(n, grid_nodes=12)
            result = pdn.solve()
            thermal = HotSpotLite(pdn.stack).solve()
            coupled = thermally_coupled_lifetime(result, thermal, "tsv")
            uniform = uniform_temperature_lifetime(result, 105.0, "tsv")
            rows.append((n, thermal.hotspot, coupled / uniform))
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    text = format_table(
        ["layers", "hotspot (C)", "coupled / uniform-105C lifetime"],
        rows,
        title="Extension: thermally-coupled EM (regular PDN, air cooling)",
    )
    record_output(text, "extension_thermal_em")
    # Cool stacks gain headroom over the fixed-105C assumption; the gain
    # erodes as the stack approaches the thermal wall.
    ratios = [r[2] for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[0] > ratios[-1]


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


def test_gem5_lite_vs_calibrated_workloads(benchmark, record_output):
    """Extension: emergent (trace-driven) vs calibrated workload stats."""
    from repro.config.stackups import ProcessorSpec
    from repro.workload.gem5_lite import gem5_sample_suite
    from repro.workload.sampling import sample_suite

    def evaluate():
        proc = ProcessorSpec()
        calibrated = sample_suite(proc, n_samples=1000, rng=1)
        emergent = gem5_sample_suite(proc, n_windows=1000, rng=1)
        rows = []
        for name in sorted(calibrated):
            rows.append(
                (
                    name,
                    calibrated[name].max_imbalance * 100,
                    emergent[name].max_imbalance * 100,
                )
            )
        return rows, calibrated, emergent

    rows, calibrated, emergent = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    cal_mean = np.mean([c.max_imbalance for c in calibrated.values()])
    eme_mean = np.mean([e.max_imbalance for e in emergent.values()])
    text = format_table(
        ["application", "calibrated max imb (%)", "gem5-lite max imb (%)"],
        rows,
        title="Extension: calibrated vs micro-architecturally emergent workloads",
    ) + f"\n\nsuite means: calibrated {cal_mean:.1%}, gem5-lite {eme_mean:.1%}"
    record_output(text, "extension_gem5_lite")
    # Same qualitative structure: blackscholes steadiest, wide spread.
    eme = {name: e.max_imbalance for name, e in emergent.items()}
    assert min(eme, key=eme.get) == "blackscholes"
    assert max(eme.values()) > 0.6
