"""Benches for the design-aid tooling built on top of the reproduction:
tornado sensitivity analysis and the statistical noise profiler."""

from conftest import BENCH_GRID

from repro.config.stackups import ProcessorSpec, StackConfig
from repro.core.noise_profile import NoiseProfiler
from repro.core.scenarios import build_stacked_pdn
from repro.core.sensitivity import SensitivityAnalysis
from repro.workload.sampling import sample_suite


def test_sensitivity_tornado(benchmark, record_output):
    analysis = SensitivityAnalysis(
        StackConfig(n_layers=8, grid_nodes=12), arrangement="regular"
    )
    entries = benchmark.pedantic(analysis.run, rounds=1, iterations=1)
    record_output(analysis.format(entries), "tool_sensitivity_tornado")
    # The calibration discussion's claim: the package/pad path dominates
    # the regular PDN's noise, the lumped metal geometry barely matters.
    assert entries[0].parameter == "package_resistance"
    by_name = {e.parameter: e for e in entries}
    assert by_name["metal_thickness"].swing < entries[0].swing / 10


def test_noise_profile_distribution(benchmark, record_output):
    pdn = build_stacked_pdn(8, converters_per_core=8, grid_nodes=12)
    suite = sample_suite(ProcessorSpec(), n_samples=1000, rng=0)
    profiler = NoiseProfiler(pdn, suite)

    profiles = benchmark.pedantic(
        lambda: profiler.compare_policies(trials=60, rng=1), rounds=1, iterations=1
    )
    lines = ["Statistical V-S noise profile (8 layers, 8 conv/core, 60 samples):"]
    for name, profile in profiles.items():
        lines.append(
            f"  {name:>9}: mean {profile.mean:.2%}  P95 "
            f"{profile.percentile(95):.2%}  worst {profile.worst:.2%} of Vdd"
        )
    gain = 1 - profiles["same-app"].mean / profiles["mixed"].mean
    lines.append(f"  same-app scheduling cuts mean noise by {gain:.0%}")
    record_output("\n".join(lines), "tool_noise_profile")
    assert profiles["same-app"].mean < profiles["mixed"].mean
