"""End-to-end headline report: every abstract claim in one run."""

from conftest import BENCH_GRID

from repro.core.experiments.headline import run_headline
from repro.runtime import SweepEngine


def test_headline_claims(benchmark, record_output):
    engine = SweepEngine(workers=1)
    report = benchmark.pedantic(
        run_headline,
        kwargs={"grid_nodes": BENCH_GRID, "engine": engine},
        rounds=1,
        iterations=1,
    )
    record_output(report.format(), "headline_claims")
    # Only the 10 topologies the claims read are factorised.
    info = engine.cache_info()
    assert (info["misses"], info["hits"]) == (10, 6)
    # Two-sided bands around the values measured at grids 6-20; see
    # tests/test_headline_claims.py for the reason behind each band.
    assert 6.0 < report.c4_improvement_8l < 8.0
    assert 3.0 < report.tsv_improvement_8l < 4.0
    assert 0.80 < report.regular_tsv_degradation < 0.92
    assert 0.10 < report.vs_tsv_degradation < 0.30
    assert abs(report.average_imbalance - 0.65) < 0.05
    assert 0.003 < report.vs_extra_ir_drop_at_average < 0.010
    assert report.crossover_imbalance is not None
    assert 0.4 <= report.crossover_imbalance <= 0.7
