"""End-to-end headline report: every abstract claim in one run."""

from conftest import BENCH_GRID

from repro.core.experiments.headline import HEADLINE_CLAIM_BANDS, run_headline
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
    # Only the 10 topologies the claims read are factorised, one at a
    # time, each freed after its last reader: the engine ends empty.
    info = engine.cache_info()
    assert (info["misses"], info["hits"]) == (10, 6)
    assert (info["entries"], info["factor_entries"]) == (0, 0)
    for band in HEADLINE_CLAIM_BANDS:
        value = getattr(report, band.field)
        assert band.contains(value), f"{band.field}={value!r}: {band.reason}"
