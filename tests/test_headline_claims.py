"""Integration: the paper's headline claims at reduced resolution.

These run the full pipeline (power model -> PDN solves -> EM statistics
-> workload sampling) on a small grid.  Every claim is checked against
its two-sided band in ``HEADLINE_CLAIM_BANDS``, which gives the reason
for each band.
"""

import dataclasses

import pytest

from repro.core.experiments import compute_fig5a, compute_fig5b, compute_fig6, compute_fig7, run_headline
from repro.core.experiments.headline import HEADLINE_CLAIM_BANDS, HeadlineReport
from repro.runtime import PDNSpec, RunSupervisor, SupervisorConfig, SweepEngine, SweepPoint

from tests.conftest import factor_entries

GRID = 8
BANDS = {band.field: band for band in HEADLINE_CLAIM_BANDS}


@pytest.fixture(scope="module")
def report():
    fig5a = compute_fig5a(layers=(2, 4, 8), grid_nodes=GRID)
    fig5b = compute_fig5b(layers=(2, 4, 8), grid_nodes=GRID)
    fig6 = compute_fig6(
        n_layers=8,
        imbalances=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        converters_per_core=(8,),
        grid_nodes=GRID,
    )
    fig7 = compute_fig7(rng=20150607)
    return run_headline(grid_nodes=GRID, fig5a=fig5a, fig5b=fig5b, fig6=fig6, fig7=fig7)


def _assert_in_band(report, field):
    band = BANDS[field]
    value = getattr(report, field)
    assert band.contains(value), f"{field}={value!r}: {band.reason}"


class TestHeadlineClaims:
    def test_every_claim_has_a_band(self):
        claims = {f.name for f in dataclasses.fields(HeadlineReport)}
        assert set(BANDS) == claims - {"degraded_points"}
        assert len(BANDS) == len(HEADLINE_CLAIM_BANDS)

    def test_c4_lifetime_gain(self, report):
        """Abstract: EM lifetime of the C4 array improves up to ~5x."""
        _assert_in_band(report, "c4_improvement_8l")

    def test_tsv_lifetime_gain(self, report):
        """Sec. 5.1: more than 3x for many-layer stacks."""
        _assert_in_band(report, "tsv_improvement_8l")

    def test_regular_tsv_degradation(self, report):
        """Sec. 5.1: regular PDN loses up to ~84% lifetime by 8 layers."""
        _assert_in_band(report, "regular_tsv_degradation")

    def test_vs_tsv_nearly_flat(self, report):
        _assert_in_band(report, "vs_tsv_degradation")

    def test_average_imbalance_is_65(self, report):
        _assert_in_band(report, "average_imbalance")

    def test_vs_noise_penalty_small_at_average(self, report):
        """Abstract: only ~0.75% Vdd extra IR drop at the average
        workload imbalance (equal-area comparison)."""
        _assert_in_band(report, "vs_extra_ir_drop_at_average")

    def test_noise_crossover_near_half(self, report):
        """Abstract: V-S wins outright below ~50% imbalance."""
        _assert_in_band(report, "crossover_imbalance")

    def test_report_renders(self, report):
        text = report.format()
        assert "C4 EM lifetime" in text
        assert "x" in text


class _RecordingEngine(SweepEngine):
    """Records, per run, the cached specs and ``cache_info()`` as it
    starts, the specs it reads and ``factor_entries`` as it ends."""

    def __init__(self):
        super().__init__()
        self.runs = []

    def run(self, points, extract=None, bench_name=None):
        cached = {key[0] for key in self._cache}
        start = self.cache_info()["factor_entries"]
        result = super().run(points, extract=extract, bench_name=bench_name)
        read = {point.spec for point in points}
        self.runs.append((cached, start, read, self.cache_info()["factor_entries"]))
        return result


def _assert_same_report(report, expected):
    for field in dataclasses.fields(report):
        assert getattr(report, field.name) == getattr(expected, field.name), field.name


class TestDemandDrivenHeadline:
    def test_matches_full_figures_from_ten_topologies(self):
        """Without figures passed in, only the points the claims read are
        evaluated, and the report equals the one built from full figures."""
        engine = SweepEngine(workers=1)
        report = run_headline(grid_nodes=GRID, engine=engine)
        info = engine.cache_info()
        assert (info["misses"], info["hits"]) == (10, 6)

        full_engine = SweepEngine(workers=1)
        full = run_headline(
            grid_nodes=GRID,
            fig5a=compute_fig5a(grid_nodes=GRID, engine=full_engine),
            fig5b=compute_fig5b(grid_nodes=GRID, engine=full_engine),
            fig6=compute_fig6(grid_nodes=GRID, engine=full_engine),
        )
        for field in dataclasses.fields(report):
            assert getattr(report, field.name) == getattr(full, field.name), field.name

    def test_frees_each_topology_after_its_last_reader(self):
        """Topology-major: each run starts holding no other topology's
        factor, so the peak is the largest single topology's, and the
        engine ends empty."""
        engine = _RecordingEngine()
        run_headline(grid_nodes=GRID, engine=engine)

        assert len(engine.runs) == 16
        for cached, start, read, _ in engine.runs:
            assert len(read) == 1
            assert cached <= read
            assert start == sum(factor_entries(spec) for spec in cached)
        topologies = set().union(*(read for _, _, read, _ in engine.runs))
        assert len(topologies) == 10
        assert max(end for *_, end in engine.runs) == max(
            factor_entries(spec) for spec in topologies
        )
        info = engine.cache_info()
        assert (info["entries"], info["factor_entries"]) == (0, 0)
        assert (info["misses"], info["hits"]) == (10, 6)

    def test_frees_topologies_cached_before_the_call(self):
        engine = SweepEngine(workers=1)
        vs_8 = PDNSpec.stacked(8, grid_nodes=GRID)
        engine.run([SweepPoint(spec=vs_8)], extract=_max_ir_drop)
        run_headline(grid_nodes=GRID, engine=engine)
        info = engine.cache_info()
        assert (info["entries"], info["misses"], info["hits"]) == (0, 10, 7)


def _max_ir_drop(outcome):
    return outcome.unwrap().max_ir_drop_fraction()


class TestHeadlineEngines:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_headline(grid_nodes=GRID, engine=SweepEngine(workers=1))

    def test_process_supervisor_matches_serial(self, serial):
        """One schedule for every engine: each run holds one topology, so
        a ``workers=2`` supervisor keeps it in-process and cached."""
        supervisor = RunSupervisor(config=SupervisorConfig(workers=2))
        _assert_same_report(run_headline(grid_nodes=GRID, engine=supervisor), serial)
        info = supervisor.cache_info()
        assert (info["entries"], info["misses"], info["hits"]) == (0, 10, 6)
        assert len(supervisor.reports) == 16
        assert all(len(report.tasks) == 1 for report in supervisor.reports)
        assert {report.mode for report in supervisor.reports} == {"serial"}

    def test_supervised_run_resumes_without_executing(self, serial, tmp_path):
        run_dir = tmp_path / "run"
        first = RunSupervisor(config=SupervisorConfig(run_dir=str(run_dir)))
        _assert_same_report(run_headline(grid_nodes=GRID, engine=first), serial)
        # One journal per run: no two runs share a fingerprint.
        assert len({r.run_fingerprint for r in first.reports}) == 16
        assert len(list(run_dir.glob("journal-*.jsonl"))) == 16

        resumed = RunSupervisor(
            config=SupervisorConfig(run_dir=str(run_dir), resume=True)
        )
        _assert_same_report(run_headline(grid_nodes=GRID, engine=resumed), serial)
        tasks = [task for r in resumed.reports for task in r.tasks]
        assert len(tasks) == 16
        assert all(task.status == "resumed" for task in tasks)
        assert resumed.cache_info()["misses"] == 0
