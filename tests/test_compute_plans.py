"""compute_plans: one topology-major runner for every figure plan.

Small axes and grids keep these fast.  Each figure's values must equal
(``==``) those of a whole run per plan run, the schedule a supervisor
whose runs share no topology still gets.
"""

import pytest

from repro.core.experiments.base import compute_plans
from repro.core.experiments.fig5 import fig5a_plan, fig5b_plan
from repro.core.experiments.fig6 import compute_fig6, fig6_plan
from repro.core.experiments.fig8 import fig8_plan
from repro.core.explorer import DesignSpaceExplorer
from repro.runtime import RunSupervisor, SupervisorConfig, SweepEngine

GRID = 6
LAYERS = 4
IMBALANCES = (0.0, 0.5, 1.0)
CONVERTERS = (2, 8)
EXPLORE_AXES = dict(
    topologies=("Dense", "Few"), pad_fractions=(0.25,), converter_counts=(2, 8)
)


def _plans():
    return {
        "fig5a": fig5a_plan(layers=(2, LAYERS), grid_nodes=GRID),
        "fig5b": fig5b_plan(
            layers=(2, LAYERS), pad_fractions=(0.25, 0.5), grid_nodes=GRID
        ),
        "fig6": fig6_plan(LAYERS, IMBALANCES, CONVERTERS, GRID),
        "fig8": fig8_plan(LAYERS, IMBALANCES[1:], CONVERTERS, GRID),
    }


def _topologies(plan):
    return {point.spec for points, _ in plan.runs for point in points}


def _explorer(engine):
    return DesignSpaceExplorer(
        n_layers=LAYERS, imbalance=0.5, grid_nodes=GRID, engine=engine
    )


class _WholeRuns:
    """An engine that is not a ``SweepEngine``: with no topology shared
    between runs, compute_plans hands it each run whole."""

    def __init__(self):
        self.engine = SweepEngine()
        self.run_sizes = []

    def run(self, points, extract=None):
        self.run_sizes.append(len(points))
        return self.engine.run(points, extract=extract)

    def clear_cache(self, specs=None):
        self.engine.clear_cache(specs)


class _RecordingEngine(SweepEngine):
    """Records the specs each run reads."""

    def __init__(self):
        super().__init__()
        self.read = []

    def run(self, points, extract=None, bench_name=None):
        self.read.append({point.spec for point in points})
        return super().run(points, extract=extract, bench_name=bench_name)


@pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig6", "fig8"])
class TestFigurePlans:
    def test_equals_whole_runs_on_a_fresh_engine(self, name):
        plan = _plans()[name]
        whole = _WholeRuns()
        expected = compute_plans([plan], whole)[0]
        assert whole.run_sizes == [len(points) for points, _ in plan.runs]
        assert compute_plans([plan], SweepEngine())[0] == expected

    def test_plain_engine_runs_one_topology_at_a_time(self, name):
        plan = _plans()[name]
        engine = _RecordingEngine()
        compute_plans([plan], engine)
        topologies = _topologies(plan)
        assert all(len(read) == 1 for read in engine.read)
        assert len(engine.read) == sum(
            len({point.spec for point in points}) for points, _ in plan.runs
        )
        info = engine.cache_info()
        assert (info["entries"], info["factor_entries"]) == (0, 0)
        assert info["misses"] == len(topologies)


class TestExplorer:
    def test_equals_a_whole_run_on_a_fresh_engine(self):
        whole = _WholeRuns()
        expected = _explorer(whole).explore(**EXPLORE_AXES)
        assert whole.run_sizes == [len(expected.points)]
        assert _explorer(SweepEngine()).explore(**EXPLORE_AXES) == expected

    def test_plain_engine_ends_empty(self):
        engine = SweepEngine()
        result = _explorer(engine).explore(**EXPLORE_AXES)
        info = engine.cache_info()
        assert (info["entries"], info["factor_entries"]) == (0, 0)
        # Every design point is its own topology.
        assert info["misses"] == len(result.points) == 6


class TestPlanSets:
    def test_misses_equal_the_union_of_topologies(self):
        plans = list(_plans().values())
        engine = SweepEngine()
        results = compute_plans(plans, engine)
        union = set().union(*(_topologies(plan) for plan in plans))
        assert sum(len(_topologies(plan)) for plan in plans) > len(union)
        info = engine.cache_info()
        assert (info["entries"], info["misses"]) == (0, len(union))
        for plan, result in zip(plans, results):
            assert result == compute_plans([plan], SweepEngine())[0]

    def test_shared_topologies_go_topology_major_on_any_engine(self):
        """Figs. 6 and 8 read the same V-S topologies, so even an engine
        that is not a SweepEngine gets one topology per run."""
        plans = [_plans()["fig6"], _plans()["fig8"]]
        whole = _WholeRuns()
        compute_plans(plans, whole)
        # Two V-S topologies read by both figures, three regular lines.
        assert whole.run_sizes == [3, 2, 3, 2, 1, 1, 1]
        assert whole.engine.cache_info()["entries"] == 0

    def test_empty_set(self):
        engine = SweepEngine()
        assert compute_plans([], engine) == []
        assert engine.cache_info()["misses"] == 0


def test_supervised_fig6_runs_each_run_whole_in_processes():
    supervisor = RunSupervisor(config=SupervisorConfig(workers=2))
    result = compute_fig6(LAYERS, IMBALANCES, CONVERTERS, GRID, engine=supervisor)
    assert len(supervisor.reports) == 2
    assert [report.n_points for report in supervisor.reports] == [6, 3]
    assert {report.mode for report in supervisor.reports} == {"process"}
    assert result == compute_fig6(LAYERS, IMBALANCES, CONVERTERS, GRID)


class TestSupervisedInProcess:
    def test_an_in_process_supervisor_frees_each_topology(self):
        supervisor = RunSupervisor(config=SupervisorConfig())
        assert supervisor.in_process
        result = compute_fig6(LAYERS, IMBALANCES, CONVERTERS, GRID, engine=supervisor)
        # One supervised run per topology per plan run, each freed after.
        plan = fig6_plan(LAYERS, IMBALANCES, CONVERTERS, GRID)
        assert len(supervisor.reports) == sum(
            len({point.spec for point in points}) for points, _ in plan.runs
        )
        info = supervisor.cache_info()
        assert (info["entries"], info["factor_entries"]) == (0, 0)
        assert info["misses"] == len(_topologies(plan))
        assert result == compute_fig6(LAYERS, IMBALANCES, CONVERTERS, GRID)

    @pytest.mark.parametrize(
        "overrides",
        [dict(workers=2), dict(task_timeout=60.0), dict(fleet="127.0.0.1:0")],
    )
    def test_a_supervisor_that_may_fan_out_is_not_in_process(self, overrides):
        assert not RunSupervisor(config=SupervisorConfig(**overrides)).in_process
