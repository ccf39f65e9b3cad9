"""Sweep engine: batched == sequential, caching, ordering, serial-only."""

import numpy as np
import pytest

from repro.core.scenarios import build_pdn, build_regular_pdn, build_stacked_pdn
from repro.faults import FaultPlan, severed_layer_plan
from repro.grid.backends import set_default_backend
from repro.grid.solver import SolveRequest
from repro.runtime import PDNSpec, SweepEngine, SweepPoint
from repro.workload.imbalance import interleaved_layer_activities

from tests.conftest import TEST_GRID, factor_entries

REL_TOL = 1e-12


def _ir_drop(outcome):
    return outcome.unwrap().max_ir_drop_fraction()


def _activities(n_layers):
    return [
        tuple(interleaved_layer_activities(n_layers, imbalance))
        for imbalance in (0.0, 0.3, 0.6, 1.0)
    ]


def _assert_close(a, b):
    assert abs(a - b) <= REL_TOL * max(1.0, abs(a))


class TestPDNSpec:
    def test_hashable_value_object(self):
        a = PDNSpec.stacked(4, converters_per_core=4, grid_nodes=TEST_GRID)
        b = PDNSpec.stacked(4, converters_per_core=4, grid_nodes=TEST_GRID)
        assert a == b and hash(a) == hash(b)
        assert a != a.with_(converters_per_core=8)

    def test_validation(self):
        with pytest.raises(ValueError, match="arrangement"):
            PDNSpec(arrangement="diagonal")
        with pytest.raises(ValueError, match="SC converters"):
            PDNSpec(arrangement="regular", converters_per_core=4)
        with pytest.raises(ValueError, match="converters_per_core"):
            PDNSpec(arrangement="voltage-stacked", converters_per_core=0)

    def test_build_matches_kwargs_builders(self):
        spec = PDNSpec.regular(2, topology="Dense", grid_nodes=TEST_GRID)
        via_spec = spec.build().solve().max_ir_drop_fraction()
        via_kwargs = (
            build_regular_pdn(2, topology="Dense", grid_nodes=TEST_GRID)
            .solve()
            .max_ir_drop_fraction()
        )
        _assert_close(via_spec, via_kwargs)

    def test_builders_accept_spec_positionally(self):
        spec = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
        for pdn in (build_stacked_pdn(spec), build_pdn(spec)):
            assert pdn.stack.n_layers == 2

    def test_builders_reject_wrong_arrangement_spec(self):
        with pytest.raises(ValueError, match="voltage-stacked"):
            build_regular_pdn(
                PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
            )
        with pytest.raises(ValueError, match="regular"):
            build_stacked_pdn(PDNSpec.regular(2, grid_nodes=TEST_GRID))

    def test_label_mentions_key_fields(self):
        label = PDNSpec.stacked(4, converters_per_core=4, grid_nodes=TEST_GRID).label()
        assert "voltage-stacked" in label and "4L" in label


class TestBatchedMatchesSequential:
    @pytest.mark.parametrize("arrangement", ["regular", "stacked"])
    def test_multi_rhs_identical(self, arrangement):
        n_layers = 4
        if arrangement == "regular":
            spec = PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)
        else:
            spec = PDNSpec.stacked(
                n_layers, converters_per_core=4, grid_nodes=TEST_GRID
            )
        activity_sets = _activities(n_layers)
        points = [SweepPoint(spec=spec, layer_activities=a) for a in activity_sets]
        engine = SweepEngine()
        run = engine.run(points)
        assert engine.cache_info()["misses"] == 1  # one build for all points

        pdn = spec.build()
        for outcome, activities in zip(run.values, activity_sets):
            sequential = pdn.solve(layer_activities=activities)
            batched = outcome.unwrap()
            _assert_close(
                sequential.max_ir_drop_fraction(), batched.max_ir_drop_fraction()
            )
            _assert_close(sequential.efficiency(), batched.efficiency())

    def test_faulted_resilient_identical(self):
        spec = PDNSpec.stacked(4, converters_per_core=4, grid_nodes=TEST_GRID)
        plan = FaultPlan().open_converter_bank("sc.rail1")
        activity_sets = _activities(4)
        points = [
            SweepPoint(spec=spec, layer_activities=a, fault_plan=plan)
            for a in activity_sets
        ]
        run = SweepEngine().run(points)

        pdn = spec.build()
        pdn.apply_faults(FaultPlan().open_converter_bank("sc.rail1"))
        for outcome, activities in zip(run.values, activity_sets):
            assert outcome.survived
            assert outcome.fault_report is not None
            sequential = pdn.solve(layer_activities=activities, resilient=True)
            batched = outcome.unwrap()
            _assert_close(
                sequential.max_ir_drop_fraction(), batched.max_ir_drop_fraction()
            )
            assert batched.diagnostics is not None
            assert (
                batched.diagnostics.fallback == sequential.diagnostics.fallback
            )

    def test_equal_fault_plans_share_one_group(self):
        spec = PDNSpec.stacked(4, converters_per_core=4, grid_nodes=TEST_GRID)
        plans = [FaultPlan().open_converter_bank("sc.rail1") for _ in range(2)]
        assert plans[0].fingerprint() == plans[1].fingerprint()
        engine = SweepEngine()
        engine.run([SweepPoint(spec=spec, fault_plan=p) for p in plans])
        assert engine.cache_info()["misses"] == 1

    def test_strict_batch_error_captured_per_point(self):
        """A singular batch gives each point a typed error."""
        spec = PDNSpec.regular(2, grid_nodes=TEST_GRID)
        points = [
            SweepPoint(spec=spec, fault_plan=severed_layer_plan, resilient=False)
        ]
        run = SweepEngine().run(points)
        outcome = run.values[0]
        assert not outcome.survived
        with pytest.raises(Exception):
            outcome.unwrap()

    def test_strict_singular_batch_is_solved_once(self):
        """A per-point retry would reuse the batch's factorisation, so a
        strict batch that raised SingularCircuitError is not retried."""
        from repro.errors import SingularCircuitError

        spec = PDNSpec.regular(2, grid_nodes=TEST_GRID)
        points = [
            SweepPoint(
                spec=spec,
                layer_activities=(1.0, activity),
                fault_plan=severed_layer_plan,
                resilient=False,
            )
            for activity in (1.0, 0.5, 0.0)
        ]
        run = SweepEngine().run(points)
        assert all(isinstance(o.error, SingularCircuitError) for o in run.values)
        (group,) = run.metrics.groups
        assert group.n_solve_calls == 1
        assert not group.sequential_fallback
        assert group.escalations == {"failed": 3}


class TestStructureCache:
    def test_cache_hit_on_rerun(self):
        spec = PDNSpec.regular(2, grid_nodes=TEST_GRID)
        points = [SweepPoint(spec=spec)]
        engine = SweepEngine()
        first = engine.run(points)
        second = engine.run(points)
        info = engine.cache_info()
        assert info == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "rebuilds": 0,
            "factor_entries": factor_entries(spec),
        }
        assert second.metrics.groups[0].cached
        _assert_close(
            first.values[0].unwrap().max_ir_drop_fraction(),
            second.values[0].unwrap().max_ir_drop_fraction(),
        )

    def test_cache_invalidates_on_revision_bump(self):
        """Out-of-band netlist mutation must not serve a stale LU."""
        spec = PDNSpec.regular(2, grid_nodes=TEST_GRID)
        points = [SweepPoint(spec=spec)]
        engine = SweepEngine()
        baseline = engine.run(points).values[0].unwrap().max_ir_drop_fraction()
        # Mutate the cached PDN's circuit behind the engine's back.
        cached_pdn = next(iter(engine._cache.values())).pdn
        severed_layer_plan(cached_pdn).apply(cached_pdn)
        rebuilt = engine.run(points).values[0].unwrap().max_ir_drop_fraction()
        assert engine.cache_info()["rebuilds"] == 1
        _assert_close(baseline, rebuilt)  # rebuilt from the pristine spec
        # The replaced entry's factor is no longer counted.
        assert engine.cache_info()["factor_entries"] == factor_entries(spec)

    def test_clear_cache(self):
        engine = SweepEngine()
        engine.run([SweepPoint(spec=PDNSpec.regular(2, grid_nodes=TEST_GRID))])
        assert engine.cache_info()["factor_entries"] > 0
        engine.clear_cache()
        assert engine.cache_info()["entries"] == 0
        assert engine.cache_info()["factor_entries"] == 0


class TestClearCacheBySpec:
    SPEC = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
    OTHER = PDNSpec.regular(2, grid_nodes=TEST_GRID)

    def test_drops_every_key_of_a_spec(self):
        """Plan, resilient flag and backend variants all go; others stay."""
        engine = SweepEngine()
        engine.run(
            [
                SweepPoint(spec=self.SPEC),
                SweepPoint(spec=self.SPEC, resilient=True),
                SweepPoint(
                    spec=self.SPEC,
                    fault_plan=FaultPlan().open_converter_bank("sc.rail1"),
                ),
                SweepPoint(spec=self.OTHER),
            ]
        )
        try:
            set_default_backend("iterative")
            engine.run([SweepPoint(spec=self.SPEC)])
        finally:
            set_default_backend(None)
        assert engine.cache_info()["entries"] == 5

        engine.clear_cache([self.SPEC])
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["factor_entries"] == factor_entries(self.OTHER)
        assert [key[0] for key in engine._cache] == [self.OTHER]

    def test_next_run_is_a_miss_with_equal_values(self):
        points = [
            SweepPoint(spec=self.SPEC, layer_activities=a) for a in _activities(2)
        ]
        engine = SweepEngine()
        first = engine.run(points, extract=_ir_drop).values
        entries = engine.cache_info()["factor_entries"]
        engine.clear_cache([self.SPEC])
        assert engine.cache_info()["factor_entries"] == 0
        second = engine.run(points, extract=_ir_drop).values
        info = engine.cache_info()
        assert (info["misses"], info["hits"]) == (2, 0)
        assert info["factor_entries"] == entries
        assert second == first

    def test_unknown_specs_are_a_no_op(self):
        engine = SweepEngine()
        engine.run([SweepPoint(spec=self.SPEC)])
        before = engine.cache_info()
        engine.clear_cache([self.OTHER, self.SPEC.with_(n_layers=3)])
        engine.clear_cache([])
        assert engine.cache_info() == before

    def test_factory_plan_groups_are_never_cached(self):
        points = [
            SweepPoint(spec=self.OTHER, fault_plan=severed_layer_plan, resilient=True)
        ]
        engine = SweepEngine()
        first = engine.run(points, extract=_ir_drop).values
        assert engine.cache_info()["entries"] == 0
        assert engine.cache_info()["factor_entries"] == 0
        engine.clear_cache([self.OTHER])
        second = engine.run(points, extract=_ir_drop).values
        info = engine.cache_info()
        assert (info["entries"], info["misses"], info["hits"]) == (0, 2, 0)
        assert second == first


class TestOrderingAndFanOut:
    def test_values_in_input_order_across_groups(self):
        specs = [
            PDNSpec.regular(2, grid_nodes=TEST_GRID),
            PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID),
        ]
        # Interleave groups so input order != group order.
        points = [
            SweepPoint(spec=specs[i % 2], tag=i) for i in range(6)
        ]
        run = SweepEngine().run(points)
        assert [o.point.tag for o in run.values] == list(range(6))

    @pytest.mark.parametrize("workers", [0, 2, None])
    def test_fan_out_width_is_a_one_line_error(self, workers):
        """An engine is serial; fan-out is the supervisor's, and a width
        other than 1 must say so rather than run serially."""
        with pytest.raises(ValueError) as info:
            SweepEngine(workers=workers)
        message = str(info.value)
        assert "\n" not in message
        assert "RunSupervisor(workers=N)" in message
        assert SweepEngine(workers=1).workers == 1


class TestMetrics:
    def test_stage_metrics_populated(self):
        spec = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
        run = SweepEngine().run(
            [SweepPoint(spec=spec, layer_activities=a) for a in _activities(2)]
        )
        metrics = run.metrics
        assert metrics.n_points == 4
        assert metrics.n_groups == 1
        assert metrics.n_solve_calls == 1  # one batched call
        group = metrics.groups[0]
        assert group.build_s > 0 and group.factorize_s > 0 and group.solve_s > 0
        payload = metrics.to_json()
        assert payload["schema"] == 8
        assert len(payload["run_fingerprint"]) == 16
        assert payload["totals"]["n_points"] == 4
        assert payload["totals"]["retries"] == 0
        assert payload["totals"]["quarantined"] == 0
        assert payload["totals"]["contracts_s"] >= 0
        assert payload["escalations"].get("lu", 0) == 4
        assert payload["contracts"].get("pass", 0) > 0
        assert "summary" not in payload  # stable machine layout only

    def test_bench_json_written(self, tmp_path, monkeypatch):
        from repro.runtime.metrics import BENCH_DIR_ENV

        monkeypatch.setenv(BENCH_DIR_ENV, str(tmp_path))
        spec = PDNSpec.regular(2, grid_nodes=TEST_GRID)
        SweepEngine().run([SweepPoint(spec=spec)], bench_name="engine_unit")
        path = tmp_path / "BENCH_engine_unit.json"
        assert path.exists()
        import json

        payload = json.loads(path.read_text())
        assert payload["totals"]["n_points"] == 1


class TestSolverBatchAPI:
    def test_solve_batch_on_builder(self):
        pdn = build_stacked_pdn(2, converters_per_core=4, grid_nodes=TEST_GRID)
        activity_sets = _activities(2)
        batched = pdn.solve_batch(activity_sets)
        assert len(batched) == len(activity_sets)
        for result, activities in zip(batched, activity_sets):
            sequential = pdn.solve(layer_activities=activities)
            _assert_close(
                sequential.max_ir_drop_fraction(), result.max_ir_drop_fraction()
            )

    @pytest.mark.parametrize("arrangement", ["regular", "stacked"])
    def test_a_batch_of_one_is_a_single_solve_bit_for_bit(self, arrangement):
        if arrangement == "regular":
            pdn = build_regular_pdn(4, grid_nodes=TEST_GRID)
        else:
            pdn = build_stacked_pdn(4, converters_per_core=4, grid_nodes=TEST_GRID)
        for activities in _activities(4):
            (batched,) = pdn.solve_batch([activities])
            single = pdn.solve(layer_activities=activities)
            assert np.array_equal(batched.solution._x, single.solution._x)

    def test_a_multi_point_batch_agrees_with_single_solves(self):
        """Multi-RHS triangular solves round differently from one-column
        ones, and the V-S saddle-point system amplifies that round-off:
        on this design 5 of 11 columns differ, by up to 8.9e-11 of
        max |x|.  The bound is the one the backends agree to."""
        pdn = build_stacked_pdn(4, converters_per_core=4, grid_nodes=12)
        activity_sets = [
            tuple(interleaved_layer_activities(4, step / 10)) for step in range(11)
        ]
        batched = pdn.solve_batch(activity_sets)
        for result, activities in zip(batched, activity_sets):
            x = pdn.solve(layer_activities=activities).solution._x
            assert np.max(np.abs(result.solution._x - x)) <= 1e-9 * np.max(np.abs(x))

    def test_severed_strict_solve_raises(self):
        """Factorisation may 'succeed' on a severed netlist; the strict
        solve's residual check is what rejects the garbage answer."""
        from repro.errors import SingularCircuitError

        pdn = build_regular_pdn(2, grid_nodes=TEST_GRID)
        assert pdn.assembled().factorize() is True
        severed = build_regular_pdn(2, grid_nodes=TEST_GRID)
        severed.apply_faults(severed_layer_plan(severed))
        with pytest.raises(SingularCircuitError):
            severed.solve(resilient=False)

    def test_solve_batch_stale_revision_raises(self):
        from repro.errors import FaultInjectionError

        pdn = build_regular_pdn(2, grid_nodes=TEST_GRID)
        assembled = pdn.circuit.assemble()
        severed_layer_plan(pdn).apply(pdn)
        with pytest.raises(FaultInjectionError, match="modified after assembly"):
            assembled.solve(SolveRequest(isource_currents=[None]))
