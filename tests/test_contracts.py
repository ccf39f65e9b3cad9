"""Physics contracts: severity routing, the PDN checks, roll-ups."""

import pytest

from repro.config.stackups import PadAllocation, ProcessorSpec, StackConfig, few_tsv
from repro.contracts import (
    ContractCheck,
    ContractPolicy,
    ContractReport,
    ContractWarning,
    check_em_monotonicity,
    check_pdn_result,
    contract_policy,
    enforce,
    policy_from_env,
)
from repro.errors import ContractViolationError, ReproError
from repro.faults import FaultPlan

from tests.conftest import TEST_GRID


def _stack(n_layers: int) -> StackConfig:
    return StackConfig(
        n_layers=n_layers,
        processor=ProcessorSpec(),
        tsv_topology=few_tsv(),
        pads=PadAllocation(power_fraction=0.25),
        grid_nodes=TEST_GRID,
    )


# ----------------------------------------------------------------------
# severity policies and enforcement
# ----------------------------------------------------------------------
def _failing_report(severity: str) -> ContractReport:
    return ContractReport(
        checks=[
            ContractCheck(
                name="kcl_residual", passed=False, severity=severity,
                observed=1.0, limit=1e-6, message="power imbalance",
            )
        ]
    )


class TestSeverityRouting:
    def test_record_is_silent(self, recwarn):
        report = enforce(_failing_report("record"))
        assert not report.passed
        assert report.histogram() == {"record": 1}
        assert len(recwarn) == 0

    def test_warn_emits_contract_warning(self):
        with pytest.warns(ContractWarning, match="kcl_residual"):
            enforce(_failing_report("warn"))

    def test_raise_carries_the_report(self):
        with pytest.raises(ContractViolationError) as excinfo:
            enforce(_failing_report("raise"))
        assert excinfo.value.report.violations()[0].name == "kcl_residual"

    def test_degraded_cap(self):
        policy = ContractPolicy()
        assert policy.severity_for("kcl_residual") == "raise"
        assert policy.severity_for("kcl_residual", degraded=True) == "record"
        assert policy.severity_for("voltage_bounds") == "warn"

    def test_policy_from_env(self):
        assert not policy_from_env("off").enabled
        assert policy_from_env("").override is None
        assert policy_from_env("raise").override == "raise"
        with pytest.raises(ReproError, match="REPRO_CONTRACTS"):
            policy_from_env("loudly")

    def test_contract_policy_context_restores(self):
        from repro.contracts import get_policy

        before = get_policy()
        with contract_policy(override="record") as scoped:
            assert get_policy() is scoped
        assert get_policy() is before


# ----------------------------------------------------------------------
# PDN result contracts
# ----------------------------------------------------------------------
class TestPDNContracts:
    def test_clean_solve_attaches_passing_report(self, stacked_result):
        report = stacked_result.contracts
        assert report is not None and report.passed
        names = {check.name for check in report.checks}
        assert {"finite_fields", "kcl_residual", "passivity",
                "voltage_bounds", "efficiency_range"} <= names
        if stacked_result.diagnostics is not None:
            assert stacked_result.diagnostics.contracts is report
        assert not stacked_result.degraded
        assert report.to_json()["passed"] is True

    def test_clean_solve_survives_raise_override(self, stacked_pdn):
        with contract_policy(override="raise"):
            result = stacked_pdn.solve()
        assert result.contracts.passed

    def test_disabled_policy_skips_checks(self, stacked_pdn):
        with contract_policy(enabled=False):
            result = stacked_pdn.solve()
        assert result.contracts is None

    def test_faulted_solve_records_instead_of_raising(self, recwarn):
        from repro.pdn.stacked3d import StackedPDN3D
        from repro.workload.imbalance import interleaved_layer_activities

        pdn = StackedPDN3D(_stack(4), converters_per_core=4)
        pdn.apply_faults(FaultPlan().open_converter_bank("sc.rail1"))
        result = pdn.solve(
            layer_activities=interleaved_layer_activities(4, 1.0)
        )
        # Violations on a fault-injected network are capped at "record":
        # no warning, no exception, but the report keeps the evidence.
        assert result.contracts is not None
        assert result.contracts.degraded
        assert not result.contracts.passed  # this workload does violate
        for check in result.contracts.checks:
            assert check.severity == "record"
        assert not any(
            isinstance(w.message, ContractWarning) for w in recwarn.list
        )

    def test_em_monotonicity_holds(self):
        report = check_em_monotonicity()
        assert report.passed
        assert report.checks[0].name == "em_mttf_monotone"

    def test_check_pdn_result_degraded_hint(self, stacked_result):
        report = check_pdn_result(stacked_result, degraded=True)
        assert report.degraded


# ----------------------------------------------------------------------
# engine and supervisor roll-ups
# ----------------------------------------------------------------------
class TestContractMetrics:
    def test_engine_histogram_counts_faulted_points(self):
        from repro.runtime import PDNSpec, SweepEngine, SweepPoint
        from repro.workload.imbalance import interleaved_layer_activities

        spec = PDNSpec.stacked(4, converters_per_core=4, grid_nodes=TEST_GRID)
        plan = FaultPlan().open_converter_bank("sc.rail1")
        points = [
            SweepPoint(
                spec=spec,
                layer_activities=tuple(interleaved_layer_activities(4, imb)),
                fault_plan=plan,
            )
            for imb in (0.0, 1.0)
        ]
        run = SweepEngine().run(points)
        histogram = run.metrics.contract_histogram()
        assert histogram.get("pass", 0) > 0
        assert run.metrics.contracts_s >= 0.0
        payload = run.metrics.to_json()
        assert payload["schema"] == 8
        assert payload["contracts"] == histogram

    def test_supervisor_report_carries_histogram(self, tmp_path):
        from repro.runtime import (
            PDNSpec,
            RunSupervisor,
            SupervisorConfig,
            SweepPoint,
        )

        supervisor = RunSupervisor(
            config=SupervisorConfig(run_dir=str(tmp_path / "run"))
        )
        supervised = supervisor.run(
            [SweepPoint(spec=PDNSpec.stacked(2, grid_nodes=TEST_GRID))]
        )
        report = supervised.report
        assert report.contract_histogram.get("pass", 0) > 0
        assert report.to_json()["contracts"] == report.contract_histogram
