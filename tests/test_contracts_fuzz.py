"""Property-based fuzz harness for the physics-contract layer.

Seeded NumPy-RNG fuzzing (deterministic, no external dependency): random
stackups, workloads and fault plans are solved and every result must
either satisfy the invariant catalog or carry its violations in a
machine-readable :class:`ContractReport` / typed error — never a silent
bad number.  The point budget scales with the ``REPRO_FUZZ_POINTS``
environment variable (CI exports 1000; the local default keeps the
tier-1 suite fast).
"""

import os

import numpy as np
import pytest

from repro.config.stackups import PadAllocation, ProcessorSpec, StackConfig, few_tsv
from repro.contracts import check_em_monotonicity
from repro.errors import ContractViolationError
from repro.faults import FaultPlan
from repro.pdn.regular3d import RegularPDN3D
from repro.pdn.stacked3d import StackedPDN3D

from tests.conftest import TEST_GRID

#: Total fuzz budget; CI raises this to >= 1000.
FUZZ_POINTS = int(os.environ.get("REPRO_FUZZ_POINTS", "150"))
SEED = 20260805


def _budget(fraction: float, floor: int = 8) -> int:
    return max(floor, int(FUZZ_POINTS * fraction))


def _stack(n_layers: int) -> StackConfig:
    return StackConfig(
        n_layers=n_layers,
        processor=ProcessorSpec(),
        tsv_topology=few_tsv(),
        pads=PadAllocation(power_fraction=0.25),
        grid_nodes=TEST_GRID,
    )


# ----------------------------------------------------------------------
# PDN solves: clean networks must pass, faulted ones must report
# ----------------------------------------------------------------------
class TestPDNFuzz:
    def test_random_workloads_on_clean_networks_pass_contracts(self):
        rng = np.random.default_rng(SEED)
        pdns = [
            RegularPDN3D(_stack(2)),
            RegularPDN3D(_stack(4)),
            StackedPDN3D(_stack(2), converters_per_core=4),
            StackedPDN3D(_stack(4), converters_per_core=4),
            StackedPDN3D(_stack(4), converters_per_core=8),
        ]
        for _ in range(_budget(0.2)):
            pdn = pdns[rng.integers(len(pdns))]
            activities = rng.uniform(0.0, 1.0, pdn.stack.n_layers)
            result = pdn.solve(layer_activities=activities)
            report = result.contracts
            assert report is not None
            # A pristine resistive/SC network must satisfy every
            # invariant — a failure here is a genuine solver bug.
            assert report.passed, report.summary()
            assert not result.degraded

    def test_random_fault_plans_report_never_hide(self, recwarn):
        rng = np.random.default_rng(SEED + 1)
        unreported = 0
        for i in range(_budget(0.1)):
            pdn = StackedPDN3D(_stack(4), converters_per_core=4)
            rail = int(rng.integers(1, 4))
            plan = FaultPlan().open_converter_bank(f"sc.rail{rail}")
            if rng.random() < 0.5:
                tags = [t for t in pdn.fault_tags() if t.startswith("tsv")]
                plan = plan.degrade_conductors(
                    tags[int(rng.integers(len(tags)))],
                    branch=0,
                    factor=float(rng.uniform(2, 20)),
                )
            pdn.apply_faults(plan)
            activities = rng.uniform(0.0, 1.0, 4)
            try:
                result = pdn.solve(layer_activities=activities)
            except ContractViolationError as exc:
                # Reported loudly: acceptable, report must ride along.
                assert exc.report is not None
                continue
            report = result.contracts
            assert report is not None
            # Faulted solves are checked as degraded: any violation is
            # recorded in the report, never raised or silently dropped.
            assert report.degraded
            if not report.passed:
                assert report.violations(), "violation lost from report"
            if report.passed and result.diagnostics is not None:
                # Nothing flagged anywhere -> must be a genuinely clean
                # solve, not a swallowed failure.
                unreported += int(
                    not np.all(np.isfinite(result.solution.node_voltage))
                )
        assert unreported == 0

    def test_nan_workloads_rejected_with_typed_error(self):
        from repro.errors import ReproError

        rng = np.random.default_rng(SEED + 2)
        pdn = StackedPDN3D(_stack(4), converters_per_core=4)
        for _ in range(_budget(0.05)):
            activities = rng.uniform(0.0, 1.0, 4)
            bad = int(rng.integers(4))
            activities[bad] = rng.choice([np.nan, np.inf, -np.inf])
            with pytest.raises(ReproError, match=f"layer_activities\\[{bad}\\]"):
                pdn.solve(layer_activities=activities)


# ----------------------------------------------------------------------
# EM model: MTTF monotone in current density for random sweeps
# ----------------------------------------------------------------------
class TestEMFuzz:
    def test_random_current_sweeps_are_monotone(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(_budget(0.15)):
            currents = rng.uniform(1e-5, 1.0, int(rng.integers(4, 32)))
            cross_section = float(rng.uniform(1e-12, 1e-9))
            report = check_em_monotonicity(
                currents=currents, cross_section=cross_section
            )
            assert report.passed, report.summary()
