"""The typed exception hierarchy and its use across the library."""

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    FaultInjectionError,
    QuarantinedTopologyError,
    ReproError,
    ResumeMismatchError,
    SingularCircuitError,
    TaskTimeoutError,
)
from repro.grid.netlist import RESISTOR, Circuit
from repro.grid.solver import SolveRequest


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            SingularCircuitError,
            ConvergenceError,
            FaultInjectionError,
            TaskTimeoutError,
            QuarantinedTopologyError,
            ResumeMismatchError,
        ):
            assert issubclass(exc, ReproError)

    def test_supervision_errors_carry_context(self):
        err = TaskTimeoutError("slow", task="abcd", timeout_s=2.5)
        assert err.task == "abcd" and err.timeout_s == 2.5
        cause = ValueError("root")
        err = QuarantinedTopologyError(
            "gone", task="abcd", attempts=3, last_error=cause
        )
        assert err.attempts == 3 and err.last_error is cause
        err = ResumeMismatchError("bad line", line=7)
        assert err.line == 7
        assert ResumeMismatchError("no line").line is None

    def test_repro_error_is_runtime_error(self):
        # Pre-existing callers catching RuntimeError keep working.
        assert issubclass(ReproError, RuntimeError)

    def test_solver_errors_carry_diagnostics(self):
        err = SingularCircuitError("boom", diagnostics="diag-sentinel")
        assert err.diagnostics == "diag-sentinel"
        err = ConvergenceError("slow")
        assert err.diagnostics is None

    def test_singular_circuit_raised_as_typed_error(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("in", "gnd", 1.0)
        c.add_resistor("in", "gnd", 1.0)
        c.add_resistor("x", "y", 1.0)  # floating island
        with pytest.raises(ReproError):
            c.solve()


class TestInputValidation:
    def test_nan_current_source_rejected_with_index(self):
        c = Circuit()
        c.set_ground("gnd")
        with pytest.raises(ValueError, match=r"current\[1\]"):
            c.add_current_sources(
                ["gnd", "gnd"], ["a", "b"], [1.0, float("nan")]
            )

    def test_inf_voltage_source_rejected(self):
        c = Circuit()
        c.set_ground("gnd")
        with pytest.raises(ValueError, match=r"voltage\[0\]"):
            c.add_voltage_source("in", "gnd", float("inf"))

    def test_nan_resistance_rejected(self):
        c = Circuit()
        c.set_ground("gnd")
        with pytest.raises(ValueError, match=r"resistance\[0\]"):
            c.add_resistor("a", "gnd", float("nan"))

    def test_solve_override_rejects_non_finite(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_current_source("gnd", "a", 1.0)
        c.add_resistor("a", "gnd", 2.0)
        asm = c.assemble()
        with pytest.raises(ValueError, match=r"isource_current\[0\]"):
            asm.solve(SolveRequest(isource_current=np.array([np.nan])))

    def test_stale_assembly_raises_fault_injection_error(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("in", "gnd", 1.0)
        c.add_resistors(["in", "in"], ["gnd", "gnd"], [1.0, 1.0], tag="par")
        asm = c.assemble()
        c.open_elements(RESISTOR, [0])
        with pytest.raises(FaultInjectionError, match="modified after assembly"):
            asm.solve()
