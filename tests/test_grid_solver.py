"""MNA solves against hand-computed circuits."""

import numpy as np
import pytest

from repro.grid.netlist import Circuit
from repro.grid.solver import SingularCircuitError, SolveRequest


def divider(r1=1.0, r2=1.0, v=1.0):
    c = Circuit()
    c.set_ground("gnd")
    c.add_voltage_source("in", "gnd", v, tag="supply")
    c.add_resistor("in", "mid", r1, tag="top")
    c.add_resistor("mid", "gnd", r2, tag="bottom")
    return c


class TestResistiveCircuits:
    def test_voltage_divider(self):
        sol = divider(1.0, 3.0, 2.0).solve()
        assert sol.voltage("mid") == pytest.approx(1.5)

    def test_divider_currents(self):
        sol = divider(1.0, 1.0, 1.0).solve()
        assert sol.resistor_currents("top")[0] == pytest.approx(0.5)
        assert sol.vsource_currents("supply")[0] == pytest.approx(0.5)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_current_source("gnd", "a", 2.0, tag="src")
        c.add_resistor("a", "gnd", 5.0)
        sol = c.solve()
        assert sol.voltage("a") == pytest.approx(10.0)

    def test_parallel_resistors(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("in", "gnd", 1.0)
        c.add_resistors(["in", "in"], ["gnd", "gnd"], [2.0, 2.0], tag="par")
        sol = c.solve()
        currents = sol.resistor_currents("par")
        assert currents == pytest.approx([0.5, 0.5])

    def test_wheatstone_bridge_balanced(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("top", "gnd", 1.0)
        c.add_resistor("top", "l", 1.0)
        c.add_resistor("top", "r", 1.0)
        c.add_resistor("l", "gnd", 1.0)
        c.add_resistor("r", "gnd", 1.0)
        c.add_resistor("l", "r", 7.0, tag="bridge")  # balanced: no current
        sol = c.solve()
        assert sol.resistor_currents("bridge")[0] == pytest.approx(0.0, abs=1e-12)

    def test_power_balance(self):
        sol = divider(2.0, 3.0, 5.0).solve()
        assert sol.power_balance_error() < 1e-9

    def test_resistor_power(self):
        sol = divider(1.0, 1.0, 2.0).solve()
        # 2 V over 2 ohm -> 1 A -> 2 W total dissipation.
        assert sol.resistor_power() == pytest.approx(2.0)


class TestConverterStamp:
    def test_output_is_midpoint_at_no_load(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("top", "gnd", 2.0)
        c.add_converter("top", "gnd", "mid", r_series=0.6, tag="sc")
        c.add_resistor("mid", "gnd", 1e9)  # keep the node tied
        sol = c.solve()
        assert sol.voltage("mid") == pytest.approx(1.0, abs=1e-6)

    def test_sourcing_drop_and_input_current(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("top", "gnd", 2.0, tag="supply")
        c.add_converter("top", "gnd", "mid", r_series=0.6, tag="sc")
        c.add_current_source("mid", "gnd", 0.1, tag="load")
        sol = c.solve()
        assert sol.voltage("mid") == pytest.approx(2.0 / 2 - 0.1 * 0.6)
        assert sol.converter_output_currents("sc")[0] == pytest.approx(0.1)
        # Ideal 2:1: the supply provides half the output current.
        assert sol.vsource_currents("supply")[0] == pytest.approx(0.05)

    def test_push_pull_sinks_excess(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("top", "gnd", 2.0)
        c.add_converter("top", "gnd", "mid", r_series=0.6, tag="sc")
        c.add_current_source("top", "mid", 0.4, tag="upper")
        c.add_current_source("mid", "gnd", 0.3, tag="lower")
        sol = c.solve()
        j = sol.converter_output_currents("sc")[0]
        assert j == pytest.approx(-0.1)  # sinking
        assert sol.voltage("mid") == pytest.approx(1.0 + 0.1 * 0.6)

    def test_converter_conserves_power(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("top", "gnd", 2.0)
        c.add_converter("top", "gnd", "mid", r_series=0.6, tag="sc")
        c.add_current_source("mid", "gnd", 0.08)
        sol = c.solve()
        assert sol.power_balance_error() < 1e-9

    def test_series_loss(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("top", "gnd", 2.0)
        c.add_converter("top", "gnd", "mid", r_series=0.5, tag="sc")
        c.add_current_source("mid", "gnd", 0.2)
        sol = c.solve()
        assert sol.converter_series_loss("sc") == pytest.approx(0.2**2 * 0.5)

    def test_stacked_ladder_regulates_all_rails(self):
        # 3 loads, 2 converters (Fig. 1's arrangement), balanced loads.
        c = Circuit()
        c.set_ground("r0")
        c.add_voltage_source("r3", "r0", 3.0)
        c.add_converter("r2", "r0", "r1", r_series=0.6)
        c.add_converter("r3", "r1", "r2", r_series=0.6)
        for lo, hi in [("r0", "r1"), ("r1", "r2"), ("r2", "r3")]:
            c.add_current_source(hi, lo, 0.2)
        sol = c.solve()
        assert sol.voltage("r1") == pytest.approx(1.0, abs=1e-9)
        assert sol.voltage("r2") == pytest.approx(2.0, abs=1e-9)


class TestOverridesAndReuse:
    def test_isource_override_changes_solution(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_current_source("gnd", "a", 1.0)
        c.add_resistor("a", "gnd", 2.0)
        asm = c.assemble()
        assert asm.solve().voltage("a") == pytest.approx(2.0)
        assert asm.solve(SolveRequest(isource_current=np.array([2.0]))).voltage("a") == pytest.approx(4.0)

    def test_vsource_override(self):
        c = divider()
        asm = c.assemble()
        assert asm.solve(SolveRequest(vsource_voltage=np.array([4.0]))).voltage("mid") == pytest.approx(2.0)

    def test_override_wrong_length_rejected(self):
        c = divider()
        asm = c.assemble()
        with pytest.raises(ValueError, match="length"):
            asm.solve(SolveRequest(vsource_voltage=np.array([1.0, 2.0])))

    def test_factorisation_reused(self):
        c = divider()
        asm = c.assemble()
        asm.solve()
        lu = asm.factorization
        assert lu is not None
        asm.solve()
        assert asm.factorization is lu


class TestSingularDetection:
    def test_floating_subnetwork_raises(self):
        c = Circuit()
        c.set_ground("gnd")
        c.add_voltage_source("in", "gnd", 1.0)
        c.add_resistor("in", "gnd", 1.0)
        c.add_resistor("x", "y", 1.0)  # floating island
        with pytest.raises(SingularCircuitError):
            c.solve()
