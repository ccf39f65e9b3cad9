"""Resilient solve path: island pruning, load shedding, diagnostics.

Property-based: whatever random subset of a grid's edges fails open, a
resilient solve must either return a finite solution with diagnostics or
raise a typed :class:`repro.errors.ReproError` — never an unhandled
SciPy exception and never non-finite voltages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SingularCircuitError
from repro.faults import severed_layer_plan
from repro.grid.netlist import RESISTOR, Circuit
from repro.grid.solver import SolveOptions, SolveRequest
from repro.pdn.regular3d import RegularPDN3D
from repro.pdn.stacked3d import StackedPDN3D

from tests.conftest import TEST_GRID

RESILIENT = SolveRequest(options=SolveOptions(resilient=True))


def grid_circuit(n: int, load: float = 0.1) -> Circuit:
    """An n x n resistor mesh fed at one corner, loaded at every node."""
    c = Circuit()
    c.set_ground("gnd")
    c.add_voltage_source("supply", "gnd", 1.0, tag="vs")
    c.add_resistor("supply", (0, 0), 0.05, tag="feed")
    n1, n2 = [], []
    for j in range(n):
        for i in range(n):
            if i + 1 < n:
                n1.append((j, i)); n2.append((j, i + 1))
            if j + 1 < n:
                n1.append((j, i)); n2.append((j + 1, i))
    c.add_resistors(n1, n2, np.full(len(n1), 1.0), tag="mesh")
    nodes = [(j, i) for j in range(n) for i in range(n)]
    c.add_current_sources(
        nodes, ["gnd"] * len(nodes), np.full(len(nodes), load), tag="loads"
    )
    return c


class TestRandomizedDamage:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=6),
        damage=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_never_nonfinite_never_untyped(self, n, damage, seed):
        c = grid_circuit(n)
        store = c.store(RESISTOR)
        mesh = store.tag_indices("mesh")
        rng = np.random.default_rng(seed)
        kill = mesh[rng.random(mesh.size) < damage]
        if kill.size:
            c.open_elements(RESISTOR, kill)
        try:
            sol = c.assemble().solve(RESILIENT)
        except ReproError:
            return  # typed failure is an acceptable outcome
        assert np.isfinite(sol.node_voltage).all()
        diag = sol.diagnostics
        assert diag is not None
        assert diag.residual <= 1e-6 or diag.fallback != "none"
        # Shed loads are reported as zero current, keeping KCL honest.
        assert np.isfinite(sol.isource_values()).all()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_pruning_matches_reference_on_live_nodes(self, seed):
        # Cut the mesh into a known two-halves split: the dead half must
        # be grounded, the live half must match a circuit built without
        # the dead half at all.
        n = 4
        c = grid_circuit(n)
        store = c.store(RESISTOR)
        mesh = store.tag_indices("mesh")
        n1 = store.column("n1")[mesh]
        n2 = store.column("n2")[mesh]
        # Node ids for row coordinates: cut every edge crossing rows 1|2.
        row1 = {c.node((1, i)) for i in range(n)}
        row2 = {c.node((2, i)) for i in range(n)}
        crossing = mesh[
            [(a in row1 and b in row2) or (a in row2 and b in row1)
             for a, b in zip(n1, n2)]
        ]
        c.open_elements(RESISTOR, crossing)
        sol = c.assemble().solve(RESILIENT)
        assert sol.diagnostics.n_islands == 1
        # Dead half (rows 2..3) grounded to exactly 0.
        for j in (2, 3):
            for i in range(n):
                assert sol.voltage((j, i)) == 0.0
        # Live half matches a half-sized reference mesh.
        ref = grid_circuit_half(n, seed)
        ref_sol = ref.solve()
        for j in (0, 1):
            for i in range(n):
                assert sol.voltage((j, i)) == pytest.approx(
                    ref_sol.voltage((j, i)), abs=1e-9
                )


def grid_circuit_half(n: int, _seed: int, load: float = 0.1) -> Circuit:
    """The live upper half (rows 0..1) of the cut mesh, built directly."""
    c = Circuit()
    c.set_ground("gnd")
    c.add_voltage_source("supply", "gnd", 1.0, tag="vs")
    c.add_resistor("supply", (0, 0), 0.05, tag="feed")
    n1, n2 = [], []
    for j in range(2):
        for i in range(n):
            if i + 1 < n:
                n1.append((j, i)); n2.append((j, i + 1))
            if j + 1 < 2:
                n1.append((j, i)); n2.append((j + 1, i))
    c.add_resistors(n1, n2, np.full(len(n1), 1.0), tag="mesh")
    nodes = [(j, i) for j in range(2) for i in range(n)]
    c.add_current_sources(
        nodes, ["gnd"] * len(nodes), np.full(len(nodes), load), tag="loads"
    )
    return c


class TestStrictVsResilient:
    def test_strict_still_raises_on_island(self):
        c = grid_circuit(3)
        store = c.store(RESISTOR)
        mesh = store.tag_indices("mesh")
        c.open_elements(RESISTOR, mesh)  # every node but the fed corner floats
        with pytest.raises(SingularCircuitError):
            c.assemble().solve()

    def test_resilient_prunes_same_circuit(self):
        c = grid_circuit(3)
        store = c.store(RESISTOR)
        mesh = store.tag_indices("mesh")
        c.open_elements(RESISTOR, mesh)
        sol = c.assemble().solve(RESILIENT)
        diag = sol.diagnostics
        assert diag.n_islands >= 1
        assert diag.n_dropped_nodes == 8  # all but the fed corner
        assert diag.shed_loads == 8
        assert diag.degraded
        assert "island" in diag.summary()

    def test_clean_circuit_resilient_matches_strict(self):
        strict = grid_circuit(4).solve()
        resilient = grid_circuit(4).assemble().solve(RESILIENT)
        assert resilient.diagnostics.n_islands == 0
        assert not resilient.diagnostics.degraded
        np.testing.assert_allclose(
            resilient.node_voltage, strict.node_voltage, atol=1e-9
        )
        assert resilient.diagnostics.condition_estimate is not None


class TestSeveredLayerRegression:
    """A fully-severed layer in a 4-layer stack must be detected as a
    floating island and pruned — for both PDN arrangements."""

    def test_regular_pdn_detects_island(self, stack_4l):
        pdn = RegularPDN3D(stack_4l)
        pdn.apply_faults(severed_layer_plan(pdn))  # top layer
        result = pdn.solve()
        diag = result.diagnostics
        assert diag is not None
        assert diag.n_islands >= 1
        # Both meshes of the severed layer are dropped and its loads shed.
        assert diag.n_dropped_nodes == 2 * TEST_GRID**2
        assert diag.shed_loads == TEST_GRID**2
        for layer in range(stack_4l.n_layers):
            assert np.isfinite(result.ir_drop_map(layer)).all()
        # The surviving layers still see a sane supply.
        assert result.max_ir_drop_fraction() >= 0

    def test_stacked_pdn_detects_island(self, stack_4l):
        pdn = StackedPDN3D(stack_4l, converters_per_core=4)
        pdn.apply_faults(severed_layer_plan(pdn))
        result = pdn.solve()
        diag = result.diagnostics
        assert diag is not None
        assert diag.n_islands >= 1
        assert diag.n_dropped_nodes == 2 * TEST_GRID**2
        assert np.isfinite(result.solution.node_voltage).all()

    def test_middle_layer_cut_cascades_in_ladder(self, stack_4l):
        # Severing a middle layer of the series ladder also strands the
        # neighbours' interface meshes; the solver must keep pruning
        # until everything left is referenced to ground.
        pdn = StackedPDN3D(stack_4l, converters_per_core=4)
        pdn.apply_faults(severed_layer_plan(pdn, layer=1))
        result = pdn.solve()
        assert result.diagnostics.n_islands >= 1
        assert np.isfinite(result.solution.node_voltage).all()

    def test_strict_solve_of_severed_stack_raises_typed(self, stack_4l):
        pdn = RegularPDN3D(stack_4l)
        pdn.apply_faults(severed_layer_plan(pdn))
        with pytest.raises(SingularCircuitError):
            pdn.solve(resilient=False)
