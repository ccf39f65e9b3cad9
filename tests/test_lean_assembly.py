"""What a built, assembled PDN keeps, checked against the paths it replaced.

Two equality oracles, each keeping the old path inside the test:

* grid meshes allocate their node ids as one block per (net, layer);
  the old path created every ``(net, layer, j, i)`` key one by one;
* the pruning rung recomputes the COO stamps; the old path read stamps
  snapshotted (and kept) at assembly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pdn.builder as builder
import repro.pdn.regular_sc3d as regular_sc3d
from repro.config.stackups import ProcessorSpec, StackConfig
from repro.errors import FaultInjectionError
from repro.faults import severed_layer_plan
from repro.grid.netlist import RESISTOR
from repro.grid.solver import AssembledCircuit, SolveOptions, SolveRequest
from repro.pdn.regular3d import RegularPDN3D
from repro.pdn.regular_sc3d import RegularSCPDN3D
from repro.pdn.stacked3d import StackedPDN3D

from tests.test_resilient_solver import grid_circuit

PDN_CLASSES = {
    "regular": RegularPDN3D,
    "stacked": StackedPDN3D,
    "regular_sc": RegularSCPDN3D,
}


def _per_key_net_grid(circuit, layer, net, geometry, edge_resistance):
    """The old ``add_net_grid``: one ``Circuit.node`` call per key."""
    g = geometry.grid_nodes
    ids = circuit.nodes(((net, layer, j, i) for j in range(g) for i in range(g)))
    ids = ids.reshape(g, g)
    tag = f"grid.{net}.l{layer}"
    n1 = ids[:, :-1].ravel()
    n2 = ids[:, 1:].ravel()
    circuit.add_resistors(n1, n2, np.full(n1.size, edge_resistance), tag=tag)
    n1 = ids[:-1, :].ravel()
    n2 = ids[1:, :].ravel()
    circuit.add_resistors(n1, n2, np.full(n1.size, edge_resistance), tag=tag)
    return ids


def _snapshot_stamps(mp):
    """Make every assembly keep its stamps and the pruning rung read them."""
    collect = AssembledCircuit._collect_stamps

    def snapshotted(self):
        snapshot = self.__dict__.get("_snapshot")
        if snapshot is None:
            snapshot = self.__dict__["_snapshot"] = collect(self)
        return snapshot

    mp.setattr(AssembledCircuit, "_collect_stamps", snapshotted)


def _same_csc(a, b) -> bool:
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def _stack(grid, layers, cores):
    return StackConfig(
        n_layers=layers, grid_nodes=grid, processor=ProcessorSpec(core_count=cores)
    )


designs = st.tuples(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1, 4, 9, 16]),
    st.sampled_from(sorted(PDN_CLASSES)),
)


class TestBlockNodeIdsOracle:
    @given(designs)
    @settings(max_examples=12, deadline=None)
    def test_block_build_equals_per_key_build(self, design):
        grid, layers, cores, arrangement = design
        if arrangement == "stacked" and layers < 2:
            layers = 2
        stack = _stack(grid, layers, cores)
        new = PDN_CLASSES[arrangement](stack)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(builder, "add_net_grid", _per_key_net_grid)
            mp.setattr(regular_sc3d, "add_net_grid", _per_key_net_grid)
            old = PDN_CLASSES[arrangement](stack)

        assert new.circuit.node_count == old.circuit.node_count
        keys = old.circuit.node_keys
        assert new.circuit.node_keys == keys
        assert _same_csc(new.assembled()._matrix, old.assembled()._matrix)
        for net_ids_new, net_ids_old in ((new.vdd_ids, old.vdd_ids), (new.gnd_ids, old.gnd_ids)):
            for a, b in zip(net_ids_new, net_ids_old):
                assert np.array_equal(a, b)

        new_solution = new.solve().solution
        old_solution = old.solve().solution
        assert np.array_equal(new_solution.node_voltage, old_solution.node_voltage)
        assert np.array_equal(new_solution.voltages(keys), old_solution.voltages(keys))
        corner = ("vdd", layers - 1, grid - 1, grid - 1)
        assert new_solution.voltage(corner) == old_solution.voltage(corner)
        assert new.circuit.node_count == len(keys)  # lookups created nothing


class TestRecomputedStampsOracle:
    @given(designs, st.data())
    @settings(max_examples=10, deadline=None)
    def test_faulted_pdn_prunes_as_with_kept_stamps(self, design, data):
        grid, layers, cores, arrangement = design
        if arrangement == "regular_sc":
            arrangement = "regular"  # no isolation hook to sever a layer
        layers = max(layers, 2)
        layer = data.draw(st.integers(min_value=0, max_value=layers - 1))
        stack = _stack(grid, layers, cores)

        def faulted_solve():
            pdn = PDN_CLASSES[arrangement](stack)
            pdn.apply_faults(severed_layer_plan(pdn, layer=layer))
            return pdn.solve(), pdn.assembled()

        new, new_assembled = faulted_solve()
        with pytest.MonkeyPatch.context() as mp:
            _snapshot_stamps(mp)
            old, old_assembled = faulted_solve()

        assert new.diagnostics.n_islands >= 1
        assert new.diagnostics.dropped_nodes == old.diagnostics.dropped_nodes
        assert new.diagnostics.shed_loads == old.diagnostics.shed_loads
        assert _same_csc(new_assembled._pruned_matrix, old_assembled._pruned_matrix)
        assert np.array_equal(
            new.solution.node_voltage, old.solution.node_voltage
        )

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.05, max_value=0.9),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_resilient_solve_prunes_as_with_kept_stamps(self, n, damage, seed):
        def damaged_solve():
            c = grid_circuit(n)
            mesh = c.store(RESISTOR).tag_indices("mesh")
            kill = mesh[np.random.default_rng(seed).random(mesh.size) < damage]
            c.open_elements(RESISTOR, kill)
            assembled = c.assemble()
            return assembled.solve(SolveRequest(options=SolveOptions(resilient=True))), assembled

        new, new_assembled = damaged_solve()
        with pytest.MonkeyPatch.context() as mp:
            _snapshot_stamps(mp)
            old, old_assembled = damaged_solve()
        assert new.diagnostics.fallback == old.diagnostics.fallback
        assert np.array_equal(new.node_voltage, old.node_voltage)
        if new_assembled._pruned_matrix is not None:
            assert _same_csc(new_assembled._pruned_matrix, old_assembled._pruned_matrix)

    def test_stale_revision_raises_before_any_pruning(self):
        c = grid_circuit(4)
        assembled = c.assemble()
        c.open_elements(RESISTOR, c.store(RESISTOR).tag_indices("mesh")[:3])
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            collect = AssembledCircuit._collect_stamps
            mp.setattr(
                AssembledCircuit,
                "_collect_stamps",
                lambda self: calls.append(1) or collect(self),
            )
            with pytest.raises(FaultInjectionError, match="modified after assembly"):
                assembled.solve(SolveRequest(options=SolveOptions(resilient=True)))
            with pytest.raises(FaultInjectionError, match="modified after assembly"):
                assembled._build_pruned_system()
        assert calls == []
        assert assembled._pruned_matrix is None

    def test_assembly_keeps_no_coo_triplets(self):
        pdn = StackedPDN3D(_stack(8, 2, 4))
        pdn.apply_faults(severed_layer_plan(pdn))
        pdn.solve()
        assembled = pdn.assembled()
        assert assembled._pruned_matrix is not None  # the pruning rung ran
        nnz = assembled._matrix.nnz
        for name, value in vars(assembled).items():
            parts = value if isinstance(value, tuple) else (value,)
            for part in parts:
                assert not (
                    isinstance(part, np.ndarray) and part.ndim == 1 and part.size >= nnz
                ), name
