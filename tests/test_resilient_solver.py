"""Resilient solve path: island pruning, load shedding, diagnostics.

Property-based: whatever random subset of a grid's edges fails open, a
resilient solve must either return a finite solution with diagnostics or
raise a typed :class:`repro.errors.ReproError` — never an unhandled
SciPy exception and never non-finite voltages.
"""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from repro.errors import ReproError, SingularCircuitError
from repro.faults import severed_layer_plan
from repro.grid import backends as backends_mod
from repro.grid.backends import jacobi_preconditioner, register_backend
from repro.grid.netlist import ISOURCE, RESISTOR, Circuit
from repro.grid.solver import AssembledCircuit, SolveOptions, SolveRequest
from repro.pdn.regular3d import RegularPDN3D
from repro.pdn.stacked3d import StackedPDN3D

from tests.conftest import TEST_GRID

RESILIENT = SolveRequest(options=SolveOptions(resilient=True))
LADDER_BACKENDS = ("lu", "cholesky", "iterative")


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


def severed_mesh(n: int = 4) -> Circuit:
    """A fed mesh with every edge between rows 1 and 2 opened: rows 2..
    float as one island."""
    c = grid_circuit(n)
    store = c.store(RESISTOR)
    mesh = store.tag_indices("mesh")
    row1 = {c.node((1, i)) for i in range(n)}
    row2 = {c.node((2, i)) for i in range(n)}
    crossing = [
        (a in row1 and b in row2) or (a in row2 and b in row1)
        for a, b in zip(store.column("n1")[mesh], store.column("n2")[mesh])
    ]
    c.open_elements(RESISTOR, mesh[crossing])
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
        c = severed_mesh(n)
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


# ----------------------------------------------------------------------
# the escalation ladder, rung by rung
# ----------------------------------------------------------------------
def parallel_supply_circuit(n: int, second_voltage: float) -> Circuit:
    """A fed mesh with a second ideal source in parallel with the first.

    Equal voltages make the MNA system singular but consistent (only
    the sum of the two branch currents is determined); unequal ones
    make it inconsistent.  No node floats, so pruning changes nothing.
    """
    c = grid_circuit(n)
    c.add_voltage_source("supply", "gnd", second_voltage, tag="vs2")
    return c


#: The exact ladder each netlist climbs under each built-in backend.
#: Non-``lu`` backends that refuse a matrix answer from ``lu`` in-rung
#: (cholesky on these saddle-point systems); the iterative backend
#: solves the consistent singular system itself.
LADDERS = {
    "direct": {
        "lu": ["lu"],
        "cholesky": ["cholesky", "lu"],
        "iterative": ["iterative"],
    },
    "pruned": {
        "lu": ["lu", "pruned-lu"],
        "cholesky": ["cholesky", "lu", "pruned-cholesky", "pruned-lu"],
        "iterative": ["iterative", "lu", "pruned-iterative"],
    },
    "lgmres": {
        "lu": ["lu", "pruned-lu", "lgmres"],
        "cholesky": ["cholesky", "lu", "pruned-cholesky", "pruned-lu", "lgmres"],
        "iterative": ["iterative"],
    },
    "lstsq": {
        "lu": ["lu", "pruned-lu", "lgmres", "lstsq"],
        "cholesky": [
            "cholesky", "lu", "pruned-cholesky", "pruned-lu", "lgmres", "lstsq",
        ],
        "iterative": ["iterative"],
    },
    "raise": {
        "lu": ["lu", "pruned-lu", "lgmres", "lstsq"],
        "cholesky": [
            "cholesky", "lu", "pruned-cholesky", "pruned-lu", "lgmres", "lstsq",
        ],
        "iterative": [
            "iterative", "lu", "pruned-iterative", "pruned-lu", "lgmres", "lstsq",
        ],
    },
}

#: Fallback solver each ladder ends on, per backend.
FALLBACKS = {
    "direct": "none",
    "pruned": "none",
    "lgmres": "iterative",
    "lstsq": "lstsq",
}

#: Diagnostics fields a batched column must share with its per-point solve.
DIAGNOSTIC_FIELDS = (
    "escalations", "fallback", "residual", "iterations", "n_islands",
    "dropped_nodes", "shed_loads", "stabilized_rows", "condition_estimate",
    "backend",
)


def _answered_on_pruned_system(diag) -> bool:
    return any(
        rung.startswith("pruned-") or rung in ("lgmres", "lstsq")
        for rung in diag.escalations
    )


def assert_matches_dense_oracle(asm, sol) -> None:
    """The accepted answer equals dense least squares on its system.

    Node voltages are compared always (they are unique whenever the
    system is consistent); the whole unknown vector only when the
    dense matrix has full rank.  Refinement stops as soon as the
    residual meets the solver's tolerance, so a refined answer is
    held to 1e-7 instead of 1e-9.
    """
    diag = sol.diagnostics
    atol = 1e-7 if diag.fallback == "refined" else 1e-9
    z = asm._rhs(sol._isource_current, sol._vsource_voltage)
    if _answered_on_pruned_system(diag):
        matrix = asm._pruned_matrix.toarray()
        z[asm._forced_zero_rows] = 0.0
    else:
        matrix = asm._matrix.toarray()
    reference, *_ = np.linalg.lstsq(matrix, z, rcond=None)
    nodes = slice(0, asm.vsource_offset)
    np.testing.assert_allclose(sol._x[nodes], reference[nodes], rtol=0, atol=atol)
    if np.linalg.matrix_rank(matrix) == matrix.shape[0]:
        np.testing.assert_allclose(sol._x, reference, rtol=0, atol=atol)


def assert_batch_matches_points(make_circuit, backend: str) -> None:
    """Batched resilient columns equal per-point resilient solves."""
    c = make_circuit()
    n_loads = len(c.store(ISOURCE))
    points = [None, np.full(n_loads, 0.05)]
    options = SolveOptions(resilient=True, backend=backend)
    batch = c.assemble(backend=backend).solve(
        SolveRequest(isource_currents=points, options=options)
    )
    for currents, batched in zip(points, batch):
        single = make_circuit().assemble(backend=backend).solve(
            SolveRequest(isource_current=currents, options=options)
        )
        assert np.array_equal(batched._x, single._x)
        assert len(batched.diagnostics.escalation_times_s) == len(
            batched.diagnostics.escalations
        )
        for name in DIAGNOSTIC_FIELDS:
            assert getattr(batched.diagnostics, name) == getattr(
                single.diagnostics, name
            ), name


@pytest.fixture
def solver_backend(request):
    """A registered in-test backend, removed again after the test."""
    backend = request.param()
    register_backend(backend)
    yield backend.name
    backends_mod._REGISTRY.pop(backend.name)


class _InexactFactorization(backends_mod.Factorization):
    """LU of ``A + 1e-4 |diag A|``: every solve is off by ~1e-4."""

    def __init__(self, matrix):
        super().__init__(matrix)
        perturbed = matrix + 1e-4 * sp.diags(np.abs(matrix.diagonal()))
        self._handle = splu(perturbed.tocsc())

    def solve(self, z):
        return self._handle.solve(z)

    def solve_transpose(self, z):
        return self._handle.solve(z, trans="T")


class _InexactBackend(backends_mod.SolverBackend):
    name = "inexact-test"

    def factorize(self, matrix):
        return _InexactFactorization(matrix)


class _SolveFailingFactorization(backends_mod.Factorization):
    def solve(self, z):
        raise RuntimeError("deliberate solve-time failure")

    def solve_transpose(self, z):
        raise RuntimeError("deliberate solve-time failure")


class _SolveFailingBackend(backends_mod.SolverBackend):
    name = "solve-failing-test"

    def factorize(self, matrix):
        return _SolveFailingFactorization(matrix)


class TestEscalationLadder:
    """Every rung of the resilient ladder, driven by a small netlist or
    an in-test backend, with its exact ``escalations`` record."""

    @pytest.fixture(autouse=True)
    def _short_iterative_solves(self, monkeypatch):
        # The iterative backend spends its whole iteration budget on an
        # inconsistent system before failing its rung; a smaller budget
        # fails the same rungs sooner (consistent solves here converge
        # in a handful of iterations).
        monkeypatch.setattr(
            backends_mod._IterativeFactorization, "MAX_ITERATIONS", 50
        )

    def _solve(self, make_circuit, backend):
        asm = make_circuit().assemble(backend=backend)
        sol = asm.solve(
            SolveRequest(options=SolveOptions(resilient=True, backend=backend))
        )
        diag = sol.diagnostics
        assert len(diag.escalation_times_s) == len(diag.escalations)
        assert diag.backend == backend
        assert_matches_dense_oracle(asm, sol)
        return sol, diag

    @pytest.mark.parametrize("backend", LADDER_BACKENDS)
    def test_clean_system_answers_on_the_first_direct_rung(self, backend):
        _, diag = self._solve(lambda: grid_circuit(4), backend)
        assert diag.escalations == LADDERS["direct"][backend]
        assert diag.fallback == "none"
        assert_batch_matches_points(lambda: grid_circuit(4), backend)

    @pytest.mark.parametrize(
        "solver_backend", [_InexactBackend], indirect=True
    )
    def test_inexact_backend_reaches_refine(self, solver_backend):
        _, diag = self._solve(lambda: grid_circuit(4), solver_backend)
        assert diag.escalations == [solver_backend, "refine"]
        assert diag.fallback == "refined"
        assert diag.residual <= AssembledCircuit.RESIDUAL_TOLERANCE
        assert_batch_matches_points(lambda: grid_circuit(4), solver_backend)

    @pytest.mark.parametrize(
        "solver_backend", [_SolveFailingBackend], indirect=True
    )
    def test_solve_time_failure_reaches_explicit_lu(self, solver_backend):
        _, diag = self._solve(lambda: grid_circuit(4), solver_backend)
        assert diag.escalations == [solver_backend, "lu"]
        assert diag.fallback == "none"
        assert_batch_matches_points(lambda: grid_circuit(4), solver_backend)

    @pytest.mark.parametrize("backend", LADDER_BACKENDS)
    def test_severed_layer_reaches_pruned_rung(self, backend):
        _, diag = self._solve(severed_mesh, backend)
        assert diag.escalations == LADDERS["pruned"][backend]
        assert diag.fallback == FALLBACKS["pruned"]
        assert diag.n_islands == 1
        assert_batch_matches_points(severed_mesh, backend)

    @pytest.mark.parametrize("backend", LADDER_BACKENDS)
    def test_consistent_singular_system_reaches_lgmres(self, backend):
        make = lambda: parallel_supply_circuit(4, 1.0)  # noqa: E731
        _, diag = self._solve(make, backend)
        assert diag.escalations == LADDERS["lgmres"][backend]
        expected = FALLBACKS["lgmres"] if backend != "iterative" else "none"
        assert diag.fallback == expected
        assert_batch_matches_points(make, backend)

    @pytest.mark.parametrize("backend", LADDER_BACKENDS)
    def test_stalled_lgmres_reaches_lstsq(self, backend, monkeypatch):
        monkeypatch.setattr(AssembledCircuit, "MAX_FALLBACK_ITERATIONS", 1)
        make = lambda: parallel_supply_circuit(4, 1.0)  # noqa: E731
        _, diag = self._solve(make, backend)
        assert diag.escalations == LADDERS["lstsq"][backend]
        expected = FALLBACKS["lstsq"] if backend != "iterative" else "none"
        assert diag.fallback == expected
        assert_batch_matches_points(make, backend)

    @pytest.mark.parametrize("backend", LADDER_BACKENDS)
    def test_inconsistent_system_raises_with_diagnostics(
        self, backend, monkeypatch
    ):
        monkeypatch.setattr(AssembledCircuit, "LSTSQ_MAX_DIMENSION", 0)
        # LGMRES cannot converge on an inconsistent system; a small
        # budget fails its rung in milliseconds instead of seconds.
        monkeypatch.setattr(AssembledCircuit, "MAX_FALLBACK_ITERATIONS", 20)
        for batched in (False, True):
            asm = parallel_supply_circuit(4, 1.1).assemble(backend=backend)
            options = SolveOptions(resilient=True, backend=backend)
            request = (
                SolveRequest(isource_currents=[None], options=options)
                if batched
                else SolveRequest(options=options)
            )
            with pytest.raises(SingularCircuitError) as info:
                asm.solve(request)
            diag = info.value.diagnostics
            assert diag is not None
            assert diag.escalations == LADDERS["raise"][backend]
            assert len(diag.escalation_times_s) == len(diag.escalations)
            assert diag.fallback == "iterative"


class TestJacobiPreconditioner:
    """One Jacobi preconditioner serves the iterative backend (when ILU
    fails) and the ``lgmres`` rung; an MNA matrix's voltage-source rows
    have zero diagonal entries, which it must mask before dividing."""

    def test_bit_identical_to_masked_reciprocal(self):
        matrix = parallel_supply_circuit(4, 1.0).assemble()._matrix
        diagonal = matrix.diagonal()
        assert (diagonal == 0).any()
        with np.errstate(divide="ignore"):
            expected = np.where(np.abs(diagonal) > 1e-300, 1.0 / diagonal, 1.0)
        v = np.linspace(-1.0, 2.0, matrix.shape[0])
        assert np.array_equal(jacobi_preconditioner(matrix).matvec(v), expected * v)

    @pytest.mark.parametrize("backend", ["iterative", "lu"])
    def test_voltage_source_solve_is_warning_free(self, backend):
        """``iterative`` reaches the backend's Jacobi fallback (ILU fails
        on this singular system); ``lu`` climbs to the ``lgmres`` rung."""
        asm = parallel_supply_circuit(4, 1.0).assemble(backend=backend)
        request = SolveRequest(
            options=SolveOptions(resilient=True, backend=backend)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = asm.solve(request)
        assert sol.diagnostics.escalations == LADDERS["lgmres"][backend]
        assert_matches_dense_oracle(asm, sol)


class TestLadderRegressions:
    def test_refused_lu_factorisation_is_not_retried(self, stack_4l):
        # cholesky refuses the saddle-point system, its in-rung lu
        # fallback cannot factorise the severed (singular) stack; the
        # explicit lu rung would only retry that same cached failure.
        stack = replace(stack_4l, grid_nodes=6)
        pdn = RegularPDN3D(stack)
        pdn.apply_faults(severed_layer_plan(pdn, layer=1))
        sol = pdn.assembled(backend="cholesky").solve(
            SolveRequest(options=SolveOptions(resilient=True, backend="cholesky"))
        )
        assert sol.diagnostics.escalations == [
            "cholesky", "lu", "pruned-cholesky", "pruned-lu",
        ]

    def test_batched_clean_columns_report_the_in_rung_fallback(self):
        options = SolveOptions(resilient=True, backend="cholesky")
        asm = grid_circuit(4).assemble(backend="cholesky")
        batch = asm.solve(SolveRequest(isource_currents=[None], options=options))
        single = asm.solve(SolveRequest(options=options))
        assert batch[0].diagnostics.escalations == ["cholesky", "lu"]
        assert single.diagnostics.escalations == ["cholesky", "lu"]
        assert len(batch[0].diagnostics.escalation_times_s) == 2


_CONDITION_SCRIPT = """
import numpy as np
from repro.core.scenarios import build_stacked_pdn
from repro.grid.solver import SolveOptions, SolveRequest

pdn = build_stacked_pdn(n_layers=2, converters_per_core=4, grid_nodes=6)
state = np.random.get_state()
sol = pdn.assembled().solve(SolveRequest(options=SolveOptions(resilient=True)))
after = np.random.get_state()
unchanged = all(
    np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    for a, b in zip(state, after)
)
print(repr(sol.diagnostics.condition_estimate), unchanged)
"""


class TestConditionEstimate:
    def test_estimate_is_deterministic_and_leaves_global_rng_alone(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _CONDITION_SCRIPT],
                capture_output=True, text=True, check=True, env=env,
                timeout=120,
            ).stdout.split()
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        estimate, unchanged = outputs[0]
        assert float(estimate) > 1.0
        assert unchanged == "True"

    def test_estimate_matches_dense_one_norm_condition(self):
        asm = grid_circuit(6).assemble()
        asm.factorize()
        dense = asm._matrix.toarray()
        exact = np.linalg.cond(dense, 1)
        assert asm.factorization.condition_estimate() == pytest.approx(
            exact, rel=1e-3
        )
