"""Solver-backend registry: equivalence, capability flags, solve entry.

Covers the backend redesign's acceptance criteria: every registered
backend agrees with ``lu`` on seeded random PDNs to <= 1e-9 relative
difference, ``spd_only`` backends raise a typed error on non-SPD
systems, unknown ``--solver`` values are a one-line ReproError (API and
CLI), ``AssembledCircuit.solve`` takes only a ``SolveRequest``, the
condition estimate is computed once per factorisation, and the engine's
structure cache keys on the backend.  ``lu``'s ordering choice is
pinned too: symmetric-indefinite regular PDNs take SuperLU symmetric
mode (less fill, same answers to round-off, checked against a dense
oracle), every other system stays bit-identical to plain ``splu``.
"""

from __future__ import annotations

import io
import json
import pathlib
import re
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.core.scenarios import build_regular_pdn, build_stacked_pdn
from repro.errors import (
    NotSPDError,
    ReproError,
    SingularCircuitError,
    SolverBackendError,
)
from repro.grid import backends as backends_mod
from repro.grid.backends import (
    available_backends,
    backend_availability,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
    spd_screen,
)
from repro.grid.solver import SolveOptions, SolveRequest
from repro.obs.logs import configure_logging
from repro.runtime import PDNSpec, SweepEngine, SweepPoint

from tests.conftest import TEST_GRID

BACKENDS = ("lu", "cholesky", "iterative")


@pytest.fixture
def log_capture():
    """Route repro's structured JSON log lines into a StringIO."""
    stream = io.StringIO()
    configure_logging("warning", stream=stream)
    yield stream
    configure_logging("warning", stream=sys.stderr)


@pytest.fixture(autouse=True)
def _reset_default_backend():
    yield
    set_default_backend(None)


def _spd_system(n: int = 60, seed: int = 0):
    """A resistor-mesh-style SPD matrix (Laplacian + grounding shunts)."""
    rng = np.random.default_rng(seed)
    main = np.zeros(n)
    rows, cols, vals = [], [], []
    for i in range(n - 1):
        g = rng.uniform(0.5, 2.0)
        rows += [i, i + 1, i, i + 1]
        cols += [i + 1, i, i, i + 1]
        vals += [-g, -g, g, g]
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    matrix += sp.diags(rng.uniform(0.1, 1.0, size=n)).tocsc()
    rhs = rng.standard_normal(n)
    return matrix.tocsc(), rhs


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered_lu_first(self):
        names = available_backends()
        assert names[0] == "lu"
        for expected in BACKENDS:
            assert expected in names

    def test_unknown_backend_is_one_line_typed_error(self):
        with pytest.raises(SolverBackendError) as excinfo:
            get_backend("gpu-magic")
        message = str(excinfo.value)
        assert "unknown solver backend 'gpu-magic'" in message
        assert "choose from:" in message
        assert "\n" not in message
        assert isinstance(excinfo.value, ReproError)

    def test_set_default_backend_validates_and_resets(self):
        with pytest.raises(SolverBackendError):
            set_default_backend("nope")
        set_default_backend("iterative")
        assert default_backend_name() == "iterative"
        set_default_backend(None)
        assert default_backend_name() == "lu"

    def test_env_var_selects_and_validates_at_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "cholesky")
        assert default_backend_name() == "cholesky"
        assert resolve_backend(None).name == "cholesky"
        monkeypatch.setenv("REPRO_SOLVER", "bogus")
        with pytest.raises(SolverBackendError, match="bogus"):
            default_backend_name()

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(SolverBackendError, match="already registered"):
            register_backend(backends_mod.LUBackend())

    def test_out_of_tree_backend_registration(self):
        class EchoBackend(backends_mod.SolverBackend):
            name = "echo-test"
            description = "test double"

            def factorize(self, matrix):
                return get_backend("lu").factorize(matrix)

        register_backend(EchoBackend())
        try:
            assert "echo-test" in available_backends()
            assert resolve_backend("echo-test").description == "test double"
        finally:
            backends_mod._REGISTRY.pop("echo-test")

    def test_availability_map_covers_all_backends(self):
        availability = backend_availability()
        for name in BACKENDS:
            entry = availability[name]
            assert entry["available"] is True
            assert "native" in entry and "note" in entry


# ----------------------------------------------------------------------
# capability flags / SPD screen
# ----------------------------------------------------------------------
class TestSPDScreen:
    def test_spd_matrix_passes(self):
        matrix, _ = _spd_system()
        assert spd_screen(matrix) is None

    def test_pdn_saddle_point_rejected(self, stacked_pdn):
        matrix = stacked_pdn.assembled()._matrix
        assert spd_screen(matrix) is not None

    def test_cholesky_is_spd_only_and_raises_typed_error(self, stacked_pdn):
        backend = get_backend("cholesky")
        assert backend.spd_only is True
        matrix = stacked_pdn.assembled()._matrix
        with pytest.raises(NotSPDError) as excinfo:
            backend.factorize(matrix)
        assert excinfo.value.reason
        assert isinstance(excinfo.value, ReproError)

    def test_lu_and_iterative_accept_anything(self):
        assert get_backend("lu").spd_only is False
        assert get_backend("iterative").spd_only is False
        assert get_backend("iterative").supports_refine is False


# ----------------------------------------------------------------------
# cross-backend equivalence
# ----------------------------------------------------------------------
class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("seed", [7, 21, 1337])
    def test_spd_factorizations_agree(self, seed):
        matrix, rhs = _spd_system(seed=seed)
        reference = get_backend("lu").factorize(matrix).solve(rhs)
        scale = np.linalg.norm(reference)
        for name in BACKENDS[1:]:
            x = get_backend(name).factorize(matrix).solve(rhs)
            assert np.linalg.norm(x - reference) <= 1e-9 * scale, name
            residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
            assert residual <= 1e-9, name

    @pytest.mark.parametrize("seed", [0, 42])
    def test_random_pdn_specs_agree_with_lu(self, seed):
        """Seeded random PDNs: every backend matches lu to <= 1e-9."""
        rng = np.random.default_rng(seed)
        n_layers = int(rng.choice([2, 4]))
        converters = int(rng.choice([4, 8]))
        results = {}
        for name in BACKENDS:
            pdn = build_stacked_pdn(
                n_layers=n_layers,
                converters_per_core=converters,
                grid_nodes=TEST_GRID,
            )
            asm = pdn.assembled(backend=name)
            assert asm.backend.name == name
            solution = asm.solve(
                SolveRequest(options=SolveOptions(backend=name))
            )
            results[name] = solution.node_voltage.copy()
        reference = results["lu"]
        scale = np.linalg.norm(reference)
        for name in BACKENDS[1:]:
            assert np.linalg.norm(results[name] - reference) <= 1e-9 * scale

    def test_cholesky_on_pdn_falls_back_to_lu_with_notice(
        self, log_capture
    ):
        """Non-SPD PDN + cholesky degrades in-rung with one log line."""
        backends_mod._NOTICED.clear()
        pdn = build_stacked_pdn(
            n_layers=2, converters_per_core=4, grid_nodes=TEST_GRID
        )
        asm = pdn.assembled(backend="cholesky")
        solution = asm.solve(SolveRequest())
        assert np.all(np.isfinite(solution.node_voltage))
        lines = [
            json.loads(line)
            for line in log_capture.getvalue().splitlines()
            if "lu-fallback" in line
        ]
        assert len(lines) == 1
        assert lines[0]["notice"] == "cholesky-lu-fallback"
        # A second solve must not repeat the notice.
        asm.solve(SolveRequest())
        repeats = [
            line for line in log_capture.getvalue().splitlines()
            if "cholesky-lu-fallback" in line
        ]
        assert len(repeats) == 1

    def test_solve_time_failure_escalates_to_lu_rung(self):
        """A backend whose *solve* fails climbs to an explicit lu rung.

        Factorize-time failures degrade in-rung (previous test); a
        solve-time failure must escalate to lu before any structural
        surgery, so resilient results are never worse than lu's.
        """

        class DudFactorization(backends_mod.Factorization):
            def solve(self, z):
                raise RuntimeError("deliberate solve-time failure")

            def solve_transpose(self, z):
                raise RuntimeError("deliberate solve-time failure")

        class DudBackend(backends_mod.SolverBackend):
            name = "dud-test"
            description = "factorizes fine, never solves"

            def factorize(self, matrix):
                return DudFactorization(matrix)

        register_backend(DudBackend())
        try:
            pdn = build_stacked_pdn(
                n_layers=2, converters_per_core=4, grid_nodes=TEST_GRID
            )
            reference = pdn.assembled().solve(SolveRequest()).node_voltage
            asm = pdn.assembled(backend="dud-test")
            solution = asm.solve(
                SolveRequest(
                    options=SolveOptions(backend="dud-test", resilient=True)
                )
            )
            diag = solution.diagnostics
            assert diag.backend == "dud-test"
            assert "lu" in diag.escalations
            np.testing.assert_array_equal(
                solution.node_voltage, reference
            )
        finally:
            backends_mod._REGISTRY.pop("dud-test")


# ----------------------------------------------------------------------
# lu ordering: symmetric mode for symmetric-indefinite systems only
# ----------------------------------------------------------------------
def _operating_point(asm) -> np.ndarray:
    """The assembled circuit's production right-hand side."""
    return asm._rhs(*asm._resolve_sources(None, None))


def _thermal_matrix():
    from repro.config.stackups import PadAllocation, ProcessorSpec, StackConfig, few_tsv
    from repro.thermal.grid3d import HotSpotLite

    stack = StackConfig(
        n_layers=2,
        processor=ProcessorSpec(),
        tsv_topology=few_tsv(),
        pads=PadAllocation(power_fraction=0.25),
        grid_nodes=TEST_GRID,
    )
    thermal = HotSpotLite(stack)
    thermal.solve()
    return thermal._assembled._matrix


def _floating_node_pdn():
    """A regular PDN with every resistor on one mesh node opened."""
    from repro.grid.netlist import RESISTOR

    pdn = build_regular_pdn(2, grid_nodes=6)
    store = pdn.circuit.store(RESISTOR)
    n1, n2 = store.column("n1"), store.column("n2")
    node = n1[len(n1) // 3]
    pdn.circuit.open_elements(RESISTOR, np.flatnonzero((n1 == node) | (n2 == node)))
    return pdn


class TestLUOrdering:
    def test_regular_pdn_takes_symmetric_path(self):
        asm = build_regular_pdn(4, grid_nodes=12).assembled()
        matrix = asm._matrix
        fact = get_backend("lu").factorize(matrix)
        reference = splu(matrix)
        assert fact.ordering == "symmetric"
        assert fact.factor_entries <= 0.5 * reference.nnz
        rhs = np.column_stack(
            [_operating_point(asm)]
            + list(np.random.default_rng(3).standard_normal((4, asm.dimension)))
        )
        x, expected = fact.solve(rhs), reference.solve(rhs)
        for col in range(rhs.shape[1]):
            scale = np.linalg.norm(expected[:, col])
            assert np.linalg.norm(x[:, col] - expected[:, col]) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "system",
        [
            lambda: build_stacked_pdn(
                n_layers=4, converters_per_core=4, grid_nodes=TEST_GRID
            ).assembled()._matrix,
            _thermal_matrix,
        ],
        ids=["stacked", "thermal-spd"],
    )
    def test_other_systems_stay_bit_identical_to_splu(self, system):
        matrix = system()
        fact = get_backend("lu").factorize(matrix)
        reference = splu(matrix)
        assert fact.ordering == "general"
        assert fact.factor_entries == reference.nnz
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((matrix.shape[0], 3))
        np.testing.assert_array_equal(fact.solve(rhs), reference.solve(rhs))

    @pytest.mark.parametrize("grid", [4, 5, 6])
    @pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
    def test_dense_oracle_agrees_with_lu(self, grid, n_layers):
        asm = build_regular_pdn(n_layers, grid_nodes=grid).assembled()
        assert asm.factorize() is True
        assert asm.factorization.ordering == "symmetric"
        z = _operating_point(asm)
        dense = np.linalg.solve(asm._matrix.toarray(), z)
        x = asm.solve(SolveRequest())._x
        assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)

    def test_floating_node_strict_raises_resilient_prunes(self):
        with pytest.raises(SingularCircuitError):
            _floating_node_pdn().circuit.assemble().solve(SolveRequest())
        asm = _floating_node_pdn().circuit.assemble()
        solution = asm.solve(SolveRequest(options=SolveOptions(resilient=True)))
        diag = solution.diagnostics
        assert diag.n_islands == 1
        assert diag.n_dropped_nodes == 1
        assert np.all(np.isfinite(solution.node_voltage))
        assert asm._facts[("lu", "pruned")].ordering == "symmetric"


# ----------------------------------------------------------------------
# condition-estimate caching (the bugfix satellite)
# ----------------------------------------------------------------------
class TestConditionEstimateCache:
    def test_estimate_computed_once_per_factorization(self):
        matrix, _ = _spd_system()
        fact = get_backend("lu").factorize(matrix)
        calls = {"n": 0}
        original = fact._estimate_condition

        def counting():
            calls["n"] += 1
            return original()

        fact._estimate_condition = counting
        first = fact.condition_estimate()
        second = fact.condition_estimate()
        assert first == second
        assert first is not None and first >= 1.0
        assert calls["n"] == 1

    def test_none_result_is_also_cached(self):
        matrix, _ = _spd_system(n=1)
        fact = get_backend("lu").factorize(matrix)
        assert fact.condition_estimate() is None
        assert fact._condition is None  # cached, not _UNSET


# ----------------------------------------------------------------------
# deprecated entry points (removed: solve takes a SolveRequest only)
# ----------------------------------------------------------------------
class TestDeprecatedEntryPoints:
    def test_bare_request_solve_does_not_warn(self, log_capture):
        pdn = build_stacked_pdn(
            n_layers=2, converters_per_core=4, grid_nodes=TEST_GRID
        )
        pdn.assembled().solve(SolveRequest())
        assert "deprecated" not in log_capture.getvalue()

    def test_non_request_argument_is_a_one_line_type_error(self):
        pdn = build_stacked_pdn(
            n_layers=2, converters_per_core=4, grid_nodes=TEST_GRID
        )
        asm = pdn.assembled()
        currents = np.array(asm.circuit.store("isource").column("current"))
        with pytest.raises(TypeError, match="SolveRequest") as info:
            asm.solve(currents)
        assert "\n" not in str(info.value)
        with pytest.raises(TypeError):
            asm.solve(isource_current=currents)
        assert not hasattr(asm, "solve_batch")

    def test_no_deprecated_callers_left_in_src(self):
        """No code under src/ may use the removed solve entry points."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            if re.search(r"\.solve\(\s*(isource_current|vsource_voltage)\s*=", text):
                offenders.append(f"{path.name}: legacy solve kwargs")
            if re.search(r"assembled(\(\))?\.solve_batch\(", text):
                offenders.append(f"{path.name}: AssembledCircuit.solve_batch")
            if re.search(r"_warn_deprecated|_DEPRECATION_WARNED", text):
                offenders.append(f"{path.name}: deprecation shim")
            if re.search(r"\brun_fig\d", text):
                offenders.append(f"{path.name}: run_fig shim reference")
        assert offenders == []


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineBackendThreading:
    def test_structure_cache_keys_on_backend(self):
        spec = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
        points = [SweepPoint(spec=spec, layer_activities=(1.0, 1.0))]
        engine = SweepEngine()
        first = engine.run(points)
        assert first.metrics.solver == "lu"
        assert engine.cache_info()["misses"] == 1

        set_default_backend("iterative")
        second = engine.run(points)
        assert second.metrics.solver == "iterative"
        # Different backend => different group key => a fresh miss.
        assert engine.cache_info()["misses"] == 2
        group = second.metrics.groups[0]
        assert group.backend == "iterative"
        assert group.key.endswith("@iterative")
        assert "iterative" in second.metrics.escalation_histogram()

        set_default_backend(None)
        third = engine.run(points)
        assert engine.cache_info()["hits"] == 1  # lu entry still cached
        assert third.metrics.groups[0].backend == "lu"

    def test_default_run_bench_payload_reports_solver(self):
        spec = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
        run = SweepEngine().run([SweepPoint(spec=spec)])
        payload = run.metrics.to_json()
        assert payload["solver"] == "lu"
        assert payload["groups"][0]["backend"] == "lu"

    def test_fingerprints_stable_for_lu_and_distinct_otherwise(self):
        from repro.runtime.engine import group_points
        from repro.runtime.fingerprint import task_fingerprint

        spec = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
        points = [SweepPoint(spec=spec)]
        (lu_key, members), = group_points(points, "lu").items()
        # The default backend is omitted from the fingerprint so journals
        # from pre-backend runs still resume.
        legacy_key = (lu_key[0], lu_key[1], lu_key[2])
        assert task_fingerprint(lu_key, members) == task_fingerprint(
            legacy_key, members
        )
        (it_key, it_members), = group_points(points, "iterative").items()
        assert task_fingerprint(it_key, it_members) != task_fingerprint(
            lu_key, members
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSolverCLI:
    def test_every_subcommand_accepts_solver_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fig6", "--grid", str(TEST_GRID), "--solver", "cholesky"]
        )
        assert args.solver == "cholesky"

    def test_unknown_solver_is_one_line_cli_error(self, capsys):
        from repro.cli import main

        code = main(["table1", "--solver", "warp-drive"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "SolverBackendError" in err
        assert "warp-drive" in err

    def test_solver_flag_runs_and_does_not_leak(self, capsys):
        from repro.cli import main

        code = main(["table1", "--solver", "iterative"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out
        # The process-global override is reset after the invocation.
        assert default_backend_name() == "lu"
