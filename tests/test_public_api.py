"""The package's public surface: imports, __all__, quickstart flow."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        for module in (
            "repro.config",
            "repro.grid",
            "repro.power",
            "repro.floorplan",
            "repro.workload",
            "repro.regulator",
            "repro.pdn",
            "repro.em",
            "repro.thermal",
            "repro.core",
            "repro.core.experiments",
            "repro.analysis",
            "repro.utils",
        ):
            importlib.import_module(module)


class TestLazyImports:
    """Client and service entry points must not pay for scipy.stats or
    scipy.optimize; only an EM lifetime solve loads scipy.optimize."""

    HEAVY = ("scipy.stats", "scipy.optimize")

    @pytest.mark.parametrize("module", ["repro.cli", "repro.service"])
    def test_entry_point_skips_heavy_scipy(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            f"import sys, {module}\n"
            f"print(sorted(m for m in {self.HEAVY!r} if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestQuickstartFlow:
    def test_docstring_example_runs(self):
        pdn = repro.build_stacked_pdn(
            n_layers=2, converters_per_core=4, grid_nodes=8
        )
        result = pdn.solve()
        assert 0.0 < result.max_ir_drop_fraction() < 0.2

    def test_regular_builder(self):
        pdn = repro.build_regular_pdn(n_layers=2, topology="Dense", grid_nodes=8)
        assert pdn.solve().efficiency() > 0.8

    def test_builders_reject_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            repro.build_regular_pdn(n_layers=2, topology="Ultradense", grid_nodes=8)
