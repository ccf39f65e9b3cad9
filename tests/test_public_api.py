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
    """No process loads scipy.stats or scipy.optimize: not the entry
    points, and not the solving paths either (the EM lifetime root is a
    private Brent port, the normal CDF is ``scipy.special.ndtr``)."""

    HEAVY = ("scipy.stats", "scipy.optimize")

    def _heavy_after(self, code: str, tmp: Path = None) -> str:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code += (
            "\nimport sys\n"
            f"print(sorted(m for m in {self.HEAVY!r} if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
            cwd=tmp, timeout=300,
        )
        return out.stdout.strip().splitlines()[-1]

    @pytest.mark.parametrize("module", ["repro.cli", "repro.service"])
    def test_entry_point_skips_heavy_scipy(self, module):
        assert self._heavy_after(f"import {module}") == "[]"

    def test_solving_skips_heavy_scipy(self, tmp_path):
        code = (
            "from repro.em.array_mttf import expected_em_lifetime\n"
            "from repro.core.experiments.headline import run_headline\n"
            "from repro.runtime.spec import PDNSpec\n"
            "from repro.service.client import ServiceClient\n"
            "from repro.service.server import ServiceConfig, serve_in_background\n"
            "assert expected_em_lifetime([1.0, 2.0]) > 0\n"
            "run_headline(grid_nodes=6)\n"
            "handle = serve_in_background(config=ServiceConfig(\n"
            "    bind='127.0.0.1:0', cache_dir='svc-cache', bench_name=None))\n"
            "with ServiceClient(handle.address) as client:\n"
            "    answer = client.query(PDNSpec.stacked(2, grid_nodes=6))\n"
            "handle.stop(drain=False)\n"
            "assert answer['status'] == 'ok', answer\n"
        )
        assert self._heavy_after(code, tmp_path) == "[]"


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
