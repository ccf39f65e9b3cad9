"""The allocator policy keeps SuperLU's growth buffers out of glibc's heap.

SuperLU grows its factor buffers by malloc, copy and free.  Left to
itself, glibc raises its mmap threshold each time a mapped chunk is
freed, so after the first large factorisations later buffers grow in
the brk heap and leave holes that are neither reused nor returned.
``repro.grid.backends._pin_mmap_threshold`` fixes the threshold once per
process; these tests pin the resident set it buys and the fallbacks.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from repro.grid import backends

#: Peak resident-set rise of ``run_headline(grid_nodes=20)`` per entry of
#: its largest factor.  With the threshold pinned it measures ~12 B per
#: entry; glibc's own dynamic threshold gives ~16.
BYTES_PER_FACTOR_ENTRY = 14

glibc_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the mmap threshold is a glibc allocator parameter",
)

_HEADLINE_PEAK = """
import json
import numpy as np
from repro.core.experiments.headline import run_headline
from repro.em import expected_em_lifetime
from repro.grid.solver import AssembledCircuit
from repro.runtime import PDNSpec, SweepEngine, SweepPoint

entries = []
_factorize = AssembledCircuit.factorize

def factorize(self, *args, **kwargs):
    ok = _factorize(self, *args, **kwargs)
    if self.factorization is not None:
        entries.append(self.factorization.factor_entries or 0)
    return ok

AssembledCircuit.factorize = factorize

def status_bytes(field):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024

SweepEngine(workers=1).run(
    [
        SweepPoint(PDNSpec.regular(2, grid_nodes=4)),
        SweepPoint(
            PDNSpec.stacked(2, converters_per_core=2, grid_nodes=4),
            layer_activities=(1.0, 0.5),
        ),
    ],
    extract=lambda outcome: outcome.unwrap().max_ir_drop_fraction(),
)
expected_em_lifetime(np.array([1.0e9, 2.0e9]))
# VmHWM, not ru_maxrss: at execve Linux folds the spawning process's
# high-water mark into ru_maxrss, so the child of a large test runner
# would report the runner's peak.
base = status_bytes("VmRSS")
run_headline(grid_nodes=20, engine=SweepEngine(workers=1))
peak = status_bytes("VmHWM")
print(json.dumps({"rise": peak - base, "entries": max(entries)}))
"""


@glibc_linux
def test_headline_peak_rise_is_bounded_by_its_largest_factor():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _HEADLINE_PEAK],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    measured = json.loads(out.stdout.strip().splitlines()[-1])
    # The 8-layer V-S factor at grid 20 (3,954,821 entries today).
    assert measured["entries"] > 3_000_000
    bound = BYTES_PER_FACTOR_ENTRY * measured["entries"]
    assert measured["rise"] <= bound, (
        f"peak rise {measured['rise'] / 2**20:.1f} MB > "
        f"{bound / 2**20:.1f} MB ({BYTES_PER_FACTOR_ENTRY} B/entry)"
    )


def _lu_solves():
    matrix = csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    fact = backends.get_backend("lu").factorize(matrix)
    np.testing.assert_allclose(matrix @ fact.solve(np.array([1.0, 2.0])), [1, 2])


def _record_mallopt(monkeypatch):
    """Unpin, and route ``mallopt`` calls into the returned list."""
    calls = []
    monkeypatch.setattr(backends, "_mmap_threshold_pinned", False)
    monkeypatch.setattr(backends, "_mallopt", lambda: lambda *args: calls.append(args))
    return calls


def test_pinning_calls_mallopt_once_per_process(monkeypatch):
    calls = _record_mallopt(monkeypatch)
    backends._pin_mmap_threshold()
    backends._pin_mmap_threshold()
    _lu_solves()
    backends.resolve_backend(None)
    assert calls == [(backends._M_MMAP_THRESHOLD, backends.MMAP_THRESHOLD_BYTES)]


def test_first_backend_lookup_pins_the_threshold(monkeypatch):
    calls = _record_mallopt(monkeypatch)
    _lu_solves()
    assert calls == [(-3, 1 << 20)]


def test_without_mallopt_pinning_is_a_no_op_and_solves_run(monkeypatch):
    monkeypatch.setattr(backends, "_mmap_threshold_pinned", False)
    monkeypatch.setattr(backends, "_mallopt", lambda: None)
    backends._pin_mmap_threshold()
    _lu_solves()
    assert backends._mmap_threshold_pinned


def test_mallopt_lookup_failure_resolves_to_none(monkeypatch):
    import ctypes

    def no_libc(name):
        raise OSError("no C library here")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert backends._mallopt() is None
