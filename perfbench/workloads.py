"""The benchmark workloads.

``BENCHMARK.json`` lists ``headline`` and ``service_mix``.  ``vs_sweep``
and ``cli_cold`` run the same way but are left out of that list: more
workloads do not fit the time budget of runs long enough to steady the
first two (see README.md).

Each workload has the same life cycle, driven by ``run.py``:

``setup()``
    imports, constructs and warms up; this is what ``setup_s`` times
    (in fresh interpreters, see ``run.py --setup-probe``);
``unit(recorder)``
    one unit of the work a user waits for, returning a :class:`Unit`;
    with a :class:`spans.Recorder` installed the unit runs under a
    ``workload`` root span;
``check(units)``
    compares every answer against an independent reference and returns
    ``(attempted, failed)``;
``teardown()``
    stops what ``setup()`` started.

Inputs come only from ``--seed``; the program sees the generated specs
and activity vectors, never the seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Relative tolerance against stored reference values: the repository's
#: cross-backend equivalence tolerance.
REL_TOL = 1e-9

#: Grid resolution of the service workloads.
SERVICE_GRID = 12
#: Queries per service_mix replay.  Each of the distinct points is asked
#: at least once, so a replay has exactly SERVICE_DISTINCT misses and
#: the rest are hits: hit p99 and miss p90 each keep at least ten
#: samples beyond them in every replay.
SERVICE_QUERIES = 5000
SERVICE_DISTINCT = 100
#: Points the cli_cold replica holds before the first process runs.
CLI_POINTS = 8

CHILD_TIMEOUT_S = 120.0


@dataclass
class Unit:
    """One measured unit of work."""

    wall_s: float
    answer: Any = None
    #: Per-operation records (service queries): (latency_s, hit, ok).
    ops: List[Tuple[float, bool, bool]] = field(default_factory=list)
    #: Peak resident set of the unit's own process, when it is a child.
    rss_mb: Optional[float] = None
    #: Child ``-X importtime`` breakdown (cli_cold traced units).
    imports: Optional[Dict[str, float]] = None
    error: Optional[str] = None


class Context:
    """Paths and seed shared by the workloads of one benchmark run."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.scratch = root / ".perfbench" / f"tmp-{os.getpid()}"
        self._dirs = itertools.count()

    def fresh_dir(self, prefix: str) -> Path:
        path = self.scratch / f"{prefix}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        return env

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def close(a: Any, b: Any) -> bool:
    """Equal within :data:`REL_TOL`, recursing into lists (None, bools
    and strings exactly)."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if a is None or b is None or isinstance(a, (bool, str, list)):
        return a == b
    a, b = float(a), float(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def load_reference() -> Dict[str, Any]:
    path = Path(__file__).resolve().parent / "reference.json"
    return json.loads(path.read_text())


def _warm_extract(outcome):
    return outcome.unwrap().max_ir_drop_fraction()


def warm_engine() -> None:
    """Touch build, assembly, factorisation, solve, contracts and EM once
    on tiny grids, so first-call costs land in set-up."""
    import numpy as np

    from repro.em import expected_em_lifetime
    from repro.runtime import PDNSpec, SweepEngine, SweepPoint

    SweepEngine(workers=1).run(
        [
            SweepPoint(PDNSpec.regular(2, grid_nodes=4)),
            SweepPoint(
                PDNSpec.stacked(2, converters_per_core=2, grid_nodes=4),
                layer_activities=(1.0, 0.5),
            ),
        ],
        extract=_warm_extract,
    )
    expected_em_lifetime(np.array([1.0e9, 2.0e9]))


class BatchWorkload:
    """A unit is one ``compute()`` on a cold serial engine, checked
    against the stored reference values."""

    forks = True
    batch = True
    repeatable = True

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def unit(self, recorder=None) -> Unit:
        t0 = time.perf_counter()
        with recorder.span("workload") if recorder else nullcontext():
            answer = self.compute()
        return Unit(wall_s=time.perf_counter() - t0, answer=answer)

    def check(self, units: List[Unit]) -> Tuple[int, int]:
        ref = load_reference()[self.name]
        failed = sum(
            1
            for u in units
            if u.error is not None
            or set(u.answer) != set(ref)
            or not all(close(u.answer[k], ref[k]) for k in ref)
        )
        return len(units), failed

    def teardown(self) -> None:
        pass


class Headline(BatchWorkload):
    """``run_headline(grid_nodes=20)`` on a cold ``SweepEngine``."""

    name = "headline"
    #: Expected seconds per unit; sets the unit count of a run.
    nominal_s = 7.0

    def setup(self) -> None:
        from repro.core.experiments.headline import run_headline
        from repro.runtime import SweepEngine

        self._run = run_headline
        self._engine = SweepEngine
        warm_engine()

    def compute(self) -> Dict[str, Any]:
        report = self._run(grid_nodes=20, engine=self._engine(workers=1))
        return dataclasses.asdict(report)


VS_LAYERS = (4, 8, 12)
VS_CONVERTERS = (2, 4, 6, 8)
VS_IMBALANCES = tuple(round(0.1 * i, 1) for i in range(11))


def vs_extract(outcome) -> List[float]:
    result = outcome.unwrap()
    return [float(result.max_ir_drop_fraction()), float(result.efficiency())]


class VSSweep(BatchWorkload):
    """Cold-engine V-S imbalance sweep: 12 topologies x 11 RHS at grid 20.

    The seed shuffles the imbalance order within each topology, so every
    order must give the stored reference values.  The topologies keep
    one order: the order they are built and cached in moves the peak
    resident set by up to 10%.
    """

    name = "vs_sweep"
    nominal_s = 4.5

    def setup(self) -> None:
        from repro.runtime import PDNSpec, SweepEngine, SweepPoint
        from repro.workload.imbalance import interleaved_layer_activities

        rng = random.Random(self.ctx.seed)
        keys = [
            (n, k, imb)
            for n in VS_LAYERS
            for k in VS_CONVERTERS
            for imb in rng.sample(VS_IMBALANCES, len(VS_IMBALANCES))
        ]
        self.keys = [f"{n}/{k}/{imb}" for n, k, imb in keys]
        self.points = [
            SweepPoint(
                spec=PDNSpec.stacked(
                    n, converters_per_core=k, topology="Few", grid_nodes=20
                ),
                layer_activities=tuple(interleaved_layer_activities(n, imb)),
            )
            for n, k, imb in keys
        ]
        self._engine = SweepEngine
        warm_engine()

    def compute(self) -> Dict[str, Any]:
        result = self._engine(workers=1).run(self.points, extract=vs_extract)
        return dict(zip(self.keys, result.values))


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------

def service_universe() -> List[Tuple[Any, Tuple[float, ...]]]:
    """128 (spec, activities) points at grid 12: regular and V-S, 2-8
    layers, Few/Sparse TSVs, 2/4/8 converters, 4 imbalances."""
    from repro.runtime import PDNSpec
    from repro.workload.imbalance import interleaved_layer_activities

    points = []
    for n in (2, 4, 6, 8):
        for topology in ("Few", "Sparse"):
            for converters in (0, 2, 4, 8):
                if converters:
                    spec = PDNSpec.stacked(
                        n, converters_per_core=converters, topology=topology,
                        grid_nodes=SERVICE_GRID,
                    )
                else:
                    spec = PDNSpec.regular(
                        n, topology=topology, grid_nodes=SERVICE_GRID
                    )
                for imbalance in (0.0, 0.2, 0.4, 0.6):
                    activities = tuple(
                        float(a)
                        for a in interleaved_layer_activities(n, imbalance)
                    )
                    points.append((spec, activities))
    return points


def start_replica(ctx: Context, prefix: str):
    from repro.runtime import SweepEngine
    from repro.service import ServiceConfig, serve_in_background

    cache_dir = ctx.fresh_dir(prefix)
    handle = serve_in_background(
        ServiceConfig(cache_dir=str(cache_dir)), engine=SweepEngine(workers=1)
    )
    return handle, cache_dir


def stop_replica(handle, cache_dir: Path) -> None:
    handle.stop()
    if handle.thread.is_alive():
        raise RuntimeError("replica thread did not stop")
    shutil.rmtree(cache_dir, ignore_errors=True)


class ServiceMix:
    """A seeded Zipf-weighted query stream from one closed-loop client
    connection to an in-process replica with a fresh cache."""

    name = "service_mix"
    nominal_s = 5.0
    forks = True
    batch = False
    repeatable = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._direct: Optional[Dict[int, Dict[str, Any]]] = None

    def setup(self) -> None:
        from repro.service import ServiceClient

        self._client_cls = ServiceClient
        rng = random.Random(self.ctx.seed)
        self.points = rng.sample(service_universe(), SERVICE_DISTINCT)
        weights = [1.0 / rank for rank in range(1, SERVICE_DISTINCT + 1)]
        stream = list(range(SERVICE_DISTINCT)) + rng.choices(
            range(SERVICE_DISTINCT),
            weights=weights,
            k=SERVICE_QUERIES - SERVICE_DISTINCT,
        )
        rng.shuffle(stream)
        self.stream = stream
        warm_engine()
        # Warm the serving path: a miss and a hit on a tiny grid.
        handle, cache_dir = start_replica(self.ctx, "warm")
        try:
            spec = self.points[0][0].with_(grid_nodes=4)
            with ServiceClient(handle.address) as client:
                for _ in range(2):
                    client.query(spec, activities=self.points[0][1])
        finally:
            stop_replica(handle, cache_dir)

    def unit(self, recorder=None) -> Unit:
        handle, cache_dir = start_replica(self.ctx, "svc")
        ops: List[Tuple[float, bool, bool]] = []
        answer: Dict[int, Any] = {}
        try:
            with self._client_cls(handle.address) as client:
                t0 = time.perf_counter()
                with recorder.span("workload") if recorder else nullcontext():
                    for index in self.stream:
                        spec, activities = self.points[index]
                        q0 = time.perf_counter()
                        response = client.query(spec, activities=activities)
                        latency = time.perf_counter() - q0
                        ok = response.get("status") == "ok"
                        result = response.get("result")
                        if index in answer and answer[index] != result:
                            ok = False
                        answer.setdefault(index, result)
                        ops.append((latency, bool(response.get("cached")), ok))
                wall = time.perf_counter() - t0
        finally:
            stop_replica(handle, cache_dir)
        return Unit(wall_s=wall, answer=answer, ops=ops)

    def direct_answers(self) -> Dict[int, Dict[str, Any]]:
        """Each distinct point solved by a direct engine run."""
        if self._direct is None:
            from repro.runtime import SweepEngine, SweepPoint
            from repro.service import extract_summary

            engine = SweepEngine(workers=1)
            self._direct = {
                index: engine.run(
                    [SweepPoint(spec=spec, layer_activities=activities)],
                    extract=extract_summary,
                ).values[0]
                for index, (spec, activities) in enumerate(self.points)
            }
        return self._direct

    def check(self, units: List[Unit]) -> Tuple[int, int]:
        direct = self.direct_answers()
        attempted = failed = 0
        for u in units:
            if u.error is not None:
                attempted += 1
                failed += 1
                continue
            wrong = {i for i, value in u.answer.items() if value != direct[i]}
            for (_, _, ok), index in zip(u.ops, self.stream):
                attempted += 1
                failed += (not ok) or index in wrong
        return attempted, failed

    def teardown(self) -> None:
        pass


_QUERY_LINE = re.compile(
    r"^query (\S+) \[cached\]: max IR drop (\S+) V \((\S+)% of rail\), "
    r"efficiency (\S+)%$",
    re.M,
)


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative ``-X importtime`` seconds of the tracked modules, the
    total over top-level ``repro`` imports and over every top-level
    import, and the number of modules loaded."""
    tracked = {
        "scipy.stats": "scipy_stats_s",
        "scipy.optimize": "scipy_optimize_s",
        "repro.service": "repro_service_s",
    }
    out = {key: 0.0 for key in tracked.values()}
    out.update(repro_total_s=0.0, all_total_s=0.0, modules=0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        seconds = int(cumulative) * 1e-6
        name = name_field.strip()
        out["modules"] += 1
        top_level = not name_field[1:].startswith(" ")
        if top_level:
            out["all_total_s"] += seconds
            if name == "repro" or name.startswith("repro."):
                out["repro_total_s"] += seconds
        if name in tracked and out[tracked[name]] == 0.0:
            out[tracked[name]] = seconds
    return out


class CLICold:
    """Fresh ``repro query`` processes against a warm replica, each for a
    point the replica has already cached."""

    name = "cli_cold"
    nominal_s = 1.5
    forks = False
    batch = False
    #: Each process asks for the next point, so answers differ by unit.
    repeatable = False

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        from repro.service import ServiceClient

        rng = random.Random(self.ctx.seed)
        self.points = rng.sample(service_universe(), CLI_POINTS)
        self.handle, self.cache_dir = start_replica(self.ctx, "cli")
        self.expected: List[Dict[str, Any]] = []
        with ServiceClient(self.handle.address) as client:
            for spec, activities in self.points:
                client.query(spec, activities=activities)
                response = client.query(spec, activities=activities)
                if not response.get("cached"):
                    raise RuntimeError(f"replica did not cache {spec}: {response}")
                self.expected.append(response)
        order = list(range(CLI_POINTS))
        rng.shuffle(order)
        self._order = itertools.cycle(order)
        self.env = self.ctx.child_env()
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launch.py")],
            cwd=str(self.ctx.root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def argv(self, index: int, importtime: bool) -> List[str]:
        spec, activities = self.points[index]
        argv = [sys.executable]
        if importtime:
            argv += ["-X", "importtime"]
        argv += [
            "-m", "repro", "query",
            "--cache-dir", str(self.cache_dir),
            "--arrangement", spec.arrangement,
            "--layers", str(spec.n_layers),
            "--grid", str(spec.grid_nodes),
            "--topology", spec.topology,
            "--converters", str(spec.converters_per_core),
            "--activities", ",".join(repr(a) for a in activities),
        ]
        return argv

    def unit(self, recorder=None) -> Unit:
        index = next(self._order)
        traced = recorder is not None
        request = {
            "argv": self.argv(index, importtime=traced),
            "cwd": str(self.ctx.root),
            "env": self.env,
        }
        with recorder.span("workload") if traced else nullcontext():
            self.launcher.stdin.write(json.dumps(request) + "\n")
            self.launcher.stdin.flush()
            reply = json.loads(self.launcher.stdout.readline())
        return Unit(
            wall_s=reply["wall_s"],
            answer=(index, reply["returncode"], reply["stdout"]),
            rss_mb=reply["rss_mb"],
            imports=parse_importtime(reply["stderr"]) if traced else None,
        )

    def expected_line(self, index: int) -> Tuple[str, ...]:
        response = self.expected[index]
        result = response["result"]
        return (
            response["fingerprint"],
            f"{result['max_ir_drop_v']:.6g}",
            f"{100 * result['max_ir_drop_fraction']:.3g}",
            f"{100 * result['efficiency']:.4g}",
        )

    def check(self, units: List[Unit]) -> Tuple[int, int]:
        failed = 0
        for u in units:
            if u.error is not None:
                failed += 1
                continue
            index, code, stdout = u.answer
            match = _QUERY_LINE.search(stdout)
            if code != 0 or match is None or (
                match.groups() != self.expected_line(index)
            ):
                failed += 1
        return len(units), failed

    def teardown(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            self.launcher.kill()
            self.launcher.stdout.close()
            stop_replica(self.handle, self.cache_dir)


WORKLOADS = {w.name: w for w in (Headline, VSSweep, ServiceMix, CLICold)}
