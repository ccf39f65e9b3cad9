#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers.

Run from the repository root::

    python3 perfbench/run.py --workload headline --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics
from the traced ones (see perfbench/README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--write-reference`` recomputes the stored
reference values that the batch workloads are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters timed for ``setup_s`` in every run.
SETUP_PROBES = 3
#: Units measured at least, however short ``--seconds`` is.
MIN_UNITS = 3

# The engine is serial; keep BLAS serial too, so a unit uses one core
# of the two this benchmark may occupy.  Set before numpy is imported;
# children inherit it, and the stamp records it.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "REPRO_SWEEP_WORKERS",
    "REPRO_SOLVER",
)


def pct(values: List[float], p: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(args) -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.grid.backends import default_backend_name, resolve_backend

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "solver": resolve_backend(default_backend_name()).name,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# Set-up time, from fresh interpreters
# ----------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child side of :func:`time_setup`: set up, say READY, tear down."""
    from workloads import WORKLOADS, Context

    ctx = Context(ROOT, args.seed)
    workload = WORKLOADS[args.workload](ctx)
    try:
        workload.setup()
        print("READY", flush=True)
        workload.teardown()
    finally:
        ctx.cleanup()
    return 0


def time_setup(args, env: Dict[str, str]) -> float:
    """Spawn-to-ready seconds of one fresh interpreter."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True
    )
    ready = None
    for line in proc.stdout:
        if line.strip() == "READY":
            ready = time.perf_counter() - t0
            break
    try:
        proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    if ready is None or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return ready


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def unit_inline(workload, recorder=None):
    from workloads import Unit

    t0 = time.perf_counter()
    if recorder is not None:
        recorder.install()
    try:
        return workload.unit(recorder)
    except Exception as exc:  # counted as a failed operation, run goes on
        return Unit(wall_s=time.perf_counter() - t0, error=repr(exc))
    finally:
        if recorder is not None:
            recorder.uninstall()


def unit_forked(workload, recorder=None):
    """Run one unit in a child forked from the set-up process.

    Every unit then starts from the same warmed-up process image, so
    heap growth is paid identically by each unit instead of only by
    the first, and the child's peak resident set is the unit's own.
    The parent must be single-threaded when it forks.
    """
    from workloads import CHILD_TIMEOUT_S, Unit

    if threading.active_count() != 1:
        raise RuntimeError("set-up left threads running; cannot fork units")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: run, send the result back, never return
        try:
            os.close(read_fd)
            unit = unit_inline(workload, recorder)
            traced = (
                (recorder.spans, dict(recorder.stage_totals))
                if recorder is not None
                else None
            )
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump((unit, traced), pipe)
        finally:
            os._exit(0)
    os.close(write_fd)

    def _timeout(signum, frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(int(CHILD_TIMEOUT_S))
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if not data:
        return Unit(wall_s=0.0, error=f"unit process ended with {status}")
    unit, traced = pickle.loads(data)
    unit.rss_mb = usage.ru_maxrss / 1024.0
    if traced is not None:
        recorder.merge(*traced)
    return unit


def run_unit(workload, recorder=None):
    if workload.forks:
        return unit_forked(workload, recorder)
    return unit_inline(workload, recorder)


def unit_count(workload, seconds: float) -> int:
    """Units per run: fixed by ``--seconds``, never by measured speed,
    so a faster or slower program does the same work per run."""
    return max(MIN_UNITS, round(seconds / workload.nominal_s))


def measure(workload, seconds: float) -> List[Any]:
    return [run_unit(workload) for _ in range(unit_count(workload, seconds))]


def measure_paired(workload, seconds: float, recorder):
    """Alternate untraced and traced units, swapping which goes first."""
    untraced, traced = [], []
    pairs = max(1, round(seconds / (2 * workload.nominal_s)))
    for i in range(pairs):
        if i % 2 == 0:
            untraced.append(run_unit(workload))
            traced.append(run_unit(workload, recorder))
        else:
            traced.append(run_unit(workload, recorder))
            untraced.append(run_unit(workload))
    return untraced, traced


def client_view(workload, units) -> Dict[str, float]:
    """What a user of the workload sees, beyond the unit wall time."""
    hits = [lat for u in units for lat, hit, ok in u.ops if hit and ok]
    misses = [lat for u in units for lat, hit, ok in u.ops if not hit and ok]
    queries = sum(len(u.ops) for u in units)
    busy = sum(u.wall_s for u in units if u.ops)
    cli = workload.name == "cli_cold"
    return {
        "hit_p50_ms": 1e3 * pct(hits, 0.50),
        "hit_p99_ms": 1e3 * pct(hits, 0.99),
        "miss_p50_ms": 1e3 * pct(misses, 0.50),
        "miss_p90_ms": 1e3 * pct(misses, 0.90),
        "hit_samples": float(len(hits)),
        "miss_samples": float(len(misses)),
        "queries_per_s": queries / busy if busy else 0.0,
        "cold_query_s": statistics.median(u.wall_s for u in units) if cli else 0.0,
    }


def peak_rss_mb(units) -> float:
    """Median over units of the unit process's peak resident set."""
    return statistics.median(u.rss_mb for u in units if u.rss_mb is not None)


def import_breakdown(traced, env) -> Dict[str, float]:
    """``-X importtime`` of the CLI: from the traced cli_cold processes,
    otherwise from fresh interpreters importing what ``repro query``
    imports."""
    from workloads import parse_importtime

    samples = [u.imports for u in traced if u.imports is not None]
    for _ in range(0 if samples else SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import repro.cli, repro.service"],
            cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=120,
        )
        samples.append(parse_importtime(proc.stderr))
    return {
        key: statistics.median(s[key] for s in samples) for key in samples[0]
    }


def per_layer_metrics(workload, untraced, traced, recorder, env):
    n = len(traced)
    layers = recorder.layers()

    def total(layer: str, key: str = "total_s") -> float:
        return layers.get(layer, {}).get(key, 0.0)

    def per_unit(layer: str, key: str) -> float:
        return total(layer, key) / n

    imports = import_breakdown(traced, env)
    m: Dict[str, float] = {
        "import.repro_cli_s": imports.get("repro_total_s", 0.0),
        "import.scipy_stats_s": imports.get("scipy_stats_s", 0.0),
        "import.scipy_optimize_s": imports.get("scipy_optimize_s", 0.0),
        "import.repro_service_s": imports.get("repro_service_s", 0.0),
        "import.modules": imports.get("modules", 0.0),
    }
    for layer, keys in (
        ("pdn.geometry", ("calls", "placements", "self_s")),
        ("pdn.build", ("calls", "self_s")),
        ("grid.assemble", ("calls", "self_s")),
        ("grid.factorize", ("calls", "self_s")),
        ("grid.solve", ("calls", "rhs", "self_s")),
        ("contracts", ("calls", "self_s")),
        ("em.lifetime", ("calls", "conductors", "self_s")),
        ("em.medians", ("calls", "self_s")),
    ):
        for key in keys:
            m[f"{layer}.{key}"] = per_unit(layer, key)
    m["grid.factorize.dim_total"] = per_unit("grid.factorize", "dim")
    m["runtime.engine.runs"] = per_unit("runtime.engine", "calls")
    for key in ("groups", "structure_hits", "structure_misses", "self_s"):
        m[f"runtime.engine.{key}"] = per_unit("runtime.engine", key)
    m["core.post.self_s"] = (
        per_unit("workload", "self_s") if workload.batch else 0.0
    )

    m["service.cache.get_calls"] = per_unit("service.cache.get", "calls")
    m["service.cache.get_s"] = per_unit("service.cache.get", "total_s")
    m["service.cache.put_calls"] = per_unit("service.cache.put", "calls")
    m["service.cache.put_s"] = per_unit("service.cache.put", "total_s")
    gets = total("service.cache.get", "calls")
    m["service.hit_ratio"] = (
        total("service.cache.get", "hits") / gets if gets else 0.0
    )
    m["service.executor.calls"] = per_unit("service.executor", "calls")
    m["service.executor.self_s"] = per_unit("service.executor", "self_s")
    client_s = sum(lat for u in traced for lat, _, _ in u.ops) / n
    m["service.other_s"] = (
        client_s
        - m["service.cache.get_s"]
        - m["service.cache.put_s"]
        - per_unit("service.executor", "total_s")
        if client_s
        else 0.0
    )

    # Cross-check: span totals against the engine's own stage timers.
    stages = recorder.stage_totals

    def ratio(spans_s: float, stage: str) -> float:
        return spans_s / stages[stage] if stages.get(stage) else 0.0

    m["xcheck.build_ratio"] = ratio(total("pdn.build"), "build_s")
    m["xcheck.factorize_ratio"] = ratio(
        total("grid.assemble") + total("grid.factorize"), "factorize_s"
    )
    m["xcheck.solve_ratio"] = ratio(total("grid.solve"), "solve_s")

    # Coverage: wall attributed to a named layer (spans below the
    # workload root, plus child-process import time for cli_cold).
    selfs = recorder.self_times()
    wall = sum(s.duration for s in recorder.spans if s.layer == "workload")
    named = sum(
        selfs[s.id] for s in recorder.spans if s.layer != "workload"
    ) + sum(u.imports["all_total_s"] for u in traced if u.imports)
    m["trace.covered_frac"] = named / wall if wall else 0.0
    m["trace.overhead_frac"] = (
        statistics.median(u.wall_s for u in traced)
        / statistics.median(u.wall_s for u in untraced)
        - 1.0
    )
    m.update(client_view(workload, untraced))
    return m


# ----------------------------------------------------------------------

def write_reference() -> int:
    from workloads import Context, Headline, VSSweep

    ctx = Context(ROOT, 0)
    reference = {}
    for cls in (Headline, VSSweep):
        workload = cls(ctx)
        workload.setup()
        reference[workload.name] = workload.compute()
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="headline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args)
    if args.write_reference:
        return write_reference()

    ctx = Context(ROOT, args.seed)
    env = ctx.child_env()
    try:
        # Compile byte code first, so a fresh checkout does not charge
        # compilation to the first set-up sample.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            cwd=str(ROOT), env=env, check=True, timeout=300,
            stdout=subprocess.DEVNULL,
        )
        setup_samples = [
            time_setup(args, env) for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        workload = WORKLOADS[args.workload](ctx)
        workload.setup()
        try:
            if args.trace:
                from spans import Recorder

                recorder = Recorder()
                untraced, traced = measure_paired(workload, args.seconds, recorder)
                units = untraced + traced
                metrics = per_layer_metrics(
                    workload, untraced, traced, recorder, env
                )
                units_wall = untraced
            else:
                units = units_wall = measure(workload, args.seconds)
                metrics = {
                    "setup_s": statistics.median(setup_samples),
                    "wall_s": min(u.wall_s for u in units),
                    "peak_rss_mb": peak_rss_mb(units),
                }
            attempted, failed = workload.check(units)
            if args.trace:
                # The traced answers must equal the untraced ones.
                mismatched = sum(
                    1
                    for u, t in zip(untraced, traced)
                    if workload.repeatable and u.answer != t.answer
                )
                failed += mismatched
                metrics["failed_frac"] = failed / attempted
        finally:
            workload.teardown()
        info = stamp(args)
        detail = {
            "units": len(units_wall),
            "unit_wall_s": [round(u.wall_s, 6) for u in units_wall],
            "wall_median_s": statistics.median(u.wall_s for u in units_wall),
            "setup_samples_s": [round(s, 6) for s in setup_samples],
            "errors": sorted({u.error for u in units if u.error}),
            **client_view(workload, units_wall),
        }
        out_dir = ROOT / ".perfbench" / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        record = {"stamp": info, "detail": detail, "metrics": metrics}
        if args.trace:
            record["spans"] = [s.to_dict() for s in recorder.spans]
        out_file = out_dir / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        )
        out_file.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        ctx.cleanup()

    print("stamp " + json.dumps(info, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    units_of = {name: END_TO_END.get(name) for name in metrics}
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units_of[name] or layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
