#!/usr/bin/env python
"""Deterministic chaos proof for the fleet's lease core, from both callers.

Legs 1-3 run the same grid-10 sweep three ways and demand bit-identical
values (relative difference <= 1e-12) throughout:

1. **Serial baseline** — one supervised in-process run.
2. **Fleet under chaos** — a coordinator (``--fleet``) plus four worker
   processes with seeded ``REPRO_CHAOS`` fault plans: two workers are
   SIGKILLed mid-task (after solving, before reporting), one freezes
   past its lease deadline (its thawed, late result must be dropped,
   since it no longer holds the lease), one duplicates a result message.  The run
   must still complete every task, record >= 2 worker deaths, >= 1
   expired lease and >= 1 reassignment, and match the baseline.
3. **Journal tear + salvage** — the chaos run's journal is torn
   mid-record; a strict ``--resume`` must refuse, ``--resume`` with
   salvage must truncate to the intact prefix, restore it bit-for-bit
   and re-run only the rest.

Leg 4 drives the same lease core through its other caller:

4. **Service fleet under SIGKILL** — a ``Fleet`` fed through
   ``Fleet.solve``, as behind ``repro serve --fleet``, with two ``repro
   worker`` processes, one under a ``kill_on_task`` plan that SIGKILLs
   it before it reports its first lease.  Every query must equal a direct engine run
   exactly, with >= 1 worker death and no failed query.

Every fault position derives from one fixed seed, so failures replay
exactly.  Exit status 0 = all four proofs hold.

Usage::

    python scripts/chaos_fleet_check.py [--seed N] [work_dir]
    python scripts/chaos_fleet_check.py child RUN_DIR [flags]   # internal
    python scripts/chaos_fleet_check.py worker ADDRESS|RUN_DIR [flags]  # internal

Workers run this same file, so the sweep's extractor pickles by
reference across the process boundary (``__main__`` resolves to this
script on both ends).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

TOLERANCE = 1e-12
SEED = 1337
GRID_NODES = 10
N_GROUPS = 8
N_WORKERS = 4
LEASE_TIMEOUT_S = 3.0
FREEZE_S = 6.0


def chaos_extract(outcome):
    """Deterministic per-point metrics (picklable by reference)."""
    result = outcome.unwrap()
    return (result.max_ir_drop(), result.efficiency())


def sweep_points():
    from repro.runtime import PDNSpec, SweepPoint

    points = []
    for n_layers in range(2, 2 + N_GROUPS):
        spec = PDNSpec.regular(n_layers, grid_nodes=GRID_NODES)
        points.append(SweepPoint(spec=spec))
        points.append(
            SweepPoint(
                spec=spec,
                layer_activities=(0.7,) + (1.0,) * (n_layers - 1),
            )
        )
    return points


# ----------------------------------------------------------------------
# child: one supervised run (baseline, coordinator, or resume)
# ----------------------------------------------------------------------

def run_child(args) -> int:
    from repro.errors import ResumeMismatchError
    from repro.runtime import RunSupervisor, SupervisorConfig

    run_dir = pathlib.Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    config = SupervisorConfig(
        run_dir=str(run_dir),
        resume=args.resume,
        salvage=args.salvage,
        fleet=args.fleet,
        lease_timeout_s=LEASE_TIMEOUT_S,
        fleet_wait_s=args.fleet_wait,
        max_retries=4,  # chaos can charge one task several faults
        verbose=True,
    )
    supervisor = RunSupervisor(config=config)
    try:
        result = supervisor.run(sweep_points(), extract=chaos_extract)
    except ResumeMismatchError as exc:
        print(f"resume refused: {exc}", file=sys.stderr)
        return 3
    report = result.report
    payload = {
        "values": result.values,
        "mode": result.metrics.mode,
        "resumed": result.metrics.resumed,
        "n_tasks": len(report.tasks),
        "quarantined": report.quarantined_fingerprints(),
        "worker_deaths": report.worker_deaths,
        "leases_expired": report.leases_expired,
        "reassignments": report.reassignments,
        "workers": report.workers,
    }
    (run_dir / "values.json").write_text(json.dumps(payload, indent=2))
    return 0


def run_fleet_worker(args) -> int:
    from repro.runtime.fleet import run_worker

    address = args.address
    run_dir = pathlib.Path(address)
    if run_dir.is_dir():
        # Imported and ready: say so, then dial the coordinator the
        # moment its discovery file appears.
        (run_dir / f"{args.worker_id}.ready").touch()
        address = _wait_for_fleet_file(run_dir, poll_s=0.01, timeout_s=120.0)
    summary = run_worker(
        address, worker_id=args.worker_id, patience_s=args.patience
    )
    print(f"worker summary: {summary}", flush=True)
    return 0


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    return env


def _spawn_child(run_dir, fleet=None, resume=False, salvage=False,
                 fleet_wait=20.0) -> subprocess.Popen:
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()),
            "child", str(run_dir), "--fleet-wait", str(fleet_wait)]
    if fleet:
        argv += ["--fleet", fleet]
    if resume:
        argv.append("--resume")
    if salvage:
        argv.append("--salvage")
    return subprocess.Popen(argv, env=_child_env())


def _spawn_worker(address, worker_id, chaos_plan) -> subprocess.Popen:
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()),
            "worker", address, "--worker-id", worker_id,
            "--patience", "10"]
    env = _child_env()
    if chaos_plan is not None:
        env["REPRO_CHAOS"] = chaos_plan.to_env()
    return subprocess.Popen(argv, env=env)


def _wait_for_fleet_file(run_dir: pathlib.Path, timeout_s: float = 30.0,
                         poll_s: float = 0.05) -> str:
    path = run_dir / "fleet.json"
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if path.exists():
            try:
                return json.loads(path.read_text())["address"]
            except (ValueError, KeyError):
                pass
        time.sleep(poll_s)
    raise RuntimeError(f"no fleet.json appeared in {run_dir}")


def _spawn_repro_worker(address, worker_id, chaos_plan) -> subprocess.Popen:
    """A stock ``repro worker`` process (the service leg's extractor is
    importable by module path, so no script-local code is needed)."""
    argv = [sys.executable, "-m", "repro", "worker", address,
            "--worker-id", worker_id, "--patience", "10"]
    env = _child_env()
    if chaos_plan is not None:
        env["REPRO_CHAOS"] = chaos_plan.to_env()
    return subprocess.Popen(argv, env=env)


def _load_values(run_dir: pathlib.Path) -> dict:
    return json.loads((run_dir / "values.json").read_text())


def _worst_relative_diff(a, b) -> float:
    worst = 0.0
    for left, right in zip(a, b):
        for x, y in zip(left, right):
            scale = max(abs(x), abs(y), 1e-300)
            worst = max(worst, abs(x - y) / scale)
    return worst


def _tear_journal(run_dir: pathlib.Path) -> int:
    """Cut the journal's last record in half; returns intact task count."""
    journal = sorted(run_dir.glob("journal-*.jsonl"))[0]
    lines = journal.read_text().splitlines()
    assert len(lines) >= 3, "journal too short to tear meaningfully"
    torn = lines[-1][: max(1, len(lines[-1]) // 2)]
    journal.write_text("\n".join(lines[:-1] + [torn]) + "\n")
    return len(lines) - 2  # minus header, minus the torn record


def orchestrate(work_dir: pathlib.Path, seed: int) -> int:
    from repro.runtime.chaos import ChaosPlan

    baseline_dir = work_dir / "baseline"
    chaos_dir = work_dir / "chaos"

    print("== 1. serial baseline ==", flush=True)
    child = _spawn_child(baseline_dir)
    if child.wait(timeout=600) != 0:
        print("FAIL: baseline run did not exit cleanly")
        return 1
    baseline = _load_values(baseline_dir)
    if baseline["quarantined"]:
        print("FAIL: baseline quarantined tasks")
        return 1

    print(f"== 2. fleet under chaos (seed {seed}) ==", flush=True)
    # Fault positions are seed-derived over each worker's expected share
    # of tasks, so the kills land while the sweep is still in flight.
    # That share assumes every worker is attached when leasing starts:
    # the workers start first, and the coordinator only once all four
    # are imported and watching for its discovery file, so none can
    # drain the sweep before a late starter joins.
    plans = [
        ChaosPlan.seeded(seed, 2, kill=True),
        ChaosPlan.seeded(seed + 1, 2, kill=True),
        ChaosPlan.seeded(seed + 2, 2, freeze=True, freeze_s=FREEZE_S),
        ChaosPlan.seeded(seed + 3, 2, dup_result=True),
    ]
    chaos_dir.mkdir(parents=True, exist_ok=True)
    workers = [
        _spawn_worker(str(chaos_dir), f"chaos-w{i}", plan)
        for i, plan in enumerate(plans)
    ]
    deadline = time.monotonic() + 120.0
    while len(list(chaos_dir.glob("*.ready"))) < len(workers):
        if time.monotonic() > deadline or any(
            w.poll() is not None for w in workers
        ):
            for worker in workers:
                worker.kill()
            print("FAIL: the chaos workers never became ready")
            return 1
        time.sleep(0.05)
    coordinator = _spawn_child(chaos_dir, fleet="127.0.0.1:0")
    if coordinator.wait(timeout=600) != 0:
        for worker in workers:
            worker.kill()
        print("FAIL: chaos coordinator run did not exit cleanly")
        return 1
    for worker in workers:
        try:
            worker.wait(timeout=60)
        except subprocess.TimeoutExpired:
            worker.kill()
            print("FAIL: a worker outlived the coordinator by a minute")
            return 1
    chaos = _load_values(chaos_dir)
    killed = sum(1 for w in workers if w.returncode and w.returncode < 0)
    print(
        f"chaos run: mode={chaos['mode']}, "
        f"{chaos['worker_deaths']} worker death(s), "
        f"{chaos['leases_expired']} expired lease(s), "
        f"{chaos['reassignments']} reassignment(s), "
        f"{killed} worker(s) SIGKILLed",
        flush=True,
    )
    if chaos["quarantined"]:
        print("FAIL: chaos run quarantined tasks (retry budget too small?)")
        return 1
    if chaos["worker_deaths"] < 2:
        print("FAIL: expected >= 2 worker deaths")
        return 1
    if chaos["leases_expired"] < 1:
        print("FAIL: expected >= 1 expired lease")
        return 1
    if chaos["reassignments"] < 1:
        print("FAIL: expected >= 1 reassignment")
        return 1
    if chaos["mode"] != "fleet":
        print(f"FAIL: expected fleet mode, got {chaos['mode']!r}")
        return 1
    worst = _worst_relative_diff(baseline["values"], chaos["values"])
    print(f"worst relative difference vs baseline: {worst:.3e}", flush=True)
    if worst > TOLERANCE:
        print(f"FAIL: chaos values differ beyond {TOLERANCE}")
        return 1

    print("== 3. journal tear: strict refusal, then salvage ==", flush=True)
    intact = _tear_journal(chaos_dir)
    child = _spawn_child(chaos_dir, resume=True)
    if child.wait(timeout=600) != 3:
        print("FAIL: strict --resume accepted a torn journal")
        return 1
    child = _spawn_child(chaos_dir, resume=True, salvage=True)
    if child.wait(timeout=600) != 0:
        print("FAIL: salvage resume did not exit cleanly")
        return 1
    salvaged = _load_values(chaos_dir)
    if salvaged["resumed"] != intact:
        print(
            f"FAIL: salvage restored {salvaged['resumed']} task(s), "
            f"expected {intact}"
        )
        return 1
    worst = _worst_relative_diff(baseline["values"], salvaged["values"])
    print(
        f"salvage restored {intact}/{salvaged['n_tasks']} task(s); "
        f"worst relative difference: {worst:.3e}",
        flush=True,
    )
    if worst > TOLERANCE:
        print(f"FAIL: salvaged values differ beyond {TOLERANCE}")
        return 1

    if service_leg() != 0:
        return 1
    print("PASS: fleet survives chaos with bit-identical results")
    return 0


def service_leg() -> int:
    """Leg 4: a replica's Fleet loses a worker to SIGKILL mid-lease."""
    import threading

    from repro.runtime import PDNSpec, SweepEngine, SweepPoint
    from repro.runtime.chaos import ChaosPlan
    from repro.runtime.fleet import Fleet
    from repro.service.server import extract_summary

    print("== 4. service fleet under SIGKILL ==", flush=True)
    specs = [
        PDNSpec.regular(n_layers, grid_nodes=GRID_NODES)
        for n_layers in range(2, 2 + N_GROUPS // 2)
    ] + [
        PDNSpec.stacked(n_layers, converters_per_core=4,
                        grid_nodes=GRID_NODES)
        for n_layers in range(2, 2 + N_GROUPS // 2)
    ]
    fleet = Fleet(
        "127.0.0.1:0", lease_timeout_s=LEASE_TIMEOUT_S, wait_s=60.0
    )
    address = fleet.start()
    answers = [None] * len(specs)
    errors = []

    def query(index):
        try:
            answers[index] = fleet.solve(
                specs[index], extract=extract_summary, timeout_s=300.0
            )
        except Exception as exc:  # reported below, never swallowed
            errors.append(f"{type(exc).__name__}: {exc}")

    # The doomed worker attaches first, so it is certain to lease (and
    # die holding) one of the queries before its sibling starts.
    doomed = _spawn_repro_worker(
        address, "svc-doomed", ChaosPlan(kill_on_task=0)
    )
    healthy = None
    try:
        deadline = time.monotonic() + 60.0
        while fleet.workers_connected() == 0:
            if time.monotonic() > deadline or doomed.poll() is not None:
                print("FAIL: the doomed worker never attached")
                return 1
            time.sleep(0.05)
        threads = [
            threading.Thread(target=query, args=(i,), daemon=True)
            for i in range(len(specs))
        ]
        for thread in threads:
            thread.start()
        healthy = _spawn_repro_worker(address, "svc-healthy", None)
        for thread in threads:
            thread.join(timeout=600.0)
        counters = fleet.counters()
    finally:
        fleet.close()
        for worker in (doomed, healthy):
            if worker is None:
                continue
            try:
                worker.wait(timeout=60)
            except subprocess.TimeoutExpired:
                worker.kill()
    print(
        f"service fleet: {counters['tasks_done']} task(s) done, "
        f"{counters['worker_deaths']} worker death(s), "
        f"{counters['task_failures']} failed task(s), doomed worker "
        f"exit {doomed.returncode}, healthy worker exit "
        f"{healthy.returncode}",
        flush=True,
    )
    if errors:
        print(f"FAIL: {len(errors)} query(ies) failed: {errors[0]}")
        return 1
    if counters["worker_deaths"] < 1:
        print("FAIL: expected >= 1 service worker death")
        return 1
    if doomed.returncode != -9:
        print("FAIL: the doomed worker was not SIGKILLed")
        return 1
    if healthy.returncode != 0:
        print("FAIL: the healthy worker did not exit cleanly on close")
        return 1
    engine = SweepEngine()
    mismatched = [
        spec for spec, answer in zip(specs, answers)
        if answer != engine.run(
            [SweepPoint(spec=spec)], extract=extract_summary
        ).values[0]
    ]
    if mismatched:
        print(f"FAIL: {len(mismatched)} fleet answer(s) differ from a "
              "direct engine run")
        return 1
    print(f"all {len(specs)} service answers equal direct engine runs",
          flush=True)
    return 0


# ----------------------------------------------------------------------

def main(argv) -> int:
    if argv and argv[0] == "child":
        parser = argparse.ArgumentParser(prog="chaos_fleet_check child")
        parser.add_argument("run_dir")
        parser.add_argument("--fleet", default=None)
        parser.add_argument("--fleet-wait", type=float, default=20.0)
        parser.add_argument("--resume", action="store_true")
        parser.add_argument("--salvage", action="store_true")
        return run_child(parser.parse_args(argv[1:]))
    if argv and argv[0] == "worker":
        parser = argparse.ArgumentParser(prog="chaos_fleet_check worker")
        parser.add_argument("address")
        parser.add_argument("--worker-id", default=None)
        parser.add_argument("--patience", type=float, default=10.0)
        return run_fleet_worker(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work_dir", nargs="?", default=None)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    if args.work_dir:
        work_dir = pathlib.Path(args.work_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        return orchestrate(work_dir, args.seed)
    with tempfile.TemporaryDirectory(prefix="chaos-fleet-") as tmp:
        return orchestrate(pathlib.Path(tmp), args.seed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
