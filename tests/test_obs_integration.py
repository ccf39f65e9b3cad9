"""Observability end-to-end: spans through real sweeps, workers, resume.

These tests exercise the hard guarantees of docs/OBSERVABILITY.md:

* spans recorded inside the supervisor's local workers ship back and
  reassemble into **one** coherent tree under the coordinator's sweep
  span,
* ``--resume`` appends to the existing ``trace-<fp>.jsonl`` without
  duplicating span ids,
* the BENCH ``stage_totals`` are reproducible from spans alone (<1%;
  by construction they are the same measurements),
* tracing must not perturb the numbers: outputs are **bit-identical**
  with tracing on or off.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import load_trace, load_trace_header, trace_path
from repro.obs.profile import build_tree, stage_totals_from_spans
from repro.obs.trace import get_tracer
from repro.runtime import (
    PDNSpec,
    RunSupervisor,
    SupervisorConfig,
    SweepEngine,
    SweepPoint,
)

from tests.conftest import TEST_GRID


def _points(n_groups: int = 2, per_group: int = 2):
    points = []
    for n_layers in range(2, 2 + n_groups):
        spec = PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)
        for i in range(per_group):
            activities = tuple([1.0 - 0.1 * i] + [1.0] * (n_layers - 1))
            points.append(SweepPoint(spec=spec, layer_activities=activities))
    return points


def _ir_extract(outcome):
    return outcome.unwrap().max_ir_drop()


@pytest.fixture
def traced(tmp_path, monkeypatch):
    """Enable tracing into ``tmp_path``; leave the tracer clean after."""
    from repro.obs.trace import TRACE_DIR_ENV

    monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
    tracer = get_tracer()
    tracer.drain()
    tracer.enable()
    yield tmp_path
    tracer.drain()
    tracer.disable()
    tracer.set_trace_id(None)


def _single_trace(trace_dir):
    traces = sorted(trace_dir.glob("trace-*.jsonl"))
    assert len(traces) == 1, [t.name for t in traces]
    return traces[0]


class TestSpanTreeAcrossProcesses:
    def test_serial_run_forms_one_tree(self, traced):
        run = SweepEngine().run(_points())
        path = trace_path(run.metrics.run_fingerprint, traced)
        spans = load_trace(path)
        roots = build_tree(spans)
        assert len(roots) == 1
        assert roots[0].span.name == "sweep"
        names = {n.span.name for n in roots[0].walk()}
        assert {"group", "build", "factorize", "solve", "post"} <= names

    def test_factorize_span_reports_ordering_and_fill(self, traced):
        regular = PDNSpec.regular(2, grid_nodes=TEST_GRID)
        stacked = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
        run = SweepEngine().run(
            [SweepPoint(spec=regular), SweepPoint(spec=stacked)]
        )
        spans = load_trace(trace_path(run.metrics.run_fingerprint, traced))
        factorize = [s.attributes for s in spans if s.name == "factorize"]
        assert [a["ordering"] for a in factorize] == ["symmetric", "general"]
        assert all(a["factor_entries"] > 0 for a in factorize)

    def test_process_fanout_reassembles_under_sweep(self, traced):
        run = RunSupervisor(config=SupervisorConfig(workers=2)).run(
            _points(), extract=_ir_extract
        )
        assert run.metrics.mode == "process"
        spans = load_trace(_single_trace(traced))
        roots = build_tree(spans)
        assert len(roots) == 1, "worker spans must re-parent under the sweep"
        sweep = roots[0]
        assert sweep.span.name == "sweep"
        groups = [n for n in sweep.walk() if n.span.name == "group"]
        assert len(groups) == 2
        # Worker spans really came from other processes...
        assert {g.span.pid for g in groups} - {sweep.span.pid}
        # ...yet parent ids all resolve inside the one tree.
        ids = {n.span.span_id for n in sweep.walk()}
        for node in sweep.walk():
            parent = node.span.parent_id
            assert parent is None or parent in ids
        # Every span carries the run's trace id.
        fps = {s.trace_id for s in spans}
        assert fps == {run.metrics.run_fingerprint}

    def test_supervised_run_records_task_spans(self, traced):
        sup = RunSupervisor(config=SupervisorConfig(max_retries=0))
        sup.run(_points(), extract=_ir_extract)
        spans = load_trace(_single_trace(traced))
        tasks = [s for s in spans if s.name == "task"]
        assert len(tasks) == 2
        assert all(t.attributes["status"] == "done" for t in tasks)


class TestResumeAppends:
    def test_resume_appends_without_duplicate_ids(self, traced, tmp_path):
        run_dir = tmp_path / "run"
        points = _points()
        first = RunSupervisor(
            config=SupervisorConfig(run_dir=str(run_dir))
        ).run(points, extract=_ir_extract)
        path = _single_trace(traced)
        first_spans = load_trace(path)

        resumed = RunSupervisor(
            config=SupervisorConfig(run_dir=str(run_dir), resume=True)
        ).run(points, extract=_ir_extract)
        assert resumed.metrics.resumed == 2
        assert resumed.values == first.values

        # Same fingerprint -> same file, appended not duplicated.
        assert _single_trace(traced) == path
        spans = load_trace(path)
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        assert len(spans) > len(first_spans)  # the resumed sweep appended
        header = load_trace_header(path)
        assert header["run_fingerprint"] == resumed.metrics.run_fingerprint


class TestBenchAgreement:
    def test_stage_totals_reproducible_from_spans(
        self, traced, tmp_path, monkeypatch
    ):
        from repro.runtime.metrics import BENCH_DIR_ENV

        bench_dir = tmp_path / "bench"
        monkeypatch.setenv(BENCH_DIR_ENV, str(bench_dir))
        run = SweepEngine().run(_points(3, 2), bench_name="obs_agreement")
        payload = json.loads(
            (bench_dir / "BENCH_obs_agreement.json").read_text()
        )
        assert payload["schema"] == 8
        assert payload["run_fingerprint"] == run.metrics.run_fingerprint

        spans = load_trace(trace_path(run.metrics.run_fingerprint, traced))
        from_spans = stage_totals_from_spans(spans)
        # BENCH rounds to 6 decimals, hence the small absolute slack.
        for stage in ("build", "factorize", "solve", "post", "contracts"):
            bench_value = payload["totals"][f"{stage}_s"]
            assert from_spans[stage] == pytest.approx(
                bench_value, rel=0.01, abs=1e-6
            ), stage


    def test_strict_rungs_match_trace_under_cholesky(
        self, traced, tmp_path, monkeypatch
    ):
        """A strict solve is tallied under the factorisation that
        answered it: cholesky refuses the saddle-point MNA matrix, lu
        answers, and BENCH and the trace both say ``lu``."""
        from repro.grid.backends import set_default_backend
        from repro.runtime.metrics import BENCH_DIR_ENV

        bench_dir = tmp_path / "bench"
        monkeypatch.setenv(BENCH_DIR_ENV, str(bench_dir))
        set_default_backend("cholesky")
        try:
            run = SweepEngine().run(_points(2, 1), bench_name="obs_rungs")
        finally:
            set_default_backend(None)
        payload = json.loads((bench_dir / "BENCH_obs_rungs.json").read_text())
        assert payload["solver"] == "cholesky"
        assert payload["escalations"] == {"lu": 2}

        spans = load_trace(trace_path(run.metrics.run_fingerprint, traced))
        from_spans = {}
        for span in spans:
            if span.name == "rung":
                rung = span.attributes["rung"]
                from_spans[rung] = from_spans.get(rung, 0) + span.attributes["count"]
        assert from_spans == payload["escalations"]


    def test_failed_strict_rungs_are_error_spans_not_escalations(
        self, traced, tmp_path, monkeypatch
    ):
        """A strict solve that raises is timed by its own rung span,
        marked "error"; the trace's escalation tally skips it, as BENCH
        tallies the point as "failed"."""
        from repro.faults import severed_layer_plan
        from repro.obs.profile import attribution
        from repro.runtime.metrics import BENCH_DIR_ENV

        bench_dir = tmp_path / "bench"
        monkeypatch.setenv(BENCH_DIR_ENV, str(bench_dir))
        spec = PDNSpec.regular(2, grid_nodes=TEST_GRID)
        points = [
            SweepPoint(
                spec=spec,
                layer_activities=(1.0, activity),
                fault_plan=severed_layer_plan,
                resilient=False,
            )
            for activity in (1.0, 0.5)
        ]
        run = SweepEngine().run(points, bench_name="obs_failed")
        payload = json.loads((bench_dir / "BENCH_obs_failed.json").read_text())
        assert payload["escalations"] == {"failed": 2}

        spans = load_trace(trace_path(run.metrics.run_fingerprint, traced))
        rungs = [s for s in spans if s.name == "rung"]
        # The batch attempt only: every point failed it, and a per-point
        # retry would reuse the same factorisation.
        assert [s.attributes["count"] for s in rungs] == [2]
        assert {s.status for s in rungs} == {"error"}
        assert attribution(spans).escalations == {}


class TestTracingIsInert:
    def test_outputs_bit_identical_on_off(self, tmp_path, monkeypatch):
        from repro.obs.trace import TRACE_DIR_ENV

        points = _points()
        tracer = get_tracer()
        assert not tracer.enabled
        baseline = SweepEngine().run(points, extract=_ir_extract)

        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        tracer.drain()
        tracer.enable()
        try:
            traced_run = SweepEngine().run(points, extract=_ir_extract)
        finally:
            tracer.drain()
            tracer.disable()
            tracer.set_trace_id(None)
        assert traced_run.values == baseline.values  # bit-identical floats

    def test_disabled_leaves_no_files(self, tmp_path, monkeypatch):
        from repro.obs.trace import TRACE_DIR_ENV

        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        SweepEngine().run(_points(1, 1))
        assert not list(tmp_path.glob("trace-*.jsonl"))


class TestTraceCLI:
    def test_repro_trace_reports_run(self, traced, capsys):
        from repro.cli import main

        run = SweepEngine().run(_points())
        code = main(["trace", str(traced)])
        out = capsys.readouterr().out
        assert code == 0
        assert run.metrics.run_fingerprint in out
        assert "stage totals from spans" in out
        assert "slowest topology groups" in out

    def test_repro_trace_missing_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["trace", str(tmp_path)])
        assert code == 2
        assert "no trace-" in capsys.readouterr().err
