"""Service units: fingerprint cache, breaker, admission, CLI converters."""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadError,
    ServiceProtocolError,
    TaskTimeoutError,
)
from repro.runtime import PDNSpec, SweepPoint
from repro.runtime.fingerprint import task_fingerprint
from repro.service import (
    CACHE_SCHEMA,
    CircuitBreaker,
    Deadline,
    ResultCache,
    query_fingerprint,
    spec_from_payload,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN

from tests.conftest import TEST_GRID


def _spec(n_layers: int = 2) -> PDNSpec:
    return PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)


# ----------------------------------------------------------------------
# query fingerprints
# ----------------------------------------------------------------------

class TestQueryFingerprint:
    def test_matches_supervisor_task_fingerprint(self):
        """A service cache key IS the journal fingerprint of the solve."""
        spec = _spec()
        point = SweepPoint(spec=spec)
        expected = task_fingerprint((spec, None, False, "lu"), [(0, point)])
        assert query_fingerprint(spec) == expected

    def test_activities_change_the_key(self):
        spec = _spec()
        base = query_fingerprint(spec)
        assert query_fingerprint(spec, [0.5, 1.0]) != base

    def test_solver_changes_the_key(self):
        spec = _spec()
        assert query_fingerprint(spec, solver="cholesky") != query_fingerprint(
            spec, solver="lu"
        )

    def test_deterministic(self):
        spec = _spec()
        assert query_fingerprint(spec, [0.7, 1.0]) == query_fingerprint(
            spec, [0.7, 1.0]
        )


class TestSpecPayload:
    def test_roundtrip_via_to_dict(self):
        spec = PDNSpec.stacked(4, converters_per_core=8, grid_nodes=TEST_GRID)
        assert spec_from_payload(spec.to_dict()) == spec

    def test_unknown_field_is_typed(self):
        with pytest.raises(ServiceProtocolError, match="unknown spec field"):
            spec_from_payload({"bogus": 1})

    def test_invalid_value_is_typed(self):
        with pytest.raises(ServiceProtocolError, match="invalid spec"):
            spec_from_payload({"arrangement": "sideways"})

    def test_non_object_is_typed(self):
        with pytest.raises(ServiceProtocolError, match="must be an object"):
            spec_from_payload([1, 2])


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------

@pytest.fixture
def file_reads(monkeypatch):
    """Count ``pathlib.Path.read_text`` calls (every cache file read)."""
    reads = []
    original = pathlib.Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", counting)
    return reads


def _kept(cache: ResultCache) -> set:
    """Fingerprints whose verified record the cache holds in memory."""
    return {fp for fp, s in cache._index.items() if s.record is not None}


def _tamper_same_size(path: pathlib.Path) -> None:
    """Rewrite the entry in place (same inode, same size), v 1 -> 7."""
    text = path.read_text()
    assert '"v": 1' in text
    path.write_text(text.replace('"v": 1', '"v": 7'))


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c").open()
        cache.put("abc123", {"efficiency": 0.9})
        entry = cache.get("abc123")
        assert entry is not None
        assert entry.payload == {"efficiency": 0.9}
        assert not entry.stale
        assert cache.hits == 1 and cache.writes == 1

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c").open()
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_persists_across_reopen(self, tmp_path):
        ResultCache(tmp_path / "c").open().put("k1", {"v": 1.5})
        cache = ResultCache(tmp_path / "c").open()
        assert cache.get("k1").payload == {"v": 1.5}

    def test_open_sweeps_stale_tmp_files(self, tmp_path):
        directory = tmp_path / "c"
        directory.mkdir()
        (directory / "result-dead.json.tmp").write_text("torn")
        ResultCache(directory).open()
        assert not (directory / "result-dead.json.tmp").exists()

    def test_corrupted_entry_is_dropped_as_miss(self, tmp_path):
        directory = tmp_path / "c"
        cache = ResultCache(directory).open()
        cache.put("bad1", {"v": 1})
        (directory / "result-bad1.json").write_text("{not json")
        assert cache.get("bad1") is None
        assert not (directory / "result-bad1.json").exists()

    def test_wrong_schema_is_dropped_as_miss(self, tmp_path):
        directory = tmp_path / "c"
        cache = ResultCache(directory).open()
        (directory / "result-old1.json").write_text(
            json.dumps({"schema": CACHE_SCHEMA + 1, "payload": {"v": 1}})
        )
        cache.open()
        assert cache.get("old1") is None

    def test_ttl_expiry_and_stale_serving(self, tmp_path, file_reads):
        cache = ResultCache(tmp_path / "c", ttl_s=0.05).open()
        cache.put("k1", {"v": 2})
        assert cache.get("k1") is not None
        time.sleep(0.08)
        # Expired: a normal lookup misses, the degraded path still hits.
        assert cache.get("k1") is None
        stale = cache.get("k1", allow_stale=True)
        assert stale is not None and stale.stale
        assert stale.age_s > 0.05
        assert cache.stale_hits == 1
        # The TTL was judged on the record kept in memory.
        assert file_reads == []

    def test_lru_eviction_under_size_cap(self, tmp_path):
        payload = {"pad": "x" * 200}
        cache = ResultCache(tmp_path / "c", max_mb=0.0005).open()
        cache.put("old", payload)
        # Cap at ~2.5 entries so inserting the third evicts exactly one.
        cache.max_bytes = int(cache.size_bytes() * 2.5)
        time.sleep(0.02)
        cache.put("mid", payload)
        time.sleep(0.02)
        cache.get("old")  # bump: now "mid" is the LRU entry
        cache.put("new", payload)
        assert cache.get("new") is not None  # newest is protected
        assert cache.get("old") is not None  # recently used survived
        assert cache.get("mid") is None  # LRU victim
        assert cache.evictions >= 1

    def test_cap_smaller_than_one_entry_keeps_newest(self, tmp_path):
        cache = ResultCache(tmp_path / "c", max_mb=1e-6).open()
        cache.put("only", {"v": 1})
        assert cache.get("only") is not None

    def test_counters_shape(self, tmp_path):
        cache = ResultCache(tmp_path / "c").open()
        counters = cache.counters()
        assert set(counters) == {
            "entries", "size_bytes", "hits", "misses", "stale_hits",
            "writes", "evictions", "corrupt", "epoch_misses",
        }


class TestKeptRecords:
    """Hits are served from the verified in-memory record while the
    file's (inode, size, mtime) stamp still matches."""

    def test_hits_after_put_open_no_file(self, tmp_path, file_reads):
        cache = ResultCache(tmp_path / "c").open()
        cache.put("k1", {"v": 1})
        assert cache.get("k1").payload == {"v": 1}
        assert cache.get("k1").payload == {"v": 1}
        assert file_reads == []
        assert cache.hits == 2

    def test_second_hit_after_first_read_opens_no_file(
        self, tmp_path, file_reads
    ):
        cache = ResultCache(tmp_path / "c").open()
        cache.put("k1", {"v": 1})
        cache.open()  # re-indexing drops the kept records
        assert _kept(cache) == set()
        assert cache.get("k1").payload == {"v": 1}
        assert file_reads == ["result-k1.json"]
        assert cache.get("k1").payload == {"v": 1}
        assert file_reads == ["result-k1.json"]

    def test_served_payload_is_a_copy(self, tmp_path):
        cache = ResultCache(tmp_path / "c").open()
        cache.put("k1", {"v": 1})
        cache.get("k1").payload["v"] = 999
        assert cache.get("k1").payload == {"v": 1}

    def test_recency_bump_moves_mtime_without_a_reread(
        self, tmp_path, file_reads
    ):
        cache = ResultCache(tmp_path / "c").open()
        path = cache.put("k1", {"v": 1})
        old_ns = 1_000_000_000_000_000_000  # 2001: far from any bump
        os.utime(path, ns=(old_ns, old_ns))
        cache.get("k1")  # the stamp moved: one re-read, then kept again
        assert file_reads == ["result-k1.json"]
        assert path.stat().st_mtime_ns > old_ns
        cache.get("k1")
        cache.get("k1")
        assert file_reads == ["result-k1.json"]

    def test_same_size_in_place_tamper_is_caught(self, tmp_path):
        cache = ResultCache(tmp_path / "c").open()
        path = cache.put("k1", {"v": 1})
        assert cache.get("k1") is not None
        size, mtime_ns = path.stat().st_size, path.stat().st_mtime_ns
        _tamper_same_size(path)
        # A mtime ten seconds off differs at any timestamp granularity.
        os.utime(path, ns=(mtime_ns, mtime_ns - 10_000_000_000))
        assert path.stat().st_size == size
        assert cache.get("k1") is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert not path.exists()

    def test_verify_catches_a_tamper_that_kept_the_stamp(self, tmp_path):
        cache = ResultCache(tmp_path / "c").open()
        path = cache.put("k1", {"v": 1})
        before = path.stat()
        _tamper_same_size(path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns
        )
        # Never served: the kept copy is the verified one.
        assert cache.get("k1").payload == {"v": 1}
        report = cache.verify()
        assert report["evicted"] == 1 and report["ok"] == 0
        assert cache.corrupt == 1
        assert not path.exists()
        assert cache.get("k1") is None

    def test_invalidate_drops_kept_records(self, tmp_path):
        cache = ResultCache(tmp_path / "c", epoch="e1").open()
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        assert _kept(cache) == {"k1", "k2"}
        assert cache.invalidate(epoch="e1") == 2
        assert _kept(cache) == set()
        assert cache.get("k1") is None

    def test_eviction_drops_kept_records(self, tmp_path):
        cache = ResultCache(tmp_path / "c", max_mb=1e-6).open()
        cache.put("old", {"v": 1})
        cache.put("new", {"v": 2})
        assert cache.evictions == 1
        assert _kept(cache) == {"new"}


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------

class TestDeadline:
    def test_unbounded(self):
        deadline = Deadline.after(None)
        assert deadline.remaining_s() is None
        assert not deadline.expired()
        deadline.check()  # never raises

    def test_remaining_counts_down(self):
        deadline = Deadline.after(10.0)
        remaining = deadline.remaining_s()
        assert 9.0 < remaining <= 10.0

    def test_expiry_is_typed_and_a_task_timeout(self):
        deadline = Deadline.after(0.01)
        time.sleep(0.03)
        assert deadline.expired()
        assert deadline.remaining_s() == 0.0
        with pytest.raises(DeadlineExceededError) as exc_info:
            deadline.check("fp123")
        # DeadlineExceededError IS a TaskTimeoutError: callers that
        # already handle task timeouts handle deadlines for free.
        assert isinstance(exc_info.value, TaskTimeoutError)
        assert "fp123" in str(exc_info.value)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        allowed, probe = breaker.allow()
        assert not allowed and not probe

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_single_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now += 5.0
        assert breaker.state == HALF_OPEN
        allowed, probe = breaker.allow()
        assert allowed and probe
        # Only ONE probe: concurrent callers are still rejected.
        assert breaker.allow() == (False, False)

    def test_probe_success_closes(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow() == (True, True)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() == (True, False)

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow() == (True, True)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now += 2.0  # cooldown restarted: still open
        assert breaker.state == OPEN
        clock.now += 3.0
        assert breaker.state == HALF_OPEN

    def test_retry_after_counts_down(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=8.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(8.0)
        clock.now += 3.0
        assert breaker.retry_after_s() == pytest.approx(5.0)

    def test_half_open_race_grants_exactly_one_probe(self):
        """Concurrent allow() at the half-open instant: one probe, ever.

        Many worker threads can observe the cooldown expiring at the
        same moment; the probe slot must be handed out exactly once or
        a still-broken backend gets hammered by N probes at once.
        """
        import threading

        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 5.0
        start = threading.Barrier(8)
        verdicts = []
        lock = threading.Lock()

        def contender():
            start.wait()
            verdict = breaker.allow()
            with lock:
                verdicts.append(verdict)

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert verdicts.count((True, True)) == 1
        assert verdicts.count((False, False)) == 7

    def test_probe_slot_not_leaked_across_reopen(self):
        """A failed probe must free the slot for the NEXT window's probe.

        If ``_probe_inflight`` leaked True through the open->half-open
        cycle the breaker would never probe again and stay effectively
        open forever.
        """
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure()
        for _ in range(3):  # several probe windows in a row
            clock.now += 5.0
            assert breaker.allow() == (True, True)
            # Concurrent caller while the probe is in flight: rejected.
            assert breaker.allow() == (False, False)
            breaker.record_failure()
            assert breaker.state == OPEN
        clock.now += 5.0
        assert breaker.allow() == (True, True)
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_snapshot_and_transitions(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == OPEN and snap["state_code"] == 1
        assert dict(breaker.transitions())["open"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0)


# ----------------------------------------------------------------------
# admission (event-loop bits are exercised in test_service_server)
# ----------------------------------------------------------------------

class TestAdmissionQueue:
    def test_shed_is_typed_with_retry_hint(self):
        import asyncio

        from repro.service import AdmissionQueue

        async def scenario():
            queue = AdmissionQueue(max_queue=2)
            queue.submit("a", Deadline.after(None))
            queue.submit("b", Deadline.after(None))
            with pytest.raises(ServiceOverloadError) as exc_info:
                queue.submit("c", Deadline.after(None))
            error = exc_info.value
            assert error.limit == 2
            assert error.retry_after_s is not None
            counters = queue.counters()
            assert counters["shed"] == 1 and counters["admitted"] == 2
            assert counters["depth"] == 2

        asyncio.run(scenario())

    def test_retry_hint_monotone_under_sustained_overload(self):
        """Consecutive sheds ramp the hint; it never decreases mid-storm.

        A client obeying the hints therefore backs off further and
        further instead of hammering an overloaded server at a fixed
        cadence; one successful admission resets the ramp.
        """
        import asyncio

        from repro.service import AdmissionQueue

        async def scenario():
            queue = AdmissionQueue(max_queue=1)
            queue.submit("fill", Deadline.after(None))
            hints = []
            for _ in range(12):
                with pytest.raises(ServiceOverloadError) as exc_info:
                    queue.submit("again", Deadline.after(None))
                hints.append(exc_info.value.retry_after_s)
            assert hints[0] == pytest.approx(queue.retry_base_s)
            assert all(b >= a for a, b in zip(hints, hints[1:]))
            assert hints[-1] == pytest.approx(queue.retry_cap_s)
            assert max(hints) <= queue.retry_cap_s
            # The ramp resets once a query actually gets in.
            await queue.next()
            queue.task_done()
            queue.submit("admitted", Deadline.after(None))
            assert queue.retry_after_s() == pytest.approx(queue.retry_base_s)

        asyncio.run(scenario())

    def test_validation(self):
        from repro.service import AdmissionQueue

        with pytest.raises(ValueError):
            AdmissionQueue(max_queue=0)


# ----------------------------------------------------------------------
# CLI: the --deadline converter fails closed on both subcommands
# ----------------------------------------------------------------------

class TestDeadlineFlag:
    @pytest.mark.parametrize("command", ["serve", "query"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
    def test_bad_deadline_is_one_line_exit_2(self, command, value, capsys):
        from repro.cli import main

        assert main([command, "--deadline", value]) == 2
        err = capsys.readouterr().err
        assert "--deadline" in err
        assert "Traceback" not in err

    def test_bad_activities_is_one_line_exit_2(self, capsys):
        from repro.cli import main

        assert main(["query", "--activities", "0.5,oops"]) == 2
        assert "--activities" in capsys.readouterr().err


class TestErrors:
    def test_overload_error_fields(self):
        error = ServiceOverloadError(
            "full", queue_depth=9, limit=8, retry_after_s=0.5
        )
        assert error.queue_depth == 9
        assert error.limit == 8
        assert isinstance(error, ReproError)

    def test_deadline_error_is_task_timeout(self):
        error = DeadlineExceededError("late", task="fp", timeout_s=1.0)
        assert isinstance(error, TaskTimeoutError)
        assert error.timeout_s == 1.0
