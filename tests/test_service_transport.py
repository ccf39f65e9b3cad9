"""The replica's connection transport: callback hits, ordering, flow.

A plain query line the replica has memoised is answered inside the
protocol's read callback when its entry is a fresh hit; every other line
runs the full request path on one task per connection.  These tests pin
what the transport must keep from the streams loop it replaced: answers
in request order, lines reassembled across reads, the 64 KiB line cap,
reading paused by write backpressure, hit bytes equal to the full
path's, and the same counters, metric series and flight-recorder events
whichever path answered.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.grid.backends import default_backend_name
from repro.obs.trace import get_tracer
from repro.runtime import PDNSpec
from repro.service import (
    ServiceClient,
    ServiceConfig,
    query_fingerprint,
    serve_in_background,
)
from repro.service.server import MAX_LINE_BYTES

from tests.conftest import TEST_GRID

SPEC = PDNSpec.regular(2, grid_nodes=TEST_GRID).to_dict()


def _line(first_activity: float, **extra) -> bytes:
    """A plain query line; ``first_activity`` names its answer."""
    message = {"kind": "query", "spec": SPEC, "activities": [first_activity, 1.0]}
    message.update(extra)
    return (json.dumps(message) + "\n").encode("utf-8")


class _Solver:
    """Answers ``{"v": activities[0]}``, optionally after a delay."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.calls = 0

    def __call__(self, spec, activities, deadline):
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return {"v": activities[0]}


@pytest.fixture
def serve(tmp_path):
    handles = []

    def _serve(solve_fn, name="svc-cache", **overrides):
        settings = dict(
            bind="127.0.0.1:0",
            cache_dir=str(tmp_path / name),
            bench_name=None,
            trace_flush_s=3600.0,
        )
        settings.update(overrides)
        handle = serve_in_background(
            config=ServiceConfig(**settings), solve_fn=solve_fn
        )
        handles.append(handle)
        return handle

    yield _serve
    for handle in handles:
        handle.stop(drain=False)


class _Raw:
    """A bare socket to a replica: bytes out, response lines back."""

    def __init__(self, address: str):
        host, port = address.rsplit(":", 1)
        self.sock = socket.socket()
        self.sock.settimeout(30.0)
        self.sock.connect((host, int(port)))
        self.file = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read(self) -> bytes:
        return self.file.readline()

    def ask(self, data: bytes) -> bytes:
        self.send(data)
        return self.read()

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def _count_full_path(service) -> list:
    """Record every line the full path answers (the fast path does not)."""
    lines = []
    full_path = service._respond

    async def counting(line, peer):
        lines.append(line)
        return await full_path(line, peer)

    service._respond = counting
    return lines


def _without_wall(line: bytes) -> bytes:
    """A response line with its ``wall_s`` value (the last key) blanked."""
    head, wall = line.rsplit(b'"wall_s": ', 1)
    assert wall.endswith(b"}\n") and float(wall[:-2]) >= 0
    return head


# ----------------------------------------------------------------------
# ordering and framing
# ----------------------------------------------------------------------

class TestOrdering:
    def test_pipelined_hits_and_misses_answer_in_order(self, serve):
        handle = serve(_Solver(delay_s=0.2))
        raw = _Raw(handle.address)
        try:
            for value in (1.0, 2.0):  # two entries the replica can hit
                raw.ask(_line(value))
            full_path = _count_full_path(handle.service)
            values = [1.0, 3.0, 2.0, 1.0, 4.0, 2.0, 2.0]
            raw.send(b"".join(_line(v) for v in values))
            answers = [json.loads(raw.read()) for _ in values]
        finally:
            raw.close()
        assert [a["result"]["v"] for a in answers] == values
        assert [a["cached"] for a in answers] == [
            True, False, True, True, False, True, True
        ]
        # The hits before the first miss never left the callback.
        assert full_path[0] == _line(3.0)[:-1]

    def test_a_line_split_across_writes_is_read_whole(self, serve):
        handle = serve(_Solver())
        raw = _Raw(handle.address)
        raw.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            first = raw.ask(_line(5.0))
            assert json.loads(first)["cached"] is False
            full_path = _count_full_path(handle.service)
            line = _line(5.0)
            for cut in (1, len(line) // 2, len(line) - 1):
                raw.send(line[:cut])
                time.sleep(0.05)  # a separate read on the replica
                raw.send(line[cut:])
                answer = json.loads(raw.read())
                assert answer["cached"] is True
                assert answer["result"] == {"v": 5.0}
        finally:
            raw.close()
        assert full_path == []

    def test_an_unterminated_last_line_is_answered_at_eof(self, serve):
        handle = serve(_Solver())
        raw = _Raw(handle.address)
        try:
            raw.send(_line(6.0) + b'{"kind": "health"}')
            raw.sock.shutdown(socket.SHUT_WR)
            answers = [json.loads(raw.read()) for _ in range(2)]
            assert raw.read() == b""
        finally:
            raw.close()
        assert answers[0]["result"] == {"v": 6.0}
        assert answers[1]["kind"] == "health"


class TestLineCap:
    def test_a_line_at_the_cap_is_read(self, serve):
        handle = serve(_Solver())
        raw = _Raw(handle.address)
        try:
            answer = json.loads(raw.ask(b"x" * MAX_LINE_BYTES + b"\n"))
            assert answer["code"] == 400
            assert json.loads(raw.ask(b'{"kind": "health"}\n'))["code"] == 200
        finally:
            raw.close()

    @pytest.mark.parametrize("terminated", [True, False])
    def test_a_longer_line_closes_the_connection(self, serve, terminated):
        handle = serve(_Solver())
        raw = _Raw(handle.address)
        try:
            overlong = b"x" * (MAX_LINE_BYTES + 1) + (b"\n" if terminated else b"")
            raw.send(b'{"kind": "health"}\n' + overlong)
            # Answers to the lines before it still arrive, then EOF.
            assert json.loads(raw.read())["kind"] == "health"
            assert raw.read() == b""
        finally:
            raw.close()
        # The replica itself is unharmed.
        other = _Raw(handle.address)
        try:
            assert json.loads(other.ask(b'{"kind": "health"}\n'))["code"] == 200
        finally:
            other.close()


# ----------------------------------------------------------------------
# flow control
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_a_client_that_stops_reading_pauses_the_replicas_reading(
        self, serve
    ):
        pad = "p" * 4096  # large answers fill the socket buffers quickly
        handle = serve(lambda spec, activities, deadline: {"pad": pad})
        raw = _Raw(handle.address)
        try:
            line = _line(7.0)
            raw.ask(line)
            raw.ask(line)  # memoised: every copy below is a callback hit
            (transport,) = handle.service._connections
            # The replica's send buffer and the client's receive buffer,
            # shrunk after connecting so that both can be restored.
            buffers = [
                (transport.get_extra_info("socket"), socket.SO_SNDBUF),
                (raw.sock, socket.SO_RCVBUF),
            ]
            sizes = [sock.getsockopt(socket.SOL_SOCKET, o) for sock, o in buffers]
            for sock, option in buffers:
                sock.setsockopt(socket.SOL_SOCKET, option, 4096)
            count = 5000
            sender = threading.Thread(
                target=raw.send, args=(line * count,), daemon=True
            )
            sender.start()
            requests = handle.service._m_requests
            for _ in range(100):
                time.sleep(0.1)
                if not transport.is_reading():
                    break
            # Paused: nothing more is read, parsed or answered.
            before = requests.value(kind="query")
            time.sleep(0.5)
            assert not transport.is_reading()
            assert requests.value(kind="query") == before < count + 2
            protocol = transport.get_protocol()
            assert transport.get_write_buffer_size() <= 2 * 65536
            assert len(protocol._buffer) <= 2 * MAX_LINE_BYTES + 2**18
            # Reading again drains everything, in order and complete,
            # through the restored buffers (4 KiB ones take ~5 ms an answer).
            for (sock, option), size in zip(buffers, sizes):
                sock.setsockopt(socket.SOL_SOCKET, option, size)
            answers = [raw.read() for _ in range(count)]
            sender.join(timeout=30.0)
        finally:
            raw.close()
        assert not sender.is_alive()
        assert all(json.loads(a)["result"] == {"pad": pad} for a in answers)


# ----------------------------------------------------------------------
# fast path == full path
# ----------------------------------------------------------------------

class TestFastPathParity:
    def test_hit_bytes_equal_the_full_paths(self, serve):
        handle = serve(_Solver())
        raw = _Raw(handle.address)
        message = {"kind": "query", "spec": SPEC, "activities": [8.0, 1.0]}
        compact = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        try:
            raw.ask(_line(8.0))  # the miss memoises this line
            full_path = _count_full_path(handle.service)
            fast = raw.ask(_line(8.0))
            full = raw.ask(compact)  # the same query, a line not memoised
        finally:
            raw.close()
        assert full_path == [compact[:-1]]
        assert json.loads(fast)["cached"] is True
        assert _without_wall(fast) == _without_wall(full)

    def test_lines_with_other_fields_are_never_memoised(self, serve):
        handle = serve(_Solver())
        raw = _Raw(handle.address)
        try:
            raw.ask(_line(9.0))
            full_path = _count_full_path(handle.service)
            tagged = [
                _line(9.0, id=1),
                _line(9.0, deadline_s=30.0),
                _line(9.0, trace={"id": "t", "parent": "p"}),
            ]
            for line in tagged + tagged:
                assert json.loads(raw.ask(line))["cached"] is True
        finally:
            raw.close()
        assert full_path == [line[:-1] for line in tagged + tagged]


def _stream_accounting(serve, name: str, traced: bool) -> dict:
    """Drive one fixed stream; return what the replica counted."""
    tracer = get_tracer()
    tracer.drain()
    if traced:
        tracer.enable()
    try:
        handle = serve(_Solver(), name=name, slo_latency_s=60.0)
        raw = _Raw(handle.address)
        try:
            stream = [
                _line(1.0), _line(1.0), _line(2.0), _line(1.0),
                b"not json\n", b'{"kind": "query", "spec": {"bogus": 1}}\n',
                _line(2.0), _line(2.0, id="x"),
                b'{"kind": "health"}\n', _line(1.0),
            ]
            for line in stream:
                raw.ask(line)
            # A peer evicts entry 1.0: its memoised line misses once.
            service = handle.service
            fingerprint = query_fingerprint(
                PDNSpec(**SPEC), (1.0, 1.0), default_backend_name()
            )
            (service.cache.directory / f"result-{fingerprint}.json").unlink()
            for line in (_line(1.0), _line(1.0), _line(2.0)):
                raw.ask(line)
        finally:
            raw.close()
        handle.stop(drain=True)
    finally:
        tracer.disable()
        tracer.drain()
    counters = service.counters()
    return {
        "cache": {
            key: value
            for key, value in counters["cache"].items()
            if key != "size_bytes"
        },
        "requests": counters["requests"],
        "responses": counters["responses"],
        "latency": counters["latency"]["by_outcome"],
        "slo": counters["slo"],
        "series": _series_counts(service.metrics.to_wire()),
        "recorder": [event[1] for event in service._recorder],
    }


def _series_counts(wire) -> list:
    """(metric, labels, count or value) of every series in a wire dump."""
    return [
        (
            metric["name"],
            sorted(series["labels"].items()),
            series.get("count", series.get("value")),
        )
        for metric in wire["metrics"]
        for series in metric["series"]
    ]


class TestAccountingParity:
    def test_fast_and_full_path_count_the_same(self, serve):
        fast = _stream_accounting(serve, "fast", traced=False)
        full = _stream_accounting(serve, "full", traced=True)
        assert fast == full
        # First sights of 1.0 and 2.0, and 1.0 once after the peer's
        # eviction: three misses, each counted once.
        assert fast["cache"]["misses"] == 3
        assert fast["cache"]["hits"] == 7
        assert fast["latency"] == {"miss": 3, "hit": 7, "error": 1}
        assert fast["recorder"] == [
            "miss", "hit", "miss", "hit", "error", "hit", "hit", "hit",
            "miss", "hit", "hit",
        ]


# ----------------------------------------------------------------------
# the client's remembered request lines
# ----------------------------------------------------------------------

class TestClientLineMemo:
    def test_a_repeated_query_sends_the_bytes_json_dumps_would(self, serve):
        handle = serve(lambda spec, activities, deadline: {"v": 1.0})
        sent = []
        specs = [
            PDNSpec.regular(2, topology="Dense", grid_nodes=TEST_GRID),
            # Equal to each other, encoded apart: 0 vs 0.0.
            PDNSpec(grid_nodes=TEST_GRID, n_layers=2, vdd_pads_per_core=0),
            PDNSpec(grid_nodes=TEST_GRID, n_layers=2, vdd_pads_per_core=0.0),
        ]
        with ServiceClient(handle.address) as client:
            exchange = client._exchange
            client._exchange = lambda request: sent.append(request) or exchange(request)
            for spec in specs + specs:
                for activities in (None, (0.5, 1.0)):
                    message = {"kind": "query", "spec": spec.to_dict()}
                    if activities is not None:
                        message["activities"] = list(activities)
                    expected = (json.dumps(message) + "\n").encode("utf-8")
                    assert client.query(spec, activities)["status"] == "ok"
                    assert sent[-1] == expected
            assert len(client._lines) == 4  # the two equal specs share keys
