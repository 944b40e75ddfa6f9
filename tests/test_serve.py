"""The routing service: sinks, admission, sessions, HTTP endpoints.

Unit layers (AsyncSink, AdmissionController, SessionManager, config)
are tested with fake clocks and dummy sessions; the endpoint tests run
a real :class:`RoutingServer` on an ephemeral port and speak HTTP/1.1
over asyncio streams.  ``/route`` jobs run in spawned worker processes:
their routes must match an in-process route, a killed worker may fail
only its own job, and malformed bodies are fuzzed.  Shutdown is tested
in process (the ECO threads and the worker processes are joined) and,
slow-marked, by running ``grr serve`` as a process and stopping it with
SIGTERM or a Ctrl-C to its process group.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import io
import json
import multiprocessing
import os
import signal
import socket
import string
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RouteRequest, request_from_text, route
from repro.board.board import Board
from repro.board.parts import PinRole
from repro.board.technology import LogicFamily
from repro.core.budget import RouteBudget
from repro.io import (
    load_board_text,
    save_route_dump,
    write_board,
    write_connections,
)
from repro.io.kicad import export_document
from repro.obs.events import PassStart
from repro.obs.sinks import JsonlSink
from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    AsyncSink,
    RoutingServer,
    ServeConfig,
    SessionManager,
)
from repro.grid.coords import ViaPoint
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests.conftest import place_pin, scaled


def _fixture_text(name):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path, encoding="utf-8") as stream:
        return stream.read()


def _board_texts(name="tna", scale=0.25, seed=3):
    board = make_titan_board(name, scale=scale, seed=seed)
    connections = Stringer(board).string_all()
    bbuf, cbuf = io.StringIO(), io.StringIO()
    write_board(board, bbuf)
    write_connections(connections, cbuf)
    return bbuf.getvalue(), cbuf.getvalue(), board, connections


# ----------------------------------------------------------------------
# raw HTTP client helpers (one request per connection, like the server)
# ----------------------------------------------------------------------


async def _raw(host, port, verb, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        f"{verb} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body_bytes = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body_bytes


async def _call(host, port, verb, path, body=None):
    status, headers, body_bytes = await _raw(host, port, verb, path, body)
    return status, json.loads(body_bytes) if body_bytes else {}


@contextlib.contextmanager
def _serving():
    """A RoutingServer on an event loop of its own thread, for callers
    that speak blocking HTTP; yields the port."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = RoutingServer(ServeConfig(port=0))
    try:
        _, port = asyncio.run_coroutine_threadsafe(
            server.start(), loop
        ).result(timeout=30)
        yield port
    finally:
        asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(
            timeout=60
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        assert not thread.is_alive()
        loop.close()


def _post(port, path, body):
    """One blocking POST with a 30 s timeout; (status, JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("POST", path, json.dumps(body))
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _sse_frames(body_bytes):
    """The frames of an SSE body as ``(id, event name, data)``; the id
    and name are None in a frame that has none."""
    frames = []
    for block in body_bytes.decode().split("\n\n"):
        if block:
            fields = dict(line.split(": ", 1) for line in block.split("\n"))
            frames.append(
                (fields.get("id"), fields.get("event"), json.loads(fields["data"]))
            )
    return frames


#: Event fields that hold wall-clock readings, which differ run to run.
TIMING_FIELDS = ("elapsed", "remaining", "seconds")


def _masked(record):
    return {k: None if k in TIMING_FIELDS else v for k, v in record.items()}


class TestAsyncSink:
    def test_threaded_emits_arrive_in_order(self):
        async def main():
            sink = AsyncSink(asyncio.get_running_loop())

            def produce():
                for i in range(200):
                    sink.emit(PassStart(i, 0))
                sink.close()

            thread = threading.Thread(target=produce)
            thread.start()
            seen = []
            async for index, record in sink.subscribe():
                assert index == len(seen)
                seen.append(record["index"])
            thread.join()
            assert seen == list(range(200))

        asyncio.run(main())

    def test_capacity_bounds_the_log(self):
        sink = AsyncSink(capacity=5)
        for i in range(9):
            sink.emit(PassStart(i, 0))
        assert len(sink) == 5
        assert sink.dropped == 4

    def test_extend_is_bounded_and_keeps_the_producers_drops(self):
        """A worker's log arrives packed in one batch under the same
        bound, and the drops the worker counted carry over."""

        async def main():
            worker = AsyncSink(capacity=5)
            for i in range(8):
                worker.emit(PassStart(i, 0))
            packed, count, dropped = worker.pack()
            assert isinstance(packed, bytes)
            assert (count, dropped) == (5, 3)
            sink = AsyncSink(asyncio.get_running_loop(), capacity=5)
            sink.load_packed(packed, count, dropped)
            sink.close()
            assert (len(sink), sink.dropped) == (5, 3)
            got = [r["index"] async for _, r in sink.subscribe()]
            assert got == [0, 1, 2, 3, 4]
            got = [(i, r["index"]) async for i, r in sink.subscribe(start=3)]
            assert got == [(3, 3), (4, 4)]
            # A batch that arrives after close is dropped whole, like a
            # straggling emit.
            late = AsyncSink()
            late.close()
            late.load_packed(packed, count, dropped)
            assert (len(late), late.dropped) == (0, 8)

        asyncio.run(main())

    def test_emit_after_close_drops_instead_of_raising(self):
        # Contrast JsonlSink: the service tolerates lifecycle races
        # (a worker thread finishing an emit as the job is torn down).
        sink = AsyncSink()
        sink.close()
        sink.emit(PassStart(1, 0))
        assert sink.dropped == 1
        assert len(sink) == 0

    def test_late_subscriber_replays_the_full_stream(self):
        async def main():
            sink = AsyncSink(asyncio.get_running_loop())
            for i in range(3):
                sink.emit(PassStart(i, 0))
            sink.close()
            got = [r["index"] async for _, r in sink.subscribe()]
            assert got == [0, 1, 2]
            # And replay can start mid-stream.
            got = [r["index"] async for _, r in sink.subscribe(start=2)]
            assert got == [2]

        asyncio.run(main())


class TestAdmissionController:
    def test_run_queue_reject_ladder(self):
        async def main():
            ctl = AdmissionController(max_concurrent=2, max_queue_depth=1)
            assert ctl.reserve() is None
            assert ctl.reserve() is None
            assert ctl.running == 2
            waiter = ctl.reserve()
            assert waiter is not None and ctl.queued == 1
            with pytest.raises(AdmissionRejected) as excinfo:
                ctl.reserve()
            assert excinfo.value.running == 2
            assert excinfo.value.queued == 1
            assert excinfo.value.retry_after >= 0.5
            assert ctl.rejected == 1
            # Release hands the slot to the waiter, not the void.
            ctl.release(0.1)
            assert waiter.done()
            assert ctl.running == 2 and ctl.queued == 0

        asyncio.run(main())

    def test_release_updates_the_duration_estimate(self):
        async def main():
            ctl = AdmissionController(1, 0)
            assert ctl.reserve() is None
            before = ctl.avg_job_seconds
            ctl.release(10.0)
            assert ctl.avg_job_seconds > before
            assert ctl.running == 0

        asyncio.run(main())

    def test_abandon_removes_a_queued_waiter(self):
        async def main():
            ctl = AdmissionController(1, 2)
            ctl.reserve()
            waiter = ctl.reserve()
            ctl.abandon(waiter)
            assert ctl.queued == 0
            ctl.release()
            assert ctl.running == 0

        asyncio.run(main())


class _DummySession:
    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1


class TestSessionManager:
    def test_reserve_conflicts_are_refused(self):
        async def main():
            mgr = SessionManager(ttl_seconds=60.0)
            mgr.reserve("a")
            with pytest.raises(KeyError):
                mgr.reserve("a")

        asyncio.run(main())

    def test_evict_idle_skips_busy_and_unready_sessions(self):
        async def main():
            clock = {"now": 0.0}
            mgr = SessionManager(ttl_seconds=10.0, clock=lambda: clock["now"])
            idle = mgr.reserve("idle")
            idle_session = _DummySession()
            mgr.fulfill(idle, idle_session)
            busy = mgr.reserve("busy")
            busy_session = _DummySession()
            mgr.fulfill(busy, busy_session)
            mgr.reserve("creating")  # never fulfilled
            clock["now"] = 11.0
            async with busy.lock:
                evicted = mgr.evict_idle()
            assert [name for name, _ in evicted] == ["idle"]
            assert evicted[0][1] >= 10.0
            assert idle_session.closed == 1
            assert busy_session.closed == 0
            assert mgr.names() == ["busy", "creating"]
            # Once the lock is free the busy one goes too.
            evicted = mgr.evict_idle()
            assert [name for name, _ in evicted] == ["busy"]
            assert busy_session.closed == 1

        asyncio.run(main())

    def test_close_all_closes_every_session(self):
        async def main():
            mgr = SessionManager(ttl_seconds=None)
            sessions = []
            for name in ("a", "b"):
                managed = mgr.reserve(name)
                session = _DummySession()
                mgr.fulfill(managed, session)
                sessions.append(session)
            mgr.close_all()
            assert len(mgr) == 0
            assert [s.closed for s in sessions] == [1, 1]
            assert mgr.evict_idle() == []

        asyncio.run(main())


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_concurrent=0)
        with pytest.raises(ValueError):
            ServeConfig(max_queue_depth=-1)

    def test_budget_policy_clamps_to_the_server_ceiling(self):
        config = ServeConfig(
            default_deadline_seconds=30.0, max_deadline_seconds=100.0
        )
        assert config.budget_for(None).deadline_seconds == 30.0
        assert config.budget_for(5.0).deadline_seconds == 5.0
        assert config.budget_for(1e9).deadline_seconds == 100.0
        unlimited = ServeConfig(
            default_deadline_seconds=None, max_deadline_seconds=None
        )
        assert unlimited.budget_for(None).deadline_seconds is None


class TestHttpEndpoints:
    def _run(self, coro_fn, config=None):
        async def main():
            server = RoutingServer(config or ServeConfig(port=0))
            host, port = await server.start()
            try:
                await coro_fn(server, host, port)
            finally:
                await server.shutdown()

        asyncio.run(main())

    def test_route_job_and_job_lookup(self):
        board_text, conn_text, _, connections = _board_texts()

        async def scenario(server, host, port):
            status, payload = await _call(
                host, port, "POST", "/route",
                {"board": board_text, "connections": conn_text},
            )
            assert status == 200
            assert payload["state"] == "done"
            assert payload["result"]["complete"] is True
            assert payload["result"]["routed"] == len(connections)
            assert payload["events"] > 0
            job_id = payload["job"]
            status, again = await _call(host, port, "GET", f"/jobs/{job_id}")
            assert status == 200
            assert again["result"] == payload["result"]
            status, _ = await _call(host, port, "GET", "/jobs/nope")
            assert status == 404

        self._run(scenario)

    def test_sse_stream_matches_a_jsonl_trace(self):
        """A ``/route`` job's stream is the JsonlSink trace of the same
        route, record for record once wall-clock fields are masked: for
        a reader waiting before the worker's batch arrives, and from the
        start, the middle and past the end after the job ended."""
        board_text, conn_text, _, _ = _board_texts()
        # The reference: the identical route traced through JsonlSink.
        buf = io.StringIO()
        sink = JsonlSink(buf)
        route(
            request_from_text(
                board_text,
                conn_text,
                budget=RouteBudget(deadline_seconds=60.0),
                sink=sink,
            )
        )
        sink.close()
        expected = [
            _masked(json.loads(line)) for line in buf.getvalue().splitlines()
        ]
        body = {"board": board_text, "connections": conn_text}
        config = ServeConfig(port=0, max_concurrent=1, max_queue_depth=1)

        def check(frames, start, job_id):
            *records, end = frames
            assert [(int(i), name, _masked(r)) for i, name, r in records] == [
                (i, None, record) for i, record in enumerate(expected)
            ][start:]
            assert end == (
                None, "end", {"job": job_id, "state": "done", "error": None}
            )

        async def scenario(server, host, port):
            # Pin the only slot: the job waits in the queue, so its
            # stream is open before the worker has routed anything.
            assert server.admission.reserve() is None
            status, queued = await _call(
                host, port, "POST", "/route", {**body, "wait": False}
            )
            assert status == 202
            job_id = queued["job"]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET /jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
                .encode()
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            assert len(server.jobs.get(job_id).sink) == 0
            server.admission.release()
            waited = await reader.read()
            writer.close()
            await writer.wait_closed()
            check(_sse_frames(waited), 0, job_id)
            for start in (0, len(expected) // 2, len(expected) + 5):
                status, _, raw = await _raw(
                    host, port, "GET", f"/jobs/{job_id}/events?from={start}"
                )
                assert status == 200
                check(_sse_frames(raw), start, job_id)

        self._run(scenario, config)

    def test_admission_full_answers_429_with_retry_after(self):
        board_text, conn_text, _, _ = _board_texts()
        config = ServeConfig(port=0, max_concurrent=1, max_queue_depth=0)

        async def scenario(server, host, port):
            # Pin the only slot so the admission decision is
            # deterministic — no racing a real routing job.
            assert server.admission.reserve() is None
            status, headers, body = await _raw(
                host, port, "POST", "/route",
                {"board": board_text, "connections": conn_text},
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert "at capacity" in json.loads(body)["error"]
            server.admission.release()
            # Capacity back: the same request routes fine.
            status, payload = await _call(
                host, port, "POST", "/route",
                {"board": board_text, "connections": conn_text},
            )
            assert status == 200 and payload["state"] == "done"
            status, health = await _call(host, port, "GET", "/healthz")
            assert health["counters"]["serve_rejects"] == 1
            assert health["admission"]["rejected"] == 1

        self._run(scenario, config)

    def test_a_429_does_not_evict_a_fetchable_job(self, monkeypatch):
        """A rejected request names no job, so it takes no slot of the
        finished-job history; it still counts as accepted and rejected."""
        monkeypatch.setattr("repro.serve.jobs.MAX_JOBS_RETAINED", 3)
        board_text, conn_text, _, _ = _board_texts()
        body = {"board": board_text, "connections": conn_text}
        config = ServeConfig(port=0, max_concurrent=1, max_queue_depth=0)

        async def scenario(server, host, port):
            status, payload = await _call(host, port, "POST", "/route", body)
            assert status == 200
            job_id = payload["job"]
            assert server.admission.reserve() is None
            for _ in range(4):
                status, _ = await _call(host, port, "POST", "/route", body)
                assert status == 429
            server.admission.release()
            status, again = await _call(host, port, "GET", f"/jobs/{job_id}")
            assert status == 200, again
            assert again["result"] == payload["result"]
            status, health = await _call(host, port, "GET", "/healthz")
            assert health["counters"]["serve_accepts"] == 5
            assert health["counters"]["serve_rejects"] == 4
            assert health["jobs"]["done"] == 1
            assert health["jobs"]["failed"] == 0

        self._run(scenario, config)

    def test_warm_session_cut_and_reroute(self):
        board_text, conn_text, _, connections = _board_texts()

        async def scenario(server, host, port):
            begin = {
                "session": "warm",
                "board": board_text,
                "connections": conn_text,
            }
            status, payload = await _call(
                host, port, "POST", "/eco/begin", begin
            )
            assert status == 200
            assert payload["result"]["session"] == "warm"
            status, _ = await _call(host, port, "POST", "/eco/begin", begin)
            assert status == 409  # names are unique while alive
            victim = connections[0].net_id
            dropped = sum(1 for c in connections if c.net_id == victim)
            status, payload = await _call(
                host, port, "POST", "/eco/mutate",
                {
                    "session": "warm",
                    "ops": [{"op": "cut_nets", "nets": [victim]}],
                },
            )
            assert status == 200
            assert len(payload["applied"][0]["dropped"]) == dropped
            assert payload["applied"][0]["net_ids"] == [victim]
            status, payload = await _call(
                host, port, "POST", "/eco/reroute", {"session": "warm"}
            )
            assert status == 200
            result = payload["result"]
            assert result["complete"] is True
            assert result["total"] == len(connections) - dropped
            status, listing = await _call(host, port, "GET", "/sessions")
            assert [s["session"] for s in listing["sessions"]] == ["warm"]
            status, payload = await _call(
                host, port, "POST", "/eco/end", {"session": "warm"}
            )
            assert status == 200 and payload["closed"] is True
            status, _ = await _call(
                host, port, "POST", "/eco/reroute", {"session": "warm"}
            )
            assert status == 404

        self._run(scenario)

    def test_adopting_routes_skips_the_cold_route(self):
        board_text, conn_text, board, connections = _board_texts()
        response = route(request_from_text(board_text, conn_text))
        dump = io.StringIO()
        save_route_dump(response.result.workspace, dump)

        async def scenario(server, host, port):
            status, payload = await _call(
                host, port, "POST", "/eco/begin",
                {
                    "session": "adopted",
                    "board": board_text,
                    "connections": conn_text,
                    "routes": dump.getvalue(),
                },
            )
            assert status == 200
            assert payload["adopted"] == len(connections)
            # Nothing pending: the reroute is the no-edit fast path.
            status, payload = await _call(
                host, port, "POST", "/eco/reroute", {"session": "adopted"}
            )
            assert status == 200
            counters = payload["result"]["counters"]
            assert counters["eco_reused"] == len(connections)
            assert counters["eco_rerouted"] == 0

        self._run(scenario)

    def test_adopting_a_foreign_connection_list_is_rejected(self):
        board_text, conn_text, board, _ = _board_texts()
        bad_pin = len(board.pins)
        lines = conn_text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("conn "))
        fields = lines[i].split()
        fields[4] = str(bad_pin)
        lines[i] = " ".join(fields)

        async def scenario(server, host, port):
            status, payload = await _call(
                host, port, "POST", "/eco/begin",
                {
                    "session": "foreign",
                    "board": board_text,
                    "connections": "\n".join(lines) + "\n",
                    "routes": "",
                },
            )
            assert status == 422
            assert "board lacks" in payload["error"]
            status, listing = await _call(host, port, "GET", "/sessions")
            assert listing["sessions"] == []

        self._run(scenario)

    @pytest.mark.parametrize("fixture", ["mixed_smd", "charlie_th"])
    def test_adopting_a_kicad_dump_keeps_the_cold_route(self, fixture):
        """The dump is restored into the KiCad import's own workspace, so
        mixed_smd's dispersion traces stay and the session holds exactly
        the cold route (charlie_th, with no dispersed pads, is the
        control)."""
        text = _fixture_text(f"{fixture}.kicad_pcb")
        response = route(request_from_text(text, format="kicad"))
        dump = io.StringIO()
        save_route_dump(response.result.workspace, dump)

        async def scenario(server, host, port):
            status, payload = await _call(
                host, port, "POST", "/eco/begin",
                {"session": "k", "board": text, "format": "kicad",
                 "routes": dump.getvalue()},
            )
            assert status == 200, payload
            assert payload["adopted"] == response.result.routed_count
            workspace = server.sessions.get("k").session.workspace
            assert (
                workspace.state_digest()
                == response.result.workspace.state_digest()
            )

        self._run(scenario)

    def test_adopting_an_export_counts_its_embedded_routes(self):
        loaded = load_board_text(
            _fixture_text("mixed_smd.kicad_pcb"), format="kicad"
        )
        response = route(
            RouteRequest(
                board=loaded.board,
                connections=loaded.pending,
                workspace=loaded.workspace,
            )
        )
        exported = export_document(loaded.source, response.result.workspace)
        dump = io.StringIO()
        save_route_dump(response.result.workspace, dump)

        async def scenario(server, host, port):
            status, payload = await _call(
                host, port, "POST", "/eco/begin",
                {"session": "e", "board": exported, "format": "kicad",
                 "routes": ""},
            )
            assert status == 200, payload
            assert payload["adopted"] == payload["total"]
            assert payload["total"] == len(loaded.connections)
            # A dump repeating the document's routes is refused, as
            # grr kicad export refuses it.
            status, payload = await _call(
                host, port, "POST", "/eco/begin",
                {"session": "twice", "board": exported, "format": "kicad",
                 "routes": dump.getvalue()},
            )
            assert status == 400, payload
            assert payload["error"].startswith("RouteDumpError: ")
            assert "connection routed twice" in payload["error"]
            status, listing = await _call(host, port, "GET", "/sessions")
            assert [row["session"] for row in listing["sessions"]] == ["e"]

        self._run(scenario)

    def test_flags_are_json_booleans(self):
        """``wait`` and ``include_routes`` take true, false or null (the
        default); anything else, or a ``routes`` that is not text, answers
        400 before a job or a session exists."""
        board_text, conn_text, _, _ = _board_texts()
        body = {"board": board_text, "connections": conn_text}

        async def scenario(server, host, port):
            for path, extra in (
                ("/route", {"wait": "false"}),
                ("/route", {"include_routes": "no"}),
                ("/route", {"wait": 0}),
                ("/eco/begin", {"session": "s", "include_routes": "no"}),
                ("/eco/begin", {"session": "s", "routes": 5}),
                ("/eco/begin", {"session": "s", "routes": ["route 0"]}),
            ):
                status, payload = await _call(
                    host, port, "POST", path, {**body, **extra}
                )
                assert status == 400, (path, extra, payload)
            assert server.jobs.created == 0
            status, listing = await _call(host, port, "GET", "/sessions")
            assert listing["sessions"] == []
            status, payload = await _call(
                host, port, "POST", "/route",
                {**body, "wait": None, "include_routes": None},
            )
            assert status == 200 and "routes" not in payload["result"]
            status, payload = await _call(
                host, port, "POST", "/eco/begin",
                {**body, "session": "s", "routes": None,
                 "include_routes": True},
            )
            assert status == 200 and "routes" in payload["result"]
            for extra in ({"wait": "false"}, {"include_routes": 1}):
                status, payload = await _call(
                    host, port, "POST", "/eco/reroute",
                    {"session": "s", **extra},
                )
                assert status == 400, (extra, payload)
            status, payload = await _call(
                host, port, "POST", "/eco/reroute",
                {"session": "s", "wait": False},
            )
            assert status == 202

        self._run(scenario)

    def test_mutate_validation_and_unknown_paths(self):
        async def scenario(server, host, port):
            status, _ = await _call(
                host, port, "POST", "/eco/mutate",
                {"session": "ghost", "ops": [{"op": "cut_nets", "nets": []}]},
            )
            assert status == 404
            status, _ = await _call(host, port, "GET", "/definitely/not")
            assert status == 404
            status, _ = await _call(host, port, "POST", "/route", {})
            assert status == 400  # missing board/connections
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /route HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b"400" in data.split(b"\r\n", 1)[0]

        self._run(scenario)

    def test_malformed_texts_answer_400(self):
        board_text, conn_text, _, _ = _board_texts()

        async def scenario(server, host, port):
            for path, body in (
                ("/route", {"board": "garbage", "connections": conn_text}),
                ("/route", {"board": board_text, "connections": "conn x"}),
                (
                    "/eco/begin",
                    {"session": "bad", "board": "garbage",
                     "connections": conn_text},
                ),
                (
                    "/eco/begin",
                    {"session": "bad", "board": "garbage",
                     "connections": conn_text, "routes": ""},
                ),
                (
                    "/eco/begin",
                    {"session": "bad", "board": board_text,
                     "connections": conn_text, "routes": "route x\n"},
                ),
            ):
                status, payload = await _call(host, port, "POST", path, body)
                assert status == 400, (path, payload)
                assert "FormatError" in payload["error"] or (
                    "RouteDumpError" in payload["error"]
                )
            status, listing = await _call(host, port, "GET", "/sessions")
            assert listing["sessions"] == []

        self._run(scenario)

    def test_rejected_add_nets_answers_422_and_changes_nothing(self):
        """An ECL group with no free terminating resistor, or a group of
        fewer than two pins, is a rejected edit, not a server error, and
        leaves no half-made net behind."""
        board = Board.create(via_nx=12, via_ny=12, n_signal_layers=2)
        pins = [
            place_pin(board, ViaPoint(x, y), role).pin_id
            for x, y, role in (
                (2, 2, PinRole.OUTPUT), (9, 2, PinRole.INPUT),
                (2, 9, PinRole.OUTPUT), (9, 9, PinRole.INPUT),
            )
        ]
        board.add_net(pins[:2], family=LogicFamily.TTL)
        bbuf, cbuf = io.StringIO(), io.StringIO()
        write_board(board, bbuf)
        write_connections(Stringer(board).string_all(), cbuf)

        async def scenario(server, host, port):
            status, _ = await _call(
                host, port, "POST", "/eco/begin",
                {"session": "s", "board": bbuf.getvalue(),
                 "connections": cbuf.getvalue()},
            )
            assert status == 200
            status, payload = await _call(
                host, port, "POST", "/eco/mutate",
                {"session": "s",
                 "ops": [{"op": "add_nets", "pin_groups": [pins[2:]]}]},
            )
            assert status == 422, payload
            assert "no free terminating resistor" in payload["error"]
            for groups in ([pins[2:3]], [[]]):
                status, payload = await _call(
                    host, port, "POST", "/eco/mutate",
                    {"session": "s",
                     "ops": [{"op": "add_nets", "pin_groups": groups}]},
                )
                assert status == 422, payload
                assert "at least two pins" in payload["error"]
            # The pins are still free: a TTL net over them goes in.
            status, payload = await _call(
                host, port, "POST", "/eco/mutate",
                {"session": "s",
                 "ops": [{"op": "add_nets", "pin_groups": [pins[2:]],
                          "family": "TTL"}]},
            )
            assert status == 200, payload
            assert payload["pending"] == 1

        self._run(scenario)

    @pytest.mark.parametrize("field", [2, 4])  # net id, pin_b
    def test_route_naming_a_missing_net_or_pin_answers_422(self, field):
        board_text, conn_text, _, _ = _board_texts()
        lines = conn_text.splitlines()
        fields = lines[0].split()
        fields[field] = "99999"
        lines[0] = " ".join(fields)

        async def scenario(server, host, port):
            status, payload = await _call(
                host, port, "POST", "/route",
                {"board": board_text, "connections": "\n".join(lines)},
            )
            assert status == 422
            assert "board lacks" in payload["error"]

        self._run(scenario)

    def test_idle_sessions_are_evicted(self):
        board_text, conn_text, _, _ = _board_texts()
        config = ServeConfig(
            port=0, session_ttl_seconds=0.05, evict_interval_seconds=0.05
        )

        async def scenario(server, host, port):
            status, _ = await _call(
                host, port, "POST", "/eco/begin",
                {
                    "session": "fleeting",
                    "board": board_text,
                    "connections": conn_text,
                },
            )
            assert status == 200
            for _ in range(100):  # generous: evictor ticks every 50ms
                await asyncio.sleep(0.05)
                if not server.sessions.names():
                    break
            assert server.sessions.names() == []
            assert server.sessions.evicted == 1

        self._run(scenario, config)

    def test_healthz_counters_count_every_decision(self):
        """Admitted, queued, rejected and evicted jobs each show up once
        in ``/healthz``'s counters, which agree with its admission
        block."""
        board_text, conn_text, _, _ = _board_texts()
        config = ServeConfig(
            port=0,
            max_concurrent=1,
            max_queue_depth=1,
            session_ttl_seconds=0.5,
            evict_interval_seconds=0.05,
        )
        route_body = _route_body(board_text, conn_text, wait=False)

        async def scenario(server, host, port):
            status, _ = await _call(
                host, port, "POST", "/eco/begin",
                {"session": "s", "board": board_text,
                 "connections": conn_text},
            )
            assert status == 200
            # Hold the session so its reroute, once admitted, keeps the
            # only slot while the next two requests arrive.
            managed = server.sessions.get("s")
            await managed.lock.acquire()
            status, reroute = await _call(
                host, port, "POST", "/eco/reroute",
                {"session": "s", "wait": False},
            )
            assert status == 202
            status, queued = await _call(host, port, "POST", "/route", route_body)
            assert status == 202
            status, _ = await _call(host, port, "POST", "/route", route_body)
            assert status == 429
            status, health = await _call(host, port, "GET", "/healthz")
            assert (health["admission"]["running"],
                    health["admission"]["queued"]) == (1, 1)
            managed.lock.release()
            for job in (reroute, queued):
                for _ in range(600):
                    _, state = await _call(
                        host, port, "GET", f"/jobs/{job['job']}"
                    )
                    if state["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.05)
                assert state["state"] == "done", state
            for _ in range(100):
                if not server.sessions.names():
                    break
                await asyncio.sleep(0.05)
            status, health = await _call(host, port, "GET", "/healthz")
            counters, admission = health["counters"], health["admission"]
            assert counters == {
                "serve_accepts": 4,  # every POST above that made a job
                "serve_admits": 3,  # begin, reroute, the queued route
                "serve_rejects": 1,
                "serve_evicts": 1,
                "serve_worker_restarts": 0,
            }
            assert counters["serve_admits"] == admission["admitted"]
            assert counters["serve_rejects"] == admission["rejected"]

        self._run(scenario, config)


def _route_body(board_text, conn_text, **extra):
    return {"board": board_text, "connections": conn_text, **extra}


async def _reaped(pid, timeout=10.0):
    """Wait until ``pid`` is gone from the process table: a worker's
    executor reaps it only after marking itself broken."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"worker {pid} was never reaped")


class TestRouteWorkers:
    """``/route`` jobs run in spawned worker processes."""

    def _run(self, coro_fn, config=None):
        async def main():
            server = RoutingServer(config or ServeConfig(port=0))
            host, port = await server.start()
            try:
                await coro_fn(server, host, port)
            finally:
                await server.shutdown()

        asyncio.run(main())

    @pytest.mark.parametrize("name", ["tna", "coproc"])
    def test_every_worker_returns_the_in_process_routes(self, name):
        """Workers start under their own hash seeds; the routes they
        send back equal an in-process route's, on both workers."""
        board = make_titan_board(name, scale=0.30, seed=1)
        bbuf, cbuf = io.StringIO(), io.StringIO()
        write_board(board, bbuf)
        write_connections(Stringer(board).string_all(), cbuf)
        board_text, conn_text = bbuf.getvalue(), cbuf.getvalue()
        response = route(request_from_text(board_text, conn_text))
        expected = io.StringIO()
        save_route_dump(response.result.workspace, expected)
        body = _route_body(board_text, conn_text, include_routes=True)

        async def scenario(server, host, port):
            replies = await asyncio.gather(
                *(_call(host, port, "POST", "/route", body) for _ in range(2))
            )
            assert len(multiprocessing.active_children()) == 2
            for status, payload in replies:
                assert status == 200, payload
                assert payload["result"]["routes"] == expected.getvalue()

        self._run(scenario)

    def test_finished_jobs_keep_one_packed_log(self):
        """Each finished ``/route`` job keeps its event log as the one
        ``bytes`` object its worker sent, with no per-event dicts, also
        after a reader has decoded it."""
        board_text, conn_text, _, _ = _board_texts()
        body = _route_body(board_text, conn_text)

        async def scenario(server, host, port):
            replies = await asyncio.gather(
                *(_call(host, port, "POST", "/route", body) for _ in range(4))
            )
            for status, payload in replies:
                assert status == 200, payload
                job_id = payload["job"]
                status, _, raw = await _raw(
                    host, port, "GET", f"/jobs/{job_id}/events"
                )
                assert status == 200
                sink = server.jobs.get(job_id).sink
                assert isinstance(sink._packed, bytes)
                assert sink._events == []
                assert len(sink) == payload["events"] > 0
                assert len(_sse_frames(raw)) == payload["events"] + 1

        self._run(scenario)

    def test_a_worker_killed_while_idle_is_replaced(self):
        board_text, conn_text, _, _ = _board_texts()
        body = _route_body(board_text, conn_text)

        async def scenario(server, host, port):
            status, _ = await _call(host, port, "POST", "/route", body)
            assert status == 200
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGKILL)
            await _reaped(worker.pid)
            status, payload = await _call(host, port, "POST", "/route", body)
            assert status == 200, payload
            assert payload["state"] == "done"
            status, health = await _call(host, port, "GET", "/healthz")
            assert health["counters"]["serve_worker_restarts"] == 1

        self._run(scenario)

    def test_a_killed_worker_fails_only_its_own_job(self):
        """Two jobs in flight, one worker killed: its job answers 500,
        the other job and the next one route."""
        # A board slow enough that its job is still in flight when its
        # worker is killed.
        slow_board = make_titan_board("kdj11_2l", scale=0.30, seed=1)
        bbuf, cbuf = io.StringIO(), io.StringIO()
        write_board(slow_board, bbuf)
        write_connections(Stringer(slow_board).string_all(), cbuf)
        doomed = _route_body(bbuf.getvalue(), cbuf.getvalue())
        board_text, conn_text, _, _ = _board_texts()
        body = _route_body(board_text, conn_text)

        async def until_workers(count):
            for _ in range(1000):
                children = multiprocessing.active_children()
                if len(children) >= count:
                    return children
                await asyncio.sleep(0.01)
            raise AssertionError(f"never saw {count} worker processes")

        async def scenario(server, host, port):
            first = asyncio.ensure_future(
                _call(host, port, "POST", "/route", doomed)
            )
            (victim,) = await until_workers(1)
            second = asyncio.ensure_future(
                _call(host, port, "POST", "/route", body)
            )
            await until_workers(2)
            os.kill(victim.pid, signal.SIGKILL)
            status, payload = await first
            assert status == 500
            assert payload["error"].startswith("BrokenProcessPool: ")
            status, payload = await second
            assert status == 200 and payload["state"] == "done", payload
            status, payload = await _call(host, port, "POST", "/route", body)
            assert status == 200 and payload["state"] == "done", payload
            status, health = await _call(host, port, "GET", "/healthz")
            assert health["counters"]["serve_worker_restarts"] == 1

        self._run(scenario)


def _line_spans(text):
    """(start, end) offsets of each line, without its newline."""
    spans, start = [], 0
    for line in text.splitlines(keepends=True):
        spans.append((start, start + len(line.rstrip("\n"))))
        start += len(line)
    return spans


def _malformed_route_body(data, board, board_text, conn_text, kicad_text):
    """A /route body that is wrong in one drawn way; never a valid one."""
    conn_lines = conn_text.splitlines()
    conn_spans = _line_spans(conn_text)
    kind = data.draw(
        st.sampled_from(
            [
                "truncate_board",
                "truncate_connections",
                "garble",
                "bad_reference",
                "non_string",
                "bad_timeout",
                "truncate_kicad",
            ]
        )
    )
    if kind == "truncate_board":
        # Cut before the last net any connection names, so the board
        # either fails to parse or lacks that net.
        last = max(int(line.split()[2]) for line in conn_lines)
        net_starts = [
            start
            for (start, _), line in zip(
                _line_spans(board_text), board_text.splitlines()
            )
            if line.startswith("net ")
        ]
        cut = data.draw(st.integers(0, net_starts[last] - 1))
        return _route_body(board_text[:cut], conn_text)
    if kind == "truncate_connections":
        # Cut inside a record: a whole-line cut would be a valid list.
        start, end = data.draw(st.sampled_from(conn_spans))
        cut = data.draw(st.integers(start + 1, end - 1))
        return _route_body(board_text, conn_text[:cut])
    if kind == "garble":
        # A numeric field becomes letters.
        which = data.draw(st.sampled_from(["board", "connections"]))
        lines = (board_text if which == "board" else conn_text).splitlines()
        candidates = [
            (i, j)
            for i, line in enumerate(lines)
            for j, field in enumerate(line.split())
            if j > 0 and field.isdigit()
        ]
        i, j = data.draw(st.sampled_from(candidates))
        fields = lines[i].split()
        fields[j] = data.draw(
            st.text(string.ascii_letters + "@%&", min_size=1, max_size=6)
        )
        lines[i] = " ".join(fields)
        garbled = "\n".join(lines) + "\n"
        if which == "board":
            return _route_body(garbled, conn_text)
        return _route_body(board_text, garbled)
    if kind == "bad_reference":
        # A net (field 2) or pin (fields 3, 4) id the board lacks.
        i = data.draw(st.integers(0, len(conn_lines) - 1))
        field = data.draw(st.sampled_from([2, 3, 4]))
        limit = len(board.nets) if field == 2 else len(board.pins)
        value = data.draw(
            st.one_of(
                st.integers(-(10**6), -1), st.integers(limit, limit + 10**6)
            )
        )
        lines = list(conn_lines)
        fields = lines[i].split()
        fields[field] = str(value)
        lines[i] = " ".join(fields)
        return _route_body(board_text, "\n".join(lines) + "\n")
    if kind == "non_string":
        field = data.draw(st.sampled_from(["board", "connections", "format"]))
        value = data.draw(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False),
                st.lists(st.integers(), max_size=3),
                st.dictionaries(st.text(max_size=3), st.integers()),
            )
        )
        return {**_route_body(board_text, conn_text), field: value}
    if kind == "bad_timeout":
        value = data.draw(
            st.one_of(
                st.floats(max_value=-1e-9),
                st.just("NaN"),
                st.text(string.ascii_letters, min_size=1, max_size=4).filter(
                    lambda t: t.lower() not in ("inf", "nan", "infinity")
                ),
                st.lists(st.integers(), max_size=2),
            )
        )
        return _route_body(board_text, conn_text, timeout=value)
    # A .kicad_pcb cut before its closing parenthesis.
    cut = data.draw(st.integers(0, kicad_text.rindex(")") - 1))
    return {"board": kicad_text[:cut], "format": "kicad"}


class TestRouteFuzz:
    def test_malformed_route_bodies_answer_400_or_422(self):
        """Truncated, garbled or mistyped bodies are refused with 400 or
        422 in bounded time, never 500, and leave the workers usable."""
        board_text, conn_text, board, _ = _board_texts()
        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "charlie_th.kicad_pcb"
        )
        with open(fixture, encoding="utf-8") as stream:
            kicad_text = stream.read()
        with _serving() as port:

            @settings(max_examples=scaled(150), deadline=None)
            @given(data=st.data())
            def post_malformed(data):
                body = _malformed_route_body(
                    data, board, board_text, conn_text, kicad_text
                )
                status, payload = _post(port, "/route", body)
                assert status in (400, 422), payload

            post_malformed()
            status, payload = _post(
                port, "/route", _route_body(board_text, conn_text)
            )
            assert status == 200 and payload["state"] == "done", payload


class TestWarmPoolShutdown:
    def test_shutdown_leaves_no_orphaned_workers(self):
        """Shutdown joins the worker process a route started and the
        threads a warm session's begin and reroute started, and closes
        the session."""
        board_text, conn_text, _, _ = _board_texts()
        before = set(threading.enumerate())
        workers = []

        async def main():
            server = RoutingServer(ServeConfig(port=0))
            host, port = await server.start()
            try:
                status, _ = await _call(
                    host, port, "POST", "/route",
                    {"board": board_text, "connections": conn_text},
                )
                assert status == 200
                status, _ = await _call(
                    host, port, "POST", "/eco/begin",
                    {"session": "warm", "board": board_text,
                     "connections": conn_text},
                )
                assert status == 200
                status, _ = await _call(
                    host, port, "POST", "/eco/reroute", {"session": "warm"}
                )
                assert status == 200
                workers.extend(
                    t for t in threading.enumerate()
                    if t.name.startswith("grr-serve")
                )
                processes.extend(multiprocessing.active_children())
            finally:
                await server.shutdown()
            assert server.sessions.names() == []
            assert not any(t.is_alive() for t in workers)
            assert multiprocessing.active_children() == []

        processes = []
        asyncio.run(main())
        assert workers, "expected the ECO jobs to start a pool thread"
        assert processes, "expected the route to start a worker process"
        assert not any(p.is_alive() for p in processes)
        assert set(threading.enumerate()) <= before


def _src_env():
    """The environment with this checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    return env


def _start_grr_serve(**popen_kwargs):
    """``grr serve --port 0`` as a process, stdout piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=_src_env(),
        **popen_kwargs,
    )


#: ``grr serve`` whose banner sends SIGTERM to its own process as soon
#: as it is printed, the way a supervisor that reads it might.
SIGTERM_ON_BANNER = """
import builtins, os, signal, sys
from repro.cli import main

_print = builtins.print


def print_then_sigterm(*args, **kwargs):
    _print(*args, **kwargs)
    if args and "listening on" in str(args[0]):
        os.kill(os.getpid(), signal.SIGTERM)


builtins.print = print_then_sigterm
sys.exit(main(["serve", "--port", "0"]))
"""


def test_sigterm_on_the_banner_exits_cleanly():
    """The signal handlers are installed before the banner is printed,
    so a SIGTERM sent on reading it shuts the server down cleanly."""
    proc = subprocess.run(
        [sys.executable, "-c", SIGTERM_ON_BANNER],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "listening on http://" in proc.stdout
    assert "shutting down" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.slow
class TestShutdown:
    def test_sigterm_exits_cleanly(self):
        """``grr serve`` serves a route and a warm session, then SIGTERM
        closes it with exit code 0."""
        board_text, conn_text, _, connections = _board_texts()
        proc = _start_grr_serve()
        try:
            banner = proc.stdout.readline()
            assert "listening on http://" in banner
            port = int(banner.rsplit(":", 1)[1])

            async def requests():
                status, payload = await _call(
                    "127.0.0.1", port, "POST", "/route",
                    {"board": board_text, "connections": conn_text},
                )
                assert status == 200
                assert payload["result"]["routed"] == len(connections)
                status, _ = await _call(
                    "127.0.0.1", port, "POST", "/eco/begin",
                    {"session": "warm", "board": board_text,
                     "connections": conn_text},
                )
                assert status == 200

            asyncio.run(requests())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert "shutting down" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_ctrl_c_to_the_process_group_exits_cleanly(self):
        """A terminal Ctrl-C signals the server and its workers alike:
        the server shuts down, exits 0 and writes nothing to stderr."""
        board_text, conn_text, _, _ = _board_texts()
        proc = _start_grr_serve(
            stderr=subprocess.PIPE, start_new_session=True
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on http://" in banner
            port = int(banner.rsplit(":", 1)[1])
            status, payload = asyncio.run(
                _call(
                    "127.0.0.1", port, "POST", "/route",
                    _route_body(board_text, conn_text),
                )
            )
            assert status == 200, payload
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "shutting down" in stdout
            assert stderr == ""
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()


#: Framing ``read_request`` must refuse: a negative body length, and a
#: request or header line longer than the stream's 64 KiB line limit.
MALFORMED_FRAMING = {
    "negative_content_length": (
        b"POST /route HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n"
    ),
    "long_request_line": (
        b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\nHost: t\r\n\r\n"
    ),
    "long_header_line": (
        b"GET /healthz HTTP/1.1\r\nX-Filler: " + b"a" * (70 * 1024)
        + b"\r\n\r\n"
    ),
}


class TestHttpFraming:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMING))
    def test_malformed_framing_answers_400(self, case):
        """The client gets a JSON 400, not a dropped connection, and the
        server logs no traceback."""
        proc = _start_grr_serve(stderr=subprocess.PIPE)
        try:
            banner = proc.stdout.readline()
            assert "listening on http://" in banner
            port = int(banner.rsplit(":", 1)[1])
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30
            ) as sock:
                sock.sendall(MALFORMED_FRAMING[case])
                response = b""
                while chunk := sock.recv(65536):
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"
            assert json.loads(body)["status"] == 400
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert stderr == ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
