"""The routing service: sinks, admission, sessions, HTTP endpoints.

Unit layers (AsyncSink, AdmissionController, SessionManager, config)
are tested with fake clocks and dummy sessions; the endpoint tests run
a real :class:`RoutingServer` on an ephemeral port and speak HTTP/1.1
over asyncio streams.  Shutdown is tested in process (the routing
thread pool is joined) and, slow-marked, by running ``grr serve`` as a
process and stopping it with SIGTERM.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.api import request_from_text, route
from repro.core.budget import RouteBudget
from repro.io import save_route_dump, write_board, write_connections
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
from repro.stringer import Stringer
from repro.workloads import make_titan_board


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


def _sse_kinds(body_bytes):
    """Event kinds from an SSE body, excluding the terminal frame."""
    kinds = []
    for line in body_bytes.decode().splitlines():
        if line.startswith("data: "):
            kinds.append(json.loads(line[6:]).get("event"))
    return [k for k in kinds if k is not None]


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
            json.loads(line)["event"] for line in buf.getvalue().splitlines()
        ]

        async def scenario(server, host, port):
            status, payload = await _call(
                host, port, "POST", "/route",
                {"board": board_text, "connections": conn_text},
            )
            assert status == 200
            job_id = payload["job"]
            status, _, body = await _raw(
                host, port, "GET", f"/jobs/{job_id}/events"
            )
            assert status == 200
            assert _sse_kinds(body) == expected

        self._run(scenario)

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
            assert server.profile.counters["serve_evicts"] == 1

        self._run(scenario, config)


class TestWarmPoolShutdown:
    def test_shutdown_leaves_no_orphaned_workers(self):
        """Shutdown joins the routing threads that a route and a warm
        session's reroute started, and closes the session."""
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
            finally:
                await server.shutdown()
            assert server.sessions.names() == []
            assert not any(t.is_alive() for t in workers)

        asyncio.run(main())
        assert workers, "expected the route to start a pool thread"
        assert set(threading.enumerate()) <= before


@pytest.mark.slow
class TestShutdown:
    def test_sigterm_exits_cleanly(self):
        """``grr serve`` serves a route and a warm session, then SIGTERM
        closes it with exit code 0."""
        board_text, conn_text, _, connections = _board_texts()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
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
