"""The routing service: HTTP endpoints over warm sessions and jobs.

Endpoint surface (see ``docs/API.md`` → "Serving"):

=======================  ==============================================
``POST /route``          admission-controlled cold route of one board
``POST /eco/begin``      cold-route (or adopt) a board into a named
                         warm session
``POST /eco/mutate``     apply ECO ops (move/cut/add) to a session
``POST /eco/reroute``    admission-controlled incremental reroute
``POST /eco/end``        close a session (also ``DELETE /sessions/{n}``)
``GET /sessions``        list warm sessions
``GET /jobs/{id}``       job state + result payload
``GET /jobs/{id}/events``  the job's routing event stream as SSE
``GET /healthz``         capacity, counters, process bookkeeping
=======================  ==============================================

Concurrency model: the event loop owns all bookkeeping (jobs, sessions,
admission).  A cold ``/route`` job shares nothing with other jobs, so it
runs in a worker process (:func:`_route_job`) and two jobs never share
an interpreter lock.  There is one single-process executor per
admission slot (``max_concurrent``), each started on the first
``/route`` that needs it, so an admitted ``/route`` job always finds an
idle worker, and a worker that dies fails only the job it was running.
Warm ECO jobs mutate workspaces that live in the server process, so
they run in a thread pool of the same size.  Each job gets an
:class:`AsyncSink` feeding SSE subscribers: ECO jobs stream live, a
``/route`` job's events arrive in one packed batch when it ends, kept
packed and decoded only for a subscriber.

The server starts without the routing stack: a worker imports it for
its first ``/route`` job, and the server process imports it for the
first ECO request, which pays that import.
"""

from __future__ import annotations

import asyncio
import io
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.io.registry import InputError, UnknownReferenceError
from repro.obs.events import ServeAccept, ServeAdmit, ServeEvict, ServeReject
from repro.obs.sinks import NULL_SINK, EventSink
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.config import ServeConfig
from repro.serve.http import (
    HttpError,
    Request,
    error_payload,
    read_request,
    retry_after_header,
    send_json,
    send_sse,
    start_sse,
)
from repro.serve.jobs import Job, JobRegistry
from repro.serve.sessions import ManagedSession, SessionManager
from repro.serve.sink import AsyncSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.budget import RouteBudget


def _input_status(exc: InputError) -> int:
    """400 for unreadable input text, 422 for a connection naming a net
    or pin its board lacks."""
    return 422 if isinstance(exc, UnknownReferenceError) else 400


def _require_str(body: Dict[str, object], field: str) -> str:
    value = body.get(field)
    if not isinstance(value, str) or not value:
        raise HttpError(400, f"missing or non-string field {field!r}")
    return value


def _flag(body: Dict[str, object], field: str, default: bool) -> bool:
    """A JSON boolean field: absent or null gives ``default``."""
    value = body.get(field)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise HttpError(400, f"{field} must be true or false")
    return value


def _board_format(body: Dict[str, object]) -> str:
    """The wire board format: native text unless the request says kicad."""
    value = body.get("format", "native")
    if not isinstance(value, str) or value not in ("native", "kicad"):
        raise HttpError(400, "format must be 'native' or 'kicad'")
    return value


def _connections_text(body: Dict[str, object], board_format: str):
    """Connections text: required for native boards, absent for kicad."""
    if board_format == "kicad":
        if body.get("connections"):
            raise HttpError(
                400, "kicad boards embed their netlist; omit 'connections'"
            )
        return None
    return _require_str(body, "connections")


def _optional_timeout(body: Dict[str, object]) -> Optional[float]:
    value = body.get("timeout")
    if value is None:
        return None
    try:
        timeout = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise HttpError(400, "timeout must be a number")
    # NaN fails every comparison, so it would slip past the ceiling clamp.
    if not timeout >= 0.0:
        raise HttpError(400, "timeout must be a non-negative number")
    return timeout


def _route_payload(response, workspace, include_routes: bool) -> Dict:
    result = response.result
    payload: Dict[str, object] = {
        "total": result.total_count,
        "routed": result.routed_count,
        "failed": len(result.failed),
        "complete": result.complete,
        "stopped_reason": response.stopped_reason,
        "elapsed_seconds": round(response.elapsed_seconds, 6),
        "counters": dict(response.counters),
    }
    if include_routes:
        from repro.io import save_route_dump

        buffer = io.StringIO()
        save_route_dump(workspace, buffer)
        payload["routes"] = buffer.getvalue()
    return payload


def _route_job(
    board_text: str,
    connections_text: Optional[str],
    board_format: str,
    budget: RouteBudget,
    include_routes: bool,
) -> Tuple[Dict, bytes, int, int]:
    """One ``/route`` job, run in a worker process.

    Returns the response payload and the job's event log packed by
    :meth:`AsyncSink.pack`: one pickle of its records, the record count
    and how many events were dropped past the sink's capacity.  An
    exception goes back to the server pickled, which every ``repro``
    exception survives.
    """
    from repro.api import request_from_text, route as api_route

    sink = AsyncSink()
    request = request_from_text(
        board_text,
        connections_text,
        format=board_format,
        budget=budget,
        sink=sink,
    )
    response = api_route(request)
    payload = _route_payload(
        response, response.result.workspace, include_routes
    )
    packed, count, dropped = sink.pack()
    return payload, packed, count, dropped


def _start_worker() -> "ProcessPoolExecutor":
    """A one-process executor for ``/route`` jobs.

    Imported here so that the process machinery stays out of server
    start-up; the worker itself starts on the first job submitted.
    """
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=1,
        # Never fork: the server already runs threads and holds a
        # listening socket.
        mp_context=multiprocessing.get_context("spawn"),
        # A terminal Ctrl-C signals the whole process group; the server
        # shuts its workers down itself.
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )


def _parse_ops(ops: List[object]) -> List:
    """Validate every mutation op before any is applied; returns one
    ``session -> EcoStats`` callable per op."""
    # Only a ready session's ops get here, and creating it loaded these.
    from repro.board.technology import LogicFamily
    from repro.grid.coords import ViaPoint

    def parse(op):
        if not isinstance(op, dict):
            raise HttpError(400, "each op must be an object")
        kind = op.get("op")
        if kind == "move_part":
            try:
                part_id = int(op["part"])
                to = op["to"]
                origin = ViaPoint(int(to[0]), int(to[1]))
            except (KeyError, TypeError, ValueError, IndexError, OverflowError):
                raise HttpError(
                    400, 'move_part needs {"part": id, "to": [vx, vy]}'
                )
            return lambda session: session.move_part(part_id, origin)
        if kind == "cut_nets":
            try:
                nets = [int(n) for n in op["nets"]]
            except (KeyError, TypeError, ValueError, OverflowError):
                raise HttpError(400, 'cut_nets needs {"nets": [id, ...]}')
            return lambda session: session.cut_nets(nets)
        if kind == "add_nets":
            try:
                groups = [
                    [int(p) for p in group] for group in op["pin_groups"]
                ]
                family = LogicFamily[str(op.get("family", "ECL")).upper()]
            except (KeyError, TypeError, ValueError, OverflowError):
                raise HttpError(
                    400, 'add_nets needs {"pin_groups": [[pin, ...], ...]}'
                )
            return lambda session: session.add_nets(groups, family=family)
        raise HttpError(400, f"unknown op {kind!r}")

    return [parse(op) for op in ops]


class RoutingServer:
    """The long-lived routing service (one instance per process)."""

    def __init__(
        self, config: ServeConfig, sink: Optional[EventSink] = None
    ) -> None:
        self.config = config
        #: Server-level event stream (``serve_*`` events — an access
        #: log when pointed at a JsonlSink).  Per-job routing events go
        #: to each job's AsyncSink instead.
        self.sink = sink if sink is not None else NULL_SINK
        self.jobs = JobRegistry()
        self.sessions = SessionManager(config.session_ttl_seconds)
        self.admission = AdmissionController(
            config.max_concurrent, config.max_queue_depth
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_concurrent,
            thread_name_prefix="grr-serve",
        )
        #: Idle ``/route`` executors, one per admission slot; None until
        #: a slot's first job starts one (see :meth:`_route_in_worker`).
        self._idle_workers: List[Optional["ProcessPoolExecutor"]] = [
            None
        ] * config.max_concurrent
        #: ``/route`` executors replaced after their worker process died.
        self.worker_restarts = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._evictor: Optional[asyncio.Task] = None
        self._tasks: Set[asyncio.Task] = set()
        self._started_at = time.time()
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._started_at = time.time()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        if self.config.session_ttl_seconds is not None:
            self._evictor = asyncio.create_task(self._evict_loop())
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def shutdown(self) -> None:
        """Graceful stop: finish running jobs, close every session."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._evictor is not None:
            self._evictor.cancel()
            try:
                await self._evictor
            except asyncio.CancelledError:
                pass
            self._evictor = None
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self.sessions.close_all()
        self._executor.shutdown(wait=True)
        for pool in self._idle_workers:
            if pool is not None:
                pool.shutdown(wait=True)
        self._idle_workers = [None] * len(self._idle_workers)

    async def _evict_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.evict_interval_seconds)
            for name, idle in self.sessions.evict_idle():
                if self.sink.enabled:
                    self.sink.emit(ServeEvict(name, round(idle, 3)))

    # ------------------------------------------------------------------
    # job machinery
    # ------------------------------------------------------------------

    def _accept(
        self, endpoint: str, kind: str, session: str = ""
    ) -> Tuple[Job, Optional[asyncio.Future]]:
        """Create a job and make the admission decision, 429 on full."""
        sink = AsyncSink(self._loop)
        job = self.jobs.create(kind, sink, session=session)
        if self.sink.enabled:
            self.sink.emit(ServeAccept(endpoint, job.job_id, session))
        try:
            grant = self.admission.reserve()
        except AdmissionRejected as exc:
            if self.sink.enabled:
                self.sink.emit(
                    ServeReject(
                        endpoint,
                        exc.running,
                        exc.queued,
                        round(exc.retry_after, 3),
                    )
                )
            # The 429 names no job, so nobody could fetch this one: it
            # takes no slot of the finished-job history.
            self.jobs.discard(job)
            raise HttpError(
                429, str(exc), headers=retry_after_header(exc.retry_after)
            )
        return job, grant

    async def _execute_job(
        self,
        job: Job,
        grant: Optional[asyncio.Future],
        run,
        managed: Optional[ManagedSession] = None,
    ) -> None:
        """Run one admitted (or queued) job to completion; ``run()``
        returns an awaitable of the job's result payload."""
        loop = self._loop
        try:
            if grant is not None:
                job.state = "queued"
                waited_from = loop.time()
                try:
                    await grant
                except asyncio.CancelledError:
                    self.admission.abandon(grant)
                    job.state = "failed"
                    job.error = "cancelled while queued"
                    return
                job.queued_seconds = loop.time() - waited_from
            job.state = "running"
            job.started = time.time()
            if self.sink.enabled:
                self.sink.emit(
                    ServeAdmit(
                        job.job_id,
                        round(job.queued_seconds, 6),
                        self.admission.running,
                    )
                )
            ran_from = loop.time()
            try:
                if managed is not None:
                    async with managed.lock:
                        job.result = await run()
                        self.sessions.touch(managed)
                else:
                    job.result = await run()
                job.state = "done"
                job.status = 200
            except InputError as exc:  # the request's input, not routing
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = _input_status(exc)
            except Exception as exc:  # job failure is a job outcome
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            finally:
                self.admission.release(loop.time() - ran_from)
        finally:
            job.finished = time.time()
            job.sink.close()
            self.jobs.finish(job)

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _route_in_worker(self, sink: AsyncSink, args: Tuple) -> Dict:
        """Run one ``/route`` job in an idle worker and hand its packed
        event log to ``sink``.

        Admission never runs more jobs than there are slots, so an idle
        executor is always there to pop.  A worker that died broke only
        its own executor: that executor is replaced and counted, and
        only the job it was running fails.
        """
        pool = self._idle_workers.pop()
        try:
            if pool is not None:
                try:
                    future = pool.submit(_route_job, *args)
                except BrokenExecutor:  # the worker died while idle
                    self._discard_worker(pool)
                    pool = None
            if pool is None:
                pool = _start_worker()
                future = pool.submit(_route_job, *args)
            try:
                payload, packed, count, dropped = await asyncio.wrap_future(
                    future
                )
            except BrokenExecutor:  # the worker died running this job
                self._discard_worker(pool)
                pool = None
                raise
        finally:
            self._idle_workers.append(pool)
        sink.load_packed(packed, count, dropped)
        return payload

    def _discard_worker(self, pool: "ProcessPoolExecutor") -> None:
        pool.shutdown(wait=False)
        self.worker_restarts += 1

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    async def _handle_route(self, request: Request, writer) -> None:
        body = request.json()
        board_text = _require_str(body, "board")
        board_format = _board_format(body)
        connections_text = _connections_text(body, board_format)
        include_routes = _flag(body, "include_routes", False)
        wait = _flag(body, "wait", True)
        budget = self.config.budget_for(_optional_timeout(body))
        job, grant = self._accept("/route", "route")
        args = (
            board_text,
            connections_text,
            board_format,
            budget,
            include_routes,
        )
        task = self._spawn(
            self._execute_job(
                job, grant, lambda: self._route_in_worker(job.sink, args)
            )
        )
        if wait:
            await asyncio.shield(task)
            await send_json(writer, job.status, job.to_dict())
        else:
            await send_json(writer, 202, job.to_dict(include_result=False))

    async def _handle_eco_begin(self, request: Request, writer) -> None:
        body = request.json()
        name = _require_str(body, "session")
        board_text = _require_str(body, "board")
        board_format = _board_format(body)
        connections_text = _connections_text(body, board_format)
        routes_text = body.get("routes")
        if routes_text is not None and not isinstance(routes_text, str):
            raise HttpError(400, "routes must be route dump text")
        include_routes = _flag(body, "include_routes", False)
        budget = self.config.budget_for(_optional_timeout(body))
        try:
            managed = self.sessions.reserve(name)
        except KeyError:
            raise HttpError(409, f"session {name!r} already exists")

        if routes_text is not None:
            # Adoption: the routed state ships with the request; no
            # routing happens, so no admission slot is needed.
            def adopt() -> Dict:
                from repro.eco import EcoSession
                from repro.io import load_board_text

                loaded = load_board_text(
                    board_text,
                    connections_text,
                    routes_text,
                    format=board_format,
                )
                session = EcoSession(
                    loaded.board,
                    loaded.connections,
                    workspace=loaded.workspace,
                )
                self.sessions.fulfill(managed, session)
                return {
                    "session": name,
                    "adopted": len(loaded.restored),
                    "total": len(loaded.connections),
                }

            try:
                payload = await self._loop.run_in_executor(None, adopt)
            except InputError as exc:
                self.sessions.abort(managed)
                raise HttpError(
                    _input_status(exc), f"{type(exc).__name__}: {exc}"
                )
            except Exception:
                self.sessions.abort(managed)
                raise
            await send_json(writer, 200, payload)
            return

        job, grant = None, None
        try:
            job, grant = self._accept("/eco/begin", "eco-begin", session=name)
        except HttpError:
            self.sessions.abort(managed)
            raise
        sink = job.sink

        def work() -> Dict:
            from repro.api import begin_eco, request_from_text
            from repro.api import route as api_route

            req = request_from_text(
                board_text,
                connections_text,
                format=board_format,
                budget=budget,
                sink=sink,
            )
            response = api_route(req)
            session = begin_eco(req, response)
            self.sessions.fulfill(managed, session)
            payload = _route_payload(
                response, session.workspace, include_routes
            )
            payload["session"] = name
            return payload

        task = self._spawn(
            self._execute_job(
                job,
                grant,
                lambda: self._loop.run_in_executor(self._executor, work),
            )
        )
        await asyncio.shield(task)
        if job.state != "done":
            self.sessions.abort(managed)
            await send_json(writer, job.status, job.to_dict())
            return
        await send_json(writer, 200, job.to_dict())

    def _session_or_404(self, name: str) -> ManagedSession:
        managed = self.sessions.get(name)
        if managed is None:
            raise HttpError(404, f"no session {name!r}")
        if not managed.ready:
            raise HttpError(409, f"session {name!r} is still being created")
        return managed

    async def _handle_eco_mutate(self, request: Request, writer) -> None:
        body = request.json()
        name = _require_str(body, "session")
        ops = body.get("ops")
        if not isinstance(ops, list) or not ops:
            raise HttpError(400, "ops must be a non-empty list")
        managed = self._session_or_404(name)
        # The session's /eco/begin imported the ECO stack already.
        from repro.eco import EcoError

        parsed = _parse_ops(ops)

        def work() -> List[Dict]:
            session = managed.session
            out: List[Dict] = []
            for apply_op in parsed:
                stats = apply_op(session)
                out.append(
                    {
                        "op": stats.op,
                        "invalidated": list(stats.invalidated),
                        "ripped": list(stats.ripped),
                        "cascades": list(stats.cascades),
                        "dropped": list(stats.dropped),
                        "added": list(stats.added),
                        "net_ids": list(stats.net_ids),
                    }
                )
            return out

        async with managed.lock:
            try:
                applied = await self._loop.run_in_executor(None, work)
            except EcoError as exc:
                raise HttpError(422, f"ECO rejected: {exc}")
            finally:
                self.sessions.touch(managed)
        await send_json(
            writer,
            200,
            {
                "session": name,
                "applied": applied,
                "pending": len(managed.session.pending),
            },
        )

    async def _handle_eco_reroute(self, request: Request, writer) -> None:
        body = request.json()
        name = _require_str(body, "session")
        include_routes = _flag(body, "include_routes", False)
        wait = _flag(body, "wait", True)
        budget = self.config.budget_for(_optional_timeout(body))
        managed = self._session_or_404(name)
        job, grant = self._accept("/eco/reroute", "eco", session=name)
        sink = job.sink

        def work() -> Dict:
            session = managed.session
            previous_sink = session.sink
            session.sink = sink
            try:
                response = session.reroute(budget=budget)
            finally:
                session.sink = previous_sink
            payload = _route_payload(
                response, session.workspace, include_routes
            )
            payload["session"] = name
            return payload

        task = self._spawn(
            self._execute_job(
                job,
                grant,
                lambda: self._loop.run_in_executor(self._executor, work),
                managed=managed,
            )
        )
        if wait:
            await asyncio.shield(task)
            await send_json(writer, job.status, job.to_dict())
        else:
            await send_json(writer, 202, job.to_dict(include_result=False))

    async def _handle_eco_end(self, name: str, writer) -> None:
        managed = self.sessions.get(name)
        if managed is None:
            raise HttpError(404, f"no session {name!r}")
        async with managed.lock:
            closed = self.sessions.close(name)
        await send_json(writer, 200, {"session": name, "closed": closed})

    async def _handle_sessions(self, writer) -> None:
        rows = []
        for name in self.sessions.names():
            managed = self.sessions.get(name)
            if managed is None:
                continue
            row: Dict[str, object] = {
                "session": name,
                "ready": managed.ready,
                "idle_seconds": round(self.sessions.idle_seconds(managed), 3),
                "busy": managed.lock.locked(),
            }
            if managed.ready:
                row["connections"] = len(managed.session.connections)
                row["pending"] = len(managed.session.pending)
            rows.append(row)
        await send_json(writer, 200, {"sessions": rows})

    async def _handle_job(self, job_id: str, writer) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no job {job_id!r}")
        await send_json(writer, 200, job.to_dict())

    async def _handle_job_events(
        self, job_id: str, request: Request, writer
    ) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no job {job_id!r}")
        try:
            start = int(request.query.get("from", "0"))
        except ValueError:
            raise HttpError(400, "from must be an integer")
        await start_sse(writer)
        async for index, record in job.sink.subscribe(start=start):
            await send_sse(writer, record, event_id=index)
        await send_sse(
            writer,
            {"job": job.job_id, "state": job.state, "error": job.error},
            event="end",
        )

    async def _handle_healthz(self, writer) -> None:
        await send_json(
            writer,
            200,
            {
                "ok": True,
                "uptime_seconds": round(time.time() - self._started_at, 3),
                "admission": {
                    "running": self.admission.running,
                    "queued": self.admission.queued,
                    "max_concurrent": self.admission.max_concurrent,
                    "max_queue_depth": self.admission.max_queue_depth,
                    "admitted": self.admission.admitted,
                    "rejected": self.admission.rejected,
                    "avg_job_seconds": round(
                        self.admission.avg_job_seconds, 4
                    ),
                },
                "jobs": self.jobs.counts(),
                "sessions": self.sessions.names(),
                "counters": {
                    "serve_accepts": self.jobs.created,
                    "serve_admits": self.admission.admitted,
                    "serve_rejects": self.admission.rejected,
                    "serve_evicts": self.sessions.evicted,
                    "serve_worker_restarts": self.worker_restarts,
                },
            },
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _dispatch(self, request: Request, writer) -> None:
        method, path = request.method, request.path
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            await self._handle_healthz(writer)
        elif path == "/route" and method == "POST":
            await self._handle_route(request, writer)
        elif path == "/eco/begin" and method == "POST":
            await self._handle_eco_begin(request, writer)
        elif path == "/eco/mutate" and method == "POST":
            await self._handle_eco_mutate(request, writer)
        elif path == "/eco/reroute" and method == "POST":
            await self._handle_eco_reroute(request, writer)
        elif path == "/eco/end" and method == "POST":
            body = request.json()
            await self._handle_eco_end(_require_str(body, "session"), writer)
        elif path == "/sessions" and method == "GET":
            await self._handle_sessions(writer)
        elif len(parts) == 2 and parts[0] == "sessions" and method == "DELETE":
            await self._handle_eco_end(parts[1], writer)
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            await self._handle_job(parts[1], writer)
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "events"
            and method == "GET"
        ):
            await self._handle_job_events(parts[1], request, writer)
        else:
            raise HttpError(404, f"no route for {method} {path}")

    async def _handle_client(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(
                    reader, self.config.max_body_bytes
                )
            except HttpError as exc:
                status, payload, headers = error_payload(exc)
                await send_json(writer, status, payload, headers)
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if request is None:
                return
            try:
                await self._dispatch(request, writer)
            except HttpError as exc:
                status, payload, headers = error_payload(exc)
                await send_json(writer, status, payload, headers)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # client went away mid-response
            except Exception as exc:  # never kill the accept loop
                try:
                    await send_json(
                        writer,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                except (ConnectionError, RuntimeError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass


def run_server(config: ServeConfig, sink: Optional[EventSink] = None) -> int:
    """Blocking entry point for ``grr serve``: serve until SIGINT/SIGTERM."""
    import signal

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Before the banner: a supervisor may signal as soon as it reads it.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # non-Unix event loops
                pass
        server = RoutingServer(config, sink=sink)
        host, port = await server.start()
        print(f"grr serve: listening on http://{host}:{port}", flush=True)
        await stop.wait()
        print("grr serve: shutting down", flush=True)
        await server.shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0
