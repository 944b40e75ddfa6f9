"""Routing-as-a-service: a long-lived asyncio server with warm state.

The batch facade (:mod:`repro.api`) is one request in, one response
out, and every call pays cold-start: load, stringing, workspace build
and a full route.  A service sees the opposite traffic shape — mostly
*edits* against boards it has already routed — so this package keeps
the expensive state alive between HTTP calls:

* :class:`SessionManager` holds named warm :class:`~repro.eco.EcoSession`
  objects (routed workspaces) with idle-TTL eviction;
* :class:`AdmissionController` bounds concurrent routing jobs — a full
  queue answers 429 + Retry-After instead of queueing without bound —
  and the server derives each job's :class:`~repro.core.budget.
  RouteBudget` from a server-level deadline policy;
* :class:`AsyncSink` bridges the synchronous routing event stream into
  asyncio consumers, so ``GET /jobs/{id}/events`` streams the same
  events ``JsonlSink`` would log, as Server-Sent Events.

Cold ``/route`` jobs run in worker processes, one per admission slot;
warm ECO jobs run on server threads beside their sessions (see
:mod:`repro.serve.server`).

Everything is stdlib (``asyncio`` + a thin hand-rolled HTTP/1.1 front);
there are no new dependencies.  ``grr serve`` is the CLI entry point;
see ``docs/API.md`` ("Serving") for the endpoint reference.
"""

from repro import lazy_exports

_EXPORTS = {
    "AdmissionController": "repro.serve.admission",
    "AdmissionRejected": "repro.serve.admission",
    "AsyncSink": "repro.serve.sink",
    "Job": "repro.serve.jobs",
    "JobRegistry": "repro.serve.jobs",
    "RoutingServer": "repro.serve.server",
    "ServeConfig": "repro.serve.config",
    "SessionManager": "repro.serve.sessions",
    "run_server": "repro.serve.server",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
