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

Everything is stdlib (``asyncio`` + a thin hand-rolled HTTP/1.1 front);
there are no new dependencies.  ``grr serve`` is the CLI entry point;
see ``docs/API.md`` ("Serving") for the endpoint reference.
"""

from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.config import ServeConfig
from repro.serve.jobs import Job, JobRegistry
from repro.serve.server import RoutingServer, run_server
from repro.serve.sessions import SessionManager
from repro.serve.sink import AsyncSink

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AsyncSink",
    "Job",
    "JobRegistry",
    "RoutingServer",
    "ServeConfig",
    "SessionManager",
    "run_server",
]
