"""Observability: routing event stream + workspace invariant auditor.

Dion built grr by "careful analysis of the router output to find
inefficient routing patterns" (Section 12).  This package is that
analysis surface for the reproduction:

* :mod:`repro.obs.events` — typed events for everything the router does
  (passes, strategy attempts, Lee exhaustion, rip-up, putback, audits);
* :mod:`repro.obs.sinks` — pluggable event sinks (null / ring buffer /
  JSONL file) with a near-zero-cost disabled path;
* :mod:`repro.obs.audit` — :class:`WorkspaceAuditor`, which verifies the
  cross-structure invariants the routing engine depends on (via map vs.
  layer rescan, sole-owner cache freshness, records vs. installed
  segments, drilled-via ownership).

See ``docs/OBSERVABILITY.md`` for the event schema and invariants.
"""

from repro.obs.audit import (
    AuditReport,
    RestoreBlockedError,
    Violation,
    WorkspaceAuditError,
    WorkspaceAuditor,
)
from repro.obs.events import (
    AuditRun,
    BudgetCheckpoint,
    BudgetExhausted,
    CacheStats,
    ConnectionFailed,
    ConnectionRouted,
    EcoBegin,
    EcoInvalidate,
    EcoReroute,
    ImproveAttempt,
    LeeExhausted,
    PassEnd,
    PassStart,
    PutbackResult,
    RipUpVictims,
    RouteEvent,
    SearchCapHit,
    ServeAccept,
    ServeAdmit,
    ServeEvict,
    ServeReject,
    StrategyAttempt,
)
from repro.obs.sinks import (
    NULL_SINK,
    EventSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
)

__all__ = [
    "AuditReport",
    "AuditRun",
    "BudgetCheckpoint",
    "BudgetExhausted",
    "CacheStats",
    "ConnectionFailed",
    "ConnectionRouted",
    "EcoBegin",
    "EcoInvalidate",
    "EcoReroute",
    "EventSink",
    "ImproveAttempt",
    "JsonlSink",
    "LeeExhausted",
    "NULL_SINK",
    "NullSink",
    "PassEnd",
    "PassStart",
    "PutbackResult",
    "RestoreBlockedError",
    "RingBufferSink",
    "RipUpVictims",
    "RouteEvent",
    "SearchCapHit",
    "ServeAccept",
    "ServeAdmit",
    "ServeEvict",
    "ServeReject",
    "StrategyAttempt",
    "Violation",
    "WorkspaceAuditError",
    "WorkspaceAuditor",
]
