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

from repro import lazy_exports

_EXPORTS = {
    "AuditReport": "repro.obs.audit",
    "AuditRun": "repro.obs.events",
    "BudgetCheckpoint": "repro.obs.events",
    "BudgetExhausted": "repro.obs.events",
    "CacheStats": "repro.obs.events",
    "ConnectionFailed": "repro.obs.events",
    "ConnectionRouted": "repro.obs.events",
    "EcoBegin": "repro.obs.events",
    "EcoInvalidate": "repro.obs.events",
    "EcoReroute": "repro.obs.events",
    "EventSink": "repro.obs.sinks",
    "ImproveAttempt": "repro.obs.events",
    "JsonlSink": "repro.obs.sinks",
    "LeeExhausted": "repro.obs.events",
    "NULL_SINK": "repro.obs.sinks",
    "NullSink": "repro.obs.sinks",
    "PassEnd": "repro.obs.events",
    "PassStart": "repro.obs.events",
    "PutbackResult": "repro.obs.events",
    "RestoreBlockedError": "repro.obs.audit",
    "RingBufferSink": "repro.obs.sinks",
    "RipUpVictims": "repro.obs.events",
    "RouteEvent": "repro.obs.events",
    "SearchCapHit": "repro.obs.events",
    "ServeAccept": "repro.obs.events",
    "ServeAdmit": "repro.obs.events",
    "ServeEvict": "repro.obs.events",
    "ServeReject": "repro.obs.events",
    "StrategyAttempt": "repro.obs.events",
    "Violation": "repro.obs.audit",
    "WorkspaceAuditError": "repro.obs.audit",
    "WorkspaceAuditor": "repro.obs.audit",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
