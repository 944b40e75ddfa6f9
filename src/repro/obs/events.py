"""Typed routing events: the machine-readable trace of a routing run.

Every event is a frozen dataclass with a class-level ``kind`` tag and a
:meth:`RouteEvent.to_dict` that flattens it to JSON-ready primitives
(``ViaPoint``/tuples become lists).  Events are only ever *constructed*
behind an ``if sink.enabled:`` guard at the emit site, so a disabled run
pays one attribute load per site and nothing else.

The event vocabulary (see ``docs/OBSERVABILITY.md`` for the schema):

==================  ====================================================
kind                emitted when
==================  ====================================================
``pass_start``      the serial pass loop starts a pass
``pass_end``        a pass finishes (with before/after unrouted counts)
``strategy``        one strategy attempt on one connection resolves
``lee_exhausted``   a Lee wavefront dies, with the best points (§8.3)
``cap_hit``         single-layer searches truncated at the max_gaps cap
``rip_up``          rip-up victims are selected around a point
``putback``         one ripped-up victim is restored (or fails to be)
``routed``          a connection's route is finally installed
``failed``          a connection exhausts every strategy and rip-up round
``improve``         the improvement pass re-routes one detour
``audit``           a workspace audit ran (violation count included)
``cache_stats``     free-gap list reuse/build totals for a routing phase
``budget_checkpoint``  a timed routing run passed a coarse checkpoint
``budget_exhausted``   a wall-clock budget scope ran out (once per scope)
``serve_accept``    the routing service received a job-creating request
``serve_admit``     the admission controller let a job start routing
``serve_reject``    an overloaded service answered 429 + retry-after
``serve_evict``     an idle warm session hit its TTL and was closed
==================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Optional, Tuple


def _plain(value):
    """Flatten one field value to JSON-ready primitives."""
    if isinstance(value, tuple):  # ViaPoint is a NamedTuple
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class RouteEvent:
    """Base class: every event is a frozen dataclass with a ``kind`` tag."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready flat dict: ``{"event": kind, **fields}``."""
        out: Dict[str, object] = {"event": self.kind}
        for f in fields(self):
            out[f.name] = _plain(getattr(self, f.name))
        return out


@dataclass(frozen=True)
class PassStart(RouteEvent):
    """The serial pass loop begins pass ``index`` over ``pending`` conns."""

    kind: ClassVar[str] = "pass_start"
    index: int
    pending: int


@dataclass(frozen=True)
class PassEnd(RouteEvent):
    """Pass ``index`` ended leaving ``unrouted`` of ``pending`` connections."""

    kind: ClassVar[str] = "pass_end"
    index: int
    pending: int
    unrouted: int


@dataclass(frozen=True)
class StrategyAttempt(RouteEvent):
    """One strategy resolved (succeeded or failed) for one connection."""

    kind: ClassVar[str] = "strategy"
    conn_id: int
    strategy: str
    routed: bool
    attempt: int = 0


@dataclass(frozen=True)
class LeeExhausted(RouteEvent):
    """A Lee wavefront died; ``best_a``/``best_b`` seed rip-up (§8.3)."""

    kind: ClassVar[str] = "lee_exhausted"
    conn_id: int
    side: str
    reason: str
    expansions: int
    best_a: Optional[Tuple[int, int]] = None
    best_b: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class SearchCapHit(RouteEvent):
    """One Lee route hit the ``max_gaps`` cap in ``cap_hits`` single-layer
    searches: those searches were *truncated*, not proven blocked, so a
    failure alongside this event must not be read as a hard blockage."""

    kind: ClassVar[str] = "cap_hit"
    conn_id: int
    cap_hits: int
    searches: int
    max_gaps: int
    routed: bool


@dataclass(frozen=True)
class RipUpVictims(RouteEvent):
    """Victims were selected around ``point`` for connection ``for_conn``."""

    kind: ClassVar[str] = "rip_up"
    for_conn: int
    point: Tuple[int, int]
    radius: int
    victims: Tuple[int, ...]
    attempt: int = 0


@dataclass(frozen=True)
class PutbackResult(RouteEvent):
    """One ripped-up victim was (or could not be) restored unchanged."""

    kind: ClassVar[str] = "putback"
    conn_id: int
    restored: bool
    for_conn: int = -1


@dataclass(frozen=True)
class ConnectionRouted(RouteEvent):
    """A connection's route was installed by ``strategy``."""

    kind: ClassVar[str] = "routed"
    conn_id: int
    strategy: str
    attempt: int
    vias: int
    wire_length: int


@dataclass(frozen=True)
class ConnectionFailed(RouteEvent):
    """A connection exhausted every strategy and rip-up round this pass."""

    kind: ClassVar[str] = "failed"
    conn_id: int
    attempts: int


@dataclass(frozen=True)
class ImproveAttempt(RouteEvent):
    """The improvement pass re-routed one detoured connection."""

    kind: ClassVar[str] = "improve"
    conn_id: int
    wire_before: int
    wire_after: int
    kept: bool


@dataclass(frozen=True)
class AuditRun(RouteEvent):
    """A workspace audit completed (``violations == 0`` on a clean board)."""

    kind: ClassVar[str] = "audit"
    context: str
    violations: int


@dataclass(frozen=True)
class BudgetCheckpoint(RouteEvent):
    """A timed run passed a coarse budget checkpoint (pass start).

    Only emitted when a wall-clock limit is configured; ``remaining`` is
    None when no *total* deadline is set (per-connection limits only)."""

    kind: ClassVar[str] = "budget_checkpoint"
    context: str
    elapsed: float
    remaining: Optional[float]


@dataclass(frozen=True)
class BudgetExhausted(RouteEvent):
    """A budget scope ran out: ``scope`` is ``"deadline"`` (the whole
    call) or ``"connection_timeout"`` (one connection's allowance).
    Emitted once per exhaustion — the router then degrades gracefully
    instead of raising."""

    kind: ClassVar[str] = "budget_exhausted"
    scope: str
    context: str
    elapsed: float
    limit: float


@dataclass(frozen=True)
class CacheStats(RouteEvent):
    """Free-gap traffic of one routing phase (``repro.core.
    single_layer``): channel gap lists a Lee search's *Vias* calls found
    in the search's own memo (``hits``) vs. gap lists built with
    ``Channel.free_gaps`` by any single-layer search (``misses``)."""

    kind: ClassVar[str] = "cache_stats"
    context: str
    hits: int
    misses: int
    hit_rate: float


@dataclass(frozen=True)
class ServeAccept(RouteEvent):
    """The routing service received a request that creates a job:
    ``endpoint`` is the request path (``/route`` / ``/eco/begin`` /
    ``/eco/reroute``), ``job_id`` the id assigned, ``session`` the warm
    session the job targets (empty for stateless cold routes).  Emitted
    before the admission decision, so accepts = admits + rejects."""

    kind: ClassVar[str] = "serve_accept"
    endpoint: str
    job_id: str
    session: str = ""


@dataclass(frozen=True)
class ServeAdmit(RouteEvent):
    """The admission controller let job ``job_id`` start routing after
    ``queued_seconds`` in the bounded queue (0.0 when a slot was free
    immediately); ``running`` counts jobs routing concurrently
    including this one."""

    kind: ClassVar[str] = "serve_admit"
    job_id: str
    queued_seconds: float
    running: int


@dataclass(frozen=True)
class ServeReject(RouteEvent):
    """The service refused a job instead of queueing without bound:
    ``running`` jobs were routing and ``queued`` waiting when the
    request arrived, so it was answered with HTTP 429 and a
    ``retry_after`` hint (seconds) derived from observed job times."""

    kind: ClassVar[str] = "serve_reject"
    endpoint: str
    running: int
    queued: int
    retry_after: float


@dataclass(frozen=True)
class ServeEvict(RouteEvent):
    """A warm session sat idle past the server's TTL and was closed
    after ``idle_seconds`` without a request."""

    kind: ClassVar[str] = "serve_evict"
    session: str
    idle_seconds: float


@dataclass(frozen=True)
class EcoBegin(RouteEvent):
    """An ECO mutation started on a routed board: ``op`` is
    ``"move_part"`` / ``"add_nets"`` / ``"cut_nets"`` and ``target``
    the part id, net count or net id it applies to.  Emitted before any
    state changes, so a trace brackets each edit exactly."""

    kind: ClassVar[str] = "eco_begin"
    op: str
    target: int


@dataclass(frozen=True)
class EcoInvalidate(RouteEvent):
    """One ECO mutation finished computing its invalidated connection
    set: ``invalidated`` connections now need rerouting, of which
    ``ripped`` had installed routes removed and ``cascades`` were
    surviving routes ripped only because the edit collided with their
    wiring (e.g. a moved pin landing on a trace)."""

    kind: ClassVar[str] = "eco_invalidate"
    op: str
    invalidated: int
    ripped: int
    cascades: int


@dataclass(frozen=True)
class EcoReroute(RouteEvent):
    """An incremental reroute completed: of ``total`` connections in
    the session, ``reused`` kept their installed routes untouched,
    ``rerouted`` were (re)routed by this call and ``failed`` remain
    unrouted.  ``invalidated`` counts the connections the mutations
    since the previous reroute marked dirty; ``fast_path`` is True when
    nothing was pending and the router was never invoked."""

    kind: ClassVar[str] = "eco_reroute"
    total: int
    invalidated: int
    reused: int
    rerouted: int
    failed: int
    fast_path: bool
    seconds: float
