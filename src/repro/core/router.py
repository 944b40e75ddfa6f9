"""The complete routing algorithm (Section 8.4).

Per connection, a collection of strategies of increasing desperation:
already-routed check, zero-via, one-via, Lee, rip-up-and-retry.  Around
that, passes over the (sorted) connection list continue while each pass
leaves fewer unrouted connections — "progress is true only while each
successive pass through the connection list leaves fewer unrouted
connections.  This stops infinite looping on impossible problems."
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.board.board import Board
from repro.board.nets import Connection
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.core.budget import (
    FAIL_BLOCKED,
    STOP_DEADLINE,
    STOP_MAX_PASSES,
    STOP_STALLED,
    BudgetTracker,
    RouteBudget,
)
from repro.core.cost import COST_FUNCTIONS, CostFunction
from repro.core.lee import LeeSearchResult, lee_route
from repro.core.optimal import try_one_via, try_two_via, try_zero_via
from repro.core.profiling import RouterProfile
from repro.core.result import RoutingResult, Strategy
from repro.core.ripup import rip_up, select_victims
from repro.core.sorting import sort_connections
from repro.grid.coords import ViaPoint
from repro.obs.audit import WorkspaceAuditor
from repro.obs.events import (
    AuditRun,
    CacheStats,
    ConnectionFailed,
    ConnectionRouted,
    PassEnd,
    PassStart,
    PutbackResult,
    StrategyAttempt,
)
from repro.obs.sinks import NULL_SINK, EventSink


#: Gap-cap multiplier for the one retry a cap-truncated Lee search gets
#: before rip-up may act on it.  A blocked result with ``cap_hits > 0``
#: is a truncation, not a proven blockage — ripping up neighbors on that
#: evidence destroys innocent routes (and the truncated ``best_points``
#: may not even be near the real congestion).
CAP_RETRY_FACTOR = 4


def _audit_default() -> bool:
    """Audit after every pass when ``GRR_AUDIT`` is set (CI's audit tier)."""
    return os.environ.get("GRR_AUDIT", "") not in ("", "0")


@dataclass
class RouterConfig:
    """Tuning knobs of the router; defaults follow the paper.

    ``radius`` (Section 8.1) bounds orthogonal movement per layer — typical
    values are 1 or 2, and "large values of radius are counterproductive".
    The ``enable_*`` switches exist for the ablation benchmarks.

    All effort and wall-clock limits live in the nested :attr:`budget`
    (:class:`repro.core.budget.RouteBudget`).  The pre-budget flat knobs
    (``max_lee_expansions`` / ``max_gaps`` / ``max_ripup_rounds``),
    deprecated through one release, are gone: pass
    ``budget=RouteBudget(...)``.
    """

    radius: int = 1
    cost: str = "distance_hops"
    sort: bool = True
    enable_zero_via: bool = True
    enable_one_via: bool = True
    #: The divide-and-conquer two-via strategy the paper tried and
    #: rejected (Section 8.1); off by default, available for ablation.
    enable_two_via: bool = False
    enable_lee: bool = True
    enable_ripup: bool = True
    #: Every effort cap and wall-clock limit for one ``route()`` call.
    budget: RouteBudget = field(default_factory=RouteBudget)
    rip_radius: int = 2
    max_passes: int = 24
    #: Extra passes tolerated without reducing the unrouted count.  The
    #: paper's guard is strict ("fewer unrouted connections"); allowing a
    #: short stall lets pass N+1 profit from space freed by pass N's
    #: rip-ups before declaring the problem impossible.
    max_stalled_passes: int = 2
    #: Run the :class:`repro.obs.WorkspaceAuditor` after every pass,
    #: raising on any violation.
    #: Defaults on when the ``GRR_AUDIT`` environment variable is set.
    audit: bool = field(default_factory=_audit_default)

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if self.cost not in COST_FUNCTIONS:
            raise ValueError(
                f"unknown cost function {self.cost!r}; "
                f"choose from {sorted(COST_FUNCTIONS)}"
            )

    @property
    def cost_fn(self) -> CostFunction:
        """The resolved wavefront cost function."""
        return COST_FUNCTIONS[self.cost]


def make_router(
    board: Board,
    config: Optional[RouterConfig] = None,
    workspace: Optional[RoutingWorkspace] = None,
    sink: Optional[EventSink] = None,
):
    """Build the router for a board: a :class:`GreedyRouter`.

    ``sink`` receives the routing event stream (``repro.obs``); None
    keeps the zero-overhead null sink.
    """
    return GreedyRouter(board, config, workspace, sink)


class GreedyRouter:
    """grr: the greedy printed-circuit-board router."""

    def __init__(
        self,
        board: Board,
        config: Optional[RouterConfig] = None,
        workspace: Optional[RoutingWorkspace] = None,
        sink: Optional[EventSink] = None,
    ) -> None:
        self.board = board
        self.config = config or RouterConfig()
        self.workspace = workspace or RoutingWorkspace(board)
        #: Routing event stream (repro.obs); the null sink by default.
        self.sink = sink if sink is not None else NULL_SINK
        #: Per-phase CPU profile (Section 12), refreshed by each route().
        self.profile = RouterProfile()

    # ------------------------------------------------------------------
    # the outer pass loop (Section 8.4)
    # ------------------------------------------------------------------

    def route(self, connections: Sequence[Connection]) -> RoutingResult:
        """Route a connection list; returns the result with statistics.

        Never raises on exhaustion: when the configured
        :class:`~repro.core.budget.RouteBudget` deadline runs out the
        pass loop unwinds between connections, everything already
        installed stays installed, and the partial result reports
        ``stopped_reason`` plus per-connection ``failure_reasons``.
        """
        started = time.perf_counter()
        self.profile = RouterProfile()
        cfg = self.config
        tracker = BudgetTracker(cfg.budget, self.sink)
        timed = tracker.timed
        ordered = (
            sort_connections(connections) if cfg.sort else list(connections)
        )
        result = RoutingResult(
            workspace=self.workspace, connections=list(connections)
        )
        unrouted = [
            c for c in ordered if not self.workspace.is_routed(c.conn_id)
        ]
        previous = len(unrouted) + 1
        stalled = 0
        sink = self.sink
        cache_before = self.workspace.gap_cache_stats()
        while unrouted and result.passes < cfg.max_passes:
            if len(unrouted) < previous:
                stalled = 0
            else:
                stalled += 1
                if stalled > cfg.max_stalled_passes:
                    # No progress: the problem is too hard (§8.4).
                    result.stopped_reason = STOP_STALLED
                    break
            previous = len(unrouted)
            if timed:
                if tracker.deadline_exceeded(f"pass {result.passes + 1}"):
                    result.stopped_reason = STOP_DEADLINE
                    break
                tracker.checkpoint(f"pass {result.passes + 1}")
            result.passes += 1
            if sink.enabled:
                sink.emit(PassStart(result.passes, len(unrouted)))
            for conn in unrouted:
                if self.workspace.is_routed(conn.conn_id):
                    continue  # restored during an earlier putback
                if timed and tracker.deadline_exceeded(
                    f"pass {result.passes}"
                ):
                    result.stopped_reason = STOP_DEADLINE
                    break
                self._route_connection(conn, result, tracker)
            pending_before = len(unrouted)
            unrouted = [
                c for c in ordered if not self.workspace.is_routed(c.conn_id)
            ]
            if sink.enabled:
                sink.emit(
                    PassEnd(result.passes, pending_before, len(unrouted))
                )
            if cfg.audit:
                self._audit(f"pass {result.passes}")
            if result.stopped_reason is not None:
                break
        result.failed = [c.conn_id for c in unrouted]
        if result.failed and result.stopped_reason is None:
            result.stopped_reason = STOP_MAX_PASSES
        default_reason = (
            STOP_DEADLINE
            if result.stopped_reason == STOP_DEADLINE
            else FAIL_BLOCKED
        )
        result.failure_reasons = {
            cid: result.failure_reasons.get(cid, default_reason)
            for cid in result.failed
        }
        result.cpu_seconds = time.perf_counter() - started
        self._note_cache_stats(cache_before, "route")
        return result

    def _note_cache_stats(
        self, before: Tuple[int, int, int], context: str
    ) -> None:
        """Fold this run's free-gap traffic into profile counters and
        emit one :class:`~repro.obs.events.CacheStats` event."""
        hits_after, built_after, _ = self.workspace.gap_cache_stats()
        hits = hits_after - before[0]
        misses = built_after - before[1]
        if hits or misses:
            self.profile.bump("gap_cache_hits", hits)
            self.profile.bump("gap_cache_misses", misses)
        if self.sink.enabled:
            total = hits + misses
            self.sink.emit(
                CacheStats(
                    context, hits, misses, hits / total if total else 0.0
                )
            )

    def _audit(self, context: str) -> None:
        """Verify workspace invariants, emit the event, raise on breakage."""
        report = WorkspaceAuditor(self.workspace).audit()
        if self.sink.enabled:
            self.sink.emit(AuditRun(context, len(report.violations)))
        if not report.ok:
            from repro.obs.audit import WorkspaceAuditError

            raise WorkspaceAuditError(report, context)

    # ------------------------------------------------------------------
    # per-connection strategy stack
    # ------------------------------------------------------------------

    def passable_for(self, conn: Connection) -> FrozenSet[int]:
        """Owners this connection may route over: itself and its two pins."""
        return frozenset(
            (conn.conn_id, -(conn.pin_a + 1), -(conn.pin_b + 1))
        )

    def _try_strategies(
        self,
        conn: Connection,
        passable: FrozenSet[int],
        attempt: int = 0,
        budget: Optional[BudgetTracker] = None,
    ) -> Tuple[Optional[RouteRecord], Optional[Strategy], Optional[LeeSearchResult]]:
        """One attempt through zero-via, one-via and Lee.

        A timed ``budget`` is consulted between strategies and threaded
        into every search; exhaustion truncates the attempt (returns the
        all-None triple) and the caller unwinds.
        """
        cfg = self.config
        caps = cfg.budget
        ws = self.workspace
        sink = self.sink
        if conn.a == conn.b:
            # Degenerate connection (both pins on one via site — possible
            # for stacked pin models); it is trivially connected.
            builder = ws.route_builder(conn.conn_id, passable)
            return builder.commit(), Strategy.ZERO_VIA, None
        if cfg.enable_zero_via:
            with self.profile.measure("zero_via"):
                record = try_zero_via(
                    ws, conn, cfg.radius, passable, caps.max_gaps, budget
                )
            if sink.enabled:
                sink.emit(
                    StrategyAttempt(
                        conn.conn_id, "zero_via", record is not None, attempt
                    )
                )
            if record is not None:
                return record, Strategy.ZERO_VIA, None
            if budget is not None and budget.search_exceeded():
                return None, None, None
        if cfg.enable_one_via:
            with self.profile.measure("one_via"):
                record = try_one_via(
                    ws, conn, cfg.radius, passable, caps.max_gaps, budget
                )
            if sink.enabled:
                sink.emit(
                    StrategyAttempt(
                        conn.conn_id, "one_via", record is not None, attempt
                    )
                )
            if record is not None:
                return record, Strategy.ONE_VIA, None
            if budget is not None and budget.search_exceeded():
                return None, None, None
        if cfg.enable_two_via:
            with self.profile.measure("two_via"):
                record = try_two_via(
                    ws,
                    conn,
                    cfg.radius,
                    passable,
                    caps.max_gaps,
                    budget=budget,
                )
            if sink.enabled:
                sink.emit(
                    StrategyAttempt(
                        conn.conn_id, "two_via", record is not None, attempt
                    )
                )
            if record is not None:
                return record, Strategy.TWO_VIA, None
            if budget is not None and budget.search_exceeded():
                return None, None, None
        if cfg.enable_lee:
            with self.profile.measure("lee"):
                search = lee_route(
                    ws,
                    conn,
                    radius=cfg.radius,
                    passable=passable,
                    cost_fn=cfg.cost_fn,
                    max_expansions=caps.max_lee_expansions,
                    max_gaps=caps.max_gaps,
                    sink=sink,
                    budget=budget,
                )
            if sink.enabled:
                sink.emit(
                    StrategyAttempt(
                        conn.conn_id, "lee", search.routed, attempt
                    )
                )
            if search.routed:
                return search.record, Strategy.LEE, search
            return None, None, search
        return None, None, None

    def _rip_points(
        self, conn: Connection, search: Optional[LeeSearchResult]
    ) -> List[ViaPoint]:
        """Points around which to rip, most promising first.

        The least-cost point of the exhausted wavefront made the most
        progress towards the target (Section 8.3); the other side's best
        point is the fallback.  Without a Lee result (strategy disabled)
        the endpoints themselves are used.
        """
        if search is None:
            return [conn.a, conn.b]
        best_a, best_b = search.best_points
        if search.exhausted_side == "b":
            points = [best_b, best_a]
        else:
            points = [best_a, best_b]
        points.extend([conn.a, conn.b])
        return [p for p in points if p is not None]

    def _route_connection(
        self,
        conn: Connection,
        result: RoutingResult,
        tracker: Optional[BudgetTracker] = None,
    ) -> bool:
        """Route one connection, ripping up obstacles if necessary."""
        cfg = self.config
        ws = self.workspace
        sink = self.sink
        passable = self.passable_for(conn)
        ripped: Dict[int, Tuple[RouteRecord, Optional[Strategy]]] = {}
        routed = False
        attempt = 0
        budget = tracker.hot() if tracker is not None else None
        if budget is not None:
            budget.start_connection(conn.conn_id)
        for attempt in range(cfg.budget.max_ripup_rounds + 1):
            if budget is not None and budget.exceeded_scope(
                f"connection {conn.conn_id}"
            ):
                break
            record, strategy, search = self._try_strategies(
                conn, passable, attempt, budget
            )
            if search is not None:
                result.lee_expansions += search.expansions
                if search.cap_hits:
                    self.profile.bump("cap_hits", search.cap_hits)
            still_truncated = False
            if (
                record is None
                and search is not None
                and search.blocked
                and search.cap_hits > 0
                and not (budget is not None and budget.search_exceeded())
            ):
                # The Lee search was cap-truncated, so "blocked" is
                # unproven — hidden reachable neighbors may exist past
                # the gap cap.  Retry once with the cap raised before
                # letting rip-up act on the result (see CAP_RETRY_FACTOR).
                self.profile.bump("cap_retries", 1)
                with self.profile.measure("lee"):
                    search = lee_route(
                        ws,
                        conn,
                        radius=cfg.radius,
                        passable=passable,
                        cost_fn=cfg.cost_fn,
                        max_expansions=cfg.budget.max_lee_expansions,
                        max_gaps=cfg.budget.max_gaps * CAP_RETRY_FACTOR,
                        sink=sink,
                        budget=budget,
                    )
                result.lee_expansions += search.expansions
                if search.cap_hits:
                    self.profile.bump("cap_hits", search.cap_hits)
                if search.routed:
                    record, strategy = search.record, Strategy.LEE
                elif search.cap_hits > 0:
                    # Still truncated at the raised cap: the blockage
                    # stays unproven, and victim selection on it would
                    # rip up routes that may not be in the way at all.
                    still_truncated = True
            if record is not None:
                result.routed_by[conn.conn_id] = strategy
                routed = True
                if sink.enabled:
                    sink.emit(
                        ConnectionRouted(
                            conn.conn_id,
                            strategy.value,
                            attempt,
                            record.via_count,
                            record.wire_length,
                        )
                    )
                break
            if not cfg.enable_ripup or attempt == cfg.budget.max_ripup_rounds:
                break
            if still_truncated:
                break  # unproven blockage: do not rip up on it
            if budget is not None and budget.search_exceeded():
                break  # no clock left to spend on rip-up rounds
            victims: set = set()
            with self.profile.measure("ripup"):
                # Widen the rip neighborhood as attempts fail: "this
                # process of ripping up and restarting continues until
                # enough obstacles have been removed" (Section 8.3).
                rip_radius = cfg.rip_radius + attempt // 2
                for point in self._rip_points(conn, search):
                    victims = select_victims(
                        ws,
                        point,
                        rip_radius,
                        passable,
                        sink=sink,
                        for_conn=conn.conn_id,
                        attempt=attempt,
                    )
                    if victims:
                        break
            if not victims:
                break  # nothing movable is in the way; truly stuck
            removed = rip_up(ws, victims)
            for conn_id, route_record in removed.items():
                previous = result.routed_by.pop(conn_id, None)
                ripped[conn_id] = (route_record, previous)
        if routed:
            result.failure_reasons.pop(conn.conn_id, None)
        else:
            scope = (
                budget.exceeded_scope(f"connection {conn.conn_id}")
                if budget is not None
                else None
            )
            result.failure_reasons[conn.conn_id] = scope or FAIL_BLOCKED
            if sink.enabled:
                sink.emit(ConnectionFailed(conn.conn_id, attempt + 1))
        # Putback (Section 8.3): most ripped-up connections fit back
        # unchanged; the rest stay unrouted and a later pass re-routes
        # them.  Only victims that do NOT go back unchanged count as
        # rip-up displacements; unchanged restores count as putbacks.
        if ripped:
            with self.profile.measure("putback"):
                for conn_id, (route_record, previous) in ripped.items():
                    if ws.is_routed(conn_id):
                        result.rip_up_count += 1  # displaced: re-routed
                        continue
                    restored = ws.restore_record(route_record)
                    if restored:
                        result.putback_count += 1
                        result.routed_by[conn_id] = (
                            previous or Strategy.PUTBACK
                        )
                    else:
                        result.rip_up_count += 1
                    if sink.enabled:
                        sink.emit(
                            PutbackResult(conn_id, restored, conn.conn_id)
                        )
        return routed
