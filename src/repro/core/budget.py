"""Routing budgets: wall-clock deadlines and unified search limits.

The paper's router is bounded everywhere it could loop — Lee expansion
caps, the ``max_gaps`` search cap, bounded rip-up rounds, the pass
progress guard ("this stops infinite looping on impossible problems",
Section 8.4) — but none of those bounds is a *wall-clock* bound.  One
pathological board could still pin a worker for an arbitrary time.

:class:`RouteBudget` gathers every bound in one frozen value object:

* ``deadline_seconds`` — total wall clock for the whole ``route()`` call;
* ``per_connection_seconds`` — wall clock per connection (all strategy
  attempts and rip-up rounds for that connection together);
* ``max_lee_expansions`` / ``max_gaps`` / ``max_ripup_rounds`` — the
  paper's effort caps, previously loose ``RouterConfig`` knobs.

:class:`BudgetTracker` is the runtime companion: routers create one per
``route()`` call and thread it through the strategy stack as cooperative
checkpoints.  Exhaustion never raises — checkpoints *report* exhaustion
and the routing loops unwind gracefully, returning a partial
:class:`~repro.core.result.RoutingResult` with ``stopped_reason`` set,
the same way a capped Lee search reports "wavefront exhausted (gap cap)"
instead of a false blockage.

Cost discipline: an *untimed* budget (no deadline set, the default) must
not change routing output or cost anything measurable.  Routers therefore
pass ``tracker.hot()`` — which is ``None`` when untimed — into the hot
search loops, so the per-iteration cost of the feature is a single
``budget is not None`` test, and the timed checks themselves are gated to
every few dozen iterations.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.events import BudgetCheckpoint, BudgetExhausted
from repro.obs.sinks import NULL_SINK, EventSink

#: Default effort caps; identical to the pre-budget ``RouterConfig``
#: defaults so an unconfigured budget reproduces historical behaviour.
DEFAULT_MAX_LEE_EXPANSIONS = 4000
DEFAULT_MAX_GAPS = 20000
DEFAULT_MAX_RIPUP_ROUNDS = 10

#: Reason strings carried by ``RoutingResult.stopped_reason``; the
#: first two also name the budget scope a ``BudgetExhausted`` event
#: reports and a :class:`FailureReason`.
STOP_DEADLINE = "deadline"
STOP_CONNECTION = "connection_timeout"
STOP_STALLED = "stalled"
STOP_MAX_PASSES = "max_passes"


class FailureReason(str, enum.Enum):
    """Why one connection was left unrouted: the closed set of
    ``RoutingResult.failure_reasons`` values.

    A member is its value as a string: ``str()``, ``format()`` and
    ``json.dumps`` give the bare value, and it compares equal to it.
    """

    #: Its last Lee search exhausted a wavefront without truncation, and
    #: rip-up found nothing more to move (or was off or used up).
    BLOCKED = "blocked"
    #: Its last Lee search was cut short, so the blockage is unproven:
    #: by the gap cap even after the raised-cap retry (no rip-up is
    #: tried on such a search), or by the expansion limit.
    TRUNCATED = "truncated"
    #: It was routed at its own last attempt, then ripped up for a later
    #: connection and not put back, and the pass loop stopped before
    #: trying it again.
    DISPLACED = "displaced"
    #: The whole call ran out of wall clock first.
    DEADLINE = STOP_DEADLINE
    #: Its own wall-clock allowance ran out.
    CONNECTION_TIMEOUT = STOP_CONNECTION

    # Without these, ``str()`` gives ``FailureReason.BLOCKED``, and so
    # does ``format()`` from Python 3.12 on.
    __str__ = str.__str__
    __format__ = str.__format__


@dataclass(frozen=True)
class RouteBudget:
    """Every bound on one routing call, as a single frozen value.

    All-defaults (``RouteBudget()``) is *untimed*: no wall-clock limits,
    and the effort caps equal the paper-era ``RouterConfig`` defaults, so
    routing output is identical to the pre-budget router.
    """

    #: Total wall-clock limit for the whole ``route()`` call; None = no
    #: limit.  On exhaustion the router stops starting new work, keeps
    #: everything already installed, and reports ``stopped_reason =
    #: "deadline"``.
    deadline_seconds: Optional[float] = None
    #: Wall-clock limit per connection (strategies + rip-up rounds
    #: together); None = no limit.  An exhausted connection fails with
    #: reason ``"connection_timeout"`` and routing moves on.
    per_connection_seconds: Optional[float] = None
    #: Lee wavefront expansion cap (Section 8.2's safety bound).
    max_lee_expansions: int = DEFAULT_MAX_LEE_EXPANSIONS
    #: Gaps examined per single-layer search before truncation (§7).
    max_gaps: int = DEFAULT_MAX_GAPS
    #: Rip-up-and-retry rounds per connection (§8.3).
    max_ripup_rounds: int = DEFAULT_MAX_RIPUP_ROUNDS

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative")
        if (
            self.per_connection_seconds is not None
            and self.per_connection_seconds < 0
        ):
            raise ValueError("per_connection_seconds must be non-negative")
        if self.max_lee_expansions < 0:
            raise ValueError("max_lee_expansions must be non-negative")
        if self.max_gaps < 0:
            raise ValueError("max_gaps must be non-negative")
        if self.max_ripup_rounds < 0:
            raise ValueError("max_ripup_rounds must be non-negative")

    @property
    def timed(self) -> bool:
        """True when any wall-clock limit is set."""
        return (
            self.deadline_seconds is not None
            or self.per_connection_seconds is not None
        )


class BudgetTracker:
    """Runtime clock for one routing call's :class:`RouteBudget`.

    One tracker is created per top-level ``route()`` call.  Exhaustion
    is *latched*: once the total deadline has been observed exceeded the
    tracker keeps reporting it, so every later checkpoint unwinds
    instead of re-measuring.
    """

    __slots__ = (
        "budget",
        "sink",
        "started",
        "checkpoints",
        "deadline_hit",
        "_clock",
        "_deadline_at",
        "_deadline_emitted",
        "_conn_id",
        "_conn_deadline_at",
        "_conn_hit",
        "_conn_emitted",
    )

    def __init__(
        self,
        budget: RouteBudget,
        sink: EventSink = NULL_SINK,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.budget = budget
        self.sink = sink
        self._clock = clock
        self.started = clock()
        self.checkpoints = 0
        #: Latched: the total deadline has been observed exceeded.
        self.deadline_hit = False
        self._deadline_at = (
            self.started + budget.deadline_seconds
            if budget.deadline_seconds is not None
            else None
        )
        self._deadline_emitted = False
        self._conn_id: Optional[int] = None
        self._conn_deadline_at: Optional[float] = None
        self._conn_hit = False
        self._conn_emitted = False

    # ------------------------------------------------------------------
    # cheap predicates for the hot paths
    # ------------------------------------------------------------------

    @property
    def timed(self) -> bool:
        """True when any wall-clock limit can ever fire."""
        return self.budget.timed

    def hot(self) -> Optional["BudgetTracker"]:
        """Self when timed, else None.

        Hot loops receive this value so an untimed run pays exactly one
        ``budget is not None`` test per checkpoint site and the routing
        output is trivially bit-identical to a budget-free build.
        """
        return self if self.budget.timed else None

    def elapsed(self) -> float:
        """Seconds since the tracker (i.e. the routing call) started."""
        return self._clock() - self.started

    def remaining(self) -> Optional[float]:
        """Seconds left on the total deadline; None when unlimited."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())

    def search_exceeded(self) -> bool:
        """Combined deadline check for inner search loops.

        Returns True when either the total deadline or the current
        connection's allowance is exhausted.  Latches the total deadline
        but emits no events — the coarse checkpoints that observe the
        latch report the exhaustion exactly once.
        """
        if self.deadline_hit or self._conn_hit:
            return True
        now = self._clock()
        if self._deadline_at is not None and now >= self._deadline_at:
            self.deadline_hit = True
            return True
        if (
            self._conn_deadline_at is not None
            and now >= self._conn_deadline_at
        ):
            self._conn_hit = True
            return True
        return False

    # ------------------------------------------------------------------
    # coarse checkpoints (pass / connection granularity)
    # ------------------------------------------------------------------

    def checkpoint(self, context: str) -> None:
        """Record a coarse progress checkpoint (pass boundary)."""
        if not self.budget.timed:
            return
        self.checkpoints += 1
        if self.sink.enabled:
            self.sink.emit(
                BudgetCheckpoint(context, self.elapsed(), self.remaining())
            )

    def deadline_exceeded(self, context: str) -> bool:
        """Check (and latch) the total deadline at a coarse boundary.

        The first observation emits one
        :class:`~repro.obs.events.BudgetExhausted` event; later calls
        return True silently.
        """
        if self._deadline_at is None:
            return False
        if not self.deadline_hit:
            if self._clock() < self._deadline_at:
                return False
            self.deadline_hit = True
        # The latch may have been set silently by ``search_exceeded`` in
        # an inner loop; whichever coarse boundary observes it first owns
        # the (single) exhaustion event.
        if not self._deadline_emitted:
            self._deadline_emitted = True
            if self.sink.enabled:
                self.sink.emit(
                    BudgetExhausted(
                        STOP_DEADLINE,
                        context,
                        self.elapsed(),
                        self.budget.deadline_seconds or 0.0,
                    )
                )
        return True

    def start_connection(self, conn_id: int) -> None:
        """Open a fresh per-connection allowance for ``conn_id``."""
        self._conn_hit = False
        self._conn_emitted = False
        if self.budget.per_connection_seconds is None:
            return
        self._conn_id = conn_id
        self._conn_deadline_at = (
            self._clock() + self.budget.per_connection_seconds
        )

    def connection_exceeded(self, context: str = "") -> bool:
        """Check the current connection's allowance (emits once)."""
        if self._conn_deadline_at is None:
            return False
        if not self._conn_hit:
            if self._clock() < self._conn_deadline_at:
                return False
            self._conn_hit = True
        if not self._conn_emitted:
            self._conn_emitted = True
            if self.sink.enabled:
                self.sink.emit(
                    BudgetExhausted(
                        STOP_CONNECTION,
                        context or f"connection {self._conn_id}",
                        self.elapsed(),
                        self.budget.per_connection_seconds or 0.0,
                    )
                )
        return True

    def exceeded_scope(self, context: str = "") -> Optional[str]:
        """Which budget scope is exhausted right now, if any.

        Returns :data:`STOP_DEADLINE`, :data:`STOP_CONNECTION` or None.
        The total deadline takes precedence: a connection that ran out of
        wall clock because the whole call did is a deadline stop.
        """
        if self.deadline_exceeded(context):
            return STOP_DEADLINE
        if self.connection_exceeded(context):
            return STOP_CONNECTION
        return None


#: How often (in loop iterations) the inner search loops consult the
#: tracker's clock.  Power of two so the test compiles to a mask.
SEARCH_CHECK_MASK = 63
