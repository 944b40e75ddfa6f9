"""Routing results and statistics — everything Table 1 reports per board."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.board.nets import Connection
from repro.channels.workspace import RoutingWorkspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import FailureReason


class Strategy(enum.Enum):
    """Which strategy finally routed a connection (Section 8.4 loop)."""

    ZERO_VIA = "zero_via"
    ONE_VIA = "one_via"
    #: Optional divide-and-conquer strategy (off by default; E10 ablation).
    TWO_VIA = "two_via"
    LEE = "lee"
    #: Restored unchanged during putback after a rip-up.
    PUTBACK = "putback"


@dataclass
class RoutingResult:
    """Outcome of routing one board's connection list."""

    workspace: RoutingWorkspace
    connections: List[Connection]
    routed_by: Dict[int, Strategy] = field(default_factory=dict)
    failed: List[int] = field(default_factory=list)
    #: Net rip-up displacements: victims whose route did NOT go back
    #: unchanged during putback.  Victims restored exactly where they
    #: were are counted in :attr:`putback_count` instead — counting them
    #: here would overstate how much wiring rip-up actually moved.
    rip_up_count: int = 0
    #: Rip-up victims restored unchanged by putback (Section 8.3: "Most
    #: can be re-inserted").
    putback_count: int = 0
    passes: int = 0
    cpu_seconds: float = 0.0
    lee_expansions: int = 0
    #: Single-layer searches the gap cap cut short, over every Lee search.
    cap_hits: int = 0
    #: Lee searches rerun at a raised gap cap because the first one was
    #: cap-truncated (see ``repro.core.router.CAP_RETRY_FACTOR``).
    cap_retries: int = 0
    #: Reads of the run's Lee search views served without a build / gap
    #: lists its searches built (``RoutingWorkspace.gap_cache_stats()``
    #: over the run).
    gap_cache_hits: int = 0
    gap_cache_misses: int = 0
    #: Why routing stopped short of completing every connection: one of
    #: ``"deadline"`` (wall-clock budget ran out), ``"stalled"`` (the
    #: §8.4 progress guard fired) or ``"max_passes"``.  None exactly when
    #: the run is complete.
    stopped_reason: Optional[str] = None
    #: Per-connection failure reasons for :attr:`failed` entries, from
    #: the closed set :class:`~repro.core.budget.FailureReason`:
    #: ``"blocked"``, ``"truncated"``, ``"displaced"``, ``"deadline"``
    #: or ``"connection_timeout"``.
    failure_reasons: Dict[int, FailureReason] = field(default_factory=dict)

    @property
    def routed_count(self) -> int:
        """Connections successfully routed."""
        return len(self.routed_by)

    @property
    def total_count(self) -> int:
        """Connections in the problem."""
        return len(self.connections)

    @property
    def complete(self) -> bool:
        """True if every connection was routed."""
        return not self.failed and self.routed_count == self.total_count

    @property
    def completion_rate(self) -> float:
        """Fraction of connections routed."""
        if not self.connections:
            return 1.0
        return self.routed_count / self.total_count

    def strategy_count(self, strategy: Strategy) -> int:
        """Connections whose final route came from ``strategy``."""
        return sum(1 for s in self.routed_by.values() if s is strategy)

    @property
    def percent_lee(self) -> float:
        """The '% lee' column of Table 1.

        Percentage of all connections that were routed by Lee's algorithm;
        higher on denser boards where congestion blocks optimal solutions.
        """
        if not self.connections:
            return 0.0
        return 100.0 * self.strategy_count(Strategy.LEE) / self.total_count

    @property
    def vias_added(self) -> int:
        """Total vias drilled for signal routing (pins excluded)."""
        return sum(
            record.via_count for record in self.workspace.records.values()
        )

    @property
    def vias_per_connection(self) -> float:
        """The 'vias' column of Table 1: vias added per connection.

        "This number is below 1 for all examples, which indicates that most
        connections are routed with zero or one vias."
        """
        if not self.routed_by:
            return 0.0
        return self.vias_added / self.routed_count

    @property
    def total_wire_length(self) -> int:
        """Installed trace length in routing-grid units."""
        return sum(
            record.wire_length for record in self.workspace.records.values()
        )

    def summary(self) -> Dict[str, object]:
        """Flat dict of the headline numbers (one Table 1 row's worth)."""
        return {
            "connections": self.total_count,
            "routed": self.routed_count,
            "complete": self.complete,
            "percent_lee": round(self.percent_lee, 1),
            "rip_ups": self.rip_up_count,
            "putbacks": self.putback_count,
            "vias_per_conn": round(self.vias_per_connection, 2),
            "passes": self.passes,
            "cpu_seconds": round(self.cpu_seconds, 2),
            "zero_via": self.strategy_count(Strategy.ZERO_VIA),
            "one_via": self.strategy_count(Strategy.ONE_VIA),
            "two_via": self.strategy_count(Strategy.TWO_VIA),
            "lee": self.strategy_count(Strategy.LEE),
            "putback": self.strategy_count(Strategy.PUTBACK),
            "stopped_reason": self.stopped_reason,
        }
