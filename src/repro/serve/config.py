"""Server configuration: capacity, deadlines, warm-session policy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.budget import RouteBudget


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``grr serve`` needs, as one immutable value.

    The deadline policy is server-level: every routing job gets a
    :class:`RouteBudget` whose wall-clock deadline is the request's
    ``timeout`` clamped to ``max_deadline_seconds`` (or
    ``default_deadline_seconds`` when the request names none), so one
    pathological board can never pin a worker slot forever.
    """

    host: str = "127.0.0.1"
    port: int = 8747
    #: Routing jobs allowed to run concurrently.
    max_concurrent: int = 2
    #: Jobs allowed to wait for a slot; beyond this the server answers
    #: 429 + Retry-After instead of queueing without bound.
    max_queue_depth: int = 8
    #: Deadline applied when a request names no ``timeout``.
    default_deadline_seconds: Optional[float] = 60.0
    #: Hard per-job ceiling; requests asking for more are clamped.
    max_deadline_seconds: Optional[float] = 300.0
    #: Warm sessions idle longer than this are evicted.  None disables
    #: eviction.
    session_ttl_seconds: Optional[float] = 300.0
    #: How often the evictor scans for idle sessions.
    evict_interval_seconds: float = 5.0
    #: Largest accepted request body (boards ship as text).
    max_body_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")

    def budget_for(self, timeout: Optional[float]) -> RouteBudget:
        """The per-job budget the deadline policy grants a request."""
        deadline = (
            self.default_deadline_seconds if timeout is None else timeout
        )
        ceiling = self.max_deadline_seconds
        if ceiling is not None:
            deadline = ceiling if deadline is None else min(deadline, ceiling)
        return RouteBudget(deadline_seconds=deadline)
