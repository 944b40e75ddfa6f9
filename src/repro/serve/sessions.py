"""Named warm sessions: EcoSessions kept alive between HTTP calls.

This is the state that makes the service worth running: a session's
:class:`~repro.eco.EcoSession` carries the routed workspace across
requests, so an edit → reroute round trip costs what the *edit* costs,
not a cold route.

Lifecycle rules a long-lived process forces:

* one request at a time per session — each holds an ``asyncio.Lock``
  while mutating or rerouting (routing itself runs in an executor
  thread; the lock spans the await);
* idle sessions are evicted after a TTL — eviction calls
  ``EcoSession.close()`` and drops the session, freeing its workspace;
* a busy session is never evicted mid-job: the evictor skips sessions
  whose lock is held and re-judges them next scan.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eco import EcoSession


class ManagedSession:
    """One named warm session plus its serving bookkeeping."""

    __slots__ = ("name", "session", "created", "last_used", "lock", "jobs")

    def __init__(
        self, name: str, session: Optional[EcoSession], now: float
    ) -> None:
        self.name = name
        #: None while the session is still being created (cold route in
        #: flight); the name is reserved but not usable yet.
        self.session = session
        self.created = now
        self.last_used = now
        self.lock = asyncio.Lock()
        self.jobs = 0

    @property
    def ready(self) -> bool:
        return self.session is not None


class SessionManager:
    """Name → warm session map with idle-TTL eviction."""

    def __init__(
        self, ttl_seconds: Optional[float], clock=time.monotonic
    ) -> None:
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._sessions: Dict[str, ManagedSession] = {}
        #: Sessions closed for idling past the TTL.
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def names(self) -> List[str]:
        return sorted(self._sessions)

    def get(self, name: str) -> Optional[ManagedSession]:
        return self._sessions.get(name)

    def touch(self, managed: ManagedSession) -> None:
        managed.last_used = self._clock()

    def idle_seconds(self, managed: ManagedSession) -> float:
        return self._clock() - managed.last_used

    def reserve(self, name: str) -> ManagedSession:
        """Claim a name before the (async) cold route that fills it.

        Raises KeyError if the name is taken — the HTTP layer maps that
        to 409 Conflict.
        """
        if name in self._sessions:
            raise KeyError(name)
        managed = ManagedSession(name, None, self._clock())
        self._sessions[name] = managed
        return managed

    def fulfill(self, managed: ManagedSession, session: EcoSession) -> None:
        managed.session = session
        self.touch(managed)

    def abort(self, managed: ManagedSession) -> None:
        """Creation failed: release the reserved name."""
        if self._sessions.get(managed.name) is managed:
            del self._sessions[managed.name]

    def close(self, name: str) -> bool:
        """Close and forget one session."""
        managed = self._sessions.pop(name, None)
        if managed is None:
            return False
        if managed.session is not None:
            managed.session.close()
        return True

    def close_all(self) -> None:
        for name in list(self._sessions):
            self.close(name)

    def evict_idle(self) -> List[Tuple[str, float]]:
        """Close sessions idle past the TTL; returns (name, idle) pairs.

        Sessions whose lock is held (a mutate/reroute in flight) are
        skipped and re-judged on the next scan, so eviction can never
        close a workspace out from under a running job.
        """
        if self.ttl_seconds is None:
            return []
        evicted: List[Tuple[str, float]] = []
        for name, managed in list(self._sessions.items()):
            if managed.lock.locked() or not managed.ready:
                continue
            idle = self.idle_seconds(managed)
            if idle >= self.ttl_seconds:
                self.close(name)
                evicted.append((name, idle))
                self.evicted += 1
        return evicted
