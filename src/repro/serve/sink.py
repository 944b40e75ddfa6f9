"""AsyncSink: the bridge from the routing event stream to asyncio.

SSE consumers live on the event loop; the events come from elsewhere.
A warm ECO job routes synchronously in an executor thread and calls
:meth:`AsyncSink.emit`, which is thread-safe — events are flattened to
their JSON dicts immediately (the same shape ``JsonlSink`` writes, so a
trace file and an SSE stream of the same run are line-for-line
identical), appended to an in-memory log, and loop-side subscribers are
woken through ``call_soon_threadsafe``.

A cold ``/route`` job routes in a worker process into a loop-less
``AsyncSink`` of its own, which :meth:`AsyncSink.pack` turns into one
pickle of its record list when the job ends.  The server stores those
bytes on the job's sink as they came (:meth:`AsyncSink.load_packed`)
and unpickles them only inside :meth:`AsyncSink.subscribe`, once per
SSE reader: a finished job's log is read far less often than it is
kept, and the packed form is about an eighth of the size of its dicts.

Subscribers replay from any index and then follow the live tail, so a
client that connects after the job finished still gets the full
stream.  The log is bounded: past ``capacity`` events the sink counts
drops instead of growing without bound (a long-lived server must never
let one chatty job eat the heap).
"""

from __future__ import annotations

import asyncio
import threading
from typing import AsyncIterator, Dict, List, Optional, Tuple

from repro.obs.events import RouteEvent
from repro.obs.sinks import EventSink

#: Events one job's log keeps before it counts drops instead.
EVENT_CAPACITY = 100_000


class AsyncSink(EventSink):
    """Queue-backed event sink feeding asyncio subscribers (SSE).

    Its log is either the records :meth:`emit` appended or one packed
    log handed over whole by :meth:`load_packed`, never both.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        capacity: int = EVENT_CAPACITY,
    ) -> None:
        self._loop = loop
        self._capacity = capacity
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []
        #: A worker's log as :meth:`pack` made it, and its record count.
        self._packed: Optional[bytes] = None
        self._packed_count = 0
        self._waiters: List[asyncio.Event] = []
        self._closed = False
        #: Events discarded because the log hit ``capacity``.
        self.dropped = 0

    # ------------------------------------------------------------------
    # producer side (any thread)
    # ------------------------------------------------------------------

    def emit(self, event: RouteEvent) -> None:
        record = event.to_dict()
        with self._lock:
            if self._closed:
                # A straggling emit after close is a lifecycle race the
                # service tolerates by design (contrast JsonlSink, whose
                # callers own its lifetime and get a RuntimeError).
                self.dropped += 1
                return
            if len(self._events) >= self._capacity:
                self.dropped += 1
                return
            self._events.append(record)
        self._wake_soon()

    def pack(self) -> Tuple[bytes, int, int]:
        """The log as one pickle of its record list, with the record
        and drop counts: what a ``/route`` worker sends back."""
        # Imported here, as in ``subscribe``, to keep it out of server
        # start-up; the process machinery has loaded it by then.
        import pickle

        with self._lock:
            return pickle.dumps(self._events), len(self._events), self.dropped

    def load_packed(self, packed: bytes, count: int, dropped: int) -> None:
        """Take a worker's :meth:`pack` output as this sink's whole log.

        The bytes are kept as they are and decoded per subscriber.  The
        worker's sink applied the same capacity, so ``count`` is within
        it; ``dropped`` adds the worker's drops to this sink's.
        """
        with self._lock:
            if self._closed:
                self.dropped += count + dropped
                return
            self._packed = packed
            self._packed_count = count
            self.dropped += dropped
        self._wake_soon()

    def close(self) -> None:
        """End the stream: subscribers drain the log, then stop."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake_soon()

    def _wake_soon(self) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._wake)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _wake(self) -> None:
        for waiter in self._waiters:
            waiter.set()

    # ------------------------------------------------------------------
    # consumer side (event loop)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events) + self._packed_count

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    async def subscribe(
        self, start: int = 0
    ) -> AsyncIterator[Tuple[int, Dict[str, object]]]:
        """Yield ``(index, event_dict)`` from ``start``, then follow live.

        Ends when the sink is closed and the log fully replayed.  Must
        be iterated on the loop the sink was constructed with.  A packed
        log is unpickled here, for this subscriber only.
        """
        import pickle

        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        waiter = asyncio.Event()
        self._waiters.append(waiter)
        try:
            index = max(0, start)
            unpacked: Optional[List[Dict[str, object]]] = None
            while True:
                # Clear before reading: an emit between the read and the
                # await re-sets the flag, so no wake-up is ever lost.
                waiter.clear()
                with self._lock:
                    chunk = self._events[index:]
                    packed = self._packed
                    closed = self._closed
                if packed is not None:
                    if unpacked is None:
                        # Bytes this program's own worker pickled.
                        unpacked = pickle.loads(packed)
                    chunk = unpacked[index:]
                if chunk:
                    for record in chunk:
                        yield index, record
                        index += 1
                elif closed:
                    return
                else:
                    await waiter.wait()
        finally:
            self._waiters.remove(waiter)
