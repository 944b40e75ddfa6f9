"""Jobs: the unit of admission-controlled work, with a retained history."""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.serve.sink import AsyncSink

#: Lifecycle: accepted -> queued -> running -> done | failed.
STATES = ("accepted", "queued", "running", "done", "failed")
#: Finished jobs kept for ``GET /jobs/{id}`` before the oldest are
#: forgotten.
MAX_JOBS_RETAINED = 256


class Job:
    """One routing job: state machine + event log + result payload."""

    __slots__ = (
        "job_id",
        "kind",
        "state",
        "session",
        "sink",
        "created",
        "started",
        "finished",
        "queued_seconds",
        "result",
        "error",
        "status",
    )

    def __init__(
        self, job_id: str, kind: str, sink: AsyncSink, session: str = ""
    ) -> None:
        self.job_id = job_id
        self.kind = kind
        self.state = "accepted"
        self.session = session
        self.sink = sink
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.queued_seconds = 0.0
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        #: HTTP status for a client waiting on the job: 200 once done,
        #: 400/422 for rejected input, 500 for any other failure.
        self.status = 500

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed")

    def to_dict(self, include_result: bool = True) -> Dict[str, object]:
        out: Dict[str, object] = {
            "job": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "session": self.session,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "queued_seconds": round(self.queued_seconds, 6),
            "events": len(self.sink),
            "events_dropped": self.sink.dropped,
            "error": self.error,
        }
        if include_result:
            out["result"] = self.result
        return out


class JobRegistry:
    """Id-keyed job store with a bounded finished-job history."""

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = deque()
        #: Jobs created so far (accepted requests); numbers the job ids.
        self.created = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def create(self, kind: str, sink: AsyncSink, session: str = "") -> Job:
        self.created += 1
        job = Job(f"{kind}-{self.created:06d}", kind, sink, session=session)
        self._jobs[job.job_id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def discard(self, job: Job) -> None:
        """Forget a job that never ran (a rejected request); it still
        counts in :attr:`created`."""
        del self._jobs[job.job_id]

    def finish(self, job: Job) -> None:
        """Record completion and forget the oldest finished jobs."""
        self._finished.append(job.job_id)
        while len(self._finished) > MAX_JOBS_RETAINED:
            self._jobs.pop(self._finished.popleft(), None)

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in STATES}
        for job in self._jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        return out
