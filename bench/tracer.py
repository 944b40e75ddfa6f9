"""Outside-in layer tracing: spans around calls into the router's layers.

The router carries no spans of its own, so a traced run wraps the
public functions each layer exposes -- module attributes such as
``repro.core.router.lee_route`` and methods such as
``RoutingWorkspace.restore_record`` -- and restores every one of them
afterwards.  The benchmark's own calls (load, workspace build, export,
verify, ECO edits) open spans directly.

A span records name, start, end, parent and job id; spans stay in
memory and are written out at the end.  A layer's self time is its
span's duration minus the time its child spans cover.  Calls run on one
thread and nest strictly, so the covered time is the sum of the
children's durations.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span name of one unit of workload work (a batch job, an edit cycle).
JOB = "job"


def _count_hit(tracer: "Tracer", name: str, result) -> None:
    if result is not None:
        tracer.counts[name + ".hits"] += 1


def _count_lee(tracer: "Tracer", name: str, search) -> None:
    counts = tracer.counts
    counts["lee.routed"] += bool(search.routed)
    counts["lee.expansions"] += search.expansions
    counts["lee.gaps_examined"] += search.gaps_examined
    counts["lee.cap_hits"] += search.cap_hits


def _count_victims(tracer: "Tracer", name: str, victims) -> None:
    tracer.counts["ripup.victims"] += len(victims)


def _count_restored(tracer: "Tracer", name: str, restored) -> None:
    tracer.counts["workspace.putback.restored"] += bool(restored)


#: (span name, "module:attribute" or "module:Class.method", result hook,
#: only trace while this span is open).  Names follow the module that
#: owns the layer.  ``trace``/``reachable_vias`` are wrapped under the
#: names the searches import them by.  ``restore_record`` also reloads
#: route dumps during verification; only the router's putbacks count.
LAYER_PATCHES: Tuple[Tuple[str, str, Optional[Callable], Optional[str]], ...] = (
    ("stringer", "repro.stringer.stringer:Stringer.string_all", None, None),
    ("sorting", "repro.core.router:sort_connections", None, None),
    ("router", "repro.core.router:GreedyRouter.route", None, None),
    ("optimal.zero_via", "repro.core.router:try_zero_via", _count_hit, None),
    ("optimal.one_via", "repro.core.router:try_one_via", _count_hit, None),
    ("single_layer.trace", "repro.core.optimal:trace", None, None),
    ("single_layer.trace", "repro.core.lee:trace", None, None),
    ("single_layer.reachable_vias", "repro.core.lee:reachable_vias", None, None),
    ("lee", "repro.core.router:lee_route", _count_lee, None),
    ("bounds", "repro.core.bounds:LowerBoundCache.lookup", None, None),
    ("ripup", "repro.core.router:select_victims", _count_victims, None),
    ("ripup", "repro.core.router:rip_up", None, None),
    (
        "workspace.putback",
        "repro.channels.workspace:RoutingWorkspace.restore_record",
        _count_restored,
        "router",
    ),
)


def resolve(target: str) -> Tuple[object, str]:
    """(owner object, attribute name) for ``module:attr`` or
    ``module:Class.attr``."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class NullTracer:
    """The untraced stand-in: every span is a shared no-op context."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def job(self):
        return self._NULL


NULL_TRACER = NullTracer()


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id or -1, job id or -1).
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Work counts read from return values (hits, victims, ...).
        self.counts: Counter = Counter()
        #: Open frames: [span id, name, start, seconds covered by children].
        self._stack: List[list] = []
        self._open: Counter = Counter()
        self._entered = 0
        self._job = -1
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _enter(self, name: str) -> None:
        frame = [self._entered, name, 0.0, 0.0]
        self._entered += 1
        self._open[name] += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, name, start, end, parent, self._job))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    @contextlib.contextmanager
    def job(self) -> Iterator[None]:
        """One unit of workload work; nested spans carry its id."""
        self._job = self.calls[JOB]
        with self.span(JOB):
            yield
        self._job = -1

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        only_under: Optional[str] = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``; ``on_result`` sees the
        return value; with ``only_under``, calls outside that open span
        run untraced."""

        def traced(*args, **kwargs):
            if only_under is not None and not self._open[only_under]:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(self, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        target: str,
        name: str,
        on_result: Optional[Callable] = None,
        only_under: Optional[str] = None,
    ) -> None:
        owner, attr = resolve(target)
        original = (
            vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result, only_under))

    def restore(self) -> None:
        """Put every patched attribute back, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, patches=LAYER_PATCHES) -> Iterator["Tracer"]:
        """Wrap the layer functions for the duration of the block."""
        try:
            for name, target, on_result, only_under in patches:
                self.patch(target, name, on_result, only_under)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def job_wall(self) -> float:
        """Summed duration of every job span."""
        return sum(
            end - start
            for _, name, start, end, _, _ in self.spans
            if name == JOB
        )

    def write_jsonl(self, path: str, workload: str) -> None:
        with open(path, "a", encoding="utf-8") as out:
            for span_id, name, start, end, parent, job in self.spans:
                out.write(
                    json.dumps(
                        {
                            "workload": workload,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> Dict[str, float]:
    """Per-name self time recomputed from finished spans alone.

    The reference for :class:`Tracer`'s running totals: a span's
    duration minus the durations of the spans whose parent it is.
    """
    children: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        totals[name] += (end - start) - children[span_id]
    return dict(totals)
