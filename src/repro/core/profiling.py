"""CPU profiling of the router's strategy stack.

Section 12: "The most effective tools for improving program performance
were ... profiles of the CPU usage of each procedure in the program.  The
profiles allowed design effort to be concentrated in that small part of
the program where there were large potential performance gains."

Section 8.2's headline profile result: once the optimal strategies have
routed ~90% of the connections, "finding solutions for [the rest]
represents well over 90% of CPU time for difficult boards" — i.e. Lee
dominates the profile.  ``benchmarks/bench_profile.py`` (E12) checks that.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class PhaseTiming:
    """Accumulated calls and wall time of one router phase."""

    calls: int = 0
    seconds: float = 0.0


@dataclass
class RouterProfile:
    """Per-phase timing of a routing run.

    Timing only: what a run did (searches, cap hits, gap lists) is
    counted on its :class:`~repro.core.result.RoutingResult`.
    """

    phases: Dict[str, PhaseTiming] = field(default_factory=dict)
    #: Live nesting depth per phase; only the outermost ``measure`` of a
    #: phase accumulates wall time, so re-entrant calls don't double-count.
    _depth: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        """Time one call of a phase.

        Re-entrant calls on the same phase count as calls but only the
        outermost frame adds elapsed wall time — nested frames would
        otherwise be counted twice (once themselves, once inside their
        caller's interval).
        """
        timing = self.phases.setdefault(phase, PhaseTiming())
        timing.calls += 1
        depth = self._depth.get(phase, 0)
        self._depth[phase] = depth + 1
        started = time.perf_counter()
        try:
            yield
        finally:
            self._depth[phase] -= 1
            if depth == 0:
                timing.seconds += time.perf_counter() - started

    @property
    def total_seconds(self) -> float:
        """Wall time across all measured phases."""
        return sum(t.seconds for t in self.phases.values())

    def fraction(self, phase: str) -> float:
        """Share of measured time spent in one phase (0..1)."""
        total = self.total_seconds
        if total == 0:
            return 0.0
        return self.phases.get(phase, PhaseTiming()).seconds / total

    def rows(self) -> list:
        """Table rows sorted by time, for reporting."""
        total = self.total_seconds
        rows = []
        for phase, timing in sorted(
            self.phases.items(), key=lambda item: -item[1].seconds
        ):
            rows.append(
                {
                    "phase": phase,
                    "calls": timing.calls,
                    "seconds": round(timing.seconds, 3),
                    "pct": round(
                        100 * timing.seconds / total if total else 0.0, 1
                    ),
                }
            )
        return rows
