"""Order statistics the benchmark reports: percentiles, quartiles, IQR.

Every timing is reported as its median, quartiles and sample count,
never as a best-of-N.  Quartiles use :func:`statistics.quantiles` with
its default (exclusive) method, the same rule the run-to-run spread
check applies to a set of runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartiles(samples: Sequence[float]) -> tuple:
    """(q1, median, q3); a single sample is its own quartiles."""
    if not samples:
        raise ValueError("quartiles of no samples")
    if len(samples) == 1:
        only = float(samples[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def relative_iqr(samples: Sequence[float]) -> float:
    """IQR as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and the raw samples."""
    q1, _, q3 = quartiles(samples)
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "samples": list(samples),
    }
