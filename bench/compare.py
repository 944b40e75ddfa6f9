"""Compare benchmark results, one row per workload x end-to-end metric.

    python bench/compare.py base.json change.json
    python bench/compare.py b1.json,b2.json,b3.json c1.json,c2.json,c3.json

Each side is one results file or a comma-separated list of them.  With
several files the spread is the run-to-run IQR of their values; with
one it is estimated from the run's per-round samples.  Each row
shows both medians, both spreads (IQR as a share of the median), the
change against the bound in ``BENCHMARK.json``, and a verdict:

* ``better`` / ``worse`` -- the median moved by more than the bound;
* ``unchanged`` -- it moved by less;
* ``unresolved`` -- a side's spread exceeds the bound, so the medians
  cannot tell, unless every sample of the change beats every sample of
  the base.

The exit status is 1 when any row is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from stats import relative_iqr

ROOT = Path(__file__).resolve().parent.parent


def side(metrics: List[dict]) -> Tuple[float, float, List[float]]:
    """(value, relative spread, samples) of one metric over runs.

    Over several runs: the median of their values and its IQR.  Within
    one run: its value, and the IQR of its per-round samples over the
    square root of their count -- how far that value would move on a
    rerun, not how wide the samples themselves are.
    """
    if len(metrics) == 1:
        metric = metrics[0]
        samples = metric.get("samples") or [metric["value"]]
        spread = relative_iqr(samples) / math.sqrt(len(samples))
        return metric["value"], spread, samples
    samples = [metric["value"] for metric in metrics]
    return statistics.median(samples), relative_iqr(samples), samples


def verdict(base: tuple, change: tuple, better: str, bound: float) -> tuple:
    """(relative change in the worse direction, verdict)."""
    (a, spread_a, samples_a), (b, spread_b, samples_b) = base, change
    delta = (b - a) / abs(a) if a else 0.0
    worse_by = delta if better == "lower" else -delta
    if max(spread_a, spread_b) > bound:
        if better == "lower" and max(samples_b) < min(samples_a):
            return worse_by, "better"
        if better == "higher" and min(samples_b) > max(samples_a):
            return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "unchanged"


def compare(base: List[dict], change: List[dict], declared: List[dict]) -> List[tuple]:
    rows = []
    for workload, result in base[0]["workloads"].items():
        runs_a = [r["workloads"].get(workload, {}) for r in base]
        runs_b = [r["workloads"].get(workload, {}) for r in change]
        if not all("metrics" in run for run in runs_a + runs_b):
            continue
        for m in declared:
            a = side([run["metrics"][m["name"]] for run in runs_a])
            b = side([run["metrics"][m["name"]] for run in runs_b])
            worse_by, call = verdict(a, b, m["better"], m["bound"])
            rows.append(
                (workload, m["name"], m["unit"], a[0], a[1], b[0], b[1],
                 worse_by, m["bound"], call)
            )
    return rows


def _load(paths: str) -> List[dict]:
    results = []
    for path in paths.split(","):
        with open(path, encoding="utf-8") as stream:
            results.append(json.load(stream))
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="results file(s) of the base, comma-separated")
    parser.add_argument("change", help="results file(s) of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(_load(args.base), _load(args.change), spec["end_to_end"])
    print(
        f"{'workload':<16} {'metric':<14} {'unit':<9} {'base':>11} {'IQR':>6} "
        f"{'change':>11} {'IQR':>6} {'worse by':>9} {'bound':>6}  verdict"
    )
    for workload, name, unit, a, sa, b, sb, worse_by, bound, call in rows:
        print(
            f"{workload:<16} {name:<14} {unit:<9} {a:>11.5g} {sa:>6.1%} "
            f"{b:>11.5g} {sb:>6.1%} {worse_by:>+9.2%} {bound:>6.1%}  {call}"
        )
    return 1 if any(row[-1] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
