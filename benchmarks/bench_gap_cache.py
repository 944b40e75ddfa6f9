"""C1 — Generation-stamped free-gap cache: wall time and hit rate.

Routes the Table 1 suite twice per board — once with
the :class:`repro.channels.gap_cache.GapCache` disabled (the pre-cache
recompute-per-search behaviour) and once with it enabled (the default) —
and records the wall-time improvement plus the cache hit rate of the
enabled run.  Cached and uncached runs must complete exactly the same
connection set; any divergence exits non-zero.

``--audit`` additionally re-routes every board under full invariant
auditing (``GRR_AUDIT`` semantics), proving the cache never serves a
stale gap list — the auditor re-derives the channel state the cache
claims.

Results land in ``BENCH_cache.json``.  The hit-rate assertion
(``--assert-hit-rate``) is CI's gate; the wall-clock assertions are
opt-in because shared runners make timings noisy:
``--assert-improvement`` floors the suite-total win, and
``--assert-board-floor`` caps the *regression* any single board may
show (the small-channel bypass exists precisely so tiny boards never
pay for the memo machinery they cannot use).

Usage::

    PYTHONPATH=src python benchmarks/bench_gap_cache.py --smoke
    PYTHONPATH=src python benchmarks/bench_gap_cache.py \
        --audit --assert-hit-rate 0.80
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:
    import repro  # noqa: F401 - probe whether src/ is importable
except ImportError:  # direct script run without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

try:
    from benchmarks.ci_summary import append_table, gate_mark
except ImportError:  # run as a script: benchmarks/ is sys.path[0]
    from ci_summary import append_table, gate_mark

from repro.channels.workspace import RoutingWorkspace
from repro.core.router import RouterConfig, make_router
from repro.stringer import Stringer
from repro.workloads import TITAN_CONFIGS, make_titan_board

#: Scale of the Table 1 suite (matches bench_table1.py).
SUITE_SCALE = 0.30

#: Timing legs take the best of this many interleaved off/on rounds —
#: routing is deterministic, only runner noise varies.  Shared runners
#: drift by tens of percent over a process lifetime, so rounds alternate
#: which configuration goes first (ABBA) and the per-config minimum
#: needs several rounds to converge.
TIMING_REPEATS = 5

#: Absolute allowance for --assert-board-floor.  Calibrated against a
#: null experiment (two *identical* cache-off configurations compared
#: with interleaved best-of-8 rounds, GC excluded) which still reported
#: spurious differences up to ±15% on the ~0.13s boards — shared-runner
#: frequency jitter swamps percentages at that runtime.  The floor
#: therefore stays a strict 2% where 2% is measurable (the >1s boards)
#: and degrades to this absolute allowance where it is not.
FLOOR_GRACE_SECONDS = 0.02


def _problem(name: str, scale: float):
    board = make_titan_board(name, scale=scale, seed=1)
    return board, Stringer(board).string_all()


def _route_once(
    name: str,
    scale: float,
    gap_cache: bool,
    audit: bool = False,
    repeats: int = 1,
) -> Tuple[Dict, set]:
    """Route fresh boards ``repeats`` times; keeps the best wall time.

    Routing is deterministic per configuration, so the counters and the
    completed set are identical across repeats — only the wall time
    varies with runner noise, hence best-of-N.  The timing comparison in
    :func:`run_benchmark` calls this with ``repeats=1`` and interleaves
    the off/on legs itself, so both configurations sample the same
    noise windows instead of one config eating a whole busy period.
    """
    seconds = None
    for _ in range(repeats):
        board, connections = _problem(name, scale)
        config = RouterConfig(audit=True) if audit else RouterConfig()
        workspace = RoutingWorkspace(board, gap_cache=gap_cache)
        router = make_router(board, config, workspace=workspace)
        # Cyclic-GC pauses land on whichever leg happens to cross an
        # allocation threshold and scale with whole-process heap, not
        # with the leg's own work — exclude them from the comparison.
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        result = router.route(connections)
        elapsed = time.perf_counter() - started
        gc.enable()
        seconds = elapsed if seconds is None else min(seconds, elapsed)
    counters = router.profile.counters
    hits = counters.get("gap_cache_hits", 0)
    misses = counters.get("gap_cache_misses", 0)
    total = hits + misses
    return (
        {
            "seconds": round(seconds, 3),
            "connections": len(connections),
            "routed": len(result.routed_by),
            "complete": result.complete,
            "hits": hits,
            "misses": misses,
            # Small-channel requests that skipped memoization entirely;
            # excluded from the hit rate, which describes only the
            # traffic the memo accepts.
            "bypassed": counters.get("gap_cache_bypassed", 0),
            "hit_rate": round(hits / total, 4) if total else None,
        },
        set(result.routed_by),
    )


def run_benchmark(
    smoke: bool = False,
    audit: bool = False,
    pre_pr_seconds: Optional[float] = None,
    pre_pr_ref: Optional[str] = None,
) -> Dict:
    """The whole benchmark; returns the JSON-ready report dict."""
    repeats = TIMING_REPEATS
    rows: List[Dict] = []
    for name in TITAN_CONFIGS:
        off = on = off_completed = on_completed = None
        for round_index in range(repeats):
            # ABBA: alternate which configuration runs first so neither
            # leg systematically lands in the slower half of a drifting
            # process (CPU-frequency and allocator warm-up both skew
            # later legs on shared runners).
            legs = (False, True) if round_index % 2 == 0 else (True, False)
            for gap_cache in legs:
                r, r_completed = _route_once(
                    name, SUITE_SCALE, gap_cache=gap_cache
                )
                if gap_cache:
                    if on is None or r["seconds"] < on["seconds"]:
                        on, on_completed = r, r_completed
                elif off is None or r["seconds"] < off["seconds"]:
                    off, off_completed = r, r_completed
        row: Dict = {
            "board": name,
            "connections": on["connections"],
            "cache_off": off,
            "cache_on": on,
            "parity": off_completed == on_completed,
            "improvement_pct": round(
                100.0 * (off["seconds"] - on["seconds"]) / off["seconds"], 1
            )
            if off["seconds"] > 0
            else None,
        }
        print(
            f"{name:6s} conns={row['connections']:5d} "
            f"off={off['seconds']}s on={on['seconds']}s "
            f"({row['improvement_pct']}%) "
            f"hit_rate={on['hit_rate']}"
            f"{'' if row['parity'] else ' PARITY-MISMATCH'}",
            flush=True,
        )
        rows.append(row)
    if audit:
        # Audit legs run after every timing leg so their (much slower,
        # instrumented) routing cannot pollute the wall-time comparison.
        for row in rows:
            # An audit failure raises out of route(); reaching the
            # measurement means every post-pass invariant check passed
            # with the cache in play.
            measured, _ = _route_once(
                row["board"], SUITE_SCALE, gap_cache=True, audit=True
            )
            row["audited"] = {
                "seconds": measured["seconds"],
                "complete": measured["complete"],
                "audit_passed": True,
            }
            print(f"{row['board']:6s} audit=ok", flush=True)
    off_total = sum(r["cache_off"]["seconds"] for r in rows)
    on_total = sum(r["cache_on"]["seconds"] for r in rows)
    hits = sum(r["cache_on"]["hits"] for r in rows)
    misses = sum(r["cache_on"]["misses"] for r in rows)
    per_board_rates = [
        r["cache_on"]["hit_rate"]
        for r in rows
        if r["cache_on"]["hit_rate"] is not None
    ]
    report: Dict = {
        "experiment": "gap_cache",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "suite_scale": SUITE_SCALE,
        "audited": audit,
        "boards": rows,
        "summary": {
            "parity_all": all(r["parity"] for r in rows),
            "baseline_cache_off_seconds": round(off_total, 3),
            "cache_on_seconds": round(on_total, 3),
            "improvement_pct": round(
                100.0 * (off_total - on_total) / off_total, 1
            )
            if off_total > 0
            else None,
            "hits": hits,
            "misses": misses,
            "bypassed": sum(r["cache_on"]["bypassed"] for r in rows),
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses
            else None,
            "min_board_hit_rate": round(min(per_board_rates), 4)
            if per_board_rates
            else None,
            "min_board_improvement_pct": min(
                (
                    r["improvement_pct"]
                    for r in rows
                    if r["improvement_pct"] is not None
                ),
                default=None,
            ),
        },
    }
    if pre_pr_seconds is not None:
        # Reference total measured on a checkout of the pre-PR commit
        # (same suite, same scale) — the anchor for the PR's
        # end-to-end wall-time claim.
        report["summary"]["pre_pr_seconds"] = round(pre_pr_seconds, 3)
        report["summary"]["pre_pr_ref"] = pre_pr_ref
        report["summary"]["improvement_vs_pre_pr_pct"] = round(
            100.0 * (pre_pr_seconds - on_total) / pre_pr_seconds, 1
        )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tag the report as the CI perf-smoke configuration",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="also route every board under GRR_AUDIT-style invariant "
        "auditing",
    )
    parser.add_argument(
        "--out",
        default="BENCH_cache.json",
        help="artifact path (default: BENCH_cache.json)",
    )
    parser.add_argument(
        "--assert-hit-rate",
        type=float,
        default=None,
        metavar="R",
        help="fail unless every Table 1 board's cache hit rate is >= R",
    )
    parser.add_argument(
        "--assert-improvement",
        type=float,
        default=None,
        metavar="PCT",
        help="fail unless total wall time improves >= PCT%% over the "
        "reference (the --pre-pr-seconds anchor when given, else the "
        "cache-off baseline; noisy on shared runners, so opt-in)",
    )
    parser.add_argument(
        "--assert-board-floor",
        type=float,
        default=None,
        metavar="PCT",
        help="fail if any single board routes more than PCT%% slower "
        "with the cache on than off (an absolute "
        f"{FLOOR_GRACE_SECONDS}s grace covers sub-50ms boards, whose "
        "percentages are pure runner noise)",
    )
    parser.add_argument(
        "--pre-pr-seconds",
        type=float,
        default=None,
        metavar="S",
        help="reference suite total measured on the pre-PR commit "
        "(recorded in the report; used by --assert-improvement)",
    )
    parser.add_argument(
        "--pre-pr-ref",
        default=None,
        metavar="REV",
        help="commit the --pre-pr-seconds reference was measured on",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(
        smoke=args.smoke,
        audit=args.audit,
        pre_pr_seconds=args.pre_pr_seconds,
        pre_pr_ref=args.pre_pr_ref,
    )
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    summary = report["summary"]
    print(
        f"wrote {args.out}: baseline={summary['baseline_cache_off_seconds']}s "
        f"cached={summary['cache_on_seconds']}s "
        f"improvement={summary['improvement_pct']}% "
        f"hit_rate={summary['hit_rate']} "
        f"(min board {summary['min_board_hit_rate']}) "
        f"parity_all={summary['parity_all']}"
    )
    if "pre_pr_seconds" in summary:
        print(
            f"vs pre-PR {summary['pre_pr_ref']}: "
            f"{summary['pre_pr_seconds']}s -> "
            f"{summary['cache_on_seconds']}s "
            f"({summary['improvement_vs_pre_pr_pct']}%)"
        )
    failures: List[str] = []
    board_ok = {row["board"]: True for row in report["boards"]}
    if not summary["parity_all"]:
        failures.append("cached/uncached completion parity broken")
    if args.assert_hit_rate is not None:
        for row in report["boards"]:
            rate = row["cache_on"]["hit_rate"]
            if rate is None or rate < args.assert_hit_rate:
                board_ok[row["board"]] = False
                failures.append(
                    f"{row['board']} hit rate {rate} < "
                    f"{args.assert_hit_rate}"
                )
    if args.assert_board_floor is not None:
        for row in report["boards"]:
            off_s = row["cache_off"]["seconds"]
            on_s = row["cache_on"]["seconds"]
            allowance = max(
                args.assert_board_floor / 100.0 * off_s,
                FLOOR_GRACE_SECONDS,
            )
            if on_s - off_s > allowance:
                board_ok[row["board"]] = False
                failures.append(
                    f"{row['board']} regresses with cache on: "
                    f"{off_s}s -> {on_s}s "
                    f"(floor {args.assert_board_floor}%)"
                )
    if args.assert_improvement is not None:
        measured = summary.get(
            "improvement_vs_pre_pr_pct", summary["improvement_pct"]
        )
        if measured is None or measured < args.assert_improvement:
            failures.append(
                f"improvement {measured}% < {args.assert_improvement}%"
            )
    append_table(
        "Free-gap cache (bench_gap_cache)",
        ("board", "cache off", "cache on", "hit rate", "gate", "status"),
        (
            (
                row["board"],
                f"{row['cache_off']['seconds']}s",
                f"{row['cache_on']['seconds']}s",
                row["cache_on"]["hit_rate"],
                f">= {args.assert_hit_rate}"
                if args.assert_hit_rate is not None
                else "—",
                gate_mark(board_ok[row["board"]]),
            )
            for row in report["boards"]
        ),
        note=f"suite hit rate {summary['hit_rate']}, "
        f"parity_all={summary['parity_all']}",
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
