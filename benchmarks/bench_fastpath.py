"""Fastpath backend: numpy-vs-python wall time under a parity assertion.

Routes Table 1 boards twice per round — once with
``backend="python"`` (the zero-dependency default) and once with
``backend="numpy"`` (the :mod:`repro.core.fastpath` kernels) — and
records the wall-time ratio.  Every pair of runs must produce
*bit-identical* results: same ``routed_by``, same canonical workspace
state, same via-map probe count, same Lee expansion and cap-hit
counters.  Any divergence exits non-zero regardless of flags — parity
is not an opt-in gate.

Timing discipline matches ``bench_gap_cache.py``: rounds alternate
which backend goes first (ABBA), each leg keeps its best-of-N wall
time, and cyclic GC is disabled around the measured region.  CI's gate
(``--gate-ratio R --gate-board B``) fails the run when numpy wall time
exceeds ``R`` times python wall time on board ``B``.

Without numpy installed the benchmark reports a skip and exits zero —
the numpy backend is the optional ``pip install repro[fast]`` extra,
and its absence must not fail the pipeline.

Results land in ``BENCH_fastpath.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fastpath.py --smoke \
        --gate-ratio 0.8 --gate-board kdj11_2l
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
from repro.core.fastpath import HAVE_NUMPY
from repro.core.router import RouterConfig, make_router
from repro.stringer import Stringer
from repro.workloads import TITAN_CONFIGS, make_titan_board

#: Scale of the Table 1 suite (matches bench_table1.py).
SUITE_SCALE = 0.30

#: Boards of the smoke configuration: the gate board plus two smaller
#: ones for shape coverage (a dense 2-layer and a mid-size 4-layer).
SMOKE_BOARDS = ("dpath", "coproc", "kdj11_2l")

#: Timing legs take the best of this many interleaved python/numpy
#: rounds — routing is deterministic, only runner noise varies, and
#: shared runners drift by tens of percent over a process lifetime.
TIMING_REPEATS = 5


def _route_once(name: str, backend: str) -> Tuple[float, Dict]:
    """Route one fresh board; returns (seconds, identity fingerprint).

    The fingerprint holds everything the parity contract covers; wall
    time is the only thing allowed to differ between backends.
    """
    board = make_titan_board(name, scale=SUITE_SCALE, seed=1)
    connections = Stringer(board).string_all()
    workspace = RoutingWorkspace(board)
    router = make_router(
        board, RouterConfig(backend=backend), workspace=workspace
    )
    gc.collect()
    gc.disable()
    started = time.perf_counter()
    result = router.route(connections)
    elapsed = time.perf_counter() - started
    gc.enable()
    fingerprint = {
        "connections": len(connections),
        "routed": len(result.routed_by),
        "complete": result.complete,
        "routed_by": {
            str(k): v.value for k, v in sorted(result.routed_by.items())
        },
        "lee_expansions": result.lee_expansions,
        "cap_hits": router.profile.counters.get("cap_hits", 0),
        "via_probes": workspace.via_map.probe_count,
        "state_digest": workspace.state_digest(),
    }
    return elapsed, fingerprint


def run_benchmark(smoke: bool = False) -> Dict:
    """The whole benchmark; returns the JSON-ready report dict."""
    boards = SMOKE_BOARDS if smoke else tuple(TITAN_CONFIGS)
    rows: List[Dict] = []
    for name in boards:
        py_s = np_s = None
        py_fp = np_fp = None
        for round_index in range(TIMING_REPEATS):
            # ABBA: alternate which backend runs first so neither leg
            # systematically lands in the slower half of a drifting
            # process.
            legs = (
                ("python", "numpy")
                if round_index % 2 == 0
                else ("numpy", "python")
            )
            for backend in legs:
                seconds, fingerprint = _route_once(name, backend)
                if backend == "python":
                    py_fp = fingerprint
                    py_s = seconds if py_s is None else min(py_s, seconds)
                else:
                    np_fp = fingerprint
                    np_s = seconds if np_s is None else min(np_s, seconds)
        row = {
            "board": name,
            "connections": py_fp["connections"],
            "python_seconds": round(py_s, 3),
            "numpy_seconds": round(np_s, 3),
            "ratio": round(np_s / py_s, 3) if py_s > 0 else None,
            "parity": py_fp == np_fp,
            "state_digest": py_fp["state_digest"][:16],
        }
        print(
            f"{row['board']:8s} conns={row['connections']:5d} "
            f"python={row['python_seconds']}s "
            f"numpy={row['numpy_seconds']}s ratio={row['ratio']}"
            f"{'' if row['parity'] else ' PARITY-MISMATCH'}",
            flush=True,
        )
        if not row["parity"]:
            for key in py_fp:
                if py_fp[key] != np_fp[key]:
                    print(
                        f"  mismatch {key}: python={py_fp[key]!r} "
                        f"numpy={np_fp[key]!r}",
                        flush=True,
                    )
        rows.append(row)
    py_total = sum(r["python_seconds"] for r in rows)
    np_total = sum(r["numpy_seconds"] for r in rows)
    return {
        "experiment": "fastpath",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "suite_scale": SUITE_SCALE,
        "timing_repeats": TIMING_REPEATS,
        "boards": rows,
        "summary": {
            "parity_all": all(r["parity"] for r in rows),
            "python_seconds": round(py_total, 3),
            "numpy_seconds": round(np_total, 3),
            "ratio": round(np_total / py_total, 3) if py_total > 0 else None,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"route only the smoke boards {SMOKE_BOARDS}",
    )
    parser.add_argument(
        "--out",
        default="BENCH_fastpath.json",
        help="artifact path (default: BENCH_fastpath.json)",
    )
    parser.add_argument(
        "--gate-ratio",
        type=float,
        default=None,
        metavar="R",
        help="fail unless numpy wall <= R * python wall on the gate "
        "board (best-of-N interleaved, so runner noise is damped)",
    )
    parser.add_argument(
        "--gate-board",
        default="kdj11_2l",
        metavar="BOARD",
        help="board the --gate-ratio applies to (default: kdj11_2l)",
    )
    args = parser.parse_args(argv)
    if not HAVE_NUMPY:
        # The numpy backend is an optional extra; a runner without it
        # skips the comparison instead of failing the pipeline.
        print("SKIP: numpy not installed (pip install repro[fast])")
        with open(args.out, "w") as f:
            json.dump(
                {"experiment": "fastpath", "skipped": "numpy missing"}, f
            )
            f.write("\n")
        return 0
    report = run_benchmark(smoke=args.smoke)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    summary = report["summary"]
    print(
        f"wrote {args.out}: python={summary['python_seconds']}s "
        f"numpy={summary['numpy_seconds']}s ratio={summary['ratio']} "
        f"parity_all={summary['parity_all']}"
    )
    failures: List[str] = []
    board_ok = {row["board"]: row["parity"] for row in report["boards"]}
    if not summary["parity_all"]:
        failures.append("python/numpy parity broken (see mismatches above)")
    if args.gate_ratio is not None:
        gated = [r for r in report["boards"] if r["board"] == args.gate_board]
        if not gated:
            failures.append(f"gate board {args.gate_board} was not routed")
        elif gated[0]["ratio"] is None or gated[0]["ratio"] > args.gate_ratio:
            board_ok[args.gate_board] = False
            failures.append(
                f"{args.gate_board} numpy/python ratio "
                f"{gated[0]['ratio']} > {args.gate_ratio}"
            )
    append_table(
        "Fastpath backend (bench_fastpath)",
        ("board", "python", "numpy", "ratio", "gate", "status"),
        (
            (
                row["board"],
                f"{row['python_seconds']}s",
                f"{row['numpy_seconds']}s",
                row["ratio"],
                f"<= {args.gate_ratio}"
                if args.gate_ratio is not None
                and row["board"] == args.gate_board
                else "parity",
                gate_mark(board_ok[row["board"]]),
            )
            for row in report["boards"]
        ),
        note=f"suite ratio {summary['ratio']}, "
        f"parity_all={summary['parity_all']}",
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
