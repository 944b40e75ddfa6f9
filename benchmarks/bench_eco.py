"""P6 — Incremental ECO re-routing versus routing from scratch.

For each Table 1 board: cold-route it, apply a k-net perturbation (cut
k signal nets, then re-add the same pin groups so both legs face the
identical mutated problem), and measure

* ``eco`` — an :class:`repro.eco.EcoSession` rerouting only what the
  perturbation invalidated, on the warm workspace;
* ``full`` — a fresh router solving the same mutated problem from
  scratch.

Both legs must finish **bit-identically connected**: same completed
connection set, full net connectivity on both workspaces (asserted on
every run, never opt-in).  The wall-clock ratio ``eco / full`` is the
payoff of keeping the session warm; CI gates it on one pinned board so a
regression that makes incremental rerouting pointless fails the build:

    PYTHONPATH=src python benchmarks/bench_eco.py --smoke \\
        --gate-ratio 0.5 --gate-board kdj11_2l

Results land in ``BENCH_eco.json`` (and, under Actions, a gate table in
the step summary).
"""

from __future__ import annotations

import argparse
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

from repro.board.parts import PinRole
from repro.core.router import GreedyRouter
from repro.eco import EcoSession
from repro.stringer import Stringer
from repro.verify import check_connectivity
from repro.workloads import TITAN_CONFIGS, make_titan_board

#: Scale of the suite.  Slightly above the 0.30 the other benches use:
#: 0.32 is the largest scale at which every Table 1 board (including
#: the hard 2-layer kdj11_2l) still cold-routes to completion with
#: seed 1, which the parity criterion requires, while keeping the gate
#: board's full-reroute time comfortably above measurement noise.
SUITE_SCALE = 0.32

#: Signal nets cut-and-readded per perturbation.
DEFAULT_K = 5

#: Boards in the CI smoke tier (small, sub-second, representative).
SMOKE_BOARDS = ("kdj11_2l", "nmc_4l", "tna")

#: Both legs keep the best of this many runs (sub-second boards are
#: dominated by scheduler noise otherwise).
REPEATS = 3

#: Absolute allowance on the ratio gate — at sub-second full-reroute
#: times a pure ratio flakes on tens-of-ms noise.  Deliberately below
#: the gate board's full-reroute wall so an incremental path that
#: degenerated into routing from scratch still fails the gate.
GATE_GRACE_SECONDS = 0.05


def _perturbation_nets(board, k: int) -> List[int]:
    """The k nets the perturbation cuts: spread across the board."""
    live = [n for n in board.signal_nets if len(n.pin_ids) >= 2]
    step = max(1, len(live) // k)
    return [n.net_id for n in live[::step][:k]]


def _run_board(name: str, k: int) -> Dict:
    """One board's eco-vs-full comparison; raises on parity failure.

    Both sides of the ratio keep their best measured time across the
    repeats — comparing one leg's best against the other's worst would
    bias the gate whichever way the scheduler happened to hiccup.
    """
    samples = [_run_once(name, k) for _ in range(REPEATS)]
    row = samples[-1]
    row["eco_seconds"] = round(min(s["eco_seconds"] for s in samples), 3)
    row["full_seconds"] = round(min(s["full_seconds"] for s in samples), 3)
    row["ratio"] = (
        round(row["eco_seconds"] / row["full_seconds"], 3)
        if row["full_seconds"] > 0
        else None
    )
    row["repeats"] = REPEATS
    return row


def _run_once(name: str, k: int) -> Dict:
    board = make_titan_board(name, scale=SUITE_SCALE, seed=1)
    connections = Stringer(board).string_all()
    router = GreedyRouter(board)
    started = time.perf_counter()
    cold_result = router.route(connections)
    cold_seconds = time.perf_counter() - started
    if not cold_result.complete:
        raise SystemExit(f"{name}: cold route incomplete; bad baseline")

    with EcoSession(
        board,
        connections,
        workspace=router.workspace,
        routed_by=cold_result.routed_by,
    ) as session:
        nets = _perturbation_nets(board, k)
        groups = []
        for net_id in nets:
            net = board.nets[net_id]
            groups.append(
                [
                    p
                    for p in net.pin_ids
                    if board.pins[p].role is not PinRole.TERMINATOR
                ]
            )
            session.cut_nets([net_id])
        for group in groups:
            session.add_nets([group])
        invalidated = len(session.pending)
        started = time.perf_counter()
        response = session.reroute()
        eco_seconds = time.perf_counter() - started
        eco_completed = set(session.workspace.records)
        eco_connected = check_connectivity(
            board, session.workspace, session.connections
        ).fully_connected
        final_connections = list(session.connections)

    # Full leg: the identical mutated problem, from scratch.
    full_router = GreedyRouter(board)
    started = time.perf_counter()
    full_result = full_router.route(final_connections)
    full_seconds = time.perf_counter() - started
    full_completed = set(full_router.workspace.records)
    full_connected = check_connectivity(
        board, full_router.workspace, final_connections
    ).fully_connected

    parity = (
        eco_completed == full_completed
        and eco_connected
        and full_connected
        and response.result.complete == full_result.complete
    )
    if not parity:
        raise SystemExit(
            f"{name}: ECO/full parity broken — eco routed "
            f"{len(eco_completed)} (connected={eco_connected}), full "
            f"routed {len(full_completed)} (connected={full_connected})"
        )
    return {
        "board": name,
        "connections": len(final_connections),
        "k": k,
        "cold_seconds": round(cold_seconds, 3),
        "eco_seconds": eco_seconds,
        "full_seconds": full_seconds,
        "invalidated": invalidated,
        "reused": response.counters["eco_reused"],
        "rerouted": response.counters["eco_rerouted"],
        "parity": True,
    }


def run_benchmark(smoke: bool, k: int) -> Dict:
    """The whole suite; returns the JSON-ready report dict."""
    names = SMOKE_BOARDS if smoke else tuple(TITAN_CONFIGS)
    rows = []
    for name in names:
        row = _run_board(name, k)
        print(
            f"{name:12s} conns={row['connections']:5d} "
            f"cold={row['cold_seconds']}s eco={row['eco_seconds']}s "
            f"full={row['full_seconds']}s ratio={row['ratio']} "
            f"(reused {row['reused']}, rerouted {row['rerouted']})",
            flush=True,
        )
        rows.append(row)
    return {
        "experiment": "eco_incremental_reroute",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "suite_scale": SUITE_SCALE,
        "k": k,
        "gate_grace_seconds": GATE_GRACE_SECONDS,
        "boards": rows,
        "summary": {
            "parity_all": all(r["parity"] for r in rows),
            "worst_ratio": max(
                (r["ratio"] for r in rows if r["ratio"] is not None),
                default=None,
            ),
        },
    }


def evaluate_gate(
    report: Dict, gate_ratio: Optional[float], gate_board: str
) -> Tuple[List[str], List[Tuple]]:
    """Gate violations plus step-summary rows for every board."""
    violations = []
    summary_rows = []
    for row in report["boards"]:
        gated = gate_ratio is not None and row["board"] == gate_board
        ok = True
        if gated:
            limit = gate_ratio * row["full_seconds"] + GATE_GRACE_SECONDS
            ok = row["eco_seconds"] <= limit
            if not ok:
                violations.append(
                    f"{row['board']}: eco={row['eco_seconds']}s exceeds "
                    f"{gate_ratio}x full ({row['full_seconds']}s) "
                    f"+ {GATE_GRACE_SECONDS}s grace"
                )
        summary_rows.append(
            (
                row["board"],
                f"{row['eco_seconds']}s",
                f"{row['full_seconds']}s",
                row["ratio"],
                f"<= {gate_ratio}x + grace" if gated else "—",
                gate_mark(ok and row["parity"]),
            )
        )
    return violations, summary_rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small boards only (the CI perf-smoke configuration)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_eco.json",
        help="artifact path (default: BENCH_eco.json)",
    )
    parser.add_argument(
        "-k",
        type=int,
        default=DEFAULT_K,
        help=f"nets cut and re-added per perturbation (default {DEFAULT_K})",
    )
    parser.add_argument(
        "--gate-ratio",
        type=float,
        default=None,
        metavar="X",
        help="fail if the gate board's incremental reroute is slower "
        "than X * its full reroute (plus the fixed noise grace)",
    )
    parser.add_argument(
        "--gate-board",
        default="kdj11_2l",
        help="board the ratio gate applies to (default kdj11_2l)",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke, k=args.k)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    summary = report["summary"]
    print(
        f"wrote {args.out}: worst_ratio={summary['worst_ratio']} "
        f"parity_all={summary['parity_all']}"
    )
    violations, summary_rows = evaluate_gate(
        report, args.gate_ratio, args.gate_board
    )
    append_table(
        "ECO incremental reroute (bench_eco)",
        ("board", "eco", "full", "ratio", "gate", "status"),
        summary_rows,
        note=f"k={args.k} nets perturbed; parity (bit-identical final "
        "connectivity) asserted on every leg.",
    )
    if violations:
        for violation in violations:
            print(f"FAIL: {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
