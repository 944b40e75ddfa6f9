"""P7 — ``grr serve``: request latency, warm-session payoff, overload.

Runs an in-process :class:`repro.serve.RoutingServer` and measures the
service the way a client sees it, over real HTTP round trips:

* ``cold``     — sequential ``POST /route`` of the gate board
  (p50/p99 request latency);
* ``burst``    — the same board routed N times concurrently, against
  a server with one admission slot and one with two (each ``/route``
  slot is a worker process).  The throughput ratio, two slots over
  one, is gated at ``--gate-burst-ratio`` when at least two CPUs are
  usable and only recorded otherwise (it read 1.53-2.00 over seven
  runs on a 2-core host, and 0.90-0.97 when ``/route`` jobs shared one
  interpreter on threads);
* ``warm``     — a named ECO session absorbing cut+re-add
  perturbations (each cycle cuts the nets the previous cycle added,
  using the ``net_ids`` the mutate response reports): ``POST
  /eco/mutate`` + ``POST /eco/reroute`` cycles (p50/p99 reroute
  latency).  The CI gate: warm reroute p50 must stay
  under ``--gate-warm-ratio`` x the cold-route p50 (plus a fixed noise
  grace) — a warm session that reroutes no faster than a cold route
  makes the server pointless;
* ``overload`` — a burst against ``max_concurrent=1, queue_depth=0``:
  the server must answer 429 with a Retry-After hint, never queue
  without bound;
* ``smoke``    — a real ``python -m repro.cli serve`` subprocess:
  route one board over HTTP, begin, mutate and reroute a warm session,
  SIGTERM, and assert exit 0.

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke \\
        --gate-warm-ratio 0.5 --gate-burst-ratio 1.3

Results land in ``BENCH_serve.json`` (and, under Actions, a gate table
in the step summary).
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import platform
import signal
import subprocess
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
from repro.io import write_board, write_connections
from repro.serve import RoutingServer, ServeConfig
from repro.stringer import Stringer
from repro.workloads import make_titan_board

#: Matches bench_eco: largest scale at which every board cold-routes
#: to completion, keeping the gated times above measurement noise.
SUITE_SCALE = 0.32

#: The gated board (same one the ECO and cache benches pin).
GATE_BOARD = "kdj11_2l"

#: Signal nets cut and re-added per warm perturbation cycle (matches
#: bench_eco, whose CI gate proves this perturbation reroutes to
#: completion on every smoke board).
PERTURB_K = 5

#: Sequential cold routes measured for the latency baseline.
COLD_REQUESTS = 5

#: Warm mutate+reroute cycles measured.
WARM_CYCLES = 5

#: Concurrent requests in the throughput and overload bursts.
BURST = 4

#: Timed bursts per slot count, alternating between the two servers;
#: the median is reported.
BURST_ROUNDS = 3

#: Admission slots (worker processes) the burst leg compares.
BURST_SLOTS = (1, 2)

#: Absolute allowance on the warm gate — sub-second requests flake on
#: tens-of-ms scheduler noise under a pure ratio.
GATE_GRACE_SECONDS = 0.05


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _board_problem(name: str) -> Tuple[str, str, List[int], List[List[int]]]:
    """Board + connection texts and the perturbation's nets/pin groups."""
    board = make_titan_board(name, scale=SUITE_SCALE, seed=1)
    connections = Stringer(board).string_all()
    bbuf, cbuf = io.StringIO(), io.StringIO()
    write_board(board, bbuf)
    write_connections(connections, cbuf)
    live = [n for n in board.signal_nets if len(n.pin_ids) >= 2]
    step = max(1, len(live) // PERTURB_K)
    nets = [n.net_id for n in live[::step][:PERTURB_K]]
    groups = [
        [
            p
            for p in board.nets[net_id].pin_ids
            if board.pins[p].role is not PinRole.TERMINATOR
        ]
        for net_id in nets
    ]
    return bbuf.getvalue(), cbuf.getvalue(), nets, groups


# ----------------------------------------------------------------------
# minimal HTTP client (one request per connection, like the server)
# ----------------------------------------------------------------------


async def _request(host, port, verb, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        f"{verb} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body_bytes = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_bytes) if body_bytes else {}


async def _timed_route(host, port, body) -> float:
    started = time.perf_counter()
    status, _, payload = await _request(host, port, "POST", "/route", body)
    elapsed = time.perf_counter() - started
    if status != 200 or not payload["result"]["complete"]:
        raise SystemExit(
            f"cold route failed: status={status} "
            f"state={payload.get('state')} error={payload.get('error')}"
        )
    return elapsed


# ----------------------------------------------------------------------
# legs
# ----------------------------------------------------------------------


async def _run_latency_legs(board_text, conn_text, nets, groups):
    """Cold latency and warm reroute cycles."""
    server = RoutingServer(ServeConfig(port=0, max_concurrent=2))
    host, port = await server.start()
    route_body = {"board": board_text, "connections": conn_text}
    try:
        cold = [
            await _timed_route(host, port, route_body)
            for _ in range(COLD_REQUESTS)
        ]

        status, _, payload = await _request(
            host, port, "POST", "/eco/begin",
            {"session": "bench", **route_body},
        )
        if status != 200 or not payload["result"]["complete"]:
            raise SystemExit(f"eco/begin failed: status={status}")
        warm = []
        reused = rerouted = 0
        current = list(nets)
        for _ in range(WARM_CYCLES):
            ops = [{"op": "cut_nets", "nets": current}] + [
                {"op": "add_nets", "pin_groups": [group]}
                for group in groups
            ]
            status, _, payload = await _request(
                host, port, "POST", "/eco/mutate",
                {"session": "bench", "ops": ops},
            )
            if status != 200:
                raise SystemExit(
                    f"eco/mutate failed: status={status} {payload}"
                )
            # Next cycle cuts the nets this one created.
            current = [
                net_id
                for stats in payload["applied"]
                if stats["op"] == "add_nets"
                for net_id in stats["net_ids"]
            ]
            if len(current) != len(groups):
                raise SystemExit(
                    f"mutate reported {len(current)} new nets, "
                    f"expected {len(groups)}"
                )
            started = time.perf_counter()
            status, _, payload = await _request(
                host, port, "POST", "/eco/reroute", {"session": "bench"}
            )
            warm.append(time.perf_counter() - started)
            result = payload.get("result") or {}
            if status != 200 or not result.get("complete"):
                raise SystemExit(
                    f"eco/reroute failed: status={status} "
                    f"error={payload.get('error')}"
                )
            reused = result["counters"]["eco_reused"]
            rerouted = result["counters"]["eco_rerouted"]
    finally:
        await server.shutdown()
    return {
        "cold": cold,
        "warm": warm,
        "reused": reused,
        "rerouted": rerouted,
    }


async def _run_burst_leg(
    board_text: str, conn_text: str
) -> Dict[int, float]:
    """Median seconds for BURST concurrent routes, per slot count.

    One server per slot count, all alive at once; each first routes one
    request per slot so that its worker processes are up before the
    timed bursts, which alternate between the servers.
    """
    route_body = {"board": board_text, "connections": conn_text}
    servers = {
        slots: RoutingServer(ServeConfig(port=0, max_concurrent=slots))
        for slots in BURST_SLOTS
    }
    samples: Dict[int, List[float]] = {slots: [] for slots in BURST_SLOTS}
    try:
        addresses = {
            slots: await server.start() for slots, server in servers.items()
        }

        async def burst(slots: int, requests: int) -> float:
            host, port = addresses[slots]
            started = time.perf_counter()
            await asyncio.gather(
                *(
                    _timed_route(host, port, route_body)
                    for _ in range(requests)
                )
            )
            return time.perf_counter() - started

        for slots in BURST_SLOTS:
            await burst(slots, slots)
        for _ in range(BURST_ROUNDS):
            for slots in BURST_SLOTS:
                samples[slots].append(await burst(slots, BURST))
    finally:
        for server in servers.values():
            await server.shutdown()
    return {slots: _percentile(samples[slots], 0.5) for slots in BURST_SLOTS}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


async def _run_overload_leg(board_text: str, conn_text: str) -> Dict:
    """One slot, no queue: the burst must draw 429s, never pile up."""
    server = RoutingServer(
        ServeConfig(port=0, max_concurrent=1, max_queue_depth=0)
    )
    host, port = await server.start()
    try:
        async def attempt():
            return await _request(
                host, port, "POST", "/route",
                {"board": board_text, "connections": conn_text},
            )

        outcomes = await asyncio.gather(*(attempt() for _ in range(BURST)))
        rejected = [o for o in outcomes if o[0] == 429]
        completed = [o for o in outcomes if o[0] == 200]
        if len(rejected) + len(completed) != BURST:
            raise SystemExit(
                f"unexpected statuses: {[o[0] for o in outcomes]}"
            )
        if not rejected:
            raise SystemExit("overload burst produced no 429")
        retry_hints = []
        for _, headers, _ in rejected:
            if "retry-after" not in headers:
                raise SystemExit("429 without a Retry-After header")
            retry_hints.append(int(headers["retry-after"]))
        status, _, health = await _request(host, port, "GET", "/healthz")
        if health["admission"]["queued"] > 0:
            raise SystemExit("queue not drained after the burst")
    finally:
        await server.shutdown()
    return {
        "requests": BURST,
        "completed": len(completed),
        "rejected": len(rejected),
        "retry_after_min": min(retry_hints),
        "server_rejected_counter": health["admission"]["rejected"],
    }


def _run_subprocess_smoke(board_text, conn_text, nets, groups):
    """A real ``grr serve`` process: route, warm session, clean SIGTERM."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--max-concurrent", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        host, port = banner.rsplit("http://", 1)[1].split(":")
        port = int(port)

        async def drive():
            status, _, payload = await _request(
                host, port, "POST", "/route",
                {"board": board_text, "connections": conn_text},
            )
            if status != 200 or not payload["result"]["complete"]:
                raise SystemExit(f"subprocess route failed: {status}")
            status, _, _ = await _request(
                host, port, "POST", "/eco/begin",
                {
                    "session": "smoke",
                    "board": board_text,
                    "connections": conn_text,
                },
            )
            if status != 200:
                raise SystemExit(f"subprocess eco/begin failed: {status}")
            ops = [{"op": "cut_nets", "nets": nets}] + [
                {"op": "add_nets", "pin_groups": [group]}
                for group in groups
            ]
            status, _, _ = await _request(
                host, port, "POST", "/eco/mutate",
                {"session": "smoke", "ops": ops},
            )
            if status != 200:
                raise SystemExit(f"subprocess eco/mutate failed: {status}")
            status, _, payload = await _request(
                host, port, "POST", "/eco/reroute", {"session": "smoke"}
            )
            if status != 200:
                raise SystemExit(f"subprocess eco/reroute failed: {status}")

        asyncio.run(drive())
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    if exit_code != 0:
        raise SystemExit(f"grr serve exited {exit_code} on SIGTERM")
    return {"exit_code": exit_code}


def run_benchmark(smoke: bool) -> Dict:
    """The whole suite; returns the JSON-ready report dict."""
    board_text, conn_text, nets, groups = _board_problem(GATE_BOARD)
    legs = asyncio.run(
        _run_latency_legs(board_text, conn_text, nets, groups)
    )
    cold_p50 = round(_percentile(legs["cold"], 0.5), 3)
    cold_p99 = round(_percentile(legs["cold"], 0.99), 3)
    warm_p50 = round(_percentile(legs["warm"], 0.5), 3)
    warm_p99 = round(_percentile(legs["warm"], 0.99), 3)
    print(
        f"{GATE_BOARD:12s} cold p50={cold_p50}s p99={cold_p99}s | "
        f"warm p50={warm_p50}s p99={warm_p99}s "
        f"(reused {legs['reused']}, rerouted {legs['rerouted']})",
        flush=True,
    )
    burst_seconds = asyncio.run(_run_burst_leg(board_text, conn_text))
    throughput = {
        slots: round(BURST / seconds, 2)
        for slots, seconds in burst_seconds.items()
    }
    one, many = BURST_SLOTS[0], BURST_SLOTS[-1]
    burst_ratio = round(throughput[many] / throughput[one], 3)
    print(
        "burst        "
        + " | ".join(
            f"{slots} slot(s): {BURST} in {burst_seconds[slots]:.2f}s "
            f"({throughput[slots]} req/s)"
            for slots in BURST_SLOTS
        )
        + f" | {many}/{one} = {burst_ratio} on {_usable_cpus()} CPU(s)",
        flush=True,
    )
    overload = asyncio.run(_run_overload_leg(board_text, conn_text))
    print(
        f"overload     {overload['rejected']}/{overload['requests']} "
        f"rejected with 429, retry-after >= "
        f"{overload['retry_after_min']}s",
        flush=True,
    )
    smoke_leg = _run_subprocess_smoke(board_text, conn_text, nets, groups)
    print(f"subprocess   exit={smoke_leg['exit_code']}", flush=True)
    return {
        "experiment": "serve_latency",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "suite_scale": SUITE_SCALE,
        "board": GATE_BOARD,
        "perturb_k": PERTURB_K,
        "gate_grace_seconds": GATE_GRACE_SECONDS,
        "cold": {
            "requests": COLD_REQUESTS,
            "p50_seconds": cold_p50,
            "p99_seconds": cold_p99,
        },
        "burst": {
            "concurrent": BURST,
            "rounds": BURST_ROUNDS,
            "usable_cpus": _usable_cpus(),
            "slots": {
                str(slots): {
                    "median_seconds": round(burst_seconds[slots], 3),
                    "requests_per_second": throughput[slots],
                }
                for slots in BURST_SLOTS
            },
            "throughput_ratio": burst_ratio,
        },
        "warm": {
            "cycles": WARM_CYCLES,
            "p50_seconds": warm_p50,
            "p99_seconds": warm_p99,
            "reused": legs["reused"],
            "rerouted": legs["rerouted"],
        },
        "overload": overload,
        "subprocess_smoke": smoke_leg,
        "summary": {
            "warm_over_cold_p50": (
                round(warm_p50 / cold_p50, 3) if cold_p50 > 0 else None
            ),
        },
    }


def evaluate_gate(
    report: Dict,
    gate_warm_ratio: Optional[float],
    gate_burst_ratio: Optional[float] = None,
) -> Tuple[List[str], List[Tuple]]:
    """Gate violations plus step-summary rows."""
    violations = []
    burst = report["burst"]
    burst_ratio = burst["throughput_ratio"]
    burst_gated = gate_burst_ratio is not None and burst["usable_cpus"] >= 2
    burst_ok = not burst_gated or burst_ratio >= gate_burst_ratio
    if not burst_ok:
        violations.append(
            f"burst throughput with {BURST_SLOTS[-1]} slots is "
            f"{burst_ratio}x that with {BURST_SLOTS[0]}, below "
            f"{gate_burst_ratio}x"
        )
    if gate_burst_ratio is None:
        burst_gate = "—"
    elif burst_gated:
        burst_gate = f">= {gate_burst_ratio}x"
    else:
        burst_gate = "recorded only: 1 usable CPU"
    cold_p50 = report["cold"]["p50_seconds"]
    warm_p50 = report["warm"]["p50_seconds"]
    warm_ok = True
    if gate_warm_ratio is not None:
        limit = gate_warm_ratio * cold_p50 + GATE_GRACE_SECONDS
        warm_ok = warm_p50 <= limit
        if not warm_ok:
            violations.append(
                f"warm reroute p50={warm_p50}s exceeds {gate_warm_ratio}x "
                f"cold p50 ({cold_p50}s) + {GATE_GRACE_SECONDS}s grace"
            )
    rows = [
        (
            "cold /route",
            f"{cold_p50}s",
            f"{report['cold']['p99_seconds']}s",
            "baseline",
            gate_mark(True),
        ),
        (
            "warm /eco/reroute",
            f"{warm_p50}s",
            f"{report['warm']['p99_seconds']}s",
            f"<= {gate_warm_ratio}x cold p50 + grace"
            if gate_warm_ratio is not None
            else "—",
            gate_mark(warm_ok),
        ),
        (
            f"burst {BURST_SLOTS[-1]} vs {BURST_SLOTS[0]} slot(s)",
            f"{burst_ratio}x throughput",
            " / ".join(
                f"{row['requests_per_second']} req/s"
                for row in burst["slots"].values()
            ),
            burst_gate,
            gate_mark(burst_ok),
        ),
        (
            "overload 429",
            f"{report['overload']['rejected']}/"
            f"{report['overload']['requests']} rejected",
            f">= {report['overload']['retry_after_min']}s retry-after",
            "bounded queue",
            gate_mark(True),
        ),
        (
            "subprocess SIGTERM",
            f"exit {report['subprocess_smoke']['exit_code']}",
            "route + warm ECO session",
            "exit 0",
            gate_mark(True),
        ),
    ]
    return violations, rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the CI perf-smoke configuration (currently identical to a "
        "full run; kept for symmetry with the other benches)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_serve.json",
        help="artifact path (default: BENCH_serve.json)",
    )
    parser.add_argument(
        "--gate-warm-ratio",
        type=float,
        default=None,
        metavar="X",
        help="fail if the warm reroute p50 is slower than X * the cold "
        "route p50 (plus the fixed noise grace)",
    )
    parser.add_argument(
        "--gate-burst-ratio",
        type=float,
        default=None,
        metavar="X",
        help="fail if a burst routes less than X times as fast with two "
        "admission slots as with one (enforced only when at least two "
        "CPUs are usable)",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(
        f"wrote {args.out}: warm/cold p50 = "
        f"{report['summary']['warm_over_cold_p50']}, burst "
        f"{BURST_SLOTS[-1]}/{BURST_SLOTS[0]} slots = "
        f"{report['burst']['throughput_ratio']}"
    )
    violations, summary_rows = evaluate_gate(
        report, args.gate_warm_ratio, args.gate_burst_ratio
    )
    append_table(
        "Routing service (bench_serve)",
        ("leg", "p50 / outcome", "p99 / detail", "gate", "status"),
        summary_rows,
        note=f"board={GATE_BOARD} scale={SUITE_SCALE}; warm cycles "
        f"cut and re-add {PERTURB_K} nets each; burst leg: median of "
        f"{BURST_ROUNDS} alternating bursts of {BURST} per slot count; "
        "overload leg runs max_concurrent=1, queue_depth=0.",
    )
    if violations:
        for violation in violations:
            print(f"FAIL: {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
