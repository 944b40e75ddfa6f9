"""The benchmark's four workloads: seeded inputs, timed runs, metrics.

:func:`make_inputs` runs in the parent: it generates one workload's
inputs with ``repro.workloads`` and writes them as native text files
plus a ``manifest.json``.  Run as a script, this file is the workload
process.  It reads only those files, runs the shipped defaults
(``RouterConfig()``, ``grr serve`` defaults) and prints one JSON object
as the last line of its output::

    python bench/workloads.py --workload kdj11_hard --inputs DIR \\
        --seconds 15 --trace 0

With ``--trace 0`` it measures whole rounds until ``--seconds`` have
passed and reports the end-to-end metrics.  With ``--trace 1`` it runs
an untraced, a traced and an untraced round and reports the per-layer
metrics of the traced one.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import io
import json
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.board.nets import Connection
from repro.board.parts import PinRole
from repro.channels.workspace import RoutingWorkspace
from repro.core.router import RouterConfig, make_router
from repro.eco import EcoSession
from repro.io import (
    load_board,
    load_routes,
    read_board,
    read_connections,
    save_connections,
    save_routes,
    write_board,
)
from repro.stringer import Stringer
from repro.verify import check_connectivity, run_drc
from repro.workloads import (
    BoardSpec,
    NetlistSpec,
    generate_board,
    make_titan_board,
)

from stats import percentile, summarize
from tracer import NULL_TRACER, Tracer

WORKLOADS = ("kdj11_hard", "wavelocal_large", "eco_edits", "serve_easy")

#: What each workload generates.  kdj11_hard is a fixed board set: near
#: capacity, route time is chaotic in the input (0.28 s to 1.53 s across
#: kdj11_2l seeds 1-4 at scale 0.30), so seeded boards would bury any
#: change in input variance.  Its 0.35 board is one where goal search
#: routes fewer connections than classic.  An odd board count puts the
#: median job on one board rather than between two.  The other three
#: workloads draw their boards from the seed and average over enough
#: connections to stay steady.
SPECS: Dict[str, dict] = {
    "kdj11_hard": {
        "boards": [
            ["kdj11_2l", 0.30, 1],
            ["kdj11_2l", 0.30, 2],
            ["kdj11_2l", 0.35, 1],
        ],
    },
    "wavelocal_large": {"via_n": 160, "radius": 11, "layers": 6},
    "eco_edits": {"config": "dpath", "scale": 0.40},
    "serve_easy": {
        "rows": [
            "nmc_4l", "dpath", "coproc", "kdj11_4l",
            "icache", "nmc_6l", "dcache", "tna",
        ],
        "scale": 0.30,
        "boards_per_row": 3,
    },
}

#: Set-up samples whose median is ``setup_s``: fresh interpreters
#: importing the CLI (batch), cold routes (eco_edits), server starts.
BATCH_SETUP_REPEATS = 5
COLD_ROUTES = 3
SERVER_STARTS = 5
#: Nets cut and re-added by one ECO edit cycle.
NETS_PER_CYCLE = 8
#: Edit cycles per eco_edits round (one wall_s sample).
CYCLES_PER_ROUND = 25
#: Edit cycles between connectivity checks of the session state.
CHECK_EVERY = 100
#: Closed-loop HTTP clients of serve_easy.
CLIENTS = 2
#: Seconds any one HTTP request may take.
HTTP_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# inputs (parent process)
# ----------------------------------------------------------------------


def _write_board(board, directory: Path, stem: str) -> str:
    name = f"{stem}.board"
    with open(directory / name, "w", encoding="utf-8") as stream:
        write_board(board, stream)
    return name


def make_inputs(
    workload: str, seed: int, directory: Path, spec: Optional[dict] = None
) -> dict:
    """Generate ``workload``'s inputs for ``seed`` into ``directory``."""
    spec = SPECS[workload] if spec is None else spec
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "kdj11_hard":
        manifest = {
            "boards": [
                _write_board(
                    make_titan_board(name, scale=scale, seed=board_seed),
                    directory,
                    f"{name}-{scale}-{board_seed}",
                )
                for name, scale, board_seed in spec["boards"]
            ]
        }
    elif workload == "wavelocal_large":
        board = generate_board(
            BoardSpec(
                name="wavelocal",
                via_nx=spec["via_n"],
                via_ny=spec["via_n"],
                n_signal_layers=spec["layers"],
                netlist=NetlistSpec(
                    locality=0.9, local_radius=spec["radius"], seed=seed
                ),
                seed=seed,
            )
        )
        manifest = {"boards": [_write_board(board, directory, "wavelocal")]}
    elif workload == "eco_edits":
        board = make_titan_board(spec["config"], scale=spec["scale"], seed=seed)
        manifest = {"board": _write_board(board, directory, spec["config"])}
    elif workload == "serve_easy":
        # Native /route takes a connection list, so the client strings.
        problems = []
        for k in range(spec["boards_per_row"]):
            for row in spec["rows"]:
                board = make_titan_board(
                    row, scale=spec["scale"], seed=seed + 1000 * k
                )
                stem = f"{row}-{k}"
                connections = Stringer(board).string_all()
                save_connections(connections, directory / f"{stem}.conns")
                problems.append(
                    {
                        "board": _write_board(board, directory, stem),
                        "connections": f"{stem}.conns",
                    }
                )
        manifest = {"problems": problems}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return manifest


# ----------------------------------------------------------------------
# shared bookkeeping
# ----------------------------------------------------------------------


class Tally:
    """Per-run totals: operations, connections, quality, errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.restart()

    def restart(self) -> None:
        """Drop everything measured so far; operations and errors stay."""
        self.latencies: List[float] = []
        self.round_latencies: List[List[float]] = []
        self.rounds: List[float] = []
        self.round_routed: List[int] = []
        self.requested = 0
        self.routed = 0
        #: Route quality over the connections it was measured on.
        self.quality_conns = 0
        self.vias = 0
        self.wire = 0
        #: Per-layer counts read from return values.
        self.counts: Counter = Counter()

    def op(self, problems: Sequence[str]) -> None:
        """Count one operation and any problems it had."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems[:3])


def check_routes(
    board, workspace: RoutingWorkspace, connections, routed_ids: Set[int]
) -> List[str]:
    """Problems with routed state: DRC, broken routes, open nets.

    A partial result is correct when its routes pass DRC, each routed
    connection is a real path, and every net whose connections all
    routed is connected.
    """
    problems = []
    drc = run_drc(board, workspace)
    if not drc.clean:
        first = drc.errors[0]
        problems.append(
            f"DRC: {len(drc.errors)} errors ({first.rule}: {first.message})"
        )
    installed = {c.conn_id for c in connections if workspace.is_routed(c.conn_id)}
    if installed != routed_ids:
        problems.append(
            f"{len(installed)} routes installed, {len(routed_ids)} reported"
        )
    report = check_connectivity(board, workspace, connections)
    if report.broken_connections:
        problems.append(
            f"{len(report.broken_connections)} routes are not paths"
        )
    open_nets = {c.net_id for c in connections if c.conn_id not in routed_ids}
    disconnected = [
        n.net_id
        for n in report.nets
        if not n.connected and n.net_id not in open_nets
    ]
    if disconnected:
        problems.append(f"{len(disconnected)} fully routed nets disconnected")
    return problems


def _reload_and_check(
    board, connections, routes_text: str, routed_ids: Set[int], tracer
) -> tuple:
    """Load a route dump into a fresh workspace and check it."""
    with tracer.span("workspace.build"):
        workspace = RoutingWorkspace(board)
    restored = load_routes(workspace, io.StringIO(routes_text))
    problems = check_routes(board, workspace, connections, routed_ids)
    if len(restored) != len(routed_ids):
        problems.append(
            f"dump restored {len(restored)} routes, {len(routed_ids)} routed"
        )
    return workspace, problems


def _note_quality(tally: Tally, workspace, conn_ids) -> None:
    for conn_id in conn_ids:
        record = workspace.records.get(conn_id)
        if record is not None:
            tally.quality_conns += 1
            tally.vias += record.via_count
            tally.wire += record.wire_length


def _note_route(tally: Tally, workspace, result, cache0, bounds0) -> None:
    """Fold one route call's counters into the per-layer counts."""
    hits, misses, bypassed = workspace.gap_cache_stats()
    lb_hits, lb_rebuilds = workspace.bounds_stats()
    counts = tally.counts
    counts["gap_cache.hits"] += hits - cache0[0]
    counts["gap_cache.misses"] += misses - cache0[1]
    counts["gap_cache.bypassed"] += bypassed - cache0[2]
    counts["bounds.lb_hits"] += lb_hits - bounds0[0]
    counts["bounds.lb_rebuilds"] += lb_rebuilds - bounds0[1]
    counts["router.passes"] += result.passes
    counts["ripup.displaced"] += result.rip_up_count


def _guarded(tally: Tally, label: str, fn: Callable[[], List[str]]) -> None:
    """Run one operation; an exception is a failed operation."""
    try:
        problems = fn()
    except Exception as exc:  # every failure is reported, never fatal
        traceback.print_exc(file=sys.stderr)
        problems = [f"{type(exc).__name__}: {exc}"]
    tally.op([f"{label}: {p}" for p in problems])


def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _measure(run_round: Callable[[], float], seconds: float, tally: Tally) -> None:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    started = time.perf_counter()
    while True:
        first = len(tally.latencies)
        tally.rounds.append(run_round())
        tally.round_latencies.append(tally.latencies[first:])
        gc.collect()
        if time.perf_counter() - started >= seconds:
            return


# ----------------------------------------------------------------------
# batch jobs: kdj11_hard, wavelocal_large
# ----------------------------------------------------------------------


def batch_job(board_path: Path, tally: Tally, tracer=NULL_TRACER) -> float:
    """``grr route`` then ``grr verify`` on one board file, in-process;
    returns the job's wall time."""
    routes_path = board_path.with_suffix(".routes")

    def job() -> List[str]:
        with tracer.span("io.load"):
            loaded = load_board(board_path)
        board, connections = loaded.board, list(loaded.connections)
        with tracer.span("workspace.build"):
            workspace = RoutingWorkspace(board)
        cache0, bounds0 = workspace.gap_cache_stats(), workspace.bounds_stats()
        result = make_router(board, RouterConfig(), workspace).route(connections)
        with tracer.span("io.export"):
            save_routes(workspace, routes_path)
        with tracer.span("verify"):
            routed_ids = set(result.routed_by)
            _, problems = _reload_and_check(
                board,
                connections,
                routes_path.read_text(encoding="utf-8"),
                routed_ids,
                tracer,
            )
        _note_route(tally, workspace, result, cache0, bounds0)
        tally.requested += len(connections)
        tally.routed += result.routed_count
        _note_quality(tally, workspace, routed_ids)
        return problems

    started = time.perf_counter()
    with tracer.job():
        _guarded(tally, board_path.name, job)
    tally.latencies.append(time.perf_counter() - started)
    return tally.latencies[-1]


def _interpreter_setup() -> List[float]:
    """Wall time of fresh interpreters importing the CLI.

    No timeout: waiting with one polls the child in steps of up to
    50 ms, which would quantize the samples.
    """
    samples = []
    for _ in range(BATCH_SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        samples.append(time.perf_counter() - started)
    return samples


def run_batch(inputs: Path, manifest: dict, seconds: float, trace: bool) -> dict:
    boards = [inputs / name for name in manifest["boards"]]
    tally = Tally()

    def run_round(tracer=NULL_TRACER) -> float:
        routed = tally.routed
        started = time.perf_counter()
        for board_path in boards:
            batch_job(board_path, tally, tracer)
        tally.round_routed.append(tally.routed - routed)
        return time.perf_counter() - started

    if trace:
        # Warm up, or the first untraced job runs cold and skews the
        # overhead; its errors still count.
        run_round()
        tally.restart()
        jobs = [
            lambda tracer, path=path: batch_job(path, tally, tracer)
            for path in boards
        ]
        tracer, overhead_pct = _trace_units(tally, jobs)
        return _report(tally, layer_metrics(tracer, tally, overhead_pct), tracer)
    setup = _interpreter_setup()
    _measure(run_round, seconds, tally)
    return _report(tally, end_to_end_metrics(tally, setup, _rss_mb()))


# ----------------------------------------------------------------------
# eco_edits
# ----------------------------------------------------------------------


def open_session(board_path: Path):
    """Cold-route a board and adopt it as an ECO session."""
    loaded = load_board(board_path)
    workspace = RoutingWorkspace(loaded.board)
    result = make_router(loaded.board, RouterConfig(), workspace).route(
        list(loaded.connections)
    )
    return EcoSession(
        loaded.board,
        loaded.connections,
        workspace=workspace,
        routed_by=result.routed_by,
    )


class EditLoop:
    """Closed-loop ECO edits over a routed board.

    Slots are the board's multi-pin signal nets.  Cycle ``k`` cuts the
    nets in slots ``k, k + step, ...`` -- eight nets spread over the
    board -- re-adds their non-terminator pins as new nets, and
    reroutes; the new nets take over the slots, so a later cycle cuts
    what an earlier one created.  The window moves one slot per cycle,
    so the loop edits every net in turn instead of the same eight.
    """

    def __init__(self, session: EcoSession) -> None:
        self.session = session
        board = session.board
        self.slots = [n.net_id for n in board.signal_nets if len(n.pin_ids) >= 2]
        self.step = max(1, len(self.slots) // NETS_PER_CYCLE)
        self.cycle = 0

    def _window(self) -> List[int]:
        count = min(NETS_PER_CYCLE, len(self.slots))
        return sorted(
            {(self.cycle + j * self.step) % len(self.slots) for j in range(count)}
        )

    def run_cycle(self, tally: Tally, tracer=NULL_TRACER) -> None:
        session, board = self.session, self.session.board
        window = self._window()
        nets = [self.slots[i] for i in window]
        groups = [
            [
                p
                for p in board.nets[net_id].pin_ids
                if board.pins[p].role is not PinRole.TERMINATOR
            ]
            for net_id in nets
        ]
        unrouted = set(session.pending)
        state = {}

        def cycle() -> List[str]:
            with tracer.span("eco.cut"):
                cut = session.cut_nets(nets)
            with tracer.span("eco.add"):
                added = session.add_nets(groups)
            workspace = session.workspace
            cache0 = workspace.gap_cache_stats()
            bounds0 = workspace.bounds_stats()
            with tracer.span("eco.reroute"):
                response = session.reroute()
            state.update(
                cut=cut, added=added, response=response, marks=(cache0, bounds0)
            )
            return []

        started = time.perf_counter()
        with tracer.job():
            _guarded(tally, f"cycle {self.cycle}", cycle)
        tally.latencies.append(time.perf_counter() - started)
        self.cycle += 1
        if "response" not in state:
            return
        added, response = state["added"], state["response"]
        for slot, net_id in zip(window, added.net_ids):
            self.slots[slot] = net_id
        # Rerouted: what was pending, not victims the router moved.
        pending = (unrouted - set(state["cut"].dropped)) | set(added.added)
        workspace = session.workspace
        tally.requested += len(pending)
        tally.routed += sum(1 for c in pending if workspace.is_routed(c))
        counters = response.counters
        tally.counts["eco.invalidated"] += counters["eco_invalidated"]
        tally.counts["eco.reused"] += counters["eco_reused"]
        _note_route(tally, session.workspace, response.result, *state["marks"])
        _note_quality(tally, session.workspace, added.added)

    def check(self, tally: Tally) -> None:
        """Connectivity and DRC of the session state (one operation)."""
        session = self.session
        routed_ids = {
            c.conn_id
            for c in session.connections
            if session.workspace.is_routed(c.conn_id)
        }
        _guarded(
            tally,
            f"check after cycle {self.cycle}",
            lambda: check_routes(
                session.board, session.workspace, session.connections, routed_ids
            ),
        )


def run_eco(inputs: Path, manifest: dict, seconds: float, trace: bool) -> dict:
    board_path = inputs / manifest["board"]
    tally = Tally()
    setup: List[float] = []
    session = None
    for _ in range(1 if trace else COLD_ROUTES):
        if session is not None:
            session.close()
        started = time.perf_counter()
        session = open_session(board_path)
        setup.append(time.perf_counter() - started)
    loop = EditLoop(session)
    loop.check(tally)

    def run_round(tracer=NULL_TRACER) -> float:
        routed = tally.routed
        started = time.perf_counter()
        for _ in range(CYCLES_PER_ROUND):
            loop.run_cycle(tally, tracer)
        wall = time.perf_counter() - started
        tally.round_routed.append(tally.routed - routed)
        if loop.cycle % CHECK_EVERY == 0:
            loop.check(tally)
        return wall

    try:
        if trace:
            rounds = [run_round] * (CHECK_EVERY // CYCLES_PER_ROUND)
            tracer, overhead_pct = _trace_units(tally, rounds)
        else:
            _measure(run_round, seconds, tally)
        if loop.cycle % CHECK_EVERY:
            loop.check(tally)
    finally:
        session.close()
    if trace:
        return _report(tally, layer_metrics(tracer, tally, overhead_pct), tracer)
    return _report(tally, end_to_end_metrics(tally, setup, _rss_mb()))


# ----------------------------------------------------------------------
# serve_easy
# ----------------------------------------------------------------------


def start_server() -> tuple:
    """Spawn ``grr serve --port 0``; (process, port, seconds to banner)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        for line in proc.stdout:
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[1])
                return proc, port, time.perf_counter() - started
        raise RuntimeError(f"grr serve exited {proc.wait()} before listening")
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM, wait, and kill if it does not stop."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def post_route(port: int, problem: dict, include_routes: bool = False) -> dict:
    """One ``POST /route``; latency, status and the job payload."""
    body = json.dumps(
        {
            "board": problem["board_text"],
            "connections": problem["connections_text"],
            "include_routes": include_routes,
        }
    ).encode()
    started = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        conn.request(
            "POST", "/route", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        payload = json.loads(response.read() or b"{}")
        status = response.status
    finally:
        conn.close()
    return {
        "latency": time.perf_counter() - started,
        "status": status,
        "payload": payload,
    }


def _route_problems(reply: dict) -> List[str]:
    payload = reply["payload"]
    if reply["status"] != 200 or payload.get("state") != "done":
        return [f"HTTP {reply['status']}: {payload.get('error')}"]
    return []


def serve_round(port: int, problems: List[dict], tally: Tally) -> tuple:
    """Every problem once, from CLIENTS closed-loop clients.

    Returns (round wall, replies); each client sends its next request
    only after the previous reply arrived.
    """
    todo: "queue.Queue[int]" = queue.Queue()
    for index in range(len(problems)):
        todo.put(index)
    replies: List[List[dict]] = [[] for _ in range(CLIENTS)]

    def client(mine: List[dict]) -> None:
        while True:
            try:
                index = todo.get_nowait()
            except queue.Empty:
                return
            try:
                reply = post_route(port, problems[index])
            except Exception as exc:  # reported as a failed request
                reply = {"latency": 0.0, "status": 0, "payload": {"error": repr(exc)}}
            mine.append(reply)

    threads = [
        threading.Thread(target=client, args=(mine,)) for mine in replies
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=HTTP_TIMEOUT * len(problems))
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve client threads did not finish")
    routed = 0
    flat = [reply for mine in replies for reply in mine]
    for reply in flat:
        problems_seen = _route_problems(reply)
        tally.op(problems_seen)
        if problems_seen:
            continue
        tally.latencies.append(reply["latency"])
        result = reply["payload"]["result"]
        tally.requested += result["total"]
        routed += result["routed"]
    tally.routed += routed
    tally.round_routed.append(routed)
    return wall, flat


def verify_served(port: int, problem: dict, tally: Tally) -> None:
    """Route once with the dump included and check the dump."""

    def check() -> List[str]:
        reply = post_route(port, problem, include_routes=True)
        problems = _route_problems(reply)
        if problems:
            return problems
        result = reply["payload"]["result"]
        if not result["complete"]:
            return [f"{result['failed']} connections unrouted"]
        with open(problem["board_path"], encoding="utf-8") as stream:
            board = read_board(stream)
        with open(problem["connections_path"], encoding="utf-8") as stream:
            connections: List[Connection] = list(read_connections(stream))
        routed_ids = {c.conn_id for c in connections}
        workspace, problems = _reload_and_check(
            board, connections, result["routes"], routed_ids, NULL_TRACER
        )
        _note_quality(tally, workspace, routed_ids)
        return problems

    _guarded(tally, f"verify {Path(problem['board_path']).name}", check)


def run_serve(inputs: Path, manifest: dict, seconds: float, trace: bool) -> dict:
    problems = []
    for entry in manifest["problems"]:
        board_path = inputs / entry["board"]
        connections_path = inputs / entry["connections"]
        problems.append(
            {
                "board_path": str(board_path),
                "connections_path": str(connections_path),
                "board_text": board_path.read_text(encoding="utf-8"),
                "connections_text": connections_path.read_text(encoding="utf-8"),
            }
        )
    tally = Tally()
    setup: List[float] = []
    proc = None
    try:
        for _ in range(1 if trace else SERVER_STARTS):
            if proc is not None:
                stop_server(proc)
            proc, port, seconds_to_banner = start_server()
            setup.append(seconds_to_banner)
        if trace:
            # The server is another process: its breakdown comes from
            # the replies, and there is no in-process tracer to time.
            _, replies = serve_round(port, problems, tally)
            return _report(tally, layer_metrics(Tracer(), tally, 0.0, replies))
        for problem in problems:
            verify_served(port, problem, tally)
        _measure(lambda: serve_round(port, problems, tally)[0], seconds, tally)
    finally:
        if proc is not None:
            stop_server(proc)
    rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)
    return _report(tally, end_to_end_metrics(tally, setup, rss_mb))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _metric(value: float, n: int, samples: Sequence[float] = ()) -> dict:
    """A value over ``n`` measurements, plus the per-round (or per-repeat)
    samples whose spread shows how noisy the value is."""
    out = {"value": value, "n": n}
    if samples:
        out.update(summarize(samples))
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _report(tally: Tally, metrics: dict, tracer: Optional[Tracer] = None) -> dict:
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        "tracer": tracer,
    }


def end_to_end_metrics(tally: Tally, setup: Sequence[float], rss_mb: float) -> dict:
    """End-to-end metrics of an untraced run.

    Timings are medians (percentiles for latency) over the whole run;
    their samples are per round, or per set-up repeat.
    """
    latencies = tally.latencies or [0.0]
    per_round = [r for r in tally.round_latencies if r] or [latencies]
    rates = [
        _ratio(routed, wall)
        for routed, wall in zip(tally.round_routed, tally.rounds)
    ]

    def latency(q: float) -> dict:
        return _metric(
            percentile(latencies, q),
            len(tally.latencies),
            [percentile(r, q) for r in per_round],
        )

    return {
        "setup_s": _metric(statistics.median(setup), len(setup), setup),
        "wall_s": _metric(statistics.median(tally.rounds), len(tally.rounds), tally.rounds),
        "conns_per_s": _metric(statistics.median(rates), len(rates), rates),
        "latency_p50_s": latency(50),
        "latency_p90_s": latency(90),
        "routed_frac": _metric(_ratio(tally.routed, tally.requested), tally.requested),
        "vias_per_conn": _metric(
            _ratio(tally.vias, tally.quality_conns), tally.quality_conns
        ),
        "wire_per_conn": _metric(
            _ratio(tally.wire, tally.quality_conns), tally.quality_conns
        ),
        "peak_rss_mb": _metric(rss_mb, 1),
    }


def _trace_units(tally: Tally, units: Sequence[Callable]) -> tuple:
    """Each unit untraced, traced, untraced: (tracer, overhead in percent).

    A unit takes a tracer and returns its wall time.  Back-to-back runs
    of the same unit see the same host load, so the overhead compares
    each traced run with the mean of its neighbours.  Only the traced
    runs' counts are kept.
    """
    tracer = Tracer()
    counts: Counter = Counter()
    traced = untraced = 0.0
    for unit in units:
        untraced += unit(NULL_TRACER) / 2.0
        before = Counter(tally.counts)
        with tracer.installed():
            traced += unit(tracer)
        counts += tally.counts - before
        untraced += unit(NULL_TRACER) / 2.0
    tally.counts = counts
    return tracer, 100.0 * (traced / untraced - 1.0)


def layer_metrics(
    tracer: Tracer,
    tally: Tally,
    overhead_pct: float,
    replies: Sequence[dict] = (),
) -> Dict[str, float]:
    """Every per-layer metric; layers a workload never enters read 0."""
    own, calls = tracer.self_s, tracer.calls
    counts = tally.counts + tracer.counts
    served = [r for r in replies if not _route_problems(r)]
    queued = [r["payload"]["queued_seconds"] for r in served]
    routing = [r["payload"]["result"]["elapsed_seconds"] for r in served]
    overheads = [
        r["latency"] - q - e for r, q, e in zip(served, queued, routing)
    ]
    gap_hits, gap_misses = counts["gap_cache.hits"], counts["gap_cache.misses"]

    def p50(samples: Sequence[float]) -> float:
        return statistics.median(samples) if samples else 0.0

    return {
        "job.wall_s": tracer.job_wall(),
        "job.calls": calls["job"],
        "job.unattributed_s": own["job"],
        "io.load.self_s": own["io.load"],
        "stringer.self_s": own["stringer"],
        "stringer.calls": calls["stringer"],
        "workspace.build.self_s": own["workspace.build"],
        "sorting.self_s": own["sorting"],
        "router.self_s": own["router"],
        "router.passes": counts["router.passes"],
        "optimal.zero_via.self_s": own["optimal.zero_via"],
        "optimal.zero_via.calls": calls["optimal.zero_via"],
        "optimal.zero_via.hit_ratio": _ratio(
            counts["optimal.zero_via.hits"], calls["optimal.zero_via"]
        ),
        "optimal.one_via.self_s": own["optimal.one_via"],
        "optimal.one_via.calls": calls["optimal.one_via"],
        "optimal.one_via.hit_ratio": _ratio(
            counts["optimal.one_via.hits"], calls["optimal.one_via"]
        ),
        "single_layer.trace.self_s": own["single_layer.trace"],
        "single_layer.trace.calls": calls["single_layer.trace"],
        "single_layer.reachable_vias.self_s": own["single_layer.reachable_vias"],
        "single_layer.reachable_vias.calls": calls["single_layer.reachable_vias"],
        "lee.self_s": own["lee"],
        "lee.calls": calls["lee"],
        "lee.routed_ratio": _ratio(counts["lee.routed"], calls["lee"]),
        "lee.expansions": counts["lee.expansions"],
        "lee.gaps_examined": counts["lee.gaps_examined"],
        "lee.cap_hits": counts["lee.cap_hits"],
        "bounds.self_s": own["bounds"],
        "bounds.calls": calls["bounds"],
        "bounds.lb_hits": counts["bounds.lb_hits"],
        "bounds.lb_rebuilds": counts["bounds.lb_rebuilds"],
        "gap_cache.hits": gap_hits,
        "gap_cache.misses": gap_misses,
        "gap_cache.bypassed": counts["gap_cache.bypassed"],
        "gap_cache.hit_ratio": _ratio(gap_hits, gap_hits + gap_misses),
        "ripup.self_s": own["ripup"],
        "ripup.calls": calls["ripup"],
        "ripup.victims": counts["ripup.victims"],
        "ripup.displaced": counts["ripup.displaced"],
        "workspace.putback.self_s": own["workspace.putback"],
        "workspace.putback.calls": calls["workspace.putback"],
        "workspace.putback.restored_ratio": _ratio(
            counts["workspace.putback.restored"], calls["workspace.putback"]
        ),
        "io.export.self_s": own["io.export"],
        "verify.self_s": own["verify"],
        "eco.cut.self_s": own["eco.cut"],
        "eco.add.self_s": own["eco.add"],
        "eco.reroute.self_s": own["eco.reroute"],
        "eco.invalidated": counts["eco.invalidated"],
        "eco.reused": counts["eco.reused"],
        "serve.queue_s": p50(queued),
        "serve.route_s": p50(routing),
        "serve.overhead_s": p50(overheads),
        "trace.overhead_pct": overhead_pct,
    }


RUNNERS = {
    "kdj11_hard": run_batch,
    "wavelocal_large": run_batch,
    "eco_edits": run_eco,
    "serve_easy": run_serve,
}


def run(
    workload: str,
    inputs: Path,
    seconds: float,
    trace: bool,
    trace_out: Optional[str] = None,
) -> dict:
    """Run one workload on generated inputs; the JSON-ready result."""
    manifest = json.loads((inputs / "manifest.json").read_text())
    result = RUNNERS[workload](inputs, manifest, seconds, trace)
    tracer = result.pop("tracer", None)
    if tracer is not None and trace_out:
        tracer.write_jsonl(trace_out, workload)
    result["workload"] = workload
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run(
        args.workload, args.inputs, args.seconds, bool(args.trace), args.trace_out
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
