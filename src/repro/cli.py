"""Command-line interface: the grr flow as a tool.

Subcommands mirror the original toolchain:

* ``grr generate`` — synthesise a Table-1-style board file;
* ``grr string``   — run the stringer: board file -> connection file;
* ``grr route``    — route a connection file, write the route dump and a
  Table-1-style report;
* ``grr render``   — regenerate the Figure 20/21/22 artifacts from a
  board + connections + routes;
* ``grr table1``   — run the whole Table 1 reproduction.
* ``grr eco``      — apply engineering change orders to a routed board
  and incrementally reroute only what the edits invalidated.
* ``grr serve``    — long-lived routing service over HTTP with warm
  ECO sessions, admission control and SSE event streaming.

Every command reads/writes the text formats of :mod:`repro.io`.  The
module itself imports only the standard library: each command imports
the part of the router it runs, so ``grr --help`` and ``grr serve``
start without the routing stack.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


class UsageError(SystemExit):
    """A command line the parser accepted but its command cannot use.

    Raised with its message; exits 2 like argparse's own usage errors
    (:func:`main` prints the message as one stderr line), since exit 1
    is the routing-failure code.
    """

    @property
    def code(self) -> int:
        return 2


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.io import save_board
    from repro.workloads import make_titan_board

    board = make_titan_board(args.config, scale=args.scale, seed=args.seed)
    # Registry writer: a .kicad_pcb destination gets a KiCad document.
    save_board(board, args.board)
    print(
        f"wrote {args.board}: {board.grid.via_nx}x{board.grid.via_ny} via "
        f"sites, {len(board.parts)} parts, {len(board.signal_nets)} "
        f"signal nets"
    )
    return 0


def _cmd_string(args: argparse.Namespace) -> int:
    from repro.io import load_board, save_connections

    loaded = load_board(args.board, format=args.format)
    save_connections(loaded.connections, args.connections)
    print(
        f"wrote {args.connections}: {len(loaded.connections)} connections"
    )
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, table1_row
    from repro.api import RouteRequest, route
    from repro.io import save_routes
    from repro.obs import JsonlSink

    loaded, routes_out = _load_inputs(
        args, "connections", "routes", reads_routes=False, kicad_out="routed"
    )
    board = loaded.board
    connections = list(loaded.pending)
    config = _router_config(args)
    sink = JsonlSink(args.trace) if args.trace else None
    if loaded.restored:
        print(
            f"restored {len(loaded.restored)} routed connections from "
            f"{args.board}; {len(connections)} left to route"
        )
    try:
        response = route(
            RouteRequest(
                board=board,
                connections=connections,
                config=config,
                sink=sink,
                workspace=loaded.workspace,
            )
        )
    finally:
        if sink is not None:
            sink.close()
    result = response.result
    if sink is not None:
        print(f"trace: {sink.emitted} events -> {args.trace}")
    if config.audit:
        print("audit: all post-pass invariant checks passed")
    if args.profile:
        _print_profile(response)
    save_routes(result.workspace, routes_out, source=loaded.source)
    print(format_table([table1_row(board, connections, result)]))
    return _exit_status(
        len(result.failed),
        result.total_count,
        result.stopped_reason,
        routes_out,
    )


def _load_inputs(
    args: argparse.Namespace,
    *files: str,
    reads_routes: bool = True,
    kicad_out: Optional[str] = None,
):
    """Resolve the positionals of ``grr route``, ``eco``, ``verify`` and
    ``render`` for both formats and load them.

    ``files`` names the positionals after BOARD, in order.  A native
    board needs them all: the connection file, then the route dump to
    restore when the command ``reads_routes``, then the output when it
    writes one.  A ``.kicad_pcb`` embeds its netlist and routes, so the
    one positional after it is the optional output document of a
    command that writes one (``kicad_out``), defaulting to
    ``BOARD.<kicad_out>.kicad_pcb``.  Returns ``(loaded, output_path)``.
    """
    import os

    from repro.io import FORMAT_KICAD, detect_format, load_board

    # Only grr route takes --format and --pitch-mm.
    fmt = getattr(args, "format", "auto")
    pitch_mm = getattr(args, "pitch_mm", None)
    values = [getattr(args, name) for name in files]
    if detect_format(args.board, fmt) == FORMAT_KICAD:
        out = values.pop(0) if kicad_out else None
        if any(value is not None for value in values):
            usage = " [OUT.kicad_pcb]" if kicad_out else ""
            raise UsageError(
                "kicad boards embed their netlist and routes: usage is "
                f"'grr {args.command} BOARD.kicad_pcb{usage}'"
            )
        if kicad_out and out is None:
            stem = os.path.splitext(args.board)[0]
            out = f"{stem}.{kicad_out}.kicad_pcb"
        return load_board(args.board, format=fmt, pitch_mm=pitch_mm), out
    if None in values:
        raise UsageError(
            "native boards need explicit files: usage is "
            f"'grr {args.command} BOARD {' '.join(map(str.upper, files))}'"
        )
    connections, *rest = values
    routes = rest.pop(0) if reads_routes else None
    loaded = load_board(
        args.board,
        format=fmt,
        connections_path=connections,
        routes_path=routes,
        pitch_mm=pitch_mm,
    )
    return loaded, rest[0] if rest else None


def _router_config(args: argparse.Namespace):
    """The :class:`RouterConfig` of the routing options ``grr route``
    and ``grr eco`` share."""
    from repro.core.budget import RouteBudget
    from repro.core.router import RouterConfig

    config = RouterConfig(
        radius=args.radius,
        cost=args.cost,
        budget=RouteBudget(
            deadline_seconds=args.timeout,
            per_connection_seconds=args.per_connection_timeout,
        ),
    )
    if args.audit:
        # --audit forces it on; otherwise the GRR_AUDIT env default holds.
        config.audit = True
    return config


def _exit_status(
    failed: int, total: int, stopped_reason: Optional[str], routes_out: str
) -> int:
    """Report how a ``grr route`` or ``grr eco`` run ended; returns its
    exit status."""
    from repro.core.budget import STOP_DEADLINE

    if not failed:
        print(f"wrote {routes_out}")
        return 0
    reason = f" ({stopped_reason})" if stopped_reason else ""
    print(f"FAILED: {failed} connections unrouted{reason}", file=sys.stderr)
    # A deadline-limited partial is a *successful degradation*, not a
    # routing failure; give it its own exit code so callers can tell
    # "board too hard" (1) from "clock ran out" (3).
    if stopped_reason == STOP_DEADLINE:
        print(
            f"partial result kept: {total - failed}/{total} connections "
            "routed",
            file=sys.stderr,
        )
        return 3
    return 1


def _print_profile(response) -> None:
    """Print a run's per-phase timing table, its counts and why it
    stopped short (``--profile`` of ``grr route`` and ``grr eco``)."""
    print("profile:")
    for row in response.profile.rows():
        print(
            f"  {row['phase']:<12} {row['calls']:>8} calls "
            f"{row['seconds']:>8.3f}s {row['pct']:>5.1f}%"
        )
    counters = response.counters
    hits = counters.pop("gap_cache_hits")
    misses = counters.pop("gap_cache_misses")
    if hits or misses:
        print(
            f"  gap lists: {hits} reused / {misses} built "
            f"({100.0 * hits / (hits + misses):.1f}% reused)"
        )
    for counter, amount in sorted(counters.items()):
        print(f"  {counter}: {amount}")
    if response.stopped_reason is not None:
        print(f"  stopped reason: {response.stopped_reason}")


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.extensions.power_plane import generate_power_plane
    from repro.viz import (
        render_power_plane,
        render_problem,
        render_signal_layer,
    )

    loaded, _ = _load_inputs(args, "connections", "routes")
    board, workspace = loaded.board, loaded.workspace
    prefix = args.prefix
    render_problem(board, loaded.connections, path=f"{prefix}_problem.ppm")
    render_signal_layer(board, workspace, 0, path=f"{prefix}_layer0.ppm")
    outputs = [f"{prefix}_problem.ppm", f"{prefix}_layer0.ppm"]
    if board.power_nets:
        pattern = generate_power_plane(
            board, workspace, board.power_nets[0].net_id
        )
        render_power_plane(board, pattern, path=f"{prefix}_plane.ppm")
        outputs.append(f"{prefix}_plane.ppm")
    print("wrote " + ", ".join(outputs))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import check_connectivity, run_drc

    loaded, _ = _load_inputs(args, "connections", "routes")
    board, workspace = loaded.board, loaded.workspace
    drc = run_drc(board, workspace)
    connectivity = check_connectivity(board, workspace, loaded.connections)
    print(f"routes loaded: {len(loaded.restored)}")
    print(
        f"DRC: {len(drc.errors)} errors, {len(drc.warnings)} warnings"
    )
    for violation in drc.errors[:20]:
        print(f"  ERROR {violation.rule}: {violation.message}")
    for violation in drc.warnings[:5]:
        print(f"  warn  {violation.rule}: {violation.message}")
    disconnected = [n for n in connectivity.nets if not n.connected]
    print(
        f"connectivity: {len(connectivity.nets)} nets, "
        f"{len(disconnected)} disconnected, "
        f"{len(connectivity.broken_connections)} broken routes, "
        f"{len(connectivity.shorted_pins)} pins shared by nets"
    )
    for pin_id, net_ids in list(connectivity.shorted_pins.items())[:20]:
        print(f"  ERROR shorted pin {pin_id}: nets {net_ids}")
    ok = drc.clean and connectivity.fully_connected
    print("VERDICT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _parse_move(spec: str):
    """Parse one ``--move-part PART:VX,VY`` spec."""
    from repro.grid.coords import ViaPoint

    try:
        part_text, coords = spec.split(":", 1)
        vx_text, vy_text = coords.split(",", 1)
        return int(part_text), ViaPoint(int(vx_text), int(vy_text))
    except ValueError:
        raise UsageError(
            f"bad --move-part spec {spec!r} (expected PART:VX,VY)"
        )


def _parse_pin_group(spec: str) -> List[int]:
    """Parse one ``--add-net P1,P2,...`` spec."""
    try:
        pins = [int(p) for p in spec.split(",") if p]
    except ValueError:
        raise UsageError(
            f"bad --add-net spec {spec!r} (expected PIN,PIN,...)"
        )
    return pins


def _cmd_eco(args: argparse.Namespace) -> int:
    from repro.eco import EcoError, EcoSession
    from repro.io import FormatError, save_board, save_connections, save_routes
    from repro.obs import JsonlSink

    loaded, routes_out = _load_inputs(
        args, "connections", "routes_in", "routes_out", kicad_out="eco"
    )
    config = _router_config(args)
    sink = JsonlSink(args.trace) if args.trace else None
    try:
        with EcoSession(
            loaded.board,
            loaded.connections,
            config=config,
            sink=sink,
            workspace=loaded.workspace,
        ) as session:
            for net_id in args.cut_net:
                stats = session.cut_nets([net_id])
                print(
                    f"cut net {net_id}: {len(stats.dropped)} "
                    f"connections dropped, {len(stats.ripped)} ripped"
                )
            for part_id, origin in (
                _parse_move(spec) for spec in args.move_part
            ):
                stats = session.move_part(part_id, origin)
                print(
                    f"move part {part_id} -> {origin.vx},{origin.vy}: "
                    f"{len(stats.invalidated)} invalidated, "
                    f"{len(stats.cascades)} cascade rip-ups"
                )
            for group in (
                _parse_pin_group(spec) for spec in args.add_net
            ):
                stats = session.add_nets([group])
                print(
                    f"add net over pins {group}: "
                    f"{len(stats.added)} connections strung"
                )
            response = session.reroute()
            counters = response.counters
            print(
                f"eco reroute: {counters.get('eco_invalidated', 0)} "
                f"invalidated, {counters.get('eco_reused', 0)} reused, "
                f"{counters.get('eco_rerouted', 0)} rerouted"
            )
            if args.profile:
                _print_profile(response)
            save_routes(
                session.workspace, routes_out, source=loaded.source
            )
            # The side writers follow the same extension-detection rules
            # as inputs: --write-board out.kicad_pcb gets a KiCad doc.
            try:
                if args.write_board:
                    save_board(session.board, args.write_board)
                    print(f"wrote {args.write_board}")
                if args.write_connections:
                    save_connections(
                        session.connections, args.write_connections
                    )
                    print(f"wrote {args.write_connections}")
            except FormatError as exc:
                print(f"output rejected: {exc}", file=sys.stderr)
                return 2
            total = len(session.connections)
    except EcoError as exc:
        print(f"ECO rejected: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        print(f"trace: {sink.emitted} events -> {args.trace}")
    return _exit_status(
        len(response.result.failed), total, response.stopped_reason, routes_out
    )


def _cmd_kicad(args: argparse.Namespace) -> int:
    from repro.io import load_board, save_board, save_connections, save_routes

    loaded = load_board(
        args.board,
        format="kicad",
        # Only export reads a route dump.
        routes_path=getattr(args, "routes", None),
        pitch_mm=args.pitch_mm,
    )
    if args.action == "inspect":
        for key, value in loaded.source.summary().items():
            print(f"{key}: {value}")
        return 0
    if args.action == "import":
        save_board(loaded.board, args.out_board)
        save_connections(loaded.connections, args.out_connections)
        print(
            f"wrote {args.out_board} ({len(loaded.board.parts)} parts, "
            f"{len(loaded.board.nets)} nets) and {args.out_connections} "
            f"({len(loaded.connections)} connections)"
        )
        if args.out_routes:
            # Only restored route records survive the native dump; the
            # dispersion traces are re-derived on any later import.
            save_routes(loaded.workspace, args.out_routes, format="native")
            print(
                f"wrote {args.out_routes} "
                f"({len(loaded.restored)} restored routes)"
            )
        return 0
    # export: the route dump, restored beside the document's own routes,
    # written back into it as copper
    save_routes(
        loaded.workspace, args.out, format="kicad", source=loaded.source
    )
    print(
        f"wrote {args.out}: {len(loaded.restored)} routed connections as "
        "copper"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import JsonlSink
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        max_queue_depth=args.queue_depth,
        default_deadline_seconds=args.timeout,
        session_ttl_seconds=args.idle_ttl,
    )
    sink = JsonlSink(args.trace) if args.trace else None
    try:
        return run_server(config, sink=sink)
    finally:
        if sink is not None:
            sink.close()


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, table1_row
    from repro.core.router import GreedyRouter
    from repro.stringer import Stringer
    from repro.workloads import TITAN_CONFIGS, make_titan_board

    rows = []
    for name in TITAN_CONFIGS:
        board = make_titan_board(name, scale=args.scale, seed=args.seed)
        connections = Stringer(board).string_all()
        result = GreedyRouter(board).route(connections)
        rows.append(table1_row(board, connections, result))
    print(format_table(rows, title="Table 1 reproduction"))
    return 0


class _TitanConfigNames:
    """``grr generate --config`` choices: the names of
    :data:`repro.workloads.titan.TITAN_CONFIGS`, sorted, imported only
    when argparse iterates them."""

    def __iter__(self):
        from repro.workloads.titan import TITAN_CONFIGS

        return iter(sorted(TITAN_CONFIGS))


def _routing_options() -> argparse.ArgumentParser:
    """The options ``grr route`` and ``grr eco`` share, as a parent
    parser (read by :func:`_router_config`)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument(
        "--cost",
        default="distance_hops",
        choices=["unit", "distance", "distance_hops"],
    )
    p.add_argument(
        "--timeout",
        type=float,
        metavar="SECS",
        default=None,
        help="total wall-clock deadline; on exhaustion keep the partial "
        "result and exit 3 instead of routing to completion",
    )
    p.add_argument(
        "--per-connection-timeout",
        type=float,
        metavar="SECS",
        default=None,
        help="wall-clock limit per connection (strategies + rip-up)",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the routing event stream as JSONL to PATH",
    )
    p.add_argument(
        "--audit",
        action="store_true",
        help="verify workspace invariants after every pass "
        "(also enabled by GRR_AUDIT=1)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase timings and event counters "
        "(gap lists reused/built, search cap hits)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    """The grr argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="grr",
        description="greedy printed-circuit-board router (Dion, DAC 1987)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a Table-1-style board")
    p.add_argument("board", help="output board file")
    config = p.add_argument("--config", default="tna")
    # Set after add_argument, which reads the choices once to check the
    # metavar; argparse reads them again only to check a value or print
    # this command's help.
    config.choices = _TitanConfigNames()
    p.add_argument("--scale", type=float, default=0.30)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("string", help="net stringing (Section 3)")
    p.add_argument("board", help="input board file (native or .kicad_pcb)")
    p.add_argument("connections", help="output connection file")
    p.add_argument(
        "--format",
        default="auto",
        choices=["auto", "native", "kicad"],
        help="input board format (default: by extension)",
    )
    p.set_defaults(func=_cmd_string)

    # A parent's options lead a command's usage and help, so grr route's
    # input options come from a parent too, ahead of the routing ones.
    board_input = argparse.ArgumentParser(add_help=False)
    board_input.add_argument(
        "--format",
        default="auto",
        choices=["auto", "native", "kicad"],
        help="input board format (default: by extension)",
    )
    board_input.add_argument(
        "--pitch-mm",
        type=float,
        default=None,
        help="via-grid pitch for kicad import (default 2.54)",
    )
    routing = _routing_options()
    p = sub.add_parser(
        "route", help="route a board", parents=[board_input, routing]
    )
    p.add_argument(
        "board", help="input board file (native text or .kicad_pcb)"
    )
    p.add_argument(
        "connections",
        nargs="?",
        default=None,
        help="native: input connection file; kicad: optional output "
        "document (default BOARD.routed.kicad_pcb)",
    )
    p.add_argument(
        "routes",
        nargs="?",
        default=None,
        help="native: output route dump (unused for kicad input)",
    )
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("render", help="Figure 20/21/22 artifacts")
    p.add_argument("board")
    p.add_argument("connections", nargs="?", default=None)
    p.add_argument("routes", nargs="?", default=None)
    p.add_argument("--prefix", default="grr")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="DRC + connectivity verification")
    p.add_argument("board")
    p.add_argument("connections", nargs="?", default=None)
    p.add_argument("routes", nargs="?", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "eco",
        help="apply change orders to a routed board and reroute the "
        "residue incrementally",
        parents=[routing],
    )
    p.add_argument(
        "board", help="input board file (native text or .kicad_pcb)"
    )
    p.add_argument(
        "connections",
        nargs="?",
        default=None,
        help="native: input connection file; kicad: optional output "
        "document (default BOARD.eco.kicad_pcb)",
    )
    p.add_argument(
        "routes_in",
        nargs="?",
        default=None,
        help="native: input route dump (unused for kicad input)",
    )
    p.add_argument(
        "routes_out",
        nargs="?",
        default=None,
        help="native: output route dump (unused for kicad input)",
    )
    p.add_argument(
        "--move-part",
        action="append",
        default=[],
        metavar="PART:VX,VY",
        help="relocate part PART to via site (VX,VY); repeatable",
    )
    p.add_argument(
        "--cut-net",
        action="append",
        type=int,
        default=[],
        metavar="NET",
        help="remove signal net NET (rips its routes, frees its pins); "
        "repeatable",
    )
    p.add_argument(
        "--add-net",
        action="append",
        default=[],
        metavar="PINS",
        help="create a net over comma-separated free pin ids and string "
        "it; repeatable",
    )
    p.add_argument(
        "--write-board",
        metavar="PATH",
        default=None,
        help="also write the post-ECO board (part moves and net edits "
        "change it; required to verify/render the ECO'd routes)",
    )
    p.add_argument(
        "--write-connections",
        metavar="PATH",
        default=None,
        help="also write the post-ECO connection list (cuts shrink it, "
        "adds grow it)",
    )
    p.set_defaults(func=_cmd_eco)

    p = sub.add_parser(
        "kicad",
        help="KiCad board interchange: inspect/import/export "
        ".kicad_pcb documents",
    )
    kicad_sub = p.add_subparsers(dest="action", required=True)

    k = kicad_sub.add_parser(
        "inspect", help="summarise how a .kicad_pcb maps onto the grid"
    )
    k.add_argument("board", help="input .kicad_pcb")
    k.add_argument("--pitch-mm", type=float, default=None)
    k.set_defaults(func=_cmd_kicad)

    k = kicad_sub.add_parser(
        "import", help="convert a .kicad_pcb to the native text formats"
    )
    k.add_argument("board", help="input .kicad_pcb")
    k.add_argument("out_board", help="output native board file")
    k.add_argument("out_connections", help="output native connection file")
    k.add_argument(
        "out_routes",
        nargs="?",
        default=None,
        help="optional output route dump of routes embedded in the "
        "document",
    )
    k.add_argument("--pitch-mm", type=float, default=None)
    k.set_defaults(func=_cmd_kicad)

    k = kicad_sub.add_parser(
        "export",
        help="write a native route dump back into a .kicad_pcb as "
        "segment/via copper",
    )
    k.add_argument("board", help="the original .kicad_pcb")
    k.add_argument("routes", help="native route dump for that board")
    k.add_argument("out", help="output .kicad_pcb")
    k.add_argument("--pitch-mm", type=float, default=None)
    k.set_defaults(func=_cmd_kicad)

    p = sub.add_parser(
        "serve",
        help="serve routing over HTTP with warm ECO sessions "
        "(POST /route, /eco/*; GET /jobs, /healthz)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8747)
    p.add_argument(
        "--max-concurrent",
        type=int,
        default=2,
        help="routing jobs allowed to run at once; also the number of "
        "worker processes for /route jobs and of threads for warm ECO "
        "jobs",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="jobs allowed to wait for a slot; beyond this the server "
        "answers 429 with a Retry-After hint",
    )
    p.add_argument(
        "--timeout",
        type=float,
        metavar="SECS",
        default=60.0,
        help="default wall-clock budget per routing job (requests may "
        "ask for less, never for more than the server cap)",
    )
    p.add_argument(
        "--idle-ttl",
        type=float,
        metavar="SECS",
        default=300.0,
        help="evict warm sessions idle longer than this (their "
        "workspaces and caches are freed on eviction)",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write serve_* lifecycle events as JSONL to PATH",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("table1", help="run the Table 1 reproduction")
    p.add_argument("--scale", type=float, default=0.30)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``grr`` console script.

    Unusable input (a malformed file, a connection naming a net or pin
    the board lacks) prints one line and exits 2; exit 1 stays reserved
    for routing failures.  A :class:`UsageError` also prints one line
    and exits 2, by raising ``SystemExit(2)`` as argparse's own usage
    errors do.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.io import InputError

    try:
        return args.func(args)
    except InputError as exc:
        print(
            f"grr {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2
    except UsageError as exc:
        print(f"grr {args.command}: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
