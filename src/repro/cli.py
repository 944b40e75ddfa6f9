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

Every command reads/writes the text formats of :mod:`repro.io`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis import format_table, table1_row
from repro.channels.workspace import RoutingWorkspace
from repro.core.router import GreedyRouter, RouterConfig, make_router
from repro.io import (
    FORMAT_KICAD,
    FormatError,
    InputError,
    detect_format,
    load_board,
    load_routes,
    save_board,
    save_connections,
    save_routes,
)
from repro.stringer import Stringer
from repro.workloads import TITAN_CONFIGS, make_titan_board


def _cmd_generate(args: argparse.Namespace) -> int:
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
    loaded = load_board(args.board, format=args.format)
    save_connections(loaded.connections, args.connections)
    print(
        f"wrote {args.connections}: {len(loaded.connections)} connections"
    )
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.obs import JsonlSink

    loaded, routes_out = _load_route_inputs(args)
    board = loaded.board
    connections = list(loaded.pending)
    from repro.core.budget import STOP_DEADLINE, RouteBudget

    config = RouterConfig(radius=args.radius, cost=args.cost)
    if args.timeout is not None or args.per_connection_timeout is not None:
        config = dataclasses.replace(
            config,
            budget=dataclasses.replace(
                config.budget,
                deadline_seconds=args.timeout,
                per_connection_seconds=args.per_connection_timeout,
            ),
        )
    if args.audit:
        # --audit forces it on; otherwise the GRR_AUDIT env default holds.
        config = dataclasses.replace(config, audit=True)
    sink = JsonlSink(args.trace) if args.trace else None
    if loaded.restored:
        print(
            f"restored {len(loaded.restored)} routed connections from "
            f"{args.board}; {len(connections)} left to route"
        )
    try:
        router = make_router(
            board, config, workspace=loaded.workspace, sink=sink
        )
        result = router.route(connections)
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        print(f"trace: {sink.emitted} events -> {args.trace}")
    if config.audit:
        print("audit: all post-pass invariant checks passed")
    if args.profile:
        _print_profile(router.profile)
        if result.stopped_reason is not None:
            print(f"  stopped reason: {result.stopped_reason}")
    save_routes(router.workspace, routes_out, source=loaded.source)
    print(format_table([table1_row(board, connections, result)]))
    if not result.complete:
        reason = (
            f" ({result.stopped_reason})" if result.stopped_reason else ""
        )
        print(
            f"FAILED: {len(result.failed)} connections unrouted{reason}",
            file=sys.stderr,
        )
        # A deadline-limited partial is a *successful degradation*, not
        # a routing failure; give it its own exit code so callers can
        # tell "board too hard" (1) from "clock ran out" (3).
        if result.stopped_reason == STOP_DEADLINE:
            print(
                f"partial result kept: {result.routed_count}/"
                f"{result.total_count} connections routed",
                file=sys.stderr,
            )
            return 3
        return 1
    print(f"wrote {routes_out}")
    return 0


def _load_route_inputs(args: argparse.Namespace):
    """Resolve ``grr route``'s positionals for both formats.

    Native text keeps the classic three-file shape: ``route BOARD
    CONNECTIONS ROUTES``.  A kicad board embeds its netlist, so the one
    optional positional after it is the *output* document: ``route
    BOARD.kicad_pcb [OUT.kicad_pcb]``, defaulting to
    ``BOARD.routed.kicad_pcb``.  Returns ``(loaded, routes_out_path)``.
    """
    import os

    fmt = detect_format(args.board, args.format)
    if fmt == FORMAT_KICAD:
        if args.routes is not None:
            raise SystemExit(
                "kicad boards embed their netlist: usage is "
                "'grr route BOARD.kicad_pcb [OUT.kicad_pcb]'"
            )
        loaded = load_board(
            args.board, format=args.format, pitch_mm=args.pitch_mm
        )
        routes_out = args.connections
        if routes_out is None:
            stem = os.path.splitext(args.board)[0]
            routes_out = f"{stem}.routed.kicad_pcb"
        return loaded, routes_out
    if args.connections is None or args.routes is None:
        raise SystemExit(
            "native boards need explicit files: usage is "
            "'grr route BOARD CONNECTIONS ROUTES'"
        )
    loaded = load_board(
        args.board, format=args.format, connections_path=args.connections
    )
    return loaded, args.routes


def _print_profile(profile) -> None:
    """Print the per-phase timing table and the event counters."""
    print("profile:")
    for row in profile.rows():
        print(
            f"  {row['phase']:<12} {row['calls']:>8} calls "
            f"{row['seconds']:>8.3f}s {row['pct']:>5.1f}%"
        )
    hits = profile.counters.get("gap_cache_hits", 0)
    misses = profile.counters.get("gap_cache_misses", 0)
    if hits or misses:
        print(
            f"  gap lists: {hits} reused / {misses} built "
            f"({100.0 * hits / (hits + misses):.1f}% reused)"
        )
    for counter, amount in sorted(profile.counters.items()):
        if counter not in ("gap_cache_hits", "gap_cache_misses"):
            print(f"  {counter}: {amount}")


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.extensions.power_plane import generate_power_plane
    from repro.viz import (
        render_power_plane,
        render_problem,
        render_signal_layer,
    )

    board, connections, workspace, _ = _load_routed_state(args)
    prefix = args.prefix
    render_problem(board, connections, path=f"{prefix}_problem.ppm")
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

    board, connections, workspace, restored = _load_routed_state(args)
    drc = run_drc(board, workspace)
    connectivity = check_connectivity(board, workspace, connections)
    print(f"routes loaded: {len(restored)}")
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


def _load_routed_state(args: argparse.Namespace):
    """Board + connections + routed workspace for render/verify.

    Native text takes the classic three files.  A routed
    ``.kicad_pcb`` carries all three in one document, so the
    connections/routes positionals are omitted.
    """
    if detect_format(args.board) == FORMAT_KICAD:
        if args.connections is not None or args.routes is not None:
            raise SystemExit(
                "a .kicad_pcb carries its netlist and routes; usage is "
                f"'grr {args.command} BOARD.kicad_pcb'"
            )
        loaded = load_board(args.board)
        return (
            loaded.board,
            list(loaded.connections),
            loaded.workspace,
            list(loaded.restored),
        )
    if args.connections is None or args.routes is None:
        raise SystemExit(
            f"native boards need explicit files: usage is "
            f"'grr {args.command} BOARD CONNECTIONS ROUTES'"
        )
    loaded = load_board(args.board, connections_path=args.connections)
    workspace = RoutingWorkspace(loaded.board)
    with open(args.routes) as f:
        restored = load_routes(workspace, f)
    return loaded.board, list(loaded.connections), workspace, restored


def _parse_move(spec: str):
    """Parse one ``--move-part PART:VX,VY`` spec."""
    from repro.grid.coords import ViaPoint

    try:
        part_text, coords = spec.split(":", 1)
        vx_text, vy_text = coords.split(",", 1)
        return int(part_text), ViaPoint(int(vx_text), int(vy_text))
    except ValueError:
        raise SystemExit(
            f"bad --move-part spec {spec!r} (expected PART:VX,VY)"
        )


def _parse_pin_group(spec: str) -> List[int]:
    """Parse one ``--add-net P1,P2,...`` spec."""
    try:
        pins = [int(p) for p in spec.split(",") if p]
    except ValueError:
        raise SystemExit(
            f"bad --add-net spec {spec!r} (expected PIN,PIN,...)"
        )
    if len(pins) < 2:
        raise SystemExit(f"--add-net needs at least two pins: {spec!r}")
    return pins


def _cmd_eco(args: argparse.Namespace) -> int:
    from repro.core.budget import STOP_DEADLINE, RouteBudget
    from repro.core.result import Strategy
    from repro.eco import EcoError, EcoSession
    from repro.obs import JsonlSink

    loaded, workspace, restored, routes_out = _load_eco_inputs(args)
    board = loaded.board
    connections = list(loaded.connections)
    config = RouterConfig(radius=args.radius, cost=args.cost)
    if args.timeout is not None or args.per_connection_timeout is not None:
        config = dataclasses.replace(
            config,
            budget=RouteBudget(
                deadline_seconds=args.timeout,
                per_connection_seconds=args.per_connection_timeout,
            ),
        )
    if args.audit:
        config = dataclasses.replace(config, audit=True)
    sink = JsonlSink(args.trace) if args.trace else None
    # Restored routes carry no strategy attribution in the dump format;
    # PUTBACK ("kept as previously routed") is the honest label.
    routed_by = {conn_id: Strategy.PUTBACK for conn_id in restored}
    try:
        with EcoSession(
            board,
            connections,
            config=config,
            sink=sink,
            workspace=workspace,
            routed_by=routed_by,
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
            result = response.result
            counters = response.counters
            print(
                f"eco reroute: {counters.get('eco_invalidated', 0)} "
                f"invalidated, {counters.get('eco_reused', 0)} reused, "
                f"{counters.get('eco_rerouted', 0)} rerouted"
            )
            if args.profile:
                _print_profile_counters(counters, response.timings)
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
            failed = result.failed
            total = len(session.connections)
    except EcoError as exc:
        print(f"ECO rejected: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        print(f"trace: {sink.emitted} events -> {args.trace}")
    if failed:
        reason = (
            f" ({response.stopped_reason})" if response.stopped_reason else ""
        )
        print(
            f"FAILED: {len(failed)} connections unrouted{reason}",
            file=sys.stderr,
        )
        if response.stopped_reason == STOP_DEADLINE:
            print(
                f"partial result kept: {total - len(failed)}/{total} "
                f"connections routed",
                file=sys.stderr,
            )
            return 3
        return 1
    print(f"wrote {routes_out}")
    return 0


def _load_eco_inputs(args: argparse.Namespace):
    """Resolve ``grr eco``'s positionals for both formats.

    Native text keeps the classic four-file shape: ``eco BOARD
    CONNECTIONS ROUTES_IN ROUTES_OUT``.  A kicad board carries its
    netlist and routed state in one document, so the shape collapses to
    ``eco BOARD.kicad_pcb [OUT.kicad_pcb]`` (default
    ``BOARD.eco.kicad_pcb``).  Returns ``(loaded, workspace, restored,
    routes_out_path)``.
    """
    import os

    if detect_format(args.board) == FORMAT_KICAD:
        if args.routes_in is not None or args.routes_out is not None:
            raise SystemExit(
                "a .kicad_pcb carries its netlist and routes; usage is "
                "'grr eco BOARD.kicad_pcb [OUT.kicad_pcb]'"
            )
        loaded = load_board(args.board)
        routes_out = args.connections
        if routes_out is None:
            stem = os.path.splitext(args.board)[0]
            routes_out = f"{stem}.eco.kicad_pcb"
        return loaded, loaded.workspace, list(loaded.restored), routes_out
    if (
        args.connections is None
        or args.routes_in is None
        or args.routes_out is None
    ):
        raise SystemExit(
            "native boards need explicit files: usage is "
            "'grr eco BOARD CONNECTIONS ROUTES_IN ROUTES_OUT'"
        )
    loaded = load_board(args.board, connections_path=args.connections)
    workspace = RoutingWorkspace(loaded.board)
    with open(args.routes_in) as f:
        restored = load_routes(workspace, f)
    return loaded, workspace, restored, args.routes_out


def _print_profile_counters(counters, timings) -> None:
    """Print the eco reroute's timings and counters (``--profile``)."""
    print("profile:")
    for name, seconds in sorted(timings.items()):
        print(f"  {name:<12} {seconds:>8.3f}s")
    for counter, amount in sorted(counters.items()):
        print(f"  {counter}: {amount}")


def _cmd_kicad(args: argparse.Namespace) -> int:
    from repro.io import kicad

    if args.action == "inspect":
        imp = kicad.load_file(args.board, pitch_mm=args.pitch_mm)
        for key, value in imp.summary().items():
            print(f"{key}: {value}")
        return 0
    if args.action == "import":
        loaded = load_board(
            args.board, format="kicad", pitch_mm=args.pitch_mm
        )
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
            with open(args.out_routes, "w") as f:
                from repro.io import save_route_dump

                save_route_dump(loaded.workspace, f)
            print(
                f"wrote {args.out_routes} "
                f"({len(loaded.restored)} restored routes)"
            )
        return 0
    # export: write a native route dump back into the original document
    imp = kicad.load_file(args.board, pitch_mm=args.pitch_mm)
    with open(args.routes) as f:
        restored = load_routes(imp.workspace, f)
    kicad.save_file(imp, args.out, imp.workspace)
    print(
        f"wrote {args.out}: {len(restored) + len(imp.restored)} routed "
        "connections as copper"
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
    rows = []
    for name in TITAN_CONFIGS:
        board = make_titan_board(name, scale=args.scale, seed=args.seed)
        connections = Stringer(board).string_all()
        result = GreedyRouter(board).route(connections)
        rows.append(table1_row(board, connections, result))
    print(format_table(rows, title="Table 1 reproduction"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The grr argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="grr",
        description="greedy printed-circuit-board router (Dion, DAC 1987)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a Table-1-style board")
    p.add_argument("board", help="output board file")
    p.add_argument(
        "--config", default="tna", choices=sorted(TITAN_CONFIGS)
    )
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

    p = sub.add_parser("route", help="route a board")
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
    p.add_argument(
        "--format",
        default="auto",
        choices=["auto", "native", "kicad"],
        help="input board format (default: by extension)",
    )
    p.add_argument(
        "--pitch-mm",
        type=float,
        default=None,
        help="via-grid pitch for kicad import (default 2.54)",
    )
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
    p.add_argument("--radius", type=int, default=1)
    p.add_argument(
        "--cost",
        default="distance_hops",
        choices=["unit", "distance", "distance_hops"],
    )
    p.add_argument("--timeout", type=float, metavar="SECS", default=None)
    p.add_argument(
        "--per-connection-timeout", type=float, metavar="SECS", default=None
    )
    p.add_argument("--trace", metavar="PATH", default=None)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--profile", action="store_true")
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
        help="routing jobs allowed to run at once",
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
    for routing failures.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(
            f"grr {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
