"""Electrical connectivity verification, independent of the router.

Two levels:

* **connection level** — each routed connection's installed links must
  form a single rectilinear path from pin a to pin b, with a drilled via
  at every layer change (a union-find over each link's channel pieces);
* **net level** — a net's pins must form a connected graph through its
  routed connections, and for ECL nets a *chain* with the output at one
  end and the terminating resistor at the other (Section 3); no pin may
  end connections of two different nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.board.board import Board
from repro.board.nets import Connection
from repro.board.parts import PinRole
from repro.channels.layer_data import ChannelPiece
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.grid.coords import GridPoint


@dataclass
class NetStatus:
    """Verification result for one signal net."""

    net_id: int
    name: str
    pin_count: int
    routed_edges: int
    missing_edges: int
    connected: bool
    is_chain: bool
    chain_ends_valid: Optional[bool]  # None for non-ECL nets
    broken_connections: List[int] = field(default_factory=list)


@dataclass
class ConnectivityReport:
    """Board-level connectivity verdict."""

    nets: List[NetStatus] = field(default_factory=list)
    broken_connections: List[int] = field(default_factory=list)
    #: Pins that end connections of more than one net, mapped to those
    #: nets (ascending): a short whatever the routes look like.
    shorted_pins: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def fully_connected(self) -> bool:
        """True if every net is connected, every route is a real path
        and no pin is shared between nets."""
        return (
            not self.broken_connections
            and not self.shorted_pins
            and all(n.connected for n in self.nets)
        )


def _occupancy_is_path(
    workspace: RoutingWorkspace, conn: Connection, record: RouteRecord
) -> bool:
    """Flood-fill the record's installed copper from pin a to pin b.

    In-layer adjacency is the same 4-neighbourhood the link-level check
    uses (lateral jogs join adjacent channels); layers connect at via
    sites drilled in the workspace — the record's own vias plus the
    endpoint pins' holes.
    """
    grid = workspace.grid
    cells: Set[Tuple[int, int, int]] = set()
    for layer_index, channel_index, lo, hi in record.segments:
        layer = workspace.layers[layer_index]
        for coord in range(lo, hi + 1):
            point = layer.cc_point(channel_index, coord)
            cells.add((layer_index, point.gx, point.gy))
    if not cells:
        return conn.a == conn.b
    start = grid.via_to_grid(conn.a)
    goal = grid.via_to_grid(conn.b)
    # Installed occupancy is clipped around the endpoint pins (the pin
    # owns its own cell), so stand the pins back up as copper on every
    # layer — their holes span the stack.
    for point in (start, goal):
        for layer_index in range(len(workspace.layers)):
            cells.add((layer_index, point.gx, point.gy))
    goals = {c for c in cells if (c[1], c[2]) == (goal.gx, goal.gy)}
    frontier = [
        c for c in cells if (c[1], c[2]) == (start.gx, start.gy)
    ]
    seen = set(frontier)
    g = grid.grid_per_via
    while frontier:
        cell = frontier.pop()
        if cell in goals:
            return True
        layer_index, x, y = cell
        # Same 4-neighbourhood the link-level check uses: the routing
        # model joins adjacent cells across channels (lateral jogs).
        neighbours = [
            (layer_index, nx, ny)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
        ]
        if x % g == 0 and y % g == 0 and workspace.via_map.is_drilled(
            grid.grid_to_via(GridPoint(x, y))
        ):
            neighbours.extend(
                (other, x, y)
                for other in range(len(workspace.layers))
                if other != layer_index
            )
        for nxt in neighbours:
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _pieces_join(
    pieces: Sequence[ChannelPiece], a: Tuple[int, int], b: Tuple[int, int]
) -> bool:
    """True if cells ``a`` and ``b`` (``(channel, coord)``) are joined by
    the pieces' cells in the 4-connected cell graph.

    Each piece is a run of cells along one channel, so it is connected
    on its own, and two pieces touch exactly when they lie in one
    channel and overlap or abut, or in adjacent channels and overlap
    (4-neighbours across channels share their coordinate).  The cells
    of ``a`` and ``b`` are therefore joined exactly when a piece holding
    ``a`` and a piece holding ``b`` share a component of that piece
    graph: a union-find over the pieces instead of a flood fill over
    their cells.  Inverted pieces (``lo > hi``) cover no cells.
    """
    live = sorted(piece for piece in pieces if piece[1] <= piece[2])
    parent = list(range(len(live)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_channel: Dict[int, List[int]] = {}
    for i, (channel_index, _, _) in enumerate(live):
        by_channel.setdefault(channel_index, []).append(i)
    for channel_index, members in by_channel.items():
        # Sorted by lo: a piece touches the run before it exactly when
        # it starts at most one past the run's furthest hi.
        run_root, run_hi = members[0], live[members[0]][2]
        for i in members[1:]:
            _, lo, hi = live[i]
            if lo <= run_hi + 1:
                parent[find(i)] = find(run_root)
                run_hi = max(run_hi, hi)
            else:
                run_root, run_hi = i, hi
        for j in by_channel.get(channel_index + 1, ()):
            _, lo2, hi2 = live[j]
            for i in members:
                _, lo1, hi1 = live[i]
                if lo2 <= hi1 and lo1 <= hi2:
                    parent[find(j)] = find(i)

    def root_at(cell: Tuple[int, int]) -> Optional[int]:
        channel_index, coord = cell
        for i in by_channel.get(channel_index, ()):
            if live[i][1] <= coord <= live[i][2]:
                return find(i)
        return None

    root_a = root_at(a)
    return root_a is not None and root_a == root_at(b)


def connection_is_path(
    workspace: RoutingWorkspace, conn: Connection, record: RouteRecord
) -> bool:
    """True if the record's links really connect pin a to pin b.

    Each link's pieces must join its two ends on its layer
    (:func:`_pieces_join`), consecutive links must meet, and a drilled
    via must stand wherever the path changes layer.
    """
    grid = workspace.grid
    if not record.links:
        # Records restored from formats that carry no path metadata
        # (a kicad export stores only copper) are checked at the
        # occupancy level instead.
        if record.segments:
            return _occupancy_is_path(workspace, conn, record)
        return conn.a == conn.b
    if record.links[0].a != grid.via_to_grid(conn.a):
        return False
    if record.links[-1].b != grid.via_to_grid(conn.b):
        return False
    for i, link in enumerate(record.links):
        layer = workspace.layers[link.layer_index]
        if not _pieces_join(
            link.pieces, layer.point_cc(link.a), layer.point_cc(link.b)
        ):
            return False
        if i:
            prev = record.links[i - 1]
            if prev.b != link.a:
                return False
            if prev.layer_index != link.layer_index:
                # A hole is required only when the path changes layer;
                # same-layer junctions carry the signal in copper.
                junction = grid.grid_to_via(link.a)
                if not workspace.via_map.is_drilled(junction):
                    return False
    return True


def check_connectivity(
    board: Board,
    workspace: RoutingWorkspace,
    connections: Sequence[Connection],
) -> ConnectivityReport:
    """Verify every routed connection and every signal net."""
    report = ConnectivityReport()
    by_net: Dict[int, List[Connection]] = {}
    pin_nets: Dict[int, Set[int]] = {}
    for conn in connections:
        by_net.setdefault(conn.net_id, []).append(conn)
        for pin_id in (conn.pin_a, conn.pin_b):
            pin_nets.setdefault(pin_id, set()).add(conn.net_id)
    report.shorted_pins = {
        pin_id: tuple(sorted(nets))
        for pin_id, nets in sorted(pin_nets.items())
        if len(nets) > 1
    }
    for conn in connections:
        record = workspace.records.get(conn.conn_id)
        if record is not None and not connection_is_path(
            workspace, conn, record
        ):
            report.broken_connections.append(conn.conn_id)
    broken = set(report.broken_connections)
    for net in board.signal_nets:
        status = _check_net(
            board, workspace, net.net_id, by_net.get(net.net_id, []), broken
        )
        report.nets.append(status)
    return report


def _check_net(
    board: Board,
    workspace: RoutingWorkspace,
    net_id: int,
    net_conns: List[Connection],
    broken: Set[int],
) -> NetStatus:
    net = board.nets[net_id]
    pins = list(net.pin_ids)
    index = {pin_id: i for i, pin_id in enumerate(pins)}
    parent = list(range(len(pins)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    degree = [0] * len(pins)
    routed_edges = 0
    missing = 0
    net_broken: List[int] = []
    for conn in net_conns:
        ok = (
            workspace.is_routed(conn.conn_id)
            and conn.conn_id not in broken
        )
        if conn.conn_id in broken:
            net_broken.append(conn.conn_id)
        if not ok:
            missing += 1
            continue
        routed_edges += 1
        a, b = index.get(conn.pin_a), index.get(conn.pin_b)
        if a is None or b is None:
            missing += 1
            continue
        union(a, b)
        degree[a] += 1
        degree[b] += 1
    connected = len(pins) <= 1 or len({find(i) for i in range(len(pins))}) == 1
    is_chain = connected and all(d <= 2 for d in degree) and (
        sum(1 for d in degree if d == 1) in (0, 2)
    )
    chain_ends_valid: Optional[bool] = None
    if net.family.needs_termination and is_chain and len(pins) >= 2:
        end_roles = {
            board.pins[pins[i]].role
            for i, d in enumerate(degree)
            if d == 1
        }
        chain_ends_valid = (
            PinRole.OUTPUT in end_roles and PinRole.TERMINATOR in end_roles
        )
    return NetStatus(
        net_id=net_id,
        name=net.name,
        pin_count=len(pins),
        routed_edges=routed_edges,
        missing_edges=missing,
        connected=connected,
        is_chain=is_chain,
        chain_ends_valid=chain_ends_valid,
        broken_connections=net_broken,
    )
