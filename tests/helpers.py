"""Shared verification helpers: electrical and structural invariants.

These implement the ground-truth checks the tests and property tests rely
on: a routed connection must actually connect its pins, and the workspace's
channels/via map must stay mutually consistent.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.board.board import Board
from repro.board.nets import Connection
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.core.single_layer import DEFAULT_MAX_GAPS, reachable_vias
from repro.grid.coords import ViaPoint
from repro.grid.geometry import Orientation


def vias_in_box(
    layer,
    a,
    box,
    passable,
    via_map,
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats=None,
    budget=None,
    views=None,
) -> List[ViaPoint]:
    """``reachable_vias`` called as the box-clipped reference is: from a
    grid point within a grid box, returning ``ViaPoint``s.  ``views`` is
    a search's list for the layer, or None."""
    ca, xa = layer.point_cc(a)
    c_lo, c_hi, lo, hi = layer.box_cc(box)
    ny = via_map.via_ny
    return [
        ViaPoint(*divmod(site, ny))
        for site in reachable_vias(
            layer, ca, xa, c_lo, c_hi, lo, hi, passable, via_map,
            max_gaps, stats, budget, views,
        )
    ]


def link_cells(orientation: Orientation, pieces) -> Set[Tuple[int, int]]:
    """Grid cells covered by a link's channel pieces."""
    cells = set()
    for channel_index, lo, hi in pieces:
        for coord in range(lo, hi + 1):
            if orientation is Orientation.HORIZONTAL:
                cells.add((coord, channel_index))
            else:
                cells.add((channel_index, coord))
    return cells


def assert_link_connected(
    workspace: RoutingWorkspace, link
) -> None:
    """A link's pieces must form one connected rectilinear path a..b."""
    layer = workspace.layers[link.layer_index]
    cells = link_cells(layer.orientation, link.pieces)
    a = (link.a.gx, link.a.gy)
    b = (link.b.gx, link.b.gy)
    assert a in cells, f"link does not cover its start {a}"
    assert b in cells, f"link does not cover its end {b}"
    # Flood fill within the link's own cells.
    frontier = [a]
    seen = {a}
    while frontier:
        x, y = frontier.pop()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (nx, ny) in cells and (nx, ny) not in seen:
                seen.add((nx, ny))
                frontier.append((nx, ny))
    assert b in seen, f"link cells are disconnected between {a} and {b}"


def assert_route_connected(
    workspace: RoutingWorkspace, conn: Connection, record: RouteRecord
) -> None:
    """The whole route must run pin-to-pin through its via chain."""
    grid = workspace.grid
    if not record.links:
        assert conn.a == conn.b, "empty route for distinct endpoints"
        return
    assert record.links[0].a == grid.via_to_grid(conn.a)
    assert record.links[-1].b == grid.via_to_grid(conn.b)
    for i, link in enumerate(record.links):
        assert_link_connected(workspace, link)
        if i:
            prev = record.links[i - 1]
            assert prev.b == link.a, "links do not chain at a shared via"
            if prev.layer_index == link.layer_index:
                # Same-layer junction: no hole needed (and the retrace
                # no longer drills one there).
                continue
            junction = grid.grid_to_via(link.a)
            owner = workspace.via_map.drilled_owner(junction)
            assert owner is not None, f"no via drilled at junction {junction}"
            assert owner == conn.conn_id or owner in (
                -(conn.pin_a + 1),
                -(conn.pin_b + 1),
            ), f"junction via {junction} owned by {owner}"


def assert_workspace_consistent(workspace: RoutingWorkspace) -> None:
    """Channels stay sorted/disjoint and the via map matches a recount."""
    for layer in workspace.layers:
        for channel in layer.channels:
            channel.check_invariants()
    via_map = workspace.via_map
    for vy in range(via_map.via_ny):
        for vx in range(via_map.via_nx):
            from repro.grid.coords import ViaPoint

            via = ViaPoint(vx, vy)
            point = workspace.grid.via_to_grid(via)
            expected = 0
            for layer in workspace.layers:
                c, x = layer.point_cc(point)
                for seg in layer.channel(c).overlapping(x, x):
                    expected += 1
            assert via_map.count(via) == expected, (
                f"via map count mismatch at {via}: "
                f"{via_map.count(via)} != {expected}"
            )


def assert_result_valid(board: Board, connections, result) -> None:
    """Every routed connection is connected; the workspace is coherent."""
    workspace = result.workspace
    by_id = {c.conn_id: c for c in connections}
    for conn_id, record in workspace.records.items():
        assert_route_connected(workspace, by_id[conn_id], record)
    assert_workspace_consistent(workspace)
