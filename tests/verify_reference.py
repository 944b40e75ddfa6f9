"""Per-cell verification, kept as a reference for parity tests.

Copies of ``repro.verify.drc.run_drc`` and
``repro.verify.connectivity.connection_is_path`` as they were before
those checks worked per segment.  The DRC rebuilds a ``Segment`` per
segment and a ``ViaPoint`` per covered site, recounts the via map into
a dict and compares it site by site; the link check flood-fills each
link's own cells.  The production checks must report exactly what
these do: the same violations in the same order, and the same verdict
for every route.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.board.board import Board
from repro.board.nets import Connection
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.grid.coords import ViaPoint
from repro.grid.geometry import Orientation
from repro.verify.connectivity import _occupancy_is_path
from repro.verify.drc import DrcReport, Severity


def reference_run_drc(board: Board, workspace: RoutingWorkspace) -> DrcReport:
    """Every design-rule check, cell by cell."""
    report = DrcReport()
    _check_segments(workspace, report)
    _check_via_map(workspace, report)
    _check_drilled_vias(workspace, report)
    _check_pins(board, workspace, report)
    _check_trace_over_via_sites(workspace, report)
    return report


def _check_segments(workspace: RoutingWorkspace, report: DrcReport) -> None:
    for layer_index, layer in enumerate(workspace.layers):
        for channel_index, channel in enumerate(layer.channels):
            previous_hi = None
            for seg in channel:
                if seg.hi < seg.lo:
                    report.add(
                        Severity.ERROR,
                        "segment-inverted",
                        f"L{layer_index} c{channel_index}: {seg}",
                    )
                if seg.lo < 0 or seg.hi >= layer.channel_length:
                    report.add(
                        Severity.ERROR,
                        "segment-out-of-bounds",
                        f"L{layer_index} c{channel_index}: {seg}",
                    )
                if previous_hi is not None and seg.lo <= previous_hi:
                    report.add(
                        Severity.ERROR,
                        "segment-overlap",
                        f"L{layer_index} c{channel_index}: {seg} overlaps "
                        f"previous segment ending at {previous_hi}",
                    )
                previous_hi = seg.hi


def _check_via_map(workspace: RoutingWorkspace, report: DrcReport) -> None:
    """The per-site recount: a dict of covers, compared site by site."""
    grid = workspace.grid
    recount: Dict[Tuple[int, int], int] = {}
    for layer in workspace.layers:
        for channel_index in range(0, layer.n_channels, grid.grid_per_via):
            for seg in layer.channel(channel_index):
                for via in layer.via_sites_in(channel_index, seg.lo, seg.hi):
                    key = (via.vx, via.vy)
                    recount[key] = recount.get(key, 0) + 1
    for vy in range(grid.via_ny):
        for vx in range(grid.via_nx):
            expected = recount.get((vx, vy), 0)
            actual = workspace.via_map.count(ViaPoint(vx, vy))
            if actual != expected:
                report.add(
                    Severity.ERROR,
                    "via-map-count",
                    f"via ({vx},{vy}): map says {actual}, layers say "
                    f"{expected}",
                )


def _check_drilled_vias(workspace: RoutingWorkspace, report: DrcReport) -> None:
    grid = workspace.grid
    for via, owner in workspace.via_map.drilled_sites().items():
        if not grid.contains_via(via):
            report.add(
                Severity.ERROR, "via-off-board", f"{via} owner {owner}"
            )
            continue
        point = grid.via_to_grid(via)
        for layer_index, layer in enumerate(workspace.layers):
            cover = layer.owner_at(point)
            if cover is None:
                report.add(
                    Severity.ERROR,
                    "via-uncovered",
                    f"{via}: no segment on layer {layer_index}",
                )
            elif cover != owner:
                report.add(
                    Severity.ERROR,
                    "via-cover-owner",
                    f"{via}: layer {layer_index} covered by {cover}, "
                    f"drilled by {owner}",
                )


def _check_pins(
    board: Board, workspace: RoutingWorkspace, report: DrcReport
) -> None:
    for pin in board.pins:
        owner = workspace.via_map.drilled_owner(pin.position)
        if owner is None:
            report.add(
                Severity.ERROR,
                "pin-not-drilled",
                f"pin {pin.pin_id} at {pin.position}",
            )
        elif owner != pin.owner_token:
            report.add(
                Severity.ERROR,
                "pin-owner",
                f"pin {pin.pin_id} at {pin.position} drilled by {owner}",
            )


def _check_trace_over_via_sites(
    workspace: RoutingWorkspace, report: DrcReport
) -> None:
    grid = workspace.grid
    offenders = 0
    for layer in workspace.layers:
        for channel_index in range(0, layer.n_channels, grid.grid_per_via):
            for seg in layer.channel(channel_index):
                if seg.owner < 0:
                    continue
                for via in layer.via_sites_in(channel_index, seg.lo, seg.hi):
                    if workspace.via_map.drilled_owner(via) != seg.owner:
                        offenders += 1
    if offenders:
        report.add(
            Severity.WARNING,
            "trace-over-via-site",
            f"{offenders} trace cells cover via sites they did not drill",
        )


def _link_cells(orientation: Orientation, pieces) -> Set[Tuple[int, int]]:
    cells = set()
    for channel_index, lo, hi in pieces:
        for coord in range(lo, hi + 1):
            if orientation is Orientation.HORIZONTAL:
                cells.add((coord, channel_index))
            else:
                cells.add((channel_index, coord))
    return cells


def reference_pieces_join(pieces, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """Flood fill over the pieces' cells, all in ``(channel, coord)``."""
    cells = _link_cells(Orientation.VERTICAL, pieces)
    if a not in cells or b not in cells:
        return False
    frontier = [a]
    seen = {a}
    while frontier:
        x, y = frontier.pop()
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return b in seen


def reference_connection_is_path(
    workspace: RoutingWorkspace, conn: Connection, record: RouteRecord
) -> bool:
    """The per-cell link check: flood-fill each link's own cells."""
    grid = workspace.grid
    if not record.links:
        if record.segments:
            return _occupancy_is_path(workspace, conn, record)
        return conn.a == conn.b
    if record.links[0].a != grid.via_to_grid(conn.a):
        return False
    if record.links[-1].b != grid.via_to_grid(conn.b):
        return False
    for i, link in enumerate(record.links):
        layer = workspace.layers[link.layer_index]
        cells = _link_cells(layer.orientation, link.pieces)
        start = (link.a.gx, link.a.gy)
        goal = (link.b.gx, link.b.gy)
        if start not in cells or goal not in cells:
            return False
        frontier = [start]
        seen = {start}
        while frontier:
            x, y = frontier.pop()
            for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if goal not in seen:
            return False
        if i:
            prev = record.links[i - 1]
            if prev.b != link.a:
                return False
            if prev.layer_index != link.layer_index:
                junction = grid.grid_to_via(link.a)
                if not workspace.via_map.is_drilled(junction):
                    return False
    return True
