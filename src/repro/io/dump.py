"""Route dumps: save a routed board's wiring and reload it exactly.

Format (one record per routed connection)::

    route <conn_id>
    link <layer_index> <ax> <ay> <bx> <by> <channel>:<lo>:<hi> ...
    seg <layer_index> <channel> <lo> <hi>
    via <vx> <vy>
    end

``link`` lines are metadata (path shape, for delay analysis); ``seg``
lines are the exact installed occupancy (links are clipped where they
cross the connection's own vias or its endpoint pins, so the two differ).

Reloading uses the workspace's exact-restore machinery, so a reloaded
solution occupies precisely the same channels and via sites.
"""

from __future__ import annotations

from typing import List, Sequence, Set, TextIO

from repro.channels.workspace import (
    RouteLink,
    RouteRecord,
    RoutingWorkspace,
)
from repro.grid.coords import GridPoint, ViaPoint
from repro.io.registry import InputError


class RouteDumpError(InputError):
    """The file is not a valid route dump."""


def save_routes(workspace: RoutingWorkspace, stream: TextIO) -> None:
    """Write every routed connection's occupancy to a stream."""
    for conn_id in sorted(workspace.records):
        record = workspace.records[conn_id]
        stream.write(f"route {conn_id}\n")
        for link in record.links:
            pieces = " ".join(
                f"{c}:{lo}:{hi}" for c, lo, hi in link.pieces
            )
            stream.write(
                f"link {link.layer_index} {link.a.gx} {link.a.gy} "
                f"{link.b.gx} {link.b.gy} {pieces}\n"
            )
        for layer_index, channel, lo, hi in record.segments:
            stream.write(f"seg {layer_index} {channel} {lo} {hi}\n")
        for via in record.vias:
            stream.write(f"via {via.vx} {via.vy}\n")
        stream.write("end\n")


def load_routes(workspace: RoutingWorkspace, stream: TextIO) -> List[int]:
    """Reinstall dumped routes into a (pins-only) workspace.

    Returns the connection ids restored.  Raises :class:`RouteDumpError`
    if the text is not a route dump, or as :func:`restore_records` does
    — a dump only makes sense against the same board.  Every record is
    read before the workspace is touched.
    """
    return restore_records(workspace, _read_records(stream))


def restore_records(
    workspace: RoutingWorkspace, records: Sequence[RouteRecord]
) -> List[int]:
    """Install routes read from a file, all of them or none.

    Returns the connection ids restored.  Raises :class:`RouteDumpError`
    if a record is malformed (see :func:`_check_record`) or a route no
    longer fits.  Every record is checked before the workspace is
    touched, and a route that does not fit takes the ones restored
    before it back out: on any error the workspace is left as it was.
    """
    seen: Set[int] = set(workspace.records)
    for record in records:
        _check_record(workspace, record, seen)
        seen.add(record.conn_id)
    restored: List[int] = []
    try:
        for record in records:
            if not workspace.restore_record(record):
                raise RouteDumpError(
                    f"route {record.conn_id} no longer fits this board"
                )
            restored.append(record.conn_id)
    except BaseException:
        for conn_id in reversed(restored):
            workspace.remove_connection(conn_id)
        raise
    return restored


def _read_records(stream: TextIO) -> List[RouteRecord]:
    """Parse every record of a dump."""
    records: List[RouteRecord] = []
    record: RouteRecord = None  # type: ignore[assignment]
    for line_no, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            # Most frequent kind first: a dump is mostly seg lines.
            if kind == "seg":
                if record is None:
                    raise RouteDumpError("seg outside a route record")
                record.segments.append(
                    (int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4]))
                )
            elif kind == "link":
                if record is None:
                    raise RouteDumpError("link outside a route record")
                layer_index = int(fields[1])
                a = GridPoint(int(fields[2]), int(fields[3]))
                b = GridPoint(int(fields[4]), int(fields[5]))
                pieces = []
                for item in fields[6:]:
                    c, lo, hi = map(int, item.split(":"))
                    pieces.append((c, lo, hi))
                record.links.append(
                    RouteLink(layer_index=layer_index, a=a, b=b, pieces=pieces)
                )
            elif kind == "via":
                if record is None:
                    raise RouteDumpError("via outside a route record")
                record.vias.append(ViaPoint(int(fields[1]), int(fields[2])))
            elif kind == "route":
                record = RouteRecord(conn_id=int(fields[1]))
            elif kind == "end":
                if record is None:
                    raise RouteDumpError("end outside a route record")
                records.append(record)
                record = None  # type: ignore[assignment]
            else:
                raise RouteDumpError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise RouteDumpError(f"line {line_no}: {exc}") from exc
    if record is not None:
        raise RouteDumpError("unterminated route record")
    return records


def _check_record(
    workspace: RoutingWorkspace, record: RouteRecord, seen: Set[int]
) -> None:
    """Refuse a record that would install wrongly or not come out again.

    Each index must be in range: a negative layer or channel would
    otherwise alias another one through Python's negative indexing.
    Each segment must lie inside its channel with ``lo <= hi``, and the
    record's segments must be pairwise disjoint: overlapping ones
    install as fewer, clipped pieces than the record lists, so removing
    the route later would fail.  Vias must be on the board and distinct,
    and the connection must not be routed already.  Connection ids are
    non-negative: negative owners are pins and fill.
    """
    conn_id = record.conn_id
    where = f"route {conn_id}"
    if conn_id < 0:
        raise RouteDumpError(f"{where}: negative connection id")
    if conn_id in seen:
        raise RouteDumpError(f"{where}: connection routed twice")
    layers = workspace.layers
    n_layers = len(layers)
    for link in record.links:
        if not 0 <= link.layer_index < n_layers:
            raise RouteDumpError(
                f"{where}: link on layer {link.layer_index} of {n_layers}"
            )
    for layer_index, channel_index, lo, hi in record.segments:
        if not 0 <= layer_index < n_layers:
            raise RouteDumpError(
                f"{where}: seg on layer {layer_index} of {n_layers}"
            )
        layer = layers[layer_index]
        if not 0 <= channel_index < layer.n_channels:
            raise RouteDumpError(
                f"{where}: seg in channel {channel_index} of "
                f"{layer.n_channels} on layer {layer_index}"
            )
        if not 0 <= lo <= hi < layer.channel_length:
            raise RouteDumpError(
                f"{where}: seg [{lo},{hi}] is not inside a channel of "
                f"length {layer.channel_length}"
            )
    ordered = sorted(record.segments)
    for prev, seg in zip(ordered, ordered[1:]):
        if seg[:2] == prev[:2] and seg[2] <= prev[3]:
            raise RouteDumpError(
                f"{where}: segs {prev} and {seg} overlap"
            )
    grid = workspace.grid
    for via in record.vias:
        if not grid.contains_via(via):
            raise RouteDumpError(f"{where}: via {tuple(via)} is off the board")
    if len(set(record.vias)) != len(record.vias):
        raise RouteDumpError(f"{where}: a via is listed twice")
