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

from typing import List, TextIO

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

    Returns the connection ids restored.  Raises if any route no longer
    fits — a dump only makes sense against the same board.
    """
    restored: List[int] = []
    record: RouteRecord = None  # type: ignore[assignment]
    for line_no, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "route":
                record = RouteRecord(conn_id=int(fields[1]))
            elif kind == "link":
                if record is None:
                    raise RouteDumpError("link outside a route record")
                layer_index = int(fields[1])
                a = GridPoint(int(fields[2]), int(fields[3]))
                b = GridPoint(int(fields[4]), int(fields[5]))
                pieces = []
                for item in fields[6:]:
                    c, lo, hi = (int(v) for v in item.split(":"))
                    pieces.append((c, lo, hi))
                record.links.append(
                    RouteLink(layer_index=layer_index, a=a, b=b, pieces=pieces)
                )
            elif kind == "seg":
                if record is None:
                    raise RouteDumpError("seg outside a route record")
                record.segments.append(
                    (int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4]))
                )
            elif kind == "via":
                if record is None:
                    raise RouteDumpError("via outside a route record")
                record.vias.append(ViaPoint(int(fields[1]), int(fields[2])))
            elif kind == "end":
                if record is None:
                    raise RouteDumpError("end outside a route record")
                if not workspace.restore_record(record):
                    raise RouteDumpError(
                        f"route {record.conn_id} no longer fits this board"
                    )
                restored.append(record.conn_id)
                record = None  # type: ignore[assignment]
            else:
                raise RouteDumpError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise RouteDumpError(f"line {line_no}: {exc}") from exc
    if record is not None:
        raise RouteDumpError("unterminated route record")
    return restored
