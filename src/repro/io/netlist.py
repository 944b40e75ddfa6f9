"""Line-based text format for boards and connection lists.

Board file::

    board <name> <via_nx> <via_ny> <signal_layers> <power_layers>
    package <name> <dx,dy> <dx,dy> ...
    part <name> <package> <vx> <vy> <role><role>...   # one letter per pin
    net <name> <kind> <family> <pin_id> <pin_id> ...

Connection file (stringer output, one connection per line)::

    conn <id> <net_id> <pin_a> <pin_b> <ax> <ay> <bx> <by> <family>

Roles: O=output, I=input, T=terminator, P=power, U=unused.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TextIO

from repro.board.board import Board
from repro.board.nets import Connection, NetKind
from repro.board.parts import Package, PinRole
from repro.board.technology import LogicFamily
from repro.grid.coords import ViaPoint
from repro.io.registry import InputError

_ROLE_TO_CHAR = {
    PinRole.OUTPUT: "O",
    PinRole.INPUT: "I",
    PinRole.TERMINATOR: "T",
    PinRole.POWER: "P",
    PinRole.UNUSED: "U",
}
_CHAR_TO_ROLE = {v: k for k, v in _ROLE_TO_CHAR.items()}


class NetlistFormatError(InputError):
    """The file is not a valid board/connection description."""


def write_board(board: Board, stream: TextIO) -> None:
    """Serialise a board (placement, roles and nets) to a stream."""
    grid = board.grid
    stream.write(
        f"board {board.name} {grid.via_nx} {grid.via_ny} "
        f"{board.stack.n_signal} {len(board.stack.power_layers)}\n"
    )
    packages: Dict[str, Package] = {}
    for part in board.parts:
        packages.setdefault(part.package.name, part.package)
    for name, package in packages.items():
        offsets = " ".join(f"{dx},{dy}" for dx, dy in package.pin_offsets)
        stream.write(f"package {name} {offsets}\n")
    for part in board.parts:
        roles = "".join(_ROLE_TO_CHAR[p.role] for p in part.pins)
        stream.write(
            f"part {part.name} {part.package.name} "
            f"{part.origin.vx} {part.origin.vy} {roles}\n"
        )
    for net in board.nets:
        pins = " ".join(str(p) for p in net.pin_ids)
        stream.write(
            f"net {net.name} {net.kind.value} {net.family.value} {pins}\n"
        )


def read_board(stream: TextIO) -> Board:
    """Parse a board file back into a :class:`Board`."""
    board = None
    packages: Dict[str, Package] = {}
    for line_no, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "board":
                name, nx, ny, signal, power = fields[1:6]
                board = Board.create(
                    via_nx=int(nx),
                    via_ny=int(ny),
                    n_signal_layers=int(signal),
                    n_power_layers=int(power),
                    name=name,
                )
            elif kind == "package":
                name = fields[1]
                offsets = tuple(
                    tuple(int(v) for v in item.split(","))
                    for item in fields[2:]
                )
                packages[name] = Package(name, offsets)
            elif kind == "part":
                if board is None:
                    raise NetlistFormatError("part before board line")
                name, package_name, vx, vy, roles = fields[1:6]
                package = packages[package_name]
                board.add_part(
                    package,
                    ViaPoint(int(vx), int(vy)),
                    name=name,
                    roles=[_CHAR_TO_ROLE[c] for c in roles],
                )
            elif kind == "net":
                if board is None:
                    raise NetlistFormatError("net before board line")
                name, net_kind, family = fields[1:4]
                pin_ids = [int(v) for v in fields[4:]]
                board.add_net(
                    pin_ids,
                    name=name,
                    kind=NetKind(net_kind),
                    family=LogicFamily(family),
                )
            else:
                raise NetlistFormatError(f"unknown record {kind!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise NetlistFormatError(f"line {line_no}: {exc}") from exc
    if board is None:
        raise NetlistFormatError("missing board line")
    return board


def write_connections(
    connections: Sequence[Connection], stream: TextIO
) -> None:
    """Serialise a connection list (stringer output)."""
    for c in connections:
        stream.write(
            f"conn {c.conn_id} {c.net_id} {c.pin_a} {c.pin_b} "
            f"{c.a.vx} {c.a.vy} {c.b.vx} {c.b.vy} {c.family.value}\n"
        )


def read_connections(stream: TextIO) -> List[Connection]:
    """Parse a connection file."""
    connections: List[Connection] = []
    for line_no, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "conn" or len(fields) != 10:
            raise NetlistFormatError(f"line {line_no}: bad connection record")
        try:
            connections.append(
                Connection(
                    conn_id=int(fields[1]),
                    net_id=int(fields[2]),
                    pin_a=int(fields[3]),
                    pin_b=int(fields[4]),
                    a=ViaPoint(int(fields[5]), int(fields[6])),
                    b=ViaPoint(int(fields[7]), int(fields[8])),
                    family=LogicFamily(fields[9]),
                )
            )
        except ValueError as exc:
            raise NetlistFormatError(f"line {line_no}: {exc}") from exc
    return connections
