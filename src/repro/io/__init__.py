"""Board and route interchange: native text formats plus KiCad.

The real grr consumed stringer output files and emitted wiring
databases; this package provides the equivalent — a line-based
board/netlist format and a reloadable route dump — plus an importer and
exporter for KiCad ``.kicad_pcb`` documents (:mod:`repro.io.kicad`).

New code should go through the format registry
(:func:`detect_format` / :func:`load_board` / :func:`save_routes`)
rather than picking a parser by hand; the registry resolves formats by
file extension and keeps every entry point on one loading path.
"""

from repro.io.dump import load_routes, save_routes as save_route_dump
from repro.io.netlist import (
    read_board,
    read_connections,
    write_board,
    write_connections,
)
from repro.io.registry import (
    FORMAT_KICAD,
    FORMAT_NATIVE,
    FormatError,
    InputError,
    LoadedBoard,
    UnknownReferenceError,
    check_connections,
    detect_format,
    load_board,
    load_board_text,
    save_board,
    save_connections,
    save_routes,
)

__all__ = [
    "FORMAT_KICAD",
    "FORMAT_NATIVE",
    "FormatError",
    "InputError",
    "LoadedBoard",
    "UnknownReferenceError",
    "check_connections",
    "detect_format",
    "load_board",
    "load_board_text",
    "load_routes",
    "read_board",
    "read_connections",
    "save_board",
    "save_connections",
    "save_route_dump",
    "save_routes",
    "write_board",
    "write_connections",
]
