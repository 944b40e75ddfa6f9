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

from repro import lazy_exports

_EXPORTS = {
    "FORMAT_KICAD": "repro.io.registry",
    "FORMAT_NATIVE": "repro.io.registry",
    "FormatError": "repro.io.registry",
    "InputError": "repro.io.registry",
    "LoadedBoard": "repro.io.registry",
    "UnknownReferenceError": "repro.io.registry",
    "check_connections": "repro.io.registry",
    "detect_format": "repro.io.registry",
    "load_board": "repro.io.registry",
    "load_board_text": "repro.io.registry",
    "load_routes": "repro.io.dump",
    "read_board": "repro.io.netlist",
    "read_connections": "repro.io.netlist",
    "save_board": "repro.io.registry",
    "save_connections": "repro.io.registry",
    "save_route_dump": "repro.io.dump:save_routes",
    "save_routes": "repro.io.registry",
    "write_board": "repro.io.netlist",
    "write_connections": "repro.io.netlist",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
