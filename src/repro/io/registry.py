"""Format registry: one loading/saving path for every board format.

Callers — the CLI, the service, :mod:`repro.api` — never pick a parser
themselves.  They hand paths to :func:`load_board` (or texts to
:func:`load_board_text`, the one decoder both end in) and get back a
:class:`LoadedBoard` — the board, its connections and any route dump
restored — no matter whether the board was the native line-based
format or a KiCad ``.kicad_pcb``.  :func:`detect_format` maps
extensions to format names, with ``format=`` as the explicit
override; the writers
(:func:`save_board`, :func:`save_connections`, :func:`save_routes`)
apply the same extension rules so a ``--write-board out.kicad_pcb``
lands in the format its name promises.  Connection lists read from a
file or text are checked against their board (:func:`check_connections`),
and every reader's error derives from :class:`InputError`.
"""

from __future__ import annotations

import io as _io
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple, Union

# Board and connection types are annotations only, so the module (and
# with it the InputError hierarchy the CLI and the service catch) loads
# with the standard library alone; the readers import what they run.
if TYPE_CHECKING:
    from repro.board.board import Board
    from repro.board.nets import Connection
    from repro.channels.workspace import RoutingWorkspace

FORMAT_NATIVE = "native"
FORMAT_KICAD = "kicad"

#: Extension -> format name.  Anything unlisted loads as native text —
#: the historical default for ``.board``/``.txt``/extension-less paths.
_EXTENSIONS = {
    ".kicad_pcb": FORMAT_KICAD,
}

_KNOWN_FORMATS = (FORMAT_NATIVE, FORMAT_KICAD)


class InputError(ValueError):
    """Board, connection or route input that cannot be used as given.

    Every reader's error derives from it, so the CLI and the service
    catch this one type at their boundary (exit 2, HTTP 400, or 422 for
    an :class:`UnknownReferenceError`) instead of failing as if routing
    had.
    """


class FormatError(InputError):
    """A path/format combination the registry cannot satisfy."""


class UnknownReferenceError(InputError):
    """A connection names a net or pin its board lacks."""


def check_connections(board: Board, connections: Iterable[Connection]) -> None:
    """Raise :class:`UnknownReferenceError` for the first connection
    naming a net or pin ``board`` lacks."""
    n_nets, n_pins = len(board.nets), len(board.pins)
    for conn in connections:
        if not (
            0 <= conn.net_id < n_nets
            and 0 <= conn.pin_a < n_pins
            and 0 <= conn.pin_b < n_pins
        ):
            raise UnknownReferenceError(
                f"connection {conn.conn_id} names a net or pin the board "
                "lacks"
            )


@dataclass
class LoadedBoard:
    """A board plus everything a format's loader derived from the file.

    ``workspace`` is non-None when the input carries routing state: a
    ``.kicad_pcb`` pre-seeds dispersion traces and any routes a previous
    export embedded, and a route dump is restored into that workspace
    (into a fresh one for native text).  ``restored`` lists the
    connection ids already routed in it.  ``source`` keeps the
    format-specific import object (a
    :class:`repro.io.kicad.KicadImport`) that the matching
    :func:`save_routes` needs to write results back.
    """

    board: Board
    connections: Tuple[Connection, ...]
    format: str
    path: Optional[str] = None
    workspace: Optional["RoutingWorkspace"] = None
    restored: Tuple[int, ...] = ()
    source: Optional[object] = None

    @property
    def pending(self) -> Tuple[Connection, ...]:
        """Connections not already routed in :attr:`workspace`."""
        if self.workspace is None or not self.restored:
            return self.connections
        done = set(self.restored)
        return tuple(
            conn for conn in self.connections if conn.conn_id not in done
        )


def detect_format(path: Union[str, os.PathLike], format: str = "auto") -> str:
    """The format a path resolves to: by extension, or the override.

    ``format="auto"`` (the default) maps ``.kicad_pcb`` to ``"kicad"``
    and everything else to ``"native"``.  Any other value names a format
    explicitly and merely has to be one the registry knows.
    """
    if format != "auto":
        if format not in _KNOWN_FORMATS:
            raise FormatError(
                f"unknown format {format!r}; expected one of "
                f"{', '.join(_KNOWN_FORMATS)} or 'auto'"
            )
        return format
    ext = os.path.splitext(os.fspath(path))[1].lower()
    return _EXTENSIONS.get(ext, FORMAT_NATIVE)


def load_board(
    path: Union[str, os.PathLike],
    *,
    format: str = "auto",
    connections_path: Optional[Union[str, os.PathLike]] = None,
    routes_path: Optional[Union[str, os.PathLike]] = None,
    pitch_mm: Optional[float] = None,
) -> LoadedBoard:
    """Load a board, its connection list and a route dump from files.

    The format comes from the board's extension unless ``format``
    overrides it; the files are read as UTF-8 and decoded by
    :func:`load_board_text`.  A file that cannot be read (missing, a
    directory, not UTF-8) raises :class:`InputError` naming it.
    """
    path = os.fspath(path)
    resolved = detect_format(path, format)
    # Refused before any file is read.
    _check_netlist_source(resolved, connections_path is not None)
    return load_board_text(
        _read_text(path),
        _read_text(connections_path),
        _read_text(routes_path),
        format=resolved,
        pitch_mm=pitch_mm,
        path=path,
    )


def _read_text(path: Optional[Union[str, os.PathLike]]) -> Optional[str]:
    if path is None:
        return None
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as stream:
            return stream.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start})"
        ) from exc


def _check_netlist_source(format: str, has_connections: bool) -> None:
    if format == FORMAT_KICAD and has_connections:
        raise FormatError(
            "kicad boards embed their netlist; a separate connection "
            "list cannot be combined with a .kicad_pcb"
        )


def load_board_text(
    board_text: str,
    connections_text: Optional[str] = None,
    routes_text: Optional[str] = None,
    *,
    format: str = FORMAT_NATIVE,
    pitch_mm: Optional[float] = None,
    path: Optional[str] = None,
) -> LoadedBoard:
    """Decode a board, its connection list and a route dump.

    The one decoder: :func:`load_board` and the service boundary both
    end here, so the wire format and the file format can never drift
    apart.  ``format`` must be explicit (text has no extension to
    sniff).  Native boards take their connections from
    ``connections_text``, else from stringing the board's nets; KiCad
    documents embed their netlist and refuse one.  ``routes_text`` is
    a route dump restored into the format's own workspace (the KiCad
    import's, beside its dispersion traces and embedded routes, or a
    fresh one for native text), and ``restored`` lists every route it
    then holds.  ``path`` names the file the board came from.
    """
    if format not in _KNOWN_FORMATS:
        raise FormatError(
            f"text input needs an explicit format, one of "
            f"{', '.join(_KNOWN_FORMATS)}; got {format!r}"
        )
    _check_netlist_source(format, connections_text is not None)
    workspace = source = None
    restored: Tuple[int, ...] = ()
    if format == FORMAT_KICAD:
        from repro.io import kicad

        source = kicad.import_board(
            board_text, path=path or "<kicad>", pitch_mm=pitch_mm
        )
        board = source.board
        connections = tuple(source.connections)
        workspace = source.workspace
        restored = tuple(source.restored)
    else:
        from repro.io.netlist import read_board, read_connections

        board = read_board(_io.StringIO(board_text))
        if connections_text is not None:
            connections = tuple(
                read_connections(_io.StringIO(connections_text))
            )
            check_connections(board, connections)
        else:
            from repro.stringer import Stringer

            connections = tuple(Stringer(board).string_all())
    if routes_text is not None:
        from repro.io.dump import load_routes

        if workspace is None:
            from repro.channels.workspace import RoutingWorkspace

            workspace = RoutingWorkspace(board)
        restored += tuple(load_routes(workspace, _io.StringIO(routes_text)))
    return LoadedBoard(
        board=board,
        connections=connections,
        format=format,
        path=path,
        workspace=workspace,
        restored=restored,
        source=source,
    )


def save_board(
    board: Board,
    path: Union[str, os.PathLike],
    *,
    format: str = "auto",
) -> None:
    """Write a board in the format its destination path implies."""
    path = os.fspath(path)
    resolved = detect_format(path, format)
    if resolved == FORMAT_KICAD:
        from repro.io import kicad

        with open(path, "w", encoding="utf-8") as stream:
            stream.write(kicad.write_board_sexp(board))
        return
    from repro.io.netlist import write_board

    with open(path, "w", encoding="utf-8") as stream:
        write_board(board, stream)


def save_connections(
    connections: Sequence[Connection],
    path: Union[str, os.PathLike],
    *,
    format: str = "auto",
) -> None:
    """Write a connection list in the format the path implies.

    KiCad has no standalone connection-list document — its netlist
    lives inside the board — so a ``.kicad_pcb`` destination is
    rejected with a pointer at ``save_board``.
    """
    path = os.fspath(path)
    resolved = detect_format(path, format)
    if resolved == FORMAT_KICAD:
        raise FormatError(
            "kicad has no standalone connection-list file; the netlist "
            "is part of the board document (use save_board)"
        )
    from repro.io.netlist import write_connections

    with open(path, "w", encoding="utf-8") as stream:
        write_connections(connections, stream)


def save_routes(
    workspace: "RoutingWorkspace",
    path: Union[str, os.PathLike],
    *,
    format: str = "auto",
    source: Optional[object] = None,
) -> None:
    """Write routing results in the format the path implies.

    Native destinations get the reloadable route dump.  A
    ``.kicad_pcb`` destination writes the routed copper back into the
    original document — which requires the :class:`LoadedBoard.source`
    import object, so only boards loaded *from* kicad can export to it.
    """
    path = os.fspath(path)
    resolved = detect_format(path, format)
    if resolved == FORMAT_KICAD:
        from repro.io import kicad

        if source is None:
            raise FormatError(
                "exporting routes to .kicad_pcb needs the original "
                "import (LoadedBoard.source); the board was not loaded "
                "from a kicad document"
            )
        kicad.save_file(source, path, workspace)
        return
    from repro.io.dump import save_routes as save_dump

    with open(path, "w", encoding="utf-8") as stream:
        save_dump(workspace, stream)
