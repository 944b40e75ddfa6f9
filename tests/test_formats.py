"""The format-agnostic loading API: registry, `repro.api`, and CLI.

One shared loading path serves every entry point: `detect_format`
chooses a reader by extension, `load_board` returns a `LoadedBoard`
whatever the source format, and `RouteRequest.from_path` rides on top.
"""

import io
import os

import pytest

import repro.api as api
from repro.cli import main
from repro.io import (
    FORMAT_KICAD,
    FORMAT_NATIVE,
    FormatError,
    detect_format,
    load_board,
    load_board_text,
    save_board,
    save_connections,
    save_route_dump,
    write_board,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CHARLIE = os.path.join(FIXTURES, "charlie_th.kicad_pcb")
MIXED = os.path.join(FIXTURES, "mixed_smd.kicad_pcb")


class TestDetectFormat:
    def test_by_extension(self):
        assert detect_format("x.kicad_pcb") == FORMAT_KICAD
        assert detect_format("x.board") == FORMAT_NATIVE
        assert detect_format("x") == FORMAT_NATIVE

    def test_explicit_override_wins(self):
        assert detect_format("x.kicad_pcb", format="native") == FORMAT_NATIVE
        assert detect_format("x.board", format="kicad") == FORMAT_KICAD

    def test_unknown_format_rejected(self):
        with pytest.raises(FormatError):
            detect_format("x.board", format="gerber")


class TestLoadBoard:
    def test_kicad(self):
        loaded = load_board(CHARLIE)
        assert loaded.format == FORMAT_KICAD
        assert loaded.workspace is not None
        assert loaded.source is not None
        assert loaded.connections
        assert loaded.pending == loaded.connections

    def test_kicad_rejects_connections_path(self):
        with pytest.raises(FormatError):
            load_board(CHARLIE, connections_path="x.conns")

    def test_native(self, tmp_path):
        board_path = str(tmp_path / "b.board")
        assert main(
            ["generate", board_path, "--config", "tna",
             "--scale", "0.2", "--seed", "3"]
        ) == 0
        loaded = load_board(board_path)
        assert loaded.format == FORMAT_NATIVE
        assert loaded.workspace is None
        assert loaded.connections  # strung on the fly

    def test_save_connections_rejects_kicad(self, tmp_path):
        loaded = load_board(CHARLIE)
        with pytest.raises(FormatError, match="save_board"):
            save_connections(
                loaded.connections, str(tmp_path / "x.kicad_pcb")
            )

    def test_save_board_kicad_round_trips(self, tmp_path):
        loaded = load_board(CHARLIE)
        out = str(tmp_path / "copy.kicad_pcb")
        save_board(loaded.board, out)
        again = load_board(out)
        assert len(again.board.pins) == len(loaded.board.pins)
        assert len(again.board.nets) == len(loaded.board.nets)


def _decoded(loaded):
    """What a load decides: the board as text, the connections, the
    restored ids and the routed state."""
    board = io.StringIO()
    write_board(loaded.board, board)
    return (
        board.getvalue(),
        loaded.connections,
        loaded.restored,
        loaded.workspace.state_digest(),
    )


class TestOneDecoder:
    """`load_board` reads files and hands their texts to
    `load_board_text`; a route dump lands in the format's own
    workspace."""

    def test_native_files_decode_as_their_texts(self, tmp_path):
        paths = [
            str(tmp_path / name) for name in ("b.board", "b.conns", "b.routes")
        ]
        main(["generate", paths[0], "--config", "tna",
              "--scale", "0.2", "--seed", "3"])
        main(["string", *paths[:2]])
        assert main(["route", *paths]) == 0
        loaded = load_board(
            paths[0], connections_path=paths[1], routes_path=paths[2]
        )
        texts = []
        for path in paths:
            with open(path, encoding="utf-8") as stream:
                texts.append(stream.read())
        assert loaded.restored and not loaded.pending
        assert _decoded(loaded) == _decoded(
            load_board_text(*texts, format="native", path=paths[0])
        )

    def test_kicad_dump_keeps_the_dispersion_traces(self, tmp_path):
        response = api.route(api.RouteRequest.from_path(MIXED))
        cold = response.result.workspace.state_digest()
        dump_path = str(tmp_path / "mixed.routes")
        with open(dump_path, "w", encoding="utf-8") as stream:
            save_route_dump(response.result.workspace, stream)
        loaded = load_board(MIXED, routes_path=dump_path)
        assert loaded.workspace.state_digest() == cold
        assert set(loaded.restored) == set(response.result.routed_by)
        assert not loaded.pending
        with open(MIXED, encoding="utf-8") as stream:
            board_text = stream.read()
        with open(dump_path, encoding="utf-8") as stream:
            dump_text = stream.read()
        assert _decoded(loaded) == _decoded(
            load_board_text(
                board_text, None, dump_text, format="kicad", path=MIXED
            )
        )


class TestApiFromPath:
    def test_kicad_route(self):
        request = api.RouteRequest.from_path(MIXED)
        assert request.workspace is not None
        response = api.route(request)
        assert response.result.complete
        assert response.result.routed_count == len(request.connections)

    def test_native_route(self, tmp_path):
        board_path = str(tmp_path / "b.board")
        main(["generate", board_path, "--config", "tna",
              "--scale", "0.2", "--seed", "3"])
        request = api.RouteRequest.from_path(board_path)
        assert request.workspace is None
        response = api.route(request)
        assert response.result.routed_count > 0

    def test_load_board_reexported(self):
        # load_board is part of the public api surface.
        assert api.load_board is load_board

    def test_request_from_text_kicad(self):
        with open(MIXED, encoding="utf-8") as stream:
            text = stream.read()
        request = api.request_from_text(text, format="kicad")
        assert request.workspace is not None
        assert api.route(request).result.complete


class TestCliKicad:
    def test_route_default_output(self, tmp_path, capsys):
        board = str(tmp_path / "demo.kicad_pcb")
        main(["generate", board, "--config", "kdj11_2l",
              "--scale", "0.2", "--seed", "5"])
        assert main(["route", board]) == 0
        out = str(tmp_path / "demo.routed.kicad_pcb")
        assert os.path.exists(out)
        assert "routed" in capsys.readouterr().out
        # The routed document stands alone: verify needs no side files.
        assert main(["verify", out]) == 0
        assert "VERDICT: PASS" in capsys.readouterr().out

    def test_route_rejects_extra_positionals(self, tmp_path):
        board = str(tmp_path / "demo.kicad_pcb")
        main(["generate", board, "--config", "kdj11_2l",
              "--scale", "0.2", "--seed", "5"])
        with pytest.raises(SystemExit, match="embed their netlist"):
            main(["route", board, "out.kicad_pcb", "x.routes"])

    def test_inspect(self, capsys):
        assert main(["kicad", "inspect", MIXED]) == 0
        out = capsys.readouterr().out
        assert "dispersed_pads: 8" in out

    def test_import_export(self, tmp_path, capsys):
        board = str(tmp_path / "imp.board")
        conns = str(tmp_path / "imp.conns")
        routes = str(tmp_path / "imp.routes")
        assert main(["kicad", "import", MIXED, board, conns]) == 0
        assert main(["route", board, conns, routes]) == 0
        out = str(tmp_path / "exported.kicad_pcb")
        assert main(["kicad", "export", MIXED, routes, out]) == 0
        assert main(["verify", out]) == 0
        assert "VERDICT: PASS" in capsys.readouterr().out

    def test_eco_write_board_extension_rules(self, tmp_path, capsys):
        board = str(tmp_path / "demo.kicad_pcb")
        main(["generate", board, "--config", "kdj11_2l",
              "--scale", "0.2", "--seed", "5"])
        main(["route", board])
        routed = str(tmp_path / "demo.routed.kicad_pcb")
        post = str(tmp_path / "post.kicad_pcb")
        assert main(
            ["eco", routed, str(tmp_path / "out.eco.kicad_pcb"),
             "--cut-net", "0", "--write-board", post]
        ) == 0
        assert os.path.exists(post)
        capsys.readouterr()
        # A .kicad_pcb connections dump is rejected with a clean error.
        assert main(
            ["eco", routed, str(tmp_path / "out2.eco.kicad_pcb"),
             "--cut-net", "1",
             "--write-connections", str(tmp_path / "bad.kicad_pcb")]
        ) == 2
        assert "rejected" in capsys.readouterr().err
