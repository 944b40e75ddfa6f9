"""Unit tests for the KiCad board interchange (`repro.io.kicad`).

The two checked-in fixture boards are the contract: `charlie_th` is a
synthesised two-layer through-hole board entirely on the via grid,
`mixed_smd` is a hand-written four-copper-layer board with a rotated
fine-pitch SMD footprint that exercises pad dispersion.
"""

import os
import re

import pytest

from repro.board.parts import PinRole
from repro.core.router import make_router
from repro.io import kicad
from repro.io.kicad import KicadFormatError, is_power_net_name
from repro.io.registry import InputError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CHARLIE = os.path.join(FIXTURES, "charlie_th.kicad_pcb")
MIXED = os.path.join(FIXTURES, "mixed_smd.kicad_pcb")


def _route(imp):
    router = make_router(imp.board, workspace=imp.workspace)
    result = router.route(imp.connections)
    assert result.complete
    return router


class TestPowerNetHeuristic:
    @pytest.mark.parametrize(
        "name", ["GND", "gnd", "AGND", "VCC", "VDD", "VSS", "+5V", "-12v",
                 "3.3V", "+3V3", "PWR", "pwr2"]
    )
    def test_power_names(self, name):
        assert is_power_net_name(name)

    @pytest.mark.parametrize(
        "name", ["CLK", "D0", "Net-(U1-Pad3)", "V_REF", "5", "GND_SENSE"]
    )
    def test_signal_names(self, name):
        assert not is_power_net_name(name)


class TestImportCharlie:
    def test_summary(self):
        imp = kicad.load_file(CHARLIE)
        summary = imp.summary()
        assert summary["copper_layers"] == ["F.Cu", "In1.Cu"]
        assert summary["power_layers"] == 2
        assert summary["pitch_mm"] == 2.54
        assert summary["dispersed_pads"] == 0
        assert summary["on_grid_pads"] == summary["pads"]
        assert summary["connections"] > 0
        assert summary["restored_routes"] == 0
        assert summary["foreign_copper"] == 0

    def test_parts_and_nets_reconstructed(self):
        imp = kicad.load_file(CHARLIE)
        assert len(imp.board.parts) == 8
        # Every connection endpoint is a real pin on the via grid.
        for conn in imp.connections:
            assert imp.board.grid.contains_via(conn.a)
            assert imp.board.grid.contains_via(conn.b)


class TestImportMixed:
    def test_summary(self):
        imp = kicad.load_file(MIXED)
        summary = imp.summary()
        assert summary["copper_layers"] == ["F.Cu", "In2.Cu", "B.Cu"]
        assert summary["power_layers"] == 1
        assert summary["footprints"] == 4
        assert summary["dispersed_pads"] == 8  # all of U3's SMD pads
        assert summary["nets"] == 12

    def test_rotated_pads_land_at_true_coordinates(self):
        imp = kicad.load_file(MIXED)
        # U3 sits at (48.26, 31.0) rotated 90 degrees: pad 1's local
        # offset (-1.2, 2.4) maps to (48.26 + 2.4, 31.0 + 1.2).
        pad1 = next(
            p for p in imp.pads if p.reference == "U3" and p.name == "1"
        )
        assert pad1.x_mm == pytest.approx(50.66)
        assert pad1.y_mm == pytest.approx(32.2)
        assert pad1.dispersed

    def test_power_pads_become_plane_pins(self):
        imp = kicad.load_file(MIXED)
        for pad in imp.pads:
            net_name = imp.kicad_net_names.get(pad.kicad_net, "")
            if net_name in ("GND", "+5V"):
                assert pad.role is PinRole.POWER
        # Power rails are never strung as signal connections.
        power_net_ids = {
            net.net_id for net in imp.board.nets
            if net.name in ("GND", "+5V")
        }
        assert power_net_ids
        assert not any(
            conn.net_id in power_net_ids for conn in imp.connections
        )

    def test_unconnected_pad_gets_no_net(self):
        imp = kicad.load_file(MIXED)
        pad7 = next(
            p for p in imp.pads if p.reference == "U3" and p.name == "7"
        )
        assert pad7.kicad_net == 0

    def test_dispersed_pads_have_distinct_vias(self):
        imp = kicad.load_file(MIXED)
        vias = [p.via for p in imp.pads if p.dispersed]
        assert len(set(vias)) == len(vias)
        assert all(imp.workspace.via_map.is_drilled(v) for v in vias)


class TestImportErrors:
    def test_not_sexp(self):
        with pytest.raises(KicadFormatError):
            kicad.import_board("not a board")

    def test_wrong_top_tag(self):
        with pytest.raises(KicadFormatError, match="kicad_pcb"):
            kicad.import_board("(pcb (layers))")

    def test_too_few_copper_layers(self):
        with pytest.raises(KicadFormatError, match="two routable"):
            kicad.import_board(
                '(kicad_pcb (layers (0 "F.Cu" signal))'
                ' (footprint "x" (at 1 1)'
                ' (pad "1" thru_hole circle (at 0 0))))'
            )

    def test_no_pads(self):
        with pytest.raises(KicadFormatError, match="no connective pads"):
            kicad.import_board(
                '(kicad_pcb (layers (0 "F.Cu" signal) (31 "B.Cu" signal)))'
            )

    def test_bad_pitch(self):
        with pytest.raises(KicadFormatError, match="pitch"):
            kicad.import_board("(kicad_pcb)", pitch_mm=-1.0)


@pytest.mark.parametrize("path", [CHARLIE, MIXED], ids=["charlie", "mixed"])
class TestRoundTrip:
    def test_route_export_reimport_is_identical(self, path):
        imp = kicad.load_file(path)
        router = _route(imp)
        exported = kicad.export_document(imp, router.workspace)

        re_imp = kicad.import_board(exported, path=path)
        assert len(re_imp.restored) == len(imp.connections)
        assert re_imp.foreign_copper == 0
        assert (
            re_imp.workspace.canonical_state()
            == router.workspace.canonical_state()
        )

    def test_reexport_is_byte_identical(self, path):
        imp = kicad.load_file(path)
        router = _route(imp)
        exported = kicad.export_document(imp, router.workspace)
        re_imp = kicad.import_board(exported, path=path)
        assert kicad.export_document(re_imp, re_imp.workspace) == exported

    def test_original_bytes_preserved(self, path):
        with open(path, encoding="utf-8") as stream:
            original = stream.read()
        imp = kicad.import_board(original, path=path)
        router = _route(imp)
        exported = kicad.export_document(imp, router.workspace)
        for line in original.splitlines():
            if line.strip():
                assert line in exported


class TestForeignCopper:
    def test_foreign_segments_survive_but_are_not_imported(self):
        imp = kicad.load_file(MIXED)
        router = _route(imp)
        exported = kicad.export_document(imp, router.workspace)
        foreign = (
            '  (segment (start 1 1) (end 2 1) (width 0.25)'
            ' (layer "F.Cu") (net 3))\n'
        )
        patched = exported[: exported.rstrip().rfind(")")] + foreign + ")\n"
        re_imp = kicad.import_board(patched, path="mixed_smd.kicad_pcb")
        assert re_imp.foreign_copper == 1
        assert (
            re_imp.workspace.canonical_state()
            == router.workspace.canonical_state()
        )
        assert foreign.strip() in kicad.export_document(
            re_imp, re_imp.workspace
        )


class TestSynthWriter:
    def test_write_import_reconstructs_board(self):
        from repro.workloads import make_titan_board

        board = make_titan_board("nmc_4l", scale=0.15, seed=3)
        text = kicad.write_board_sexp(board)
        imp = kicad.import_board(text, path="synth.kicad_pcb")
        assert imp.board.grid.via_nx == board.grid.via_nx
        assert imp.board.grid.via_ny == board.grid.via_ny
        assert imp.board.stack.n_signal == board.stack.n_signal
        assert len(imp.board.pins) == len(board.pins)
        assert len(imp.board.nets) == len(board.nets)
        assert [tuple(p.position) for p in imp.board.pins] == [
            tuple(p.position) for p in board.pins
        ]


@pytest.fixture(scope="module")
def charlie_texts():
    """(original, routed export) of the charlie fixture."""
    with open(CHARLIE, encoding="utf-8") as stream:
        original = stream.read()
    imp = kicad.import_board(original, path=CHARLIE)
    return original, kicad.export_document(imp, _route(imp).workspace)


def _grr_line(text, kind):
    """The first exported ``segment``/``via`` line, newline included."""
    return next(
        line
        for line in text.splitlines(keepends=True)
        if line.lstrip().startswith(f"({kind} ") and "grr-c" in line
    )


def _double(text, kind):
    line = _grr_line(text, kind)
    return text.replace(line, line + line, 1)


def _edit(text, kind, pattern, replacement):
    """Rewrite the first exported ``kind`` line with one regex edit."""
    line = _grr_line(text, kind)
    edited = re.sub(pattern, replacement, line, count=1)
    assert edited != line
    return text.replace(line, edited, 1)


def _move_segment(text):
    """Shift the first exported segment to x = 9000 mm, length kept."""
    line = _grr_line(text, "segment")
    x0 = float(re.search(r"\(start (\S+) ", line).group(1))
    x1 = float(re.search(r"\(end (\S+) ", line).group(1))
    text = _edit(text, "segment", r"\(start \S+ ", "(start 9000 ")
    return _edit(text, "segment", r"\(end \S+ ", f"(end {9000 + x1 - x0} ")


def _pad_at(text, at):
    pad = "thru_hole circle (at 0 0)"
    assert pad in text
    return text.replace(pad, f"thru_hole circle {at}", 1)


#: Edits of the original fixture or its routed export that must be
#: refused with an InputError.
MALFORMED = {
    "doubled_via": lambda original, routed: _double(routed, "via"),
    "doubled_segment": lambda original, routed: _double(routed, "segment"),
    "segment_at_9000mm": lambda original, routed: _move_segment(routed),
    "start_not_a_number": lambda original, routed: _edit(
        routed, "segment", r"\(start \S+ ", "(start abc "
    ),
    "via_at_without_operands": lambda original, routed: _edit(
        routed, "via", r"\(at [^()]*\)", "(at)"
    ),
    "pad_at_not_numbers": lambda original, routed: _pad_at(
        original, "(at x y)"
    ),
    "pad_at_without_operands": lambda original, routed: _pad_at(
        original, "(at)"
    ),
}


class TestMalformedInput:
    """Broken documents are refused with an InputError (HTTP 400 on
    ``/route``, exit 2 from ``grr route``), never another exception."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_import_raises_input_error(self, charlie_texts, case):
        text = MALFORMED[case](*charlie_texts)
        assert text not in charlie_texts
        with pytest.raises(InputError):
            kicad.import_board(text, path=CHARLIE)

    def test_doubled_via_route_answers_400(self, charlie_texts):
        from tests.test_serve import _post, _serving

        text = MALFORMED["doubled_via"](*charlie_texts)
        with _serving() as port:
            status, payload = _post(
                port, "/route", {"board": text, "format": "kicad"}
            )
        assert status == 400, payload

    def test_doubled_via_cli_exits_2(self, charlie_texts, tmp_path, capsys):
        from repro.cli import main

        board = tmp_path / "doubled.kicad_pcb"
        board.write_text(MALFORMED["doubled_via"](*charlie_texts))
        assert main(["route", str(board), str(tmp_path / "out.kicad_pcb")]) == 2
        assert "KicadFormatError" in capsys.readouterr().err
