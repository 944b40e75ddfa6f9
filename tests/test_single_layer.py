"""Unit tests for Trace, Vias and Obstructions (Section 7)."""

import pytest

from repro.board.board import Board
from repro.channels.workspace import RoutingWorkspace
from repro.core.single_layer import obstructions, trace
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box

from tests.helpers import assert_link_connected, link_cells, vias_in_box


@pytest.fixture
def ws():
    board = Board.create(via_nx=10, via_ny=8, n_signal_layers=2)
    return RoutingWorkspace(board)


def install(ws, layer_index, channel, lo, hi, owner=99):
    ws.add_segment(layer_index, channel, lo, hi, owner)


class FakeLink:
    def __init__(self, layer_index, a, b, pieces):
        self.layer_index = layer_index
        self.a = a
        self.b = b
        self.pieces = pieces


def assert_valid_trace(ws, layer_index, a, b, pieces):
    assert_link_connected(ws, FakeLink(layer_index, a, b, pieces))


class TestTrace:
    def test_straight_on_clear_channel(self, ws):
        a, b = GridPoint(0, 6), GridPoint(15, 6)
        pieces = trace(ws.layers[0], a, b, Box(0, 0, 27, 21))
        assert pieces == [(6, 0, 15)]

    def test_single_point(self, ws):
        a = GridPoint(4, 4)
        pieces = trace(ws.layers[0], a, a, Box(0, 0, 27, 21))
        assert pieces == [(4, 4, 4)]

    def test_jogs_around_obstacle(self, ws):
        # Block row 6 in the middle; the trace must jog to another row.
        install(ws, 0, 6, 5, 10)
        a, b = GridPoint(0, 6), GridPoint(15, 6)
        pieces = trace(ws.layers[0], a, b, Box(0, 0, 27, 21))
        assert pieces is not None
        assert len(pieces) > 1
        assert_valid_trace(ws, 0, a, b, pieces)

    def test_respects_box(self, ws):
        install(ws, 0, 6, 5, 10)
        a, b = GridPoint(0, 6), GridPoint(15, 6)
        # Box confined to the blocked row only: no path.
        assert trace(ws.layers[0], a, b, Box(0, 6, 27, 6)) is None

    def test_none_when_endpoint_buried(self, ws):
        install(ws, 0, 6, 0, 0)
        a, b = GridPoint(0, 6), GridPoint(15, 6)
        assert trace(ws.layers[0], a, b, Box(0, 0, 27, 21)) is None

    def test_passable_endpoint_cover(self, ws):
        # Endpoint covered by a pin-like owner that is passable.
        install(ws, 0, 6, 0, 0, owner=-5)
        a, b = GridPoint(0, 6), GridPoint(15, 6)
        pieces = trace(
            ws.layers[0], a, b, Box(0, 0, 27, 21), frozenset((-5,))
        )
        assert pieces == [(6, 0, 15)]

    def test_walled_off_region_unreachable(self, ws):
        # Vertical wall on the horizontal layer: block every row at x=12.
        for row in range(ws.grid.ny):
            install(ws, 0, row, 12, 12)
        a, b = GridPoint(0, 6), GridPoint(20, 6)
        assert trace(ws.layers[0], a, b, Box(0, 0, 27, 21)) is None

    def test_wall_with_hole(self, ws):
        for row in range(ws.grid.ny):
            if row != 11:
                install(ws, 0, row, 12, 12)
        a, b = GridPoint(0, 6), GridPoint(20, 6)
        pieces = trace(ws.layers[0], a, b, Box(0, 0, 27, 21))
        assert pieces is not None
        assert_valid_trace(ws, 0, a, b, pieces)
        # The path must pass through the hole at (12, 11).
        assert (12, 11) in link_cells(
            ws.layers[0].orientation, pieces
        )

    def test_vertical_layer(self, ws):
        a, b = GridPoint(6, 0), GridPoint(6, 15)
        pieces = trace(ws.layers[1], a, b, Box(0, 0, 27, 21))
        assert pieces == [(6, 0, 15)]

    def test_overlaps_trimmed_to_points(self, ws):
        # A dogleg between two rows: the shared overlap must be trimmed to
        # a single junction (Figure 7), not left as a wide double-run.
        install(ws, 0, 6, 8, 27)  # force leaving row 6 before x=8
        a, b = GridPoint(0, 6), GridPoint(20, 9)
        pieces = trace(ws.layers[0], a, b, Box(0, 0, 27, 21))
        assert pieces is not None
        assert_valid_trace(ws, 0, a, b, pieces)
        cells = link_cells(ws.layers[0].orientation, pieces)
        # Trimmed: total cells must be far below the full gaps' extents.
        assert len(cells) <= 40

    def test_max_gaps_cap(self, ws):
        a, b = GridPoint(0, 6), GridPoint(15, 6)
        # Force failure with an absurdly small gap budget.
        install(ws, 0, 6, 5, 10)
        assert (
            trace(ws.layers[0], a, b, Box(0, 0, 27, 21), max_gaps=1) is None
        )


class TestReachableVias:
    def test_cross_strip_neighbors(self, ws):
        # From a via on an empty horizontal layer with a radius-1 strip,
        # every via site within one via row is reachable (Figure 11).
        a = ViaPoint(4, 4)
        point = ws.grid.via_to_grid(a)
        box = ws.grid.via_strip(a, radius=1, axis="x")
        found = vias_in_box(
            ws.layers[0], point, box, frozenset(), ws.via_map
        )
        expected = {
            ViaPoint(vx, vy)
            for vx in range(10)
            for vy in (3, 4, 5)
        } - {a}
        assert set(found) == expected

    def test_radius_zero_only_own_row(self, ws):
        a = ViaPoint(4, 4)
        point = ws.grid.via_to_grid(a)
        box = ws.grid.via_strip(a, radius=0, axis="x")
        found = vias_in_box(
            ws.layers[0], point, box, frozenset(), ws.via_map
        )
        assert {v.vy for v in found} == {4}

    def test_occupied_sites_excluded(self, ws):
        ws.drill_via(ViaPoint(6, 4), owner=3)
        a = ViaPoint(4, 4)
        point = ws.grid.via_to_grid(a)
        box = ws.grid.via_strip(a, radius=0, axis="x")
        found = vias_in_box(
            ws.layers[0], point, box, frozenset(), ws.via_map
        )
        assert ViaPoint(6, 4) not in found
        # ... but still reachable for its own owner.
        found_own = vias_in_box(
            ws.layers[0], point, box, frozenset((3,)), ws.via_map
        )
        assert ViaPoint(6, 4) in found_own

    def test_blocked_by_wall(self, ws):
        for row in range(ws.grid.ny):
            install(ws, 0, row, 12, 12)
        a = ViaPoint(1, 4)
        point = ws.grid.via_to_grid(a)
        box = ws.grid.via_strip(a, radius=1, axis="x")
        found = vias_in_box(
            ws.layers[0], point, box, frozenset(), ws.via_map
        )
        assert all(ws.grid.via_to_grid(v).gx < 12 for v in found)

    def test_start_buried_returns_nothing(self, ws):
        install(ws, 0, 12, 12, 12)
        point = GridPoint(12, 12)
        box = ws.grid.via_strip(ViaPoint(4, 4), radius=1, axis="x")
        assert (
            vias_in_box(ws.layers[0], point, box, frozenset(), ws.via_map)
            == []
        )


class TestObstructions:
    def test_empty_layer_has_no_obstructions(self, ws):
        point = GridPoint(12, 12)
        assert obstructions(ws.layers[0], point, Box(6, 6, 18, 18)) == set()

    def test_finds_flanking_and_bounding_owners(self, ws):
        install(ws, 0, 12, 0, 9, owner=41)   # bounds the row-12 gap on the left
        install(ws, 0, 13, 10, 20, owner=42)  # flanks from the next channel
        point = GridPoint(12, 12)
        found = obstructions(ws.layers[0], point, Box(6, 6, 18, 18))
        assert found == {41, 42}

    def test_passable_owners_ignored(self, ws):
        install(ws, 0, 12, 0, 9, owner=41)
        point = GridPoint(12, 12)
        found = obstructions(
            ws.layers[0], point, Box(6, 6, 18, 18), frozenset((41,))
        )
        assert found == set()

    def test_buried_point_reports_its_cover(self, ws):
        install(ws, 0, 12, 10, 14, owner=77)
        point = GridPoint(12, 12)
        found = obstructions(ws.layers[0], point, Box(6, 6, 18, 18))
        assert found == {77}
