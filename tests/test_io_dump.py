"""Unit tests for route dumps (save/load of routed boards)."""

import io

import pytest

from repro.channels.workspace import RoutingWorkspace
from repro.core.router import GreedyRouter
from repro.io.dump import RouteDumpError, load_routes, save_routes
from repro.obs.audit import WorkspaceAuditor
from repro.stringer import Stringer
from repro.workloads import BoardSpec, generate_board, make_titan_board

from tests.helpers import assert_workspace_consistent


@pytest.fixture
def routed():
    board = generate_board(BoardSpec(via_nx=36, via_ny=36, seed=6))
    conns = Stringer(board).string_all()
    router = GreedyRouter(board)
    result = router.route(conns)
    assert result.complete
    return board, conns, router.workspace


class TestRoundtrip:
    def test_exact_restore(self, routed):
        board, conns, ws = routed
        buf = io.StringIO()
        save_routes(ws, buf)
        buf.seek(0)
        fresh = RoutingWorkspace(board)
        restored = load_routes(fresh, buf)
        assert set(restored) == set(ws.records)
        assert fresh.used_cells() == ws.used_cells()
        assert (
            fresh.via_map.used_via_count() == ws.via_map.used_via_count()
        )
        assert_workspace_consistent(fresh)

    def test_links_preserved(self, routed):
        board, conns, ws = routed
        buf = io.StringIO()
        save_routes(ws, buf)
        buf.seek(0)
        fresh = RoutingWorkspace(board)
        load_routes(fresh, buf)
        for conn_id, record in ws.records.items():
            loaded = fresh.records[conn_id]
            assert len(loaded.links) == len(record.links)
            assert loaded.wire_length == record.wire_length
            assert loaded.vias == record.vias

    def test_reload_on_occupied_board_fails(self, routed):
        board, conns, ws = routed
        buf = io.StringIO()
        save_routes(ws, buf)
        buf.seek(0)
        with pytest.raises(RouteDumpError):
            load_routes(ws, buf)  # routes already present


class TestFormatErrors:
    def test_unterminated_record(self):
        board = generate_board(BoardSpec(via_nx=36, via_ny=36, seed=6))
        ws = RoutingWorkspace(board)
        with pytest.raises(RouteDumpError):
            load_routes(ws, io.StringIO("route 3\nseg 0 0 1 2\n"))

    def test_seg_outside_route(self):
        board = generate_board(BoardSpec(via_nx=36, via_ny=36, seed=6))
        ws = RoutingWorkspace(board)
        with pytest.raises(RouteDumpError):
            load_routes(ws, io.StringIO("seg 0 0 1 2\n"))

    def test_unknown_record(self):
        board = generate_board(BoardSpec(via_nx=36, via_ny=36, seed=6))
        ws = RoutingWorkspace(board)
        with pytest.raises(RouteDumpError):
            load_routes(ws, io.StringIO("wat 1\n"))


@pytest.fixture(scope="module")
def tna_dump():
    """tna at scale 0.30, seed 1: the board and its route dump's lines."""
    board = make_titan_board("tna", scale=0.30, seed=1)
    router = GreedyRouter(board)
    router.route(Stringer(board).string_all())
    buf = io.StringIO()
    save_routes(router.workspace, buf)
    return board, buf.getvalue().splitlines()


def _records(lines):
    """(start, end) line indices of each ``route`` ... ``end`` block."""
    starts = [i for i, line in enumerate(lines) if line.startswith("route ")]
    return [(s, lines.index("end", s)) for s in starts]


def _set_field(lines, i, field, value):
    fields = lines[i].split()
    fields[field] = str(value)
    lines[i] = " ".join(fields)


def _assert_refused(board, lines):
    """The dump raises RouteDumpError and leaves the workspace as it was."""
    ws = RoutingWorkspace(board)
    before = ws.canonical_state()
    with pytest.raises(RouteDumpError):
        load_routes(ws, io.StringIO("\n".join(lines) + "\n"))
    assert ws.canonical_state() == before
    assert WorkspaceAuditor(ws).audit().ok


class TestCorruptRecords:
    """Records that used to load into a wrong or half-installed state."""

    def test_negative_seg_layer_is_refused(self, tna_dump):
        # Layer -1 used to restore onto the last layer.
        board, lines = tna_dump
        lines = list(lines)
        i = next(i for i, line in enumerate(lines) if line.startswith("seg "))
        _set_field(lines, i, 1, -1)
        _assert_refused(board, lines)

    def test_negative_link_layer_is_refused(self, tna_dump):
        board, lines = tna_dump
        lines = list(lines)
        i = next(i for i, line in enumerate(lines) if line.startswith("link "))
        _set_field(lines, i, 1, -1)
        _assert_refused(board, lines)

    def test_negative_channel_leaves_no_orphan_copper(self, tna_dump):
        # The record's earlier segments used to stay installed when its
        # last one named channel -1.
        board, lines = tna_dump
        lines = list(lines)
        start, end = next(
            (s, e)
            for s, e in _records(lines)
            if sum(line.startswith("seg ") for line in lines[s:e]) >= 2
        )
        i = max(k for k in range(start, end) if lines[k].startswith("seg "))
        _set_field(lines, i, 2, -1)
        _assert_refused(board, lines)

    def test_overlapping_segs_of_one_record_are_refused(self, tna_dump):
        # They used to load with bounds the channel never installed, so
        # ripping the route up later raised KeyError.
        board, lines = tna_dump
        lines = list(lines)
        i = next(i for i, line in enumerate(lines) if line.startswith("seg "))
        lines.insert(i + 1, lines[i])
        _assert_refused(board, lines)

    def test_via_listed_twice_is_refused(self, tna_dump):
        board, lines = tna_dump
        lines = list(lines)
        i = next(i for i, line in enumerate(lines) if line.startswith("via "))
        lines.insert(i + 1, lines[i])
        _assert_refused(board, lines)

    def test_connection_listed_twice_is_refused(self, tna_dump):
        board, lines = tna_dump
        start, end = _records(lines)[0]
        _assert_refused(board, list(lines) + lines[start : end + 1])

    def test_a_route_that_does_not_fit_takes_the_earlier_ones_out(
        self, tna_dump
    ):
        # The last record runs over a pin: refused after every other
        # record was restored, which must all come out again.
        board, lines = tna_dump
        layer = RoutingWorkspace(board).layers[0]
        c, x = layer.point_cc(board.grid.via_to_grid(board.pins[0].position))
        conn_id = 1 + max(
            int(line.split()[1]) for line in lines if line.startswith("route ")
        )
        lines = list(lines) + [f"route {conn_id}", f"seg 0 {c} {x} {x}", "end"]
        _assert_refused(board, lines)

    def test_a_loaded_dump_comes_out_again(self, tna_dump):
        board, lines = tna_dump
        ws = RoutingWorkspace(board)
        before = ws.canonical_state()
        restored = load_routes(ws, io.StringIO("\n".join(lines) + "\n"))
        assert WorkspaceAuditor(ws).audit().ok
        for conn_id in restored:
            ws.remove_connection(conn_id)
        assert ws.canonical_state() == before
