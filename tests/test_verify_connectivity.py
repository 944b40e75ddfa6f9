"""Unit tests for the net-level connectivity verifier."""

import dataclasses

import pytest

from repro.core.router import GreedyRouter
from repro.stringer import Stringer
from repro.verify import check_connectivity
from repro.verify.connectivity import connection_is_path
from repro.workloads import BoardSpec, generate_board


@pytest.fixture(scope="module")
def routed():
    board = generate_board(BoardSpec(via_nx=36, via_ny=36, seed=6))
    connections = Stringer(board).string_all()
    router = GreedyRouter(board)
    result = router.route(connections)
    assert result.complete
    return board, connections, router.workspace


class TestFullBoard:
    def test_everything_connected(self, routed):
        board, connections, ws = routed
        report = check_connectivity(board, ws, connections)
        assert report.fully_connected
        assert report.broken_connections == []

    def test_nets_are_chains(self, routed):
        # Section 3: nets are connected as chains.
        board, connections, ws = routed
        report = check_connectivity(board, ws, connections)
        multi = [n for n in report.nets if n.pin_count >= 2]
        assert multi
        assert all(n.is_chain for n in multi)

    def test_ecl_chain_ends(self, routed):
        # Output at one end, terminating resistor at the other.
        board, connections, ws = routed
        report = check_connectivity(board, ws, connections)
        checked = [n for n in report.nets if n.chain_ends_valid is not None]
        assert checked
        assert all(n.chain_ends_valid for n in checked)

    def test_per_connection_paths(self, routed):
        board, connections, ws = routed
        for conn in connections:
            record = ws.records[conn.conn_id]
            assert connection_is_path(ws, conn, record)


class TestSharedPins:
    def test_clean_board_has_none(self, routed):
        board, connections, ws = routed
        assert check_connectivity(board, ws, connections).shorted_pins == {}

    def test_pin_ending_two_nets_fails_the_board(self, routed):
        # A connection of another net ending on this net's terminator:
        # every net still reads connected, yet the board is shorted.
        board, connections, ws = routed
        ecl = next(c for c in connections if c.family.needs_termination)
        victim = next(c for c in connections if c.net_id != ecl.net_id)
        extra = dataclasses.replace(
            victim,
            conn_id=max(c.conn_id for c in connections) + 1,
            pin_b=ecl.pin_b,
            b=ecl.b,
        )
        report = check_connectivity(board, ws, connections + [extra])
        assert report.shorted_pins == {
            ecl.pin_b: tuple(sorted((ecl.net_id, victim.net_id)))
        }
        assert all(n.connected for n in report.nets)
        assert report.broken_connections == []
        assert not report.fully_connected


class TestBrokenBoards:
    def test_missing_route_reported(self, routed):
        board, connections, ws = routed
        victim = connections[0]
        record = ws.remove_connection(victim.conn_id)
        try:
            report = check_connectivity(board, ws, connections)
            status = next(
                n for n in report.nets if n.net_id == victim.net_id
            )
            assert not status.connected
            assert status.missing_edges >= 1
            assert not report.fully_connected
        finally:
            assert ws.restore_record(record)

    def test_tampered_record_detected(self, routed):
        board, connections, ws = routed
        victim = connections[0]
        record = ws.records[victim.conn_id]
        # Corrupt the metadata: claim the route ends somewhere else.
        original_b = record.links[-1].b
        from repro.grid.coords import GridPoint

        record.links[-1].b = GridPoint(0, 0)
        try:
            report = check_connectivity(board, ws, connections)
            assert victim.conn_id in report.broken_connections
        finally:
            record.links[-1].b = original_b

    def test_gap_in_link_detected(self, routed):
        board, connections, ws = routed
        # A link whose pieces do not touch is not a path.
        victim = next(
            c
            for c in connections
            if ws.records[c.conn_id].links
            and ws.records[c.conn_id].links[0].pieces
        )
        record = ws.records[victim.conn_id]
        link = record.links[0]
        original = list(link.pieces)
        c0, lo0, hi0 = link.pieces[0]
        link.pieces[0] = (c0 + 5 if c0 + 5 < 90 else c0 - 5, lo0, hi0)
        try:
            assert not connection_is_path(ws, victim, record)
        finally:
            link.pieces[:] = original
