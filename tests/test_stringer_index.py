"""The stringer's sorted terminator index against a plain scan.

``Stringer._nearest_free_terminator`` walks an x-sorted index of the
board's free terminators instead of scanning every pin.  These tests
hold it to the scan it replaced — a copy kept here, not behind a
production switch — on ties, claimed and reserved pins, a single
column of terminators (the widest x-window), and whole boards.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board.board import Board
from repro.board.parts import PinRole, sip_package
from repro.board.technology import LogicFamily
from repro.grid.coords import ViaPoint, manhattan
from repro.stringer import Stringer, StringingError
from repro.workloads import (
    BoardSpec,
    NetlistSpec,
    generate_board,
    make_titan_board,
)

from tests.conftest import scaled

VIA_N = 12


def scan_nearest_free_terminator(board, position, reserved):
    """The full scan the index replaced: every pin, every query."""
    candidates = [
        p
        for p in board.free_terminator_pins()
        if p.pin_id not in reserved
    ]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda p: (manhattan(position, p.position), p.pin_id),
    )


class ScanStringer(Stringer):
    """Stringer answering terminator queries with the full scan."""

    def _nearest_free_terminator(self, position, reserved):
        return scan_nearest_free_terminator(self.board, position, reserved)


def _place(board, via, role):
    return board.add_part(sip_package(1), via, roles=[role]).pins[0]


@st.composite
def terminator_field(draw):
    """Terminators crowded on a small board (so distances tie), the
    ones claimed before the index is built, the reserved ones, and a
    query sequence that claims more pins as it goes."""
    n = draw(st.integers(1, 30))
    positions = draw(
        st.lists(
            st.tuples(st.integers(0, VIA_N - 1), st.integers(0, VIA_N - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    claimed = draw(st.sets(st.integers(0, n - 1)))
    reserved = draw(st.sets(st.integers(0, n - 1)))
    queries = draw(
        st.lists(
            st.tuples(
                st.integers(0, VIA_N - 1),
                st.integers(0, VIA_N - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return positions, claimed, reserved, queries


def _assert_queries_match(board, reserved, queries):
    """Query index and scan side by side; claim what the stringer
    would claim (the answer) whenever the query says so."""
    stringer = Stringer(board)
    for vx, vy, claim in queries:
        position = ViaPoint(vx, vy)
        got = stringer._nearest_free_terminator(position, reserved)
        want = scan_nearest_free_terminator(board, position, reserved)
        assert got is want
        if claim and got is not None:
            got.net_id = 0


class TestIndexMatchesScan:
    @given(terminator_field())
    @settings(max_examples=scaled(150), deadline=None)
    def test_ties_claims_and_reservations(self, field):
        positions, claimed, reserved, queries = field
        board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
        pins = [
            _place(board, ViaPoint(vx, vy), PinRole.TERMINATOR)
            for vx, vy in positions
        ]
        for i in claimed:
            pins[i].net_id = 0
        _assert_queries_match(board, set(reserved), queries)

    def test_equal_distance_goes_to_lowest_pin_id(self):
        board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
        # Four terminators at distance 3 from (6, 6), placed so the
        # lowest pin id is neither the leftmost nor the first in x order.
        east = _place(board, ViaPoint(9, 6), PinRole.TERMINATOR)
        west = _place(board, ViaPoint(3, 6), PinRole.TERMINATOR)
        north = _place(board, ViaPoint(6, 9), PinRole.TERMINATOR)
        _place(board, ViaPoint(5, 4), PinRole.TERMINATOR)
        stringer = Stringer(board)
        centre = ViaPoint(6, 6)
        assert stringer._nearest_free_terminator(centre, set()) is east
        east.net_id = 0
        assert stringer._nearest_free_terminator(centre, set()) is west
        assert (
            stringer._nearest_free_terminator(centre, {west.pin_id}) is north
        )

    def test_one_column_of_terminators(self):
        # Every terminator shares one x: the x-window never narrows, so
        # each query walks the whole column.
        board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
        for vy in range(VIA_N - 1, -1, -1):
            _place(board, ViaPoint(5, vy), PinRole.TERMINATOR)
        queries = [
            (vx, vy, claim)
            for vx in (0, 5, 11)
            for vy in (0, 6, 11)
            for claim in (False, True)
        ]
        _assert_queries_match(board, {3, 4}, queries)


def _local_board():
    return generate_board(
        BoardSpec(
            name="local60",
            via_nx=60,
            via_ny=60,
            n_signal_layers=4,
            netlist=NetlistSpec(locality=0.9, local_radius=11, seed=3),
            seed=3,
        )
    )


BOARDS = {
    "kdj11_2l-0.30-1": lambda: make_titan_board(
        "kdj11_2l", scale=0.30, seed=1
    ),
    "tna-0.30-1": lambda: make_titan_board("tna", scale=0.30, seed=1),
    "local-60x60": _local_board,
}


class TestStringAllMatchesScan:
    @pytest.mark.parametrize("name", sorted(BOARDS))
    def test_connections_and_net_pins_identical(self, name):
        indexed, scanned = BOARDS[name](), BOARDS[name]()
        got = Stringer(indexed).string_all()
        want = ScanStringer(scanned).string_all()
        assert any(n.family.needs_termination for n in indexed.signal_nets)
        assert [(c.conn_id, c.net_id, c.pin_a, c.pin_b) for c in got] == [
            (c.conn_id, c.net_id, c.pin_a, c.pin_b) for c in want
        ]
        assert [n.pin_ids for n in indexed.nets] == [
            n.pin_ids for n in scanned.nets
        ]


class TestNoFreeTerminator:
    def _net(self, board):
        out = _place(board, ViaPoint(1, 1), PinRole.OUTPUT)
        inp = _place(board, ViaPoint(4, 1), PinRole.INPUT)
        return board.add_net([out.pin_id, inp.pin_id])

    def test_all_claimed_raises(self):
        board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
        terms = [
            _place(board, ViaPoint(8, vy), PinRole.TERMINATOR)
            for vy in (1, 3)
        ]
        board.add_net([t.pin_id for t in terms], family=LogicFamily.TTL)
        net = self._net(board)
        with pytest.raises(StringingError):
            Stringer(board).string_net(net)

    def test_all_reserved_raises(self):
        board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
        term = _place(board, ViaPoint(8, 1), PinRole.TERMINATOR)
        net = self._net(board)
        with pytest.raises(StringingError):
            Stringer(board).string_net(net, {term.pin_id})


def test_ttl_only_board_never_builds_the_index():
    board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
    a = _place(board, ViaPoint(1, 1), PinRole.OUTPUT)
    b = _place(board, ViaPoint(6, 1), PinRole.INPUT)
    _place(board, ViaPoint(9, 9), PinRole.TERMINATOR)
    board.add_net([a.pin_id, b.pin_id], family=LogicFamily.TTL)
    stringer = Stringer(board)
    assert len(stringer.string_all()) == 1
    assert stringer._terminators is None
