"""Unit tests for the stringer (Section 3)."""

import io

import pytest

from repro.board.board import Board
from repro.board.nets import NetKind
from repro.board.parts import PinRole, sip_package
from repro.board.technology import LogicFamily
from repro.grid.coords import ViaPoint, manhattan
from repro.io import read_board, write_board
from repro.stringer import Stringer, StringingError, random_stringing
from repro.stringer.stringer import chain_length
from repro.workloads import make_titan_board


@pytest.fixture
def board():
    return Board.create(via_nx=30, via_ny=20, n_signal_layers=4)


def add_pin(board, via, role):
    return board.add_part(sip_package(1), via, roles=[role]).pins[0]


class TestGreedyChain:
    def test_output_starts_chain(self, board):
        out = add_pin(board, ViaPoint(5, 5), PinRole.OUTPUT)
        in1 = add_pin(board, ViaPoint(10, 5), PinRole.INPUT)
        in2 = add_pin(board, ViaPoint(2, 5), PinRole.INPUT)
        term = add_pin(board, ViaPoint(12, 5), PinRole.TERMINATOR)
        net = board.add_net([out.pin_id, in1.pin_id, in2.pin_id])
        chain = Stringer(board).string_net(net)
        assert chain[0].pin_id == out.pin_id

    def test_nearest_neighbor_order(self, board):
        out = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        near = add_pin(board, ViaPoint(4, 5), PinRole.INPUT)
        far = add_pin(board, ViaPoint(12, 5), PinRole.INPUT)
        term = add_pin(board, ViaPoint(15, 5), PinRole.TERMINATOR)
        net = board.add_net([out.pin_id, far.pin_id, near.pin_id])
        chain = Stringer(board).string_net(net)
        assert [p.pin_id for p in chain[:3]] == [
            out.pin_id,
            near.pin_id,
            far.pin_id,
        ]

    def test_ecl_terminator_appended(self, board):
        out = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        inp = add_pin(board, ViaPoint(5, 5), PinRole.INPUT)
        term_near = add_pin(board, ViaPoint(7, 5), PinRole.TERMINATOR)
        term_far = add_pin(board, ViaPoint(20, 18), PinRole.TERMINATOR)
        net = board.add_net([out.pin_id, inp.pin_id])
        chain = Stringer(board).string_net(net)
        assert chain[-1].pin_id == term_near.pin_id
        # The terminator joins the net.
        assert term_near.net_id == net.net_id
        assert term_near.pin_id in net.pin_ids

    def test_outputs_precede_inputs(self, board):
        # "all output pins must precede the input pins"
        out1 = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        inp = add_pin(board, ViaPoint(2, 5), PinRole.INPUT)
        out2 = add_pin(board, ViaPoint(4, 5), PinRole.OUTPUT)
        term = add_pin(board, ViaPoint(9, 5), PinRole.TERMINATOR)
        net = board.add_net([out1.pin_id, inp.pin_id, out2.pin_id])
        chain = Stringer(board).string_net(net)
        roles = [p.role for p in chain]
        first_input = roles.index(PinRole.INPUT)
        assert all(r is not PinRole.OUTPUT for r in roles[first_input:])

    def test_ttl_no_terminator(self, board):
        a = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        b = add_pin(board, ViaPoint(5, 5), PinRole.INPUT)
        net = board.add_net([a.pin_id, b.pin_id], family=LogicFamily.TTL)
        chain = Stringer(board).string_net(net)
        assert len(chain) == 2

    def test_ttl_tries_all_starts(self, board):
        # For TTL "the stringing is repeated for each legal starting pin"
        # and the shortest overall path is chosen: a middle start loses.
        a = add_pin(board, ViaPoint(0, 5), PinRole.INPUT)
        b = add_pin(board, ViaPoint(5, 5), PinRole.INPUT)
        c = add_pin(board, ViaPoint(12, 5), PinRole.INPUT)
        net = board.add_net(
            [b.pin_id, a.pin_id, c.pin_id], family=LogicFamily.TTL
        )
        chain = Stringer(board).string_net(net)
        assert chain_length(chain) == 12  # end-to-end, not middle-out

    def test_no_free_terminator_raises(self, board):
        a = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        b = add_pin(board, ViaPoint(5, 5), PinRole.INPUT)
        net = board.add_net([a.pin_id, b.pin_id])  # ECL, no terminators
        with pytest.raises(StringingError):
            Stringer(board).string_net(net)


class TestOwnTerminator:
    """An ECL net that already lists its terminator (a board saved
    after stringing) ends on it and claims no other."""

    def test_member_terminator_ends_the_chain(self, board):
        out = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        own = add_pin(board, ViaPoint(2, 5), PinRole.TERMINATOR)
        inp = add_pin(board, ViaPoint(5, 5), PinRole.INPUT)
        spare = add_pin(board, ViaPoint(6, 5), PinRole.TERMINATOR)
        net = board.add_net([out.pin_id, own.pin_id, inp.pin_id])
        chain = Stringer(board).string_net(net)
        assert [p.pin_id for p in chain] == [out.pin_id, inp.pin_id, own.pin_id]
        assert net.pin_ids == [out.pin_id, own.pin_id, inp.pin_id]
        assert spare.net_id == -1

    def test_no_free_terminator_needed(self, board):
        out = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        own = add_pin(board, ViaPoint(9, 5), PinRole.TERMINATOR)
        net = board.add_net([out.pin_id, own.pin_id])
        chain = Stringer(board).string_net(net)
        assert [p.pin_id for p in chain] == [out.pin_id, own.pin_id]

    def test_two_member_terminators_still_claim_a_third(self, board):
        out = add_pin(board, ViaPoint(0, 5), PinRole.OUTPUT)
        t1 = add_pin(board, ViaPoint(2, 5), PinRole.TERMINATOR)
        t2 = add_pin(board, ViaPoint(4, 5), PinRole.TERMINATOR)
        spare = add_pin(board, ViaPoint(6, 5), PinRole.TERMINATOR)
        net = board.add_net([out.pin_id, t1.pin_id, t2.pin_id])
        chain = Stringer(board).string_net(net)
        assert chain[-1].pin_id == spare.pin_id
        assert spare.net_id == net.net_id

    @pytest.mark.parametrize(
        "config, seed",
        [("tna", 1), ("tna", 2), ("icache", 2), ("kdj11_2l", 1)],
    )
    def test_saved_strung_board_restrings_identically(self, config, seed):
        board = make_titan_board(config, scale=0.30, seed=seed)
        first = Stringer(board).string_all()
        stream = io.StringIO()
        write_board(board, stream)
        stream.seek(0)
        reloaded = read_board(stream)
        second = Stringer(reloaded).string_all()
        assert [(c.conn_id, c.net_id, c.pin_a, c.pin_b) for c in second] == [
            (c.conn_id, c.net_id, c.pin_a, c.pin_b) for c in first
        ]
        assert [n.pin_ids for n in reloaded.nets] == [
            n.pin_ids for n in board.nets
        ]


class TestStringAll:
    def _board_with_nets(self, board, n_nets=3):
        nets = []
        for i in range(n_nets):
            out = add_pin(board, ViaPoint(1, 2 * i + 1), PinRole.OUTPUT)
            inp = add_pin(board, ViaPoint(8, 2 * i + 1), PinRole.INPUT)
            add_pin(board, ViaPoint(12, 2 * i + 1), PinRole.TERMINATOR)
            nets.append(board.add_net([out.pin_id, inp.pin_id]))
        return nets

    def test_connections_cover_all_nets(self, board):
        self._board_with_nets(board)
        connections = Stringer(board).string_all()
        assert len(connections) == 6  # 2 per net (pin->pin, pin->term)
        assert {c.net_id for c in connections} == {0, 1, 2}

    def test_connection_ids_sequential(self, board):
        self._board_with_nets(board)
        connections = Stringer(board).string_all()
        assert [c.conn_id for c in connections] == list(range(6))

    def test_terminators_not_shared(self, board):
        # Only one free terminator for two nets: second must fail.
        out1 = add_pin(board, ViaPoint(1, 1), PinRole.OUTPUT)
        in1 = add_pin(board, ViaPoint(5, 1), PinRole.INPUT)
        out2 = add_pin(board, ViaPoint(1, 3), PinRole.OUTPUT)
        in2 = add_pin(board, ViaPoint(5, 3), PinRole.INPUT)
        add_pin(board, ViaPoint(8, 2), PinRole.TERMINATOR)
        board.add_net([out1.pin_id, in1.pin_id])
        board.add_net([out2.pin_id, in2.pin_id])
        with pytest.raises(StringingError):
            Stringer(board).string_all()

    def test_power_nets_ignored(self, board):
        p1 = add_pin(board, ViaPoint(1, 1), PinRole.POWER)
        p2 = add_pin(board, ViaPoint(5, 1), PinRole.POWER)
        board.add_net([p1.pin_id, p2.pin_id], kind=NetKind.POWER)
        assert Stringer(board).string_all() == []


class TestRandomStringing:
    def _board(self, board):
        pins = []
        for i in range(4):
            role = PinRole.OUTPUT if i == 0 else PinRole.INPUT
            pins.append(add_pin(board, ViaPoint(3 * i + 1, 5), role))
        for i in range(3):
            add_pin(board, ViaPoint(3 * i + 1, 9), PinRole.TERMINATOR)
        board.add_net([p.pin_id for p in pins])
        return pins

    def test_same_nets_connected(self, board):
        self._board(board)
        connections = random_stringing(board, seed=1)
        # A 4-pin ECL net plus terminator = 4 connections.
        assert len(connections) == 4
        assert all(c.net_id == 0 for c in connections)

    def test_seed_determinism(self, board):
        self._board(board)
        first = [(c.pin_a, c.pin_b) for c in random_stringing(board, seed=9)]
        board2 = Board.create(via_nx=30, via_ny=20, n_signal_layers=4)
        self._board(board2)
        second = [(c.pin_a, c.pin_b) for c in random_stringing(board2, seed=9)]
        assert first == second

    def test_random_usually_longer_than_greedy(self):
        # The point of the Section 3 experiment: greedy stringing is
        # shorter, hence easier to route.
        import random

        greedy_total = 0
        random_total = 0
        for seed in range(5):
            board = Board.create(via_nx=30, via_ny=20, n_signal_layers=4)
            rng = random.Random(seed)
            pins = []
            for i in range(6):
                role = PinRole.OUTPUT if i == 0 else PinRole.INPUT
                pins.append(
                    add_pin(
                        board,
                        ViaPoint(rng.randrange(28), rng.randrange(18)),
                        role,
                    )
                )
            add_pin(board, ViaPoint(29, 19), PinRole.TERMINATOR)
            board.add_net([p.pin_id for p in pins])
            greedy = Stringer(board).string_all()
            greedy_total += sum(
                manhattan(c.a, c.b) for c in greedy
            )
            board2 = Board.create(via_nx=30, via_ny=20, n_signal_layers=4)
            rng = random.Random(seed)
            pins = []
            for i in range(6):
                role = PinRole.OUTPUT if i == 0 else PinRole.INPUT
                pins.append(
                    add_pin(
                        board2,
                        ViaPoint(rng.randrange(28), rng.randrange(18)),
                        role,
                    )
                )
            add_pin(board2, ViaPoint(29, 19), PinRole.TERMINATOR)
            board2.add_net([p.pin_id for p in pins])
            rand = random_stringing(board2, seed=seed)
            random_total += sum(manhattan(c.a, c.b) for c in rand)
        assert greedy_total < random_total
