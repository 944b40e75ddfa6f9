"""EcoSession: incremental ECO re-routing on a routed board.

Covers the invalidation bookkeeping (move/cut/add), the no-edit fast
path, rip-up cascades when a moved pin lands on surviving wiring,
budget-degraded partial reroutes, attribution carry-over, and — behind
the slow marker — audited move→reroute cycles and a reroute interrupted
by a failing event consumer.
"""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.api import RouteRequest, begin_eco, reroute, route
from repro.board.board import Board, PlacementError
from repro.board.parts import PinRole, sip_package
from repro.board.technology import LogicFamily
from repro.core.budget import STOP_DEADLINE, RouteBudget
from repro.core.result import Strategy
from repro.core.router import RouterConfig
from repro.eco import EcoError, EcoSession
from repro.grid.coords import ViaPoint
from repro.io import read_board, write_board
from repro.obs.sinks import RingBufferSink
from repro.stringer import Stringer
from repro.verify import check_connectivity
from repro.workloads import make_titan_board

from tests.conftest import make_connection, place_pin
from tests.helpers import assert_workspace_consistent


def _routed_session(scale=0.25, seed=3, sink=None, config=None):
    """Cold-route a small titan board and open an ECO session on it."""
    board = make_titan_board("tna", scale=scale, seed=seed)
    connections = Stringer(board).string_all()
    request = RouteRequest(
        board=board,
        connections=connections,
        config=config or RouterConfig(),
        sink=sink,
    )
    response = route(request)
    assert response.result.complete
    return begin_eco(request, response), request, response


def _eco_state(session):
    """Everything ``add_nets`` may touch: nets, pin claims, the
    connection list, pending ids and the routed state."""
    return (
        [list(net.pin_ids) for net in session.board.nets],
        [pin.net_id for pin in session.board.pins],
        [(c.conn_id, c.pin_a, c.pin_b) for c in session.connections],
        session.pending,
        session.workspace.state_digest(),
    )


def _free_destination(board, part_id):
    """A nearby vacant origin for the part, or None."""
    part = board.parts[part_id]
    own = {p.pin_id for p in part.pins}
    for dx in range(-4, 5):
        for dy in range(-4, 5):
            if dx == dy == 0:
                continue
            dest = ViaPoint(part.origin.vx + dx, part.origin.vy + dy)
            if all(
                board.grid.contains_via(
                    ViaPoint(dest.vx + ox, dest.vy + oy)
                )
                and board._occupied.get(
                    ViaPoint(dest.vx + ox, dest.vy + oy), -1
                )
                in own | {-1}
                for ox, oy in part.package.pin_offsets
            ):
                return dest
    return None


class TestFastPath:
    def test_noop_reroute_never_builds_a_router(self):
        sink = RingBufferSink(capacity=4096)
        session, _, cold = _routed_session(sink=sink)
        with session:
            before = dict(session.workspace.records)
            response = session.reroute()
            assert session.workspace.records == before
            assert response.counters["eco_rerouted"] == 0
            assert response.counters["eco_reused"] == len(
                session.connections
            )
            assert response.stopped_reason is None
            # Attribution survives the no-op verbatim.
            assert response.result.routed_by == cold.result.routed_by
        fast = [e for e in sink.events if e.kind == "eco_reroute"]
        assert fast and fast[-1].fast_path

    def test_facade_reroute_delegates(self):
        session, _, _ = _routed_session()
        with session:
            response = reroute(session)
            assert response.counters["eco_rerouted"] == 0

    def test_closed_session_rejects_edits(self):
        session, _, _ = _routed_session()
        session.close()
        with pytest.raises(EcoError, match="closed"):
            session.reroute()


class TestCutNets:
    def test_cut_unrouted_net_is_pure_bookkeeping(self, empty_board):
        board = empty_board
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(15, 11))
        with EcoSession(board, [conn]) as session:
            stats = session.cut_nets([conn.net_id])
            assert stats.ripped == ()
            assert stats.dropped == (conn.conn_id,)
            assert session.connections == []
            assert board.pins[conn.pin_a].net_id == -1
            assert board.pins[conn.pin_b].net_id == -1
            response = session.reroute()
            assert response.counters["eco_rerouted"] == 0

    def test_cut_routed_net_rips_and_frees_pins(self):
        session, _, _ = _routed_session()
        with session:
            net = next(
                n
                for n in session.board.signal_nets
                if len(n.pin_ids) >= 2
            )
            pin_ids = list(net.pin_ids)
            stats = session.cut_nets([net.net_id])
            assert stats.ripped  # it was routed
            assert set(stats.ripped) <= set(stats.dropped)
            for conn_id in stats.dropped:
                assert not session.workspace.is_routed(conn_id)
            assert all(
                session.board.pins[p].net_id == -1 for p in pin_ids
            )
            assert net.pin_ids == []  # tombstone
            assert_workspace_consistent(session.workspace)
            report = check_connectivity(
                session.board, session.workspace, session.connections
            )
            assert report.fully_connected

    def test_cut_rejects_power_nets_and_unknown_ids(self):
        session, _, _ = _routed_session()
        with session:
            with pytest.raises(EcoError, match="unknown net"):
                session.cut_nets([999])
            power = session.board.power_nets
            if power:
                with pytest.raises(EcoError, match="not a signal net"):
                    session.cut_nets([power[0].net_id])


class TestAddNets:
    def test_cut_then_readd_restrings_and_reroutes(self):
        session, _, _ = _routed_session()
        with session:
            net = next(
                n
                for n in session.board.signal_nets
                if len(n.pin_ids) >= 3
            )
            # Keep only the non-terminator pins: re-stringing an ECL net
            # claims a (possibly different) free terminator itself.
            pins = [
                p
                for p in net.pin_ids
                if session.board.pins[p].role is not PinRole.TERMINATOR
            ]
            cut_stats = session.cut_nets([net.net_id])
            assert cut_stats.net_ids == (net.net_id,)
            stats = session.add_nets([pins])
            assert stats.added == stats.invalidated
            # The created net's id is reported back: a remote caller
            # needs it to cut what it just added.
            assert len(stats.net_ids) == 1
            assert session.board.nets[stats.net_ids[0]].pin_ids
            assert len(stats.added) >= len(pins) - 1
            new_ids = set(stats.added)
            assert new_ids <= set(session.pending)
            # Fresh ids never collide with existing connections.
            existing = {c.conn_id for c in session.connections}
            assert len(existing) == len(session.connections)
            response = session.reroute()
            assert response.result.complete
            assert response.counters["eco_rerouted"] >= len(stats.added)
            report = check_connectivity(
                session.board, session.workspace, session.connections
            )
            assert report.fully_connected

    def test_cut_then_readd_reuses_the_freed_terminator(self):
        session, _, _ = _routed_session()
        with session:
            board = session.board
            net = next(
                n
                for n in board.signal_nets
                if n.family.needs_termination and len(n.pin_ids) >= 3
            )
            terminator = net.pin_ids[-1]
            assert board.pins[terminator].role is PinRole.TERMINATOR
            pins = net.pin_ids[:-1]
            session.cut_nets([net.net_id])
            assert board.pins[terminator].net_id == -1
            stats = session.add_nets([pins])
            new_net = board.nets[stats.net_ids[0]]
            assert new_net.pin_ids == pins + [terminator]
            assert session.connections[-1].pin_b == terminator

    def test_add_over_claimed_pins_rejected(self):
        """A rejected group undoes the valid groups before it: no net,
        pin claim, terminator claim or connection of the call remains."""
        session, _, _ = _routed_session()
        with session:
            board = session.board
            freed = next(n for n in board.signal_nets if len(n.pin_ids) >= 3)
            pins = [
                p
                for p in freed.pin_ids
                if board.pins[p].role is not PinRole.TERMINATOR
            ]
            session.cut_nets([freed.net_id])
            claimed = next(n for n in board.signal_nets if n.pin_ids)
            before = _eco_state(session)
            with pytest.raises(EcoError, match="already belongs"):
                session.add_nets([pins, list(claimed.pin_ids[:2])])
            assert _eco_state(session) == before
            # The valid group alone still goes in afterwards.
            stats = session.add_nets([pins])
            assert stats.net_ids == (len(before[0]),)

    def test_ecl_group_without_free_terminator_rejected(self, empty_board):
        board = empty_board
        terminator = place_pin(board, ViaPoint(10, 7), PinRole.TERMINATOR)
        groups = [
            [
                place_pin(board, ViaPoint(2, y), PinRole.OUTPUT).pin_id,
                place_pin(board, ViaPoint(17, y), PinRole.INPUT).pin_id,
            ]
            for y in (3, 11)
        ]
        session = EcoSession(board, [])
        with session:
            before = _eco_state(session)
            # The first group claims the only terminator; the second
            # finds none left.
            with pytest.raises(EcoError, match="no free terminating"):
                session.add_nets(groups)
            assert _eco_state(session) == before
            assert board.pins[terminator.pin_id].net_id == -1
            stats = session.add_nets(groups[1:])
            assert board.nets[stats.net_ids[0]].pin_ids == groups[1] + [
                terminator.pin_id
            ]

    def test_pin_named_twice_rejected(self, empty_board):
        board = empty_board
        a, b, c = (
            place_pin(board, ViaPoint(2 + 5 * i, 4), role).pin_id
            for i, role in enumerate(
                (PinRole.OUTPUT, PinRole.INPUT, PinRole.INPUT)
            )
        )
        session = EcoSession(board, [])
        with session:
            before = _eco_state(session)
            for groups in ([[a, a]], [[a, b], [b, c]]):
                with pytest.raises(EcoError, match="named twice"):
                    session.add_nets(groups, family=LogicFamily.TTL)
                assert _eco_state(session) == before


class TestMovePart:
    def test_move_invalidates_incident_connections(self):
        sink = RingBufferSink(capacity=4096)
        session, _, _ = _routed_session(sink=sink)
        with session:
            part_id = next(
                p.part_id
                for p in session.board.parts
                if _free_destination(session.board, p.part_id)
                and any(pin.net_id != -1 for pin in p.pins)
            )
            dest = _free_destination(session.board, part_id)
            pin_ids = {
                p.pin_id for p in session.board.parts[part_id].pins
            }
            incident = {
                c.conn_id
                for c in session.connections
                if c.pin_a in pin_ids or c.pin_b in pin_ids
            }
            stats = session.move_part(part_id, dest)
            assert incident <= set(stats.invalidated)
            assert set(stats.ripped) <= incident
            # Endpoints now point at the new pin sites.
            for conn in session.connections:
                if conn.pin_a in pin_ids:
                    assert conn.a == session.board.pins[conn.pin_a].position
                if conn.pin_b in pin_ids:
                    assert conn.b == session.board.pins[conn.pin_b].position
            response = session.reroute()
            assert response.result.complete
            assert response.counters["eco_invalidated"] == len(
                stats.invalidated
            )
            assert_workspace_consistent(session.workspace)
            report = check_connectivity(
                session.board, session.workspace, session.connections
            )
            assert report.fully_connected
        kinds = [e.kind for e in sink.events]
        assert "eco_begin" in kinds and "eco_invalidate" in kinds

    def test_move_onto_surviving_route_cascades(self, empty_board):
        board = empty_board
        # A straight route along row 3, plus an idle two-pin part far
        # away; moving the part onto the route's path must rip it.
        conn = make_connection(board, ViaPoint(2, 3), ViaPoint(16, 3))
        victim = make_connection(
            board, ViaPoint(2, 10), ViaPoint(16, 10), conn_id=1
        )
        request = RouteRequest(board=board, connections=[conn, victim])
        response = route(request)
        assert response.result.complete
        with begin_eco(request, response) as session:
            # The part owning conn's *a* pin stays; move victim's a-pin
            # part onto the straight route between conn's endpoints.
            part_id = board.pins[victim.pin_a].part_id
            stats = session.move_part(part_id, ViaPoint(9, 3))
            assert conn.conn_id in stats.cascades
            assert conn.conn_id in stats.invalidated
            assert not session.workspace.is_routed(conn.conn_id)
            response = session.reroute()
            assert response.result.complete
            report = check_connectivity(
                board, session.workspace, session.connections
            )
            assert report.fully_connected

    def test_move_onto_pin_rejected_atomically(self, empty_board):
        board = empty_board
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(15, 11))
        request = RouteRequest(board=board, connections=[conn])
        response = route(request)
        with begin_eco(request, response) as session:
            part_id = board.pins[conn.pin_a].part_id
            origin_before = board.parts[part_id].origin
            with pytest.raises(EcoError, match="occupied"):
                session.move_part(part_id, ViaPoint(15, 11))
            # Nothing changed: placement, routes, bookkeeping.
            assert board.parts[part_id].origin == origin_before
            assert session.workspace.is_routed(conn.conn_id)
            assert session.pending == []
        with pytest.raises(PlacementError):
            board.move_part(part_id, ViaPoint(15, 11))

    def test_move_off_board_rejected(self, empty_board):
        board = empty_board
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(15, 11))
        with EcoSession(board, [conn]) as session:
            with pytest.raises(EcoError, match="off the board"):
                session.move_part(
                    board.pins[conn.pin_a].part_id, ViaPoint(-5, 3)
                )

    def test_unknown_part_rejected(self, empty_board):
        with EcoSession(empty_board, []) as session:
            with pytest.raises(EcoError, match="unknown part"):
                session.move_part(99, ViaPoint(0, 0))


class TestBudgetedReroute:
    def test_deadline_returns_clean_partial(self):
        board = make_titan_board("tna", scale=0.30, seed=5)
        connections = Stringer(board).string_all()
        with EcoSession(board, connections) as session:
            response = session.reroute(
                budget=RouteBudget(deadline_seconds=0.0)
            )
            assert response.stopped_reason == STOP_DEADLINE
            assert session.pending  # clock ran out before completion
            assert_workspace_consistent(session.workspace)
            # The partial is resumable: a second, unbudgeted reroute
            # finishes the job on the same warm workspace.
            response = session.reroute()
            assert response.result.complete
            assert session.pending == []
            report = check_connectivity(
                board, session.workspace, session.connections
            )
            assert report.fully_connected

    def test_budget_override_is_per_call(self):
        session, _, _ = _routed_session()
        with session:
            session.reroute(budget=RouteBudget(deadline_seconds=0.0))
            assert session.config.budget.deadline_seconds is None


class TestAttribution:
    def test_routed_by_spans_survivors_and_residue(self):
        session, _, cold = _routed_session()
        with session:
            part_id = next(
                p.part_id
                for p in session.board.parts
                if _free_destination(session.board, p.part_id)
                and any(pin.net_id != -1 for pin in p.pins)
            )
            stats = session.move_part(
                part_id, _free_destination(session.board, part_id)
            )
            response = session.reroute()
            assert response.result.complete
            # Every routed connection has an attribution, survivors
            # keep their cold-route strategy.
            routed_by = response.result.routed_by
            assert set(routed_by) == {
                c.conn_id for c in session.connections
            }
            for conn_id, strategy in cold.result.routed_by.items():
                if conn_id not in stats.invalidated:
                    assert routed_by[conn_id] == strategy

    def test_putback_seed_for_restored_dumps(self, empty_board):
        board = empty_board
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(15, 11))
        request = RouteRequest(board=board, connections=[conn])
        response = route(request)
        session = EcoSession(
            board,
            [conn],
            workspace=response.result.workspace,
            routed_by={conn.conn_id: Strategy.PUTBACK, 99: Strategy.LEE},
        )
        with session:
            # Attribution for unrouted ids is dropped at adoption.
            response = session.reroute()
            assert response.result.routed_by == {
                conn.conn_id: Strategy.PUTBACK
            }


def _pin_nets(connections):
    """Pin id -> the nets whose connections end on it."""
    nets = {}
    for conn in connections:
        for pin_id in (conn.pin_a, conn.pin_b):
            nets.setdefault(pin_id, set()).add(conn.net_id)
    return nets


class TestLoadedConnections:
    """A session over a board loaded beside its connection file, whose
    nets list no terminators because another process strung them."""

    def _session(self):
        text = io.StringIO()
        write_board(make_titan_board("tna", scale=0.30, seed=2), text)
        strung = read_board(io.StringIO(text.getvalue()))
        connections = Stringer(strung).string_all()
        board = read_board(io.StringIO(text.getvalue()))
        assert not any(
            board.pins[p].role is PinRole.TERMINATOR
            for net in board.signal_nets
            for p in net.pin_ids
        )
        return EcoSession(board, connections)

    def test_session_claims_connection_end_pins(self):
        with self._session() as session:
            board = session.board
            for conn in session.connections:
                for pin_id in (conn.pin_a, conn.pin_b):
                    assert board.pins[pin_id].net_id == conn.net_id
                    assert pin_id in board.nets[conn.net_id].pin_ids
            terminator = session.connections[-1].pin_b
            net_id = session.connections[-1].net_id
            session.cut_nets([net_id])
            assert board.pins[terminator].net_id == -1

    def test_connection_naming_a_missing_pin_is_rejected(self, empty_board):
        conn = make_connection(empty_board, ViaPoint(3, 3), ViaPoint(15, 11))
        foreign = replace(conn, conn_id=1, pin_b=len(empty_board.pins))
        with pytest.raises(EcoError, match="board lacks"):
            EcoSession(empty_board, [conn, foreign])
        # Validation comes before any pin is claimed.
        assert empty_board.nets[conn.net_id].pin_ids == [
            conn.pin_a, conn.pin_b
        ]

    def test_added_net_takes_no_live_terminator(self):
        with self._session() as session:
            session.cut_nets([15])
            stats = session.add_nets([[519, 85, 218, 270, 506, 58, 521]])
            shared = {
                pin_id: nets
                for pin_id, nets in _pin_nets(session.connections).items()
                if len(nets) > 1
            }
            assert shared == {}
            report = check_connectivity(
                session.board, session.workspace, session.connections
            )
            assert report.shorted_pins == {}
            terminator = session.connections[-1].pin_b
            assert session.board.pins[terminator].net_id == stats.net_ids[0]


class _RaisingSink:
    """A sink that blows up on a chosen event kind (broken consumer)."""

    enabled = True

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def emit(self, event) -> None:
        if event.kind == self.kind:
            raise RuntimeError(f"sink boom on {event.kind}")

    def close(self) -> None:
        pass


class TestLifecycleCleanup:
    def test_close_is_idempotent(self):
        session, _, _ = _routed_session()
        session.close()
        session.close()
        with pytest.raises(EcoError, match="closed"):
            session.reroute()


@pytest.mark.slow
class TestRerouteException:
    def test_raising_sink_leaves_the_session_usable(self):
        board = make_titan_board("tna", scale=0.25, seed=3)
        connections = Stringer(board).string_all()
        request = RouteRequest(board=board, connections=connections)
        response = route(request)
        assert response.result.complete
        session = begin_eco(request, response)
        with session:
            part_id = 2
            dest = _free_destination(board, part_id)
            assert dest is not None
            session.move_part(part_id, dest)
            assert session.pending
            # A consumer that dies mid-route unwinds the reroute...
            session.sink = _RaisingSink("pass_start")
            with pytest.raises(RuntimeError, match="sink boom"):
                session.reroute()
            # ...and a reroute with a sane sink finishes the ECO.
            session.sink = RingBufferSink(capacity=65536)
            response = session.reroute()
            assert response.result.complete
            assert_workspace_consistent(session.workspace)


@pytest.mark.slow
class TestMoveRerouteCycles:
    def test_audited_cycles_stay_complete(self):
        config = RouterConfig(audit=True)
        board = make_titan_board("kdj11_4l", scale=0.30, seed=7)
        connections = Stringer(board).string_all()
        request = RouteRequest(
            board=board, connections=connections, config=config
        )
        response = route(request)
        assert response.result.complete
        with begin_eco(request, response) as session:
            for part_id in (3, 5):
                dest = _free_destination(board, part_id)
                assert dest is not None
                session.move_part(part_id, dest)
                response = session.reroute()
                assert response.result.complete
            report = check_connectivity(
                board, session.workspace, session.connections
            )
            assert report.fully_connected
