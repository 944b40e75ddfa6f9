"""Unit tests for the complete routing algorithm (Section 8.4)."""

import json

import pytest

from repro.board.board import Board
from repro.core import router as router_module
from repro.core.budget import (
    STOP_CONNECTION,
    STOP_DEADLINE,
    FailureReason,
    RouteBudget,
)
from repro.core.lee import LeeSearchResult
from repro.core.result import RoutingResult, Strategy
from repro.core.router import GreedyRouter, RouterConfig, make_router
from repro.grid.coords import GridPoint, ViaPoint
from repro.obs.sinks import RingBufferSink
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests.conftest import make_connection
from tests.helpers import assert_result_valid


@pytest.fixture
def board():
    return Board.create(via_nx=16, via_ny=12, n_signal_layers=4)


class TestConfig:
    def test_defaults_follow_paper(self):
        config = RouterConfig()
        assert config.radius == 1
        assert config.cost == "distance_hops"
        assert config.sort

    def test_rejects_unknown_cost(self):
        with pytest.raises(ValueError):
            RouterConfig(cost="nope")

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            RouterConfig(radius=-1)

    def test_backend_knob_is_gone(self):
        # One search path: the numpy backend and its knob were removed.
        with pytest.raises(TypeError):
            RouterConfig(backend="python")


class TestStrategyEscalation:
    def test_straight_uses_zero_via(self, board):
        conn = make_connection(board, ViaPoint(2, 4), ViaPoint(12, 4))
        router = GreedyRouter(board)
        result = router.route([conn])
        assert result.complete
        assert result.routed_by[conn.conn_id] is Strategy.ZERO_VIA

    def test_l_shape_uses_one_via(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(12, 9))
        router = GreedyRouter(board)
        result = router.route([conn])
        assert result.complete
        assert result.routed_by[conn.conn_id] is Strategy.ONE_VIA

    def test_lee_engaged_when_optimal_disabled(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(12, 9))
        config = RouterConfig(enable_zero_via=False, enable_one_via=False)
        router = GreedyRouter(board, config)
        result = router.route([conn])
        assert result.complete
        assert result.routed_by[conn.conn_id] is Strategy.LEE

    def test_degenerate_connection(self, board):
        conn = make_connection(board, ViaPoint(2, 4), ViaPoint(12, 4))
        conn.b = conn.a  # force degenerate
        router = GreedyRouter(board)
        result = router.route([conn])
        assert result.complete


class TestPassLoop:
    def test_multiple_connections_all_routed(self, board):
        conns = [
            make_connection(board, ViaPoint(2, 2), ViaPoint(13, 2), 0),
            make_connection(board, ViaPoint(2, 4), ViaPoint(13, 8), 1),
            make_connection(board, ViaPoint(4, 1), ViaPoint(4, 10), 2),
            make_connection(board, ViaPoint(7, 1), ViaPoint(12, 10), 3),
        ]
        # conn ids must be distinct for routing records.
        for i, c in enumerate(conns):
            c.conn_id = i
        router = GreedyRouter(board)
        result = router.route(conns)
        assert result.complete
        assert result.passes == 1
        assert_result_valid(board, conns, result)

    def test_sort_disabled_keeps_input_order(self, board):
        conns = [
            make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9), 0),
            make_connection(board, ViaPoint(2, 4), ViaPoint(13, 4), 1),
        ]
        for i, c in enumerate(conns):
            c.conn_id = i
        router = GreedyRouter(board, RouterConfig(sort=False))
        result = router.route(conns)
        assert result.complete

    def test_unroutable_reported_failed(self):
        # Two pins in opposite corners with the whole middle filled.
        from repro.channels.workspace import RoutingWorkspace
        from repro.grid.geometry import Box

        board = Board.create(via_nx=12, via_ny=10, n_signal_layers=2)
        conn = make_connection(board, ViaPoint(1, 5), ViaPoint(10, 5))
        ws = RoutingWorkspace(board)
        for layer_index in range(ws.n_layers):
            ws.fill_free_space(
                layer_index, Box(15, 0, 18, board.grid.ny - 1)
            )
        router = GreedyRouter(board, workspace=ws)
        result = router.route([conn])
        assert not result.complete
        assert result.failed == [conn.conn_id]

    def test_progress_guard_terminates(self):
        # An impossible problem must terminate, not loop ripping forever.
        from repro.channels.workspace import RoutingWorkspace
        from repro.grid.geometry import Box

        board = Board.create(via_nx=12, via_ny=10, n_signal_layers=2)
        conns = [
            make_connection(board, ViaPoint(1, 3), ViaPoint(10, 3), 0),
            make_connection(board, ViaPoint(1, 7), ViaPoint(10, 7), 1),
        ]
        for i, c in enumerate(conns):
            c.conn_id = i
        ws = RoutingWorkspace(board)
        for layer_index in range(ws.n_layers):
            ws.fill_free_space(layer_index, Box(15, 0, 18, board.grid.ny - 1))
        router = GreedyRouter(board, workspace=ws)
        result = router.route(conns)
        assert len(result.failed) == 2
        assert result.passes <= RouterConfig().max_passes


class TestRipUpIntegration:
    def _congested_board(self):
        """A 2-layer board where a blocker must be ripped to finish."""
        board = Board.create(via_nx=12, via_ny=10, n_signal_layers=2)
        # Blocker: a straight connection crossing the target column.
        blocker = make_connection(board, ViaPoint(1, 5), ViaPoint(10, 5), 0)
        victim = make_connection(board, ViaPoint(5, 1), ViaPoint(5, 8), 1)
        blocker.conn_id, victim.conn_id = 0, 1
        return board, blocker, victim

    def test_ripup_disabled_can_fail(self):
        board, blocker, victim = self._congested_board()
        # Not asserting failure (the board may still route); just that the
        # switch is honored and routing terminates.
        config = RouterConfig(enable_ripup=False)
        result = GreedyRouter(board, config).route([blocker, victim])
        assert result.rip_up_count == 0

    def test_routed_by_updated_after_ripup(self):
        board, blocker, victim = self._congested_board()
        result = GreedyRouter(board).route([blocker, victim])
        # Whatever happened, bookkeeping must be coherent:
        for conn_id in result.routed_by:
            assert result.workspace.is_routed(conn_id)
        for conn_id in result.failed:
            assert not result.workspace.is_routed(conn_id)


class TestStatistics:
    def test_summary_fields(self, board):
        conn = make_connection(board, ViaPoint(2, 4), ViaPoint(12, 4))
        result = GreedyRouter(board).route([conn])
        summary = result.summary()
        assert summary["connections"] == 1
        assert summary["routed"] == 1
        assert summary["complete"]
        assert summary["cpu_seconds"] >= 0

    def test_vias_per_connection_below_one_on_easy_board(self, board):
        conns = []
        for i in range(4):
            c = make_connection(
                board, ViaPoint(2, 1 + 2 * i), ViaPoint(13, 1 + 2 * i), i
            )
            c.conn_id = i
            conns.append(c)
        result = GreedyRouter(board).route(conns)
        assert result.vias_per_connection < 1.0


class TestCapTruncatedRipup:
    """Cap-truncated Lee results must not drive rip-up (they are unproven).

    A blocked search with ``cap_hits > 0`` was truncated at the gap cap:
    reachable neighbors may exist past the cap, and its best points need
    not be near real congestion.  The router retries once at
    ``CAP_RETRY_FACTOR`` times the cap; only a clean block (no cap hits)
    may select victims.
    """

    def _install_victim(self, ws, conn_id, row_via):
        row = row_via * ws.grid.grid_per_via
        builder = ws.route_builder(conn_id)
        builder.add_link(
            0,
            GridPoint(0, row),
            GridPoint(ws.grid.nx - 1, row),
            [(row, 0, ws.grid.nx - 1)],
        )
        return builder.commit()

    def _truncated(self, point):
        return LeeSearchResult(
            routed=False,
            blocked=True,
            reason="wavefront exhausted (gap cap)",
            cap_hits=3,
            best_points=(point, point),
            exhausted_side="a",
        )

    def test_still_truncated_retry_skips_victim_selection(
        self, board, monkeypatch
    ):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(12, 9))
        router = GreedyRouter(board)
        ws = router.workspace
        self._install_victim(ws, conn_id=7, row_via=4)
        truncated = self._truncated(ViaPoint(5, 4))
        monkeypatch.setattr(
            router, "_try_strategies", lambda *a, **k: (None, None, truncated)
        )
        retry_caps = []

        def fake_lee_route(ws_, conn_, **kwargs):
            retry_caps.append(kwargs["max_gaps"])
            return truncated

        monkeypatch.setattr(router_module, "lee_route", fake_lee_route)
        result = RoutingResult(workspace=ws, connections=[conn])
        routed = router._route_connection(conn, result)
        assert not routed
        # Exactly one retry, at the raised cap.
        assert retry_caps == [
            router.config.budget.max_gaps * router_module.CAP_RETRY_FACTOR
        ]
        assert result.cap_retries == 1
        # The victim was never ripped: still routed, no rip-up recorded.
        assert ws.is_routed(7)
        assert result.rip_up_count == 0
        assert result.putback_count == 0

    def test_still_truncated_failure_is_reported_truncated(
        self, board, monkeypatch
    ):
        """A connection left unrouted by a search still truncated at the
        raised cap fails as ``"truncated"``: its blockage is unproven."""
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(12, 9))
        router = GreedyRouter(board)
        truncated = self._truncated(ViaPoint(5, 4))
        monkeypatch.setattr(
            router, "_try_strategies", lambda *a, **k: (None, None, truncated)
        )
        monkeypatch.setattr(
            router_module, "lee_route", lambda ws_, conn_, **kw: truncated
        )
        result = router.route([conn])
        assert result.failed == [conn.conn_id]
        assert result.failure_reasons == {conn.conn_id: FailureReason.TRUNCATED}
        assert result.cap_retries == result.passes

    def test_clean_block_after_retry_allows_ripup(self, board, monkeypatch):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(12, 9))
        router = GreedyRouter(board)
        ws = router.workspace
        self._install_victim(ws, conn_id=7, row_via=4)
        truncated = self._truncated(ViaPoint(5, 4))
        clean = LeeSearchResult(
            routed=False,
            blocked=True,
            reason="wavefront exhausted",
            cap_hits=0,
            best_points=(ViaPoint(5, 4), ViaPoint(5, 4)),
            exhausted_side="a",
        )
        monkeypatch.setattr(
            router, "_try_strategies", lambda *a, **k: (None, None, truncated)
        )
        monkeypatch.setattr(
            router_module, "lee_route", lambda ws_, conn_, **kw: clean
        )
        result = RoutingResult(workspace=ws, connections=[conn])
        routed = router._route_connection(conn, result)
        assert not routed
        # The clean retry proved the blockage, so victim selection ran
        # (the victim was ripped; the connection still failed, so
        # putback restored it afterwards).
        assert result.putback_count >= 1

    def test_expansion_limited_failure_is_truncated_but_rips_up(
        self, board, monkeypatch
    ):
        """A search stopped at the expansion limit leaves the blockage
        unproven, so the connection fails as ``"truncated"``; rip-up
        still acts on such a search, as it always has."""
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(12, 9))
        router = GreedyRouter(board)
        ws = router.workspace
        self._install_victim(ws, conn_id=7, row_via=4)
        limited = LeeSearchResult(
            routed=False,
            blocked=True,
            reason="expansion limit",
            best_points=(ViaPoint(5, 4), ViaPoint(5, 4)),
            expansion_limited=True,
        )
        monkeypatch.setattr(
            router, "_try_strategies", lambda *a, **k: (None, None, limited)
        )
        result = RoutingResult(workspace=ws, connections=[conn])
        assert not router._route_connection(conn, result)
        assert result.failure_reasons == {
            conn.conn_id: FailureReason.TRUNCATED
        }
        assert result.cap_retries == 0
        assert result.putback_count >= 1  # victim selection ran

    def test_routed_retry_commits(self, board, monkeypatch):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(12, 9))
        router = GreedyRouter(board)
        ws = router.workspace
        truncated = self._truncated(ViaPoint(5, 4))
        monkeypatch.setattr(
            router, "_try_strategies", lambda *a, **k: (None, None, truncated)
        )

        def fake_lee_route(ws_, conn_, **kwargs):
            row = 4 * ws_.grid.grid_per_via
            builder = ws_.route_builder(conn_.conn_id)
            builder.add_link(
                0,
                GridPoint(0, row),
                GridPoint(6, row),
                [(row, 0, 6)],
            )
            return LeeSearchResult(routed=True, record=builder.commit())

        monkeypatch.setattr(router_module, "lee_route", fake_lee_route)
        result = RoutingResult(workspace=ws, connections=[conn])
        assert router._route_connection(conn, result)
        assert result.routed_by[conn.conn_id] is Strategy.LEE
        assert result.cap_retries == 1


def _last_outcomes(sink):
    """Per connection: how its routing last ended (``"routed"``,
    ``"failed"`` or ``"displaced"``), and its last Lee exhaustion
    reason."""
    outcome, lee = {}, {}
    for event in sink:
        if event.kind in ("routed", "failed"):
            outcome[event.conn_id] = event.kind
        elif event.kind == "putback":
            outcome[event.conn_id] = (
                "routed" if event.restored else "displaced"
            )
        elif event.kind == "lee_exhausted":
            lee[event.conn_id] = event.reason
    return outcome, lee


class TestFailureReasons:
    """Every unrouted connection says why, from the closed set
    :class:`FailureReason`, and the reason agrees with its events."""

    def test_members_read_as_their_values(self):
        for reason in FailureReason:
            assert str(reason) == f"{reason}" == reason.value
            assert json.dumps({"r": reason}) == f'{{"r": "{reason.value}"}}'
        assert FailureReason.DEADLINE == STOP_DEADLINE
        assert FailureReason.CONNECTION_TIMEOUT == STOP_CONNECTION
        assert {r.value for r in FailureReason} == {
            "blocked", "truncated", "displaced", "deadline",
            "connection_timeout",
        }

    @pytest.mark.parametrize(
        "budget,max_passes,expected",
        [
            # A kdj11_hard board: each connection it leaves unrouted was
            # routed at its own last attempt, then ripped up for a later
            # connection in the final pass and never tried again.
            (RouteBudget(), 24, {FailureReason.DISPLACED}),
            # Lee searches that stop at the expansion limit.
            (
                RouteBudget(max_lee_expansions=1),
                1,
                {FailureReason.DISPLACED, FailureReason.TRUNCATED},
            ),
        ],
        ids=["kdj11_hard", "expansion_limit"],
    )
    def test_reasons_agree_with_the_event_history(
        self, budget, max_passes, expected
    ):
        board = make_titan_board("kdj11_2l", scale=0.30, seed=2)
        sink = RingBufferSink(capacity=10**6)
        config = RouterConfig(budget=budget, max_passes=max_passes)
        result = make_router(board, config, sink=sink).route(
            Stringer(board).string_all()
        )
        assert len(sink) < 10**6  # nothing fell out of the ring
        outcome, lee = _last_outcomes(sink)
        assert set(result.failure_reasons) == set(result.failed)
        for conn_id, reason in result.failure_reasons.items():
            assert isinstance(reason, FailureReason)
            if outcome[conn_id] == "displaced":
                assert reason is FailureReason.DISPLACED, conn_id
                continue
            assert outcome[conn_id] == "failed"
            last_search = lee[conn_id]
            unproven = last_search.startswith("expansion limit") or (
                last_search.endswith(" (gap cap)")
            )
            assert reason is (
                FailureReason.TRUNCATED if unproven else FailureReason.BLOCKED
            ), (conn_id, last_search)
        assert set(result.failure_reasons.values()) == expected
