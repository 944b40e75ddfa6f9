"""The stable ``repro.api`` facade: RouteRequest -> route() -> RouteResponse."""

import dataclasses

import pytest

from repro import (
    RouteBudget,
    RouteRequest,
    RouteResponse,
    route,
)
from repro.board.board import Board
from repro.core.budget import STOP_DEADLINE
from repro.core.router import RouterConfig
from repro.grid.coords import ViaPoint
from repro.obs import RingBufferSink

from tests.conftest import make_connection


def _problem():
    board = Board.create(via_nx=16, via_ny=12, n_signal_layers=2)
    conns = [
        make_connection(board, ViaPoint(2, 4), ViaPoint(12, 4), 0),
        make_connection(board, ViaPoint(3, 2), ViaPoint(13, 9), 1),
    ]
    for i, conn in enumerate(conns):
        conn.conn_id = i
    return board, conns


class TestRouteRequest:
    def test_connections_coerced_to_tuple(self):
        board, conns = _problem()
        request = RouteRequest(board=board, connections=conns)
        assert isinstance(request.connections, tuple)
        assert len(request.connections) == 2

    def test_request_is_frozen(self):
        board, conns = _problem()
        request = RouteRequest(board=board, connections=conns)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.board = board

    def test_budget_overrides_config_budget(self):
        board, conns = _problem()
        request = RouteRequest(
            board=board,
            connections=conns,
            budget=RouteBudget(deadline_seconds=9.0),
            config=RouterConfig(
                radius=2, budget=RouteBudget(deadline_seconds=1.0)
            ),
        )
        resolved = request.resolved_config
        assert resolved.budget.deadline_seconds == 9.0
        assert resolved.radius == 2  # the rest of the config survives

    def test_defaults_resolve_to_default_config(self):
        board, conns = _problem()
        request = RouteRequest(board=board, connections=conns)
        assert request.resolved_config == RouterConfig()


class TestRoute:
    def test_round_trip_routes_everything(self):
        board, conns = _problem()
        response = route(RouteRequest(board=board, connections=conns))
        assert isinstance(response, RouteResponse)
        assert response.complete
        assert response.stopped_reason is None
        assert response.result.routed_count == 2
        assert response.elapsed_seconds >= 0.0
        assert response.timings  # per-phase profile came through

    def test_exhausted_budget_returns_partial_never_raises(self):
        board, conns = _problem()
        sink = RingBufferSink()
        response = route(
            RouteRequest(
                board=board,
                connections=conns,
                budget=RouteBudget(deadline_seconds=0.0),
                sink=sink,
            )
        )
        assert not response.complete
        assert response.stopped_reason == STOP_DEADLINE
        assert response.result.failure_reasons
        assert sink.by_kind("budget_exhausted")

    def test_response_is_frozen(self):
        board, conns = _problem()
        response = route(RouteRequest(board=board, connections=conns))
        with pytest.raises(dataclasses.FrozenInstanceError):
            response.stopped_reason = "nope"


class TestTopLevelExports:
    def test_facade_importable_from_repro(self):
        import repro

        for name in ("RouteRequest", "RouteResponse", "RouteBudget", "route"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
