"""The one Lee search, where goal-oriented search used to be tested.

``lee_route`` is the paper's classic search (§8.2) and nothing else:
there is no ``search`` knob, no ``GRR_SEARCH`` default, no lower-bound
cache and no ``bounds_stats`` event.  These tests cover what that search
must still do on the cases the goal mode was checked on — route, respect
its expansion limit, report a blockage as proven rather than truncated,
expand no more than the single-front search — plus routes unchanged
under the box-clipped reference *Vias* and on concurrent threads, and
the ``(0, 0)`` that ``RoutingWorkspace.bounds_stats()`` keeps returning
because the benchmark harness still records it.
"""

from __future__ import annotations

import dataclasses
import inspect
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

import repro.core
from repro.api import RouteRequest, begin_eco, route
from repro.board.board import Board
from repro.channels.workspace import RoutingWorkspace
from repro.core import bounds, lee
from repro.core.lee import LeeSearchResult, lee_route
from repro.core.result import Strategy
from repro.core.router import GreedyRouter, RouterConfig
from repro.grid.coords import ViaPoint
from repro.grid.geometry import Orientation
from repro.obs import events
from repro.obs.sinks import RingBufferSink
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests.conftest import make_connection
from tests.helpers import assert_route_connected, assert_workspace_consistent
from tests.vias_reference import reference_reachable_vias


def _passable_for(conn):
    return frozenset((conn.conn_id, -(conn.pin_a + 1), -(conn.pin_b + 1)))


def _tna_route():
    board = make_titan_board("tna", scale=0.25, seed=3)
    connections = Stringer(board).string_all()
    router = GreedyRouter(board, RouterConfig())
    return router, router.route(connections)


@pytest.fixture
def board():
    return Board.create(via_nx=16, via_ny=12, n_signal_layers=4)


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------


class TestGoalSearch:
    def test_routes_diagonal_connection(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        ws = RoutingWorkspace(board)
        result = lee_route(ws, conn, passable=_passable_for(conn))
        assert result.routed
        assert_route_connected(ws, conn, result.record)
        assert_workspace_consistent(ws)

    def test_expands_no_more_than_classic_on_empty_board(self, board):
        """Modification 2: two wavefronts meet having expanded no more
        vias, and marked fewer, than one wavefront spreading alone."""
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        both = lee_route(
            RoutingWorkspace(board), conn, passable=_passable_for(conn)
        )
        single = lee_route(
            RoutingWorkspace(board),
            conn,
            passable=_passable_for(conn),
            single_front=True,
        )
        assert both.routed and single.routed
        assert both.expansions <= single.expansions
        assert both.marked < single.marked

    def test_respects_expansion_limit(self, board):
        conn = make_connection(board, ViaPoint(1, 1), ViaPoint(14, 10))
        ws = RoutingWorkspace(board)
        result = lee_route(
            ws, conn, passable=_passable_for(conn), max_expansions=1
        )
        assert not result.routed
        assert result.expansions <= 1
        assert result.reason == "expansion limit"

    def test_hop_bound_prunes_unreachable_single_orientation(self):
        """radius=0 on a one-layer board: no hop leaves the source row,
        so each wavefront floods its row and the search ends proven
        blocked, not truncated."""
        board = Board.create(via_nx=16, via_ny=12, n_signal_layers=1)
        conn = make_connection(board, ViaPoint(2, 3), ViaPoint(13, 8))
        ws = RoutingWorkspace(board)
        result = lee_route(ws, conn, radius=0, passable=_passable_for(conn))
        assert not result.routed
        assert result.reason == "wavefront exhausted"
        assert result.cap_hits == 0
        assert result.expansions <= 2 * board.grid.via_nx

    def test_blocked_connection_terminates_unrouted(self):
        """Pin sealed in a box: its wavefront drains and the search ends
        with a clean 'wavefront exhausted' on that side."""
        board = Board.create(via_nx=16, via_ny=12, n_signal_layers=2)
        conn = make_connection(board, ViaPoint(2, 6), ViaPoint(13, 6))
        ws = RoutingWorkspace(board)
        b_grid = ws.grid.via_to_grid(conn.b)
        for layer_index, layer in enumerate(ws.layers):
            if layer.orientation is Orientation.HORIZONTAL:
                for row in range(b_grid.gy - 2, b_grid.gy + 3):
                    ws.add_segment(
                        layer_index, row, b_grid.gx - 2, b_grid.gx - 2, 90
                    )
                    ws.add_segment(
                        layer_index, row, b_grid.gx + 2, b_grid.gx + 2, 90
                    )
                ws.add_segment(
                    layer_index, b_grid.gy - 2, b_grid.gx - 1, b_grid.gx + 1, 90
                )
                ws.add_segment(
                    layer_index, b_grid.gy + 2, b_grid.gx - 1, b_grid.gx + 1, 90
                )
            else:
                for col in range(b_grid.gx - 2, b_grid.gx + 3):
                    ws.add_segment(
                        layer_index, col, b_grid.gy - 2, b_grid.gy - 2, 90
                    )
                    ws.add_segment(
                        layer_index, col, b_grid.gy + 2, b_grid.gy + 2, 90
                    )
                ws.add_segment(
                    layer_index, b_grid.gx - 2, b_grid.gy - 1, b_grid.gy + 1, 90
                )
                ws.add_segment(
                    layer_index, b_grid.gx + 2, b_grid.gy - 1, b_grid.gy + 1, 90
                )
        result = lee_route(ws, conn, passable=_passable_for(conn))
        assert not result.routed
        assert result.reason == "wavefront exhausted"
        assert result.exhausted_side == "b"

    def test_classic_mode_has_no_goal_counters(self):
        """The search takes no bounds and reports no goal-mode counters."""
        assert "bounds" not in inspect.signature(lee_route).parameters
        fields = {f.name for f in dataclasses.fields(LeeSearchResult)}
        assert not fields & {"heap_stale", "lb_prunes"}


# ----------------------------------------------------------------------
# Router wiring: config, profile counters, observability
# ----------------------------------------------------------------------


class TestRouterGoalMode:
    def test_search_mode_validation(self, monkeypatch):
        """``search`` is not a setting: the constructor rejects it, and
        ``GRR_SEARCH`` leaves the config untouched."""
        for mode in ("classic", "goal"):
            with pytest.raises(TypeError):
                RouterConfig(search=mode)
        monkeypatch.delenv("GRR_SEARCH", raising=False)
        plain = RouterConfig()
        monkeypatch.setenv("GRR_SEARCH", "goal")
        assert RouterConfig() == plain
        assert "search" not in {f.name for f in dataclasses.fields(plain)}

    def test_search_env_default(self, monkeypatch):
        """``GRR_SEARCH=goal`` routes exactly what an unset env routes."""
        monkeypatch.delenv("GRR_SEARCH", raising=False)
        _, plain = _tna_route()
        monkeypatch.setenv("GRR_SEARCH", "goal")
        _, with_env = _tna_route()
        assert (
            with_env.workspace.state_digest(), with_env.lee_expansions
        ) == (plain.workspace.state_digest(), plain.lee_expansions)

    def test_goal_router_completes_and_counts(self):
        router, result = _tna_route()
        assert result.complete
        assert result.lee_expansions > 0
        counters = router.profile.counters
        assert counters.get("gap_cache_misses", 0) > 0
        assert not set(counters) & {
            "lb_hits", "lb_rebuilds", "lb_prunes", "heap_stale",
        }

    def test_classic_router_never_touches_bounds(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        router = GreedyRouter(board, RouterConfig())
        router.route([conn])
        counters = router.profile.counters
        assert counters.get("lb_hits", 0) == 0
        assert counters.get("lb_rebuilds", 0) == 0
        assert router.workspace.bounds_stats() == (0, 0)

    def test_bounds_stats_event_emitted(self):
        """A traced route still closes with ``cache_stats``; no
        ``bounds_stats`` event exists to emit."""
        board = make_titan_board("tna", scale=0.25, seed=3)
        connections = Stringer(board).string_all()
        sink = RingBufferSink()
        GreedyRouter(board, RouterConfig(), sink=sink).route(connections)
        kinds = {e.kind for e in sink.events}
        assert "cache_stats" in kinds
        assert "bounds_stats" not in kinds
        assert not hasattr(events, "BoundsStats")


# ----------------------------------------------------------------------
# Parity: reference Vias, concurrent threads
# ----------------------------------------------------------------------


class TestGoalParity:
    def test_backend_parity(self):
        """Routes are the same with the box-clipped reference *Vias*
        search (``tests/vias_reference.py``) patched into the Lee search."""
        digests = {}
        for vias in (lee.reachable_vias, reference_reachable_vias):
            with mock.patch.object(lee, "reachable_vias", vias):
                _, result = _tna_route()
            digests[vias] = (
                result.workspace.state_digest(),
                sorted(result.failed),
                result.lee_expansions,
                result.workspace.via_map.probe_count,
            )
        assert digests[lee.reachable_vias] == digests[reference_reachable_vias]

    @pytest.mark.slow
    def test_worker_parity(self):
        """Routing on two executor worker threads at once, the way
        ``grr serve`` runs jobs, matches serial routing exactly."""

        def run(_):
            _, result = _tna_route()
            return result.workspace.state_digest(), sorted(result.failed)

        serial = run(None)
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, range(2))) == [serial, serial]


# ----------------------------------------------------------------------
# ECO: the bounds pair the benchmark records stays (0, 0)
# ----------------------------------------------------------------------


class TestEcoWarmBounds:
    def _session_with_result(self):
        board = make_titan_board("kdj11_2l", scale=0.25, seed=3)
        connections = Stringer(board).string_all()
        request = RouteRequest(board=board, connections=connections)
        response = route(request)
        assert response.result.complete
        return begin_eco(request, response), response.result

    def test_noop_reroute_touches_no_bounds(self):
        session, _ = self._session_with_result()
        assert session.workspace.bounds_stats() == (0, 0)
        response = session.reroute()
        assert response.result.complete
        assert session.workspace.bounds_stats() == (0, 0)

    def test_localized_edit_reuses_warm_bounds(self):
        """Cut a net the cold route needed Lee for and re-add it: the
        reroute runs Lee again, keeps every other route installed, and
        the bounds pair stays (0, 0)."""
        session, cold_result = self._session_with_result()
        lee_nets = sorted(
            c.net_id
            for c in session.connections
            if cold_result.routed_by.get(c.conn_id) is Strategy.LEE
        )
        assert lee_nets, "workload too easy: no Lee-routed connection"
        net = session.board.nets[lee_nets[0]]
        pins = list(net.pin_ids)
        net_of = {c.conn_id: c.net_id for c in session.connections}
        kept = {
            cid: record
            for cid, record in session.workspace.records.items()
            if net_of[cid] != net.net_id
        }
        session.cut_nets([net.net_id])
        stats = session.add_nets([pins])
        response = session.reroute()
        assert response.result.complete
        assert response.counters["eco_rerouted"] >= len(stats.added)
        for cid, record in kept.items():
            assert session.workspace.records[cid] == record
        assert session.workspace.bounds_stats() == (0, 0)
        assert_workspace_consistent(session.workspace)


def test_search_modes_registry():
    """No search-mode registry or bound types are exported; the bounds
    module keeps only the stub the benchmark's tracer patches."""
    for name in ("SEARCH_MODES", "LowerBoundCache", "TargetBounds"):
        assert not hasattr(repro.core, name)
    public = {n for n in vars(bounds) if not n.startswith("_")}
    assert public == {"LowerBoundCache"}
    with pytest.raises(NotImplementedError):
        bounds.LowerBoundCache().lookup()
