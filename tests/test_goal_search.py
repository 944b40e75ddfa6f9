"""Goal-oriented Lee search (``search="goal"``) and its lower bounds.

Covers the :class:`repro.core.bounds.LowerBoundCache` invalidation
discipline (warm hits, band-local staleness), the goal-mode search
itself (completion, expansion limits, hop-bound pruning, the
``heap_stale`` lazy-deletion counter), router/profile wiring, parity
with the box-clipped reference *Vias* search within the mode, parity
when routers run on concurrent threads, and warm bound reuse across
:class:`repro.eco.EcoSession` reroutes.

Admissibility/consistency *properties* of the bound itself live with
the cost-function tests in ``tests/test_cost.py``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from repro.api import RouteRequest, begin_eco, route
from repro.board.board import Board
from repro.channels.workspace import RoutingWorkspace
from repro.core import lee
from repro.core.bounds import (
    BAND_HORIZON,
    HOPS_UNREACHABLE,
    SEARCH_MODES,
)
from repro.core.lee import lee_route
from repro.core.router import GreedyRouter, RouterConfig
from repro.grid.coords import ViaPoint
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests.conftest import make_connection
from tests.helpers import assert_route_connected, assert_workspace_consistent
from tests.vias_reference import reference_reachable_vias


def _passable_for(conn):
    return frozenset((conn.conn_id, -(conn.pin_a + 1), -(conn.pin_b + 1)))


def _bounds_for(ws, conn, radius=1):
    """Per-side bounds tuple the router passes to ``lee_route``."""
    passable = _passable_for(conn)
    cache = ws.lower_bounds
    return (
        cache.lookup(conn.b, passable, radius),
        cache.lookup(conn.a, passable, radius),
    )


@pytest.fixture
def board():
    return Board.create(via_nx=16, via_ny=12, n_signal_layers=4)


# ----------------------------------------------------------------------
# The goal-mode search
# ----------------------------------------------------------------------


class TestGoalSearch:
    def test_routes_diagonal_connection(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        ws = RoutingWorkspace(board)
        result = lee_route(
            ws,
            conn,
            passable=_passable_for(conn),
            bounds=_bounds_for(ws, conn),
        )
        assert result.routed
        assert_route_connected(ws, conn, result.record)
        assert_workspace_consistent(ws)

    def test_expands_no_more_than_classic_on_empty_board(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        classic_ws = RoutingWorkspace(board)
        classic = lee_route(
            classic_ws, conn, passable=_passable_for(conn)
        )
        goal_ws = RoutingWorkspace(board)
        goal = lee_route(
            goal_ws,
            conn,
            passable=_passable_for(conn),
            bounds=_bounds_for(goal_ws, conn),
        )
        assert classic.routed and goal.routed
        assert goal.expansions <= classic.expansions

    def test_respects_expansion_limit(self, board):
        conn = make_connection(board, ViaPoint(1, 1), ViaPoint(14, 10))
        ws = RoutingWorkspace(board)
        result = lee_route(
            ws,
            conn,
            passable=_passable_for(conn),
            bounds=_bounds_for(ws, conn),
            max_expansions=1,
        )
        assert not result.routed
        assert result.expansions <= 1
        assert "expansion" in result.reason

    def test_hop_bound_prunes_unreachable_single_orientation(self):
        """radius=0 on a single-layer board: cross rows are provably
        unreachable, so goal mode prunes the search almost immediately
        where classic would flood the source row first."""
        board = Board.create(via_nx=16, via_ny=12, n_signal_layers=1)
        conn = make_connection(board, ViaPoint(2, 3), ViaPoint(13, 8))
        ws = RoutingWorkspace(board)
        bounds = _bounds_for(ws, conn, radius=0)
        assert bounds[0].hop_bound(conn.a) >= HOPS_UNREACHABLE
        result = lee_route(
            ws,
            conn,
            radius=0,
            passable=_passable_for(conn),
            bounds=bounds,
        )
        assert not result.routed
        assert result.expansions <= 2
        assert result.lb_prunes >= 2

    def test_blocked_connection_terminates_unrouted(self):
        """Pin sealed in a box: the capped one-sided tail must still end
        with a clean 'wavefront exhausted', not an endless search."""
        from repro.grid.geometry import Orientation

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
        result = lee_route(
            ws,
            conn,
            passable=_passable_for(conn),
            bounds=_bounds_for(ws, conn),
        )
        assert not result.routed
        assert result.reason == "wavefront exhausted"
        assert result.exhausted_side in ("a", "b")

    def test_classic_mode_has_no_goal_counters(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        ws = RoutingWorkspace(board)
        result = lee_route(ws, conn, passable=_passable_for(conn))
        assert result.lb_prunes == 0
        assert result.heap_stale == 0


# ----------------------------------------------------------------------
# The lower-bound cache
# ----------------------------------------------------------------------


class TestLowerBoundCache:
    def test_repeat_lookup_hits_and_returns_same_entry(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        ws = RoutingWorkspace(board)
        cache = ws.lower_bounds
        passable = _passable_for(conn)
        first = cache.lookup(conn.b, passable, 1)
        second = cache.lookup(conn.b, passable, 1)
        assert first is second
        assert cache.stats() == (1, 1)

    def test_band_mutation_invalidates(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        ws = RoutingWorkspace(board)
        cache = ws.lower_bounds
        passable = _passable_for(conn)
        first = cache.lookup(conn.b, passable, 1)
        # Cover a via site inside the target's arrival band.
        ws.drill_via(ViaPoint(conn.b.vx - 1, conn.b.vy), owner=90)
        second = cache.lookup(conn.b, passable, 1)
        assert second is not first
        assert cache.stats() == (0, 2)

    def test_far_mutation_keeps_entry_warm(self, board):
        target = ViaPoint(2, 2)
        conn = make_connection(board, target, ViaPoint(13, 9))
        ws = RoutingWorkspace(board)
        cache = ws.lower_bounds
        passable = _passable_for(conn)
        cache.lookup(target, passable, 1)
        # A via whose row and column both sit outside the bands.
        ws.drill_via(ViaPoint(10, 8), owner=91)
        cache.lookup(target, passable, 1)
        assert cache.stats() == (1, 1)

    def test_rebuild_is_pure_function_of_state(self, board):
        """A warm-then-stale rebuild equals a cold build on an identical
        workspace."""
        conn = make_connection(board, ViaPoint(4, 4), ViaPoint(12, 8))
        passable = _passable_for(conn)
        warm_ws = RoutingWorkspace(board)
        warm = warm_ws.lower_bounds
        warm.lookup(conn.b, passable, 1)
        warm_ws.drill_via(ViaPoint(conn.b.vx + 1, conn.b.vy), owner=92)
        warm_entry = warm.lookup(conn.b, passable, 1)

        cold_ws = RoutingWorkspace(board)
        cold_ws.drill_via(ViaPoint(conn.b.vx + 1, conn.b.vy), owner=92)
        cold_entry = cold_ws.lower_bounds.lookup(conn.b, passable, 1)
        for p in (conn.a, ViaPoint(0, 0), ViaPoint(15, 11),
                  ViaPoint(conn.b.vx + 2, conn.b.vy)):
            assert warm_entry.lower_bound(p) == cold_entry.lower_bound(p)
            assert warm_entry.hop_bound(p) == cold_entry.hop_bound(p)


    def test_band_scan_backend_parity(self, board):
        """The scalar band scan, the one backend left, finds the nearest
        landings a whole-board reference scan finds, and probes a number
        of sites fixed by the band geometry alone."""
        conn = make_connection(board, ViaPoint(8, 6), ViaPoint(2, 2))
        passable = _passable_for(conn)
        cases = [(conn.a, 1), (ViaPoint(0, 11), 2), (ViaPoint(15, 0), 0)]
        probes = {}
        for congested in (False, True):
            ws = RoutingWorkspace(board)
            if congested:
                # Wall in the target's own column and its two neighbors,
                # so every band has its nearest landing two sites out.
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        if dx or dy:
                            ws.drill_via(ViaPoint(8 + dx, 6 + dy), owner=93)
            for target, radius in cases:
                before = ws.via_map.probe_count
                entry = ws.lower_bounds.lookup(target, passable, radius)
                probes[congested, target] = ws.via_map.probe_count - before
                assert (
                    entry.d_left, entry.d_right, entry.d_down, entry.d_up
                ) == _band_reference(ws, target, passable, radius)
            if congested:
                entry = ws.lower_bounds.lookup(conn.a, passable, 1)
                assert (
                    entry.d_left, entry.d_right, entry.d_down, entry.d_up
                ) == (2, 2, 2, 2)
        for target, _ in cases:
            assert probes[False, target] == probes[True, target] > 0


def _band_reference(ws, target, passable, radius):
    """(d_left, d_right, d_down, d_up) by a scan of every via site.

    A site other than the target lands a horizontal arrival when its row
    is within ``radius`` of the target's and its column within
    ``BAND_HORIZON``; offsets left of the target count to ``d_left``, the
    rest (the target's own column too) to ``d_right``.  Vertical arrivals
    swap rows and columns.  A side without a landing reads
    ``BAND_HORIZON + 1``.
    """
    via_map = ws.via_map
    cap = BAND_HORIZON + 1
    d_left = d_right = d_down = d_up = cap
    for x in range(via_map.via_nx):
        for y in range(via_map.via_ny):
            dx, dy = x - target.vx, y - target.vy
            if (dx, dy) == (0, 0):
                continue
            if not via_map.is_available(ViaPoint(x, y), passable):
                continue
            if abs(dy) <= radius and abs(dx) <= BAND_HORIZON:
                if dx < 0:
                    d_left = min(d_left, -dx)
                else:
                    d_right = min(d_right, dx)
            if abs(dx) <= radius and abs(dy) <= BAND_HORIZON:
                if dy < 0:
                    d_down = min(d_down, -dy)
                else:
                    d_up = min(d_up, dy)
    return d_left, d_right, d_down, d_up


# ----------------------------------------------------------------------
# Router wiring: config, profile counters, observability
# ----------------------------------------------------------------------


class TestRouterGoalMode:
    def test_search_mode_validation(self):
        with pytest.raises(ValueError, match="unknown search mode"):
            RouterConfig(search="astar")

    def test_search_env_default(self, monkeypatch):
        monkeypatch.setenv("GRR_SEARCH", "goal")
        assert RouterConfig().search == "goal"
        monkeypatch.delenv("GRR_SEARCH")
        assert RouterConfig().search == "classic"

    def test_goal_router_completes_and_counts(self):
        board = make_titan_board("tna", scale=0.25, seed=3)
        connections = Stringer(board).string_all()
        router = GreedyRouter(board, RouterConfig(search="goal"))
        result = router.route(connections)
        assert result.complete
        counters = router.profile.counters
        assert counters.get("lb_rebuilds", 0) > 0
        # Warm reuse within one route() call: pins are looked up once
        # per strategy attempt, so hits dominate on a multi-pass run.
        assert counters.get("lb_hits", 0) >= 0

    def test_goal_matches_classic_completion(self):
        board = make_titan_board("tna", scale=0.25, seed=3)
        connections = Stringer(board).string_all()
        classic = GreedyRouter(
            board, RouterConfig(search="classic")
        ).route(connections)
        goal = GreedyRouter(
            board, RouterConfig(search="goal")
        ).route(connections)
        assert len(goal.failed) <= len(classic.failed)
        assert_workspace_consistent(goal.workspace)

    def test_classic_router_never_touches_bounds(self, board):
        conn = make_connection(board, ViaPoint(2, 2), ViaPoint(13, 9))
        router = GreedyRouter(board, RouterConfig(search="classic"))
        router.route([conn])
        counters = router.profile.counters
        assert counters.get("lb_hits", 0) == 0
        assert counters.get("lb_rebuilds", 0) == 0
        assert router.workspace.bounds_stats() == (0, 0)

    def test_bounds_stats_event_emitted(self):
        from repro.obs.sinks import RingBufferSink

        board = make_titan_board("tna", scale=0.25, seed=3)
        connections = Stringer(board).string_all()
        sink = RingBufferSink()
        router = GreedyRouter(board, RouterConfig(search="goal"), sink=sink)
        router.route(connections)
        events = [e for e in sink.events if e.kind == "bounds_stats"]
        assert events
        total = events[-1].hits + events[-1].rebuilds
        assert total > 0
        assert 0.0 <= events[-1].hit_rate <= 1.0


# ----------------------------------------------------------------------
# Parity within goal mode
# ----------------------------------------------------------------------


class TestGoalParity:
    def test_backend_parity(self):
        """Goal routes are the same with the box-clipped reference *Vias*
        search (``tests/vias_reference.py``) patched into the Lee search."""
        digests = {}
        for vias in (lee.reachable_vias, reference_reachable_vias):
            board = make_titan_board("tna", scale=0.25, seed=3)
            connections = Stringer(board).string_all()
            router = GreedyRouter(board, RouterConfig(search="goal"))
            with mock.patch.object(lee, "reachable_vias", vias):
                result = router.route(connections)
            digests[vias] = (
                result.workspace.state_digest(),
                sorted(result.failed),
                result.lee_expansions,
                result.workspace.via_map.probe_count,
            )
        assert digests[lee.reachable_vias] == digests[reference_reachable_vias]

    @pytest.mark.slow
    def test_worker_parity(self):
        """Goal routing on two executor worker threads at once, the way
        ``grr serve`` runs jobs, matches serial goal routing exactly."""

        def run(_):
            board = make_titan_board("tna", scale=0.25, seed=3)
            connections = Stringer(board).string_all()
            result = GreedyRouter(
                board, RouterConfig(search="goal")
            ).route(connections)
            return result.workspace.state_digest(), sorted(result.failed)

        serial = run(None)
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, range(2))) == [serial, serial]


# ----------------------------------------------------------------------
# ECO: warm bounds across reroutes
# ----------------------------------------------------------------------


class TestEcoWarmBounds:
    def _session_with_result(self):
        board = make_titan_board("kdj11_2l", scale=0.25, seed=3)
        connections = Stringer(board).string_all()
        request = RouteRequest(
            board=board,
            connections=connections,
            config=RouterConfig(search="goal"),
        )
        response = route(request)
        assert response.result.complete
        return begin_eco(request, response), response.result

    def test_noop_reroute_touches_no_bounds(self):
        session, _ = self._session_with_result()
        before = session.workspace.bounds_stats()
        response = session.reroute()
        assert response.result.complete
        after = session.workspace.bounds_stats()
        # Fully-routed board, no edits: the reroute fast path never even
        # consults the cache.
        assert after == before

    def test_localized_edit_reuses_warm_bounds(self):
        from repro.core.result import Strategy

        session, cold_result = self._session_with_result()
        cold_hits, cold_rebuilds = session.workspace.bounds_stats()
        assert cold_rebuilds > 0
        # Cut a net the cold route needed Lee for (a zero/one-via net
        # would reroute without consulting the bounds at all), then
        # re-add it: only its own pins need bounds again.
        lee_nets = sorted(
            c.net_id
            for c in session.connections
            if cold_result.routed_by.get(c.conn_id) is Strategy.LEE
        )
        assert lee_nets, "workload too easy: no Lee-routed connection"
        net = next(
            n for n in session.board.nets if n.net_id == lee_nets[0]
        )
        pins = list(net.pin_ids)
        session.cut_nets([net.net_id])
        session.add_nets([pins])
        response = session.reroute()
        assert response.result.complete
        hits, rebuilds = session.workspace.bounds_stats()
        new_rebuilds = rebuilds - cold_rebuilds
        new_lookups = (hits - cold_hits) + new_rebuilds
        # The reroute consulted the cache, but rebuilt far fewer
        # entries than the cold route — the warm cache carries across
        # the edit, staled only where the rip-up touched bands.
        assert new_lookups > 0
        assert new_rebuilds < cold_rebuilds
        assert_workspace_consistent(session.workspace)


def test_search_modes_registry():
    assert SEARCH_MODES == ("classic", "goal")
    assert BAND_HORIZON > 0
