"""Unit tests for the Lee cost functions (Section 8.2, Modification 3)
and property tests of their laws, plus two bounds real routes obey: the
``distance`` cost never exceeds a routed via chain's length, and on a
one-layer board each hop moves at most ``radius`` rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board.board import Board
from repro.channels.workspace import RoutingWorkspace
from repro.core.cost import (
    COST_FUNCTIONS,
    distance_cost,
    distance_hops_cost,
    unit_cost,
)
from repro.core.lee import lee_route
from repro.grid.coords import ViaPoint, manhattan
from repro.grid.geometry import Orientation

from tests.conftest import make_connection, scaled

A = ViaPoint(0, 0)
B = ViaPoint(10, 0)
NEAR = ViaPoint(8, 0)
FAR = ViaPoint(2, 0)


class TestUnitCost:
    def test_counts_hops_only(self):
        assert unit_cost(NEAR, B, 1) == 1
        assert unit_cost(FAR, B, 1) == 1
        assert unit_cost(NEAR, B, 3) == 3

    def test_orders_by_via_count(self):
        # "This cost function minimizes the number of vias in the solution."
        assert unit_cost(FAR, B, 1) < unit_cost(NEAR, B, 2)


class TestDistanceCost:
    def test_pure_goal_direction(self):
        assert distance_cost(NEAR, B, 1) == 2
        assert distance_cost(FAR, B, 1) == 8
        # Hops are ignored entirely.
        assert distance_cost(NEAR, B, 7) == distance_cost(NEAR, B, 1)


class TestDistanceHopsCost:
    def test_magnifies_distance_by_hops(self):
        assert distance_hops_cost(NEAR, B, 2) == 4
        assert distance_hops_cost(FAR, B, 2) == 16

    def test_each_via_must_bring_progress(self):
        # A second via is acceptable only if it at least halves the
        # remaining distance relative to a one-via point.
        one_via_far = distance_hops_cost(ViaPoint(4, 0), B, 1)   # 6
        two_via_near = distance_hops_cost(ViaPoint(7, 0), B, 2)  # 6
        assert one_via_far == two_via_near
        two_via_no_progress = distance_hops_cost(ViaPoint(5, 0), B, 2)
        assert two_via_no_progress > one_via_far

    def test_zero_at_target(self):
        assert distance_hops_cost(B, B, 3) == 0


class TestRegistry:
    def test_all_registered(self):
        assert set(COST_FUNCTIONS) == {"unit", "distance", "distance_hops"}

    def test_registry_points_at_functions(self):
        assert COST_FUNCTIONS["unit"] is unit_cost
        assert COST_FUNCTIONS["distance"] is distance_cost
        assert COST_FUNCTIONS["distance_hops"] is distance_hops_cost


# ----------------------------------------------------------------------
# Property tests: cost functions
# ----------------------------------------------------------------------

_via = st.builds(
    ViaPoint, st.integers(0, 11), st.integers(0, 9)
)


class TestCostProperties:
    @given(p=_via, t=_via, hops=st.integers(1, 20))
    @settings(max_examples=scaled(50), deadline=None)
    def test_unit_cost_is_hop_count(self, p, t, hops):
        assert unit_cost(p, t, hops) == hops

    @given(p=_via, t=_via)
    @settings(max_examples=scaled(50), deadline=None)
    def test_distance_cost_is_symmetric_manhattan(self, p, t):
        assert distance_cost(p, t, 1) == manhattan(p, t)
        assert distance_cost(p, t, 1) == distance_cost(t, p, 1)
        assert distance_cost(p, t, 1) >= 0

    @given(n=_via, m=_via, t=_via)
    @settings(max_examples=scaled(50), deadline=None)
    def test_distance_cost_is_consistent(self, n, m, t):
        # The triangle inequality form A* consistency reduces to on a
        # rectilinear grid.
        assert abs(
            distance_cost(n, t, 1) - distance_cost(m, t, 1)
        ) <= manhattan(n, m)

    @given(p=_via, t=_via, hops=st.integers(1, 20))
    @settings(max_examples=scaled(50), deadline=None)
    def test_distance_hops_monotone_in_hops(self, p, t, hops):
        assert distance_hops_cost(p, t, hops) == manhattan(p, t) * hops
        assert (
            distance_hops_cost(p, t, hops + 1)
            >= distance_hops_cost(p, t, hops)
        )

    @given(t=_via, hops=st.integers(1, 20))
    @settings(max_examples=scaled(25), deadline=None)
    def test_zero_distance_target(self, t, hops):
        # Standing on the target: distance-based costs vanish no matter
        # the hop count; unit cost still charges the vias spent.
        assert distance_cost(t, t, hops) == 0
        assert distance_hops_cost(t, t, hops) == 0
        assert unit_cost(t, t, hops) == hops


# ----------------------------------------------------------------------
# Property tests: lower bounds against routed chains
# ----------------------------------------------------------------------


def _passable_for(conn):
    return frozenset((conn.conn_id, -(conn.pin_a + 1), -(conn.pin_b + 1)))


def _obstructed_workspace(board, obstacles, avoid):
    """Workspace with vias drilled at ``obstacles`` (skipping pins)."""
    ws = RoutingWorkspace(board)
    for via in obstacles:
        if via not in avoid:
            ws.drill_via(via, owner=99)
    return ws


def _chain_length(waypoints):
    """Summed Manhattan length of a via-waypoint chain, in via units."""
    return sum(manhattan(p, q) for p, q in zip(waypoints, waypoints[1:]))


class TestLowerBoundProperties:
    @given(
        a=_via,
        b=_via,
        obstacles=st.lists(_via, max_size=6, unique=True),
    )
    @settings(max_examples=scaled(25), deadline=None)
    def test_admissible_against_routed_chain(self, a, b, obstacles):
        """The ``distance`` cost never exceeds the Manhattan length of a
        real route's via-waypoint chain, from the source or from any
        waypoint on it: it is a lower bound on the remaining route."""
        if a == b:
            return
        board = Board.create(via_nx=12, via_ny=10, n_signal_layers=4)
        conn = make_connection(board, a, b)
        ws = _obstructed_workspace(board, obstacles, {a, b})
        result = lee_route(ws, conn, passable=_passable_for(conn))
        if not result.routed:
            return
        chain = [conn.a] + list(result.record.vias) + [conn.b]
        for i, waypoint in enumerate(chain):
            assert distance_cost(waypoint, conn.b, i + 1) <= _chain_length(
                chain[i:]
            )

    @given(a=_via, b=_via, radius=st.integers(0, 3))
    @settings(max_examples=scaled(25), deadline=None)
    def test_single_layer_board_hop_bound(self, a, b, radius):
        """One horizontal layer: a hop moves at most ``radius`` via rows
        (Section 8.1), so a route needs at least ceil(|dy| / radius)
        links, and with radius 0 a cross-row target is proven blocked."""
        if a == b:
            return
        board = Board.create(via_nx=12, via_ny=10, n_signal_layers=1)
        conn = make_connection(board, a, b)
        ws = RoutingWorkspace(board)
        assert ws.layers[0].orientation is Orientation.HORIZONTAL
        result = lee_route(
            ws, conn, radius=radius, passable=_passable_for(conn)
        )
        dy = abs(a.vy - b.vy)
        if radius == 0 and dy > 0:
            assert not result.routed
            assert result.reason == "wavefront exhausted"
        elif result.routed and radius > 0:
            assert len(result.record.links) >= -(-dy // radius)
