"""Unit tests for the router CPU profile (Section 12 tooling)."""

import time

import pytest

from repro.core.profiling import RouterProfile
from repro.core.router import GreedyRouter
from repro.grid.coords import ViaPoint
from repro.stringer import Stringer
from repro.workloads import BoardSpec, generate_board

from tests.conftest import make_connection


class TestRouterProfile:
    def test_measure_accumulates(self):
        profile = RouterProfile()
        with profile.measure("x"):
            pass
        with profile.measure("x"):
            pass
        assert profile.phases["x"].calls == 2
        assert profile.phases["x"].seconds >= 0

    def test_fraction(self):
        profile = RouterProfile()
        with profile.measure("a"):
            time.sleep(0.01)
        with profile.measure("b"):
            pass
        assert profile.fraction("a") > profile.fraction("b")
        assert profile.fraction("a") + profile.fraction("b") == pytest.approx(
            1.0
        )
        assert profile.fraction("missing") == 0.0

    def test_empty_profile(self):
        profile = RouterProfile()
        assert profile.total_seconds == 0.0
        assert profile.fraction("x") == 0.0
        assert profile.rows() == []

    def test_rows_sorted_by_time(self):
        profile = RouterProfile()
        with profile.measure("slow"):
            time.sleep(0.005)
        with profile.measure("fast"):
            pass
        rows = profile.rows()
        assert rows[0]["phase"] == "slow"
        assert rows[0]["pct"] >= rows[1]["pct"]


class TestReentrantMeasure:
    def test_nested_same_phase_counts_time_once(self):
        profile = RouterProfile()
        with profile.measure("lee"):
            with profile.measure("lee"):
                time.sleep(0.01)
        timing = profile.phases["lee"]
        assert timing.calls == 2
        # Without the depth guard the inner frame's ~10ms would be added
        # twice (once itself, once inside the outer interval).
        assert timing.seconds < 0.018

    def test_nested_different_phases_both_counted(self):
        profile = RouterProfile()
        with profile.measure("outer"):
            with profile.measure("inner"):
                time.sleep(0.005)
        assert profile.phases["outer"].seconds >= 0.005
        assert profile.phases["inner"].seconds >= 0.005

    def test_depth_resets_after_exception(self):
        profile = RouterProfile()
        with pytest.raises(RuntimeError):
            with profile.measure("x"):
                raise RuntimeError("boom")
        with profile.measure("x"):
            time.sleep(0.005)
        assert profile.phases["x"].seconds >= 0.005


class TestRouterIntegration:
    def test_profile_populated_by_route(self):
        board = generate_board(BoardSpec(via_nx=36, via_ny=36, seed=6))
        connections = Stringer(board).string_all()
        router = GreedyRouter(board)
        router.route(connections)
        assert "zero_via" in router.profile.phases
        assert router.profile.phases["zero_via"].calls >= len(connections)
        assert router.profile.total_seconds > 0

    def test_profile_reset_per_route(self):
        from repro.board.board import Board

        board = Board.create(via_nx=16, via_ny=12, n_signal_layers=4)
        conn = make_connection(board, ViaPoint(2, 4), ViaPoint(12, 4))
        router = GreedyRouter(board)
        router.route([conn])
        first = router.profile.phases["zero_via"].calls
        router.workspace.remove_connection(conn.conn_id)
        router.route([conn])
        assert router.profile.phases["zero_via"].calls == first
