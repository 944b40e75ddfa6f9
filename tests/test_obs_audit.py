"""WorkspaceAuditor: clean boards audit clean, corruption is caught.

Each corruption test seeds exactly one inconsistency between two of the
workspace's structures and asserts the auditor names the right invariant;
the suite-level tests assert zero violations after routing every Table 1
board, alone and with two routers at once from threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.channels.segment import FILL_OWNER
from repro.channels.workspace import RoutingWorkspace
from repro.core.improve import improve_routes
from repro.core.router import GreedyRouter, RouterConfig
from repro.grid.coords import ViaPoint
from repro.obs import (
    RestoreBlockedError,
    WorkspaceAuditError,
    WorkspaceAuditor,
)
from repro.stringer import Stringer
from repro.workloads import TITAN_CONFIGS, make_titan_board

from tests.conftest import make_connection


def invariants(report):
    return {v.invariant for v in report.violations}


class TestCleanBoards:
    def test_empty_workspace_audits_clean(self, empty_workspace):
        report = WorkspaceAuditor(empty_workspace).audit()
        assert report.ok, report.summary()
        assert report.checked_sites == 20 * 15

    def test_routed_board_audits_clean(self, two_pin_board):
        board, conn = two_pin_board
        router = GreedyRouter(board)
        assert router.route([conn]).complete
        report = WorkspaceAuditor(router.workspace).audit()
        assert report.ok, report.summary()
        assert report.checked_records == 1
        assert report.checked_vias >= 2  # the two pins at least

    def test_check_passes_silently_when_clean(self, empty_workspace):
        WorkspaceAuditor(empty_workspace).check("unit test")


class TestSeededCorruption:
    @pytest.fixture
    def routed(self, two_pin_board):
        board, conn = two_pin_board
        router = GreedyRouter(board)
        assert router.route([conn]).complete
        return router.workspace, conn

    def test_via_count_drift_is_caught(self, routed):
        ws, conn = routed
        ws.via_map._count[4 * ws.via_map.via_ny + 4] += 1
        report = WorkspaceAuditor(ws).audit()
        assert invariants(report) >= {"via-count"}

    def test_stale_sole_owner_cache_is_caught(self, routed):
        ws, conn = routed
        # An empty site must cache nothing.
        empty = next(
            ViaPoint(vx, vy)
            for vx in range(ws.via_map.via_nx)
            for vy in range(ws.via_map.via_ny)
            if ws.via_map.count(ViaPoint(vx, vy)) == 0
        )
        ws.via_map._sole[empty] = 999
        report = WorkspaceAuditor(ws).audit()
        assert invariants(report) == {"sole-owner"}

    def test_record_claiming_missing_segment_is_caught(self, routed):
        ws, conn = routed
        seg = ws.records[conn.conn_id].segments[0]
        ws.remove_segment(*seg, owner=conn.conn_id)
        report = WorkspaceAuditor(ws).audit()
        assert "record-segment" in invariants(report)
        assert any("not installed" in str(v) for v in report.violations)

    def test_unrecorded_install_is_caught(self, empty_workspace):
        ws = empty_workspace
        ws.add_segment(0, 3, 2, 8, owner=77)
        report = WorkspaceAuditor(ws).audit()
        assert invariants(report) == {"record-segment"}
        assert any("no route record" in str(v) for v in report.violations)

    def test_orphan_drilled_via_is_caught(self, empty_workspace):
        ws = empty_workspace
        ws.drill_via(ViaPoint(5, 5), owner=42)  # no record for conn 42
        report = WorkspaceAuditor(ws).audit()
        assert "via-owner" in invariants(report)

    def test_fill_owned_drill_is_caught(self, empty_workspace):
        ws = empty_workspace
        ws.via_map.drill(ViaPoint(2, 2), FILL_OWNER)
        report = WorkspaceAuditor(ws).audit()
        assert any(
            "tesselation fill" in str(v) for v in report.violations
        )

    def test_recorded_via_missing_drill_is_caught(self, routed):
        ws, conn = routed
        record = ws.records[conn.conn_id]
        if not record.vias:
            pytest.skip("route needed no via")
        via = record.vias[0]
        ws.via_map.undrill(via, conn.conn_id)
        report = WorkspaceAuditor(ws).audit()
        assert "via-owner" in invariants(report)

    def test_check_raises_with_context(self, empty_workspace):
        empty_workspace.add_segment(0, 3, 2, 8, owner=77)
        with pytest.raises(WorkspaceAuditError, match="after pass 9"):
            WorkspaceAuditor(empty_workspace).check("pass 9")

    def test_audit_config_raises_mid_route(self, two_pin_board):
        """With audit on, a corrupted workspace fails the routing pass."""
        board, conn = two_pin_board
        ws = RoutingWorkspace(board)
        ws.add_segment(0, 3, 2, 8, owner=77)  # corrupt before routing
        router = GreedyRouter(board, RouterConfig(audit=True), ws)
        with pytest.raises(WorkspaceAuditError):
            router.route([conn])


class TestRestoreBlockers:
    def test_blockers_name_the_occupying_owner(self, two_pin_board):
        board, conn = two_pin_board
        router = GreedyRouter(board)
        assert router.route([conn]).complete
        ws = router.workspace
        record = ws.remove_connection(conn.conn_id)
        layer_index, channel_index, lo, hi = record.segments[0]
        ws.add_segment(layer_index, channel_index, lo, hi, owner=55)
        assert not ws.restore_record(record)
        blockers = WorkspaceAuditor(ws).restore_blockers(record)
        assert blockers
        assert any("owned by 55" in b for b in blockers)

    def test_improve_raises_restore_blocked(self, monkeypatch):
        """A restore failure in the improvement pass is a loud, typed error."""
        from repro.board.board import Board

        board = Board.create(via_nx=20, via_ny=15, n_signal_layers=4)
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(15, 11))
        router = GreedyRouter(board)
        assert router.route([conn]).complete
        monkeypatch.setattr(
            router.workspace, "restore_record", lambda record: False
        )
        with pytest.raises(RestoreBlockedError, match="could not be restored"):
            # threshold 0 makes the (optimal, un-improvable) route a
            # candidate, forcing the restore path.
            improve_routes(router, [conn], detour_threshold=0.0)


def _titan_problem(name):
    board = make_titan_board(name, scale=0.30, seed=1)
    return board, Stringer(board).string_all()


def _audited_routers_in_threads(name, count=2):
    """Route ``count`` copies of a Table 1 board at once from threads,
    the way ``grr serve`` runs warm ECO jobs, each with ``audit=True``."""

    def run(_):
        board, connections = _titan_problem(name)
        router = GreedyRouter(board, RouterConfig(audit=True))
        router.route(connections)  # audit=True raises on any violation
        return router

    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(run, range(count)))


class TestSuiteAudits:
    """Acceptance: zero violations after routing every Table 1 board."""

    def test_tna_serial_and_parallel_audit_clean(self):
        board, connections = _titan_problem("tna")
        serial = GreedyRouter(board, RouterConfig(audit=True))
        serial.route(connections)  # audit=True raises on any violation
        WorkspaceAuditor(serial.workspace).check("serial tna")

        for router in _audited_routers_in_threads("tna"):
            WorkspaceAuditor(router.workspace).check("parallel tna")
            assert (
                router.workspace.state_digest()
                == serial.workspace.state_digest()
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(TITAN_CONFIGS))
    def test_table1_board_audits_clean_serial(self, name):
        board, connections = _titan_problem(name)
        router = GreedyRouter(board, RouterConfig(audit=True))
        router.route(connections)
        WorkspaceAuditor(router.workspace).check(f"serial {name}")

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(TITAN_CONFIGS))
    def test_table1_board_audits_clean_parallel(self, name):
        first, second = _audited_routers_in_threads(name)
        for router in (first, second):
            WorkspaceAuditor(router.workspace).check(f"parallel {name}")
        assert (
            first.workspace.state_digest() == second.workspace.state_digest()
        )
