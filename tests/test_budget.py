"""Deadline/budget enforcement: graceful degradation, never an exception.

Covers :mod:`repro.core.budget` (value validation, tracker mechanics on
a fake clock), the removal of the flat ``RouterConfig`` knobs, and the
routing-level contract: an exhausted budget yields a *partial but valid*
result — auditor-clean workspace, ``stopped_reason`` set, per-connection
failure reasons — for one router alone and for four routing at once from
threads, the way ``grr serve`` runs warm ECO jobs.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.board.board import Board
from repro.core.budget import (
    STOP_CONNECTION,
    STOP_DEADLINE,
    BudgetTracker,
    FailureReason,
    RouteBudget,
)
from repro.core.router import GreedyRouter, RouterConfig, make_router
from repro.grid.coords import ViaPoint
from repro.obs import RingBufferSink, WorkspaceAuditor
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests.conftest import make_connection
from tests.helpers import assert_result_valid


class FakeClock:
    """A hand-cranked clock for deterministic tracker tests."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRouteBudget:
    def test_defaults_are_untimed_paper_caps(self):
        budget = RouteBudget()
        assert not budget.timed
        assert budget.max_lee_expansions == 4000
        assert budget.max_gaps == 20000
        assert budget.max_ripup_rounds == 10

    def test_any_wall_clock_limit_makes_it_timed(self):
        assert RouteBudget(deadline_seconds=1.0).timed
        assert RouteBudget(per_connection_seconds=0.5).timed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": -1.0},
            {"per_connection_seconds": -0.1},
            {"max_lee_expansions": -1},
            {"max_gaps": -1},
            {"max_ripup_rounds": -1},
        ],
    )
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RouteBudget(**kwargs)


class TestRemovedConfigKnobs:
    """PR 4's deprecation cycle is complete: the flat spellings of the
    budget caps are gone from ``RouterConfig`` in both directions."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_lee_expansions": 456},
            {"max_gaps": 123},
            {"max_ripup_rounds": 5},
        ],
    )
    def test_flat_kwargs_rejected(self, kwargs):
        with pytest.raises(TypeError):
            RouterConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["max_lee_expansions", "max_gaps", "max_ripup_rounds"]
    )
    def test_flat_attribute_reads_rejected(self, name):
        config = RouterConfig(budget=RouteBudget(max_ripup_rounds=3))
        with pytest.raises(AttributeError):
            getattr(config, name)

    def test_nested_budget_is_the_only_spelling(self, recwarn):
        config = RouterConfig(budget=RouteBudget(max_gaps=77))
        clone = dataclasses.replace(config, radius=2)
        assert clone.budget.max_gaps == 77
        deprecations = [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations == []


class TestBudgetTracker:
    def test_untimed_tracker_has_no_hot_path(self):
        tracker = BudgetTracker(RouteBudget(), clock=FakeClock())
        assert tracker.hot() is None
        assert not tracker.search_exceeded()
        assert not tracker.deadline_exceeded("x")
        assert tracker.remaining() is None

    def test_deadline_latches_and_emits_once(self):
        clock = FakeClock()
        sink = RingBufferSink()
        tracker = BudgetTracker(
            RouteBudget(deadline_seconds=2.0), sink=sink, clock=clock
        )
        assert tracker.hot() is tracker
        assert not tracker.deadline_exceeded("early")
        clock.advance(3.0)
        assert tracker.deadline_exceeded("late")
        assert tracker.deadline_exceeded("again")
        events = sink.by_kind("budget_exhausted")
        assert len(events) == 1
        assert events[0].scope == STOP_DEADLINE
        assert events[0].context == "late"
        assert tracker.remaining() == 0.0

    def test_per_connection_allowance_resets(self):
        clock = FakeClock()
        sink = RingBufferSink()
        tracker = BudgetTracker(
            RouteBudget(per_connection_seconds=1.0), sink=sink, clock=clock
        )
        tracker.start_connection(7)
        clock.advance(1.5)
        assert tracker.connection_exceeded()
        assert tracker.search_exceeded()
        assert tracker.exceeded_scope() == STOP_CONNECTION
        # A new connection gets a fresh allowance.
        tracker.start_connection(8)
        assert not tracker.connection_exceeded()
        assert not tracker.search_exceeded()
        assert len(sink.by_kind("budget_exhausted")) == 1

    def test_total_deadline_outranks_connection_timeout(self):
        clock = FakeClock()
        tracker = BudgetTracker(
            RouteBudget(deadline_seconds=1.0, per_connection_seconds=0.5),
            clock=clock,
        )
        tracker.start_connection(1)
        clock.advance(2.0)
        assert tracker.exceeded_scope() == STOP_DEADLINE

    def test_checkpoints_only_counted_when_timed(self):
        untimed = BudgetTracker(RouteBudget(), clock=FakeClock())
        untimed.checkpoint("pass 1")
        assert untimed.checkpoints == 0
        sink = RingBufferSink()
        timed = BudgetTracker(
            RouteBudget(deadline_seconds=5.0), sink=sink, clock=FakeClock()
        )
        timed.checkpoint("pass 1")
        assert timed.checkpoints == 1
        (event,) = sink.by_kind("budget_checkpoint")
        assert event.context == "pass 1"


def _titan_problem():
    board = make_titan_board("tna", scale=0.4, seed=2)
    return board, Stringer(board).string_all()


class TestDeadlineDegradation:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_tiny_deadline_partial_but_valid(self, threads):
        """Each of ``threads`` routers routing at once stops at its own
        deadline."""
        problems = [_titan_problem() for _ in range(threads)]

        def run(problem):
            board, connections = problem
            sink = RingBufferSink()
            config = RouterConfig(budget=RouteBudget(deadline_seconds=0.05))
            router = make_router(board, config, sink=sink)
            return router, sink, router.route(connections)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, problems))
        for (board, connections), (router, sink, result) in zip(
            problems, outcomes
        ):
            # Never raises; partial; everything installed is coherent.
            assert not result.complete
            assert result.stopped_reason == STOP_DEADLINE
            assert WorkspaceAuditor(router.workspace).audit().ok
            assert_result_valid(board, connections, result)
            assert sink.by_kind("budget_exhausted")
            assert set(result.failure_reasons) == set(result.failed)
            assert all(
                reason in (STOP_DEADLINE, FailureReason.BLOCKED)
                for reason in result.failure_reasons.values()
            )

    def test_zero_deadline_routes_nothing(self):
        board, connections = _titan_problem()
        config = RouterConfig(budget=RouteBudget(deadline_seconds=0.0))
        result = GreedyRouter(board, config).route(connections)
        assert result.routed_count == 0
        assert result.passes == 0
        assert result.stopped_reason == STOP_DEADLINE
        assert all(
            reason == STOP_DEADLINE
            for reason in result.failure_reasons.values()
        )

    def test_per_connection_timeout_reported(self):
        board = Board.create(via_nx=14, via_ny=12, n_signal_layers=2)
        conn = make_connection(board, ViaPoint(1, 1), ViaPoint(12, 10))
        config = RouterConfig(
            budget=RouteBudget(per_connection_seconds=0.0)
        )
        result = GreedyRouter(board, config).route([conn])
        assert result.failed == [conn.conn_id]
        assert (
            result.failure_reasons[conn.conn_id] == STOP_CONNECTION
        )
        # A per-connection limit alone is not a call-level deadline stop.
        assert result.stopped_reason != STOP_DEADLINE

    def test_generous_deadline_still_completes(self):
        board, connections = _titan_problem()
        config = RouterConfig(budget=RouteBudget(deadline_seconds=600.0))
        result = GreedyRouter(board, config).route(connections)
        assert result.complete
        assert result.stopped_reason is None
        assert result.failure_reasons == {}
