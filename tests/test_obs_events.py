"""The routing event stream: event shapes, sinks, and router emission."""

from __future__ import annotations

import io
import json

import pytest

from repro.channels.workspace import RoutingWorkspace
from repro.core.router import GreedyRouter, RouterConfig
from repro.grid.coords import ViaPoint
from repro.obs import (
    NULL_SINK,
    ConnectionRouted,
    JsonlSink,
    LeeExhausted,
    NullSink,
    PassStart,
    RingBufferSink,
    RipUpVictims,
    StrategyAttempt,
)


class TestEventShapes:
    def test_to_dict_is_flat_and_tagged(self):
        event = PassStart(3, 17)
        assert event.to_dict() == {
            "event": "pass_start",
            "index": 3,
            "pending": 17,
        }

    def test_via_points_flatten_to_lists(self):
        event = LeeExhausted(
            9, "a", "wavefront exhausted", 120,
            ViaPoint(4, 5), ViaPoint(6, 7),
        )
        d = event.to_dict()
        assert d["best_a"] == [4, 5]
        assert d["best_b"] == [6, 7]
        json.dumps(d)  # must be serializable as-is

    def test_victim_tuples_flatten(self):
        event = RipUpVictims(1, ViaPoint(2, 3), 2, (4, 9), attempt=1)
        d = event.to_dict()
        assert d["victims"] == [4, 9]
        assert d["point"] == [2, 3]

    def test_events_are_frozen(self):
        event = StrategyAttempt(1, "lee", True)
        with pytest.raises(AttributeError):
            event.routed = False

    def test_kinds_are_unique(self):
        from repro.obs import events as mod

        kinds = [
            cls.kind
            for cls in vars(mod).values()
            if isinstance(cls, type)
            and issubclass(cls, mod.RouteEvent)
            and cls is not mod.RouteEvent
        ]
        assert len(kinds) == len(set(kinds))


class TestSinks:
    def test_null_sink_is_disabled(self):
        assert NULL_SINK.enabled is False
        assert isinstance(NULL_SINK, NullSink)

    def test_ring_buffer_orders_and_filters(self):
        sink = RingBufferSink()
        sink.emit(PassStart(1, 5))
        sink.emit(StrategyAttempt(0, "zero_via", True))
        sink.emit(PassStart(2, 1))
        assert len(sink) == 3
        assert [e.kind for e in sink] == ["pass_start", "strategy", "pass_start"]
        assert [e.index for e in sink.by_kind("pass_start")] == [1, 2]

    def test_ring_buffer_bounded(self):
        sink = RingBufferSink(capacity=2)
        for i in range(5):
            sink.emit(PassStart(i, 0))
        assert [e.index for e in sink] == [3, 4]

    def test_jsonl_sink_writes_one_object_per_line(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit(PassStart(1, 9))
        sink.emit(ConnectionRouted(4, "lee", 1, 2, 30))
        sink.close()
        lines = buf.getvalue().splitlines()
        assert sink.emitted == 2
        assert json.loads(lines[0]) == {
            "event": "pass_start", "index": 1, "pending": 9,
        }
        assert json.loads(lines[1])["strategy"] == "lee"

    def test_jsonl_sink_owns_file_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.emit(PassStart(1, 1))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [{"event": "pass_start", "index": 1, "pending": 1}]

    def test_jsonl_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()

    def test_jsonl_emit_after_close_raises(self, tmp_path):
        # A real error, not a bare assert: the check must survive -O,
        # because a closed trace silently eating events is data loss.
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.emit(PassStart(1, 1))
        sink.close()
        with pytest.raises(RuntimeError, match="closed"):
            sink.emit(PassStart(2, 1))
        assert sink.emitted == 1

    def test_jsonl_concurrent_close_closes_stream_once(self, tmp_path):
        import threading

        closes = []

        class CountingIO(io.StringIO):
            def close(self):
                closes.append(1)
                super().close()

        sink = JsonlSink(CountingIO())
        sink._owns_stream = True  # exercise the owning-close path
        sink.emit(PassStart(1, 1))
        barrier = threading.Barrier(8)

        def slam():
            barrier.wait()
            sink.close()

        threads = [threading.Thread(target=slam) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert closes == [1]


class TestRouterEmission:
    def test_default_router_uses_null_sink(self, two_pin_board):
        board, conn = two_pin_board
        router = GreedyRouter(board)
        assert router.sink is NULL_SINK
        result = router.route([conn])
        assert result.complete

    def test_route_emits_pass_and_outcome_events(self, two_pin_board):
        board, conn = two_pin_board
        sink = RingBufferSink()
        # audit=False pins the event sequence even under GRR_AUDIT=1
        # (auditing appends an "audit" event after each pass_end).
        router = GreedyRouter(
            board, RouterConfig(audit=False), RoutingWorkspace(board),
            sink=sink,
        )
        result = router.route([conn])
        assert result.complete
        kinds = [e.kind for e in sink]
        # The run opens with the first pass.
        assert kinds[0] == "pass_start"
        # The run closes with the free-gap traffic summary, right after
        # the final pass_end.
        assert kinds[-1] == "cache_stats"
        assert kinds[-2] == "pass_end"
        assert "strategy" in kinds
        stats = sink.by_kind("cache_stats")[0]
        assert stats.hits + stats.misses > 0
        routed = sink.by_kind("routed")
        assert len(routed) == 1
        assert routed[0].conn_id == conn.conn_id
        assert routed[0].wire_length > 0

    def test_trace_round_trips_through_jsonl(self, two_pin_board):
        board, conn = two_pin_board
        buf = io.StringIO()
        sink = JsonlSink(buf)
        GreedyRouter(
            board, RouterConfig(), RoutingWorkspace(board), sink=sink
        ).route([conn])
        sink.close()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert records, "trace must not be empty"
        assert all("event" in r for r in records)
        assert records[0]["event"] == "pass_start"
