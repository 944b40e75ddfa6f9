"""Free-gap plumbing of the single-layer searches.

The load-bearing property: every gap list a search reads is equal to a
fresh ``Channel.free_gaps`` recompute on the board as it stands, no
matter how adds, removes and searches interleave.  A Lee search's
full-span gap views serve one board state for the search's passable set
(nothing but its own retrace, whose segments are passable, changes the
board under it), and a call without them builds box-clipped lists of
its own.  Around that, unit tests for the views' reuse within a search,
the unified ``max_gaps`` cap signal, channel removal diagnostics, the
bisect-based ``gap_index_at`` of the box-clipped reference, and the
``gap_cache_*`` counters that report reads of a search's views served
without a build and lists built.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board.board import Board
from repro.channels.channel import Channel, ChannelConflictError
from repro.channels.workspace import RoutingWorkspace
from repro.core import lee
from repro.core.lee import lee_route
from repro.core.router import GreedyRouter, RouterConfig
from repro.core.single_layer import SearchStats, trace
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box
from repro.obs.sinks import RingBufferSink
from repro.stringer import Stringer
from repro.workloads import BoardSpec, NetlistSpec, generate_board

from tests.conftest import make_connection, scaled
from tests.helpers import vias_in_box
from tests.lee_reference import _FreeSpace
from tests.lee_reference import trace as reference_trace
from tests.vias_reference import reference_reachable_vias

#: A small two-layer board for the interleaved add/remove/search runs.
VIA_NX, VIA_NY = 6, 8


def _passable_for(conn):
    """The router's passable set: the connection and its two pins."""
    return frozenset((conn.conn_id, -(conn.pin_a + 1), -(conn.pin_b + 1)))


def _small_workspace():
    board = Board.create(via_nx=VIA_NX, via_ny=VIA_NY, n_signal_layers=2)
    return RoutingWorkspace(board)


def _assert_views_fresh(layer, views, passable):
    """Every view a search holds equals a fresh full-span recompute."""
    for c, view in enumerate(views):
        if view is not None:
            fresh = layer.channels[c].free_gaps(
                0, layer.channel_length - 1, passable
            )
            assert list(zip(*view)) == fresh, f"stale view of channel {c}"


def _new_views(ws):
    """A Lee search's views: one list per layer, indexed by channel."""
    return [[None] * layer.n_channels for layer in ws.layers]


def _search(search, ws, layer, a, box, passable, views=None):
    """One *Vias* call: (sites, stats, via-map probe delta)."""
    stats = SearchStats()
    probes = ws.via_map.probe_count
    sites = search(
        layer, a, box, passable, ws.via_map, stats=stats, views=views
    )
    return (
        sites,
        (stats.searches, stats.examined, stats.cap_hits),
        ws.via_map.probe_count - probes,
    )


ws_interval = st.tuples(
    st.integers(0, 1),       # layer
    st.integers(0, 40),      # channel (wrapped)
    st.integers(0, 40),      # lo (wrapped)
    st.integers(1, 8),       # length
    st.integers(5, 8),       # owner
)

probe = st.tuples(
    st.integers(0, 1),                                    # layer
    st.tuples(st.integers(0, 40), st.integers(0, 40)),    # start (wrapped)
    st.lists(st.integers(-2, 40), min_size=4, max_size=4),  # box corners
)

op = st.one_of(
    st.tuples(st.just("add"), ws_interval),
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("probe"), probe),
)


def _add(ws, interval):
    """Install a wrapped interval; the pieces added, with their owner."""
    layer_index, c, lo, length, owner = interval
    layer = ws.layers[layer_index]
    c %= layer.n_channels
    lo %= layer.channel_length
    hi = min(lo + length - 1, layer.channel_length - 1)
    try:
        pieces = ws.add_segment(layer_index, c, lo, hi, owner)
    except ChannelConflictError:
        return []
    return [piece + (owner,) for piece in pieces]


@given(
    st.booleans(),
    st.frozensets(st.integers(5, 8), max_size=2),
    st.lists(op, min_size=1, max_size=40),
)
@settings(max_examples=scaled(150), deadline=None)
def test_cache_reads_equal_fresh_recompute(shared, passable, ops):
    """Every gap-list read under interleaved add/remove/search sequences
    equals a fresh ``Channel.free_gaps`` recompute: the full-span views
    the *Vias* calls between two mutations share (as one Lee search's
    calls do) or the lists they build per call, and what ``trace``
    reads, whose reachability must agree with the box-clipped reference
    search."""
    ws = _small_workspace()
    nx, ny = ws.grid.nx, ws.grid.ny
    views = _new_views(ws)
    installed = []  # (layer, channel, lo, hi, owner)
    for kind, payload in ops:
        if kind == "add":
            pieces = _add(ws, payload)
            if pieces:
                installed.extend(pieces)
                # A search ends before its route goes in: new views.
                views = _new_views(ws)
        elif kind == "remove":
            if installed:
                ws.remove_segment(*installed.pop(payload % len(installed)))
                views = _new_views(ws)
        else:
            layer_index, (gx, gy), corners = payload
            layer = ws.layers[layer_index]
            a = GridPoint(gx % nx, gy % ny)
            xs, ys = sorted(corners[:2]), sorted(corners[2:])
            box = Box(xs[0], ys[0], xs[1], ys[1])
            memo = views[layer_index] if shared else None
            assert _search(
                vias_in_box, ws, layer, a, box, passable, memo
            ) == _search(reference_reachable_vias, ws, layer, a, box, passable)
            _assert_views_fresh(layer, memo or (), passable)
            # A trace to the box corner reads the same gaps and finds the
            # same pieces as the box-clipped reference.
            b = GridPoint(
                min(max(xs[1], 0), nx - 1), min(max(ys[1], 0), ny - 1)
            )
            assert trace(layer, a, b, box, passable, views=memo) == (
                reference_trace(layer, a, b, box, passable)
            )


@given(
    st.lists(ws_interval, min_size=1, max_size=25),
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
)
@settings(max_examples=scaled(100), deadline=None)
def test_disabled_cache_matches_recompute(ops, start):
    """``views=None`` skips memoization across calls but stays correct:
    every call builds its own gap lists, reads none that another call
    built, and finds what the box-clipped reference finds."""
    ws = _small_workspace()
    box = ws.grid.bounds
    a = GridPoint(start[0] % ws.grid.nx, start[1] % ws.grid.ny)
    for interval in ops:
        _add(ws, interval)
        for layer in ws.layers:
            assert _search(
                vias_in_box, ws, layer, a, box, frozenset()
            ) == _search(reference_reachable_vias, ws, layer, a, box,
                         frozenset())
    hits, built, _ = ws.gap_cache_stats()
    assert hits == 0
    assert built > 0


class TestRemoveDiagnostics:
    def test_remove_missing_names_nearest_segment(self):
        channel = Channel()
        channel.add(10, 20, owner=7)
        with pytest.raises(KeyError, match=r"\[10,20\] owned by 7"):
            channel.remove(11, 20, owner=7)

    def test_remove_wrong_owner_names_nearest(self):
        channel = Channel()
        channel.add(10, 20, owner=7)
        with pytest.raises(KeyError, match="owned by 7"):
            channel.remove(10, 20, owner=8)

    def test_remove_empty_channel(self):
        with pytest.raises(KeyError, match="channel is empty"):
            Channel().remove(0, 5, owner=1)

    def test_remove_scans_past_equal_lo(self):
        # Two segments sharing lo can only arise through removal of the
        # middle of a span; defensively synthesize it via the internals.
        channel = Channel()
        channel.add(10, 12, owner=1)
        channel.add(14, 20, owner=2)
        channel.remove(14, 20, owner=2)
        channel.add(14, 20, owner=3)
        channel.remove(14, 20, owner=3)
        channel.check_invariants()


class TestGenerations:
    """A Lee search's gap views serve one board state.

    Neither the board nor ``passable`` changes during one search, so a
    channel's full-span view, built on its first touch, serves every
    later *Vias* call of the search whatever its box; the search ends
    before its route is installed, and the next search builds afresh.
    """

    def _layer(self, ws):
        ws.add_segment(0, 4, 5, 9, owner=1)
        return ws.layers[0]

    def test_repeat_reads_hit(self, empty_workspace):
        ws = empty_workspace
        layer = self._layer(ws)
        box = Box(0, 0, 20, 20)
        a = GridPoint(0, 4)
        views = [None] * layer.n_channels
        first = vias_in_box(
            layer, a, box, frozenset(), ws.via_map, views=views
        )
        hits, built, _ = ws.gap_cache_stats()
        assert built > 0
        for _ in range(5):
            assert vias_in_box(
                layer, a, box, frozenset(), ws.via_map, views=views
            ) == first
        assert ws.gap_cache_stats()[1] == built
        assert ws.gap_cache_stats()[0] >= hits + 5

    def test_clip_derived_from_full_span_counts_as_hit(self, empty_workspace):
        ws = empty_workspace
        layer = self._layer(ws)
        a = GridPoint(3, 4)
        views = [None] * layer.n_channels
        # The whole board: every channel's full span goes into the views.
        vias_in_box(
            layer, a, ws.grid.bounds, frozenset(), ws.via_map, views=views
        )
        assert views[4] == ([0, 10], [4, layer.channel_length - 1])
        hits, built, _ = ws.gap_cache_stats()
        # Smaller boxes are served from the full spans, clamped.
        for box in (Box(2, 2, 7, 6), Box(3, 0, 20, 4), Box(0, 4, 3, 30)):
            assert _search(
                vias_in_box, ws, layer, a, box, frozenset(), views
            ) == _search(
                reference_reachable_vias, ws, layer, a, box, frozenset()
            )
        assert ws.gap_cache_stats()[1] == built
        assert ws.gap_cache_stats()[0] >= hits + 3

    def test_mutation_invalidates_cached_entry(self):
        """Routes installed between Lee searches are seen by the next
        search: at every *Vias* call of a Lee-only route, each view the
        search holds equals a fresh recompute on the board as it stands."""
        # Two layers and longer nets: rip-up passes search some
        # connections again after the board changed under them.
        board, connections = _build_problem(n_signal_layers=2,
                                            local_radius=12)
        router = GreedyRouter(
            board,
            RouterConfig(enable_zero_via=False, enable_one_via=False),
        )
        real = lee.reachable_vias
        calls = []

        def checked(layer, ca, xa, c_lo, c_hi, lo, hi, passable, via_map,
                    max_gaps, stats, budget, views):
            _assert_views_fresh(layer, views, passable)
            found = real(
                layer, ca, xa, c_lo, c_hi, lo, hi, passable, via_map,
                max_gaps, stats, budget, views,
            )
            _assert_views_fresh(layer, views, passable)
            calls.append(sum(view is not None for view in views))
            return found

        with mock.patch.object(lee, "reachable_vias", checked):
            result = router.route(connections)
        assert result.complete
        # At least one Lee search per connection, each on a board the
        # earlier ones changed, and rip-up passes after the first.
        assert len(connections) > 100
        assert len(calls) > len(connections)
        assert result.passes > 1


class TestCapSignal:
    def test_trace_cap_sets_stats(self, empty_workspace):
        ws = empty_workspace
        layer = ws.layers[0]
        # A comb of obstacles so the path needs many gap hops.
        for c in range(1, 30, 2):
            layer.channels[c].add(0, 50, owner=99)
        stats = SearchStats()
        box = Box(0, 0, ws.grid.nx - 1, ws.grid.ny - 1)
        pieces = trace(
            layer,
            GridPoint(0, 0),
            GridPoint(50, 30),
            box,
            frozenset(),
            max_gaps=1,
            stats=stats,
        )
        assert pieces is None
        assert stats.searches == 1
        assert stats.cap_hits == 1

    def test_vias_cap_sets_stats(self, empty_workspace):
        ws = empty_workspace
        stats = SearchStats()
        box = Box(0, 0, ws.grid.nx - 1, ws.grid.ny - 1)
        found = vias_in_box(
            ws.layers[0],
            GridPoint(0, 0),
            box,
            frozenset(),
            ws.via_map,
            max_gaps=1,
            stats=stats,
        )
        assert stats.cap_hits == 1
        assert len(found) <= ws.grid.via_nx  # truncated after one gap

    def test_uncapped_search_reports_clean(self, empty_workspace):
        ws = empty_workspace
        stats = SearchStats()
        box = Box(0, 0, 20, 20)
        # Crossing channels forces at least one gap pop (a same-gap
        # trace finds the goal before the search loop runs).
        trace(
            ws.layers[0],
            GridPoint(0, 0),
            GridPoint(10, 4),
            box,
            frozenset(),
            stats=stats,
        )
        assert stats.searches == 1
        assert stats.cap_hits == 0
        assert stats.examined >= 1

    def test_lee_routed_under_cap_emits_event(self, two_pin_board):
        board, conn = two_pin_board
        ws = RoutingWorkspace(board)
        sink = RingBufferSink()
        search = lee_route(
            ws, conn, passable=_passable_for(conn), max_gaps=1, sink=sink
        )
        # The empty board routes even with truncated searches; the cap
        # hits are still surfaced on the result and in the event stream.
        assert search.routed
        assert search.cap_hits > 0
        cap_events = sink.by_kind("cap_hit")
        assert len(cap_events) == 1
        assert cap_events[0].cap_hits == search.cap_hits
        assert cap_events[0].max_gaps == 1
        assert cap_events[0].routed

    def test_lee_blocked_under_cap_says_so(self):
        from repro.board.board import Board

        board = Board.create(
            via_nx=20, via_ny=15, n_signal_layers=4, name="cap"
        )
        conn = make_connection(board, ViaPoint(3, 3), ViaPoint(15, 11))
        ws = RoutingWorkspace(board)
        # Wall pin b in on every layer (its own cell stays the pin's) so
        # its wavefront dies immediately; the a-side searches still cap
        # at max_gaps=1 on the way.
        for layer_index, layer in enumerate(ws.layers):
            c, x = layer.point_cc(ws.grid.via_to_grid(conn.b))
            ws.add_segment(layer_index, c, x - 3, x - 1, owner=99)
            ws.add_segment(layer_index, c, x + 1, x + 3, owner=99)
            for nc in (c - 1, c + 1):
                ws.add_segment(layer_index, nc, x - 3, x + 3, owner=99)
        sink = RingBufferSink()
        search = lee_route(
            ws, conn, passable=_passable_for(conn), max_gaps=1, sink=sink
        )
        assert not search.routed
        assert search.blocked
        assert search.cap_hits > 0
        assert search.reason == "wavefront exhausted (gap cap)"
        cap_events = sink.by_kind("cap_hit")
        assert len(cap_events) == 1
        assert not cap_events[0].routed
        assert sink.by_kind("lee_exhausted")[0].reason == search.reason

    def test_lee_routed_run_reports_no_caps(self, two_pin_board):
        board, conn = two_pin_board
        ws = RoutingWorkspace(board)
        search = lee_route(ws, conn, passable=_passable_for(conn))
        assert search.routed
        assert search.cap_hits == 0
        assert search.gaps_examined > 0


class TestFreeSpaceView:
    def test_gap_index_at_matches_linear_scan(self, empty_workspace):
        ws = empty_workspace
        layer = ws.layers[0]
        layer.channels[4].add(5, 9, owner=1)
        layer.channels[4].add(20, 24, owner=2)
        fs = _FreeSpace(
            layer, Box(0, 0, ws.grid.nx - 1, ws.grid.ny - 1), frozenset()
        )
        gaps = fs.gaps(4)
        for coord in range(0, layer.channel_length, 3):
            expected = None
            for i, (lo, hi) in enumerate(gaps):
                if lo <= coord <= hi:
                    expected = i
                    break
            assert fs.gap_index_at(4, coord) == expected

    def test_profile_counts_cache_traffic(self):
        # Lee routes every connection, and some of its searches expand
        # vias whose strips share channels: the later Vias calls of such
        # a search read gap lists the earlier ones built.
        board, connections = _build_problem()
        router = GreedyRouter(
            board,
            RouterConfig(enable_zero_via=False, enable_one_via=False),
        )
        result = router.route(connections)
        assert result.complete
        assert result.gap_cache_hits > 0
        assert result.gap_cache_misses > 0
        hits, built, unused = router.workspace.gap_cache_stats()
        assert (hits, built, unused) == (
            result.gap_cache_hits, result.gap_cache_misses, 0
        )


def _build_problem(seed: int = 3, n_signal_layers: int = 4,
                   local_radius: int = 6):
    spec = BoardSpec(
        name="gapcache",
        via_nx=40,
        via_ny=40,
        n_signal_layers=n_signal_layers,
        netlist=NetlistSpec(
            locality=0.9, local_radius=local_radius, seed=seed
        ),
        seed=seed,
    )
    board = generate_board(spec)
    return board, Stringer(board).string_all()


@pytest.mark.slow
def test_parallel_parity_with_cache_enabled():
    """Two routers at once from threads route exactly as a serial one,
    and the serial run actually reused its Lee searches' gap views
    (Lee routes everything: the optimal strategies are off)."""
    config = RouterConfig(enable_zero_via=False, enable_one_via=False)
    board_s, conns_s = _build_problem()
    serial = GreedyRouter(board_s, config)
    serial_result = serial.route(conns_s)
    assert serial_result.gap_cache_hits > 0

    def run(_):
        board, connections = _build_problem()
        return GreedyRouter(board, config).route(connections)

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run, range(2)))
    for result in results:
        assert (
            result.workspace.state_digest()
            == serial_result.workspace.state_digest()
        )
        assert result.failed == serial_result.failed
