"""Unit tests for the Lee search's internal helpers."""

import contextlib
import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.router as router_module
from repro.board.board import Board
from repro.channels.channel import Channel
from repro.channels.workspace import RoutingWorkspace
from repro.core import lee
from repro.core.lee import _back_chain, _neighbors, _strip_axis, lee_route
from repro.core.router import RouterConfig, make_router
from repro.core.single_layer import SearchStats
from repro.grid.coords import ViaPoint
from repro.grid.geometry import Orientation
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests.conftest import make_connection, scaled
from tests.test_router_properties import VIA_NX, VIA_NY, build


@pytest.fixture
def ws():
    board = Board.create(via_nx=10, via_ny=8, n_signal_layers=4)
    return RoutingWorkspace(board)


class TestStripAxis:
    def test_orientation_mapping(self):
        assert _strip_axis(Orientation.HORIZONTAL) == "x"
        assert _strip_axis(Orientation.VERTICAL) == "y"


class TestNeighbors:
    def test_cross_shape(self, ws):
        """Neighbors lie in the cross of radius strips (Figure 11)."""
        via = ViaPoint(4, 4)
        found = _neighbors(ws, via, radius=1, passable=frozenset(),
                           max_gaps=20000)
        for n, layer_index in found:
            orientation = ws.layers[layer_index].orientation
            if orientation is Orientation.HORIZONTAL:
                assert abs(n.vy - 4) <= 1
            else:
                assert abs(n.vx - 4) <= 1

    def test_each_layer_contributes(self, ws):
        via = ViaPoint(4, 4)
        found = _neighbors(ws, via, radius=1, passable=frozenset(),
                           max_gaps=20000)
        layers = {layer_index for _, layer_index in found}
        assert layers == {0, 1, 2, 3}

    def test_self_not_a_neighbor(self, ws):
        via = ViaPoint(4, 4)
        found = _neighbors(ws, via, radius=1, passable=frozenset(),
                           max_gaps=20000)
        assert all(n != via for n, _ in found)

    def test_radius_zero_degenerates_to_lines(self, ws):
        via = ViaPoint(4, 4)
        found = _neighbors(ws, via, radius=0, passable=frozenset(),
                           max_gaps=20000)
        for n, layer_index in found:
            orientation = ws.layers[layer_index].orientation
            if orientation is Orientation.HORIZONTAL:
                assert n.vy == 4
            else:
                assert n.vx == 4


def _searched_layers(ws, call):
    """Run ``call()`` and list the layer indices ``reachable_vias`` ran on."""
    searched = []
    real = lee.reachable_vias

    def spy(layer, *args, **kwargs):
        searched.append(next(i for i, l in enumerate(ws.layers) if l is layer))
        return real(layer, *args, **kwargs)

    with mock.patch.object(lee, "reachable_vias", spy):
        result = call()
    return searched, result


def _passable(conn):
    """The router's passable set: the connection and its two pins."""
    return frozenset((conn.conn_id, -(conn.pin_a + 1), -(conn.pin_b + 1)))


def _neighbors_without_map(*args, strips=None, **kwargs):
    """``_neighbors`` as it runs with no strip map."""
    return _neighbors(*args, **kwargs)


class TestStripMap:
    """The per-side strip map lets a wavefront enumerate each free
    component of a radius strip once."""

    def test_same_strip_second_expansion_skips_layer(self, ws):
        strips, stats = {}, SearchStats()
        first = _neighbors(ws, ViaPoint(4, 4), 1, frozenset(), 20000,
                           stats, strips=strips)
        # (7, 4) shares (4, 4)'s row, hence its strip on the horizontal
        # layers 0 and 2, and the first expansion found it there.
        q = ViaPoint(7, 4)
        assert (q, 0) in first and (q, 2) in first
        searched, second = _searched_layers(
            ws,
            lambda: _neighbors(ws, q, 1, frozenset(), 20000, stats,
                               strips=strips),
        )
        assert searched == [1, 3]
        assert {layer for _, layer in second} == {1, 3}
        # What the skipped calls would have returned is already known.
        for n, layer in _neighbors(ws, q, 1, frozenset(), 20000):
            if layer in (0, 2):
                assert n == ViaPoint(4, 4) or (n, layer) in first

    def test_other_component_of_the_strip_is_searched(self, ws):
        # Radius 0: the strip of via row 4 on layer 0 is one channel, and
        # a segment between via columns 4 and 5 cuts it in two.
        grid = ws.grid
        channel = grid.via_to_grid(ViaPoint(0, 4)).gy
        ws.add_segment(0, channel, grid.via_to_grid(ViaPoint(4, 4)).gx + 1,
                       grid.via_to_grid(ViaPoint(5, 4)).gx - 1, 99)
        strips, stats = {}, SearchStats()
        first = _neighbors(ws, ViaPoint(2, 4), 0, frozenset(), 20000,
                           stats, strips=strips)
        assert (ViaPoint(4, 4), 0) in first
        assert (ViaPoint(5, 4), 0) not in first
        searched, second = _searched_layers(
            ws,
            lambda: _neighbors(ws, ViaPoint(8, 4), 0, frozenset(), 20000,
                               stats, strips=strips),
        )
        # Layer 2 is not cut, so (8, 4) shares (2, 4)'s component there.
        assert searched == [0, 1, 3]
        assert (ViaPoint(5, 4), 0) in second

    def test_capped_search_is_never_recorded(self, ws):
        strips, stats = {}, SearchStats()
        found = _neighbors(ws, ViaPoint(4, 4), 1, frozenset(), 1, stats,
                           strips=strips)
        assert found and stats.cap_hits == len(ws.layers)
        assert strips == {}
        searched, _ = _searched_layers(
            ws,
            lambda: _neighbors(ws, ViaPoint(7, 4), 1, frozenset(), 1,
                               stats, strips=strips),
        )
        assert searched == [0, 1, 2, 3]

    def test_sides_never_share_entries(self, ws):
        conn = make_connection(ws.board, ViaPoint(1, 1), ViaPoint(8, 6))
        ws = RoutingWorkspace(ws.board)
        calls = []

        def spy(workspace, via, *args, strips=None, **kwargs):
            found = _neighbors(workspace, via, *args, strips=strips, **kwargs)
            calls.append((via, strips, found))
            return found

        with mock.patch.object(lee, "_neighbors", spy):
            lee_route(ws, conn, radius=0, passable=_passable(conn))
        assert calls[0][0] == conn.a and calls[1][0] == conn.b
        assert len({id(strips) for _, strips, _ in calls}) == 2
        # Every via a map's calls expand came from that map's own
        # wavefront: its source or a site one of its calls returned.
        owned = {}
        for via, strips, found in calls:
            seen = owned.setdefault(id(strips), {via})
            assert via in seen
            seen.update(n for n, _ in found)
            for sites in strips.values():
                assert sites <= seen

    def test_without_map_every_call_searches_every_layer(self, ws):
        via = ViaPoint(4, 4)
        for _ in range(2):
            searched, found = _searched_layers(
                ws, lambda: _neighbors(ws, via, 1, frozenset(), 20000)
            )
            assert searched == [0, 1, 2, 3]
            assert {layer for _, layer in found} == {0, 1, 2, 3}


def _lee_results(route):
    """Run ``route()`` and collect every LeeSearchResult it produced."""
    results = []
    real = router_module.lee_route

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    with mock.patch.object(router_module, "lee_route", spy):
        route()
    return results


def _assert_exact(with_map, without_map):
    """Same searches, except that the map only ever saves gap pops."""
    assert len(with_map) == len(without_map)
    for fast, slow in zip(with_map, without_map):
        assert fast.gaps_examined <= slow.gaps_examined
        assert dataclasses.replace(fast, gaps_examined=0) == (
            dataclasses.replace(slow, gaps_examined=0)
        )


@st.composite
def lee_problem(draw):
    """Pins, foreign obstacles and search knobs on a small board."""
    n_conns = draw(st.integers(1, 5))
    pins = draw(
        st.lists(
            st.tuples(
                st.integers(0, VIA_NX - 1), st.integers(0, VIA_NY - 1)
            ),
            min_size=2 * n_conns,
            max_size=2 * n_conns,
            unique=True,
        )
    )
    # (layer, channel, lo, length, wall): a segment over [lo, lo +
    # length], or with ``wall`` the whole channel but a 3-point hole at lo.
    obstacles = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 60),
                st.integers(0, 60),
                st.integers(0, 25),
                st.booleans(),
            ),
            max_size=24,
        )
    )
    return {
        "pins": pins,
        "obstacles": obstacles,
        "layers": draw(st.sampled_from([2, 4])),
        "radius": draw(st.integers(0, 2)),
        "max_gaps": draw(st.one_of(st.just(20000), st.integers(1, 12))),
        "max_expansions": draw(st.one_of(st.just(4000), st.integers(0, 8))),
        "single_front": draw(st.booleans()),
    }


def _build_lee_problem(problem):
    board, connections = build(problem["pins"], problem["layers"])
    ws = RoutingWorkspace(board)
    for owner, (layer_index, channel, lo, length, wall) in enumerate(
        problem["obstacles"], start=100
    ):
        layer_index %= problem["layers"]
        layer = ws.layers[layer_index]
        channel %= layer.n_channels
        end = layer.channel_length - 1
        lo %= layer.channel_length
        spans = [(0, lo - 1), (lo + 3, end)] if wall else [(lo, lo + length)]
        # Cover only free space, so pins and earlier obstacles stay put.
        for glo, ghi in layer.channel(channel).free_gaps(0, end):
            for span_lo, span_hi in spans:
                piece_lo, piece_hi = max(glo, span_lo), min(ghi, span_hi)
                if piece_lo <= piece_hi:
                    ws.add_segment(
                        layer_index, channel, piece_lo, piece_hi, owner
                    )
    return ws, connections


class TestStripMapExactness:
    """Skipping a known strip component changes no search result."""

    @given(lee_problem())
    @settings(max_examples=scaled(60), deadline=None)
    def test_random_boards(self, problem):
        def run():
            ws, connections = _build_lee_problem(problem)
            results = [
                lee_route(
                    ws,
                    conn,
                    radius=problem["radius"],
                    passable=_passable(conn),
                    max_gaps=problem["max_gaps"],
                    max_expansions=problem["max_expansions"],
                    single_front=problem["single_front"],
                )
                for conn in connections
            ]
            return results, ws.state_digest()

        with_map, digest = run()
        with mock.patch.object(lee, "_neighbors", _neighbors_without_map):
            without_map, digest_without = run()
        _assert_exact(with_map, without_map)
        assert digest == digest_without

    @pytest.mark.slow
    def test_kdj11_2l(self):
        board = make_titan_board("kdj11_2l", scale=0.30, seed=1)
        connections = Stringer(board).string_all()
        runs = {}
        for use_map in (True, False):
            ws = RoutingWorkspace(board)
            router = make_router(board, RouterConfig(), ws)
            with contextlib.ExitStack() as stack:
                if not use_map:
                    stack.enter_context(mock.patch.object(
                        lee, "_neighbors", _neighbors_without_map
                    ))
                results = _lee_results(lambda: router.route(connections))
            runs[use_map] = (results, ws.state_digest())
        (with_map, digest), (without_map, digest_without) = (
            runs[True], runs[False]
        )
        _assert_exact(with_map, without_map)
        assert digest == digest_without
        # The skips fired: this board re-enumerates known components.
        assert sum(r.gaps_examined for r in with_map) < sum(
            r.gaps_examined for r in without_map
        )


class TestGapViews:
    """One Lee search builds each channel's full-span gap list once, and
    its retrace, which installs segments, builds its own lists."""

    # One search remains; the parameter keeps the test's id stable.
    @pytest.mark.parametrize("search", ["classic"])
    def test_search_builds_each_gap_list_once(self, search):
        board = make_titan_board("kdj11_2l", scale=0.30, seed=1)
        connections = Stringer(board).string_all()
        ws = RoutingWorkspace(board)
        # Zero- and one-via routes first, so the Lee search below runs on
        # a congested board and expands many vias.
        pending = make_router(
            board, RouterConfig(enable_lee=False, enable_ripup=False), ws
        ).route(connections).failed
        conn = next(c for c in connections if c.conn_id in pending)
        passable = _passable(conn)
        where = {
            id(channel): (layer_index, channel_index)
            for layer_index, layer in enumerate(ws.layers)
            for channel_index, channel in enumerate(layer.channels)
        }
        builds = []  # ((layer, channel), lo, hi, inside _retrace)
        retracing = []
        real_free_gaps = Channel.free_gaps
        real_retrace = lee._retrace

        def spy_free_gaps(channel, lo, hi, passable=frozenset()):
            builds.append((where[id(channel)], lo, hi, bool(retracing)))
            return real_free_gaps(channel, lo, hi, passable)

        def spy_retrace(*args, **kwargs):
            retracing.append(True)
            try:
                return real_retrace(*args, **kwargs)
            finally:
                retracing.pop()

        hits_before = ws.gap_cache_stats()[0]
        with mock.patch.object(Channel, "free_gaps", spy_free_gaps), \
                mock.patch.object(lee, "_retrace", spy_retrace):
            result = lee_route(ws, conn, passable=passable)
        assert result.routed and result.expansions > 1
        searched = [key for key, _, _, retrace in builds if not retrace]
        for key, lo, hi, retrace in builds:
            if not retrace:
                # Outside the retrace only the Vias views build lists.
                assert (lo, hi) == (0, ws.layers[key[0]].channel_length - 1)
        assert searched
        assert len(searched) == len(set(searched))
        # Later Vias calls of the search read lists earlier ones built.
        assert ws.gap_cache_stats()[0] > hits_before
        # The retrace rebuilds lists of channels the search had viewed.
        assert {key for key, _, _, retrace in builds if retrace} & set(
            searched
        )


class TestBackChain:
    def test_chain_order_source_first(self):
        marks = {
            ViaPoint(0, 0): (0, None, None),
            ViaPoint(3, 0): (1, ViaPoint(0, 0), 1),
            ViaPoint(3, 5): (2, ViaPoint(3, 0), 0),
        }
        chain = _back_chain(marks, ViaPoint(3, 5), "a")
        assert [v for v, _ in chain] == [
            ViaPoint(0, 0), ViaPoint(3, 0), ViaPoint(3, 5)
        ]
        assert [layer for _, layer in chain] == [None, 1, 0]

    def test_single_node(self):
        marks = {ViaPoint(2, 2): (0, None, None)}
        assert _back_chain(marks, ViaPoint(2, 2), "a") == [
            (ViaPoint(2, 2), None)
        ]

    def test_missing_mark_is_diagnosable(self):
        """A corrupted parent chain must name the via, side and table size."""
        # The mark's parent (3, 0) is absent from the table.
        marks = {ViaPoint(3, 5): (2, ViaPoint(3, 0), 0)}
        with pytest.raises(
            RuntimeError,
            match=r"b-side wavefront at ViaPoint\(vx=3, vy=0\): "
                  r"no mark among 1",
        ):
            _back_chain(marks, ViaPoint(3, 5), "b")


class TestGapCapReasonSuffix:
    """The "(gap cap)" reason suffix must be present iff ``cap_hits > 0``.

    ``failure_reasons`` surfaced through ``repro.api`` and serve key on
    the suffix to tell truncations from proven blockages, so it must
    track ``cap_hits`` exactly for *every* blocked reason — wavefront
    exhaustion, the expansion limit, and budget exhaustion alike.
    """

    def _conn(self, ws):
        from tests.conftest import make_connection

        return make_connection(ws.board, ViaPoint(2, 2), ViaPoint(7, 5))

    @pytest.mark.parametrize(
        "max_gaps,max_expansions",
        [(1, 4000), (1, 1), (20000, 0), (20000, 1), (2, 2)],
    )
    def test_suffix_iff_cap_hits(self, ws, max_gaps, max_expansions):
        search = lee_route(
            ws,
            self._conn(ws),
            max_gaps=max_gaps,
            max_expansions=max_expansions,
        )
        if search.blocked:
            assert search.reason.endswith(" (gap cap)") == (
                search.cap_hits > 0
            )

    def test_expansion_limit_gets_suffix_when_capped(self, ws):
        # max_gaps=1 truncates every single-layer search past its first
        # gap; max_expansions=1 then stops the wavefront after one
        # expansion.  Both truncations are real, and the reason must
        # carry the cap suffix so the failure is not read as proven.
        search = lee_route(ws, self._conn(ws), max_gaps=1, max_expansions=1)
        assert not search.routed
        assert search.blocked
        assert search.cap_hits > 0
        assert search.reason == "expansion limit (gap cap)"

    def test_clean_expansion_limit_has_no_suffix(self, ws):
        search = lee_route(
            ws, self._conn(ws), max_gaps=20000, max_expansions=0
        )
        assert search.blocked
        assert search.cap_hits == 0
        assert search.reason == "expansion limit"
