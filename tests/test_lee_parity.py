"""Parity of the Lee search, Trace and Obstructions against references.

:func:`repro.core.lee.lee_route` keys its wavefronts by flat via index
and walks gap views shared across its calls; ``trace`` and
``obstructions`` walk the same kind of view clamped to their box.  ``tests/lee_reference.py`` keeps the
``ViaPoint``-keyed search and the box-clipped walks they replaced.  Every
``LeeSearchResult`` field, the installed routes and the via map's
``probe_count`` must match exactly, and so must whole routed boards with
the references patched in.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.optimal as optimal_module
import repro.core.ripup as ripup_module
import repro.core.router as router_module
from repro.core import lee
from repro.core.cost import COST_FUNCTIONS
from repro.core.router import RouterConfig, make_router
from repro.core.single_layer import SearchStats, obstructions, trace
from repro.channels.workspace import RoutingWorkspace
from repro.grid.coords import manhattan
from repro.grid.geometry import Box
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests import lee_reference
from tests.conftest import scaled
from tests.test_lee_internals import _build_lee_problem, _passable, lee_problem
from tests.test_fastpath import (
    GRID_NX,
    GRID_NY,
    _populated_workspace,
    grid_point,
    search_box,
    ws_segment,
)


def _skewed_cost(conn):
    """A position-dependent cost in the manner of length tuning's
    ``delay_cost``: the estimated path length against a target length.
    It reads the neighbor's fields, which a ``ViaPoint`` has."""

    def cost(n, target, hops):
        source = conn.a if target == conn.b else conn.b
        length = manhattan(source, n) + manhattan(n, target)
        return abs(length - 9) * hops + 0.25 * n.vx

    return cost


@st.composite
def parity_problem(draw):
    """A Lee problem whose connections also own segments of their own."""
    problem = draw(lee_problem())
    problem["cost"] = draw(st.sampled_from(sorted(COST_FUNCTIONS) + ["skewed"]))
    # (connection, layer, channel, lo, length): a segment the connection
    # owns before it is searched, so passable owners hold segments.
    problem["own"] = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 3),
                st.integers(0, 60),
                st.integers(0, 60),
                st.integers(0, 12),
            ),
            max_size=8,
        )
    )
    return problem


def _build(problem):
    ws, connections = _build_lee_problem(problem)
    for index, layer_index, channel, lo, length in problem["own"]:
        conn = connections[index % len(connections)]
        layer_index %= problem["layers"]
        layer = ws.layers[layer_index]
        channel %= layer.n_channels
        lo %= layer.channel_length
        hi = min(lo + length, layer.channel_length - 1)
        for glo, ghi in layer.channel(channel).free_gaps(lo, hi):
            ws.add_segment(layer_index, channel, glo, ghi, conn.conn_id)
    return ws, connections


def _route_all(problem, search):
    """Search every connection in order (routes install as they go);
    per search the result and the via map's probe delta."""
    ws, connections = _build(problem)
    out = []
    for conn in connections:
        cost = problem["cost"]
        cost_fn = _skewed_cost(conn) if cost == "skewed" else COST_FUNCTIONS[cost]
        probes = ws.via_map.probe_count
        result = search(
            ws,
            conn,
            radius=problem["radius"],
            passable=_passable(conn),
            cost_fn=cost_fn,
            max_expansions=problem["max_expansions"],
            max_gaps=problem["max_gaps"],
            single_front=problem["single_front"],
        )
        out.append((result, ws.via_map.probe_count - probes))
    return out, ws.state_digest()


@given(parity_problem())
@settings(max_examples=scaled(80), deadline=None)
def test_lee_route_matches_reference(problem):
    """Every field of every ``LeeSearchResult`` — routed, the record's
    segments, vias and links, expansions, marked, gaps_examined,
    cap_hits, best_points, exhausted_side, expansion_limited — and the
    probe count equal the reference search's."""
    got, digest = _route_all(problem, lee.lee_route)
    want, want_digest = _route_all(problem, lee_reference.lee_route)
    for (result, probes), (expected, expected_probes) in zip(got, want):
        assert result == expected
        assert probes == expected_probes
    assert digest == want_digest


@st.composite
def walk_box(draw, layer_index):
    """A box that cuts gaps, reaches off the board, or is degenerate."""
    kind = draw(st.sampled_from(["cut", "off", "degenerate"]))
    if kind == "cut":
        return draw(search_box(layer_index))
    if kind == "off":
        x0, y0 = draw(st.integers(-8, GRID_NX)), draw(st.integers(-8, GRID_NY))
        return Box(x0, y0, x0 + draw(st.integers(0, 30)),
                   y0 + draw(st.integers(0, 30)))
    x0, y0 = draw(st.integers(0, GRID_NX - 1)), draw(st.integers(0, GRID_NY - 1))
    # A point, a line, or inverted bounds.
    return draw(st.sampled_from([
        Box(x0, y0, x0, y0),
        Box(x0, 0, x0, GRID_NY - 1),
        Box(x0, y0, x0 - 1, y0 + 3),
    ]))


@st.composite
def walk_problem(draw):
    layer_index = draw(st.integers(0, 1))
    return {
        "segments": draw(st.lists(ws_segment, max_size=24)),
        "layer_index": layer_index,
        "a": draw(grid_point),
        "b": draw(grid_point),
        "box": draw(walk_box(layer_index)),
        "passable": draw(st.frozensets(st.integers(5, 9), max_size=2)),
        "max_gaps": draw(st.one_of(st.just(20000), st.integers(1, 6))),
    }


def _walk(call):
    stats = SearchStats()
    found = call(stats)
    return found, (stats.searches, stats.examined, stats.cap_hits)


@given(walk_problem())
@settings(max_examples=scaled(150), deadline=None)
def test_trace_and_obstructions_match_reference(problem):
    """Trace over a search's views and over its own lists, and
    Obstructions, find what the box-clipped walks find, with the same
    stats."""
    ws = _populated_workspace(problem["segments"])
    layer = ws.layers[problem["layer_index"]]
    a, b, box = problem["a"], problem["b"], problem["box"]
    passable, max_gaps = problem["passable"], problem["max_gaps"]
    expected = _walk(lambda stats: lee_reference.trace(
        layer, a, b, box, passable, max_gaps, stats
    ))
    views = [None] * layer.n_channels
    for memo in (views, None, views):
        assert _walk(lambda stats: trace(
            layer, a, b, box, passable, max_gaps, stats, views=memo
        )) == expected
    assert _walk(lambda stats: obstructions(
        layer, a, box, passable, max_gaps, stats
    )) == _walk(lambda stats: lee_reference.obstructions(
        layer, a, box, passable, max_gaps, stats
    ))


def _route_board(board, patched):
    connections = Stringer(board).string_all()
    ws = RoutingWorkspace(board)
    router = make_router(board, RouterConfig(), ws)
    with mock.patch.multiple(router_module, lee_route=(
        lee_reference.lee_route if patched else lee.lee_route
    )), mock.patch.object(optimal_module, "trace", (
        lee_reference.trace if patched else optimal_module.trace
    )), mock.patch.object(ripup_module, "obstructions", (
        lee_reference.obstructions if patched else ripup_module.obstructions
    )):
        result = router.route(connections)
    routed = ws.state_digest(), sorted(result.failed), result.lee_expansions
    return routed, result.gap_cache_misses


#: Gap lists the searches may build routing kdj11_2l 0.30 s1: each Lee
#: search builds a channel's list once for its *Vias* calls and its
#: retrace (37,282 lists), where a retrace building its own made 42,418.
MAX_GAP_LISTS = 40_000


@pytest.mark.slow
@pytest.mark.parametrize("name", ["kdj11_2l", "tna"])
def test_routed_board_matches_reference(name):
    """Whole boards route identically with the reference Lee search,
    Trace and Obstructions patched in, and the shipped searches share
    their gap lists: a work count, not a timing."""
    board = make_titan_board(name, scale=0.30, seed=1)
    routed, built = _route_board(board, patched=False)
    board = make_titan_board(name, scale=0.30, seed=1)
    assert routed == _route_board(board, patched=True)[0]
    if name == "kdj11_2l":
        assert routed[1] and routed[2] > 1000
        assert built < MAX_GAP_LISTS
