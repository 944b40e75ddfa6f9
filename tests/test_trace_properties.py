"""Property-based tests of Trace against a brute-force reference.

The claim behind Section 7.1's free-space search: a rectilinear path
between two points exists inside the box exactly when the gap graph
connects them.  The reference is a BFS over free cells; Trace must agree
on *existence* for every random obstacle field, and any path it returns
must lie on free cells, stay in the box, and be connected.
"""

from __future__ import annotations

from collections import deque
from typing import Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board.board import Board
from repro.channels.channel import ChannelConflictError
from repro.channels.workspace import RoutingWorkspace
from repro.core.single_layer import trace
from repro.grid.coords import GridPoint

from tests.conftest import scaled
from tests.helpers import vias_in_box

VIA_N = 6  # 16x16 routing grid


def _workspace():
    board = Board.create(via_nx=VIA_N, via_ny=VIA_N, n_signal_layers=2)
    return board, RoutingWorkspace(board)


segment_strategy = st.tuples(
    st.integers(0, 1),        # layer
    st.integers(0, 15),       # channel
    st.integers(0, 15),       # lo
    st.integers(1, 6),        # length
    st.integers(1, 5),        # owner
)


def _install(ws, segments) -> None:
    for layer_index, channel, lo, length, owner in segments:
        hi = min(lo + length - 1, ws.layers[layer_index].channel_length - 1)
        try:
            ws.add_segment(layer_index, channel, lo, hi, owner)
        except ChannelConflictError:
            pass


def _free_cells(ws, layer_index) -> Set[Tuple[int, int]]:
    layer = ws.layers[layer_index]
    cells = set()
    for gx in range(ws.grid.nx):
        for gy in range(ws.grid.ny):
            if layer.is_point_free(GridPoint(gx, gy)):
                cells.add((gx, gy))
    return cells


def _bfs_reachable(cells, start) -> Set[Tuple[int, int]]:
    if start not in cells:
        return set()
    seen = {start}
    frontier = deque([start])
    while frontier:
        x, y = frontier.popleft()
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@given(
    st.lists(segment_strategy, min_size=0, max_size=25),
    st.integers(0, 15), st.integers(0, 15),
    st.integers(0, 15), st.integers(0, 15),
    st.integers(0, 1),
)
@settings(max_examples=scaled(120), deadline=None)
def test_trace_agrees_with_cell_bfs(segments, ax, ay, bx, by, layer_index):
    board, ws = _workspace()
    _install(ws, segments)
    layer = ws.layers[layer_index]
    a, b = GridPoint(ax, ay), GridPoint(bx, by)
    box = ws.grid.bounds
    pieces = trace(layer, a, b, box)
    cells = _free_cells(ws, layer_index)
    reachable = _bfs_reachable(cells, (ax, ay))
    expected = (bx, by) in reachable
    assert (pieces is not None) == expected
    if pieces is None:
        return
    # Any returned path must lie on free cells inside the box...
    path_cells = set()
    for channel, lo, hi in pieces:
        assert 0 <= channel < layer.n_channels
        assert 0 <= lo <= hi < layer.channel_length
        for coord in range(lo, hi + 1):
            point = layer.cc_point(channel, coord)
            assert (point.gx, point.gy) in cells
            path_cells.add((point.gx, point.gy))
    # ...contain both endpoints, and be connected.
    assert (ax, ay) in path_cells and (bx, by) in path_cells
    assert (bx, by) in _bfs_reachable(path_cells, (ax, ay))


@given(
    st.lists(segment_strategy, min_size=0, max_size=25),
    st.integers(0, VIA_N - 1), st.integers(0, VIA_N - 1),
    st.integers(0, 2),
)
@settings(max_examples=scaled(80), deadline=None)
def test_vias_agree_with_cell_bfs(segments, avx, avy, radius):
    """Every via Vias() reports must be BFS-reachable in the strip, and
    every free BFS-reachable via site in the strip must be reported."""
    board, ws = _workspace()
    _install(ws, segments)
    layer = ws.layers[0]
    from repro.grid.coords import ViaPoint

    via = ViaPoint(avx, avy)
    a = ws.grid.via_to_grid(via)
    if not layer.is_point_free(a):
        return  # start buried; covered by other tests
    box = ws.grid.via_strip(via, radius, "x")
    found = set(vias_in_box(layer, a, box, frozenset(), ws.via_map))
    cells = _free_cells(ws, 0)
    strip_cells = {
        (x, y)
        for (x, y) in cells
        if box.x_lo <= x <= box.x_hi and box.y_lo <= y <= box.y_hi
    }
    reachable = _bfs_reachable(strip_cells, (a.gx, a.gy))
    expected = set()
    for v in ws.grid.iter_via_sites():
        if v == via:
            continue
        g = ws.grid.via_to_grid(v)
        if (g.gx, g.gy) in reachable and ws.via_map.is_available(v):
            expected.add(v)
    assert found == expected
