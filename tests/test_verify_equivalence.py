"""Per-segment verification and bulk pin install against their references.

``run_drc`` recounts the via map into a flat array and reads channel
bounds without building a segment object per cell; ``connection_is_path``
joins each link's pieces with a union-find instead of flood-filling its
cells.  On routed boards with seeded corruptions both must report what
the per-cell references in :mod:`tests.verify_reference` report.  The
workspace's one-pass pin install must leave exactly the state drilling
each pin in turn leaves.
"""

from __future__ import annotations

import functools
import io
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.channel import Channel
from repro.channels.workspace import RoutingWorkspace
from repro.core.router import GreedyRouter
from repro.grid.coords import ViaPoint
from repro.io import load_board, load_routes, save_route_dump
from repro.stringer import Stringer
from repro.verify import run_drc
from repro.verify.connectivity import _pieces_join, connection_is_path
from repro.workloads import BoardSpec, generate_board, make_titan_board

from tests.conftest import scaled
from tests.verify_reference import (
    reference_connection_is_path,
    reference_pieces_join,
    reference_run_drc,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: Small routed boards: (via_n, signal layers, seed).
BOARDS = [(24, 2, 1), (26, 4, 2), (28, 6, 3)]

CORRUPTIONS = [
    "drop_cover",
    "extra_cover",
    "shift_segment",
    "split_segment",
    "invert_segment",
    "off_board_segment",
    "move_segment",
    "drill_free_site",
    "drill_off_board",
    "shift_piece",
    "split_piece",
    "invert_piece",
    "move_piece",
    "drop_junction_via",
]


@functools.lru_cache(maxsize=None)
def _routed(index):
    via_n, layers, seed = BOARDS[index]
    board = generate_board(
        BoardSpec(via_nx=via_n, via_ny=via_n, n_signal_layers=layers, seed=seed)
    )
    connections = Stringer(board).string_all()
    router = GreedyRouter(board)
    router.route(connections)
    dump = io.StringIO()
    save_route_dump(router.workspace, dump)
    return board, connections, dump.getvalue()


def _fresh(index):
    """A new workspace holding board ``index``'s routes."""
    board, connections, text = _routed(index)
    workspace = RoutingWorkspace(board)
    load_routes(workspace, io.StringIO(text))
    return board, connections, workspace


def _raw_insert(channel, lo, hi, owner):
    """Put a segment into a channel's arrays, bypassing every check."""
    k = bisect_left(channel._los, lo)
    channel._los.insert(k, lo)
    channel._his.insert(k, hi)
    channel._owners.insert(k, owner)


def _raw_pop(channel, k):
    return (
        channel._los.pop(k),
        channel._his.pop(k),
        channel._owners.pop(k),
    )


def _corrupt(data, workspace, kind):
    """Apply one drawn corruption of ``kind`` to the workspace."""
    via_map, grid = workspace.via_map, workspace.grid
    if kind in ("drop_cover", "extra_cover"):
        sites = list(via_map.covered_sites())
        if kind == "drop_cover" and sites:
            via_map.remove_cover(data.draw(st.sampled_from(sites)), owner=0)
        else:
            site = ViaPoint(
                data.draw(st.integers(0, grid.via_nx - 1)),
                data.draw(st.integers(0, grid.via_ny - 1)),
            )
            via_map.add_cover(site, owner=data.draw(st.integers(-3, 3)))
        return
    if kind.endswith("_segment"):
        layer = data.draw(st.sampled_from(workspace.layers))
        used = [c for c in layer.channels if len(c)]
        channel = data.draw(st.sampled_from(used))
        lo, hi, owner = _raw_pop(
            channel, data.draw(st.integers(0, len(channel) - 1))
        )
        if kind == "shift_segment":
            d = data.draw(st.integers(-4, 4))
            _raw_insert(channel, lo + d, hi + d, owner)
        elif kind == "split_segment":
            cut = data.draw(st.integers(min(lo, hi), max(lo, hi)))
            gap = data.draw(st.integers(0, 2))
            _raw_insert(channel, lo, cut, owner)
            if cut + gap + 1 <= hi:
                _raw_insert(channel, cut + gap + 1, hi, owner)
        elif kind == "invert_segment":
            _raw_insert(channel, hi + 1, lo, owner)
        elif kind == "off_board_segment":
            # Sticks out past either end, possibly with whole via steps.
            # The popped segment may be one an earlier corruption
            # inverted, so its span is |hi - lo|.
            g = workspace.grid.grid_per_via
            span = abs(hi - lo)
            start = data.draw(
                st.one_of(
                    st.integers(-2 * g - span, -1),
                    st.integers(
                        layer.channel_length - span,
                        layer.channel_length + 2 * g,
                    ),
                )
            )
            _raw_insert(channel, start, start + hi - lo, owner)
        else:
            other = data.draw(st.sampled_from(layer.channels))
            _raw_insert(other, lo, hi, owner)
        return
    if kind in ("drill_free_site", "drill_off_board"):
        if kind == "drill_free_site":
            site = ViaPoint(
                data.draw(st.integers(0, grid.via_nx - 1)),
                data.draw(st.integers(0, grid.via_ny - 1)),
            )
        else:
            site = ViaPoint(grid.via_nx + data.draw(st.integers(0, 3)), -1)
        if not via_map.is_drilled(site):
            via_map.drill(site, data.draw(st.integers(-3, 3)))
        return
    records = [r for r in workspace.records.values() if r.links]
    if not records:
        return
    record = data.draw(st.sampled_from(records))
    if kind == "drop_junction_via":
        drilled = [v for v in record.vias if via_map.is_drilled(v)]
        if drilled:
            via_map.undrill(data.draw(st.sampled_from(drilled)), record.conn_id)
        return
    link = data.draw(st.sampled_from(record.links))
    k = data.draw(st.integers(0, len(link.pieces) - 1))
    c, lo, hi = link.pieces[k]
    if kind == "shift_piece":
        d = data.draw(st.integers(-3, 3))
        link.pieces[k] = (c, lo + d, hi + d)
    elif kind == "split_piece":
        cut = data.draw(st.integers(min(lo, hi), max(lo, hi)))
        gap = data.draw(st.integers(0, 2))
        link.pieces[k : k + 1] = [(c, lo, cut), (c, cut + gap + 1, hi)]
    elif kind == "invert_piece":
        link.pieces[k] = (c, hi + 1, lo)
    else:
        link.pieces[k] = (c + data.draw(st.sampled_from([-2, -1, 1, 2])), lo, hi)


@settings(max_examples=scaled(150), deadline=None)
@given(
    index=st.integers(0, len(BOARDS) - 1),
    kinds=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3),
    data=st.data(),
)
def test_checks_match_the_per_cell_references(index, kinds, data):
    board, connections, workspace = _fresh(index)
    for kind in kinds:
        _corrupt(data, workspace, kind)
    assert (
        run_drc(board, workspace).violations
        == reference_run_drc(board, workspace).violations
    )
    for conn in connections:
        record = workspace.records.get(conn.conn_id)
        if record is not None:
            assert connection_is_path(
                workspace, conn, record
            ) == reference_connection_is_path(workspace, conn, record)


@st.composite
def _pieces(draw):
    piece = st.tuples(st.integers(0, 4), st.integers(0, 10), st.integers(0, 10))
    cell = st.tuples(st.integers(0, 4), st.integers(0, 10))
    return draw(st.lists(piece, max_size=8)), draw(cell), draw(cell)


@settings(max_examples=scaled(300), deadline=None)
@given(case=_pieces())
def test_piece_union_find_matches_the_cell_flood_fill(case):
    # Random pieces, inverted ones (lo > hi) included.
    pieces, a, b = case
    assert _pieces_join(pieces, a, b) == reference_pieces_join(pieces, a, b)


def test_an_inverted_piece_bridges_nothing():
    # Channels 0 and 2 are not adjacent; the inverted piece between
    # them covers no cells.
    pieces = [(0, 2, 8), (1, 8, 2), (2, 2, 8)]
    assert not _pieces_join(pieces, (0, 5), (2, 5))
    assert _pieces_join(pieces + [(1, 5, 5)], (0, 5), (2, 5))


def test_references_see_the_corruptions():
    # The property above compares verdicts; make sure it compares some
    # failing ones too.
    board, connections, workspace = _fresh(1)
    record = next(r for r in workspace.records.values() if len(r.links) > 1)
    conn = next(c for c in connections if c.conn_id == record.conn_id)
    c, lo, hi = record.links[0].pieces[0]
    record.links[0].pieces[0] = (c + 2, lo, hi)
    workspace.via_map.add_cover(ViaPoint(0, 0), owner=3)
    assert not connection_is_path(workspace, conn, record)
    assert not reference_connection_is_path(workspace, conn, record)
    rules = [v.rule for v in run_drc(board, workspace).errors]
    assert rules == ["via-map-count"]


def _pin_board(kind, arg):
    """A board whose pins get installed both ways."""
    if kind == "titan":
        config, scale, seed = arg
        return make_titan_board(config, scale=scale, seed=seed)
    if kind == "generated":
        via_n, layers, seed = arg
        return generate_board(
            BoardSpec(
                via_nx=via_n, via_ny=via_n + 3, n_signal_layers=layers, seed=seed
            )
        )
    return load_board(FIXTURES / arg).board


@pytest.mark.parametrize(
    "kind, arg",
    [("titan", ("tna", 0.30, 1)), ("titan", ("kdj11_2l", 0.30, 2))]
    + [("generated", spec) for spec in BOARDS]
    + [("kicad", "charlie_th.kicad_pcb")],
)
def test_bulk_pin_install_equals_drilling_each_pin(kind, arg):
    board = _pin_board(kind, arg)
    bulk = RoutingWorkspace(board)
    each = RoutingWorkspace(board, install_pins=False)
    for pin in board.pins:
        each.drill_via(pin.position, pin.owner_token)
    assert bulk.canonical_state() == each.canonical_state()
    assert [
        [list(channel.spans()) for channel in layer.channels]
        for layer in bulk.layers
    ] == [
        [list(channel.spans()) for channel in layer.channels]
        for layer in each.layers
    ]
    a, b = bulk.via_map, each.via_map
    assert a.cover_counts() == b.cover_counts()
    sites = list(board.grid.iter_via_sites())
    assert [a.sole_owner(s) for s in sites] == [b.sole_owner(s) for s in sites]
    assert list(a.drilled_sites().items()) == list(b.drilled_sites().items())
    assert a.update_count == b.update_count


def test_load_units_equals_one_add_per_cell():
    cells, owners = [0, 3, 4, 9], [-1, -2, -3, -1]
    bulk, each = Channel(), Channel()
    bulk.load_units(cells, owners)
    for cell, owner in sorted(zip(cells, owners), key=lambda p: -p[0]):
        each.add(cell, cell, owner)
    assert list(bulk.spans()) == list(each.spans())
    bulk.check_invariants()
    with pytest.raises(ValueError):
        bulk.load_units([12], [-1])
