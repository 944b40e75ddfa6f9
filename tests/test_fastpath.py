"""Parity of the *Vias* search against its box-clipped reference.

:func:`repro.core.single_layer.reachable_vias` walks full-span gap views
that one Lee search shares across all its calls on a layer, clamping each
gap to the box.  It must be *bit-for-bit* substitutable for the
box-clipped search it replaced (kept in ``tests/vias_reference.py``):
same sites in the same order, same :class:`SearchStats`, same truncation
points at the ``max_gaps`` cap and at budget checkpoints, same via-map
probe accounting, and so the same routes.  These tests drive both over
hypothesis-generated channel states and full-board routes and assert
exact equality — no tolerances anywhere.  ``trace``, which still walks
box-clipped lists, must agree with it on which via sites are reachable.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.board.board import Board
from repro.channels.channel import ChannelConflictError
from repro.channels.workspace import RoutingWorkspace
from repro.core import lee
from repro.core.budget import BudgetTracker, RouteBudget
from repro.core.router import GreedyRouter, RouterConfig
from repro.core.single_layer import SearchStats, reachable_vias, trace
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box
from repro.stringer import Stringer
from repro.workloads import make_titan_board

from tests.conftest import scaled
from tests.vias_reference import reference_reachable_vias


class TestLazyNumpy:
    def test_numpy_loads_with_a_numpy_backend_not_at_startup(self):
        """Neither startup nor a route imports numpy: only the viz and
        congestion helpers of the ``[fast]`` extra use it."""
        code = (
            "import sys, repro.cli, repro.serve.server, repro.eco\n"
            "print('numpy' in sys.modules)\n"
            "from repro.board.board import Board\n"
            "from repro.core.router import GreedyRouter\n"
            "board = Board.create(via_nx=4, via_ny=4, n_signal_layers=2)\n"
            "GreedyRouter(board).route([])\n"
            "print('numpy' in sys.modules)\n"
        )
        package = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.split() == ["False", "False"]


#: A tall board: a full-board box holds more than SEARCH_CHECK_MASK + 1
#: gaps, so budget checkpoints fire mid-search.
VIA_NX, VIA_NY = 10, 25


def _populated_workspace(segments):
    """Workspace with hypothesis-chosen obstructions."""
    board = Board.create(via_nx=VIA_NX, via_ny=VIA_NY, n_signal_layers=2)
    ws = RoutingWorkspace(board)
    for layer_index, channel_index, lo, hi, owner in segments:
        layer = ws.layers[layer_index]
        try:
            ws.add_segment(
                layer_index,
                channel_index % layer.n_channels,
                lo % layer.channel_length,
                hi % layer.channel_length,
                owner,
            )
        except (ChannelConflictError, ValueError):
            pass
    return ws


def _tripping_budget(checks):
    """A timed budget whose search check fails from its ``checks``-th
    call on (its clock advances one second per reading)."""
    ticks = itertools.count()
    tracker = BudgetTracker(
        RouteBudget(deadline_seconds=checks - 0.5),
        clock=lambda: next(ticks),
    )
    return tracker.hot()


ws_segment = st.tuples(
    st.integers(0, 1),       # layer
    st.integers(0, 80),      # channel (wrapped)
    st.integers(0, 80),      # lo (wrapped)
    st.integers(0, 80),      # hi (wrapped)
    st.integers(5, 9),       # owner
).map(lambda t: (t[0], t[1], min(t[2], t[3]), max(t[2], t[3]), t[4]))

_BOARD = Board.create(via_nx=VIA_NX, via_ny=VIA_NY, n_signal_layers=2)
GRID_NX, GRID_NY = _BOARD.grid.nx, _BOARD.grid.ny

grid_point = st.tuples(
    st.integers(0, GRID_NX - 1), st.integers(0, GRID_NY - 1)
).map(lambda t: GridPoint(*t))


@st.composite
def search_box(draw, layer_index):
    """A full board, a radius strip (full span along the channels), or a
    box that cuts gaps on every side."""
    kind = draw(st.sampled_from(["board", "strip", "cut"]))
    if kind == "board":
        return Box(0, 0, GRID_NX - 1, GRID_NY - 1)
    if kind == "strip":
        via = ViaPoint(
            draw(st.integers(0, VIA_NX - 1)), draw(st.integers(0, VIA_NY - 1))
        )
        orientation = _BOARD.stack.signal_layers[layer_index].orientation
        return _BOARD.grid.via_strip(
            via, draw(st.integers(0, 2)), lee._strip_axis(orientation)
        )
    xs = sorted(draw(st.lists(st.integers(-2, GRID_NX + 1), min_size=2,
                              max_size=2)))
    ys = sorted(draw(st.lists(st.integers(-2, GRID_NY + 1), min_size=2,
                              max_size=2)))
    return Box(xs[0], ys[0], xs[1], ys[1])


@st.composite
def vias_problem(draw):
    layer_index = draw(st.integers(0, 1))
    return {
        "segments": draw(st.lists(ws_segment, max_size=24)),
        "layer_index": layer_index,
        # One shared views dict serves every call of the group.
        "calls": draw(
            st.lists(
                st.tuples(grid_point, search_box(layer_index)),
                min_size=1,
                max_size=4,
            )
        ),
        "max_gaps": draw(st.one_of(st.just(20000), st.integers(1, 6))),
        "passable": draw(st.frozensets(st.integers(5, 9), max_size=2)),
        "budget_checks": draw(st.one_of(st.none(), st.integers(1, 3))),
    }


via_point = st.tuples(
    st.integers(0, VIA_NX - 1), st.integers(0, VIA_NY - 1)
).map(lambda t: ViaPoint(*t))


@st.composite
def trace_problem(draw):
    layer_index = draw(st.integers(0, 1))
    return {
        "segments": draw(st.lists(ws_segment, max_size=24)),
        "layer_index": layer_index,
        "a": draw(grid_point),
        "box": draw(search_box(layer_index)),
        "targets": draw(st.lists(via_point, min_size=1, max_size=6)),
        "passable": draw(st.frozensets(st.integers(5, 9), max_size=2)),
    }


def _run_group(ws, problem, search):
    """Run one group of calls; per call (sites, stats, probe delta)."""
    layer = ws.layers[problem["layer_index"]]
    views = {}
    checks = problem["budget_checks"]
    budget = None if checks is None else _tripping_budget(checks)
    out = []
    for a, box in problem["calls"]:
        stats = SearchStats()
        probes = ws.via_map.probe_count
        sites = search(
            layer, a, box, problem["passable"], ws.via_map,
            problem["max_gaps"], stats, budget, views,
        )
        out.append((
            sites,
            (stats.searches, stats.examined, stats.cap_hits),
            ws.via_map.probe_count - probes,
        ))
    return out


class TestSearchParity:
    """``reachable_vias`` agrees exactly with the clipped reference."""

    @given(vias_problem())
    @settings(max_examples=scaled(120), deadline=None)
    def test_reachable_vias_parity(self, problem):
        ws = _populated_workspace(problem["segments"])
        # Emission order is part of the contract (Lee heap tiebreaks on
        # insertion order), so compare lists, not sets.
        assert _run_group(ws, problem, reachable_vias) == _run_group(
            ws, problem, reference_reachable_vias
        )

    @given(trace_problem())
    @settings(max_examples=scaled(80), deadline=None)
    def test_trace_parity(self, problem):
        """``trace``, which walks box-clipped gap lists, and *Vias*, which
        walks full-span views, agree on which via sites ``a`` reaches:
        ``trace`` finds a path to an available site inside the box iff
        *Vias* reports that site."""
        ws = _populated_workspace(problem["segments"])
        layer = ws.layers[problem["layer_index"]]
        a, box, passable = problem["a"], problem["box"], problem["passable"]
        stats = SearchStats()
        found = reachable_vias(
            layer, a, box, passable, ws.via_map, stats=stats, views={}
        )
        assert stats.cap_hits == 0
        for site in found:
            assert ws.via_map.is_available(site, passable)
        for site in found[:5] + problem["targets"]:
            b = ws.grid.via_to_grid(site)
            if b == a or not ws.via_map.is_available(site, passable):
                continue
            stats = SearchStats()
            pieces = trace(layer, a, b, box, passable, stats=stats)
            assert stats.cap_hits == 0
            assert (pieces is not None) == (site in found)

    def test_budget_exhaustion_truncates_identically(self):
        # Tall empty board: >64 free gaps in the box, so the budget
        # checkpoint (every SEARCH_CHECK_MASK+1 pops) fires mid-search.
        board = Board.create(via_nx=8, via_ny=25, n_signal_layers=2)
        ws = RoutingWorkspace(board)
        layer = ws.layers[0]
        box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)

        def expired_budget():
            clock_now = [0.0]
            tracker = BudgetTracker(
                RouteBudget(deadline_seconds=0.5),
                clock=lambda: clock_now[0],
            )
            clock_now[0] = 10.0
            return tracker.hot()

        results = []
        for search in (reachable_vias, reference_reachable_vias):
            stats = SearchStats()
            probes = ws.via_map.probe_count
            found = search(
                layer,
                GridPoint(0, 0),
                box,
                frozenset(),
                ws.via_map,
                20000,
                stats,
                budget=expired_budget(),
            )
            results.append((
                found, stats.searches, stats.examined, stats.cap_hits,
                ws.via_map.probe_count - probes,
            ))
        assert results[0] == results[1]
        # The truncation actually happened, at the first checkpoint.
        assert results[0][2] == 64
        assert results[0][3] == 1

    def test_max_gaps_cap_truncates_identically(self):
        board = Board.create(via_nx=8, via_ny=25, n_signal_layers=2)
        ws = RoutingWorkspace(board)
        box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)
        results = []
        for search in (reachable_vias, reference_reachable_vias):
            stats = SearchStats()
            probes = ws.via_map.probe_count
            found = search(
                ws.layers[0],
                GridPoint(0, 0),
                box,
                frozenset(),
                ws.via_map,
                5,
                stats,
            )
            results.append((
                found, stats.searches, stats.examined, stats.cap_hits,
                ws.via_map.probe_count - probes,
            ))
        assert results[0] == results[1]
        assert results[0][3] == 1


class TestFullBoardParity:
    """Routed boards are identical with the reference *Vias* patched
    into the Lee search."""

    def _route(self, reference):
        # kdj11_2l at scale 0.30 keeps the Lee search busy: thousands of
        # expansions, rip-up rounds, capped-search retries.
        board = make_titan_board("kdj11_2l", scale=0.30, seed=1)
        conns = Stringer(board).string_all()
        ws = RoutingWorkspace(board)
        # audit=True re-verifies workspace invariants after every pass
        # (the GRR_AUDIT=1 tier), so parity here covers the audit too.
        router = GreedyRouter(board, RouterConfig(audit=True), ws)
        vias = reference_reachable_vias if reference else lee.reachable_vias
        with mock.patch.object(lee, "reachable_vias", vias):
            result = router.route(conns)
        # Gap-list reuse is the one thing the reference does differently.
        counters = {
            k: v
            for k, v in router.profile.counters.items()
            if not k.startswith("gap_cache")
        }
        return (
            result.routed_by,
            result.failed,
            result.lee_expansions,
            ws.state_digest(),
            ws.via_map.probe_count,
            counters,
        )

    def test_routes_and_state_bit_identical(self):
        routed = self._route(False)
        assert routed[2] > 1000  # the Lee search really ran
        assert routed == self._route(True)
