"""Python-vs-numpy parity for the fastpath kernels.

The numpy backend must be *bit-for-bit* substitutable for the pure-python
searches: same routes, same :class:`SearchStats`, same truncation points
at the ``max_gaps`` cap and at budget checkpoints, same via-map probe
accounting.  These tests drive both backends over hypothesis-generated
channel states and full-board routes (with auditing on) and assert
exact equality — no tolerances anywhere.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board.board import Board
from repro.channels.channel import Channel, ChannelConflictError
from repro.channels.workspace import RoutingWorkspace
from repro.core import fastpath
from repro.core.budget import BudgetTracker, RouteBudget
from repro.core.router import GreedyRouter, RouterConfig
from repro.core.single_layer import SearchStats, reachable_vias, trace
from repro.grid.coords import GridPoint
from repro.grid.geometry import Box

from tests.conftest import make_connection, scaled

requires_numpy = pytest.mark.skipif(
    not fastpath.HAVE_NUMPY, reason="numpy not installed ([fast] extra)"
)


class TestResolveBackend:
    def test_python_always_resolves(self):
        assert fastpath.resolve_backend("python") == "python"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            fastpath.resolve_backend("cuda")

    @requires_numpy
    def test_auto_prefers_numpy_when_present(self):
        assert fastpath.resolve_backend("auto") == "numpy"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setattr(fastpath, "HAVE_NUMPY", False)
        assert fastpath.resolve_backend("auto") == "python"

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(fastpath, "HAVE_NUMPY", False)
        with pytest.raises(ValueError, match=r"repro\[fast\]"):
            fastpath.resolve_backend("numpy")


class TestLazyNumpy:
    def test_numpy_loads_with_a_numpy_backend_not_at_startup(self):
        code = (
            "import sys, repro.cli, repro.serve.server, repro.eco\n"
            "print('numpy' in sys.modules)\n"
            "from repro.board.board import Board\n"
            "from repro.channels.workspace import RoutingWorkspace\n"
            "from repro.core.fastpath import HAVE_NUMPY\n"
            "if HAVE_NUMPY:\n"
            "    board = Board.create(via_nx=4, via_ny=4, n_signal_layers=2)\n"
            "    RoutingWorkspace(board).set_backend('numpy')\n"
            "print(('numpy' in sys.modules) == HAVE_NUMPY)\n"
        )
        package = os.path.dirname(os.path.dirname(fastpath.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(package), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.split() == ["False", "True"]


SPAN = 60

# (start, length, owner) mapped to a segment inside [0, SPAN).
segment = st.tuples(
    st.integers(0, SPAN - 1), st.integers(1, 9), st.integers(0, 3)
).map(lambda t: (t[0], min(t[0] + t[1] - 1, SPAN - 1), t[2]))


@requires_numpy
class TestFreeGapsVectorized:
    def setup_method(self):
        fastpath.load_numpy()

    @given(
        segments=st.lists(segment, max_size=24),
        window=st.tuples(
            st.integers(0, SPAN - 1), st.integers(0, SPAN - 1)
        ),
    )
    @settings(max_examples=scaled(120), deadline=None)
    def test_matches_python_walk(self, segments, window):
        channel = Channel()
        for lo, hi, owner in segments:
            try:
                channel.add(lo, hi, owner)
            except ChannelConflictError:
                pass
        lo, hi = min(window), max(window)
        assert fastpath.free_gaps_vectorized(
            channel, lo, hi
        ) == channel.free_gaps(lo, hi)

    def test_mirror_invalidated_by_mutation(self):
        channel = Channel()
        channel.add(10, 20, 1)
        before = fastpath.free_gaps_vectorized(channel, 0, SPAN - 1)
        channel.add(30, 40, 2)
        after = fastpath.free_gaps_vectorized(channel, 0, SPAN - 1)
        assert before != after
        assert after == channel.free_gaps(0, SPAN - 1)


def _populated_workspace(segments):
    """Workspace over a 10x8 board with hypothesis-chosen obstructions."""
    board = Board.create(via_nx=10, via_ny=8, n_signal_layers=2)
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


def _both_backends(ws, call):
    """Run ``call(stats)`` under each backend; return both (result, stats)."""
    out = []
    for backend in ("python", "numpy"):
        ws.set_backend(backend)
        probes_before = ws.via_map.probe_count
        stats = SearchStats()
        result = call(stats)
        out.append(
            (result, stats, ws.via_map.probe_count - probes_before)
        )
    ws.set_backend("python")
    return out


ws_segment = st.tuples(
    st.integers(0, 1),       # layer
    st.integers(0, 40),      # channel (wrapped)
    st.integers(0, 80),      # lo (wrapped)
    st.integers(0, 80),      # hi (wrapped)
    st.integers(5, 9),       # owner
).map(lambda t: (t[0], t[1], min(t[2], t[3]), max(t[2], t[3]), t[4]))

grid_point = st.tuples(st.integers(0, 27), st.integers(0, 21)).map(
    lambda t: GridPoint(*t)
)


@requires_numpy
class TestSearchParity:
    """trace / reachable_vias agree exactly across backends."""

    @given(
        segments=st.lists(ws_segment, max_size=16),
        a=grid_point,
        b=grid_point,
        layer_index=st.integers(0, 1),
        max_gaps=st.one_of(st.just(20000), st.integers(1, 6)),
        passable=st.frozensets(st.integers(5, 9), max_size=2),
    )
    @settings(max_examples=scaled(80), deadline=None)
    def test_trace_parity(
        self, segments, a, b, layer_index, max_gaps, passable
    ):
        ws = _populated_workspace(segments)
        box = Box(0, 0, 27, 21)
        (rp, sp, pp), (rn, sn, pn) = _both_backends(
            ws,
            lambda stats: trace(
                ws.layers[layer_index], a, b, box, passable, max_gaps, stats
            ),
        )
        assert rp == rn
        assert (sp.searches, sp.examined, sp.cap_hits) == (
            sn.searches, sn.examined, sn.cap_hits
        )
        assert pp == pn

    @given(
        segments=st.lists(ws_segment, max_size=16),
        a=grid_point,
        layer_index=st.integers(0, 1),
        max_gaps=st.one_of(st.just(20000), st.integers(1, 6)),
        passable=st.frozensets(st.integers(5, 9), max_size=2),
        box=st.tuples(st.integers(0, 10), st.integers(0, 8)).map(
            lambda t: Box(t[0], t[1], 27 - t[0], 21 - t[1])
        ),
    )
    @settings(max_examples=scaled(80), deadline=None)
    def test_reachable_vias_parity(
        self, segments, a, layer_index, max_gaps, passable, box
    ):
        ws = _populated_workspace(segments)
        (rp, sp, pp), (rn, sn, pn) = _both_backends(
            ws,
            lambda stats: reachable_vias(
                ws.layers[layer_index],
                a,
                box,
                passable,
                ws.via_map,
                max_gaps,
                stats,
            ),
        )
        # Emission order is part of the contract (Lee heap tiebreaks on
        # insertion order), so compare lists, not sets.
        assert rp == rn
        assert (sp.searches, sp.examined, sp.cap_hits) == (
            sn.searches, sn.examined, sn.cap_hits
        )
        assert pp == pn

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
        for backend in ("python", "numpy"):
            ws.set_backend(backend)
            stats = SearchStats()
            found = reachable_vias(
                layer,
                GridPoint(0, 0),
                box,
                frozenset(),
                ws.via_map,
                20000,
                stats,
                budget=expired_budget(),
            )
            results.append(
                (found, stats.searches, stats.examined, stats.cap_hits)
            )
        assert results[0] == results[1]
        # The truncation actually happened, at the first checkpoint.
        assert results[0][3] == 1

    def test_max_gaps_cap_truncates_identically(self):
        board = Board.create(via_nx=8, via_ny=25, n_signal_layers=2)
        ws = RoutingWorkspace(board)
        box = Box(0, 0, board.grid.nx - 1, board.grid.ny - 1)
        results = []
        for backend in ("python", "numpy"):
            ws.set_backend(backend)
            stats = SearchStats()
            found = reachable_vias(
                ws.layers[0],
                GridPoint(0, 0),
                box,
                frozenset(),
                ws.via_map,
                5,
                stats,
            )
            results.append(
                (found, stats.searches, stats.examined, stats.cap_hits)
            )
        assert results[0] == results[1]
        assert results[0][3] == 1


@requires_numpy
class TestFullBoardParity:
    """Complete routed boards are identical under either backend."""

    def _route(self, backend):
        board = Board.create(via_nx=20, via_ny=15, n_signal_layers=4)
        conns = []
        pins = [
            ((2, 2), (17, 12)),
            ((3, 12), (16, 3)),
            ((2, 7), (17, 7)),
            ((9, 1), (9, 13)),
            ((5, 5), (14, 10)),
            ((4, 3), (15, 11)),
        ]
        for i, (pa, pb) in enumerate(pins):
            from repro.grid.coords import ViaPoint

            conn = make_connection(
                board, ViaPoint(*pa), ViaPoint(*pb), i
            )
            conn.conn_id = i
            conns.append(conn)
        ws = RoutingWorkspace(board)
        # audit=True re-verifies workspace invariants after every pass
        # (the GRR_AUDIT=1 tier), so parity here covers the audit too.
        router = GreedyRouter(
            board, RouterConfig(audit=True, backend=backend), ws
        )
        result = router.route(conns)
        # Gap-cache hit/miss accounting is perf-side bookkeeping, not
        # part of the parity contract (the backends cache differently);
        # everything else must match exactly.
        counters = {
            k: v
            for k, v in router.profile.counters.items()
            if not k.startswith(("backend_", "gap_cache"))
        }
        return (
            result.routed_by,
            result.failed,
            result.lee_expansions,
            ws.canonical_state(),
            ws.via_map.probe_count,
            counters.get("cap_hits", 0),
        )

    def test_routes_and_state_bit_identical(self):
        assert self._route("python") == self._route("numpy")
