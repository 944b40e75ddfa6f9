"""The generalized Lee maze search (Section 8.2), with all three
modifications from the paper:

1. the neighbors of a via are the via sites reachable from it by a trace
   on one layer (the *Vias* procedure) — neighbors radiate in a cross of
   radius strips (Figure 11), generalizing Hightower's line search;
2. wavefronts spread from both ends simultaneously; if either wavefront is
   exhausted the connection is blocked, and the point that made the most
   progress is remembered for rip-up victim selection;
3. wavefront lists are kept in increasing order of a pluggable cost
   function (``distance(n, target) * hops(n, source)`` by default).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.board.nets import Connection
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.core.budget import SEARCH_CHECK_MASK, BudgetTracker
from repro.core.cost import CostFunction, distance_hops_cost
from repro.core.single_layer import (
    DEFAULT_MAX_GAPS,
    LayerViews,
    SearchStats,
    reachable_vias,
    trace,
)
from repro.grid.coords import ViaPoint
from repro.grid.geometry import Orientation
from repro.obs.events import LeeExhausted, SearchCapHit
from repro.obs.sinks import NULL_SINK, EventSink

#: Via sites inside the search are flat via-map indices ``vx * via_ny +
#: vy`` (the index ``ViaMap`` counts under); ``ViaPoint``s are built only
#: for the retraced chain and the best points.
Site = int

#: Per-side wavefront mark: (hops from source, parent site, layer index
#: used); a source has no parent and no layer.
Mark = Tuple[int, Optional[Site], Optional[int]]

#: Per-side record of finished strip searches: strip key (layer and
#: channel range, see :func:`_neighbors`) -> the via sites every uncapped
#: ``reachable_vias`` call there returned, plus the vias those calls
#: expanded.
StripSites = Dict[int, Set[Site]]

#: ``tuple.__new__`` builds a ``ViaPoint`` without the Python-level
#: ``NamedTuple.__new__`` frame; the search makes one per pushed neighbor
#: to hand the cost function.
_new_tuple = tuple.__new__


#: The reason of a search that stopped at its expansion limit.
EXPANSION_LIMIT = "expansion limit"


@dataclass
class LeeSearchResult:
    """Outcome of one bidirectional Lee search."""

    routed: bool
    record: Optional[RouteRecord] = None
    expansions: int = 0
    marked: int = 0
    blocked: bool = False
    reason: str = ""
    #: Single-layer searches truncated at the ``max_gaps`` cap during this
    #: route.  A blocked result with ``cap_hits > 0`` (reason suffixed
    #: "(gap cap)") was truncated, not proven blocked — rip-up victim
    #: selection should not treat it as a hard blockage.
    cap_hits: int = 0
    #: Gaps popped across all single-layer searches of this route.
    gaps_examined: int = 0
    #: Least-cost point ever inserted into each wavefront (a-side, b-side);
    #: the rip-up strategy removes obstacles around these (Section 8.3).
    best_points: Tuple[Optional[ViaPoint], Optional[ViaPoint]] = (None, None)
    #: Which side exhausted first ("a", "b" or "" if not blocked).
    exhausted_side: str = ""
    #: The search stopped at ``max_expansions``: a truncation, like a
    #: gap-cap hit, not a proven blockage.
    expansion_limited: bool = False


def _strip_axis(orientation: Orientation) -> str:
    """Strip direction for ``RoutingGrid.via_strip`` on a layer."""
    return "x" if orientation is Orientation.HORIZONTAL else "y"


def _neighbors(
    workspace: RoutingWorkspace,
    via: Site,
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
    strips: Optional[StripSites] = None,
    views: Optional[List[LayerViews]] = None,
) -> List[Tuple[List[Site], int]]:
    """The via sites reachable from ``via`` in one hop: [(sites, layer)].

    "To find the neighbors of a via, Vias is called once for each layer,
    and the result added to an accumulating list" — the cross of Figure 11.
    On each layer the call searches the radius strip: the channels within
    ``radius`` via pitches of ``via``, over their whole length.

    ``strips`` (one map per wavefront; requires ``stats``) skips a layer
    whose strip already lists ``via``: the wavefront has enumerated that
    free component once, uncapped, and marked every site in it, so the
    call could only return sites the caller drops as already marked.

    ``views`` (one list per layer, owned by the search) holds each
    channel's full-span free gaps for the whole search; None builds
    box-clipped lists per call.
    """
    grid = workspace.grid
    g = grid.grid_per_via
    vx, vy = divmod(via, grid.via_ny)
    rg = radius * g
    layers = workspace.layers
    n_layers = len(layers)
    result: List[Tuple[List[Site], int]] = []
    for layer_index, layer in enumerate(layers):
        if layer.orientation is Orientation.HORIZONTAL:
            ca, xa = vy * g, vx * g
        else:
            ca, xa = vx * g, vy * g
        n_channels = layer.n_channels
        c_lo = ca - rg if ca > rg else 0
        c_hi = ca + rg if ca + rg < n_channels else n_channels - 1
        if strips is not None:
            key = (c_lo * n_channels + c_hi) * n_layers + layer_index
            sites = strips.get(key)
            if sites is not None and via in sites:
                continue
            cap_hits = stats.cap_hits
        found = reachable_vias(
            layer,
            ca,
            xa,
            c_lo,
            c_hi,
            0,
            layer.channel_length - 1,
            passable,
            workspace.via_map,
            max_gaps,
            stats,
            budget,
            None if views is None else views[layer_index],
        )
        if strips is not None and stats.cap_hits == cap_hits:
            # Uncapped: every site in ``found`` shares via's free
            # component in the strip, so its own call here would return
            # nothing outside ``found`` and ``via``.
            if sites is None:
                sites = strips[key] = set(found)
            else:
                sites.update(found)
            sites.add(via)
        result.append((found, layer_index))
    return result


def _back_chain(
    marks: Dict[Site, Mark], via: Site, side: str
) -> List[Tuple[Site, Optional[int]]]:
    """Chain from the wavefront source to ``via``: [(via, layer to reach it)].

    Every via on the chain was inserted into ``marks`` before its children,
    so a missing mark can only mean the table was corrupted after the
    search — raise with enough context to tell *where* the chain broke
    (a bare KeyError here made parity debugging hopeless).
    """
    chain: List[Tuple[Site, Optional[int]]] = []
    current: Optional[Site] = via
    while current is not None:
        mark = marks.get(current)
        if mark is None:
            raise RuntimeError(
                f"retrace walked off the {side}-side wavefront at "
                f"{current}: no mark among {len(marks)} — the parent "
                f"chain is corrupt"
            )
        chain.append((current, mark[2]))
        current = mark[1]
    chain.reverse()
    return chain


def lee_route(
    workspace: RoutingWorkspace,
    conn: Connection,
    radius: int = 1,
    passable: Optional[FrozenSet[int]] = None,
    cost_fn: CostFunction = distance_hops_cost,
    max_expansions: int = 4000,
    max_gaps: int = DEFAULT_MAX_GAPS,
    single_front: bool = False,
    sink: EventSink = NULL_SINK,
    budget: Optional[BudgetTracker] = None,
) -> LeeSearchResult:
    """Route one connection with the generalized bidirectional Lee search.

    ``single_front=True`` disables Modification 2: only the a-side
    wavefront spreads (the pre-modification behaviour benchmarked in
    ``benchmarks/bench_bidirectional.py``); the search still terminates
    when a neighbor of the frontier is the target pin.  ``sink`` receives
    a :class:`repro.obs.events.LeeExhausted` event when the search dies,
    carrying the best points rip-up will center on.  A timed ``budget``
    is consulted every few dozen expansions; exhaustion ends the search
    with reason ``"budget exhausted"`` — a truncation like the expansion
    limit, never an exception.
    """
    if passable is None:
        passable = frozenset((conn.conn_id,))
    stats = SearchStats()
    # The board and ``passable`` stay fixed until the retrace installs
    # the route, so every Vias call of this search shares one set of
    # gap views.  The retrace reads them too: every hop it installs and
    # every via it drills belongs to a passable owner.
    views: List[LayerViews] = [
        [None] * layer.n_channels for layer in workspace.layers
    ]
    ny = workspace.grid.via_ny
    a, b = conn.a, conn.b
    sources = (a.vx * ny + a.vy, b.vx * ny + b.vy)
    targets = (b, a)
    marks: Tuple[Dict[Site, Mark], Dict[Site, Mark]] = (
        {sources[0]: (0, None, None)},
        {sources[1]: (0, None, None)},
    )
    heaps: Tuple[list, list] = (
        [(0.0, 0, sources[0])],
        [(0.0, 0, sources[1])],
    )
    # Within one search the board, ``passable`` and every strip are
    # fixed, and this loop marks every neighbor it is handed before its
    # next pop (or stops at the meet), so each side needs the via sites
    # of a strip component only once (see _neighbors).
    strips: Tuple[StripSites, StripSites] = ({}, {})
    counter = itertools.count(1)
    best: List[Tuple[float, Site]] = [
        (float("inf"), sources[0]),
        (float("inf"), sources[1]),
    ]
    expansions = 0
    meet: Optional[Tuple[int, Site, Site, int]] = None
    reason = ""
    exhausted = ""
    while meet is None:
        if not heaps[0] or not heaps[1]:
            # Modification 2: one exhausted wavefront means blocked.
            exhausted = "a" if not heaps[0] else "b"
            reason = "wavefront exhausted"
            break
        if expansions >= max_expansions:
            reason = EXPANSION_LIMIT
            break
        if (
            budget is not None
            and (expansions & SEARCH_CHECK_MASK) == 0
            and budget.search_exceeded()
        ):
            reason = "budget exhausted"
            break
        if single_front:
            side = 0
        else:
            side = 0 if heaps[0][0][0] <= heaps[1][0][0] else 1
        heap = heaps[side]
        _, _, p = heappop(heap)
        expansions += 1
        side_marks = marks[side]
        other_marks = marks[1 - side]
        target = targets[side]
        hops_n = side_marks[p][0] + 1
        for found, layer_index in _neighbors(
            workspace, p, radius, passable, max_gaps, stats, budget,
            strips=strips[side], views=views,
        ):
            for n in found:
                if n in side_marks:
                    continue
                side_marks[n] = (hops_n, p, layer_index)
                if n in other_marks:
                    meet = (side, p, n, layer_index)
                    break
                cost = cost_fn(
                    _new_tuple(ViaPoint, divmod(n, ny)), target, hops_n
                )
                heappush(heap, (cost, next(counter), n))
                if cost < best[side][0]:
                    best[side] = (cost, n)
            if meet is not None:
                break
    best_points = (
        ViaPoint(*divmod(best[0][1], ny)),
        ViaPoint(*divmod(best[1][1], ny)),
    )
    return _finish(
        workspace, conn, meet, marks, radius, passable, max_gaps, stats,
        budget, sink, expansions, best_points, reason, exhausted, views,
    )


def _finish(
    workspace: RoutingWorkspace,
    conn: Connection,
    meet: Optional[Tuple[int, Site, Site, int]],
    marks: Tuple[Dict[Site, Mark], Dict[Site, Mark]],
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: SearchStats,
    budget: Optional[BudgetTracker],
    sink: EventSink,
    expansions: int,
    best_points: Tuple[ViaPoint, ViaPoint],
    reason: str,
    exhausted: str,
    views: List[LayerViews],
) -> LeeSearchResult:
    """Search tail: retrace the meet or report the blockage."""
    marked = len(marks[0]) + len(marks[1])
    if meet is None:
        # A cap-truncated search may have hidden reachable neighbors: the
        # failure is then unproven, and the reason says so.  The suffix
        # is for people reading events and results; the router tells a
        # truncation from a hard blockage by ``cap_hits`` and
        # ``expansion_limited``, not by parsing it.
        expansion_limited = reason == EXPANSION_LIMIT
        if stats.cap_hits > 0:
            reason += " (gap cap)"
        if sink.enabled:
            sink.emit(
                LeeExhausted(
                    conn.conn_id,
                    exhausted,
                    reason,
                    expansions,
                    best_points[0],
                    best_points[1],
                )
            )
            if stats.cap_hits > 0:
                sink.emit(
                    SearchCapHit(
                        conn.conn_id,
                        stats.cap_hits,
                        stats.searches,
                        max_gaps,
                        False,
                    )
                )
        return LeeSearchResult(
            routed=False,
            expansions=expansions,
            marked=marked,
            blocked=True,
            reason=reason,
            cap_hits=stats.cap_hits,
            gaps_examined=stats.examined,
            best_points=best_points,
            exhausted_side=exhausted,
            expansion_limited=expansion_limited,
        )
    record = _retrace(
        workspace, conn, meet, marks, radius, passable, max_gaps, stats,
        budget, views,
    )
    if sink.enabled and stats.cap_hits > 0:
        sink.emit(
            SearchCapHit(
                conn.conn_id,
                stats.cap_hits,
                stats.searches,
                max_gaps,
                record is not None,
            )
        )
    if record is None:
        return LeeSearchResult(
            routed=False,
            expansions=expansions,
            marked=marked,
            blocked=True,
            reason=(
                "retrace failed (gap cap)"
                if stats.cap_hits > 0
                else "retrace failed"
            ),
            cap_hits=stats.cap_hits,
            gaps_examined=stats.examined,
            best_points=best_points,
        )
    return LeeSearchResult(
        routed=True,
        record=record,
        expansions=expansions,
        marked=marked,
        cap_hits=stats.cap_hits,
        gaps_examined=stats.examined,
        best_points=best_points,
    )


def _retrace(
    workspace: RoutingWorkspace,
    conn: Connection,
    meet: Tuple[int, Site, Site, int],
    marks: Tuple[Dict[Site, Mark], Dict[Site, Mark]],
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
    views: Optional[List[LayerViews]] = None,
) -> Optional[RouteRecord]:
    """Retrace from the meeting point to the two sources (Figure 15).

    "The links in the retraced path are constructed with Trace.  They may
    all be on different layers."  Each hop's trace is searched in the strip
    of the via it was discovered from; installed hop by hop so later hops
    treat earlier ones as passable.  On any failure the partial route is
    rolled back.

    The traces read the search's ``views`` (None builds lists per call).
    They stay exact while the hops go in: every segment the retrace
    installs and every via it drills belongs to a passable owner, which
    a view for ``passable`` already counts as free.

    A via is drilled at a junction only when the resolved layers of the
    two adjoining links actually differ: the layer-fallback attempts can
    land consecutive links on the *same* layer, where a drill would be a
    wasted hole (it inflated the Table 1 via counts).  The junction's
    drill decision therefore waits until the next link's layer is known —
    safe, because the search already proved the site available and the
    connection's own segments are passable to its later traces.
    """
    side, p, n, meet_layer = meet
    # Edges as (u, v, layer, strip anchor): anchor is the via whose radius
    # strip the hop was discovered in (the parent in the original search).
    edges: List[Tuple[Site, Site, int, Site]] = []
    left = _back_chain(marks[side], p, "ab"[side])
    for i in range(len(left) - 1):
        u, _ = left[i]
        v, layer_index = left[i + 1]
        edges.append((u, v, layer_index, u))
    edges.append((p, n, meet_layer, p))
    right = _back_chain(marks[1 - side], n, "ab"[1 - side])
    # right runs source_other .. n; reverse it to continue n .. source_other.
    for i in range(len(right) - 1, 0, -1):
        u, layer_index = right[i]
        v, _ = right[i - 1]
        # The hop u<-v was discovered from parent v's strip.
        edges.append((u, v, layer_index, v))
    if side == 1:
        # The chains ran from b towards a; normalize the route to a -> b.
        edges = [
            (v, u, layer_index, anchor)
            for u, v, layer_index, anchor in reversed(edges)
        ]
    builder = workspace.route_builder(conn.conn_id, passable)
    grid = workspace.grid
    ny = grid.via_ny
    prev_layer: Optional[int] = None
    for u_site, v_site, layer_index, anchor_site in edges:
        u = ViaPoint(*divmod(u_site, ny))
        v = ViaPoint(*divmod(v_site, ny))
        pieces = None
        attempts = [(layer_index, ViaPoint(*divmod(anchor_site, ny)))]
        # Fallbacks: same layer anchored at either end, then any layer.
        attempts.append((layer_index, u))
        attempts.append((layer_index, v))
        for other_index in range(workspace.n_layers):
            if other_index != layer_index:
                attempts.append((other_index, u))
                attempts.append((other_index, v))
        for try_layer, try_anchor in attempts:
            layer = workspace.layers[try_layer]
            box = grid.via_strip(
                try_anchor, radius, _strip_axis(layer.orientation)
            )
            pieces = trace(
                layer,
                grid.via_to_grid(u),
                grid.via_to_grid(v),
                box,
                passable,
                max_gaps,
                stats,
                budget,
                None if views is None else views[try_layer],
            )
            if pieces is not None:
                layer_index = try_layer
                break
        if pieces is None:
            builder.abort()
            return None
        if (
            prev_layer is not None
            and layer_index != prev_layer
            and u != conn.a
            and u != conn.b
        ):
            builder.drill(u)
        builder.add_link(
            layer_index, grid.via_to_grid(u), grid.via_to_grid(v), pieces
        )
        prev_layer = layer_index
    return builder.commit()
