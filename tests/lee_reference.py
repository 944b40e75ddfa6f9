"""The ViaPoint-keyed Lee search and box-clipped Trace / Obstructions,
kept as a reference for parity tests.

Copies of ``repro.core.lee`` and the ``trace`` / ``obstructions`` of
``repro.core.single_layer`` as they were before the search moved to
flat via indices and shared gap views: marks, heaps and strip maps keyed
by ``ViaPoint``, a ``via_strip`` box per expansion and layer, the
box-clipped *Vias* of ``tests/vias_reference.py`` as the neighbor
function, and ``trace`` / ``obstructions`` over per-call box-clipped
``Channel.free_gaps`` lists (``_FreeSpace``, ``_adjacent_gaps``,
``_explore_all``).  They share no search code with the production
modules beyond the channel, via map and route builder primitives, so
the production searches must match them exactly: every
``LeeSearchResult`` field, the installed routes and the via map's
``probe_count``.  Nothing here counts gap lists.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.board.nets import Connection
from repro.channels.layer_data import ChannelPiece, LayerData
from repro.channels.workspace import RouteRecord, RoutingWorkspace
from repro.core.budget import SEARCH_CHECK_MASK, BudgetTracker
from repro.core.cost import CostFunction, distance_hops_cost
from repro.core.lee import EXPANSION_LIMIT, LeeSearchResult
from repro.core.single_layer import DEFAULT_MAX_GAPS, SearchStats
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box, Orientation
from repro.obs.events import LeeExhausted, SearchCapHit
from repro.obs.sinks import NULL_SINK, EventSink

from tests.vias_reference import reference_reachable_vias

#: Identity of a free gap: (channel index, index in the channel's gap list).
GapKey = Tuple[int, int]

#: Per-side wavefront mark: (hops from source, parent via, layer index used).
Mark = Tuple[int, Optional[ViaPoint], Optional[int]]

#: Per-side record of finished strip searches: (layer index, strip box)
#: -> the via sites every uncapped Vias call there returned, plus the
#: vias those calls expanded.
StripSites = Dict[Tuple[int, Box], Set[ViaPoint]]

#: Sentinel larger than any gap hi-bound (see ``gap_index_at``).
_COORD_INF = 1 << 62


class _FreeSpace:
    """Box-clipped free-gap view of one layer region for one search.

    Holds the box clip and a per-call ``{channel: list}`` memo of
    ``Channel.free_gaps`` over the box, so the hot ``gaps()`` call is a
    single int-keyed dict lookup after a channel's first touch.
    """

    def __init__(
        self, layer: LayerData, box: Box, passable: FrozenSet[int]
    ) -> None:
        self.layer = layer
        self.passable = passable
        c_lo, c_hi, lo, hi = layer.box_cc(box)
        self.c_lo = max(c_lo, 0)
        self.c_hi = min(c_hi, layer.n_channels - 1)
        self.lo = max(lo, 0)
        self.hi = min(hi, layer.channel_length - 1)
        self._gaps: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def is_empty(self) -> bool:
        """True if the box misses the layer entirely."""
        return self.c_lo > self.c_hi or self.lo > self.hi

    def in_box(self, channel_index: int, coord: int) -> bool:
        """True if channel coordinates lie inside the clipped box."""
        return (
            self.c_lo <= channel_index <= self.c_hi
            and self.lo <= coord <= self.hi
        )

    def gaps(self, channel_index: int) -> List[Tuple[int, int]]:
        """Free gaps of one channel, clipped to the box (memoized)."""
        cached = self._gaps.get(channel_index)
        if cached is None:
            layer = self.layer
            cached = layer.channels[channel_index].free_gaps(
                self.lo, self.hi, self.passable
            )
            self._gaps[channel_index] = cached
        return cached

    def gap_index_at(self, channel_index: int, coord: int) -> Optional[int]:
        """Index of the gap containing ``coord``, or None if blocked.

        The gap list is sorted and disjoint, so the candidate is the last
        gap starting at or before ``coord`` — found by bisect, not by
        scanning from index 0 (this runs at the start of every ``trace``
        and ``obstructions`` search).
        """
        gaps = self.gaps(channel_index)
        i = bisect_right(gaps, (coord, _COORD_INF)) - 1
        if i >= 0 and gaps[i][1] >= coord:
            return i
        return None

def _interval_distance(lo: int, hi: int, x: int) -> int:
    """Distance from coordinate ``x`` to the interval ``[lo, hi]``."""
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0

def _adjacent_gaps(
    fs: _FreeSpace, channel_index: int, glo: int, ghi: int
) -> Iterator[Tuple[GapKey, Tuple[int, int]]]:
    """Gaps in the two neighboring channels overlapping ``[glo, ghi]``."""
    for nc in (channel_index - 1, channel_index + 1):
        if not fs.c_lo <= nc <= fs.c_hi:
            continue
        for ngi, (nglo, nghi) in enumerate(fs.gaps(nc)):
            if nghi < glo:
                continue
            if nglo > ghi:
                break
            yield (nc, ngi), (nglo, nghi)

def trace(
    layer: LayerData,
    a: GridPoint,
    b: GridPoint,
    box: Box,
    passable: FrozenSet[int] = frozenset(),
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional["BudgetTracker"] = None,
) -> Optional[List[ChannelPiece]]:
    """Find a rectilinear path from ``a`` to ``b`` on one layer inside ``box``.

    Returns the path as channel pieces ``(channel_index, lo, hi)`` with the
    large gap overlaps already trimmed back to single junction points
    (Figure 7), or None if no path exists within the box.  A search that
    pops more than ``max_gaps`` gaps gives up and also returns None, but
    marks ``stats`` as capped — truncation, not a proven blockage.  A
    timed ``budget`` (see :mod:`repro.core.budget`) is consulted every few
    dozen pops; exhaustion truncates the search exactly like the cap.
    """
    ca, xa = layer.point_cc(a)
    cb, xb = layer.point_cc(b)
    fs = _FreeSpace(layer, box, passable)
    if fs.is_empty or not fs.in_box(ca, xa) or not fs.in_box(cb, xb):
        return None
    start_index = fs.gap_index_at(ca, xa)
    if start_index is None:
        return None
    start: GapKey = (ca, start_index)
    parents: Dict[GapKey, Optional[GapKey]] = {start: None}
    goal: Optional[GapKey] = None
    slo, shi = fs.gaps(ca)[start_index]
    if ca == cb and slo <= xb <= shi:
        goal = start
    stack: List[GapKey] = [start]
    examined = 0
    capped = False
    while stack and goal is None:
        key = stack.pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        if (
            budget is not None
            and (examined & SEARCH_CHECK_MASK) == 0
            and budget.search_exceeded()
        ):
            capped = True
            break
        c, gi = key
        glo, ghi = fs.gaps(c)[gi]
        children: List[Tuple[int, GapKey]] = []
        for nkey, (nglo, nghi) in _adjacent_gaps(fs, c, glo, ghi):
            if nkey in parents:
                continue
            parents[nkey] = key
            if nkey[0] == cb and nglo <= xb <= nghi:
                goal = nkey
                break
            # Best-to-worst: nearest the destination searched first
            # (pushed last so the DFS pops it first).
            distance = abs(nkey[0] - cb) + _interval_distance(nglo, nghi, xb)
            children.append((distance, nkey))
        if goal is not None:
            break
        children.sort(key=lambda item: -item[0])
        stack.extend(k for _, k in children)
    if stats is not None:
        stats.note(examined, capped)
    if goal is None:
        return None
    chain: List[GapKey] = []
    node: Optional[GapKey] = goal
    while node is not None:
        chain.append(node)
        node = parents[node]
    chain.reverse()
    return _trim_chain(fs, chain, xa, xb)

def _trim_chain(
    fs: _FreeSpace, chain: List[GapKey], xa: int, xb: int
) -> List[ChannelPiece]:
    """Trim gap overlaps back to single junction points (Section 7.1).

    Junctions are chosen by clamping the destination coordinate into each
    overlap, working backwards from the target, which funnels the trace
    towards ``b`` and keeps it short.
    """
    channels = [c for c, _ in chain]
    gaps = [fs.gaps(c)[gi] for c, gi in chain]
    n = len(chain)
    if n == 1:
        return [(channels[0], min(xa, xb), max(xa, xb))]
    overlaps: List[Tuple[int, int]] = []
    for i in range(n - 1):
        (l1, h1), (l2, h2) = gaps[i], gaps[i + 1]
        overlaps.append((max(l1, l2), min(h1, h2)))
    junctions = [0] * (n - 1)
    desired = xb
    for i in range(n - 2, -1, -1):
        lo, hi = overlaps[i]
        junctions[i] = min(max(desired, lo), hi)
        desired = junctions[i]
    pieces: List[ChannelPiece] = []
    prev = xa
    for i in range(n - 1):
        j = junctions[i]
        pieces.append((channels[i], min(prev, j), max(prev, j)))
        prev = j
    pieces.append((channels[-1], min(prev, xb), max(prev, xb)))
    return pieces

def _explore_all(
    fs: _FreeSpace,
    start: GapKey,
    max_gaps: int,
    stats: Optional[SearchStats] = None,
) -> Iterator[GapKey]:
    """Enumerate all gaps reachable from ``start``, up to ``max_gaps``.

    Counts popped gaps — the same accounting as :func:`trace` — so one
    ``max_gaps`` value caps both search shapes identically.  Hitting the
    cap truncates the enumeration and marks ``stats`` as capped.
    """
    seen: Set[GapKey] = {start}
    stack = [start]
    examined = 0
    capped = False
    while stack:
        key = stack.pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        yield key
        c, gi = key
        glo, ghi = fs.gaps(c)[gi]
        for nkey, _ in _adjacent_gaps(fs, c, glo, ghi):
            if nkey not in seen:
                seen.add(nkey)
                stack.append(nkey)
    if stats is not None:
        stats.note(examined, capped)


def obstructions(
    layer: LayerData,
    a: GridPoint,
    box: Box,
    passable: FrozenSet[int] = frozenset(),
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
) -> Set[int]:
    """Owners of the used segments immediately surrounding ``a`` (Section 7.3).

    Enumerates the free space around ``a`` exhaustively and collects the
    owner of every used segment bounding or flanking a visited gap — "the
    list of immediate obstacles that surround a point on a given layer",
    used to select victims to be ripped up.
    """
    ca, xa = layer.point_cc(a)
    fs = _FreeSpace(layer, box, passable)
    if fs.is_empty or not fs.in_box(ca, xa):
        return set()
    owners: Set[int] = set()
    channel_a = layer.channel(ca)
    start_index = fs.gap_index_at(ca, xa)
    if start_index is None:
        # The point itself is buried under another connection: that owner
        # is the obstruction.
        blocker = channel_a.owner_at(xa)
        if blocker is not None and blocker not in passable:
            owners.add(blocker)
        return owners
    for c, gi in _explore_all(fs, (ca, start_index), max_gaps, stats):
        channel = layer.channel(c)
        glo, ghi = fs.gaps(c)[gi]
        # Used segments bounding the gap along the channel.
        for x in (glo - 1, ghi + 1):
            if 0 <= x < layer.channel_length:
                owner = channel.owner_at(x)
                if owner is not None and owner not in passable:
                    owners.add(owner)
        # Used segments flanking the gap in the neighboring channels.
        for nc in (c - 1, c + 1):
            if 0 <= nc < layer.n_channels:
                owners |= layer.channel(nc).owners_in(glo, ghi, passable)
    return owners

def _strip_axis(orientation: Orientation) -> str:
    """Strip direction for ``RoutingGrid.via_strip`` on a layer."""
    return "x" if orientation is Orientation.HORIZONTAL else "y"


def _neighbors(
    workspace: RoutingWorkspace,
    via: ViaPoint,
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
    strips: Optional[StripSites] = None,
) -> List[Tuple[ViaPoint, int]]:
    """All (neighbor via, layer index) pairs reachable in one hop.

    "To find the neighbors of a via, Vias is called once for each layer,
    and the result added to an accumulating list" — the cross of Figure 11.

    ``strips`` (one map per wavefront; requires ``stats``) skips a layer
    whose strip already lists ``via``: the wavefront has enumerated that
    free component once, uncapped, and marked every site in it, so the
    call could only return sites the caller drops as already marked.
    """
    point = workspace.grid.via_to_grid(via)
    result: List[Tuple[ViaPoint, int]] = []
    for layer_index, layer in enumerate(workspace.layers):
        box = workspace.grid.via_strip(
            via, radius, _strip_axis(layer.orientation)
        )
        if strips is not None:
            key = (layer_index, box)
            if via in strips.get(key, ()):
                continue
            cap_hits = stats.cap_hits
        found = reference_reachable_vias(
            layer,
            point,
            box,
            passable,
            workspace.via_map,
            max_gaps,
            stats,
            budget,
        )
        if strips is not None and stats.cap_hits == cap_hits:
            # Uncapped: every site in ``found`` shares via's free
            # component in the strip, so its own call here would return
            # nothing outside ``found`` and ``via``.
            strips.setdefault(key, set()).update(found, (via,))
        for n in found:
            result.append((n, layer_index))
    return result

def _back_chain(
    marks: Dict[ViaPoint, Mark], via: ViaPoint, side: str
) -> List[Tuple[ViaPoint, Optional[int]]]:
    """Chain from the wavefront source to ``via``: [(via, layer to reach it)].

    Every via on the chain was inserted into ``marks`` before its children,
    so a missing mark can only mean the table was corrupted after the
    search — raise with enough context to tell *where* the chain broke
    (a bare KeyError here made parity debugging hopeless).
    """
    chain: List[Tuple[ViaPoint, Optional[int]]] = []
    current: Optional[ViaPoint] = via
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
    a, b = conn.a, conn.b
    targets = (b, a)
    marks: Tuple[Dict[ViaPoint, Mark], Dict[ViaPoint, Mark]] = (
        {a: (0, None, None)},
        {b: (0, None, None)},
    )
    heaps: Tuple[list, list] = ([(0.0, 0, a)], [(0.0, 0, b)])
    # Within one search the board, ``passable`` and every strip are
    # fixed, and this loop marks every neighbor it is handed before its
    # next pop (or stops at the meet), so each side needs the via sites
    # of a strip component only once (see _neighbors).
    strips: Tuple[StripSites, StripSites] = ({}, {})
    counter = itertools.count(1)
    best: List[Tuple[float, ViaPoint]] = [
        (float("inf"), a),
        (float("inf"), b),
    ]
    expansions = 0
    meet: Optional[Tuple[int, ViaPoint, ViaPoint, int]] = None
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
        _, _, p = heappop(heaps[side])
        expansions += 1
        hops_p = marks[side][p][0]
        found_meet = None
        for n, layer_index in _neighbors(
            workspace, p, radius, passable, max_gaps, stats, budget,
            strips=strips[side],
        ):
            if n in marks[side]:
                continue
            hops_n = hops_p + 1
            marks[side][n] = (hops_n, p, layer_index)
            if n in marks[1 - side]:
                found_meet = (side, p, n, layer_index)
                break
            cost = cost_fn(n, targets[side], hops_n)
            heappush(heaps[side], (cost, next(counter), n))
            if cost < best[side][0]:
                best[side] = (cost, n)
        if found_meet is not None:
            meet = found_meet
    best_points = (best[0][1], best[1][1])
    return _finish(
        workspace, conn, meet, marks, radius, passable, max_gaps, stats,
        budget, sink, expansions, best_points, reason, exhausted,
    )

def _finish(
    workspace: RoutingWorkspace,
    conn: Connection,
    meet: Optional[Tuple[int, ViaPoint, ViaPoint, int]],
    marks: Tuple[Dict[ViaPoint, Mark], Dict[ViaPoint, Mark]],
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: SearchStats,
    budget: Optional[BudgetTracker],
    sink: EventSink,
    expansions: int,
    best_points: Tuple[Optional[ViaPoint], Optional[ViaPoint]],
    reason: str,
    exhausted: str,
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
        budget,
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
    meet: Tuple[int, ViaPoint, ViaPoint, int],
    marks: Tuple[Dict[ViaPoint, Mark], Dict[ViaPoint, Mark]],
    radius: int,
    passable: FrozenSet[int],
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
) -> Optional[RouteRecord]:
    """Retrace from the meeting point to the two sources (Figure 15).

    "The links in the retraced path are constructed with Trace.  They may
    all be on different layers."  Each hop's trace is searched in the strip
    of the via it was discovered from; installed hop by hop so later hops
    treat earlier ones as passable.  On any failure the partial route is
    rolled back.

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
    edges: List[Tuple[ViaPoint, ViaPoint, int, ViaPoint]] = []
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
    prev_layer: Optional[int] = None
    for u, v, layer_index, anchor in edges:
        pieces = None
        attempts = [(layer_index, anchor)]
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
