"""The three single-layer algorithms (Section 7): Trace, Vias, Obstructions.

All three are variations of one underlying method: a depth-first search of
the *free space* of a single layer, viewed as a graph of free gaps — maximal
free intervals in each channel — where two gaps are adjacent when they lie
in neighboring channels and overlap.  The cost of a search is proportional
to the number of gaps examined, not to the distance between the end points:
"in the absence of obstacles, it is just as fast to make a connection across
the board as to the neighboring pin".

* :func:`trace` — "Is there a trace between a and b on layer l lying
  entirely within box?"  Returns the trimmed list of channel pieces.
* :func:`reachable_vias` — "What via sites are reachable from point a on
  layer l by paths lying entirely within box?"  (The paper's *Vias*.)
* :func:`obstructions` — "What connections are near point a on layer l
  lying in box?"  Victim selection for rip-up.

All three walk the same data the same way: each channel's free gaps as a
:data:`GapView`, built on the walk's first touch of the channel, with
every gap clamped to the box as it is pushed.  A view is either one of a
Lee search's *views* — whole-channel, built once and read by every call
of the search — or a list built for one call, clipped to its box (see
:func:`_call_views`).  Full-span and clipped lists give the same walk
(see *Vias*).  *Vias* and Obstructions enumerate the free space with one
walk, :func:`_walk`; Trace orders its children nearest-first and keeps
their parents, so it steps through the same views on its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.channels.channel import GapView
from repro.channels.layer_data import ChannelPiece, LayerData
from repro.core.budget import SEARCH_CHECK_MASK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import BudgetTracker
from repro.channels.via_map import ViaMap
from repro.grid.coords import GridPoint
from repro.grid.geometry import Box, Orientation

#: A Lee search's gap views of one layer, indexed by channel; None until
#: the search first touches the channel (see :func:`_call_views`).
LayerViews = List[Optional[GapView]]

#: Default cap on gaps examined per search, a safety net against
#: pathological congestion.  A capped search is *truncated*, not proven
#: blocked; callers that care pass a :class:`SearchStats` to tell the two
#: apart (rip-up victim selection must not treat truncation as blockage).
DEFAULT_MAX_GAPS = 20000


@dataclass
class SearchStats:
    """Accumulated effort of free-space searches (an out-parameter).

    All three Section 7 searches count the same unit — gaps popped off
    the search stack — and call :meth:`note` exactly once on the way out,
    so the ``max_gaps`` cap means one thing everywhere.
    """

    searches: int = 0
    examined: int = 0
    #: Searches that hit the ``max_gaps`` cap and were truncated.
    cap_hits: int = 0

    def note(self, examined: int, capped: bool) -> None:
        """Record one finished (or truncated) search."""
        self.searches += 1
        self.examined += examined
        if capped:
            self.cap_hits += 1


def _clip(
    layer: LayerData, c_lo: int, c_hi: int, lo: int, hi: int
) -> Tuple[int, int, int, int]:
    """A box in channel coordinates, clipped to the layer."""
    last_channel = layer.n_channels - 1
    last = layer.channel_length - 1
    return (
        c_lo if c_lo > 0 else 0,
        c_hi if c_hi < last_channel else last_channel,
        lo if lo > 0 else 0,
        hi if hi < last else last,
    )


def _call_views(
    layer: LayerData,
    views: Optional[LayerViews],
    c_lo: int,
    c_hi: int,
    lo: int,
    hi: int,
) -> Tuple[LayerViews, int, int, int]:
    """The views a walk in a clipped box reads:
    ``(views, base, span_lo, span_hi)``.

    A Lee search's ``views`` are indexed by channel and span whole
    channels.  A call without them reads lists of its own, indexed by
    offset ``base`` from the box edge and clipped to the box: for the
    short boxes of zero- and one-via traces and rip-up, a clipped list
    costs less than a whole-channel one.
    """
    if views is not None:
        return views, 0, 0, layer.channel_length - 1
    return [None] * (c_hi - c_lo + 1), c_lo, lo, hi


def _build_view(
    layer: LayerData,
    channel_index: int,
    passable: FrozenSet[int],
    span_lo: int,
    span_hi: int,
) -> GapView:
    """One channel's free gaps over ``[span_lo, span_hi]``, counted in
    the layer's ``gaps_built``."""
    layer.gaps_built += 1
    return layer.channels[channel_index].gap_view(span_lo, span_hi, passable)


def _walk(
    layer: LayerData,
    ca: int,
    xa: int,
    c_lo: int,
    c_hi: int,
    lo: int,
    hi: int,
    passable: FrozenSet[int],
    views: Optional[LayerViews],
    max_gaps: int,
    stats: Optional[SearchStats],
    budget: Optional["BudgetTracker"] = None,
) -> Iterator[Tuple[int, int, int]]:
    """Depth-first walk of the free gaps reachable from ``(ca, xa)``.

    The box ``c_lo..c_hi`` x ``lo..hi`` is in channel coordinates and
    already clipped to the layer.  Yields ``(channel, lo, hi)`` for each
    gap popped, clamped to the box; yields nothing, and notes no search,
    when the point lies outside the box or under a segment of an owner
    not in ``passable``.  Pops count against ``max_gaps`` and ``budget``
    is consulted every few dozen pops, as in :func:`trace`; either stops
    the walk early, marked capped.  ``stats`` is noted when the walk
    ends, so consume it to the end.

    ``views`` is a Lee search's views of this layer; each read of one
    that is already built counts a ``gap_hits``.
    """
    if not (c_lo <= ca <= c_hi and lo <= xa <= hi):
        return
    shared = views is not None
    views, base, span_lo, span_hi = _call_views(
        layer, views, c_lo, c_hi, lo, hi
    )
    hits = 0
    view = views[ca - base]
    if view is None:
        view = views[ca - base] = _build_view(
            layer, ca, passable, span_lo, span_hi
        )
    else:
        hits += 1
    los, his = view
    si = bisect_right(los, xa) - 1
    if si < 0 or his[si] < xa:
        if shared:
            layer.gap_hits += hits
        return
    # Gap gi of channel c has key c * stride + gi.
    stride = layer.channel_length + 1
    seen = {ca * stride + si}
    seen_add = seen.add
    glo, ghi = los[si], his[si]
    stack = [(ca, glo if glo > lo else lo, ghi if ghi < hi else hi)]
    pop = stack.pop
    push = stack.append
    examined = 0
    capped = False
    while stack:
        c, glo, ghi = pop()
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
        yield c, glo, ghi
        for nc in (c - 1, c + 1):
            if nc < c_lo or nc > c_hi:
                continue
            view = views[nc - base]
            if view is None:
                view = views[nc - base] = _build_view(
                    layer, nc, passable, span_lo, span_hi
                )
            else:
                hits += 1
            nlos, nhis = view
            i = bisect_left(nhis, glo)
            j = bisect_right(nlos, ghi, i)
            first = nc * stride
            for ngi in range(i, j):
                key = first + ngi
                if key not in seen:
                    seen_add(key)
                    nglo = nlos[ngi]
                    nghi = nhis[ngi]
                    push((
                        nc,
                        nglo if nglo > lo else lo,
                        nghi if nghi < hi else hi,
                    ))
    if shared:
        layer.gap_hits += hits
    if stats is not None:
        stats.note(examined, capped)


#: Sort key of a trace child: its distance to the destination.
_distance = itemgetter(0)


def trace(
    layer: LayerData,
    a: GridPoint,
    b: GridPoint,
    box: Box,
    passable: FrozenSet[int] = frozenset(),
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional["BudgetTracker"] = None,
    views: Optional[LayerViews] = None,
) -> Optional[List[ChannelPiece]]:
    """Find a rectilinear path from ``a`` to ``b`` on one layer inside ``box``.

    Returns the path as channel pieces ``(channel_index, lo, hi)`` with the
    large gap overlaps already trimmed back to single junction points
    (Figure 7), or None if no path exists within the box.  A search that
    pops more than ``max_gaps`` gaps gives up and also returns None, but
    marks ``stats`` as capped — truncation, not a proven blockage.  A
    timed ``budget`` (see :mod:`repro.core.budget`) is consulted every few
    dozen pops; exhaustion truncates the search exactly like the cap.

    ``views`` is a Lee search's views of this layer (the retrace passes
    them); None builds box-clipped lists for this call.  Children of a
    gap are pushed farthest-first, so the one nearest the destination is
    searched first.
    """
    ca, xa = layer.point_cc(a)
    cb, xb = layer.point_cc(b)
    c_lo, c_hi, lo, hi = _clip(layer, *layer.box_cc(box))
    if not (
        c_lo <= ca <= c_hi
        and lo <= xa <= hi
        and c_lo <= cb <= c_hi
        and lo <= xb <= hi
    ):
        return None
    shared = views is not None
    views, base, span_lo, span_hi = _call_views(
        layer, views, c_lo, c_hi, lo, hi
    )
    hits = 0
    view = views[ca - base]
    if view is None:
        view = views[ca - base] = _build_view(
            layer, ca, passable, span_lo, span_hi
        )
    else:
        hits += 1
    los, his = view
    si = bisect_right(los, xa) - 1
    if si < 0 or his[si] < xa:
        if shared:
            layer.gap_hits += hits
        return None
    stride = layer.channel_length + 1
    start = ca * stride + si
    slo, shi = max(los[si], lo), min(his[si], hi)
    parents: Dict[int, Optional[int]] = {start: None}
    goal: Optional[int] = None
    if ca == cb and slo <= xb <= shi:
        goal = start
    # Entries (distance, gap key, channel, clamped lo, clamped hi).
    stack = [(0, start, ca, slo, shi)]
    examined = 0
    capped = False
    while stack and goal is None:
        _, key, c, glo, ghi = stack.pop()
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
        children = []
        for nc in (c - 1, c + 1):
            if nc < c_lo or nc > c_hi:
                continue
            view = views[nc - base]
            if view is None:
                view = views[nc - base] = _build_view(
                    layer, nc, passable, span_lo, span_hi
                )
            else:
                hits += 1
            nlos, nhis = view
            i = bisect_left(nhis, glo)
            j = bisect_right(nlos, ghi, i)
            first = nc * stride
            for ngi in range(i, j):
                nkey = first + ngi
                if nkey in parents:
                    continue
                parents[nkey] = key
                nglo = nlos[ngi]
                if nglo < lo:
                    nglo = lo
                nghi = nhis[ngi]
                if nghi > hi:
                    nghi = hi
                if nc == cb and nglo <= xb <= nghi:
                    goal = nkey
                    break
                if xb < nglo:
                    along = nglo - xb
                elif xb > nghi:
                    along = xb - nghi
                else:
                    along = 0
                children.append((abs(nc - cb) + along, nkey, nc, nglo, nghi))
            if goal is not None:
                break
        if len(children) > 1:
            # Stable, so equally near children keep their discovery order.
            children.sort(key=_distance, reverse=True)
        stack.extend(children)
    if shared:
        layer.gap_hits += hits
    if stats is not None:
        stats.note(examined, capped)
    if goal is None:
        return None
    chain: List[int] = []
    node: Optional[int] = goal
    while node is not None:
        chain.append(node)
        node = parents[node]
    chain.reverse()
    channels: List[int] = []
    gaps: List[Tuple[int, int]] = []
    for key in chain:
        c, gi = divmod(key, stride)
        nlos, nhis = views[c - base]
        channels.append(c)
        gaps.append((max(nlos[gi], lo), min(nhis[gi], hi)))
    return _trim_chain(channels, gaps, xa, xb)


def _trim_chain(
    channels: List[int], gaps: List[Tuple[int, int]], xa: int, xb: int
) -> List[ChannelPiece]:
    """Trim gap overlaps back to single junction points (Section 7.1).

    Junctions are chosen by clamping the destination coordinate into each
    overlap, working backwards from the target, which funnels the trace
    towards ``b`` and keeps it short.
    """
    n = len(channels)
    junctions = [0] * (n - 1)
    desired = xb
    for i in range(n - 2, -1, -1):
        (l1, h1), (l2, h2) = gaps[i], gaps[i + 1]
        lo = l1 if l1 > l2 else l2
        hi = h1 if h1 < h2 else h2
        if desired < lo:
            desired = lo
        elif desired > hi:
            desired = hi
        junctions[i] = desired
    junctions.append(xb)
    pieces: List[ChannelPiece] = []
    prev = xa
    for channel, j in zip(channels, junctions):
        pieces.append((channel, prev, j) if prev <= j else (channel, j, prev))
        prev = j
    return pieces


def reachable_vias(
    layer: LayerData,
    ca: int,
    xa: int,
    c_lo: int,
    c_hi: int,
    lo: int,
    hi: int,
    passable: FrozenSet[int],
    via_map: ViaMap,
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional["BudgetTracker"] = None,
    views: Optional[LayerViews] = None,
) -> List[int]:
    """All free via sites reachable from ``(ca, xa)`` on one layer in a box.

    This is the paper's *Vias* procedure: it defines the "neighbors" of a
    via in the generalized Lee algorithm (Modification 1).  Points and
    the box are in channel coordinates (:meth:`LayerData.point_cc`): the
    box spans channels ``c_lo..c_hi`` and coordinates ``lo..hi`` along
    them, clipped to the layer here.  Sites come back as flat via-map
    indices ``vx * via_ny + vy``, in search order; a site counts as free
    when the via map allows drilling for a passable owner.

    ``views`` is a Lee search's views of this layer, shared by every call
    of the search; None builds box-clipped lists for this call.

    The depth-first search clamps each gap to the box as it is pushed, so
    full-span views and clipped lists pop exactly the same gaps in the
    same order: for a current gap clamped to ``[glo, ghi]`` inside the
    box, a neighbor's full gap overlaps it iff its clipped gap does
    (``min(nghi, hi) >= glo`` iff ``nghi >= glo``, since
    ``hi >= ghi >= glo``, and symmetrically), the clipped list of a
    channel is a contiguous run of its full list, and clamped extents
    equal clipped ones.  So the via sites, their order, the
    :class:`SearchStats`, the cap and budget checkpoints and the via
    map's ``probe_count`` do not depend on where the views came from.
    """
    c_lo, c_hi, lo, hi = _clip(layer, c_lo, c_hi, lo, hi)
    g = layer.grid.grid_per_via
    ny = via_map.via_ny
    # Site v of via channel vc has flat index vc * c_step + v * v_step.
    if layer.orientation is Orientation.HORIZONTAL:
        c_step, v_step = 1, ny
    else:
        c_step, v_step = ny, 1
    # ``a``'s own site is never its own neighbor.
    if ca % g or xa % g:
        a_vc = a_v = skip = -1
    else:
        a_vc, a_v = ca // g, xa // g
        skip = a_vc * c_step + a_v * v_step
    # Inline ViaMap.is_available: a free site (count zero) is available
    # to everyone, a covered one only to its passable sole owner.  The
    # sole-owner map is keyed by (vx, vy), which ``divmod`` of the flat
    # index is; MIXED and None are never in ``passable``.
    count = via_map._count
    sole_get = via_map._sole.get
    probes = 0
    found: List[int] = []
    append = found.append
    for c, glo, ghi in _walk(
        layer, ca, xa, c_lo, c_hi, lo, hi, passable, views, max_gaps,
        stats, budget,
    ):
        if not c % g:
            v_lo = (glo + g - 1) // g
            v_hi = ghi // g
            if v_lo <= v_hi:
                vc = c // g
                probes += v_hi - v_lo + 1
                if vc == a_vc and v_lo <= a_v <= v_hi:
                    probes -= 1
                first = vc * c_step
                for s in range(
                    first + v_lo * v_step, first + v_hi * v_step + 1, v_step
                ):
                    if s != skip and (
                        not count[s] or sole_get(divmod(s, ny)) in passable
                    ):
                        append(s)
    via_map.probe_count += probes
    return found


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
    used to select victims to be ripped up.  The walk is *Vias*'s
    (:func:`_walk`), over lists clipped to the box; a gap clamped at the
    box edge reports the owner just outside the box.
    """
    ca, xa = layer.point_cc(a)
    c_lo, c_hi, lo, hi = _clip(layer, *layer.box_cc(box))
    if not (c_lo <= ca <= c_hi and lo <= xa <= hi):
        return set()
    channels = layer.channels
    blocker = channels[ca].owner_at(xa)
    if blocker is not None and blocker not in passable:
        # The point itself is buried under another connection: that owner
        # is the obstruction.
        return {blocker}
    owners: Set[int] = set()
    last = layer.channel_length - 1
    last_channel = layer.n_channels - 1
    for c, glo, ghi in _walk(
        layer, ca, xa, c_lo, c_hi, lo, hi, passable, None, max_gaps, stats
    ):
        channel = channels[c]
        # Used segments bounding the gap along the channel.
        for x in (glo - 1, ghi + 1):
            if 0 <= x <= last:
                owner = channel.owner_at(x)
                if owner is not None and owner not in passable:
                    owners.add(owner)
        # Used segments flanking the gap in the neighboring channels.
        for nc in (c - 1, c + 1):
            if 0 <= nc <= last_channel:
                owners |= channels[nc].owners_in(glo, ghi, passable)
    return owners
