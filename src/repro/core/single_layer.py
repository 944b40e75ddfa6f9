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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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

from repro.channels.layer_data import ChannelPiece, LayerData
from repro.core.budget import SEARCH_CHECK_MASK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import BudgetTracker
from repro.channels.via_map import MIXED, ViaMap
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box, Orientation

#: Identity of a free gap: (channel index, index in the channel's gap list).
GapKey = Tuple[int, int]

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


#: Sentinel larger than any gap hi-bound, so ``(coord, _COORD_INF)`` sorts
#: after every gap starting at ``coord`` in ``gap_index_at``'s bisect.
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
            layer.gaps_built += 1
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


#: One channel's full-span free gaps as parallel sorted bound sequences
#: ``(los, his)`` — the unit of a Lee search's gap views.
GapView = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: ``tuple.__new__`` builds a ``ViaPoint`` without the Python-level
#: ``NamedTuple.__new__`` frame; the site loop below makes one per
#: returned site.
_new_tuple = tuple.__new__


def _gap_view(
    layer: LayerData,
    views: Dict[int, GapView],
    channel_index: int,
    passable: FrozenSet[int],
) -> GapView:
    """A channel's full-span gap view from ``views``, built on first touch."""
    view = views.get(channel_index)
    if view is None:
        gaps = layer.channels[channel_index].free_gaps(
            0, layer.channel_length - 1, passable
        )
        view = tuple(zip(*gaps)) if gaps else ((), ())
        views[channel_index] = view
        layer.gaps_built += 1
    else:
        layer.gap_hits += 1
    return view


def reachable_vias(
    layer: LayerData,
    a: GridPoint,
    box: Box,
    passable: FrozenSet[int],
    via_map: ViaMap,
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional["BudgetTracker"] = None,
    views: Optional[Dict[int, GapView]] = None,
) -> List[ViaPoint]:
    """All free via sites reachable from ``a`` on one layer within ``box``.

    This is the paper's *Vias* procedure: it defines the "neighbors" of a
    via in the generalized Lee algorithm (Modification 1).  A site counts
    as free when the via map allows drilling for a passable owner.

    ``views`` memoizes this layer's full-span gap lists per channel for
    one ``passable`` set on an unchanged board: a Lee search passes the
    same dict to every call it makes on the layer, so each channel's free
    gaps are computed once per search.  None uses a fresh memo.

    The depth-first search walks those full-span lists and clamps each
    gap to the box as it is pushed.  That pops exactly the gaps a walk
    over box-clipped lists pops, in the same order: for a current gap
    clamped to ``[glo, ghi]`` inside the box, a neighbor's full gap
    overlaps it iff its clipped gap does (``min(nghi, hi) >= glo`` iff
    ``nghi >= glo``, since ``hi >= ghi >= glo``, and symmetrically), the
    clipped list of a channel is a contiguous run of its full list, and
    clamped extents equal clipped ones.  So the via sites, their order,
    the :class:`SearchStats`, the cap and budget checkpoints and the via
    map's ``probe_count`` are those of the clipped walk.
    """
    ca, xa = layer.point_cc(a)
    c_lo, c_hi, lo, hi = layer.box_cc(box)
    c_lo = max(c_lo, 0)
    c_hi = min(c_hi, layer.n_channels - 1)
    lo = max(lo, 0)
    hi = min(hi, layer.channel_length - 1)
    if not (c_lo <= ca <= c_hi and lo <= xa <= hi):
        return []
    if views is None:
        views = {}
    # This call's channels by offset from the box edge: a list probe on
    # the hot path, the shared dict only on a channel's first touch.
    local: List[Optional[GapView]] = [None] * (c_hi - c_lo + 1)
    los, his = local[ca - c_lo] = _gap_view(layer, views, ca, passable)
    si = bisect_right(los, xa) - 1
    if si < 0 or his[si] < xa:
        return []
    g = layer.grid.grid_per_via
    horizontal = layer.orientation is Orientation.HORIZONTAL
    # Via sites in channel coordinates: (via channel, index along it).
    # ``a``'s own site is never its own neighbor.
    if ca % g or xa % g:
        a_vc = a_v = -1
    else:
        a_vc, a_v = ca // g, xa // g
    # Inline ViaMap.is_available: a free site (count zero) is available
    # to everyone, a covered one only to the passable sole owner.  The
    # count index of site v on via channel vc is vc * c_step + v * v_step.
    count = via_map._count
    sole_get = via_map._sole.get
    if horizontal:
        c_step, v_step = 1, via_map.via_ny
    else:
        c_step, v_step = via_map.via_ny, 1
    probes = 0
    found: List[ViaPoint] = []
    append = found.append
    stride = layer.channel_length + 1
    seen = {ca * stride + si}
    seen_add = seen.add
    stack = [(ca, max(los[si], lo), min(his[si], hi))]
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
        if not c % g:
            v_lo = (glo + g - 1) // g
            v_hi = ghi // g
            if v_lo <= v_hi:
                vc = c // g
                skip = a_v if vc == a_vc else -1
                probes += v_hi - v_lo + 1
                if v_lo <= skip <= v_hi:
                    probes -= 1
                flat = vc * c_step + v_lo * v_step
                for v in range(v_lo, v_hi + 1):
                    if v != skip:
                        site = (v, vc) if horizontal else (vc, v)
                        if not count[flat]:
                            append(_new_tuple(ViaPoint, site))
                        else:
                            sole = sole_get(site)
                            if sole is not MIXED and sole in passable:
                                append(_new_tuple(ViaPoint, site))
                    flat += v_step
        for nc in (c - 1, c + 1):
            if nc < c_lo or nc > c_hi:
                continue
            view = local[nc - c_lo]
            if view is None:
                view = local[nc - c_lo] = _gap_view(
                    layer, views, nc, passable
                )
            nlos, nhis = view
            i = bisect_left(nhis, glo)
            j = bisect_right(nlos, ghi, i)
            base = nc * stride
            for ngi in range(i, j):
                key = base + ngi
                if key not in seen:
                    seen_add(key)
                    nglo = nlos[ngi]
                    nghi = nhis[ngi]
                    push((
                        nc,
                        nglo if nglo > lo else lo,
                        nghi if nghi < hi else hi,
                    ))
    via_map.probe_count += probes
    if stats is not None:
        stats.note(examined, capped)
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
