"""The box-clipped *Vias* search, kept as a reference for parity tests.

A copy of ``repro.core.single_layer.reachable_vias`` as it was before Lee
searches shared full-span gap views: a generator depth-first search over
per-call ``Channel.free_gaps(lo, hi, passable)`` lists clipped to the
box, with every candidate site probed through ``ViaMap.is_available``.
It shares no code with the production search beyond the channel and via
map primitives, so the production search must match it exactly: the same
sites in the same order, the same :class:`SearchStats`, and the same
``ViaMap.probe_count`` delta.  :func:`reference_vias_flat` puts it behind
the production signature, to be patched over ``repro.core.lee.reachable_vias``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.channels.layer_data import LayerData
from repro.channels.via_map import ViaMap
from repro.core.budget import SEARCH_CHECK_MASK, BudgetTracker
from repro.core.single_layer import DEFAULT_MAX_GAPS, SearchStats
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box, Orientation

GapKey = Tuple[int, int]


class _ClippedFreeSpace:
    """Per-call memo of box-clipped free gaps."""

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

    def in_box(self, channel_index: int, coord: int) -> bool:
        return (
            self.c_lo <= channel_index <= self.c_hi
            and self.lo <= coord <= self.hi
        )

    def gaps(self, channel_index: int) -> List[Tuple[int, int]]:
        cached = self._gaps.get(channel_index)
        if cached is None:
            cached = self.layer.channels[channel_index].free_gaps(
                self.lo, self.hi, self.passable
            )
            self._gaps[channel_index] = cached
        return cached

    def gap_index_at(self, channel_index: int, coord: int) -> Optional[int]:
        gaps = self.gaps(channel_index)
        i = bisect_right(gaps, (coord, 1 << 62)) - 1
        if i >= 0 and gaps[i][1] >= coord:
            return i
        return None


def _adjacent_gaps(
    fs: _ClippedFreeSpace, channel_index: int, glo: int, ghi: int
) -> Iterator[Tuple[GapKey, Tuple[int, int]]]:
    for nc in (channel_index - 1, channel_index + 1):
        if not fs.c_lo <= nc <= fs.c_hi:
            continue
        for ngi, (nglo, nghi) in enumerate(fs.gaps(nc)):
            if nghi < glo:
                continue
            if nglo > ghi:
                break
            yield (nc, ngi), (nglo, nghi)


def _explore_all(
    fs: _ClippedFreeSpace,
    start: GapKey,
    max_gaps: int,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
) -> Iterator[GapKey]:
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
        if (
            budget is not None
            and (examined & SEARCH_CHECK_MASK) == 0
            and budget.search_exceeded()
        ):
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


def reference_reachable_vias(
    layer: LayerData,
    a: GridPoint,
    box: Box,
    passable: FrozenSet[int],
    via_map: ViaMap,
    max_gaps: int = DEFAULT_MAX_GAPS,
    stats: Optional[SearchStats] = None,
    budget: Optional[BudgetTracker] = None,
    views=None,
) -> List[ViaPoint]:
    """``reachable_vias`` over box-clipped lists; ``views`` is ignored."""
    ca, xa = layer.point_cc(a)
    fs = _ClippedFreeSpace(layer, box, passable)
    if not fs.in_box(ca, xa):
        return []
    a_via = (
        layer.grid.grid_to_via(a) if layer.grid.is_via_site(a) else None
    )
    start_index = fs.gap_index_at(ca, xa)
    if start_index is None:
        return []
    found: List[ViaPoint] = []
    for c, gi in _explore_all(fs, (ca, start_index), max_gaps, stats, budget):
        if not layer.is_via_channel(c):
            continue
        glo, ghi = fs.gaps(c)[gi]
        for via in layer.via_sites_in(c, glo, ghi):
            if via != a_via and via_map.is_available(via, passable):
                found.append(via)
    return found


def reference_vias_flat(
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
    budget: Optional[BudgetTracker] = None,
    views=None,
) -> List[int]:
    """:func:`reference_reachable_vias` with ``reachable_vias``'s
    channel-coordinate arguments and flat site indices."""
    if layer.orientation is Orientation.HORIZONTAL:
        box = Box(lo, c_lo, hi, c_hi)
    else:
        box = Box(c_lo, lo, c_hi, hi)
    ny = via_map.via_ny
    return [
        via.vx * ny + via.vy
        for via in reference_reachable_vias(
            layer, layer.cc_point(ca, xa), box, passable, via_map,
            max_gaps, stats, budget,
        )
    ]
