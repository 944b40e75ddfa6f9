"""Reusable goal-oriented distance lower bounds for the Lee search.

The paper's wavefront heuristic ``distance(n, target) * hops`` guides the
search but never *prunes*: every reachable via stays expandable even when
a sound bound proves it cannot beat the best known meeting path.  Ahrens
et al. (arXiv 2111.06169) show that goal-oriented search with
precomputed, **reusable** lower bounds is the dominant speedup for bulk
and incremental detailed routing.  This module supplies those bounds to
``search="goal"`` mode (see :mod:`repro.core.lee`).

Two bounds are served per (target, passable) pair, both in via-grid
units and both valid for the search metric goal mode orders on — the
accumulated Manhattan length of the via-waypoint chain:

* :meth:`TargetBounds.lower_bound` — distance.  The floor is plain
  Manhattan distance (the rectilinear analogue of the octile bound, and
  the fallback whenever the interval scan cannot strengthen it).  On top
  of that sits a *channel-interval* refinement derived from via-site
  availability around the target: the final hop onto the target must
  start at an available via site inside the target's arrival band (rows
  within ``radius`` on a horizontal layer, columns within ``radius`` on
  a vertical one — the strip geometry of
  :meth:`repro.grid.routing_grid.RoutingGrid.via_strip`).  When the
  nearest such landing column/row sits ``D`` via units away, any
  approach from closer than ``D`` must overshoot and come back, which
  adds ``2*D - |delta|`` to the straight-line cost.  Near congested
  pins — exactly where Lee searches blow up — this lifts the bound well
  above Manhattan.
* :meth:`TargetBounds.hop_bound` — a floor on remaining *hops* from the
  per-hop strip geometry: a horizontal-layer hop moves at most
  ``radius`` via rows off its channel (and any distance along it), a
  vertical-layer hop at most ``radius`` via columns.  On
  single-orientation boards this exposes provably unreachable targets
  (``HOPS_UNREACHABLE``), which goal mode prunes outright.

Entries live in a :class:`LowerBoundCache`: generation stamps, lazy
revalidation at lookup, no explicit invalidation calls.  The stamps are
the via map's per-row/per-column mutation generations
(:attr:`repro.channels.via_map.ViaMap.row_gen` / ``col_gen``), bumped by
the ``add_segment``/``remove_segment`` funnel — an entry goes stale
exactly when a mutation touches the via rows or columns of its arrival
bands, so warm entries survive across connections and ECO edits
untouched by the bands.

Because a rebuilt entry is a pure function of current board state (never
of cache history), warm and cold caches always serve identical values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Tuple

from repro.grid.coords import ViaPoint, manhattan
from repro.grid.geometry import Orientation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.workspace import RoutingWorkspace

#: The two recognised spellings of ``RouterConfig.search``.
SEARCH_MODES = ("classic", "goal")

#: How far (in via units) the band scan looks for an available landing
#: site on each side of the target before giving up.  Beyond the horizon
#: the true distance can only be larger, so the capped value stays a
#: lower bound — the refinement just stops growing.
BAND_HORIZON = 12

#: ``hop_bound`` result meaning the target is provably unreachable by
#: the hop geometry (single-orientation board, ``radius`` too small to
#: ever change the cross coordinate).  Any finite expansion budget is
#: exceeded by it.
HOPS_UNREACHABLE = 1 << 30


class TargetBounds:
    """Lower bounds toward one target for one passable set.

    Immutable after construction; rebuilt (never patched) when stale.
    All distances are via-grid-unit integers, so heap keys built from
    them are exact.
    """

    __slots__ = (
        "target",
        "radius",
        "has_h",
        "has_v",
        "d_left",
        "d_right",
        "d_down",
        "d_up",
        "stamp",
    )

    def __init__(
        self,
        target: ViaPoint,
        radius: int,
        has_h: bool,
        has_v: bool,
        d_left: int,
        d_right: int,
        d_down: int,
        d_up: int,
        stamp: Tuple[int, ...],
    ) -> None:
        self.target = target
        self.radius = radius
        self.has_h = has_h
        self.has_v = has_v
        #: Via units from the target to the nearest available landing
        #: column on its left/right inside the horizontal arrival band
        #: (``BAND_HORIZON + 1`` when none was found within the horizon).
        self.d_left = d_left
        self.d_right = d_right
        #: Same for the nearest landing row below/above inside the
        #: vertical arrival band.
        self.d_down = d_down
        self.d_up = d_up
        #: Via-map row/col generations the entry was computed under.
        self.stamp = stamp

    def lower_bound(self, via: ViaPoint) -> int:
        """Admissible lower bound on the waypoint-chain length to target.

        Any route ends with a hop from an available via site ``p`` inside
        an arrival band onto the target ``t``; the chain length from
        ``via`` is at least ``manhattan(via, p) + manhattan(p, t)``.
        Minimising over each band's nearest available sites (one per
        side) gives the per-orientation bounds combined here.  Never
        below plain Manhattan distance.
        """
        t = self.target
        dx = via.vx - t.vx
        dy = via.vy - t.vy
        if dx == 0 and dy == 0:
            return 0
        adx = -dx if dx < 0 else dx
        ady = -dy if dy < 0 else dy
        base = adx + ady
        refined = HOPS_UNREACHABLE
        if self.has_h:
            # Arrive on a horizontal layer: p in the row band, so the
            # x-detour is governed by the nearest landing columns.
            if dx <= -self.d_left:
                x_part = -dx
            elif dx >= self.d_right:
                x_part = dx
            else:
                x_part = min(dx + 2 * self.d_left, 2 * self.d_right - dx)
            h_bound = ady + x_part
            if h_bound < refined:
                refined = h_bound
        if self.has_v:
            if dy <= -self.d_down:
                y_part = -dy
            elif dy >= self.d_up:
                y_part = dy
            else:
                y_part = min(dy + 2 * self.d_down, 2 * self.d_up - dy)
            v_bound = adx + y_part
            if v_bound < refined:
                refined = v_bound
        if refined > base and refined < HOPS_UNREACHABLE:
            return refined
        return base

    def hop_bound(self, via: ViaPoint) -> int:
        """Floor on remaining hops to the target from strip geometry.

        A horizontal-layer hop changes the via row by at most ``radius``
        (a vertical-layer hop the via column); with both orientations
        available two hops always suffice geometrically, so the value
        only bites near exhausted budgets — and on single-orientation
        boards, where it can prove a target unreachable outright.
        """
        t = self.target
        dx = via.vx - t.vx
        dy = via.vy - t.vy
        if dx == 0 and dy == 0:
            return 0
        adx = -dx if dx < 0 else dx
        ady = -dy if dy < 0 else dy
        r = self.radius
        if self.has_h and self.has_v:
            if ady <= r or adx <= r:
                return 1
            return 2
        if self.has_h:
            if ady == 0:
                return 1
            if r == 0:
                return HOPS_UNREACHABLE
            return -(-ady // r)  # ceil
        if self.has_v:
            if adx == 0:
                return 1
            if r == 0:
                return HOPS_UNREACHABLE
            return -(-adx // r)
        return HOPS_UNREACHABLE


class LowerBoundCache:
    """Generation-stamped cache of :class:`TargetBounds` entries.

    One per workspace (see ``RoutingWorkspace.lower_bounds``), shared by
    every goal-mode search against it.  Lookup revalidates the entry's
    stamp against the via map's row/col generations and rebuilds in
    place when stale; ``hits``/``rebuilds`` feed the ``lb_hits`` /
    ``lb_rebuilds`` profile counters and the ``bounds_stats`` obs event.
    """

    def __init__(self, workspace: "RoutingWorkspace") -> None:
        self.workspace = workspace
        self._entries: Dict[
            Tuple[ViaPoint, FrozenSet[int], int], TargetBounds
        ] = {}
        self.hits = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # lookup (the only public entry point)
    # ------------------------------------------------------------------

    def lookup(
        self, target: ViaPoint, passable: FrozenSet[int], radius: int
    ) -> TargetBounds:
        """The bounds toward ``target`` for ``passable``, warm or rebuilt."""
        key = (target, passable, radius)
        stamp = self._stamp(target, radius)
        entry = self._entries.get(key)
        if entry is not None and entry.stamp == stamp:
            self.hits += 1
            return entry
        entry = self._build(target, passable, radius, stamp)
        self._entries[key] = entry
        self.rebuilds += 1
        return entry

    def stats(self) -> Tuple[int, int]:
        """(hits, rebuilds) since construction or :meth:`reset_stats`."""
        return self.hits, self.rebuilds

    def reset_stats(self) -> None:
        self.hits = 0
        self.rebuilds = 0

    def clear(self) -> None:
        """Drop every entry (stats survive)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # stamping
    # ------------------------------------------------------------------

    def _stamp(self, target: ViaPoint, radius: int) -> Tuple[int, ...]:
        """Via-map generations of the target's arrival bands.

        Any availability change inside the horizontal band happens at a
        site whose via row is stamped; any change inside the vertical
        band at a site whose via column is stamped — so a matching stamp
        proves every probe of the band scan would answer the same today.
        """
        via_map = self.workspace.via_map
        row_gen = via_map.row_gen
        col_gen = via_map.col_gen
        ny = via_map.via_ny
        nx = via_map.via_nx
        rows = range(
            max(0, target.vy - radius), min(ny - 1, target.vy + radius) + 1
        )
        cols = range(
            max(0, target.vx - radius), min(nx - 1, target.vx + radius) + 1
        )
        return tuple(row_gen[y] for y in rows) + tuple(
            col_gen[x] for x in cols
        )

    # ------------------------------------------------------------------
    # rebuild: the channel-interval band scan
    # ------------------------------------------------------------------

    def _build(
        self,
        target: ViaPoint,
        passable: FrozenSet[int],
        radius: int,
        stamp: Tuple[int, ...],
    ) -> TargetBounds:
        """Scan the arrival bands for their nearest available landings.

        Every candidate site is probed, in a fixed order with no early
        exit, so ``ViaMap.probe_count`` depends only on the geometry.
        """
        ws = self.workspace
        via_map = ws.via_map
        nx, ny = via_map.via_nx, via_map.via_ny
        has_h = any(
            layer.orientation is Orientation.HORIZONTAL
            for layer in ws.layers
        )
        has_v = any(
            layer.orientation is Orientation.VERTICAL
            for layer in ws.layers
        )
        tx, ty = target.vx, target.vy
        xs: List[int] = []
        ys: List[int] = []
        if has_h:
            rows = range(max(0, ty - radius), min(ny - 1, ty + radius) + 1)
            for x in range(max(0, tx - BAND_HORIZON),
                           min(nx - 1, tx + BAND_HORIZON) + 1):
                for y in rows:
                    if x == tx and y == ty:
                        continue  # the target itself is not a landing
                    xs.append(x)
                    ys.append(y)
        h_sites = len(xs)
        if has_v:
            cols = range(max(0, tx - radius), min(nx - 1, tx + radius) + 1)
            for y in range(max(0, ty - BAND_HORIZON),
                           min(ny - 1, ty + BAND_HORIZON) + 1):
                for x in cols:
                    if x == tx and y == ty:
                        continue
                    xs.append(x)
                    ys.append(y)
        is_available = via_map.is_available_xy
        available = [is_available(x, y, passable) for x, y in zip(xs, ys)]
        cap = BAND_HORIZON + 1
        d_left = d_right = d_down = d_up = cap
        for i in range(h_sites):
            if not available[i]:
                continue
            off = xs[i] - tx
            if off < 0:
                if -off < d_left:
                    d_left = -off
            elif off < d_right:
                d_right = off
        for i in range(h_sites, len(xs)):
            if not available[i]:
                continue
            off = ys[i] - ty
            if off < 0:
                if -off < d_down:
                    d_down = -off
            elif off < d_up:
                d_up = off
        return TargetBounds(
            target, radius, has_h, has_v,
            d_left, d_right, d_down, d_up, stamp,
        )


def chain_cost(waypoints: List[ViaPoint]) -> int:
    """Accumulated Manhattan length of a via-waypoint chain, in via units.

    The metric goal mode's ``g`` accumulates and its bounds must stay
    under — exported for the admissibility property tests.
    """
    return sum(
        manhattan(waypoints[i], waypoints[i + 1])
        for i in range(len(waypoints) - 1)
    )
