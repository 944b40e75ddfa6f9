"""The via map: cached per-via-site usage counts (Section 4).

"Inquiries about the availability of via sites are two to four orders of
magnitude more frequent than updates of via site usage. ... a separate via
map is maintained, and updated each time segments are added and deleted from
a layer.  The via map is indexed by (x,y) in via coordinates ... and holds
the number of traces that are using this via location on any layer.  This
number will be zero if the via location is free. ... It will be equal to the
number of signal layers for a used via."

Besides the count this implementation tracks, per site, the *sole owner* of
the covering segments (or a MIXED marker) so that a connection can reuse its
own via sites, and the owner of an actually drilled via.

The count grid is a flat stdlib ``array('i')`` — scalar probes index it
faster than a numpy array, and it keeps the core numpy-free.
:func:`repro.core.single_layer.reachable_vias` reads it inline.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, FrozenSet, Iterator, Optional, Set

from repro.grid.coords import ViaPoint


class _MixedMarker:
    """Marker type of :data:`MIXED` (prints as ``MIXED``)."""

    def __repr__(self) -> str:
        return "MIXED"


#: Marker meaning segments from more than one owner cover the site.
MIXED = _MixedMarker()


class ViaMap:
    """Per-via-site usage counts and ownership."""

    def __init__(self, via_nx: int, via_ny: int, n_layers: int) -> None:
        self.via_nx = via_nx
        self.via_ny = via_ny
        self.n_layers = n_layers
        #: Flat row-major (vx * via_ny + vy) cover counts.
        self._count = array("i", [0]) * (via_nx * via_ny)
        self._sole: Dict[ViaPoint, object] = {}
        self._drilled: Dict[ViaPoint, int] = {}
        #: Instrumentation for the Section 4 claim that availability
        #: probes are "two to four orders of magnitude more frequent
        #: than updates" (measured by benchmarks/bench_via_map.py).
        self.probe_count = 0
        self.update_count = 0

    # ------------------------------------------------------------------
    # probes (the hot path)
    # ------------------------------------------------------------------

    def count(self, via: ViaPoint) -> int:
        """Number of layer segments covering the site."""
        return self._count[via.vx * self.via_ny + via.vy]

    def is_available(
        self, via: ViaPoint, passable: FrozenSet[int] = frozenset()
    ) -> bool:
        """True if a via may be drilled here by a connection in ``passable``.

        Free sites (count zero) are available to everyone; covered sites are
        available only when every covering segment belongs to a passable
        owner (typically the connection's own traces or pins).
        """
        self.probe_count += 1
        if not self._count[via.vx * self.via_ny + via.vy]:
            return True
        sole = self._sole.get(via)
        return sole is not MIXED and sole in passable

    def drilled_owner(self, via: ViaPoint) -> Optional[int]:
        """Owner of the via drilled at the site, or None."""
        return self._drilled.get(via)

    def is_drilled(self, via: ViaPoint) -> bool:
        """True if an actual via (or pin hole) exists at the site."""
        return via in self._drilled

    def used_via_count(self) -> int:
        """Number of drilled vias (the vias column of Table 1 counts these)."""
        return len(self._drilled)

    # ------------------------------------------------------------------
    # audit accessors (read-only views for repro.obs.audit)
    # ------------------------------------------------------------------

    def sole_owner(self, via: ViaPoint) -> Optional[object]:
        """Cached sole owner at the site: an owner id, MIXED, or None.

        None means the cache holds nothing for the site (count zero).
        Unlike :meth:`is_available` this does not bump ``probe_count`` —
        it exists for the auditor, not the routing hot path.
        """
        return self._sole.get(via)

    def covered_sites(self) -> Iterator[ViaPoint]:
        """Every site with a nonzero cover count, in scan order."""
        ny = self.via_ny
        for i, count in enumerate(self._count):
            if count > 0:
                yield ViaPoint(i // ny, i % ny)

    # ------------------------------------------------------------------
    # updates (rare relative to probes)
    # ------------------------------------------------------------------

    def add_cover(self, via: ViaPoint, owner: int) -> None:
        """Record one more layer segment covering the site."""
        self.update_count += 1
        flat = via.vx * self.via_ny + via.vy
        count = self._count[flat]
        self._count[flat] = count + 1
        if count == 0:
            self._sole[via] = owner
        elif self._sole.get(via) != owner:
            self._sole[via] = MIXED

    def remove_cover(
        self,
        via: ViaPoint,
        owner: int,
        recompute_owners: Optional[Callable[[ViaPoint], Set[int]]] = None,
    ) -> None:
        """Record removal of a covering segment.

        If the site had mixed owners, the sole-owner cache can only be
        restored by rescanning the layers; ``recompute_owners`` provides
        that (the workspace passes its layer query).  Without it the site
        conservatively stays MIXED until it empties.
        """
        self.update_count += 1
        flat = via.vx * self.via_ny + via.vy
        count = self._count[flat]
        if count <= 0:
            raise ValueError(f"via map underflow at {via}")
        self._count[flat] = count - 1
        if count == 1:
            self._sole.pop(via, None)
            return
        if self._sole.get(via) is MIXED and recompute_owners is not None:
            owners = recompute_owners(via)
            if len(owners) == 1:
                self._sole[via] = next(iter(owners))

    def drill(self, via: ViaPoint, owner: int) -> None:
        """Mark a via as drilled by ``owner`` (hole through all layers)."""
        if via in self._drilled:
            raise ValueError(f"via {via} already drilled")
        self._drilled[via] = owner

    def undrill(self, via: ViaPoint, owner: int) -> None:
        """Remove a drilled via; owner must match."""
        if self._drilled.get(via) != owner:
            raise ValueError(f"via {via} not drilled by {owner}")
        del self._drilled[via]

    def drilled_sites(self) -> Dict[ViaPoint, int]:
        """Snapshot of every drilled via and its owner (for power planes)."""
        return dict(self._drilled)
