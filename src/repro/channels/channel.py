"""The production channel: disjoint used segments with fast interval probes.

The paper stores each channel as a doubly-linked segment list with a moving
head-of-list pointer, exploiting the locality of probes while routing one
connection.  In Python the equivalent engineering choice is a sorted array
probed with C-implemented ``bisect`` — same disjoint-segment model, same
O(overlap) enumeration, without interpreter-speed pointer chasing.  The
paper's two historical structures (moving-head list and binary tree) are
implemented verbatim in :mod:`repro.channels.alternatives` and compared in
``benchmarks/bench_channel_structure.py`` (experiment E7).

Invariants (checked by tests and hypothesis properties):

* segments are disjoint — every grid cell has at most one owner;
* segments are sorted by ``lo``;
* ``add`` never merges: each inserted piece stays an individual segment so
  that removal by exact bounds is always possible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.channels.segment import Segment

NO_PASSABLE: FrozenSet[int] = frozenset()

#: One channel's free gaps as parallel sorted bound lists ``(los, his)``
#: — the unit every single-layer search walks.  Read-only once built.
GapView = Tuple[List[int], List[int]]


class ChannelConflictError(ValueError):
    """An added segment overlaps a segment with a different owner."""


class Channel:
    """Used segments along one grid line, sorted and disjoint."""

    __slots__ = ("_los", "_his", "_owners")

    def __init__(self) -> None:
        self._los: List[int] = []
        self._his: List[int] = []
        self._owners: List[int] = []

    def __len__(self) -> int:
        return len(self._los)

    def __iter__(self) -> Iterator[Segment]:
        for lo, hi, owner in zip(self._los, self._his, self._owners):
            yield Segment(lo, hi, owner)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    def _first_overlap_index(self, lo: int) -> int:
        """Index of the first segment whose ``hi`` >= ``lo``.

        Because segments are disjoint and sorted, ``_his`` is sorted too,
        so a bisect on either array finds the scan start in O(log n).
        """
        return bisect_left(self._his, lo)

    def overlapping(self, lo: int, hi: int) -> Iterator[Segment]:
        """Segments sharing at least one cell with ``[lo, hi]``, in order."""
        i = self._first_overlap_index(lo)
        while i < len(self._los) and self._los[i] <= hi:
            yield Segment(self._los[i], self._his[i], self._owners[i])
            i += 1

    def spans(self) -> Iterator[Tuple[int, int, int]]:
        """``(lo, hi, owner)`` of every segment in order, as plain tuples.

        A read-only view for whole-board scans (:mod:`repro.verify.drc`)
        that would otherwise build a :class:`Segment` per segment.
        """
        return zip(self._los, self._his, self._owners)

    def owner_at(self, x: int) -> Optional[int]:
        """Owner of the segment covering cell ``x``, or None if free."""
        i = self._first_overlap_index(x)
        if i < len(self._los) and self._los[i] <= x:
            return self._owners[i]
        return None

    def is_free(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> bool:
        """True if no cell in ``[lo, hi]`` is used by a non-passable owner."""
        los, owners = self._los, self._owners
        n = len(los)
        i = bisect_left(self._his, lo)
        while i < n and los[i] <= hi:
            if owners[i] not in passable:
                return False
            i += 1
        return True

    def free_gaps(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> List[Tuple[int, int]]:
        """Maximal sub-intervals of ``[lo, hi]`` free of non-passable owners.

        Passable segments count as free space, so gaps merge across them —
        this is how a connection walks over its own vias and traces.
        """
        return list(zip(*self.gap_view(lo, hi, passable)))

    def gap_view(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> GapView:
        """:meth:`free_gaps` as parallel bound lists ``(los, his)``.

        Every free-gap list a search builds lands here, so it works on
        the parallel arrays directly and builds no pair per gap.  The
        blocking segments overlapping ``[lo, hi]`` are ``i..j-1``; each
        leaves a gap before it when it starts past the cursor.
        """
        los, his = self._los, self._his
        i = bisect_left(his, lo)
        j = bisect_right(los, hi, i)
        gap_los: List[int] = []
        gap_his: List[int] = []
        add_lo, add_hi = gap_los.append, gap_his.append
        cursor = lo
        if passable:
            owners = self._owners
            for k in range(i, j):
                if owners[k] not in passable:
                    start = los[k]
                    if start > cursor:
                        add_lo(cursor)
                        add_hi(start - 1)
                    # Disjoint + sorted means his[k] + 1 only ever grows.
                    cursor = his[k] + 1
        else:
            for k in range(i, j):
                start = los[k]
                if start > cursor:
                    add_lo(cursor)
                    add_hi(start - 1)
                cursor = his[k] + 1
        if cursor <= hi:
            add_lo(cursor)
            add_hi(hi)
        return gap_los, gap_his

    def gap_at(
        self, x: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> Optional[Tuple[int, int]]:
        """Maximal free-or-passable interval containing ``x``, unclipped.

        Returns None if ``x`` is covered by a non-passable segment.  The
        interval may extend to +/- infinity; callers clip to their box, so
        the open ends are returned as None markers replaced by the caller.
        This implementation walks outward from ``x`` over the segment list.
        """
        i = self._first_overlap_index(x)
        if i < len(self._los) and self._los[i] <= x:
            if self._owners[i] not in passable:
                return None
        # Walk left from the segment before x for the nearest non-passable
        # boundary; passable segments merge into the gap.
        left = None
        k = i - 1
        while k >= 0:
            if self._owners[k] not in passable:
                left = self._his[k] + 1
                break
            k -= 1
        # Walk right.
        right = None
        k = i
        if k < len(self._los) and self._los[k] <= x:
            k += 1  # skip passable segment covering x
        while k < len(self._los):
            if self._owners[k] not in passable:
                right = self._los[k] - 1
                break
            k += 1
        lo = left if left is not None else -(1 << 60)
        hi = right if right is not None else (1 << 60)
        return (lo, hi)

    def owners_in(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> set:
        """Owners of non-passable segments overlapping ``[lo, hi]``."""
        return {
            seg.owner
            for seg in self.overlapping(lo, hi)
            if seg.owner not in passable
        }

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def add(
        self,
        lo: int,
        hi: int,
        owner: int,
        passable: FrozenSet[int] = NO_PASSABLE,
    ) -> List[Tuple[int, int]]:
        """Insert ``[lo, hi]`` for ``owner``; returns the pieces inserted.

        Cells already owned by ``owner`` or by a *passable* owner are
        skipped rather than conflicting: a connection may cross its own
        earlier pieces, and its traces start and end on cells occupied by
        its endpoint pins' vias.  The return value is the list of actually
        inserted sub-intervals — exactly what must later be removed.
        Overlap with any other owner raises :class:`ChannelConflictError`
        and leaves the channel unchanged.

        One bisect finds the first overlapping segment and one scan over
        the parallel arrays both checks the overlaps and cuts the pieces
        from the gaps between them; each piece is then inserted before
        the segment that ends its gap.  When nothing overlaps — every
        pin, via and fresh trace — that is exactly one insert per array.
        """
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        los, his, owners = self._los, self._his, self._owners
        i = bisect_left(his, lo)
        n = len(los)
        if i == n or los[i] > hi:
            los.insert(i, lo)
            his.insert(i, hi)
            owners.insert(i, owner)
            return [(lo, hi)]
        # (piece lo, piece hi, index of the segment the piece precedes)
        cuts: List[Tuple[int, int, int]] = []
        cursor = lo
        j = i
        while j < n and los[j] <= hi:
            other = owners[j]
            if other != owner and other not in passable:
                raise ChannelConflictError(
                    f"[{lo},{hi}] owner {owner} overlaps "
                    f"{Segment(los[j], his[j], other)}"
                )
            if los[j] > cursor:
                cuts.append((cursor, los[j] - 1, j))
            if his[j] >= cursor:
                cursor = his[j] + 1
            j += 1
        if cursor <= hi:
            cuts.append((cursor, hi, j))
        # Insert from the right so the earlier indices stay valid.
        for plo, phi, k in reversed(cuts):
            los.insert(k, plo)
            his.insert(k, phi)
            owners.insert(k, owner)
        return [(plo, phi) for plo, phi, _ in cuts]

    def load_units(self, cells: Sequence[int], owners: Sequence[int]) -> None:
        """Fill an empty channel with unit segments ``[x, x]``.

        ``cells`` must be sorted and distinct, ``owners[k]`` owning
        ``cells[k]``.  The result equals one :meth:`add` per cell in any
        order; the workspace's one-pass pin install uses it.
        """
        if self._los:
            raise ValueError("load_units needs an empty channel")
        self._los[:] = cells
        self._his[:] = cells
        self._owners[:] = owners

    def remove(self, lo: int, hi: int, owner: int) -> None:
        """Remove the segment with exactly these bounds and owner.

        Disjointness makes ``lo`` values unique, but the lookup scans
        forward past any equal-``lo`` candidates defensively (a broken
        invariant should surface as a diagnosable KeyError below, not as
        a silently wrong deletion).  On failure the KeyError names the
        nearest actual segment, so auditor-reported removal failures say
        what *is* there instead of a bare bounds mismatch.
        """
        i = bisect_left(self._los, lo)
        j = i
        while j < len(self._los) and self._los[j] == lo:
            if self._his[j] == hi and self._owners[j] == owner:
                del self._los[j]
                del self._his[j]
                del self._owners[j]
                return
            j += 1
        raise KeyError(
            f"no segment [{lo},{hi}] owned by {owner}; "
            f"nearest is {self._nearest_description(lo)}"
        )

    def _nearest_description(self, lo: int) -> str:
        """Human-readable nearest segment to ``lo`` (for remove errors)."""
        if not self._los:
            return "nothing (channel is empty)"
        i = bisect_left(self._los, lo)
        candidates = [k for k in (i - 1, i) if 0 <= k < len(self._los)]
        k = min(candidates, key=lambda k: abs(self._los[k] - lo))
        return (
            f"[{self._los[k]},{self._his[k]}] owned by {self._owners[k]}"
        )

    def check_invariants(self) -> None:
        """Assert sortedness and disjointness (used by property tests)."""
        for i in range(len(self._los)):
            if self._his[i] < self._los[i]:
                raise AssertionError(f"segment {i} inverted")
            if i and self._los[i] <= self._his[i - 1]:
                raise AssertionError(f"segments {i - 1},{i} overlap or unsorted")
