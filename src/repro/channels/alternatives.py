"""The paper's two historical channel structures, for the E7 ablation.

Section 12: "In earlier versions, each channel was represented as a binary
tree of segments ... The change from binary tree to doubly linked list with
a moving head-of-list pointer halved the running time on most problems."

Both structures implement the probe/update subset used by the benchmark:
``add``, ``remove``, ``overlapping``, ``is_free`` and ``free_gaps``, with
the same disjoint-segment semantics as the production
:class:`repro.channels.channel.Channel`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.channels.channel import ChannelConflictError
from repro.channels.segment import Segment

NO_PASSABLE: FrozenSet[int] = frozenset()


class _QueryMixin:
    """Derived probes shared by both alternative structures."""

    def overlapping(self, lo: int, hi: int) -> Iterator[Segment]:
        raise NotImplementedError

    def is_free(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> bool:
        """True if no cell in ``[lo, hi]`` is used by a non-passable owner."""
        for seg in self.overlapping(lo, hi):
            if seg.owner not in passable:
                return False
        return True

    def free_gaps(
        self, lo: int, hi: int, passable: FrozenSet[int] = NO_PASSABLE
    ) -> List[Tuple[int, int]]:
        """Maximal free-or-passable sub-intervals of ``[lo, hi]``."""
        gaps: List[Tuple[int, int]] = []
        cursor = lo
        for seg in self.overlapping(lo, hi):
            if seg.owner in passable:
                continue
            if seg.lo > cursor:
                gaps.append((cursor, seg.lo - 1))
            cursor = max(cursor, seg.hi + 1)
            if cursor > hi:
                break
        if cursor <= hi:
            gaps.append((cursor, hi))
        return gaps


class _ListNode:
    """Doubly-linked list node holding one segment."""

    __slots__ = ("lo", "hi", "owner", "prev", "next")

    def __init__(self, lo: int, hi: int, owner: int) -> None:
        self.lo = lo
        self.hi = hi
        self.owner = owner
        self.prev: Optional["_ListNode"] = None
        self.next: Optional["_ListNode"] = None


class MovingHeadChannel(_QueryMixin):
    """Doubly-linked segment list with a moving head-of-list pointer.

    The head pointer is left at the last node touched, so the run of probes
    a router makes while working one connection starts near the right place
    — the locality argument of Section 12.
    """

    def __init__(self) -> None:
        self._first: Optional[_ListNode] = None
        self._head: Optional[_ListNode] = None  # moving locality pointer
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Segment]:
        node = self._first
        while node is not None:
            yield Segment(node.lo, node.hi, node.owner)
            node = node.next

    def _seek(self, lo: int) -> Optional[_ListNode]:
        """First node with ``hi >= lo``, walking from the moving head."""
        node = self._head or self._first
        if node is None:
            return None
        # Walk backward while the previous node still ends at/after lo.
        while node.prev is not None and node.prev.hi >= lo:
            node = node.prev
        # Walk forward to the first node ending at/after lo.
        while node is not None and node.hi < lo:
            node = node.next
        if node is not None:
            self._head = node
        return node

    def overlapping(self, lo: int, hi: int) -> Iterator[Segment]:
        node = self._seek(lo)
        while node is not None and node.lo <= hi:
            yield Segment(node.lo, node.hi, node.owner)
            node = node.next

    def add(
        self,
        lo: int,
        hi: int,
        owner: int,
        passable: FrozenSet[int] = NO_PASSABLE,
    ) -> List[Tuple[int, int]]:
        """Insert with same-owner/passable clipping; see ``Channel.add``."""
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        for seg in self.overlapping(lo, hi):
            if seg.owner != owner and seg.owner not in passable:
                raise ChannelConflictError(
                    f"[{lo},{hi}] owner {owner} overlaps {seg}"
                )
        pieces: List[Tuple[int, int]] = []
        cursor = lo
        for seg in list(self.overlapping(lo, hi)):
            if seg.lo > cursor:
                pieces.append((cursor, min(seg.lo - 1, hi)))
            cursor = max(cursor, seg.hi + 1)
        if cursor <= hi:
            pieces.append((cursor, hi))
        for plo, phi in pieces:
            self._insert(plo, phi, owner)
        return pieces

    def _insert(self, lo: int, hi: int, owner: int) -> None:
        new = _ListNode(lo, hi, owner)
        after = self._seek(lo)  # first node with hi >= lo, i.e. successor
        if after is None:
            # Append at the end.
            if self._first is None:
                self._first = new
            else:
                node = self._head or self._first
                while node.next is not None:
                    node = node.next
                node.next = new
                new.prev = node
        else:
            new.prev = after.prev
            new.next = after
            if after.prev is not None:
                after.prev.next = new
            else:
                self._first = new
            after.prev = new
        self._head = new
        self._count += 1

    def remove(self, lo: int, hi: int, owner: int) -> None:
        """Remove the segment with exactly these bounds and owner."""
        node = self._seek(lo)
        if (
            node is not None
            and node.lo == lo
            and node.hi == hi
            and node.owner == owner
        ):
            if node.prev is not None:
                node.prev.next = node.next
            else:
                self._first = node.next
            if node.next is not None:
                node.next.prev = node.prev
            self._head = node.prev or node.next
            self._count -= 1
            return
        raise KeyError(f"no segment [{lo},{hi}] owned by {owner}")


class _TreeNode:
    """Binary search tree node keyed by segment start."""

    __slots__ = ("lo", "hi", "owner", "left", "right", "max_hi")

    def __init__(self, lo: int, hi: int, owner: int) -> None:
        self.lo = lo
        self.hi = hi
        self.owner = owner
        self.left: Optional["_TreeNode"] = None
        self.right: Optional["_TreeNode"] = None
        self.max_hi = hi  # interval-tree augmentation


class TreeChannel(_QueryMixin):
    """Unbalanced interval BST keyed by segment start (the pre-1987 design).

    Random probes are O(log n), but the tree has no locality: successive
    probes while routing one connection re-descend from the root each time.
    """

    def __init__(self) -> None:
        self._root: Optional[_TreeNode] = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Segment]:
        yield from self._inorder(self._root)

    def _inorder(self, node: Optional[_TreeNode]) -> Iterator[Segment]:
        if node is None:
            return
        yield from self._inorder(node.left)
        yield Segment(node.lo, node.hi, node.owner)
        yield from self._inorder(node.right)

    def overlapping(self, lo: int, hi: int) -> Iterator[Segment]:
        yield from self._overlap(self._root, lo, hi)

    def _overlap(
        self, node: Optional[_TreeNode], lo: int, hi: int
    ) -> Iterator[Segment]:
        if node is None or node.max_hi < lo:
            return
        yield from self._overlap(node.left, lo, hi)
        if node.lo <= hi and lo <= node.hi:
            yield Segment(node.lo, node.hi, node.owner)
        if node.lo <= hi:
            yield from self._overlap(node.right, lo, hi)

    def add(
        self,
        lo: int,
        hi: int,
        owner: int,
        passable: FrozenSet[int] = NO_PASSABLE,
    ) -> List[Tuple[int, int]]:
        """Insert with same-owner/passable clipping; see ``Channel.add``."""
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        blockers = sorted(self.overlapping(lo, hi), key=lambda s: s.lo)
        for seg in blockers:
            if seg.owner != owner and seg.owner not in passable:
                raise ChannelConflictError(
                    f"[{lo},{hi}] owner {owner} overlaps {seg}"
                )
        pieces: List[Tuple[int, int]] = []
        cursor = lo
        for seg in blockers:
            if seg.lo > cursor:
                pieces.append((cursor, min(seg.lo - 1, hi)))
            cursor = max(cursor, seg.hi + 1)
        if cursor <= hi:
            pieces.append((cursor, hi))
        for plo, phi in pieces:
            self._root = self._insert(self._root, plo, phi, owner)
            self._count += 1
        return pieces

    def _insert(
        self, node: Optional[_TreeNode], lo: int, hi: int, owner: int
    ) -> _TreeNode:
        if node is None:
            return _TreeNode(lo, hi, owner)
        if lo < node.lo:
            node.left = self._insert(node.left, lo, hi, owner)
        else:
            node.right = self._insert(node.right, lo, hi, owner)
        node.max_hi = max(node.max_hi, hi)
        return node

    def remove(self, lo: int, hi: int, owner: int) -> None:
        """Remove the segment with exactly these bounds and owner."""
        found = [
            s
            for s in self.overlapping(lo, hi)
            if s.lo == lo and s.hi == hi and s.owner == owner
        ]
        if not found:
            raise KeyError(f"no segment [{lo},{hi}] owned by {owner}")
        # Rebuild without the removed segment (deletion in an augmented BST
        # is involved; this structure exists only for benchmarking probes).
        segments = [s for s in self if not (s.lo == lo and s.hi == hi)]
        self._root = None
        self._count = 0
        for seg in segments:
            self._root = self._insert(self._root, seg.lo, seg.hi, seg.owner)
            self._count += 1
