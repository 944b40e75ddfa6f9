"""Segments: used intervals in a channel, with ownership conventions.

Owner ids encode what a segment belongs to and whether rip-up may remove it:

* ``owner >= 0`` — a routed connection (rippable);
* ``-(pin_id + 1)`` — a part pin's via (immovable);
* :data:`FILL_OWNER` — tesselation filler blocking the other logic family's
  tiles during a routing pass (immovable, Section 10.2).
"""

from __future__ import annotations

from typing import NamedTuple

#: Reserved owner for ECL/TTL tesselation fill segments (Section 10.2).
FILL_OWNER = -(10**9)


def is_rippable_owner(owner: int) -> bool:
    """True if rip-up may remove segments with this owner (connections only)."""
    return owner >= 0


def pin_owner(pin_id: int) -> int:
    """Immovable owner token for a pin's via."""
    return -(pin_id + 1)


def owner_pin_id(owner: int) -> int:
    """Inverse of :func:`pin_owner`; only valid for pin owners."""
    if owner >= 0 or owner == FILL_OWNER:
        raise ValueError(f"{owner} is not a pin owner")
    return -owner - 1


class Segment(NamedTuple):
    """A used interval ``[lo, hi]`` (inclusive) along a channel."""

    lo: int
    hi: int
    owner: int

    @property
    def length(self) -> int:
        """Number of grid cells covered."""
        return self.hi - self.lo + 1
