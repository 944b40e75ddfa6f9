"""Section 4 data structure: layers as channel arrays of used segments.

Each signal layer is an array of channels aligned with the layer's preferred
orientation.  A channel holds the *used* intervals (segments) along one grid
line; free space is implicit.  A separate via map caches per-via-site usage
counts because via availability inquiries are two to four orders of
magnitude more frequent than updates.
"""

from repro.channels.alternatives import MovingHeadChannel, TreeChannel
from repro.channels.channel import Channel, ChannelConflictError
from repro.channels.layer_data import LayerData
from repro.channels.segment import FILL_OWNER, Segment, is_rippable_owner
from repro.channels.via_map import ViaMap
from repro.channels.workspace import RouteRecord, RoutingWorkspace

__all__ = [
    "Channel",
    "ChannelConflictError",
    "FILL_OWNER",
    "LayerData",
    "MovingHeadChannel",
    "RouteRecord",
    "RoutingWorkspace",
    "Segment",
    "TreeChannel",
    "ViaMap",
    "is_rippable_owner",
]
