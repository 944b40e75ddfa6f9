"""Section 4 data structure: layers as channel arrays of used segments.

Each signal layer is an array of channels aligned with the layer's preferred
orientation.  A channel holds the *used* intervals (segments) along one grid
line; free space is implicit.  A separate via map caches per-via-site usage
counts because via availability inquiries are two to four orders of
magnitude more frequent than updates.
"""

from repro import lazy_exports

_EXPORTS = {
    "Channel": "repro.channels.channel",
    "ChannelConflictError": "repro.channels.channel",
    "FILL_OWNER": "repro.channels.segment",
    "LayerData": "repro.channels.layer_data",
    "MovingHeadChannel": "repro.channels.alternatives",
    "RouteRecord": "repro.channels.workspace",
    "RoutingWorkspace": "repro.channels.workspace",
    "Segment": "repro.channels.segment",
    "TreeChannel": "repro.channels.alternatives",
    "ViaMap": "repro.channels.via_map",
    "is_rippable_owner": "repro.channels.segment",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
