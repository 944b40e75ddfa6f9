"""Routing-grid and via-grid model (Sections 2 and 4, Figures 1 and 3).

The paper's major restriction for efficiency is a routing grid on which all
traces must lie, with a coarser via grid embedded in it: via sites sit at
regular intervals (every ``grid_per_via`` routing tracks) so that the pin
arrangements of through-hole parts land on via sites and two minimum-pitch
traces fit between adjacent via sites.
"""

from repro import lazy_exports

_EXPORTS = {
    "Box": "repro.grid.geometry",
    "GridPoint": "repro.grid.coords",
    "Orientation": "repro.grid.geometry",
    "RoutingGrid": "repro.grid.routing_grid",
    "ViaPoint": "repro.grid.coords",
    "grid_to_via": "repro.grid.coords",
    "is_via_site": "repro.grid.coords",
    "manhattan": "repro.grid.coords",
    "via_to_grid": "repro.grid.coords",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
