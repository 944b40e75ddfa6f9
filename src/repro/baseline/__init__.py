"""Baseline routers the paper improves on.

:mod:`repro.baseline.lee_grid` is classic Lee maze routing over raw
routing-grid points (pre-Modification-1): neighbors at distance 1, single
breadth-first wavefront.  The paper: "This choice leads to very slow
searches, since many individual grid points must be scanned to advance a
small distance across the board surface."
"""

from repro import lazy_exports

_EXPORTS = {
    "GridLeeRouter": "repro.baseline.lee_grid",
    "GridLeeStats": "repro.baseline.lee_grid",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
