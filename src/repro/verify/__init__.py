"""Independent verification of routed boards.

The paper's motivation for full automation is that partial routing "leaves
the possibility for introducing errors in the routing of the final
connections" — so a reproduction should be able to *prove* its output
correct.  This package re-derives correctness from the raw board state,
sharing no logic with the router:

* :mod:`repro.verify.drc` — design-rule checks: segment disjointness,
  via-map consistency, drilled-via covers, bounds, trace-over-via-site
  warnings;
* :mod:`repro.verify.connectivity` — electrical checks: every routed
  connection is a connected path pin-to-pin, and every net's pins form a
  connected graph (a chain, for ECL) through its routed connections.
"""

from repro import lazy_exports

_EXPORTS = {
    "ConnectivityReport": "repro.verify.connectivity",
    "DrcReport": "repro.verify.drc",
    "DrcViolation": "repro.verify.drc",
    "NetStatus": "repro.verify.connectivity",
    "Severity": "repro.verify.drc",
    "check_connectivity": "repro.verify.connectivity",
    "run_drc": "repro.verify.drc",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
