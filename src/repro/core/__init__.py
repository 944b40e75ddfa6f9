"""The grr routing algorithms (Sections 5-8 of the paper).

Strategy stack, in order of increasing desperation per connection:

1. connection sorting (easiest first),
2. optimal zero-via and one-via solutions under the ``radius`` parameter,
3. generalized Lee's algorithm (via-graph neighbors, bidirectional
   cost-ordered wavefronts),
4. rip-up of obstructing connections and putback.
"""

from repro import lazy_exports

_EXPORTS = {
    "BudgetTracker": "repro.core.budget",
    "COST_FUNCTIONS": "repro.core.cost",
    "GreedyRouter": "repro.core.router",
    "LeeSearchResult": "repro.core.lee",
    "RouteBudget": "repro.core.budget",
    "RouterConfig": "repro.core.router",
    "RoutingResult": "repro.core.result",
    "Strategy": "repro.core.result",
    "distance_cost": "repro.core.cost",
    "distance_hops_cost": "repro.core.cost",
    "lee_route": "repro.core.lee",
    "minimal_path_count": "repro.core.sorting",
    "obstructions": "repro.core.single_layer",
    "reachable_vias": "repro.core.single_layer",
    "sort_connections": "repro.core.sorting",
    "trace": "repro.core.single_layer",
    "try_one_via": "repro.core.optimal",
    "try_zero_via": "repro.core.optimal",
    "unit_cost": "repro.core.cost",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
