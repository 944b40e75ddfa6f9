"""The grr routing algorithms (Sections 5-8 of the paper).

Strategy stack, in order of increasing desperation per connection:

1. connection sorting (easiest first),
2. optimal zero-via and one-via solutions under the ``radius`` parameter,
3. generalized Lee's algorithm (via-graph neighbors, bidirectional
   cost-ordered wavefronts),
4. rip-up of obstructing connections and putback.
"""

from repro.core.budget import BudgetTracker, RouteBudget
from repro.core.cost import (
    COST_FUNCTIONS,
    distance_cost,
    distance_hops_cost,
    unit_cost,
)
from repro.core.lee import LeeSearchResult, lee_route
from repro.core.optimal import try_one_via, try_zero_via
from repro.core.result import RoutingResult, Strategy
from repro.core.router import GreedyRouter, RouterConfig
from repro.core.single_layer import obstructions, reachable_vias, trace
from repro.core.sorting import minimal_path_count, sort_connections

__all__ = [
    "BudgetTracker",
    "COST_FUNCTIONS",
    "GreedyRouter",
    "LeeSearchResult",
    "RouteBudget",
    "RouterConfig",
    "RoutingResult",
    "Strategy",
    "distance_cost",
    "distance_hops_cost",
    "lee_route",
    "minimal_path_count",
    "obstructions",
    "reachable_vias",
    "sort_connections",
    "trace",
    "try_one_via",
    "try_zero_via",
    "unit_cost",
]
