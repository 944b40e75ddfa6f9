"""Metrics, congestion analysis and reporting (Table 1 quantities plus
the Section 12 "statistical measures of routing patterns")."""

from repro import lazy_exports

_EXPORTS = {
    "Hotspot": "repro.analysis.congestion",
    "cell_usage_grid": "repro.analysis.congestion",
    "channel_demand": "repro.analysis.metrics",
    "channel_occupancy": "repro.analysis.congestion",
    "channel_supply": "repro.analysis.metrics",
    "format_table": "repro.analysis.report",
    "hotspots": "repro.analysis.congestion",
    "percent_chan": "repro.analysis.metrics",
    "region_utilization": "repro.analysis.congestion",
    "render_congestion": "repro.analysis.congestion",
    "table1_row": "repro.analysis.metrics",
    "wire_length_stats": "repro.analysis.congestion",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
