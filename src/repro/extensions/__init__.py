"""Extensions needed to build real high-speed boards (Section 10 + Appendix):
length tuning, ECL/TTL tesselation separation, and power-plane generation.
"""

from repro import lazy_exports

_EXPORTS = {
    "DelayModel": "repro.extensions.length_tuning",
    "DispersedPad": "repro.extensions.dispersion",
    "DispersionError": "repro.extensions.dispersion",
    "PadSpec": "repro.extensions.dispersion",
    "TracePolyline": "repro.extensions.postprocess",
    "chamfer": "repro.extensions.postprocess",
    "disperse_pads": "repro.extensions.dispersion",
    "link_polyline": "repro.extensions.postprocess",
    "postprocess_board": "repro.extensions.postprocess",
    "postprocess_connection": "repro.extensions.postprocess",
    "MixedRoutingResult": "repro.extensions.tesselation",
    "PlaneFeature": "repro.extensions.power_plane",
    "PowerPlanePattern": "repro.extensions.power_plane",
    "Tesselation": "repro.extensions.tesselation",
    "Tile": "repro.extensions.tesselation",
    "TuningResult": "repro.extensions.length_tuning",
    "generate_power_plane": "repro.extensions.power_plane",
    "route_delay_ns": "repro.extensions.length_tuning",
    "route_mixed": "repro.extensions.tesselation",
    "split_tesselation": "repro.extensions.tesselation",
    "tune_connection": "repro.extensions.length_tuning",
    "tune_with_cost_mod": "repro.extensions.length_tuning",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
