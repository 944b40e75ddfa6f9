"""Renderings of routing problems and solutions (Figures 20-22)."""

from repro import lazy_exports

_EXPORTS = {
    "render_all_layers": "repro.viz.ppm",
    "render_layer": "repro.viz.ascii_art",
    "render_postprocessed_layer": "repro.viz.ppm",
    "render_power_plane": "repro.viz.ppm",
    "render_problem": "repro.viz.ppm",
    "render_signal_layer": "repro.viz.ppm",
    "render_via_map": "repro.viz.ascii_art",
    "write_ppm": "repro.viz.ppm",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
