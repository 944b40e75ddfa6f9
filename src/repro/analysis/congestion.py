"""Congestion analysis: where the channel supply is being spent.

Section 12: "The most effective tools for improving program performance
were careful analysis of the router output to find inefficient routing
patterns, statistical measures of routing patterns, and profiles of the
CPU usage."  This module provides those statistical measures: per-channel
occupancy, regional utilization, hotspot lists, and wire-length
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.board.board import Board
from repro.board.nets import Connection
from repro.channels.segment import FILL_OWNER
from repro.channels.workspace import RoutingWorkspace
from repro.grid.geometry import Box, Orientation

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def _require_numpy(what: str):
    """numpy, imported on first use so the CLI starts without it."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - base install without [fast]
        raise ImportError(
            f"{what} returns numpy arrays; install the extra: "
            "pip install repro[fast]"
        ) from None
    return numpy


def channel_occupancy(
    workspace: RoutingWorkspace, layer_index: int
) -> "np.ndarray":
    """Fraction of each channel's cells in use (0..1), one entry per
    channel of the layer.  Fill segments are excluded (they are
    temporary)."""
    np = _require_numpy("channel_occupancy")
    layer = workspace.layers[layer_index]
    occupancy = np.zeros(layer.n_channels)
    for channel_index, channel in enumerate(layer.channels):
        used = sum(
            seg.length for seg in channel if seg.owner != FILL_OWNER
        )
        occupancy[channel_index] = used / layer.channel_length
    return occupancy


def cell_usage_grid(workspace: RoutingWorkspace) -> "np.ndarray":
    """(ny, nx) array counting, per routing-grid cell, how many layers
    have copper there — the aggregate congestion picture."""
    np = _require_numpy("cell_usage_grid")
    grid = workspace.grid
    usage = np.zeros((grid.ny, grid.nx), dtype=np.int16)
    for layer in workspace.layers:
        for channel_index, channel in enumerate(layer.channels):
            for seg in channel:
                if seg.owner == FILL_OWNER:
                    continue
                if layer.orientation is Orientation.HORIZONTAL:
                    usage[channel_index, seg.lo : seg.hi + 1] += 1
                else:
                    usage[seg.lo : seg.hi + 1, channel_index] += 1
    return usage


@dataclass(frozen=True)
class Hotspot:
    """One congested channel."""

    layer_index: int
    channel_index: int
    occupancy: float


def hotspots(
    workspace: RoutingWorkspace, top_n: int = 10
) -> List[Hotspot]:
    """The most-occupied channels across all layers, worst first."""
    found: List[Hotspot] = []
    for layer_index in range(workspace.n_layers):
        occupancy = channel_occupancy(workspace, layer_index)
        for channel_index, value in enumerate(occupancy):
            if value > 0:
                found.append(
                    Hotspot(layer_index, channel_index, float(value))
                )
    found.sort(key=lambda h: -h.occupancy)
    return found[:top_n]


def region_utilization(
    workspace: RoutingWorkspace, box: Box
) -> float:
    """Used / available channel cells within a grid-coordinate box."""
    used = 0
    supply = 0
    for layer in workspace.layers:
        c_lo, c_hi, lo, hi = layer.box_cc(box)
        c_lo, c_hi = max(c_lo, 0), min(c_hi, layer.n_channels - 1)
        lo, hi = max(lo, 0), min(hi, layer.channel_length - 1)
        if c_hi < c_lo or hi < lo:
            continue
        supply += (c_hi - c_lo + 1) * (hi - lo + 1)
        for channel_index in range(c_lo, c_hi + 1):
            for seg in layer.channel(channel_index).overlapping(lo, hi):
                if seg.owner == FILL_OWNER:
                    continue
                used += min(seg.hi, hi) - max(seg.lo, lo) + 1
    if supply == 0:
        return 0.0
    return used / supply


def wire_length_stats(
    workspace: RoutingWorkspace, connections: Sequence[Connection]
) -> Dict[str, float]:
    """Detour statistics: installed wire length vs Manhattan lower bound."""
    grid = workspace.grid
    ratios = []
    total_wire = 0
    total_manhattan = 0
    for conn in connections:
        record = workspace.records.get(conn.conn_id)
        if record is None:
            continue
        manhattan_cells = conn.manhattan_length * grid.grid_per_via
        total_wire += record.wire_length
        total_manhattan += manhattan_cells
        if manhattan_cells:
            ratios.append(record.wire_length / manhattan_cells)
    if not ratios:
        return {
            "routes": 0, "total_wire": 0, "total_manhattan": 0,
            "mean_detour": 0.0, "max_detour": 0.0,
        }
    return {
        "routes": len(ratios),
        "total_wire": total_wire,
        "total_manhattan": total_manhattan,
        "mean_detour": sum(ratios) / len(ratios),
        "max_detour": max(ratios),
    }


def render_congestion(
    board: Board,
    workspace: RoutingWorkspace,
    path: Optional[str] = None,
    cell: int = 3,
):
    """Grayscale congestion heatmap (darker = more layers occupied)."""
    np = _require_numpy("render_congestion")
    from repro.viz.ppm import Canvas, write_ppm

    usage = cell_usage_grid(workspace)
    n_layers = max(workspace.n_layers, 1)
    height, width = usage.shape
    canvas = Canvas(width * cell, height * cell)
    shade = (255 - (usage.astype(np.float64) / n_layers) * 255).astype(
        np.uint8
    )
    expanded = np.kron(shade[::-1], np.ones((cell, cell), dtype=np.uint8))
    canvas.pixels[:, :, 0] = expanded
    canvas.pixels[:, :, 1] = expanded
    canvas.pixels[:, :, 2] = expanded
    if path:
        write_ppm(canvas, path)
    return canvas
