"""Design-rule checking: structural validity of the wiring database.

All checks recompute from the raw channel contents; none trust the
invariants the channel code claims to maintain.  Violations are errors
(the board is not manufacturable / the database is corrupt); warnings flag
legal-but-undesirable patterns such as traces running over free via sites
("this is avoided where possible in practice", Section 4).
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import List

from repro.board.board import Board
from repro.channels.segment import Segment
from repro.channels.workspace import RoutingWorkspace
from repro.grid.geometry import Orientation


class Severity(enum.Enum):
    """Violation severity."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class DrcViolation:
    """One design-rule finding."""

    severity: Severity
    rule: str
    message: str


@dataclass
class DrcReport:
    """All findings of one DRC run."""

    violations: List[DrcViolation] = field(default_factory=list)

    @property
    def errors(self) -> List[DrcViolation]:
        return [v for v in self.violations if v.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[DrcViolation]:
        return [v for v in self.violations if v.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        """True if there are no errors (warnings allowed)."""
        return not self.errors

    def add(self, severity: Severity, rule: str, message: str) -> None:
        self.violations.append(DrcViolation(severity, rule, message))


def run_drc(board: Board, workspace: RoutingWorkspace) -> DrcReport:
    """Run every design-rule check against a workspace."""
    report = DrcReport()
    _check_segments(workspace, report)
    _check_via_map(workspace, report)
    _check_drilled_vias(board, workspace, report)
    _check_pins(board, workspace, report)
    _check_trace_over_via_sites(workspace, report)
    return report


def _check_segments(workspace: RoutingWorkspace, report: DrcReport) -> None:
    """Segments must be within bounds, sorted, and pairwise disjoint."""
    for layer_index, layer in enumerate(workspace.layers):
        length = layer.channel_length
        for channel_index, channel in enumerate(layer.channels):
            where = f"L{layer_index} c{channel_index}"
            previous_hi = None
            for lo, hi, owner in channel.spans():
                if hi < lo:
                    report.add(
                        Severity.ERROR,
                        "segment-inverted",
                        f"{where}: {Segment(lo, hi, owner)}",
                    )
                if lo < 0 or hi >= length:
                    report.add(
                        Severity.ERROR,
                        "segment-out-of-bounds",
                        f"{where}: {Segment(lo, hi, owner)}",
                    )
                if previous_hi is not None and lo <= previous_hi:
                    report.add(
                        Severity.ERROR,
                        "segment-overlap",
                        f"{where}: {Segment(lo, hi, owner)} overlaps "
                        f"previous segment ending at {previous_hi}",
                    )
                previous_hi = hi


def _check_via_map(workspace: RoutingWorkspace, report: DrcReport) -> None:
    """The via map's counts must equal a fresh recount of the layers.

    Every segment on a via channel covers the on-board sites between its
    ends once each; their flat indices (``vx * via_ny + vy``, the map's
    own layout) are tallied into an array shaped like the map's counts.
    One ``==`` then compares the two arrays; only when they differ are
    the sites walked, row by row, for the per-site messages.
    """
    grid = workspace.grid
    g, nx, ny = grid.grid_per_via, grid.via_nx, grid.via_ny
    covered: List[int] = []
    for layer in workspace.layers:
        horizontal = layer.orientation is Orientation.HORIZONTAL
        # Sites along a horizontal channel run over vx: ny apart.
        n_along, step = (nx, ny) if horizontal else (ny, 1)
        for channel_index in range(0, layer.n_channels, g):
            v_channel = channel_index // g
            base = v_channel if horizontal else v_channel * ny
            for lo, hi, _ in layer.channels[channel_index].spans():
                v_lo = -(-lo // g)  # first site at or after lo
                v_hi = hi // g  # last site at or before hi
                if v_lo == v_hi and 0 <= v_lo < n_along:
                    covered.append(base + v_lo * step)  # pins, vias
                    continue
                v_lo = max(v_lo, 0)
                v_hi = min(v_hi, n_along - 1)
                covered.extend(
                    range(base + v_lo * step, base + v_hi * step + 1, step)
                )
    recount = array("i", [0]) * (nx * ny)
    for flat, count in Counter(covered).items():
        recount[flat] = count
    counts = workspace.via_map.cover_counts()
    if counts == recount:
        return
    for vy in range(ny):
        for vx in range(nx):
            flat = vx * ny + vy
            if counts[flat] != recount[flat]:
                report.add(
                    Severity.ERROR,
                    "via-map-count",
                    f"via ({vx},{vy}): map says {counts[flat]}, layers say "
                    f"{recount[flat]}",
                )


def _check_drilled_vias(
    board: Board, workspace: RoutingWorkspace, report: DrcReport
) -> None:
    """A drill hole contacts all layers: each must be covered on every
    layer by a segment whose owner matches the drill owner."""
    grid = workspace.grid
    g = grid.grid_per_via
    # (channels, orientation) per layer: a site at grid (gx, gy) lies
    # in row gy of a horizontal layer and column gx of a vertical one.
    layers = [
        (layer.channels, layer.orientation is Orientation.HORIZONTAL)
        for layer in workspace.layers
    ]
    for via, owner in workspace.via_map.drilled_sites().items():
        if not grid.contains_via(via):
            report.add(
                Severity.ERROR, "via-off-board", f"{via} owner {owner}"
            )
            continue
        gx, gy = via.vx * g, via.vy * g
        for layer_index, (channels, horizontal) in enumerate(layers):
            if horizontal:
                cover = channels[gy].owner_at(gx)
            else:
                cover = channels[gx].owner_at(gy)
            if cover == owner:
                continue
            if cover is None:
                report.add(
                    Severity.ERROR,
                    "via-uncovered",
                    f"{via}: no segment on layer {layer_index}",
                )
            else:
                report.add(
                    Severity.ERROR,
                    "via-cover-owner",
                    f"{via}: layer {layer_index} covered by {cover}, "
                    f"drilled by {owner}",
                )


def _check_pins(
    board: Board, workspace: RoutingWorkspace, report: DrcReport
) -> None:
    """Every pin must be drilled under its immovable owner token."""
    for pin in board.pins:
        owner = workspace.via_map.drilled_owner(pin.position)
        if owner is None:
            report.add(
                Severity.ERROR,
                "pin-not-drilled",
                f"pin {pin.pin_id} at {pin.position}",
            )
        elif owner != pin.owner_token:
            report.add(
                Severity.ERROR,
                "pin-owner",
                f"pin {pin.pin_id} at {pin.position} drilled by {owner}",
            )


def _check_trace_over_via_sites(
    workspace: RoutingWorkspace, report: DrcReport
) -> None:
    """Warn about signal traces running over undrilled via sites.

    Legal (Figure 4 shows one) but avoided in practice: the covered site
    cannot take a via later.
    """
    grid = workspace.grid
    g = grid.grid_per_via
    # ViaPoint is a named tuple: plain (vx, vy) tuples find its keys.
    drilled = workspace.via_map.drilled_sites()
    offenders = 0
    for layer in workspace.layers:
        horizontal = layer.orientation is Orientation.HORIZONTAL
        for channel_index in range(0, layer.n_channels, g):
            v_channel = channel_index // g
            for lo, hi, owner in layer.channel(channel_index).spans():
                if owner < 0:
                    continue  # pins and fill
                for v in range((lo + g - 1) // g, hi // g + 1):
                    site = (v, v_channel) if horizontal else (v_channel, v)
                    if drilled.get(site) != owner:
                        offenders += 1
    if offenders:
        report.add(
            Severity.WARNING,
            "trace-over-via-site",
            f"{offenders} trace cells cover via sites they did not drill",
        )
