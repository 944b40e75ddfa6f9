"""The Board: grid + layer stack + placed parts + nets.

This is the problem description handed to the stringer and router.  It owns
id allocation for parts, pins and nets, and validates placement (pins on the
board, no two pins on one via site).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.board.layers import LayerStack
from repro.board.nets import Net, NetKind
from repro.board.parts import Package, Part, Pin, PinRole
from repro.board.technology import LogicFamily, TechRules
from repro.grid.coords import ViaPoint
from repro.grid.routing_grid import RoutingGrid


class PlacementError(ValueError):
    """A part or pin cannot be placed where requested."""


@dataclass
class Board:
    """A complete routing problem: geometry, parts, and nets."""

    grid: RoutingGrid
    stack: LayerStack
    rules: TechRules = field(default_factory=TechRules)
    name: str = "board"
    parts: List[Part] = field(default_factory=list)
    pins: List[Pin] = field(default_factory=list)
    nets: List[Net] = field(default_factory=list)
    _occupied: Dict[ViaPoint, int] = field(default_factory=dict, repr=False)

    @classmethod
    def create(
        cls,
        via_nx: int,
        via_ny: int,
        n_signal_layers: int,
        n_power_layers: int = 0,
        rules: Optional[TechRules] = None,
        name: str = "board",
    ) -> "Board":
        """Convenience constructor from board extent and layer counts."""
        rules = rules or TechRules()
        grid = RoutingGrid(
            via_nx=via_nx,
            via_ny=via_ny,
            grid_per_via=rules.grid_per_via,
            via_pitch_mils=rules.via_pitch,
        )
        stack = LayerStack.signal_stack(n_signal_layers, n_power_layers)
        return cls(grid=grid, stack=stack, rules=rules, name=name)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def add_part(
        self,
        package: Package,
        origin: ViaPoint,
        name: str = "",
        roles: Optional[Sequence[PinRole]] = None,
    ) -> Part:
        """Place a package instance; allocates the part and its pins.

        ``roles`` optionally assigns a role per pin (default UNUSED until a
        net claims the pin).
        """
        part = Part(
            part_id=len(self.parts),
            package=package,
            origin=origin,
            name=name or f"{package.name}_{len(self.parts)}",
        )
        positions = part.pin_positions()
        for pos in positions:
            if not self.grid.contains_via(pos):
                raise PlacementError(
                    f"pin of {part.name} at {pos} is off the board"
                )
            if pos in self._occupied:
                raise PlacementError(
                    f"via site {pos} already occupied by pin "
                    f"{self._occupied[pos]}"
                )
        if roles is not None and len(roles) != len(positions):
            raise PlacementError("one role per pin required")
        for i, pos in enumerate(positions):
            pin = Pin(
                pin_id=len(self.pins),
                part_id=part.part_id,
                position=pos,
                role=roles[i] if roles is not None else PinRole.UNUSED,
            )
            self.pins.append(pin)
            part.pins.append(pin)
            self._occupied[pos] = pin.pin_id
        self.parts.append(part)
        return part

    def move_part(
        self, part_id: int, origin: ViaPoint
    ) -> List[tuple]:
        """Relocate a placed part; returns ``(pin, old_position)`` pairs.

        Placement rules are re-validated against the *vacated* board
        (the part's own current sites do not block the move), and the
        board is untouched if any destination site is off-board or
        occupied by another part.  Routing state is not touched here;
        the ECO layer (:mod:`repro.eco`) is responsible for undrilling
        the old pin sites and drilling the new ones.
        """
        if not 0 <= part_id < len(self.parts):
            raise ValueError(f"unknown part id {part_id}")
        part = self.parts[part_id]
        own_pins = {pin.pin_id for pin in part.pins}
        new_positions = [
            ViaPoint(origin.vx + dx, origin.vy + dy)
            for dx, dy in part.package.pin_offsets
        ]
        for pos in new_positions:
            if not self.grid.contains_via(pos):
                raise PlacementError(
                    f"pin of {part.name} at {pos} is off the board"
                )
            occupant = self._occupied.get(pos)
            if occupant is not None and occupant not in own_pins:
                raise PlacementError(
                    f"via site {pos} already occupied by pin {occupant}"
                )
        moves = []
        for pin in part.pins:
            del self._occupied[pin.position]
        for pin, pos in zip(part.pins, new_positions):
            moves.append((pin, pin.position))
            pin.position = pos
            self._occupied[pos] = pin.pin_id
        part.origin = origin
        return moves

    def part_can_fit(self, package: Package, origin: ViaPoint) -> bool:
        """True if every pin site is on-board and unoccupied."""
        for dx, dy in package.pin_offsets:
            pos = ViaPoint(origin.vx + dx, origin.vy + dy)
            if not self.grid.contains_via(pos) or pos in self._occupied:
                return False
        return True

    def pin_at(self, position: ViaPoint) -> Optional[Pin]:
        """The pin occupying a via site, if any."""
        pin_id = self._occupied.get(position)
        if pin_id is None:
            return None
        return self.pins[pin_id]

    # ------------------------------------------------------------------
    # nets
    # ------------------------------------------------------------------

    def add_net(
        self,
        pin_ids: Sequence[int],
        name: str = "",
        kind: NetKind = NetKind.SIGNAL,
        family: LogicFamily = LogicFamily.ECL,
    ) -> Net:
        """Create a net over existing pins; marks the pins as members."""
        for pin_id in pin_ids:
            if not 0 <= pin_id < len(self.pins):
                raise ValueError(f"unknown pin id {pin_id}")
            if self.pins[pin_id].net_id != -1:
                raise ValueError(
                    f"pin {pin_id} already belongs to net "
                    f"{self.pins[pin_id].net_id}"
                )
        net = Net(
            net_id=len(self.nets),
            name=name or f"net{len(self.nets)}",
            kind=kind,
            family=family,
            pin_ids=list(pin_ids),
        )
        for pin_id in pin_ids:
            self.pins[pin_id].net_id = net.net_id
        self.nets.append(net)
        return net

    @property
    def signal_nets(self) -> List[Net]:
        """Nets the router must connect."""
        return [n for n in self.nets if n.kind is NetKind.SIGNAL]

    @property
    def power_nets(self) -> List[Net]:
        """Nets realised as power planes."""
        return [n for n in self.nets if n.kind is NetKind.POWER]

    def free_terminator_pins(self) -> List[Pin]:
        """Terminating-resistor pins not yet claimed by any net."""
        return [
            p
            for p in self.pins
            if p.role is PinRole.TERMINATOR and p.net_id == -1
        ]

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    @property
    def pin_density_per_sq_inch(self) -> float:
        """Average pin density (the pins/in² column of Table 1)."""
        area = self.grid.area_sq_inches
        if area == 0:
            return 0.0
        return len(self.pins) / area
