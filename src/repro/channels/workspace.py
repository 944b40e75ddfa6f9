"""The routing workspace: all signal layers plus the via map, kept coherent.

Every mutation of the board wiring goes through this class so that the via
map stays synchronised with the channels (the paper's critical consistency
requirement), and so that each connection's occupancy is recorded for
rip-up, putback and length tuning.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from repro.board.board import Board
from repro.channels.channel import Channel, ChannelConflictError
from repro.channels.layer_data import ChannelPiece, LayerData
from repro.channels.segment import FILL_OWNER
from repro.channels.via_map import ViaMap
from repro.grid.coords import GridPoint, ViaPoint
from repro.grid.geometry import Box, Orientation

#: One installed segment: (layer_index, channel_index, lo, hi).
InstalledSegment = Tuple[int, int, int, int]


@dataclass
class RouteLink:
    """One single-layer stretch of a routed connection (between two vias)."""

    layer_index: int
    a: GridPoint
    b: GridPoint
    pieces: List[ChannelPiece]

    @property
    def wire_length(self) -> int:
        """Trace length in routing-grid units (cells spanned minus one)."""
        along = sum(hi - lo for _, lo, hi in self.pieces)
        across = max(len(self.pieces) - 1, 0)
        return along + across


@dataclass
class RouteRecord:
    """Everything a routed connection occupies, for exact removal/putback."""

    conn_id: int
    links: List[RouteLink] = field(default_factory=list)
    vias: List[ViaPoint] = field(default_factory=list)
    segments: List[InstalledSegment] = field(default_factory=list)

    @property
    def via_count(self) -> int:
        """Vias added by this connection (pins are not counted)."""
        return len(self.vias)

    @property
    def wire_length(self) -> int:
        """Total trace length in routing-grid units."""
        return sum(link.wire_length for link in self.links)


@dataclass
class FillRecord:
    """Tesselation filler occupancy, for exact unfilling (Section 10.2)."""

    segments: List[InstalledSegment] = field(default_factory=list)


class RoutingWorkspace:
    """Mutable wiring state for one board."""

    def __init__(
        self,
        board: Board,
        channel_factory: Callable[[], Channel] = Channel,
        install_pins: bool = True,
    ) -> None:
        self.board = board
        self.grid = board.grid
        self.layers: List[LayerData] = [
            LayerData(layer, board.grid, channel_factory)
            for layer in board.stack.signal_layers
        ]
        self.via_map = ViaMap(
            board.grid.via_nx, board.grid.via_ny, len(self.layers)
        )
        self.records: Dict[int, RouteRecord] = {}
        if install_pins:
            self.install_pins()

    @property
    def n_layers(self) -> int:
        """Number of signal (routing) layers."""
        return len(self.layers)

    # ------------------------------------------------------------------
    # low-level coherent mutations
    # ------------------------------------------------------------------

    def add_segment(
        self,
        layer_index: int,
        channel_index: int,
        lo: int,
        hi: int,
        owner: int,
        passable: FrozenSet[int] = frozenset(),
    ) -> List[InstalledSegment]:
        """Insert a segment, updating the via map; returns installed pieces."""
        layer = self.layers[layer_index]
        if not 0 <= channel_index < layer.n_channels:
            raise ValueError(
                f"channel {channel_index} outside layer {layer_index}"
            )
        if lo < 0 or hi >= layer.channel_length:
            raise ValueError(
                f"segment [{lo},{hi}] outside channel of length "
                f"{layer.channel_length}"
            )
        pieces = layer.channels[channel_index].add(lo, hi, owner, passable)
        if layer.is_via_channel(channel_index):
            add_cover = self.via_map.add_cover
            for plo, phi in pieces:
                for via in layer.via_sites_in(channel_index, plo, phi):
                    add_cover(via, owner)
        return [
            (layer_index, channel_index, plo, phi) for plo, phi in pieces
        ]

    def remove_segment(
        self, layer_index: int, channel_index: int, lo: int, hi: int, owner: int
    ) -> None:
        """Remove an exact previously installed segment."""
        layer = self.layers[layer_index]
        layer.channel(channel_index).remove(lo, hi, owner)
        if layer.is_via_channel(channel_index):
            remove_cover = self.via_map.remove_cover
            owners_covering = self.owners_covering
            for via in layer.via_sites_in(channel_index, lo, hi):
                remove_cover(via, owner, owners_covering)

    def owners_covering(self, via: ViaPoint) -> Set[int]:
        """Owners of all layer segments covering a via site (map rescan)."""
        point = self.grid.via_to_grid(via)
        owners = set()
        for layer in self.layers:
            owner = layer.owner_at(point)
            if owner is not None:
                owners.add(owner)
        return owners

    def drill_via(self, via: ViaPoint, owner: int) -> List[InstalledSegment]:
        """Drill a via: unit segments on every layer plus the drill record.

        A drill hole makes a potential connection to all layers, so the site
        must be coverable on every layer (Section 4).
        """
        point = self.grid.via_to_grid(via)
        installed: List[InstalledSegment] = []
        try:
            for layer_index, layer in enumerate(self.layers):
                c, x = layer.point_cc(point)
                installed.extend(
                    self.add_segment(layer_index, c, x, x, owner)
                )
        except ChannelConflictError:
            for seg in installed:
                self.remove_segment(*seg, owner=owner)
            raise
        self.via_map.drill(via, owner)
        return installed

    def remove_via(self, via: ViaPoint, owner: int) -> None:
        """Remove a drilled via and its per-layer unit segments."""
        self.via_map.undrill(via, owner)
        point = self.grid.via_to_grid(via)
        for layer_index, layer in enumerate(self.layers):
            c, x = layer.point_cc(point)
            if layer.channel(c).owner_at(x) == owner:
                # The unit cell may have been absorbed into a same-owner
                # trace piece; only remove exact unit segments.
                try:
                    self.remove_segment(layer_index, c, x, x, owner)
                except KeyError:
                    pass

    def install_pins(self) -> None:
        """Drill every part pin: pins connect to all routing layers.

        One pass over the pins instead of one :meth:`drill_via` each.
        Board placement rejects off-board and doubly occupied pin sites,
        so the channels are empty and the sites distinct here.  Each
        site gets its via-map count (``n_layers``), sole owner and drill
        record at once, and each channel takes its sorted unit segments
        in one call.  The state equals drilling the pins one at a time
        in board order, down to the via map's ``update_count`` and the
        order of the drill records.
        """
        sites = [pin.position for pin in self.board.pins]
        owners = [pin.owner_token for pin in self.board.pins]
        self.via_map.load_pins(zip(sites, owners))
        g = self.grid.grid_per_via
        # Horizontal channels are rows, vertical ones columns.
        xs = [vx * g for vx, _ in sites]
        ys = [vy * g for _, vy in sites]
        rows = _units_by_channel(ys, xs, owners)
        columns = _units_by_channel(xs, ys, owners)
        for layer in self.layers:
            units = (
                rows
                if layer.orientation is Orientation.HORIZONTAL
                else columns
            )
            for channel_index, (cells, unit_owners) in units.items():
                layer.channels[channel_index].load_units(cells, unit_owners)

    # ------------------------------------------------------------------
    # route-level operations
    # ------------------------------------------------------------------

    def route_builder(
        self, conn_id: int, passable: FrozenSet[int] = frozenset()
    ) -> "RouteBuilder":
        """Start building (or extending) a route for a connection."""
        return RouteBuilder(self, conn_id, passable)

    def commit_record(self, record: RouteRecord) -> None:
        """Register a finished route (called by the builder)."""
        if record.conn_id in self.records:
            raise ValueError(f"connection {record.conn_id} already routed")
        self.records[record.conn_id] = record

    def is_routed(self, conn_id: int) -> bool:
        """True if the connection currently has an installed route."""
        return conn_id in self.records

    def remove_connection(self, conn_id: int) -> RouteRecord:
        """Rip up a routed connection; returns its record for putback."""
        record = self.records.pop(conn_id)
        for seg in record.segments:
            self.remove_segment(*seg, owner=conn_id)
        for via in record.vias:
            if self.via_map.drilled_owner(via) == conn_id:
                self.via_map.undrill(via, conn_id)
        return record

    def restore_record(self, record: RouteRecord) -> bool:
        """Try to put a ripped-up route back exactly where it was.

        Section 8.3: "an attempt is made to put the ripped-up connections
        back exactly where they were.  Most can be re-inserted."  Returns
        False (leaving the workspace untouched) if anything now blocks it.
        """
        conn = record.conn_id
        own = frozenset((conn,))
        for layer_index, channel_index, lo, hi in record.segments:
            channel = self.layers[layer_index].channels[channel_index]
            if not channel.is_free(lo, hi, own):
                return False
        for via in record.vias:
            if self.via_map.is_drilled(via):
                return False
        for layer_index, channel_index, lo, hi in record.segments:
            self.add_segment(layer_index, channel_index, lo, hi, conn)
        for via in record.vias:
            self.via_map.drill(via, conn)
        self.commit_record(record)
        return True

    # ------------------------------------------------------------------
    # canonical state (route identity across changes)
    # ------------------------------------------------------------------

    def canonical_state(self) -> Tuple:
        """Order-independent value equal for equal wiring states.

        Two workspaces that hold the same installed segments, drilled vias
        and route records compare equal regardless of the order mutations
        were applied in.
        """
        layers = tuple(
            tuple(
                sorted(
                    (ci, seg.lo, seg.hi, seg.owner)
                    for ci, channel in enumerate(layer.channels)
                    for seg in channel
                )
            )
            for layer in self.layers
        )
        vias = tuple(sorted(self.via_map.drilled_sites().items()))
        records = tuple(
            sorted(
                (
                    conn_id,
                    tuple(sorted(rec.segments)),
                    tuple(sorted(rec.vias)),
                )
                for conn_id, rec in self.records.items()
            )
        )
        return (layers, vias, records)

    def state_digest(self) -> str:
        """Stable hex digest of :meth:`canonical_state` (for artifacts)."""
        return hashlib.sha256(
            repr(self.canonical_state()).encode()
        ).hexdigest()

    # ------------------------------------------------------------------
    # tesselation fill (Section 10.2)
    # ------------------------------------------------------------------

    def fill_free_space(self, layer_index: int, box: Box) -> FillRecord:
        """Block all free space of a layer region with filler segments."""
        layer = self.layers[layer_index]
        c_lo, c_hi, lo, hi = layer.box_cc(box.clipped_to(self.grid.bounds))
        record = FillRecord()
        if c_hi < c_lo or hi < lo:
            return record
        for c in range(max(c_lo, 0), min(c_hi, layer.n_channels - 1) + 1):
            for glo, ghi in layer.channel(c).free_gaps(lo, hi):
                record.segments.extend(
                    self.add_segment(layer_index, c, glo, ghi, FILL_OWNER)
                )
        return record

    def unfill(self, record: FillRecord) -> None:
        """Remove previously added filler segments."""
        for seg in record.segments:
            self.remove_segment(*seg, owner=FILL_OWNER)

    # ------------------------------------------------------------------
    # audit accessors (read-only views for repro.obs.audit)
    # ------------------------------------------------------------------

    def iter_installed_segments(self):
        """Every installed segment: yields (layer_index, channel_index, seg).

        The flat enumeration the :class:`repro.obs.audit.WorkspaceAuditor`
        reconciles against route records; includes pin and fill segments.
        """
        for layer_index, layer in enumerate(self.layers):
            for channel_index, channel in enumerate(layer.channels):
                for seg in channel:
                    yield layer_index, channel_index, seg

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def gap_cache_stats(self) -> Tuple[int, int, int]:
        """Free-gap traffic summed over the layers: (hits, misses, 0).

        Hits are reads of a Lee search's gap views served without a
        build; misses are gap lists built.  The third slot is always 0;
        it keeps the tuple shape callers unpack.
        """
        hits = sum(layer.gap_hits for layer in self.layers)
        built = sum(layer.gaps_built for layer in self.layers)
        return hits, built, 0

    def bounds_stats(self) -> Tuple[int, int]:
        """Always ``(0, 0)``: no lower bounds are cached any more.

        Kept because the benchmark harness (``bench/workloads.py``)
        still records this pair.
        """
        return (0, 0)

    def used_cells(self) -> int:
        """Grid cells covered by segments over all layers."""
        return sum(layer.used_cells() for layer in self.layers)

    def channel_supply(self) -> int:
        """Total routable channel space over all layers, in grid cells."""
        return sum(
            layer.n_channels * layer.channel_length for layer in self.layers
        )


def _units_by_channel(
    channel_of: List[int], cell_of: List[int], owners: List[int]
) -> Dict[int, Tuple[List[int], List[int]]]:
    """Per-channel ``(cells, owners)`` of unit segments, cells sorted.

    Unit ``k`` lies at ``cell_of[k]`` of channel ``channel_of[k]``.
    Sorting integer keys, not tuples, keeps the install from allocating
    a container per pin.
    """
    stride = max(cell_of, default=0) + 1
    keys = [c * stride + x for c, x in zip(channel_of, cell_of)]
    units: Dict[int, Tuple[List[int], List[int]]] = {}
    for k in sorted(range(len(keys)), key=keys.__getitem__):
        entry = units.get(channel_of[k])
        if entry is None:
            entry = units[channel_of[k]] = ([], [])
        entry[0].append(cell_of[k])
        entry[1].append(owners[k])
    return units


class RouteBuilder:
    """Incrementally install a route with rollback on failure.

    The Lee retrace installs hop by hop (later hops must see earlier hops'
    segments as passable); if any hop fails the whole attempt is aborted.
    """

    def __init__(
        self,
        workspace: RoutingWorkspace,
        conn_id: int,
        passable: FrozenSet[int] = frozenset(),
    ) -> None:
        self.workspace = workspace
        self.conn_id = conn_id
        self.passable = passable
        self.record = RouteRecord(conn_id=conn_id)
        self._committed = False

    def add_link(
        self,
        layer_index: int,
        a: GridPoint,
        b: GridPoint,
        pieces: List[ChannelPiece],
    ) -> None:
        """Install the channel pieces of one single-layer link."""
        link = RouteLink(layer_index=layer_index, a=a, b=b, pieces=pieces)
        for channel_index, lo, hi in pieces:
            self.record.segments.extend(
                self.workspace.add_segment(
                    layer_index,
                    channel_index,
                    lo,
                    hi,
                    self.conn_id,
                    self.passable,
                )
            )
        self.record.links.append(link)

    def drill(self, via: ViaPoint) -> None:
        """Drill an intermediate via (reusing one we already own is a no-op)."""
        if self.workspace.via_map.drilled_owner(via) == self.conn_id:
            return
        self.record.segments.extend(
            self.workspace.drill_via(via, self.conn_id)
        )
        self.record.vias.append(via)

    def commit(self) -> RouteRecord:
        """Finish the route and register it with the workspace."""
        self.workspace.commit_record(self.record)
        self._committed = True
        return self.record

    def abort(self) -> None:
        """Roll back everything installed so far."""
        if self._committed:
            raise RuntimeError("route already committed")
        for seg in self.record.segments:
            self.workspace.remove_segment(*seg, owner=self.conn_id)
        for via in self.record.vias:
            if self.workspace.via_map.drilled_owner(via) == self.conn_id:
                self.workspace.via_map.undrill(via, self.conn_id)
        self.record = RouteRecord(conn_id=self.conn_id)
