"""Incremental ECO re-routing: edit a routed board, reroute the residue.

The paper's router is a cold, batch router; a routing *service* (ROADMAP
north star) is mostly edits — move a part, cut a few nets, add a few,
reroute.  An :class:`EcoSession` holds a routed board and applies such
engineering change orders while preserving everything an edit does not
touch:

* **Surviving routes** stay installed — the reroute only routes the
  residue, because the pass loop already skips connections the
  workspace reports as routed.  Nothing else carries over between
  searches: each Lee search builds its own free-gap lists from the
  board as it stands, so no cache needs invalidating after an edit.

The invalidation rule is ownership-based, computed from the workspace's
channel/via bookkeeping:

* ``move_part`` invalidates every connection incident to the part's
  pins (their endpoints move), plus — transitively — any surviving
  route whose wiring covers a destination pin site (the drill conflict
  names the blocking owner, the blocker is ripped and invalidated, and
  the drill retries: a rip-up cascade).
* ``cut_nets`` rips the cut nets' routes and drops their connections
  from the problem; cutting an unrouted net is a pure bookkeeping edit.
* ``add_nets`` strings the new nets (same stringer, fresh connection
  ids) and marks the new connections pending.

``reroute()`` then routes the full connection list on the warm
workspace under an optional :class:`~repro.core.budget.RouteBudget` —
never raising on exhaustion, exactly like :func:`repro.api.route` — and
returns a :class:`~repro.api.RouteResponse` whose counters report
``eco_invalidated`` / ``eco_reused`` / ``eco_rerouted``.  A reroute
with nothing pending is a no-op fast path that never builds a router.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.api import respond
from repro.board.board import Board
from repro.board.nets import Connection, NetKind
from repro.board.technology import LogicFamily
from repro.channels.channel import ChannelConflictError
from repro.channels.workspace import RoutingWorkspace
from repro.core.budget import RouteBudget
from repro.core.profiling import RouterProfile
from repro.core.result import RoutingResult, Strategy
from repro.core.router import RouterConfig, make_router
from repro.grid.coords import ViaPoint
from repro.io.registry import UnknownReferenceError, check_connections
from repro.obs.events import EcoBegin, EcoInvalidate, EcoReroute
from repro.obs.sinks import NULL_SINK, EventSink
from repro.stringer.stringer import Stringer


class EcoError(ValueError):
    """An engineering change order cannot be applied.

    Raised for invalid edits (unknown part/net ids, off-board or
    occupied destinations) before any state changes, and for a moved pin
    landing on immovable wiring (another pin or tesselation fill) — the
    latter can surface mid-edit, after which the session must be
    considered spent.  Also raised when a session is opened over a
    connection list naming a net or pin its board lacks.
    """


@dataclass(frozen=True)
class EcoStats:
    """What one mutation changed, as reported back to the caller."""

    #: ``"move_part"`` / ``"add_nets"`` / ``"cut_nets"``.
    op: str
    #: Connections now pending a reroute because of this edit.
    invalidated: Tuple[int, ...] = ()
    #: Installed routes this edit removed (subset of ``invalidated``
    #: for moves; disjoint from it for cuts, whose connections leave
    #: the problem instead of re-entering it).
    ripped: Tuple[int, ...] = ()
    #: Surviving routes ripped only because the edit collided with
    #: their wiring (move_part drill conflicts).
    cascades: Tuple[int, ...] = ()
    #: Connections removed from the problem entirely (cut_nets).
    dropped: Tuple[int, ...] = ()
    #: Connections created by this edit (add_nets).
    added: Tuple[int, ...] = ()
    #: Net ids this edit created (add_nets) or removed (cut_nets) —
    #: the handle a remote caller needs to cut what it just added.
    net_ids: Tuple[int, ...] = ()


class EcoSession:
    """A routed board plus the machinery to edit and incrementally reroute.

    ::

        response = route(request)                      # cold route
        session = begin_eco(request, response)         # adopt the state
        session.move_part(part_id, ViaPoint(10, 12))
        session.cut_nets([net_id])
        session.add_nets([[pin_a, pin_b, pin_c]])
        response = session.reroute()                   # residue only

    The session owns its board, connection list and workspace: mutating
    them behind its back voids the bookkeeping.  ``connections`` is the
    current problem (cuts shrink it, adds grow it); ``reroute()``
    always routes that full list, relying on the workspace to skip the
    survivors.
    """

    def __init__(
        self,
        board: Board,
        connections: Sequence[Connection],
        config: Optional[RouterConfig] = None,
        sink: Optional[EventSink] = None,
        workspace: Optional[RoutingWorkspace] = None,
        routed_by: Optional[Dict[int, Strategy]] = None,
    ) -> None:
        self.board = board
        self.connections: List[Connection] = list(connections)
        self.config = config or RouterConfig()
        self.sink = sink if sink is not None else NULL_SINK
        self.workspace = workspace or RoutingWorkspace(board)
        try:
            check_connections(board, self.connections)
        except UnknownReferenceError as exc:
            raise EcoError(str(exc)) from exc
        # A board loaded beside its connection file lists no terminators
        # in its nets: the stringer that claimed them ran elsewhere.
        # Every free pin a connection ends on joins that connection's
        # net, as in-process stringing leaves it, so cut_nets frees it
        # and add_nets cannot claim it for a second net.
        for conn in self.connections:
            for pin_id in (conn.pin_a, conn.pin_b):
                pin = board.pins[pin_id]
                if pin.net_id == -1:
                    pin.net_id = conn.net_id
                    board.nets[conn.net_id].pin_ids.append(pin_id)
        #: Strategy attribution for currently installed routes, carried
        #: across reroutes (the router only reports what *it* routed).
        #: A connection the workspace arrived with routed and that
        #: ``routed_by`` does not name was kept as previously routed:
        #: ``Strategy.PUTBACK``, the honest label for a restored route.
        self._routed_by: Dict[int, Strategy] = {
            conn_id: strategy
            for conn_id, strategy in (routed_by or {}).items()
            if self.workspace.is_routed(conn_id)
        }
        for conn in self.connections:
            if conn.conn_id not in self._routed_by and (
                self.workspace.is_routed(conn.conn_id)
            ):
                self._routed_by[conn.conn_id] = Strategy.PUTBACK
        #: Connections dirtied by mutations since the last reroute.
        self._invalidated: Set[int] = set()
        self._next_conn_id = (
            max((c.conn_id for c in self.connections), default=-1) + 1
        )
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """End the session: later edits and reroutes raise.  Idempotent."""
        self._closed = True

    def __enter__(self) -> "EcoSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def move_part(self, part_id: int, origin: ViaPoint) -> EcoStats:
        """Relocate a part, ripping and invalidating what the move touches.

        Every connection incident to the part's pins is invalidated
        (its endpoints move).  Destination sites are re-validated
        against the vacated placement before anything changes; a
        destination covered by a *surviving route's* wiring rips that
        route too (a cascade, counted separately) so the pin via always
        lands.
        """
        self._check_open()
        if not 0 <= part_id < len(self.board.parts):
            raise EcoError(f"unknown part id {part_id}")
        part = self.board.parts[part_id]
        if self.sink.enabled:
            self.sink.emit(EcoBegin("move_part", part_id))
        pin_ids = {pin.pin_id for pin in part.pins}
        affected = [
            c
            for c in self.connections
            if c.pin_a in pin_ids or c.pin_b in pin_ids
        ]
        # Validate + move the placement first: a PlacementError must
        # leave the session untouched.
        try:
            moves = self.board.move_part(part_id, origin)
        except ValueError as exc:
            raise EcoError(str(exc)) from exc
        ws = self.workspace
        ripped = []
        for conn in affected:
            if ws.is_routed(conn.conn_id):
                ws.remove_connection(conn.conn_id)
                ripped.append(conn.conn_id)
        for pin, old_position in moves:
            ws.remove_via(old_position, pin.owner_token)
        cascades: List[int] = []
        for pin in part.pins:
            cascades.extend(self._drill_with_ripup(pin.position, pin))
        position = {pin.pin_id: pin.position for pin in part.pins}
        for conn in affected:
            if conn.pin_a in position:
                conn.a = position[conn.pin_a]
            if conn.pin_b in position:
                conn.b = position[conn.pin_b]
        invalidated = {c.conn_id for c in affected} | set(cascades)
        self._invalidated |= invalidated
        for conn_id in ripped:
            self._routed_by.pop(conn_id, None)
        for conn_id in cascades:
            self._routed_by.pop(conn_id, None)
        if self.sink.enabled:
            self.sink.emit(
                EcoInvalidate(
                    "move_part",
                    len(invalidated),
                    len(ripped) + len(cascades),
                    len(cascades),
                )
            )
        return EcoStats(
            op="move_part",
            invalidated=tuple(sorted(invalidated)),
            ripped=tuple(ripped),
            cascades=tuple(cascades),
        )

    def _drill_with_ripup(self, via: ViaPoint, pin) -> List[int]:
        """Drill a pin site, ripping any surviving routes covering it.

        The channel conflict names no owner, so the blockers are read
        off the workspace's bookkeeping: the segment owners covering the
        site plus its drilled-via owner.
        Only routed connections (owner >= 0) are rippable; anything
        else under a pin destination is immovable and raises.
        """
        ws = self.workspace
        ripped: List[int] = []
        while True:
            try:
                ws.drill_via(via, pin.owner_token)
                return ripped
            except ChannelConflictError as exc:
                blockers = {
                    owner
                    for owner in ws.owners_covering(via)
                    if owner >= 0 and ws.is_routed(owner)
                }
                drilled = ws.via_map.drilled_owner(via)
                if drilled is not None and drilled >= 0:
                    blockers.add(drilled)
                if not blockers:
                    raise EcoError(
                        f"pin {pin.pin_id} destination {via} is blocked "
                        f"by immovable wiring: {exc}"
                    ) from exc
                for conn_id in sorted(blockers):
                    ws.remove_connection(conn_id)
                    ripped.append(conn_id)

    def add_nets(
        self,
        pin_groups: Sequence[Sequence[int]],
        family: LogicFamily = LogicFamily.ECL,
    ) -> EcoStats:
        """Create new signal nets over free pins and string them.

        Each group becomes one net (``family`` decides termination
        rules), strung by the same stringer batch routing uses, with
        fresh connection ids.  The new connections are pending until
        the next :meth:`reroute`.

        All or nothing: a group of fewer than two pins, a pin that is
        unknown, already in a net or named twice in the call, or an ECL
        group left without a free terminating resistor, raises
        :class:`EcoError` with the board and the session as they were
        before the call.
        """
        self._check_open()
        if self.sink.enabled:
            self.sink.emit(EcoBegin("add_nets", len(pin_groups)))
        named: Set[int] = set()
        for pin_ids in pin_groups:
            if len(pin_ids) < 2:
                raise EcoError(
                    f"a net needs at least two pins, not {list(pin_ids)}"
                )
            for pin_id in pin_ids:
                if pin_id in named:
                    raise EcoError(f"pin {pin_id} is named twice")
                named.add(pin_id)
        board = self.board
        n_nets, n_connections = len(board.nets), len(self.connections)
        stringer = Stringer(board)
        added: List[int] = []
        new_nets: List[int] = []
        try:
            for pin_ids in pin_groups:
                net = board.add_net(list(pin_ids), family=family)
                new_nets.append(net.net_id)
                chain = stringer.string_net(net)
                new_conns = stringer.connections_for_chain(
                    net, chain, start_id=self._next_conn_id + len(added)
                )
                self.connections.extend(new_conns)
                added.extend(c.conn_id for c in new_conns)
        except ValueError as exc:  # a bad pin, or a StringingError
            for net in board.nets[n_nets:]:
                for pin_id in net.pin_ids:
                    board.pins[pin_id].net_id = -1
            del board.nets[n_nets:]
            del self.connections[n_connections:]
            raise EcoError(str(exc)) from exc
        self._next_conn_id += len(added)
        self._invalidated |= set(added)
        if self.sink.enabled:
            self.sink.emit(EcoInvalidate("add_nets", len(added), 0, 0))
        return EcoStats(
            op="add_nets",
            invalidated=tuple(added),
            added=tuple(added),
            net_ids=tuple(new_nets),
        )

    def cut_nets(self, net_ids: Sequence[int]) -> EcoStats:
        """Remove signal nets: rip their routes, free their pins.

        The nets' connections leave the problem entirely (they are
        *dropped*, not invalidated); cutting a net that never routed is
        pure bookkeeping and rips nothing.  The freed pins (including
        any claimed terminating resistor) become available to
        :meth:`add_nets` again; the net object stays as an empty
        tombstone so net ids remain stable.
        """
        self._check_open()
        ws = self.workspace
        cut: Set[int] = set()
        for net_id in net_ids:
            if not 0 <= net_id < len(self.board.nets):
                raise EcoError(f"unknown net id {net_id}")
            net = self.board.nets[net_id]
            if net.kind is not NetKind.SIGNAL:
                raise EcoError(f"net {net_id} is not a signal net")
            cut.add(net_id)
        ripped: List[int] = []
        dropped: List[int] = []
        for net_id in sorted(cut):
            if self.sink.enabled:
                self.sink.emit(EcoBegin("cut_nets", net_id))
            net = self.board.nets[net_id]
            for conn in self.connections:
                if conn.net_id != net_id:
                    continue
                dropped.append(conn.conn_id)
                if ws.is_routed(conn.conn_id):
                    ws.remove_connection(conn.conn_id)
                    ripped.append(conn.conn_id)
            for pin_id in net.pin_ids:
                self.board.pins[pin_id].net_id = -1
            net.pin_ids.clear()
        self.connections = [
            c for c in self.connections if c.net_id not in cut
        ]
        for conn_id in dropped:
            self._invalidated.discard(conn_id)
            self._routed_by.pop(conn_id, None)
        if self.sink.enabled:
            self.sink.emit(EcoInvalidate("cut_nets", 0, len(ripped), 0))
        return EcoStats(
            op="cut_nets",
            ripped=tuple(ripped),
            dropped=tuple(dropped),
            net_ids=tuple(sorted(cut)),
        )

    # ------------------------------------------------------------------
    # incremental rerouting
    # ------------------------------------------------------------------

    def reroute(self, budget: Optional[RouteBudget] = None):
        """Route everything pending; surviving routes stay untouched.

        Returns a :class:`~repro.api.RouteResponse` (same contract as
        :func:`repro.api.route`: exhaustion degrades, never raises).
        ``budget`` overrides the session config's budget for this call
        only.  With nothing pending the router is never built — the
        no-edit fast path costs one list scan.
        """
        self._check_open()
        started = time.perf_counter()
        ws = self.workspace
        invalidated = len(self._invalidated)
        pending = [
            c for c in self.connections if not ws.is_routed(c.conn_id)
        ]
        reused = len(self.connections) - len(pending)
        if pending:
            config = self.config
            if budget is not None:
                config = replace(config, budget=budget)
            router = make_router(
                self.board, config, workspace=ws, sink=self.sink
            )
            result = router.route(list(self.connections))
            profile = router.profile
            rerouted = len(result.routed_by)
            self._routed_by = {
                conn_id: strategy
                for conn_id, strategy in self._routed_by.items()
                if ws.is_routed(conn_id)
            }
            self._routed_by.update(result.routed_by)
        else:
            result = RoutingResult(
                workspace=ws, connections=list(self.connections)
            )
            profile = RouterProfile()
            rerouted = 0
        result.routed_by = dict(self._routed_by)
        self._invalidated.clear()
        elapsed = time.perf_counter() - started
        if self.sink.enabled:
            self.sink.emit(
                EcoReroute(
                    len(self.connections), invalidated, reused,
                    rerouted, len(result.failed), not pending, elapsed,
                )
            )
        return respond(
            result,
            profile,
            elapsed,
            {
                "eco_invalidated": invalidated,
                "eco_reused": reused,
                "eco_rerouted": rerouted,
            },
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def pending(self) -> List[int]:
        """Connection ids currently awaiting a reroute."""
        return [
            c.conn_id
            for c in self.connections
            if not self.workspace.is_routed(c.conn_id)
        ]

    def _check_open(self) -> None:
        if self._closed:
            raise EcoError("session is closed")
