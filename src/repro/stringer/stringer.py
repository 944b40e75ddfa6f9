"""The stringer: nearest-neighbor chaining with ECL termination.

Stringing happens before routing and fixes both the pin order of each chain
and, for ECL nets, which terminating resistor ends it.  The router input is
then a flat list of independent pin-to-pin connections (Figure 20 shows one
drawn as lines).

Net ordering is known to matter enormously — the paper reports a factor of
25 in CPU time between this stringing and a random one on the same problem
(reproduced in ``benchmarks/bench_stringing.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Set

from repro.board.board import Board
from repro.board.nets import Connection, Net
from repro.board.parts import Pin, PinRole
from repro.grid.coords import manhattan
from repro.io.registry import InputError


class StringingError(InputError):
    """A net cannot be strung (e.g. no free terminator for an ECL net).

    An :class:`~repro.io.registry.InputError`: the board, not the
    router, is at fault, so ``grr`` exits 2 and ``grr serve`` answers
    400 when a board read without a connection list cannot be strung.
    """


def chain_length(pins: Sequence[Pin]) -> int:
    """Total Manhattan length of a chain, in via-grid units."""
    return sum(
        manhattan(pins[i].position, pins[i + 1].position)
        for i in range(len(pins) - 1)
    )


class Stringer:
    """Prepares router input from a board's signal nets.

    A stringer serves one batch of stringing (one :meth:`string_all`, or
    one ECO ``add_nets`` call): its terminator index is built from the
    pins free on first use, so pins may be claimed while it lives but
    must not be freed.
    """

    def __init__(self, board: Board) -> None:
        self.board = board
        #: Free terminator pins sorted by ``(vx, pin_id)``, with their
        #: ``vx`` alongside; built on the first terminator query.
        self._terminators: Optional[List[Pin]] = None
        self._terminator_xs: List[int] = []

    # ------------------------------------------------------------------
    # per-net chaining
    # ------------------------------------------------------------------

    def _greedy_chain(
        self, start: Pin, outputs: List[Pin], inputs: List[Pin]
    ) -> List[Pin]:
        """Nearest-neighbor chain from ``start``; outputs before inputs.

        "Any output may start the chain, but all output pins must precede
        the input pins."
        """
        chain = [start]
        remaining_outputs = [p for p in outputs if p.pin_id != start.pin_id]
        remaining_inputs = [p for p in inputs if p.pin_id != start.pin_id]
        for pool in (remaining_outputs, remaining_inputs):
            while pool:
                tail = chain[-1].position
                nearest = min(
                    pool, key=lambda p: (manhattan(tail, p.position), p.pin_id)
                )
                pool.remove(nearest)
                chain.append(nearest)
        return chain

    def _nearest_free_terminator(
        self, position, reserved: Set[int]
    ) -> Optional[Pin]:
        """Nearest unclaimed terminating-resistor pin.

        Ties go to the lowest pin id.  The walk steps outward from
        ``position`` in x, always to the side with the smaller |dx|, and
        stops once |dx| alone exceeds the best distance found, so every
        pin that could tie or beat it has been seen.
        """
        if self._terminators is None:
            self._terminators = sorted(
                self.board.free_terminator_pins(),
                key=lambda p: (p.position.vx, p.pin_id),
            )
            self._terminator_xs = [p.position.vx for p in self._terminators]
        pins, xs = self._terminators, self._terminator_xs
        vx, vy = position
        right = bisect_left(xs, vx)
        left = right - 1
        best: Optional[Pin] = None
        best_key = None
        while left >= 0 or right < len(xs):
            if right == len(xs) or (
                left >= 0 and vx - xs[left] < xs[right] - vx
            ):
                pin, dx = pins[left], vx - xs[left]
                left -= 1
            else:
                pin, dx = pins[right], xs[right] - vx
                right += 1
            if best_key is not None and dx > best_key[0]:
                break
            if pin.net_id != -1 or pin.pin_id in reserved:
                continue
            key = (dx + abs(pin.position.vy - vy), pin.pin_id)
            if best_key is None or key < best_key:
                best, best_key = pin, key
        return best

    def string_net(
        self, net: Net, reserved_terminators: Optional[Set[int]] = None
    ) -> List[Pin]:
        """Best chain for one net (including its terminator for ECL).

        Tries every legal starting pin and keeps the shortest overall chain.
        For ECL nets the legal starts are the output pins (all outputs must
        precede inputs); for TTL any pin may start.  An ECL net that
        already lists exactly one terminating resistor (a board saved
        after stringing) ends every chain on it and claims no other.
        """
        reserved = (
            reserved_terminators if reserved_terminators is not None else set()
        )
        pins = [self.board.pins[i] for i in net.pin_ids]
        if len(pins) < 2:
            return pins
        own: Optional[Pin] = None
        if net.family.needs_termination:
            members = [p for p in pins if p.role is PinRole.TERMINATOR]
            if len(members) == 1:
                own = members[0]
                pins = [p for p in pins if p is not own]
        outputs = [p for p in pins if p.role is PinRole.OUTPUT]
        inputs = [p for p in pins if p.role is not PinRole.OUTPUT]
        if net.family.order_matters and outputs:
            starts = outputs
        else:
            starts = pins
        best_chain: Optional[List[Pin]] = None
        best_length = None
        for start in starts:
            chain = self._greedy_chain(start, outputs, inputs)
            if net.family.needs_termination:
                terminator = own or self._nearest_free_terminator(
                    chain[-1].position, reserved
                )
                if terminator is None:
                    raise StringingError(
                        f"no free terminating resistor for net {net.name}"
                    )
                chain = chain + [terminator]
            length = chain_length(chain)
            if best_length is None or length < best_length:
                best_length = length
                best_chain = chain
        assert best_chain is not None
        if net.family.needs_termination and own is None:
            terminator = best_chain[-1]
            reserved.add(terminator.pin_id)
            terminator.net_id = net.net_id
            net.pin_ids.append(terminator.pin_id)
        return best_chain

    # ------------------------------------------------------------------
    # whole-board stringing
    # ------------------------------------------------------------------

    def string_all(self) -> List[Connection]:
        """String every signal net; returns the flat connection list."""
        connections: List[Connection] = []
        reserved: Set[int] = set()
        for net in self.board.signal_nets:
            chain = self.string_net(net, reserved)
            connections.extend(
                self.connections_for_chain(net, chain, start_id=len(connections))
            )
        return connections

    @staticmethod
    def connections_for_chain(
        net: Net, chain: Sequence[Pin], start_id: int = 0
    ) -> List[Connection]:
        """Pin-to-pin connections for consecutive chain members."""
        connections = []
        for i in range(len(chain) - 1):
            a, b = chain[i], chain[i + 1]
            connections.append(
                Connection(
                    conn_id=start_id + i,
                    net_id=net.net_id,
                    pin_a=a.pin_id,
                    pin_b=b.pin_id,
                    a=a.position,
                    b=b.position,
                    family=net.family,
                )
            )
        return connections
