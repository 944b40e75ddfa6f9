"""The stable service facade: one request in, one response out.

This module is the documented front door to the router (see
``docs/API.md``).  Everything else under :mod:`repro` — workspaces,
strategy internals, search kernels — is implementation that may
shift between releases; :class:`RouteRequest`, :class:`RouteResponse`
and :func:`route` are the surface that stays put.

::

    from repro import RouteBudget, RouteRequest, route, string_board

    request = RouteRequest(
        board=board,
        connections=string_board(board),
        budget=RouteBudget(deadline_seconds=10.0),
    )
    response = route(request)
    print(response.result.summary(), response.stopped_reason)

``route()`` never raises on exhaustion: a request whose budget runs out
returns a *partial* response — everything routed so far stays installed,
``stopped_reason`` says why the run ended early, and
``result.failure_reasons`` says per connection whether it was genuinely
blocked or merely out of clock.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.board.board import Board
from repro.board.nets import Connection
from repro.core.budget import RouteBudget
from repro.core.result import RoutingResult
from repro.core.router import RouterConfig, make_router
from repro.io.registry import LoadedBoard, load_board, load_board_text
from repro.obs.sinks import EventSink

if TYPE_CHECKING:
    from repro.channels.workspace import RoutingWorkspace

__all__ = [
    "LoadedBoard",
    "RouteRequest",
    "RouteResponse",
    "begin_eco",
    "load_board",
    "request_from_text",
    "reroute",
    "route",
]


@dataclass(frozen=True)
class RouteRequest:
    """Everything one routing call needs, as a single immutable value."""

    #: The board to route on (placed parts, nets, layer stack).
    board: Board
    #: Pin-to-pin connections to route (e.g. from ``string_board``).
    connections: Tuple[Connection, ...]
    #: Wall-clock and effort limits.  When set, overrides the budget
    #: nested in ``config``; None defers to ``config.budget``.
    budget: Optional[RouteBudget] = None
    #: Full router tuning; None means ``RouterConfig()`` defaults.
    config: Optional[RouterConfig] = None
    #: Optional routing event stream (``repro.obs``).
    sink: Optional[EventSink] = None
    #: Pre-seeded workspace to route into.  Formats that carry routing
    #: state of their own (kicad: dispersion traces, previously exported
    #: routes) arrive with one; None builds a fresh workspace from the
    #: board.  ``connections`` should then hold only the *pending*
    #: connections — :meth:`from_path` takes care of both.
    workspace: Optional["RoutingWorkspace"] = None

    def __post_init__(self) -> None:
        # Accept any iterable of connections but store a tuple, keeping
        # the request hashable-by-identity and safely re-usable.
        if not isinstance(self.connections, tuple):
            object.__setattr__(
                self, "connections", tuple(self.connections)
            )

    @property
    def resolved_config(self) -> RouterConfig:
        """The effective config: ``config`` with ``budget`` folded in."""
        config = self.config or RouterConfig()
        if self.budget is not None:
            config = replace(config, budget=self.budget)
        return config

    @classmethod
    def from_path(
        cls,
        path: Union[str, os.PathLike],
        *,
        format: str = "auto",
        connections_path: Optional[Union[str, os.PathLike]] = None,
        budget: Optional[RouteBudget] = None,
        config: Optional[RouterConfig] = None,
        sink: Optional[EventSink] = None,
        pitch_mm: Optional[float] = None,
    ) -> "RouteRequest":
        """Build a request from a board file in any registered format.

        Resolves the format by extension (``.kicad_pcb`` -> kicad,
        anything else -> native text) unless ``format`` overrides it,
        and loads through the :mod:`repro.io` registry — the same path
        the CLI and the service use.  Boards that arrive with routing
        state already installed (a kicad export) contribute it as the
        request's :attr:`workspace`, and only the still-unrouted
        connections are requested.
        """
        loaded = load_board(
            path,
            format=format,
            connections_path=connections_path,
            pitch_mm=pitch_mm,
        )
        return cls(
            board=loaded.board,
            connections=loaded.pending,
            budget=budget,
            config=config,
            sink=sink,
            workspace=loaded.workspace,
        )


@dataclass(frozen=True)
class RouteResponse:
    """The outcome of one :func:`route` call."""

    #: The full routing result (workspace, per-connection strategies,
    #: Table 1 statistics).  Partial when ``stopped_reason`` is set.
    result: RoutingResult
    #: None when every connection routed; otherwise why the run stopped
    #: short (``"deadline"`` / ``"stalled"`` / ``"max_passes"``).
    stopped_reason: Optional[str]
    #: Wall-clock seconds per router phase (zero_via/one_via/lee/...).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Profile counters: gap-list hits/misses, search cap hits, ...
    counters: Dict[str, int] = field(default_factory=dict)
    #: Total wall-clock seconds spent inside ``route()``.
    elapsed_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        """True when every requested connection routed."""
        return self.result.complete


def route(request: RouteRequest) -> RouteResponse:
    """Route one request; never raises on budget exhaustion.

    Builds the router, routes, and packages the result with the
    per-phase timings and counters from the router's profile.
    """
    router = make_router(
        request.board,
        request.resolved_config,
        workspace=request.workspace,
        sink=request.sink,
    )
    result = router.route(list(request.connections))
    profile = router.profile
    timings = {
        name: timing.seconds for name, timing in profile.phases.items()
    }
    return RouteResponse(
        result=result,
        stopped_reason=result.stopped_reason,
        timings=timings,
        counters=dict(profile.counters),
        elapsed_seconds=result.cpu_seconds,
    )


def request_from_text(
    board_text: str,
    connections_text: Optional[str] = None,
    *,
    format: str = "native",
    budget: Optional[RouteBudget] = None,
    config: Optional[RouterConfig] = None,
    sink: Optional[EventSink] = None,
) -> RouteRequest:
    """Build a :class:`RouteRequest` from board/connections text.

    The service boundary (``repro.serve``, or any caller shipping boards
    over a wire) moves boards and connection lists as text; decoding
    goes through the :mod:`repro.io` format registry, so the wire format
    and the file format can never drift apart.  ``format`` must be
    explicit (text has no extension to sniff); the default is the
    native line-based format.  Omitting ``connections_text`` strings
    the board's nets.
    """
    loaded = load_board_text(
        board_text, connections_text, format=format
    )
    return RouteRequest(
        board=loaded.board,
        connections=loaded.pending,
        budget=budget,
        config=config,
        sink=sink,
        workspace=loaded.workspace,
    )


def begin_eco(request: RouteRequest, response: RouteResponse):
    """Open an ECO session over a completed :func:`route` call.

    The session adopts the request's board and connection list and the
    response's routed workspace — the incremental counterpart of the
    batch facade.  Mutate it (``move_part`` / ``add_nets`` /
    ``cut_nets``), then call :func:`reroute`.
    """
    from repro.eco import EcoSession

    return EcoSession(
        board=request.board,
        connections=request.connections,
        config=request.resolved_config,
        sink=request.sink,
        workspace=response.result.workspace,
        routed_by=response.result.routed_by,
    )


def reroute(session, budget: Optional[RouteBudget] = None) -> RouteResponse:
    """Incrementally reroute an ECO session's pending connections.

    The incremental entry point beside :func:`route`: surviving routes
    are reused, and only connections the session's mutations
    invalidated (plus anything that was already unrouted) are routed.
    Shares ``route()``'s degradation contract — a ``budget`` that runs
    out yields a partial :class:`RouteResponse`, never an exception.
    """
    return session.reroute(budget=budget)
