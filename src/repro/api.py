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
``result.failure_reasons`` says per connection why it is unrouted, from
the closed set :class:`~repro.core.budget.FailureReason` (blocked,
truncated, displaced, or out of clock).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.board.board import Board
from repro.board.nets import Connection
from repro.core.budget import RouteBudget
from repro.core.profiling import RouterProfile
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
    #: Connections already routed in :attr:`workspace` when it arrived
    #: (a routed KiCad export, a restored route dump).  :func:`route`
    #: neither routes nor reports them; :func:`begin_eco` adopts them
    #: beside the routed ones, so an edit can cut or move them.
    restored: Tuple[Connection, ...] = ()

    def __post_init__(self) -> None:
        # Accept any iterables of connections but store tuples, keeping
        # the request hashable-by-identity and safely re-usable.
        for name in ("connections", "restored"):
            if not isinstance(getattr(self, name), tuple):
                object.__setattr__(self, name, tuple(getattr(self, name)))

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
        return cls._from_loaded(
            loaded, budget=budget, config=config, sink=sink
        )

    @classmethod
    def _from_loaded(cls, loaded: LoadedBoard, **settings) -> "RouteRequest":
        """The request that routes what ``loaded`` left pending, in the
        workspace it arrived with."""
        done = set(loaded.restored)
        return cls(
            board=loaded.board,
            connections=loaded.pending,
            workspace=loaded.workspace,
            restored=tuple(
                conn for conn in loaded.connections if conn.conn_id in done
            ),
            **settings,
        )


@dataclass(frozen=True)
class RouteResponse:
    """The outcome of one :func:`route` call or ECO reroute.

    Every count is kept once, on :attr:`result` (or, for a reroute, in
    :attr:`eco_counts`); :attr:`stopped_reason`, :attr:`timings` and
    :attr:`counters` are views of them.
    """

    #: The full routing result (workspace, per-connection strategies,
    #: Table 1 statistics, work counts).  Partial when
    #: ``stopped_reason`` is set.
    result: RoutingResult
    #: Per-phase timing of the run; empty when no router ran (a reroute
    #: with nothing pending).
    profile: RouterProfile = field(default_factory=RouterProfile)
    #: ``eco_invalidated`` / ``eco_reused`` / ``eco_rerouted`` of an ECO
    #: reroute; empty for :func:`route`.
    eco_counts: Dict[str, int] = field(default_factory=dict)
    #: Total wall-clock seconds spent inside ``route()``.
    elapsed_seconds: float = 0.0

    @property
    def stopped_reason(self) -> Optional[str]:
        """None when every connection routed; otherwise why the run
        stopped short (``"deadline"`` / ``"stalled"`` / ``"max_passes"``)."""
        return self.result.stopped_reason

    @property
    def timings(self) -> Dict[str, float]:
        """Wall-clock seconds per router phase (zero_via/one_via/lee/...)."""
        return {
            name: timing.seconds for name, timing in self.profile.phases.items()
        }

    @property
    def counters(self) -> Dict[str, int]:
        """The run's counts by name: search cap hits and retries, gap
        lists reused and built, and a reroute's ECO counts."""
        result = self.result
        return {
            "cap_hits": result.cap_hits,
            "cap_retries": result.cap_retries,
            "gap_cache_hits": result.gap_cache_hits,
            "gap_cache_misses": result.gap_cache_misses,
            **self.eco_counts,
        }

    @property
    def complete(self) -> bool:
        """True when every requested connection routed."""
        return self.result.complete


def route(request: RouteRequest) -> RouteResponse:
    """Route one request; never raises on budget exhaustion.

    Builds the router, routes, and packages the result with the run's
    per-phase timing.
    """
    router = make_router(
        request.board,
        request.resolved_config,
        workspace=request.workspace,
        sink=request.sink,
    )
    result = router.route(list(request.connections))
    return respond(result, router.profile, result.cpu_seconds)


def respond(
    result: RoutingResult,
    profile: RouterProfile,
    elapsed_seconds: float,
    eco_counts: Optional[Dict[str, int]] = None,
) -> RouteResponse:
    """The one place a :class:`RouteResponse` is built, for :func:`route`
    and both paths of ``EcoSession.reroute``."""
    return RouteResponse(
        result=result,
        profile=profile,
        eco_counts=eco_counts or {},
        elapsed_seconds=elapsed_seconds,
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
    loaded = load_board_text(board_text, connections_text, format=format)
    return RouteRequest._from_loaded(
        loaded, budget=budget, config=config, sink=sink
    )


def begin_eco(request: RouteRequest, response: RouteResponse):
    """Open an ECO session over a completed :func:`route` call.

    The session adopts the request's board and connection list and the
    response's routed workspace — the incremental counterpart of the
    batch facade.  Connections the request's workspace arrived with
    (:attr:`RouteRequest.restored`) join the list; the session labels
    them ``Strategy.PUTBACK``.  Mutate it (``move_part`` / ``add_nets``
    / ``cut_nets``), then call :func:`reroute`.
    """
    from repro.eco import EcoSession

    return EcoSession(
        board=request.board,
        connections=request.restored + request.connections,
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
