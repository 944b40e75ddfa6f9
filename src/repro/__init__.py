"""repro — a faithful reproduction of "Fast Printed Circuit Board Routing"
(Jeremy Dion, DAC 1987 / DEC WRL research report 88-1): the *grr* greedy
printed-circuit-board router and every substrate it depends on.

Quickstart (the stable ``repro.api`` facade — see ``docs/API.md``)::

    from repro import RouteBudget, RouteRequest, route, string_board

    board = ...  # build or load a board (see repro.workloads)
    request = RouteRequest(
        board=board,
        connections=string_board(board),
        budget=RouteBudget(deadline_seconds=10.0),
    )
    response = route(request)
    print(response.result.summary(), response.stopped_reason)

Importing ``repro`` (or any of its subpackages) loads no submodule: each
exported name is imported from its defining module the first time it is
used (see :func:`lazy_exports`).
"""

import sys

__version__ = "1.0.0"


def lazy_exports(package, exports):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's exports.

    ``exports`` maps each exported name to the module that defines it
    (``"module:attr"`` when the package exports it under another name).
    A name is imported on first access and stored in the package's
    globals, so later accesses never reach ``__getattr__``.  Submodules
    still import as usual (``from repro.core import lee``).
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module, _, attr = exports[name].partition(":")
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # __import__ (unlike importlib.import_module) is what
        # ``python -X importtime`` reports.
        __import__(module)
        value = getattr(sys.modules[module], attr or name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "Board": "repro.board.board",
    "Box": "repro.grid.geometry",
    "Connection": "repro.board.nets",
    "EcoError": "repro.eco",
    "EcoSession": "repro.eco",
    "EcoStats": "repro.eco",
    "GreedyRouter": "repro.core.router",
    "GridPoint": "repro.grid.coords",
    "Layer": "repro.board.layers",
    "LayerKind": "repro.board.layers",
    "LayerStack": "repro.board.layers",
    "LogicFamily": "repro.board.technology",
    "Net": "repro.board.nets",
    "NetKind": "repro.board.nets",
    "Orientation": "repro.grid.geometry",
    "Package": "repro.board.parts",
    "Part": "repro.board.parts",
    "Pin": "repro.board.parts",
    "PinRole": "repro.board.parts",
    "RouteBudget": "repro.core.budget",
    "RouteRequest": "repro.api",
    "RouteResponse": "repro.api",
    "RouterConfig": "repro.core.router",
    "RoutingGrid": "repro.grid.routing_grid",
    "RoutingResult": "repro.core.result",
    "RoutingWorkspace": "repro.channels.workspace",
    "Strategy": "repro.core.result",
    "TechRules": "repro.board.technology",
    "ViaPoint": "repro.grid.coords",
    "begin_eco": "repro.api",
    "dip_package": "repro.board.parts",
    "reroute": "repro.api",
    "route": "repro.api",
    "sip_package": "repro.board.parts",
    "sort_connections": "repro.core.sorting",
}
__all__ = [*_EXPORTS, "string_board"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)


def string_board(board):
    """Run the stringer on a board's signal nets (convenience wrapper)."""
    from repro.stringer import Stringer

    return Stringer(board).string_all()
