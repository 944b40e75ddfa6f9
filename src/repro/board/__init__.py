"""Printed-circuit-board substrate: technology rules, parts, nets, layers.

Models Section 2 of the paper: a board is a stack of layer pairs, parts have
through-hole pins on the via grid, nets divide into power nets (routed as
solid planes) and signal nets (routed as traces and vias by the router).
"""

from repro import lazy_exports

_EXPORTS = {
    "Board": "repro.board.board",
    "Connection": "repro.board.nets",
    "Layer": "repro.board.layers",
    "LayerKind": "repro.board.layers",
    "LayerStack": "repro.board.layers",
    "LogicFamily": "repro.board.technology",
    "Net": "repro.board.nets",
    "NetKind": "repro.board.nets",
    "Package": "repro.board.parts",
    "Part": "repro.board.parts",
    "Pin": "repro.board.parts",
    "PinRole": "repro.board.parts",
    "TechRules": "repro.board.technology",
    "dip_package": "repro.board.parts",
    "sip_package": "repro.board.parts",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
